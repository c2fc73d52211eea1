"""Per-record cell-key oracle: the record-by-record definition a cell-key release must meet.

Each record carries a uniform key in [0, 1) held as a 64-bit fixed-precision
fraction; a cell's key is the fractional part of its records' keys summed, and
its noise the p-table quantile at that key.  The release pipeline computes the
same thing as wrapped uint64 sums over count cubes; the tests pin it to this.
"""

from dataclasses import dataclass

import numpy as np

from sdcnoise.errors import DomainError

_FRAC_BITS = 64
_FRAC_ONE = 1 << _FRAC_BITS


@dataclass(frozen=True)
class RecordKey:
    """Per-record uniform key in [0,1), held as a 64-bit fixed-precision fraction.

    Fixed precision makes cell-key addition exactly associative, so identical
    record sets yield bit-identical cell keys regardless of summation order.
    """

    fraction: int

    def __post_init__(self):
        if not 0 <= self.fraction < _FRAC_ONE:
            raise DomainError(f"fraction out of range: {self.fraction}")

    @classmethod
    def from_float(cls, key: float) -> "RecordKey":
        if not 0.0 <= key < 1.0:
            raise DomainError(f"record key must lie in [0,1), got {key}")
        return cls(fraction=int(key * _FRAC_ONE) % _FRAC_ONE)


def random_record_keys(count: int, seed) -> list[RecordKey]:
    rng = np.random.default_rng(seed)
    fractions = rng.integers(0, _FRAC_ONE, size=count, dtype=np.uint64)
    return [RecordKey(fraction=int(f)) for f in fractions]


def cell_key(records) -> float:
    """Fractional part of the summed record keys; 0 for the empty cell."""
    total = 0
    for rk in records:
        total = (total + rk.fraction) % _FRAC_ONE
    return total / _FRAC_ONE


def cell_key_noise(cell_records, ptable) -> int:
    """Deterministic lookup noise: the p-table quantile at the cell key."""
    return int(ptable.quantile(cell_key(cell_records)))
