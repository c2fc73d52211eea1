"""Noise distributions and the cell-key mechanism.

Covers the continuous Laplace distribution, its discrete two-tailed geometric
sibling, a bounded (rejection-truncated) variant, and lookup-table noise with
prescribed variance V and hard bound E.  Lookup tables are generated by
maximum entropy: under the constraints of normalization, zero mean and fixed
variance the solution is the symmetric family p_j proportional to
exp(-lambda * j^2), with lambda found by bisection (lambda = 0 is the uniform
limit V = E(E+1)/3).

The parameter rules live here: :func:`check_epsilon` for a positive epsilon, the
geometric law's smallest epsilon, and :func:`gen_ptable` for (V, E).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, InfeasibleError

_FRAC_BITS = 64
_FRAC_ONE = 1 << _FRAC_BITS


def check_epsilon(epsilon: float) -> float:
    """``epsilon`` if 0 < epsilon < inf, else DomainError (NaN included): the one positive-epsilon check."""
    if not 0 < epsilon < math.inf:
        raise DomainError(f"epsilon must be positive and finite, got {epsilon}")
    return epsilon


def _geometric_ratio(epsilon: float) -> float:
    """q = e^-eps of the geometric law, after checking that 1 - q does not round to 0."""
    q = math.exp(-check_epsilon(epsilon))
    if q == 1.0:
        raise DomainError(f"epsilon {epsilon} is too small for the geometric law: 1 - e^-eps rounds to 0")
    return q


def laplace_variance(epsilon: float, delta_sens: int = 1) -> float:
    """Variance 2*(delta/epsilon)^2 of Laplace noise calibrated to sensitivity."""
    check_epsilon(epsilon)
    if delta_sens < 1:
        raise DomainError(f"sensitivity must be >= 1, got {delta_sens}")
    try:
        variance = 2.0 * (delta_sens / epsilon) ** 2  # a subnormal epsilon gives inf without raising
    except OverflowError:
        variance = math.inf
    if variance == math.inf:
        raise DomainError(f"Laplace variance 2*({delta_sens}/{epsilon})^2 overflows")
    return variance


def geometric2_pmf(x, epsilon: float):
    """Two-tailed geometric pmf on the integers, (1-q)/(1+q) * q^|x| with q=e^-eps."""
    q = _geometric_ratio(epsilon)
    return (1.0 - q) / (1.0 + q) * np.exp(-epsilon * np.abs(x))


def uniform_max_variance(bound: int) -> float:
    """Largest variance achievable on {-E..E}: the uniform value E(E+1)/3."""
    return bound * (bound + 1) / 3.0


@dataclass(frozen=True)
class PTable:
    """Discrete symmetric noise lookup table on {-E..E}.

    ``probabilities[j + bound]`` is the mass at value j; ``cumulative`` holds
    the prefix sums used for quantile lookup.
    """

    bound: int
    probabilities: np.ndarray
    cumulative: np.ndarray = field(init=False)

    def __post_init__(self):
        p = np.asarray(self.probabilities, dtype=float)
        if p.shape != (2 * self.bound + 1,):
            raise DomainError(
                f"expected {2 * self.bound + 1} probabilities, got {p.shape}"
            )
        if np.any(p < 0):
            raise DomainError("probabilities must be nonnegative")
        if abs(p.sum() - 1.0) > 1e-12:
            raise DomainError(f"probabilities sum to {p.sum()!r}, not 1")
        if np.max(np.abs(p - p[::-1])) > 1e-12:
            raise DomainError("probabilities must be symmetric around 0")
        object.__setattr__(self, "probabilities", p)
        object.__setattr__(self, "cumulative", np.cumsum(p))

    @property
    def support(self) -> np.ndarray:
        return np.arange(-self.bound, self.bound + 1)

    def variance(self) -> float:
        return float(np.sum(self.support**2 * self.probabilities))

    def entropy(self) -> float:
        p = self.probabilities[self.probabilities > 0]
        return float(-np.sum(p * np.log(p)))

    def quantile(self, u) -> np.ndarray | int:
        """Smallest j with cumulative mass >= u."""
        idx = np.searchsorted(self.cumulative, u, side="left")
        idx = np.minimum(idx, 2 * self.bound)
        result = idx - self.bound
        return int(result) if np.isscalar(u) else result

    def as_pmf(self) -> dict[int, float]:
        return {int(j): float(p) for j, p in zip(self.support, self.probabilities)}


def _variance_for_lambda(lam: float, bound: int) -> float:
    j = np.arange(-bound, bound + 1)
    w = np.exp(-lam * j.astype(float) ** 2)
    return float(np.sum(j**2 * w) / np.sum(w))


def gen_ptable(variance: float, bound: int) -> PTable:
    """Maximum-entropy lookup table with mean 0, variance ``variance``, bound ``bound``.

    The one (V, E) feasibility test: InfeasibleError unless 0 < V <= E(E+1)/3
    (NaN fails), checked before the bound, which must then be positive.
    """
    vmax = uniform_max_variance(bound)
    if not 0 < variance <= vmax + 1e-12:
        raise InfeasibleError(
            f"variance {variance} is not positive or exceeds the uniform maximum E(E+1)/3 = {vmax}"
        )
    if bound < 1:
        raise DomainError(f"bound must be a positive integer, got {bound}")
    j = np.arange(-bound, bound + 1)
    if abs(variance - vmax) <= 1e-12:
        lam = 0.0
    else:
        lo, hi = 0.0, 50.0
        while _variance_for_lambda(hi, bound) > variance:  # tiny V needs a wider bracket
            hi *= 2.0
        # variance is strictly decreasing in lambda; bisect the residual away
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if _variance_for_lambda(mid, bound) > variance:
                lo = mid
            else:
                hi = mid
            if hi - lo < 1e-15 and abs(_variance_for_lambda(hi, bound) - variance) < 1e-12:
                break
        lam = 0.5 * (lo + hi)
    w = np.exp(-lam * j.astype(float) ** 2)
    return PTable(bound=bound, probabilities=w / w.sum())


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

    @property
    def key(self) -> float:
        return self.fraction / _FRAC_ONE

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


def cell_key_noise(cell_records, ptable: PTable) -> int:
    """Deterministic lookup noise: the p-table quantile at the cell key."""
    return int(ptable.quantile(cell_key(cell_records)))


# --- parameterized noise specifications -------------------------------------


@dataclass(frozen=True)
class Laplace:
    epsilon: float

    def __post_init__(self):
        laplace_variance(self.epsilon)  # validates


@dataclass(frozen=True)
class TwoTailedGeometric:
    epsilon: float

    def __post_init__(self):
        _geometric_ratio(self.epsilon)


@dataclass(frozen=True)
class TruncatedLaplace:
    epsilon: float
    bound: int

    def __post_init__(self):
        _geometric_ratio(self.epsilon)
        if self.bound < 1:
            raise DomainError(f"bound must be a positive integer, got {self.bound}")


@dataclass(frozen=True)
class CellKey:
    """Lookup-table noise; its p-table is built once, when the spec is made."""

    variance: float
    bound: int
    _ptable: PTable = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "_ptable", gen_ptable(self.variance, self.bound))

    def ptable(self) -> PTable:
        return self._ptable


NoiseSpec = Laplace | TwoTailedGeometric | TruncatedLaplace | CellKey


def _sample_geometric2(rng: np.random.Generator, epsilon: float, count: int) -> np.ndarray:
    # difference of two iid geometric(1 - e^-eps) variables (shifted to start at 0)
    p = 1.0 - _geometric_ratio(epsilon)
    return (rng.geometric(p, size=count) - rng.geometric(p, size=count)).astype(np.int64)


def sample_noise(spec: NoiseSpec, seed, count: int) -> np.ndarray:
    """Reproducible noise draws; reals for Laplace, integers otherwise."""
    if count < 1:
        raise DomainError(f"count must be positive, got {count}")
    rng = np.random.default_rng(seed)
    if isinstance(spec, Laplace):
        return rng.laplace(0.0, 1.0 / spec.epsilon, size=count)
    if isinstance(spec, TwoTailedGeometric):
        return _sample_geometric2(rng, spec.epsilon, count)
    if isinstance(spec, TruncatedLaplace):
        out = np.empty(count, dtype=np.int64)
        filled = 0
        while filled < count:
            draws = _sample_geometric2(rng, spec.epsilon, count - filled)
            keep = draws[np.abs(draws) <= spec.bound]
            out[filled : filled + keep.size] = keep
            filled += keep.size
        return out
    if isinstance(spec, CellKey):
        ptable = spec.ptable()
        return np.asarray(ptable.quantile(rng.random(count)), dtype=np.int64)
    raise DomainError(f"unknown noise spec {spec!r}")
