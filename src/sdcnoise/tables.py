"""Static table programmes, microdata and exact tabulation.

A programme is a catalog of variable breakdowns plus a list of
cross-tabulations published over them.  Totals are never stored as
categories: the total margin of any variable arises only by summing the
variable out completely, i.e. by dropping it from the statistic key.
Tabulation counts integer category codes into a row-major numpy cube with
one axis per sorted breakdown id; a marginal sums the dropped axes.  Only
:func:`encode` and :func:`table_counts` use numpy, and they import it, so
reading a programme does not.

Everything here is immutable after construction.  A :class:`Microdata`
memoises its category codes in ``codes`` (a count cube is counted afresh on
each call), and the release pipeline (:mod:`sdcnoise.attacks`) owns the rest
of ``codes`` and every :class:`TableProgramme`'s ``plans``; two tasks filling
the same memo at once compute equal values, so a race only repeats work, and
tabulation is safe to use from concurrent tasks.
"""

from __future__ import annotations

import csv
import itertools
import json
import math
from collections.abc import Iterable, Mapping, Sequence
from dataclasses import dataclass, field
from functools import cached_property
from typing import TYPE_CHECKING

from .errors import ProgrammeError

if TYPE_CHECKING:
    import numpy as np

Cell = tuple[str, ...]


@dataclass(frozen=True)
class Breakdown:
    """A categorical variable with its ordered internal categories."""

    id: str
    categories: tuple[str, ...]

    def __post_init__(self):
        if not self.id:
            raise ProgrammeError("breakdown id must be non-empty")
        if len(self.categories) < 1:
            raise ProgrammeError(f"breakdown {self.id!r} has no categories")
        if len(set(self.categories)) != len(self.categories):
            raise ProgrammeError(f"duplicate category in breakdown {self.id!r}")

    @property
    def cardinality(self) -> int:
        return len(self.categories)


@dataclass(frozen=True)
class TableSpec:
    """One published cross-tabulation, identified by its breakdown ids."""

    id: str
    breakdowns: tuple[str, ...]

    def __post_init__(self):
        if len(self.breakdowns) < 1:
            raise ProgrammeError(f"table {self.id!r} has no breakdowns")
        if len(set(self.breakdowns)) != len(self.breakdowns):
            raise ProgrammeError(f"duplicate breakdown in table {self.id!r}")

    @property
    def breakdown_set(self) -> frozenset[str]:
        return frozenset(self.breakdowns)


@dataclass(frozen=True)
class StatisticKey:
    """Identifies a marginal statistic, optionally narrowed to a single cell.

    ``breakdown_ids`` empty denotes the population total.  When ``cell`` is
    given, its values align with ``sorted(breakdown_ids)``.
    """

    breakdown_ids: frozenset[str]
    cell: Cell | None = None

    def __post_init__(self):
        if self.cell is not None and len(self.cell) != len(self.breakdown_ids):
            raise ProgrammeError(
                f"cell {self.cell!r} does not match breakdowns {sorted(self.breakdown_ids)}"
            )

    @cached_property
    def sorted_ids(self) -> tuple[str, ...]:
        return tuple(sorted(self.breakdown_ids))

    def label(self) -> str:
        return "total" if not self.breakdown_ids else "*".join(self.sorted_ids)


class TableProgramme:
    """Catalog of breakdowns plus the list of published tables.

    Two facts are derived once: ``released``, every (table id, statistic ids)
    pair of a full release in table order and then :func:`enumerate_subtables`
    order, and ``category_index``, each breakdown's category-to-position map.
    ``plans`` starts empty: a memo owned by the release pipeline
    (:mod:`sdcnoise.attacks`), which fills it on first use with what no seed
    changes.
    """

    def __init__(self, breakdowns: Iterable[Breakdown], tables: Iterable[TableSpec]):
        self.breakdowns: dict[str, Breakdown] = {}
        for b in breakdowns:
            if b.id in self.breakdowns:
                raise ProgrammeError(f"duplicate breakdown id {b.id!r}")
            self.breakdowns[b.id] = b
        self.tables: tuple[TableSpec, ...] = tuple(tables)
        seen = set()
        for i, t in enumerate(self.tables):
            if t.id in seen:
                raise ProgrammeError(f"duplicate table id {t.id!r}", f"tables[{i}]")
            seen.add(t.id)
            for j, bid in enumerate(t.breakdowns):
                if bid not in self.breakdowns:
                    raise ProgrammeError(
                        f"unknown breakdown reference {bid!r}",
                        f"tables[{i}].breakdowns[{j}]",
                    )
        self.released: tuple[tuple[str, frozenset[str]], ...] = tuple(
            (t.id, sub.breakdown_ids) for t in self.tables for sub in enumerate_subtables(t)
        )
        self.category_index: dict[str, dict[str, int]] = {
            bid: {c: i for i, c in enumerate(b.categories)} for bid, b in self.breakdowns.items()
        }
        self.plans: dict = {}

    def breakdown(self, bid: str) -> Breakdown:
        try:
            return self.breakdowns[bid]
        except KeyError:
            raise ProgrammeError(f"unknown breakdown reference {bid!r}") from None

    def validate_key(self, key: StatisticKey) -> None:
        for bid in key.breakdown_ids:
            self.breakdown(bid)
        for bid, value in zip(key.sorted_ids, key.cell or ()):
            if value not in self.category_index[bid]:
                raise ProgrammeError(f"value {value!r} is not a category of breakdown {bid!r}")

    def cells(self, key: StatisticKey) -> list[Cell]:
        """All cells of a statistic, lexicographic by breakdown id then category index."""
        axes = [self.breakdown(bid).categories for bid in key.sorted_ids]
        return list(itertools.product(*axes))


def parse_programme(document: str | Mapping) -> TableProgramme:
    """Parse and validate a table programme from JSON text or a parsed dict."""
    if isinstance(document, str):
        try:
            document = json.loads(document)
        except json.JSONDecodeError as exc:
            raise ProgrammeError(f"invalid JSON: {exc}") from exc
    if not isinstance(document, Mapping):
        raise ProgrammeError("programme document must be a JSON object")
    for required in ("breakdowns", "tables"):
        if required not in document:
            raise ProgrammeError(f"missing top-level key {required!r}")
        if not isinstance(document[required], list):
            raise ProgrammeError(f"top-level key {required!r} must be a list")
    breakdowns = []
    for i, entry in enumerate(document["breakdowns"]):
        loc = f"breakdowns[{i}]"
        if not isinstance(entry, Mapping) or "id" not in entry or "categories" not in entry:
            raise ProgrammeError("breakdown needs 'id' and 'categories'", loc)
        cats = entry["categories"]
        if not isinstance(cats, list) or not all(isinstance(c, str) for c in cats):
            raise ProgrammeError("'categories' must be a list of strings", loc)
        breakdowns.append(Breakdown(id=str(entry["id"]), categories=tuple(cats)))
    tables = []
    for i, entry in enumerate(document["tables"]):
        loc = f"tables[{i}]"
        if not isinstance(entry, Mapping) or "id" not in entry or "breakdowns" not in entry:
            raise ProgrammeError("table needs 'id' and 'breakdowns'", loc)
        refs = entry["breakdowns"]
        if not isinstance(refs, list) or not all(isinstance(r, str) for r in refs):
            raise ProgrammeError("'breakdowns' must be a list of ids", loc)
        tables.append(TableSpec(id=str(entry["id"]), breakdowns=tuple(refs)))
    return TableProgramme(breakdowns, tables)


def enumerate_subtables(table: TableSpec) -> list[StatisticKey]:
    """All 2^m marginal keys of a table, from the total margin up to the table itself."""
    ids = sorted(table.breakdowns)
    keys = []
    for size in range(len(ids) + 1):
        for combo in itertools.combinations(ids, size):
            keys.append(StatisticKey(frozenset(combo)))
    return keys


@dataclass(frozen=True)
class Microdata:
    """Person records; one categorical value per breakdown of the catalog.

    ``columns`` and ``records`` are stored as tuples, so the records cannot
    change under the memos in ``codes``: the category codes of :func:`encode`
    and what the release pipeline (:mod:`sdcnoise.attacks`) memoises there.
    """

    columns: tuple[str, ...]
    records: tuple[tuple[str, ...], ...]
    codes: dict = field(default_factory=dict, init=False, compare=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "columns", tuple(self.columns))
        object.__setattr__(self, "records", tuple(map(tuple, self.records)))
        widths = list(map(len, self.records))
        if widths.count(len(self.columns)) != len(widths):
            i = next(i for i, width in enumerate(widths) if width != len(self.columns))
            raise ProgrammeError(f"{widths[i]} values for {len(self.columns)} columns", f"records[{i}]")

    @property
    def n(self) -> int:
        return len(self.records)

    def column_index(self, bid: str) -> int:
        try:
            return self.columns.index(bid)
        except ValueError:
            raise ProgrammeError(f"microdata has no column {bid!r}") from None


def validate_microdata(programme: TableProgramme, data: Microdata) -> None:
    if sorted(data.columns) != sorted(programme.breakdowns):
        raise ProgrammeError(
            f"microdata columns {sorted(data.columns)} do not match catalog "
            f"{sorted(programme.breakdowns)}"
        )
    encode(programme, data, data.columns)


def read_microdata(path, programme: TableProgramme) -> Microdata:
    """Read microdata from CSV (header row mandatory, one column per breakdown) and validate it."""
    try:
        with open(path, encoding="utf-8", newline="") as fh:
            rows = [tuple(row) for row in csv.reader(fh) if row]
    except (OSError, UnicodeDecodeError) as exc:
        raise ProgrammeError(f"cannot read microdata file: {exc}") from exc
    if not rows:
        raise ProgrammeError("microdata CSV is empty")
    data = Microdata(columns=rows[0], records=tuple(rows[1:]))
    validate_microdata(programme, data)
    return data


def encode(programme: TableProgramme, data: Microdata, ids: Iterable[str]) -> dict[str, np.ndarray]:
    """Position of every value of the columns ``ids`` among its breakdown's categories.

    The read-only code arrays are memoised on ``data.codes`` by breakdown id
    and category order, so each column is encoded once per ordering.
    """
    import numpy as np
    keys = {bid: (bid, programme.breakdown(bid).categories) for bid in ids}
    missing = [bid for bid, key in keys.items() if key not in data.codes]
    columns = (list(zip(*data.records)) or [()] * len(data.columns)) if missing else []
    for bid in missing:
        column, index = columns[data.column_index(bid)], programme.category_index[bid]
        try:
            codes = np.fromiter(map(index.__getitem__, column), np.intp, len(column))
        except KeyError as exc:
            (value,) = exc.args
            raise ProgrammeError(
                f"value {value!r} is not a category of breakdown {bid!r}", f"records[{column.index(value)}]"
            ) from None
        codes.flags.writeable = False
        data.codes[keys[bid]] = codes
    return {bid: data.codes[key] for bid, key in keys.items()}


def table_counts(
    programme: TableProgramme, data: Microdata, ids: Sequence[str]
) -> tuple[np.ndarray, np.ndarray]:
    """Flat cube cell of every record and the count cube over the sorted non-empty ``ids``.

    Both arrays are read-only; only the column codes they are built from are memoised.
    """
    import numpy as np
    codes = encode(programme, data, ids)
    shape = tuple(programme.breakdown(bid).cardinality for bid in ids)
    flat = np.ravel_multi_index([codes[bid] for bid in ids], shape)
    counts = np.bincount(flat, minlength=math.prod(shape)).reshape(shape)
    flat.flags.writeable = counts.flags.writeable = False
    return flat, counts


def tabulate(
    programme: TableProgramme, data: Microdata, key: StatisticKey
) -> dict[Cell, int]:
    """Exact tabulation of the microdata by a statistic key.

    Every cell of the statistic appears in the result, zeros included, in
    :meth:`TableProgramme.cells` order.  The empty key returns ``{(): n}``.
    A cell-restricted key returns only that cell's count.
    """
    programme.validate_key(key)
    ids = key.sorted_ids
    if not ids:
        return {(): data.n}
    table = dict(zip(programme.cells(key), table_counts(programme, data, ids)[1].ravel().tolist()))
    if key.cell is not None:
        return {key.cell: table[key.cell]}
    return table


def neighbor(data: Microdata, op: str, record: tuple[str, ...]) -> Microdata:
    """A database differing from ``data`` by exactly one record."""
    if op == "add":
        return Microdata(columns=data.columns, records=data.records + (tuple(record),))
    if op == "remove":
        records = list(data.records)
        try:
            records.remove(tuple(record))
        except ValueError:
            raise ProgrammeError(f"record {record!r} not present, cannot remove") from None
        return Microdata(columns=data.columns, records=tuple(records))
    raise ProgrammeError(f"unknown neighbor op {op!r}, expected 'add' or 'remove'")
