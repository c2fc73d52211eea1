"""Independent redundant representations (IRRs) of output statistics.

Any statistic contained in a static programme can be rebuilt by summing a
deeper tabulation over the extra variables; each such marginalization is an
IRR.  The number t of IRRs and the total weight k (independent counts summed)
fix the averaging risk measure k/t^2.  With SPSN, identical marginalizations
across tables share their noise, so IRRs deduplicate to unique marginalization
sets; without it every (table, marginalization) pair counts.
"""

from __future__ import annotations

import math
from collections.abc import Mapping, Sequence
from dataclasses import dataclass

from .errors import DomainError, ProgrammeError
from .tables import StatisticKey, TableProgramme


@dataclass(frozen=True)
class IRR:
    """One redundant representation: sum a source tabulation over ``summed_out``.

    ``table_id`` is retained only when SPSN is off (it then distinguishes
    independent noise); ``k_weight`` is the number of counts summed, i.e. the
    product of the summed-out cardinalities (1 for the trivial representation).
    """

    summed_out: frozenset[str]
    k_weight: int
    table_id: str | None = None

    def sort_key(self):
        return (self.k_weight, tuple(sorted(self.summed_out)), self.table_id or "")


@dataclass(frozen=True)
class IRRStats:
    """Aggregate (t, k) counts over a list of IRRs."""

    t: int
    k: int
    irrs: tuple[IRR, ...]

    def __post_init__(self):
        if self.t < 1:
            raise DomainError("t must be positive")
        if self.k < self.t:
            raise DomainError(f"k={self.k} smaller than t={self.t} is impossible")

    @property
    def ratio(self) -> float:
        return self.k / self.t**2


def enumerate_irrs(
    programme: TableProgramme,
    target: StatisticKey,
    spsn: bool = True,
    geo_cardinalities: Mapping[str, int] | None = None,
) -> list[IRR]:
    """All IRRs of a target statistic available in the programme.

    Each released statistic that holds the target is one IRR, in
    ``programme.released`` order; with SPSN a summed-out set counts once.
    """
    programme.validate_key(target)
    sizes = {bid: b.cardinality for bid, b in programme.breakdowns.items()}
    for bid, size in (geo_cardinalities or {}).items():
        if bid not in sizes:
            raise ProgrammeError(f"cardinality override for {bid!r}, which is not a breakdown")
        if int(size) < 1:
            raise DomainError(f"cardinality override {bid}={size} must be at least 1")
        sizes[bid] = int(size)
    ids = target.breakdown_ids
    irrs: list[IRR] = []
    seen: set[frozenset[str]] = set()
    for table_id, stat in programme.released:
        if ids <= stat and not (spsn and stat in seen):
            seen.add(stat)
            summed = stat - ids
            irrs.append(IRR(summed, math.prod(sizes[bid] for bid in summed), None if spsn else table_id))
    if not irrs:
        raise DomainError(f"statistic {target.label()} is not contained in any table of the programme")
    return irrs


def count_k_t(irrs: Sequence[IRR]) -> IRRStats:
    """Plain (t, k) aggregation over a list of IRRs."""
    if not irrs:
        raise DomainError("cannot aggregate an empty IRR list")
    return IRRStats(t=len(irrs), k=sum(i.k_weight for i in irrs), irrs=tuple(irrs))


def optimize_kt2(irrs: Sequence[IRR]) -> IRRStats:
    """Greedy subset minimizing k/t^2: admit IRRs by ascending weight while the
    aggregate ratio strictly decreases; the first increase stops the scan."""
    if not irrs:
        raise DomainError("cannot optimize an empty IRR list")
    ordered = sorted(irrs, key=IRR.sort_key)
    admitted = [ordered[0]]
    k, t = ordered[0].k_weight, 1
    ratio = k / t**2
    for irr in ordered[1:]:
        nk, nt = k + irr.k_weight, t + 1
        nratio = nk / nt**2
        if nratio >= ratio:
            break
        admitted.append(irr)
        k, t, ratio = nk, nt, nratio
    return count_k_t(admitted)


def statistic_universe(programme: TableProgramme) -> list[StatisticKey]:
    """Every statistic occurring as a subset of some table, deduplicated.

    Deterministic order: by dimension, then by sorted breakdown ids.
    """
    seen = {stat for _, stat in programme.released}
    return [StatisticKey(s) for s in sorted(seen, key=lambda s: (len(s), tuple(sorted(s))))]


@dataclass(frozen=True)
class RankedStatistic:
    """Raw and greedy-optimized aggregates for one statistic."""

    target: StatisticKey
    raw: IRRStats
    optimized: IRRStats


def rank_statistics(
    programme: TableProgramme,
    spsn: bool = True,
    geo_cardinalities: Mapping[str, int] | None = None,
    order: str = "ratio",
) -> list[RankedStatistic]:
    """Raw and optimized (t, k) stats for every statistic in the programme.

    ``order="ratio"`` sorts ascending by the optimized k/t^2 (riskiest first);
    ``order="t"`` sorts descending by the raw IRR count.
    """
    if order not in ("ratio", "t"):
        raise DomainError(f"order must be 'ratio' or 't', got {order!r}")
    stats = []
    for key in statistic_universe(programme):
        irrs = enumerate_irrs(programme, key, spsn=spsn, geo_cardinalities=geo_cardinalities)
        stats.append(RankedStatistic(target=key, raw=count_k_t(irrs), optimized=optimize_kt2(irrs)))
    if order == "t":
        stats.sort(key=lambda s: (-s.raw.t, s.raw.ratio, s.target.sorted_ids))
    else:
        stats.sort(key=lambda s: (s.optimized.ratio, -s.raw.t, s.target.sorted_ids))
    return stats

