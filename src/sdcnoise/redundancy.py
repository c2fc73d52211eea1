"""Independent redundant representations (IRRs) of output statistics.

Any statistic contained in a static programme can be rebuilt by summing a
deeper tabulation over the extra variables; each such marginalization is an
IRR.  The number t of IRRs and the total weight k (independent counts summed)
fix the averaging risk measure k/t^2.  With SPSN, identical marginalizations
across tables share their noise, so IRRs deduplicate to unique marginalization
sets; without it every (table, marginalization) pair counts.
"""

from __future__ import annotations

import itertools
from collections.abc import Mapping, Sequence
from dataclasses import dataclass

from .errors import DomainError
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
    """Aggregate (t, k) counts for one target statistic."""

    target: StatisticKey
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


def _weight(
    programme: TableProgramme,
    summed_out: frozenset[str],
    overrides: Mapping[str, int] | None,
) -> int:
    w = 1
    for bid in summed_out:
        if overrides and bid in overrides:
            w *= int(overrides[bid])
        else:
            w *= programme.breakdown(bid).cardinality
    return w


def enumerate_irrs(
    programme: TableProgramme,
    target: StatisticKey,
    spsn: bool = True,
    geo_cardinalities: Mapping[str, int] | None = None,
) -> list[IRR]:
    """All IRRs of a target statistic available in the programme."""
    programme.validate_key(target)
    ids = target.breakdown_ids
    irrs: list[IRR] = []
    seen: set[frozenset[str]] = set()
    for table in programme.tables:
        tset = table.breakdown_set
        if not ids <= tset:
            continue
        complement = sorted(tset - ids)
        for size in range(len(complement) + 1):
            for combo in itertools.combinations(complement, size):
                summed = frozenset(combo)
                if spsn:
                    if summed in seen:
                        continue
                    seen.add(summed)
                    irrs.append(
                        IRR(summed_out=summed, k_weight=_weight(programme, summed, geo_cardinalities))
                    )
                else:
                    irrs.append(
                        IRR(
                            summed_out=summed,
                            k_weight=_weight(programme, summed, geo_cardinalities),
                            table_id=table.id,
                        )
                    )
    if not irrs:
        raise DomainError(
            f"statistic {target.label()} is not contained in any table of the programme"
        )
    return irrs


def count_k_t(irrs: Sequence[IRR], target: StatisticKey | None = None) -> IRRStats:
    """Plain (t, k) aggregation over a list of IRRs."""
    if not irrs:
        raise DomainError("cannot aggregate an empty IRR list")
    target = target if target is not None else StatisticKey(frozenset())
    return IRRStats(
        target=target,
        t=len(irrs),
        k=sum(i.k_weight for i in irrs),
        irrs=tuple(irrs),
    )


def optimize_kt2(irrs: Sequence[IRR], target: StatisticKey | None = None) -> IRRStats:
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
    return count_k_t(admitted, target)


def statistic_universe(programme: TableProgramme) -> list[StatisticKey]:
    """Every statistic occurring as a subset of some table, deduplicated.

    Deterministic order: by dimension, then by sorted breakdown ids.
    """
    seen: set[frozenset[str]] = set()
    for table in programme.tables:
        ids = sorted(table.breakdowns)
        for size in range(len(ids) + 1):
            for combo in itertools.combinations(ids, size):
                seen.add(frozenset(combo))
    return [
        StatisticKey(s)
        for s in sorted(seen, key=lambda s: (len(s), tuple(sorted(s))))
    ]


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
        stats.append(
            RankedStatistic(
                target=key, raw=count_k_t(irrs, key), optimized=optimize_kt2(irrs, key)
            )
        )
    if order == "t":
        stats.sort(key=lambda s: (-s.raw.t, s.raw.ratio, s.target.sorted_ids))
    else:
        stats.sort(key=lambda s: (s.optimized.ratio, -s.raw.t, s.target.sorted_ids))
    return stats

