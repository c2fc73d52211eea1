"""Differential-privacy risk accounting for count outputs.

Guarantee checks are computed for the unit-shift neighboring pair (person
counts change by exactly 1), which is the relevant setting for census-like
tabulations.  Natural logarithms are used throughout.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Mapping, Sequence

from .errors import DomainError
from .noise import check_epsilon
from .tables import StatisticKey, TableProgramme
from .utility import dp_utility_eps


def reid_rate(r_recon: float, r_match: float) -> float:
    """Re-identification success rate: product of reconstruction and matching rates."""
    for name, value in (("r_recon", r_recon), ("r_match", r_match)):
        if not 0.0 <= value <= 1.0:
            raise DomainError(f"{name} must lie in [0,1], got {value}")
    return float(r_recon * r_match)


def _excess(p: float, q: float, factor: float, epsilon: float) -> float:
    """max(0, p - e^eps * q), where ``factor`` is e^eps, or inf once it overflows and logs compare."""
    if q == 0.0:
        return p
    if factor < math.inf:
        return max(0.0, p - factor * q)
    if p == 0.0 or epsilon >= math.log(p) - math.log(q):
        return 0.0
    return p - math.exp(epsilon + math.log(q))


def tightest_delta(pmf: Mapping[int, float], epsilon: float) -> float:
    """Smallest delta making a unit-shifted pair of this noise pmf (eps, delta)-DP.

    Maximizes sum_x max(0, p(x) - e^eps * p(x - s)) over shifts s in {+1, -1};
    strictly positive for every bounded pmf at any finite epsilon.
    """
    if not 0 <= epsilon < math.inf:
        raise DomainError(f"epsilon must be nonnegative and finite, got {epsilon}")
    total = sum(pmf.values())
    if not abs(total - 1.0) <= 1e-9 or not all(p >= 0 for p in pmf.values()):
        raise DomainError(f"invalid pmf (sum {total})")
    try:
        factor = math.exp(epsilon)
    except OverflowError:
        factor = math.inf
    return max(
        sum(_excess(p, pmf.get(x - shift, 0.0), factor, epsilon) for x, p in pmf.items())
        for shift in (1, -1)
    )


def sensitivity(
    programme: TableProgramme, query: Sequence[StatisticKey], spsn: bool = False
) -> int:
    """Global L1 sensitivity of a set of requested tabulations.

    A single-record change moves exactly one cell of every full tabulation it
    appears in, so each requested full tabulation contributes 1.  Cell-restricted
    keys contribute only for records matching the cell; the maximum over record
    types is taken.  With SPSN, duplicate keys share their noise and count once.
    """
    if not query:
        raise DomainError("sensitivity of an empty query is undefined")
    for key in query:
        programme.validate_key(key)
    full = [k for k in query if k.cell is None]
    cells = [k for k in query if k.cell is not None]
    if spsn:
        base = len({k.breakdown_ids for k in full})
        cells = list({(k.breakdown_ids, k.cell): k for k in cells}.values())
    else:
        base = len(full)
    if not cells:
        return base
    # maximize matched cell keys over the record's values on involved breakdowns
    involved = sorted({bid for k in cells for bid in k.breakdown_ids})
    axes = [programme.breakdown(bid).categories for bid in involved]
    best = 0
    for combo in itertools.product(*axes):
        assignment = dict(zip(involved, combo))
        matched = sum(
            1
            for k in cells
            if all(assignment[b] == v for b, v in zip(k.sorted_ids, k.cell))
        )
        best = max(best, matched)
    return base + best


def halving_schedule(global_epsilon: float, i: int) -> float:
    """Budget eps/2^i of the i-th call under the iterative halving schedule (0 once it underflows)."""
    check_epsilon(global_epsilon)
    if i < 1:
        raise DomainError(f"call index must be >= 1, got {i}")
    return math.ldexp(global_epsilon, -i)


def eps_alpha_n(n: int, alpha: float) -> float:
    """Per-query epsilon above which a size-n database is reconstructable at
    confidence alpha (Dinur & Nissim): the budget keeping t = n log^2 n
    outputs within sqrt(n)."""
    if n < 2:
        raise DomainError(f"database size must be >= 2, got {n}")
    return dp_utility_eps(math.sqrt(n), n * math.log(n) ** 2, alpha)


def noise_scale_for_global(global_epsilon: float, t: float) -> float:
    """Per-count Laplace noise scale sqrt(2)*t/eps under an even eps/t split."""
    check_epsilon(global_epsilon)
    if not t > 0:
        raise DomainError(f"output complexity must be positive, got {t}")
    return math.sqrt(2.0) * t / global_epsilon


def us_table_budget(global_epsilon: float, rounded: bool = True) -> float:
    """Per-table budget: 67.5% of a 1/6 geography share, i.e. 0.1125*eps exactly,
    or the working approximation 0.10*eps when ``rounded``."""
    check_epsilon(global_epsilon)
    share = 0.10 if rounded else 0.675 / 6.0
    return share * global_epsilon
