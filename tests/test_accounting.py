import math
import random
import sys

import numpy as np
import pytest

from sdcnoise.accounting import (
    BudgetSplit,
    DPGuarantee,
    compose,
    eps_alpha_n,
    halving_schedule,
    noise_scale_for_global,
    reid_rate,
    sensitivity,
    tightest_delta,
    us_table_budget,
)
from sdcnoise.errors import DomainError
from sdcnoise.noise import gen_ptable, geometric2_pmf, laplace_variance, uniform_max_variance
from sdcnoise.tables import (
    Breakdown,
    Microdata,
    StatisticKey,
    TableProgramme,
    TableSpec,
    enumerate_subtables,
    neighbor,
    parse_programme,
    tabulate,
)

SEX_AGE = parse_programme(
    {
        "breakdowns": [
            {"id": "SEX", "categories": ["F", "M"]},
            {"id": "AGE", "categories": ["young", "old"]},
        ],
        "tables": [{"id": "T1", "breakdowns": ["SEX", "AGE"]}],
    }
)


def _oracle_delta(pmf, epsilon):
    # independent positive-part sum over both unit shifts
    best = 0.0
    for shift in (1, -1):
        total = 0.0
        for x, p in pmf.items():
            total += max(0.0, p - math.exp(epsilon) * pmf.get(x - shift, 0.0))
        best = max(best, total)
    return best


def test_tightest_delta_uniform_boundary():
    for bound in (1, 2, 3, 5):
        pmf = {j: 1.0 / (2 * bound + 1) for j in range(-bound, bound + 1)}
        # at large epsilon only the boundary atom can violate
        assert tightest_delta(pmf, 10.0) == pytest.approx(1.0 / (2 * bound + 1), abs=1e-12)
        assert tightest_delta(pmf, 10.0) == pytest.approx(_oracle_delta(pmf, 10.0))


def test_tightest_delta_truncated_geometric():
    eps = 0.5
    xs = range(-50, 51)
    pmf = {x: float(geometric2_pmf(x, eps)) for x in xs}
    delta = tightest_delta(pmf, eps)
    assert 0.0 < delta < 1e-6
    assert delta == pytest.approx(_oracle_delta(pmf, eps), abs=1e-18)
    tail = 1.0 - sum(pmf.values())
    # boundary violation is of the same magnitude as the truncated tail
    assert delta <= 10 * tail


def test_tightest_delta_positive_for_bounded():
    pmf = gen_ptable(2.0, 5).as_pmf()
    for eps in (0.0, 0.5, 2.0, 10.0):
        assert tightest_delta(pmf, eps) > 0.0


def test_tightest_delta_monotone_in_epsilon():
    pmf = gen_ptable(uniform_max_variance(4), 4).as_pmf()
    values = [tightest_delta(pmf, e) for e in (0.0, 0.1, 0.5, 1.0, 2.0, 5.0)]
    assert all(b <= a + 1e-15 for a, b in zip(values, values[1:]))


def test_tightest_delta_geometric_tends_to_zero():
    eps = 0.5
    deltas = []
    for cut in (10, 30, 80):
        pmf = {x: float(geometric2_pmf(x, eps)) for x in range(-cut, cut + 1)}
        total = sum(pmf.values())
        pmf = {x: p / total for x, p in pmf.items()}
        deltas.append(tightest_delta(pmf, eps))
    assert deltas[0] > deltas[1] > deltas[2]
    assert deltas[-1] < 1e-15


@pytest.mark.parametrize("eps", [1.0, 709.0, 710.0, 1e308])
def test_tightest_delta_uniform_edge_mass_at_any_finite_epsilon(eps):
    # only the edge atom, which the shifted neighbour cannot reach, violates
    pmf = gen_ptable(uniform_max_variance(2), 2).as_pmf()
    assert tightest_delta(pmf, eps) == 0.2


@pytest.mark.parametrize("eps", [math.inf, -1.0, math.nan])
def test_tightest_delta_rejects_infinite_or_negative_epsilon(eps):
    with pytest.raises(DomainError, match="finite"):
        tightest_delta(gen_ptable(2.0, 5).as_pmf(), eps)


def test_tightest_delta_is_continuous_where_exp_overflows():
    # a subnormal mass q: e^eps * q stays below p well past exp's overflow
    q, edge = 1e-310, 1e-20
    pmf = {-1: q, 0: 1.0 - q - edge, 1: edge}
    last = math.log(sys.float_info.max)  # largest eps whose exp is finite
    below, above = tightest_delta(pmf, last), tightest_delta(pmf, math.nextafter(last, math.inf))
    assert above == pytest.approx(below, rel=1e-14, abs=0)
    values = [tightest_delta(pmf, eps) for eps in (709.0, 709.5, last, 710.0, 712.0, 713.8, 800.0)]
    assert all(b < a for a, b in zip(values, values[1:]))
    for eps in (709.0, 710.0, 712.0):
        assert tightest_delta(pmf, eps) == pytest.approx(1.0 - edge - math.exp(eps + math.log(q)), rel=1e-12)
    assert values[-1] == edge  # past log(p / q) only the edge atoms remain


def test_tightest_delta_rejects_bad_pmf():
    with pytest.raises(DomainError):
        tightest_delta({0: 0.5}, 1.0)


def test_sensitivity_examples():
    histogram = StatisticKey(frozenset({"SEX"}))
    total = StatisticKey(frozenset())
    assert sensitivity(SEX_AGE, [histogram]) == 1
    assert sensitivity(SEX_AGE, [histogram, total]) == 2
    # all IRRs of the population total: every marginal of the lone table
    irr_query = enumerate_subtables(SEX_AGE.tables[0])
    assert sensitivity(SEX_AGE, irr_query) == 4


def test_sensitivity_spsn_dedup():
    histogram = StatisticKey(frozenset({"SEX"}))
    assert sensitivity(SEX_AGE, [histogram, histogram], spsn=False) == 2
    assert sensitivity(SEX_AGE, [histogram, histogram], spsn=True) == 1


def test_sensitivity_empty_query():
    with pytest.raises(DomainError):
        sensitivity(SEX_AGE, [])


def _brute_force_sensitivity(programme, data, query):
    base = {k: tabulate(programme, data, k) for k in query}
    worst = 0
    columns = tuple(sorted(programme.breakdowns))
    import itertools

    axes = [programme.breakdown(bid).categories for bid in columns]
    for record in itertools.product(*axes):
        changed = neighbor(data, "add", record)
        l1 = 0
        for k in query:
            after = tabulate(programme, changed, k)
            l1 += sum(abs(after[c] - base[k].get(c, 0)) for c in after)
        worst = max(worst, l1)
    return worst


def test_sensitivity_matches_brute_force():
    rng = random.Random(31)
    breakdowns = [
        Breakdown(id="A", categories=("a0", "a1")),
        Breakdown(id="B", categories=("b0", "b1", "b2")),
        Breakdown(id="C", categories=("c0", "c1")),
    ]
    prog = TableProgramme(
        breakdowns,
        [
            TableSpec(id="T1", breakdowns=("A", "B")),
            TableSpec(id="T2", breakdowns=("B", "C")),
        ],
    )
    columns = ("A", "B", "C")
    for trial in range(10):
        records = tuple(
            tuple(rng.choice(prog.breakdown(b).categories) for b in columns)
            for _ in range(rng.randint(0, 50))
        )
        data = Microdata(columns=columns, records=records)
        pool = [
            StatisticKey(frozenset()),
            StatisticKey(frozenset({"A"})),
            StatisticKey(frozenset({"B"})),
            StatisticKey(frozenset({"A", "B"})),
            StatisticKey(frozenset({"B", "C"})),
            StatisticKey(frozenset({"A"}), cell=("a0",)),
            StatisticKey(frozenset({"B"}), cell=("b1",)),
        ]
        query = rng.sample(pool, rng.randint(1, len(pool)))
        assert sensitivity(prog, query) == _brute_force_sensitivity(prog, data, query)


def test_compose_additivity():
    assert compose([0.1] * 10) == pytest.approx(1.0)
    with pytest.raises(DomainError):
        compose([0.1, -0.1])


def test_halving_schedule():
    assert halving_schedule(1.0, 10) == pytest.approx(1.0 / 1024.0)
    scale = math.sqrt(laplace_variance(halving_schedule(1.0, 10)))
    assert scale == pytest.approx(1448.15, abs=0.01)
    # partial sums never exceed the global budget
    assert sum(halving_schedule(1.0, i) for i in range(1, 40)) < 1.0 + 1e-9


def test_eps_alpha_n_values():
    assert eps_alpha_n(10**6, 0.99) == pytest.approx(0.023672, abs=1e-6)
    # independent re-evaluation at n=1e4
    n = 10**4
    expected = math.log(n * math.log(n) ** 2 / 0.01) / math.sqrt(n)
    assert eps_alpha_n(n, 0.99) == pytest.approx(expected, abs=1e-15)
    assert eps_alpha_n(10**6, 0.999) > eps_alpha_n(10**6, 0.99)


def test_eps_alpha_n_rejects_bad_alpha():
    for alpha in (0.0, 1.0, math.nan):
        with pytest.raises(DomainError, match="alpha"):
            eps_alpha_n(10**4, alpha)


@pytest.mark.parametrize(
    "call",
    [
        lambda eps: halving_schedule(eps, 3),
        lambda eps: noise_scale_for_global(eps, 100),
        lambda eps: us_table_budget(eps),
    ],
    ids=["halving_schedule", "noise_scale_for_global", "us_table_budget"],
)
def test_budget_helpers_reject_infinite_epsilon(call):
    with pytest.raises(DomainError, match="finite"):
        call(math.inf)


def test_noise_scale_for_global():
    assert noise_scale_for_global(1.0, 2775) == pytest.approx(3924.0, abs=0.5)
    assert noise_scale_for_global(1.0, 1) == pytest.approx(math.sqrt(2.0))
    assert noise_scale_for_global(1.0, 200) == pytest.approx(
        2 * noise_scale_for_global(1.0, 100)
    )
    # consistency with the Laplace variance under an even split
    assert noise_scale_for_global(0.7, 33) == pytest.approx(
        math.sqrt(laplace_variance(0.7 / 33))
    )


def test_us_table_budget():
    for glob, table in [(0.25, 0.025), (0.5, 0.05), (1.0, 0.1), (2.0, 0.2), (4.0, 0.4), (8.0, 0.8)]:
        assert us_table_budget(glob) == pytest.approx(table, abs=1e-15)
    assert us_table_budget(1.0, rounded=False) == pytest.approx(0.1125, abs=1e-15)
    assert us_table_budget(3.3) / us_table_budget(3.3, rounded=False) == pytest.approx(
        0.10 / 0.1125
    )


def test_reid_rate():
    assert reid_rate(1.0, 1.0).r_reid == 1.0
    assert reid_rate(0.5, 0.2).r_reid == pytest.approx(0.1)
    for x in np.linspace(0, 1, 5):
        assert reid_rate(0.5, float(x)).r_reid == pytest.approx(0.5 * x)
    with pytest.raises(DomainError):
        reid_rate(1.5, 0.5)


def test_guarantee_and_budget_types():
    DPGuarantee(epsilon=1.0, delta=0.0)
    with pytest.raises(DomainError):
        DPGuarantee(epsilon=-1.0)
    BudgetSplit(global_epsilon=1.0, parts=(0.5, 0.25, 0.25))
    with pytest.raises(DomainError):
        BudgetSplit(global_epsilon=1.0, parts=(0.5, 0.6))
