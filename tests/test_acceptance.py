"""Acceptance suite: ten numbered criteria, one printed pass/fail line each.

Run with ``pytest -v tests/test_acceptance.py -s`` to see the verdict lines.
Each criterion asserts the documented tolerance; a FAIL line is printed
before the assertion fires so the verdict survives in the captured output.
"""

import itertools
import math
import random
from fractions import Fraction

import numpy as np

from sdcnoise.accounting import eps_alpha_n, sensitivity, tightest_delta, us_table_budget
from sdcnoise.attacks import (
    averaging_mc,
    averaging_success,
    bound_disclosure_mc,
    margin_exploit_mc,
    p1_exact,
    perturb_outputs,
    run_averaging_attack,
    tuples_needed,
)
from sdcnoise.noise import gen_ptable, laplace_variance, uniform_max_variance
from sdcnoise.redundancy import count_k_t, enumerate_irrs, optimize_kt2, statistic_universe
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
from sdcnoise.utility import (
    CountHistogram,
    binned_distortion_estimate,
    observations_histogram,
    synthetic_areas,
    tail_prob,
)


def _verdict(num, ok, detail):
    print(f"\ncriterion {num:2d}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num}: {detail}"


def test_criterion_01_reconstruction_epsilon_bound():
    value = eps_alpha_n(10**6, 0.99)
    ok = abs(value - 0.0237) <= 0.0005
    _verdict(1, ok, f"eps_99(1e6) = {value:.6f}, expected 0.0237 +- 0.0005")


def test_criterion_02_uniform_p1_law():
    ok = True
    for bound in range(1, 11):
        pmf = [Fraction(1, 2 * bound + 1)] * (2 * bound + 1)
        if p1_exact(pmf, bound) != Fraction(20, (2 * bound + 1) ** 3):
            ok = False
    for bound in range(1, 7):
        pmf = [Fraction(1, 2 * bound + 1)] * (2 * bound + 1)
        support = range(-bound, bound + 1)
        brute = sum(
            pmf[a + bound] * pmf[b + bound] * pmf[c + bound]
            for a, b, c in itertools.product(support, repeat=3)
            if abs(a + b + c) > 3 * (bound - 1)
        )
        if brute != p1_exact(pmf, bound):
            ok = False
    _verdict(2, ok, "p1(uniform, E) == 20/(2E+1)^3 exactly for E=1..10, "
                    "exhaustively cross-checked for E<=6")


def test_criterion_03_bound_disclosure_calibration():
    # The integer ceiling in tuples_needed promises coverage of at least alpha
    # at the minimal m, not coverage equal to alpha; the MC band is therefore
    # centred on the exact coverage at that m.
    alpha = 0.68
    ptable = gen_ptable(uniform_max_variance(2), 2)
    p1 = float(p1_exact(ptable.probabilities, 2))
    m = tuples_needed(p1, alpha)
    below, exact = 1 - (1 - p1) ** 6, 1 - (1 - p1) ** 7
    minimal = below < alpha <= exact
    report = bound_disclosure_mc(ptable, 7, 10**4, 20260823)
    rate = report.mc_successes / report.mc_trials
    sigma = math.sqrt(exact * (1 - exact) / report.mc_trials)
    z = (rate - exact) / sigma
    ok = abs(p1 - 0.16) <= 1e-12 and m == 7 and minimal and abs(z) <= 3
    _verdict(3, ok, f"p1 = {p1:.5f} (want 0.16); tuples_needed(p1, {alpha}) = {m} "
                    f"(want 7); coverage at 6 = {below:.5f}, at 7 = {exact:.5f} "
                    f"(minimal: {minimal}); within-7 reveal rate = {rate:.4f}, "
                    f"z = {z:+.2f} (3 sigma = {3 * sigma:.5f})")


def test_criterion_04_margin_exploit():
    from sdcnoise.attacks import margin_exploit_scan

    recovered = margin_exploit_scan([[3, 2, 11]], 2)
    exact = recovered == [(0, (5, 4, 9))]
    ptable = gen_ptable(uniform_max_variance(2), 2)
    report = margin_exploit_mc(ptable, 10**5, 11)
    frac = report.mc_successes / report.mc_trials
    expect = 2 / 125
    sigma = math.sqrt(expect * (1 - expect) / report.mc_trials)
    in_band = abs(frac - expect) <= 3 * sigma
    faithful = all(e["recovered"] == e["true"] for e in report.disclosed)
    ok = exact and in_band and faithful
    _verdict(4, ok, f"(3,2,11) -> {recovered[0][1] if recovered else None}; "
                    f"flagged fraction {frac:.5f} vs 2/125 = {expect:.5f} "
                    f"(3 sigma = {3 * sigma:.5f}); recoveries exact: {faithful}")


def test_criterion_05_averaging_gaussian_model():
    model = averaging_success(2.0, 1000, 100)
    model_ok = abs(model - 0.7360) <= 0.0005
    counts = {}
    mc_ok = True
    for bound in (10, 5):
        ptable = gen_ptable(2.0, bound)
        runs = [averaging_mc(ptable, 1000, 100, 1000, seed).mc_successes for seed in (1, 2, 3)]
        counts[bound] = runs
        sigma = math.sqrt(0.736 * 0.264 / 1000)
        lo, hi = 1000 * (0.736 - 3 * sigma), 1000 * (0.736 + 3 * sigma)
        if not all(lo <= r <= hi for r in runs):
            mc_ok = False
        # the published counts must fall in the same 3 sigma band
        target = 741 if bound == 10 else 725
        if not lo <= target <= hi:
            mc_ok = False
    ok = model_ok and mc_ok
    _verdict(5, ok, f"Gaussian model = {model:.5f} (want 0.7360 +- 0.0005); "
                    f"MC successes E=10: {counts[10]}, E=5: {counts[5]} "
                    f"(3 sigma band of 0.736 covers 741 and 725)")


def test_criterion_06_irr_footnote_example():
    prog = parse_programme(
        {
            "breakdowns": [
                {"id": "SEX", "categories": ["F", "M"]},
                {"id": "AGE", "categories": ["young", "old"]},
            ],
            "tables": [{"id": "T1", "breakdowns": ["SEX", "AGE"]}],
        }
    )
    total = count_k_t(enumerate_irrs(prog, StatisticKey(frozenset())))
    sex = count_k_t(enumerate_irrs(prog, StatisticKey(frozenset({"SEX"}))))
    age = count_k_t(enumerate_irrs(prog, StatisticKey(frozenset({"AGE"}))))
    cell = count_k_t(enumerate_irrs(prog, StatisticKey(frozenset({"SEX", "AGE"}))))
    ok = (
        (total.t, total.k, total.ratio) == (4, 9, 9 / 16)
        and (sex.t, sex.k, sex.ratio) == (2, 3, 3 / 4)
        and (age.t, age.k, age.ratio) == (2, 3, 3 / 4)
        and (cell.t, cell.k, cell.ratio) == (1, 1, 1.0)
    )
    _verdict(6, ok, f"total (t,k,ratio) = {(total.t, total.k, total.ratio)}, "
                    f"single variables = {(sex.t, sex.k, sex.ratio)}, "
                    f"internal cell = {(cell.t, cell.k, cell.ratio)}")


def test_criterion_07_utility_worked_example():
    hist = CountHistogram(bin_edges=(60, 80), bin_counts=(11680,))
    (estimate,) = binned_distortion_estimate(hist, 0.1, 0.5)
    per_count = tail_prob(0.1, 0.5 * 80)
    prob_ok = abs(per_count - 0.0183) <= 0.0001
    estimate_ok = round(estimate) == 214
    # qualitative: on synthetic data the sampled exceedances in the same bin
    # stay at or above the right-edge estimate
    areas = synthetic_areas(120000, 20260823)
    values = [v for a in areas for v in (a.f, a.m, a.t) if 60 < v <= 80]
    # reuse the real tally machinery on just this bin's observations
    bin_hist = observations_histogram(areas, [60, 80])
    rng = np.random.default_rng(7)
    noise = rng.laplace(0.0, 1.0 / 0.1, size=len(values))
    sampled = int(np.sum(np.abs(noise) / np.array(values) > 0.5))
    bin_estimate = binned_distortion_estimate(bin_hist, 0.1, 0.5)[0]
    sampled_ok = sampled >= bin_estimate
    ok = prob_ok and estimate_ok and sampled_ok
    _verdict(7, ok, f"per-count prob = {per_count:.6f} (want 0.0183 +- 0.0001); "
                    f"expected = {estimate:.2f} -> {round(estimate)} (want 214); "
                    f"synthetic bin: sampled {sampled} >= estimate {bin_estimate:.1f}")


def test_criterion_08_dp_utility_bounds():
    from sdcnoise.utility import dp_utility_eps

    malta = dp_utility_eps(20, 68, 0.68)
    france = dp_utility_eps(20, 3.7e4, 0.68)
    ok = abs(malta - 0.268) <= 0.0005 and abs(france - 0.583) <= 0.0005
    _verdict(8, ok, f"eps(t=68) = {malta:.4f} (want 0.268), "
                    f"eps(t=3.7e4) = {france:.4f} (want 0.583)")


def test_criterion_09_dp_budget_presets():
    pairs = [(0.25, 0.025), (0.5, 0.05), (1.0, 0.1), (2.0, 0.2), (4.0, 0.4), (8.0, 0.8)]
    variances = [3200.0, 800.0, 200.0, 50.0, 12.5, 3.125]
    budget_ok = all(
        abs(us_table_budget(glob) - table) < 1e-15 for glob, table in pairs
    )
    var_ok = all(
        laplace_variance(table) == var for (_, table), var in zip(pairs, variances)
    )
    ok = budget_ok and var_ok
    _verdict(9, ok, f"table budgets {[us_table_budget(g) for g, _ in pairs]} and "
                    f"variances {[laplace_variance(t) for _, t in pairs]}")


def _random_programme(rng):
    ids = ["B%d" % i for i in range(5)]
    breakdowns = [
        Breakdown(id=b, categories=tuple("c%d" % j for j in range(rng.randint(1, 4))))
        for b in ids
    ]
    tables = [
        TableSpec(id="T%d" % t, breakdowns=tuple(rng.sample(ids, rng.randint(1, 4))))
        for t in range(rng.randint(1, 4))
    ]
    return TableProgramme(breakdowns, tables)


def _random_data(rng, prog, n):
    columns = tuple(sorted(prog.breakdowns))
    return Microdata(
        columns=columns,
        records=tuple(
            tuple(rng.choice(prog.breakdown(b).categories) for b in columns)
            for _ in range(n)
        ),
    )


def test_criterion_10_substitute_property_suite():
    rng = random.Random(101)
    dominance_ok = consistency_ok = greedy_ok = True
    for _ in range(100):
        prog = _random_programme(rng)
        data = _random_data(rng, prog, rng.randint(0, 60))
        output = perturb_outputs(prog, data, None, 0, spsn=True)
        for target in statistic_universe(prog):
            with_spsn = enumerate_irrs(prog, target, spsn=True)
            without = enumerate_irrs(prog, target, spsn=False)
            if len(with_spsn) > len(without):
                dominance_ok = False
            if optimize_kt2(with_spsn).ratio < optimize_kt2(without).ratio - 1e-12:
                dominance_ok = False
            admitted = optimize_kt2(with_spsn).irrs
            k = t = 0
            ratios = []
            for irr in admitted:
                k, t = k + irr.k_weight, t + 1
                ratios.append(k / t**2)
            if any(b >= a for a, b in zip(ratios, ratios[1:])):
                greedy_ok = False
        # noiseless IRR consistency on one random cell target
        table = rng.choice(prog.tables)
        sub = frozenset(rng.sample(sorted(table.breakdown_set), 1))
        for cell in prog.cells(StatisticKey(sub)):
            report = run_averaging_attack(prog, output, StatisticKey(sub, cell=cell))
            if report.mc_successes != 1:
                consistency_ok = False

    chebyshev_ok = True
    for kv in np.linspace(0.01, 5.0, 50):
        for t in np.linspace(1, 200, 50):
            # Chebyshev's distribution-free lower bound max(0, 1 - kV / (t^2 xi^2)), xi = 0.5
            if averaging_success(kv, 100.0, float(t)) < max(0.0, 1.0 - kv * 100.0 / (t**2 * 0.25)) - 1e-12:
                chebyshev_ok = False

    pmf = gen_ptable(2.0, 4).as_pmf()
    deltas = [tightest_delta(pmf, e) for e in (0.0, 0.2, 0.5, 1.0, 2.0, 5.0)]
    delta_ok = all(b <= a + 1e-15 for a, b in zip(deltas, deltas[1:]))

    sens_ok = True
    prog = parse_programme(
        {
            "breakdowns": [
                {"id": "A", "categories": ["a0", "a1"]},
                {"id": "B", "categories": ["b0", "b1", "b2"]},
            ],
            "tables": [{"id": "T", "breakdowns": ["A", "B"]}],
        }
    )
    for trial in range(8):
        data = _random_data(rng, prog, rng.randint(0, 50))
        query = rng.sample(enumerate_subtables(prog.tables[0]), rng.randint(1, 4))
        base = {k: tabulate(prog, data, k) for k in query}
        worst = 0
        for record in itertools.product(("a0", "a1"), ("b0", "b1", "b2")):
            changed = neighbor(data, "add", record)
            l1 = sum(
                abs(tabulate(prog, changed, k)[c] - base[k][c])
                for k in query
                for c in base[k]
            )
            worst = max(worst, l1)
        if sensitivity(prog, query) != worst:
            sens_ok = False

    ok = dominance_ok and consistency_ok and greedy_ok and chebyshev_ok and delta_ok and sens_ok
    _verdict(10, ok, "substitute properties: SPSN dominance "
                     f"{dominance_ok}, noiseless IRR consistency {consistency_ok}, "
                     f"greedy monotone {greedy_ok}, Gaussian >= Chebyshev {chebyshev_ok}, "
                     f"delta monotone {delta_ok}, sensitivity brute force {sens_ok}")
