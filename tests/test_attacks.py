import hashlib
import itertools
import math
import random
from fractions import Fraction
from importlib import resources

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sdcnoise.attacks import (
    AttackReport,
    NoisyOutput,
    averaging_mc,
    averaging_success,
    bound_disclosure_mc,
    margin_exploit_mc,
    margin_exploit_scan,
    p1_exact,
    perturb_outputs,
    run_averaging_attack,
    tuples_needed,
)
from sdcnoise.errors import DomainError, ProgrammeError
from sdcnoise.noise import CellKey, Laplace, gen_ptable, uniform_max_variance
from sdcnoise.redundancy import statistic_universe
from sdcnoise.tables import (
    Breakdown,
    Microdata,
    StatisticKey,
    TableProgramme,
    TableSpec,
    parse_programme,
    tabulate,
)


def _uniform_pmf(bound):
    return [Fraction(1, 2 * bound + 1)] * (2 * bound + 1)


def test_p1_uniform_examples():
    assert p1_exact(_uniform_pmf(2), 2) == Fraction(20, 125)
    assert p1_exact(_uniform_pmf(1), 1) == Fraction(20, 27)


def test_p1_exhaustive_enumeration():
    for bound in (1, 2, 3):
        pmf = _uniform_pmf(bound)
        support = range(-bound, bound + 1)
        brute = sum(
            pmf[a + bound] * pmf[b + bound] * pmf[c + bound]
            for a, b, c in itertools.product(support, repeat=3)
            if abs(a + b + c) > 3 * (bound - 1)
        )
        assert p1_exact(pmf, bound) == brute


def test_p1_exhaustive_on_ptables():
    for bound, variance in [(2, 1.0), (4, 2.0), (6, 3.0)]:
        probs = gen_ptable(variance, bound).probabilities
        support = range(-bound, bound + 1)
        brute = sum(
            probs[a + bound] * probs[b + bound] * probs[c + bound]
            for a, b, c in itertools.product(support, repeat=3)
            if abs(a + b + c) > 3 * (bound - 1)
        )
        assert float(p1_exact(probs, bound)) == pytest.approx(brute, abs=1e-15)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 12), st.floats(0.0, 1.0))
@example(1, 0.0)
@example(12, 0.0)
@example(12, 0.5)
@example(2, 1.0)
def test_p1_float_path_matches_fraction_path(bound, u):
    """The float convolution of a p-table agrees with exact arithmetic on the same floats."""
    low, high = math.log(1e-300), math.log(uniform_max_variance(bound))
    variance = min(math.exp(low + u * (high - low)), uniform_max_variance(bound))
    probs = gen_ptable(variance, bound).probabilities
    got = float(p1_exact(probs, bound))
    exact = p1_exact([Fraction(float(p)) for p in probs], bound)
    if exact > 1e-290:
        assert abs(Fraction(got) - exact) <= Fraction(1e-12) * exact
    else:
        assert abs(Fraction(got) - exact) <= Fraction(1e-300)


def test_p1_cell_key_table_magnitude():
    p1 = float(p1_exact(gen_ptable(2.0, 5).probabilities, 5))
    assert 1e-8 < p1 < 1e-6


def test_p1_rejects_wide_support():
    with pytest.raises(DomainError, match="support exceeds"):
        p1_exact(_uniform_pmf(3), 2)
    with pytest.raises(DomainError, match="odd"):
        p1_exact([0.5, 0.5], 1)


def test_tuples_needed():
    assert tuples_needed(0.16, 0.68) == 7
    assert tuples_needed(1.0, 0.3) == 1
    assert tuples_needed(0.0, 0.68) == math.inf
    m = tuples_needed(1e-6, 0.68)
    assert abs(m - 1e6) / 1e6 < 0.15
    with pytest.raises(DomainError):
        tuples_needed(0.5, 1.5)


# p1 is 0.16 and 0.058 for the uniform tables, 1.5e-7 for V = 2, E = 5
@pytest.mark.parametrize(
    "variance,bound,any_revealed",
    [(uniform_max_variance(2), 2, True), (uniform_max_variance(3), 3, True), (2.0, 5, False)],
)
def test_bound_disclosure_mc_counts_streams_whose_running_estimate_reaches_the_bound(
    variance, bound, any_revealed
):
    pt = gen_ptable(variance, bound)
    m, streams, seed = 7, 300, 17
    report = bound_disclosure_mc(pt, m, streams, seed)
    # the same draws, read as noisy tuples (f, m, t = f + m) over made-up true counts
    draws = pt.quantile(np.random.default_rng(seed).random((streams, m, 3)))
    revealed = 0
    for stream in draws.tolist():
        best = 0
        for i, (nf, nm, nt) in enumerate(stream):
            f, male, total = 10 + i + nf, 20 + nm, 30 + i + nt
            best = max(best, math.ceil(abs(f + male - total) / 3))
            assert best <= bound
        revealed += best == bound
    assert report.mc_successes == revealed
    assert (revealed > 0) == any_revealed


def test_bound_disclosure_mc_calibration():
    pt = gen_ptable(uniform_max_variance(2), 2)
    p1 = float(p1_exact(pt.probabilities, 2))
    for m in (3, 7):
        report = bound_disclosure_mc(pt, m, 4000, 13)
        expect = 1.0 - (1.0 - p1) ** m
        sigma = math.sqrt(expect * (1 - expect) / report.mc_trials)
        assert report.mc_successes / report.mc_trials == pytest.approx(
            expect, abs=3 * sigma
        )


def test_margin_exploit_scan_examples():
    found = margin_exploit_scan([[3, 2, 11]], 2)
    assert found == [(0, (5, 4, 9))]
    assert margin_exploit_scan([[5, 5, 10]], 2) == []
    # generalized to three internal categories: residual (n+1)E = 8
    found = margin_exploit_scan([[1, 1, 1, 11]], 2)
    assert found == [(0, (3, 3, 3, 9))]


def test_margin_exploit_mc_fraction_and_exactness():
    pt = gen_ptable(uniform_max_variance(2), 2)
    report = margin_exploit_mc(pt, 100000, 7)
    expect = 2 / 125
    sigma = math.sqrt(expect * (1 - expect) / report.mc_trials)
    assert report.mc_successes / report.mc_trials == pytest.approx(expect, abs=3 * sigma)
    assert report.disclosed, "expected at least one disclosure in 1e5 tuples"
    for entry in report.disclosed:
        assert entry["recovered"] == entry["true"]


def test_margin_exploit_mc_report_is_pinned():
    # SHA-256 recorded while the number of internal counts was still a parameter
    report = margin_exploit_mc(gen_ptable(uniform_max_variance(2), 2), 2000, 9)
    assert report.mc_successes == 29
    assert (
        hashlib.sha256(report.to_json().encode()).hexdigest()
        == "e0e16b280e80f00a15ef0e748d5878704e6a73b17eb19d6de7ca4f6365a148e5"
    )


def test_averaging_success_values():
    assert averaging_success(2.0, 1000, 100) == pytest.approx(0.736, abs=5e-4)
    assert averaging_success(0.0, 10, 5) == 1.0
    with pytest.raises(DomainError):
        averaging_success(2.0, 10, 5, xi=0.0)


def test_gaussian_dominates_chebyshev_grid():
    for kv in np.linspace(0.01, 5.0, 50):
        for t in np.linspace(1, 200, 50):
            gauss = averaging_success(kv, 100.0, float(t))
            cheb = max(0.0, 1.0 - kv * 100.0 / (t**2 * 0.25))  # Chebyshev's bound at xi = 0.5
            assert gauss >= cheb - 1e-12


def test_averaging_mc_calibration():
    pt = gen_ptable(2.0, 10)
    report = averaging_mc(pt, 1000, 100, 1000, 1)
    expect = report.probability
    sigma = math.sqrt(expect * (1 - expect) / report.mc_trials)
    assert report.mc_successes / report.mc_trials == pytest.approx(expect, abs=3 * sigma)


# success counts of averaging_mc(gen_ptable(2, 10), k, t, 200, seed=5), recorded
# with the loop that drew and summed one trial at a time
AVERAGING_MC_COUNTS = {(1000, 100): 152, (10_000, 100): 53, (1000, 7): 12, (999, 100): 147}


@pytest.mark.parametrize("k,t", sorted(AVERAGING_MC_COUNTS))
def test_averaging_mc_seeded_counts_are_pinned(k, t):
    report = averaging_mc(gen_ptable(2.0, 10), k, t, 200, 5)
    assert (report.mc_trials, report.mc_successes) == (200, AVERAGING_MC_COUNTS[(k, t)])


@pytest.mark.parametrize("seed", [np.int64(5), np.uint32(5)])
def test_mc_reports_record_a_numpy_integer_seed_as_an_int(seed):
    ptable = gen_ptable(2.0, 3)
    for run in (
        lambda s: bound_disclosure_mc(ptable, 4, 20, s),
        lambda s: margin_exploit_mc(ptable, 200, s),
        lambda s: averaging_mc(ptable, 20, 4, 20, s),
    ):
        report = run(seed)
        assert type(report.seed) is int and report.seed == 5
        assert report.to_json() == run(5).to_json()  # the same draws as the Python int
        assert run(np.random.default_rng(5)).seed is None


def test_averaging_mc_rejects_xi_before_sampling(monkeypatch):
    monkeypatch.setattr(np.random, "default_rng", lambda seed: pytest.fail("sampled before checking xi"))
    for xi in (math.nan, 0.0, -1.0):
        with pytest.raises(DomainError, match="xi positive"):
            averaging_mc(gen_ptable(2.0, 10), 60000, 100, 2000, 1, xi=xi)


def test_averaging_mc_sums_a_large_k_in_blocks_of_the_same_draw_stream():
    ptable, k, t, trials = gen_ptable(2.0, 10), 3 * 2**16 + 7, 100, 4
    # unchunked reference: one (1, k) draw per trial from the same generator
    rng = np.random.default_rng(9)
    sums = [ptable.quantile(rng.random((1, k))).sum() for _ in range(trials)]
    want = sum(abs(total / t) < 0.5 for total in sums)

    class Recording(np.random.Generator):  # default_rng hands a Generator back as it is
        def random(self, size=None, *args, **kwargs):
            self.sizes.append(math.prod(size))
            return super().random(size, *args, **kwargs)

    recording = Recording(np.random.PCG64(9))  # the bit generator default_rng(9) builds
    recording.sizes = []
    report = averaging_mc(ptable, k, t, trials, recording)
    assert (report.mc_trials, report.mc_successes) == (trials, want)
    assert sum(recording.sizes) == k * trials and max(recording.sizes) <= 2**16


def test_attack_report_validation():
    with pytest.raises(DomainError):
        AttackReport(attack="X", probability=1.5)
    with pytest.raises(DomainError):
        AttackReport(attack="X", mc_trials=1, mc_successes=2)


SEX_AGE = parse_programme(
    {
        "breakdowns": [
            {"id": "SEX", "categories": ["F", "M"]},
            {"id": "AGE", "categories": ["young", "old"]},
        ],
        "tables": [{"id": "T1", "breakdowns": ["SEX", "AGE"]}],
    }
)


def _random_data(rng, programme, n):
    columns = tuple(sorted(programme.breakdowns))
    records = tuple(
        tuple(rng.choice(programme.breakdown(b).categories) for b in columns)
        for _ in range(n)
    )
    return Microdata(columns=columns, records=records)


def test_noiseless_output_irr_consistency():
    rng = random.Random(4242)
    for _ in range(20):
        ids = ["B%d" % i for i in range(4)]
        breakdowns = [
            Breakdown(id=b, categories=tuple("c%d" % j for j in range(rng.randint(1, 3))))
            for b in ids
        ]
        tables = [
            TableSpec(id="T%d" % t, breakdowns=tuple(rng.sample(ids, rng.randint(1, 4))))
            for t in range(rng.randint(1, 5))
        ]
        prog = TableProgramme(breakdowns, tables)
        data = _random_data(rng, prog, rng.randint(0, 200))
        for spsn in (True, False):
            output = perturb_outputs(prog, data, None, 0, spsn=spsn)
            table = rng.choice(prog.tables)
            ids_set = frozenset(rng.sample(sorted(table.breakdown_set), 1))
            for cell in prog.cells(StatisticKey(ids_set)):
                target = StatisticKey(ids_set, cell=cell)
                report = run_averaging_attack(prog, output, target)
                assert report.mc_successes == 1


def test_averaging_attack_on_cell_key_release():
    rng = random.Random(8)
    data = _random_data(rng, SEX_AGE, 120)
    spec = CellKey(variance=2.0, bound=5)
    output = perturb_outputs(SEX_AGE, data, spec, 99, spsn=True)
    target = StatisticKey(frozenset({"SEX"}), cell=("F",))
    report = run_averaging_attack(SEX_AGE, output, target)
    truth = tabulate(SEX_AGE, data, target)[("F",)]
    entry = report.disclosed[0]
    assert entry["true"] == truth
    assert entry["t"] == 2  # {SEX} comes in two representations here
    # trivial IRR is off by at most E, the AGE-summed one by at most 2E
    assert abs(entry["estimate"] - truth) <= 7.5


def test_averaging_attack_requires_cell():
    output = perturb_outputs(SEX_AGE, _random_data(random.Random(1), SEX_AGE, 10), None, 0)
    with pytest.raises(DomainError, match="target cell"):
        run_averaging_attack(SEX_AGE, output, StatisticKey(frozenset({"SEX"})))


def test_averaging_attack_unknown_category_is_a_programme_error():
    programme = TableProgramme(SEX_AGE.breakdowns.values(), SEX_AGE.tables)  # nothing memoised yet
    output = perturb_outputs(programme, _random_data(random.Random(1), programme, 10), None, 0)
    unknown = StatisticKey(frozenset({"SEX"}), ("X",))
    with pytest.raises(ProgrammeError, match="'X' is not a category of breakdown 'SEX'"):
        run_averaging_attack(programme, output, unknown)
    # after a valid cell of the same statistic has filled the answer memos
    assert run_averaging_attack(programme, output, StatisticKey(frozenset({"SEX"}), ("F",))).mc_successes == 1
    with pytest.raises(ProgrammeError, match="'X' is not a category of breakdown 'SEX'"):
        run_averaging_attack(programme, output, unknown)


def test_averaging_reports_of_one_cell_share_no_entry():
    output = perturb_outputs(SEX_AGE, _random_data(random.Random(2), SEX_AGE, 40), CellKey(2.0, 5), 4)
    target = StatisticKey(frozenset({"SEX", "AGE"}), ("old", "F"))
    first = run_averaging_attack(SEX_AGE, output, target)
    want = first.to_json()
    first.disclosed[0].update(cell="changed", recovered=-1, true=-1, estimate=-1.0, t=0, k=0)
    assert run_averaging_attack(SEX_AGE, output, target).to_json() == want


def test_averaging_attack_rounds_half_to_even():
    """Estimates at exactly k + 0.5 round to the even neighbour, as Python's ``round`` does."""
    programme = parse_programme(
        {"breakdowns": [{"id": "A", "categories": ["a", "b", "c", "d"]}], "tables": [{"id": "T", "breakdowns": ["A"]}]}
    )
    total, by_a = frozenset(), frozenset({"A"})
    cubes = {(None, total): np.array(7.0), (None, by_a): np.array([0.5, 1.5, 2.5, -0.5])}
    exact = {total: {(): 5}, by_a: {(c,): 1 for c in "abcd"}}
    tables = {key: dict(zip(programme.cells(StatisticKey(key[1])), cube.ravel().tolist())) for key, cube in cubes.items()}
    output = NoisyOutput(spsn=True, tables=tables, exact=exact, cubes=cubes)
    targets = [StatisticKey(total, ())] + [StatisticKey(by_a, (c,)) for c in "abcd"]
    entries = [run_averaging_attack(programme, output, target).disclosed[0] for target in targets]
    # the total averages its own cell, 7, and the sum over A, 4: 5.5
    assert [entry["estimate"] for entry in entries] == [5.5, 0.5, 1.5, 2.5, -0.5]
    assert [entry["recovered"] for entry in entries] == [6, 0, 2, 2, 0]
    assert all(type(entry["recovered"]) is int and entry["recovered"] == round(entry["estimate"]) for entry in entries)


@pytest.mark.parametrize("spsn", [True, False])
def test_averaging_attack_recovers_a_python_int_at_tiny_epsilon(spsn):
    """Laplace noise at epsilon = 1e-150 gives estimates near 1e150, beyond any fixed-width integer.

    Smaller epsilons are rejected: their Laplace variance overflows a float.
    """
    output = perturb_outputs(SEX_AGE, _random_data(random.Random(6), SEX_AGE, 30), Laplace(1e-150), 8, spsn=spsn)
    for optimize in (False, True):
        for stat in statistic_universe(SEX_AGE):
            for cell in SEX_AGE.cells(stat):
                entry = run_averaging_attack(SEX_AGE, output, StatisticKey(stat.breakdown_ids, cell), optimize)
                entry = entry.disclosed[0]
                assert type(entry["recovered"]) is int and entry["recovered"] == round(entry["estimate"])
                assert abs(entry["recovered"]) > 2**64


DESK = parse_programme(resources.files("sdcnoise.data").joinpath("desk_programme.json").read_text())

# SHA-256 over (t, k, estimate, recovered, true) of the averaging attack on
# every desk cell, recorded with the attack that enumerated IRRs per cell.
# The laplace entries were re-recorded when independent draws moved from
# sorted(cells) label order to row-major cube order, and again when a release
# drew every cube from its one generator instead of a fresh generator per cube:
# each time the attacked release changed, not the attack.
ATTACK_DIGESTS = {
    ("cellkey", False): "91931f95e27354f8bfba2d64e962bb0af11c43868f3abd7b47de3cc230d659fd",
    ("cellkey", True): "09b56216fe004ebd9e2e9b045da0337d26678ad2b5e407d05be7f0db4c2fb88e",
    ("laplace", False): "b35e4fb31fb5b3132eda3071d6ea6e9b1cef762e6ed6905f16fb5add8de2e0f8",
    ("laplace", True): "af9aa473aa1641a43082cd8d5a5382ccb69b632c57d261ae1a01bdb2265f0ea3",
}


@pytest.mark.parametrize("name,optimize", sorted(ATTACK_DIGESTS))
def test_seeded_averaging_attack_matches_recorded_digest(name, optimize):
    rng = random.Random(20261018)
    columns = tuple(DESK.breakdowns)
    records = tuple(tuple(rng.choice(DESK.breakdown(b).categories) for b in columns) for _ in range(2000))
    spec, spsn = (CellKey(2.0, 5), True) if name == "cellkey" else (Laplace(0.5), False)
    output = perturb_outputs(DESK, Microdata(columns, records), spec, 11, spsn=spsn)
    h = hashlib.sha256()
    for stat in statistic_universe(DESK):
        for cell in DESK.cells(stat):
            entry = run_averaging_attack(DESK, output, StatisticKey(stat.breakdown_ids, cell), optimize).disclosed[0]
            h.update(repr(tuple(entry[f] for f in ("t", "k", "estimate", "recovered", "true"))).encode())
    assert h.hexdigest() == ATTACK_DIGESTS[(name, optimize)]


# targets outside the release's statistics, each with the error it must raise
BAD_TARGETS = [
    (StatisticKey(frozenset({"NOPE"}), ("x",)), ProgrammeError, "unknown breakdown reference 'NOPE'"),
    (StatisticKey(frozenset({"AGE.L", "AGE.M"}), ("a0", "old")), DomainError, "not contained in any table"),
    (StatisticKey(frozenset({"SEX", "GEO.L"}), ("north", "X")), ProgrammeError, "'X' is not a category"),
]


@pytest.mark.parametrize("spec,spsn", [(CellKey(2.0, 5), True), (Laplace(0.5), False)])
def test_averaging_attack_rejects_targets_outside_the_release_cold_and_warm(spec, spsn):
    rng = random.Random(5)
    programme = parse_programme(resources.files("sdcnoise.data").joinpath("desk_programme.json").read_text())
    output = perturb_outputs(programme, _random_data(rng, programme, 200), spec, 6, spsn=spsn)
    valid = StatisticKey(frozenset({"SEX", "GEO.L"}), ("north", "F"))
    for _ in range(2):  # a cold release has no estimates yet; a warm one has attacked a cell in both modes
        for optimize in (False, True):
            for target, error, message in BAD_TARGETS:
                with pytest.raises(error, match=message):
                    run_averaging_attack(programme, output, target, optimize)
        for optimize in (False, True):
            assert run_averaging_attack(programme, output, valid, optimize).disclosed[0]["true"] >= 0


def test_spsn_release_reuses_noise_across_tables():
    doc = {
        "breakdowns": [
            {"id": "SEX", "categories": ["F", "M"]},
            {"id": "AGE", "categories": ["young", "old"]},
        ],
        "tables": [
            {"id": "T1", "breakdowns": ["SEX", "AGE"]},
            {"id": "T2", "breakdowns": ["SEX", "AGE"]},
        ],
    }
    prog = parse_programme(doc)
    data = _random_data(random.Random(3), prog, 60)
    spec = CellKey(variance=2.0, bound=5)
    spsn_out = perturb_outputs(prog, data, spec, 5, spsn=True)
    # one shared entry per unique statistic, keyed without a table id
    assert all(tid is None for tid, _ in spsn_out.tables)
    plain = perturb_outputs(prog, data, Laplace(epsilon=0.5), 5, spsn=False)
    assert ("T1", frozenset({"SEX", "AGE"})) in plain.tables
    assert ("T2", frozenset({"SEX", "AGE"})) in plain.tables
