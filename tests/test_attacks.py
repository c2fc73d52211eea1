import hashlib
import itertools
import math
import random
import tracemalloc
from fractions import Fraction
from importlib import resources

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sdcnoise.attacks import (
    AttackReport,
    NoisyOutput,
    averaging_estimates,
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


@st.composite
def symmetric_fraction_pmfs(draw):
    """A symmetric Fraction pmf on [-bound, bound], bound 0-4, padded with 0-2 zeros each side."""
    bound = draw(st.integers(0, 4))
    weights = draw(st.lists(st.integers(0, 20), min_size=bound + 1, max_size=bound + 1))
    if not any(weights):
        weights[0] = 1
    pad = [0] * draw(st.integers(0, 2))
    raw = pad + weights[:0:-1] + weights + pad  # weights[j] is the weight of -j and of +j
    total = sum(raw)
    return [Fraction(w, total) for w in raw], bound


@settings(max_examples=150, deadline=None)
@given(symmetric_fraction_pmfs())
@example(([Fraction(1, 4), Fraction(1, 2), Fraction(1, 4)], 1))
@example(([0, 0, Fraction(1, 4), Fraction(1, 2), Fraction(1, 4), 0, 0], 1))
def test_p1_matches_triple_enumeration_on_random_pmfs(case):
    pmf, bound = case
    half = len(pmf) // 2
    support = range(-half, half + 1)
    brute = sum(
        pmf[a + half] * pmf[b + half] * pmf[c + half]
        for a, b, c in itertools.product(support, repeat=3)
        if abs(a + b + c) > 3 * (bound - 1)
    )
    p1 = p1_exact(pmf, bound)
    assert p1 == brute and type(p1) is Fraction


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
    # k * V underflows to 0: a spread below float resolution pins the target
    assert averaging_success(0.5, 5e-324, 1.0) == 1.0
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


class Recording(np.random.Generator):
    """The generator default_rng(seed) builds, logging the size of every ``random`` call.

    default_rng hands a Generator back as it is.
    """

    def __init__(self, seed):
        super().__init__(np.random.PCG64(seed))
        self.sizes = []

    def random(self, size=None, *args, **kwargs):
        self.sizes.append(math.prod(size))
        return super().random(size, *args, **kwargs)


def test_averaging_mc_sums_a_large_k_in_blocks_of_the_same_draw_stream():
    ptable, k, t, trials = gen_ptable(2.0, 10), 3 * 2**16 + 7, 100, 4
    # unchunked reference: one (1, k) draw per trial from the same generator
    rng = np.random.default_rng(9)
    sums = [ptable.quantile(rng.random((1, k))).sum() for _ in range(trials)]
    want = sum(abs(total / t) < 0.5 for total in sums)
    recording = Recording(9)
    report = averaging_mc(ptable, k, t, trials, recording)
    assert (report.mc_trials, report.mc_successes) == (trials, want)
    assert sum(recording.sizes) == k * trials and max(recording.sizes) <= 2**16


def bound_disclosure_by_matrix(ptable, m, streams, seed):
    """The one-matrix reference: every stream's m tuples drawn as one (streams, m, 3) array."""
    draws = ptable.quantile(np.random.default_rng(seed).random((streams, m, 3)))
    residual = draws[:, :, 0] + draws[:, :, 1] - draws[:, :, 2]
    return int(np.any(np.abs(residual) > 3 * (ptable.bound - 1), axis=1).sum())


def margin_exploit_by_matrix(ptable, count, seed):
    """The one-matrix reference: all true counts, then all (count, 3) noise, scanned as one list."""
    rng = np.random.default_rng(seed)
    true_internal = rng.integers(0, 50, size=(count, 2))
    true_total = true_internal.sum(axis=1)
    observed = np.column_stack([true_internal, true_total]) + ptable.quantile(rng.random((count, 3)))
    return [
        {"index": i, "recovered": list(r), "true": [*map(int, true_internal[i]), int(true_total[i])]}
        for i, r in margin_exploit_scan(observed.tolist(), ptable.bound)
    ]


# 2**16 // 3 = 21 845 tuples a block: streams of 7 or 5 003 tuples straddle block
# boundaries, and neither total is a multiple of the block
@pytest.mark.parametrize("variance,bound,m,streams", [(uniform_max_variance(2), 2, 7, 10**4), (1.0, 3, 5003, 13)])
def test_bound_disclosure_mc_reads_one_draw_stream_in_blocks(variance, bound, m, streams):
    ptable = gen_ptable(variance, bound)
    recording = Recording(21)
    report = bound_disclosure_mc(ptable, m, streams, recording)
    assert 0 < report.mc_successes < streams
    assert report.mc_successes == bound_disclosure_by_matrix(ptable, m, streams, 21)
    assert sum(recording.sizes) == 3 * m * streams and max(recording.sizes) <= 2**16


@pytest.mark.parametrize("count", [2 * 21845 + 6310, 21845])
def test_margin_exploit_mc_reads_one_draw_stream_in_blocks(count):
    ptable = gen_ptable(uniform_max_variance(2), 2)
    recording = Recording(23)
    report = margin_exploit_mc(ptable, count, recording)
    assert report.mc_successes > 0
    assert report.disclosed == margin_exploit_by_matrix(ptable, count, 23)
    assert (report.mc_trials, report.mc_successes) == (count, len(report.disclosed))
    assert sum(recording.sizes) == 3 * count and max(recording.sizes) <= 2**16


def test_bound_disclosure_mc_memory_does_not_grow_with_the_tuples():
    ptable = gen_ptable(uniform_max_variance(2), 2)
    bound_disclosure_mc(ptable, 10, 10, 0)  # p-table memos and first-call set-up outside the trace
    tracemalloc.start()
    try:
        bound_disclosure_mc(ptable, 1000, 1000, 0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20  # one (1000, 1000, 3) matrix of uniforms alone is 24 MB


@pytest.mark.parametrize(
    "run",
    [
        lambda pt, size: bound_disclosure_mc(pt, size, 10, 0),
        lambda pt, size: bound_disclosure_mc(pt, 10, size, 0),
        lambda pt, size: margin_exploit_mc(pt, size, 0),
        lambda pt, size: averaging_mc(pt, 20, 4, size, 0),
    ],
)
@pytest.mark.parametrize("size", [0, -1])
def test_mc_harnesses_reject_a_non_positive_size(run, size):
    with pytest.raises(DomainError, match="positive"):
        run(gen_ptable(2.0, 3), size)


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
            for ids_set, counts in output.exact.items():  # an exact release's estimates are its counts, exactly
                for optimize in (False, True):
                    for cell, count in counts.items():
                        report = run_averaging_attack(prog, output, StatisticKey(ids_set, cell=cell), optimize)
                        assert report.disclosed[0]["estimate"] == count and report.mc_successes == 1


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


@pytest.mark.parametrize("spec,spsn", [(CellKey(2.0, 5), True), (Laplace(0.5), False)])
def test_averaging_truth_follows_the_cell_in_any_exact_order(spec, spsn):
    """A hand-built release may list its exact dicts in any order: the truth is read by cell, not by position."""
    released = perturb_outputs(SEX_AGE, _random_data(random.Random(3), SEX_AGE, 50), spec, 9, spsn=spsn)
    for optimize in (False, True):
        # the recovered estimate at even row-major positions, a value no estimate rounds to at odd ones
        truths = {}
        for ids in released.exact:
            estimates, _ = averaging_estimates(SEX_AGE, released, ids, optimize)
            cells = zip(SEX_AGE.cells(StatisticKey(ids)), estimates.ravel().tolist())
            truths[ids] = {cell: -(10**9 + i) if i % 2 else round(e) for i, (cell, e) in enumerate(cells)}
        exact = {ids: dict(reversed(truth.items())) for ids, truth in truths.items()}
        output = NoisyOutput(released.spsn, released.tables, exact, released.cubes)
        for ids, truth in truths.items():
            cells = SEX_AGE.cells(StatisticKey(ids))
            assert list(output.exact[ids]) == cells[::-1]
            for i, cell in enumerate(cells):
                report = run_averaging_attack(SEX_AGE, output, StatisticKey(ids, cell), optimize)
                assert report.disclosed[0]["true"] == truth[cell]
                assert report.mc_successes == int(i % 2 == 0)


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
# each time the attacked release changed, not the attack.  They were
# re-recorded once more when an estimate became the sum of a cell's k IRR
# cells over t instead of the mean of its t IRR sums: the float summation
# order changed, 545 of the 3 096 estimates moved by at most 5e-16 relative,
# and no recovered value or success changed.
ATTACK_DIGESTS = {
    ("cellkey", False): "91931f95e27354f8bfba2d64e962bb0af11c43868f3abd7b47de3cc230d659fd",
    ("cellkey", True): "09b56216fe004ebd9e2e9b045da0337d26678ad2b5e407d05be7f0db4c2fb88e",
    ("laplace", False): "a9e6bfd820bec3d31cd5d3ec04b0d1be4da8ecef11d9b27a878b2febb993e1a2",
    ("laplace", True): "405b1f3ef3b86b6c5b49740c0bea71943949d8dab0966d39150a7fb53b1a4017",
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
