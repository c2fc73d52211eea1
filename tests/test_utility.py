import dataclasses
import hashlib
import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from sdcnoise import utility
from sdcnoise.cli import _write_csv, _write_grid
from sdcnoise.errors import DomainError, InfeasibleError
from sdcnoise.noise import CellKey, Laplace, TruncatedLaplace, TwoTailedGeometric, gen_ptable, sample_noise
from sdcnoise.utility import (
    AreaRecord,
    Areas,
    CountHistogram,
    binned_distortion_estimate,
    dp_utility_eps,
    observations_histogram,
    read_areas_text,
    sample_distortions,
    scan_eps,
    scan_ve,
    synthetic_areas,
    tail_prob,
)


def test_tail_prob_values():
    assert tail_prob(0.1, 40) == pytest.approx(math.exp(-4), abs=1e-12)
    assert tail_prob(0.7, 0) == 1.0
    assert tail_prob(0.025, 100) == pytest.approx(math.exp(-2.5), abs=1e-12)


def test_tail_prob_monte_carlo():
    draws = sample_noise(Laplace(epsilon=0.025), 21, 10**6)
    expect = tail_prob(0.025, 100)
    sigma = math.sqrt(expect * (1 - expect) / draws.size)
    assert np.mean(np.abs(draws) > 100) == pytest.approx(expect, abs=3 * sigma)


def test_tail_prob_monotone_and_range():
    values = [tail_prob(e, t) for e in (0.05, 0.1, 0.5) for t in (1, 10, 100)]
    assert all(0.0 < v <= 1.0 for v in values)
    assert tail_prob(0.1, 10) > tail_prob(0.1, 20) > tail_prob(0.2, 20)
    with pytest.raises(DomainError):
        tail_prob(-1.0, 5)
    with pytest.raises(DomainError, match="finite"):
        tail_prob(math.inf, 5)


def test_binned_estimate_worked_example():
    hist = CountHistogram(bin_edges=(60, 80), bin_counts=(11680,))
    (estimate,) = binned_distortion_estimate(hist, 0.1, 0.5)
    assert estimate == pytest.approx(11680 * math.exp(-4))
    assert round(estimate) == 214


def test_binned_estimate_empty_bin():
    hist = CountHistogram(bin_edges=(0, 20, 40), bin_counts=(0, 7))
    est = binned_distortion_estimate(hist, 0.1, 0.5)
    assert est[0] == 0.0
    assert est[1] == pytest.approx(7 * tail_prob(0.1, 20))


def test_histogram_validation():
    with pytest.raises(DomainError):
        CountHistogram(bin_edges=(0, 10), bin_counts=(1, 2))
    with pytest.raises(DomainError):
        CountHistogram(bin_edges=(0, 10, 5), bin_counts=(1, 2))
    with pytest.raises(DomainError, match="strictly ascending"):
        CountHistogram(bin_edges=(0, math.nan), bin_counts=(3,))
    with pytest.raises(DomainError, match="strictly ascending"):
        observations_histogram(synthetic_areas(10, 1), [0, math.nan])


def test_area_record_validation():
    AreaRecord(area_id="A", country="X", f=2, m=3, t=5)
    with pytest.raises(DomainError):
        AreaRecord(area_id="A", country="X", f=2, m=3, t=6)
    with pytest.raises(DomainError):
        AreaRecord(area_id="A", country="X", f=-1, m=1, t=0)


def test_area_record_is_slotted_and_frozen():
    area = AreaRecord(area_id="A", country="X", f=2, m=3, t=5)
    assert not hasattr(area, "__dict__")
    with pytest.raises(dataclasses.FrozenInstanceError):
        area.f = 3
    with pytest.raises(DomainError, match="f \\+ m = 7 != t = 5"):
        dataclasses.replace(area, f=4)
    assert dataclasses.replace(area, f=4, t=7) == AreaRecord(area_id="A", country="X", f=4, m=3, t=7)


def synthetic_areas_by_index(count, seed):
    """Reference for ``synthetic_areas``: each record from numpy scalars read by index."""
    rng = np.random.default_rng(seed)
    totals = np.exp(rng.uniform(0.0, math.log(500), size=count)).astype(int)
    totals = np.clip(totals, 1, 500)
    females = rng.binomial(totals, 0.5)
    return [
        AreaRecord(
            area_id=f"A{i:05d}",
            country="SYN",
            f=int(females[i]),
            m=int(totals[i] - females[i]),
            t=int(totals[i]),
        )
        for i in range(count)
    ]


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2000), st.integers(0, 2**64 - 1))
def test_synthetic_areas_equal_the_per_index_construction(count, seed):
    areas = list(synthetic_areas(count, seed))
    assert areas == synthetic_areas_by_index(count, seed)
    assert all(type(a.f) is int and type(a.m) is int and type(a.t) is int for a in areas)


def test_synthetic_areas_count_must_be_nonnegative():
    assert list(synthetic_areas(0, 1)) == []
    with pytest.raises(DomainError, match="nonnegative"):
        synthetic_areas(-1, 1)


@pytest.mark.parametrize("count", [2.5, 2.0, "3", np.float64(3.0)])
def test_synthetic_areas_count_must_be_an_integer(count):
    with pytest.raises(DomainError, match="must be an integer"):
        synthetic_areas(count, 1)


def test_synthetic_areas_accept_numpy_integers():
    assert list(synthetic_areas(np.int32(40), 2)) == list(synthetic_areas(40, 2))


def test_synthetic_areas_shape():
    areas = synthetic_areas(500, 3)
    assert len(areas) == 500
    assert all(1 <= a.t <= 500 and a.f + a.m == a.t for a in areas)


def test_synthetic_areas_are_pinned():
    # SHA-256 recorded while the largest total was still a parameter
    digest = hashlib.sha256(repr(list(synthetic_areas(300, 7))).encode()).hexdigest()
    assert digest == "48d6729efe21d3393e1f50c4dc190529adeb335a75854af46ef5f09fdb11d34e"


def test_synthetic_areas_keep_only_their_counts():
    synthetic_areas(10, 1)  # warm-up: one-off allocations stay untraced
    tracemalloc.start()
    try:
        areas = synthetic_areas(10**5, 1)
        kept = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert areas.counts.nbytes == 2_400_000  # 2.29 MiB; eager per-area strings held 6.8 MiB more
    assert kept < 3 * 2**20


def test_area_csv_roundtrip(tmp_path):
    areas = synthetic_areas(50, 4)
    path = tmp_path / "areas.csv"
    columns = [f.name for f in dataclasses.fields(AreaRecord)]
    _write_csv(str(path), [], columns, map(dataclasses.astuple, areas))
    read = read_areas_text(path.read_text(encoding="utf-8"))
    assert list(read) == list(areas)
    assert np.array_equal(read.counts, areas.counts)


@pytest.mark.parametrize("text", ["", "\n\n", "# only a comment\n\n# another\n"])
def test_read_areas_text_names_an_empty_file(text):
    with pytest.raises(DomainError, match="got an empty file"):
        read_areas_text(text)


def test_read_areas_text_names_the_physical_line():
    text = "# areas\narea_id,country,f,m,t\n\nA1,X,1,2,3\n# note\n\nA2,X,1,2,4\n"
    with pytest.raises(DomainError, match="^area CSV line 7: area 'A2': f \\+ m = 3 != t = 4$"):
        read_areas_text(text)
    with pytest.raises(DomainError, match="^area CSV line 3: "):
        read_areas_text("area_id,country,f,m,t\n#\nA1,X,1,two,3\n")
    assert list(read_areas_text(text.replace(",4", ",3"))) == [
        AreaRecord(area_id="A1", country="X", f=1, m=2, t=3),
        AreaRecord(area_id="A2", country="X", f=1, m=2, t=3),
    ]


def test_observations_histogram_excludes_zeros():
    areas = Areas(np.array([[0, 4, 4]], dtype=np.int64), ("A",), ("X",))
    hist = observations_histogram(areas, [0, 10])
    assert hist.bin_counts == (2,)  # m and t; the zero f is dropped


def test_observations_histogram_of_no_areas_is_all_zero():
    no_areas = Areas(np.empty((0, 3), dtype=np.int64), (), ())
    assert observations_histogram(no_areas, [0, 10, 20, 50]).bin_counts == (0, 0, 0)


def area_counts_by_record(areas, dtype):
    """The record-by-record reference: f, m and t of every area in one flat array of ``dtype``."""
    return np.fromiter(itertools.chain.from_iterable((a.f, a.m, a.t) for a in areas), dtype=dtype)


def test_area_counts_equal_the_per_area_arrays():
    areas = synthetic_areas(3000, 8)
    assert areas.counts.dtype == np.int64 and areas.counts.shape == (3000, 3)
    assert np.array_equal(areas.counts.ravel(), area_counts_by_record(areas, np.int64))


def areas_of_splits(splits):
    """``Areas`` with area i's (f, m) from ``splits[i]``, t = f + m, id ``A{i}`` and country ``X``."""
    counts = np.array([(f, m, f + m) for f, m in splits], dtype=np.int64).reshape(-1, 3)
    return Areas(counts, tuple(f"A{i}" for i in range(len(splits))), ("X",) * len(splits))


def histogram_by_loop(areas, edges):
    """The record-by-record reference: each positive value in its (edge[i], edge[i+1]] bin."""
    counts = [0] * (len(edges) - 1)
    for v in (v for a in areas for v in (a.f, a.m, a.t) if v > 0):
        for i in range(len(counts)):
            if edges[i] < v <= edges[i + 1]:
                counts[i] += 1
                break
    return tuple(counts)


@settings(max_examples=200, deadline=None)
@given(
    st.lists(st.tuples(st.integers(0, 600), st.integers(0, 600)), max_size=30),
    st.lists(st.one_of(st.integers(-5, 700), st.floats(-5.0, 700.0)), min_size=1, max_size=12, unique=True),
)
def test_observations_histogram_matches_the_loop(splits, edges):
    areas = areas_of_splits(splits)
    edges = sorted(edges)
    assume(all(a < b for a, b in zip(edges, edges[1:])))  # 1 and 1.0 are the same edge
    hist = observations_histogram(areas, edges)
    assert hist.bin_counts == histogram_by_loop(areas, edges)
    assert all(type(c) is int for c in hist.bin_counts)


def test_areas_check_their_counts_once():
    counts = np.array([[1, 2, 3], [0, 4, 4]], dtype=np.int64)
    areas = Areas(counts, ("A", "B"), ("X", "Y"))
    counts[0] = (9, 9, 18)  # the areas hold their own copy
    assert list(areas) == [AreaRecord("A", "X", 1, 2, 3), AreaRecord("B", "Y", 0, 4, 4)]
    assert not areas.counts.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        areas.counts[0, 0] = 5
    with pytest.raises(DomainError, match="^negative count in area 'B'$"):
        Areas(np.array([[1, 2, 3], [-1, 1, 0]], dtype=np.int64), ("A", "B"), ("X", "X"))
    with pytest.raises(DomainError, match="^negative count in area 'A'$"):
        Areas(np.array([[1, -2, -1]], dtype=np.int64), ("A",), ("X",))
    with pytest.raises(DomainError, match="^area 'B': f \\+ m = 3 != t = 4$"):
        Areas(np.array([[1, 2, 3], [1, 2, 4], [1, 2, 5]], dtype=np.int64), ("A", "B", "C"), ("X",) * 3)
    # f + m wraps in int64, to a positive t's sign and to a negative t's value
    for f, m, t in [(2**62, 2**62, 5), (2**62, 2**62, -(2**63)), (2**63 - 1, 2**63 - 1, -2)]:
        with pytest.raises(DomainError, match=f"^area 'A': f \\+ m = {f + m} != t = {t}$"):
            Areas(np.array([[f, m, t]], dtype=np.int64), ("A",), ("X",))


@pytest.mark.parametrize(
    "counts, ids, countries, match",
    [
        (np.zeros((2, 2), dtype=np.int64), ("A", "B"), ("X", "X"), "\\(n, 3\\) int64 array"),
        (np.zeros(3, dtype=np.int64), ("A",), ("X",), "\\(n, 3\\) int64 array"),
        (np.zeros((1, 3)), ("A",), ("X",), "\\(n, 3\\) int64 array, got float64"),
        (np.zeros((2, 3), dtype=np.int64), ("A",), ("X", "X"), "2 areas need 2 ids and countries, got 1 and 2"),
        (np.zeros((1, 3), dtype=np.int64), ("A",), (), "1 areas need 1 ids and countries, got 1 and 0"),
    ],
)
def test_areas_reject_a_wrong_layout(counts, ids, countries, match):
    with pytest.raises(DomainError, match=match):
        Areas(counts, ids, countries)


def test_areas_index_and_iterate_as_records():
    areas = synthetic_areas(20, 3)
    records = list(areas)
    assert len(areas) == 20 and areas[-1] == records[-1] and areas[5] == records[5]
    assert all(type(v) is int for v in dataclasses.astuple(areas[5])[2:])
    with pytest.raises(IndexError):
        areas[20]


def test_areas_slice_as_areas():
    areas = synthetic_areas(20, 3)
    records = list(areas)
    for part in (slice(2, 7), slice(None, None, -3), slice(30, 40)):
        sliced = areas[part]
        assert type(sliced) is Areas and list(sliced) == records[part]
        assert np.array_equal(sliced.counts, areas.counts[part])
    assert areas != records  # not a list: compare list(areas)
    with pytest.raises(TypeError):
        areas[[1, 2]]


def test_records_too_large_for_int64_are_a_domain_error():
    text = f"area_id,country,f,m,t\nA,X,1,1,2\nB,X,{2**63},0,{2**63}\n"
    with pytest.raises(DomainError, match="^area CSV line 3: area 'B': count does not fit a 64-bit integer$"):
        read_areas_text(text)
    text = "area_id,country,f,m,t\nA,X,1,2,3\n\nB,X,-100000000000000000000,1,-99999999999999999999\n"
    with pytest.raises(DomainError, match="^area CSV line 4: area 'B': count does not fit a 64-bit integer$"):
        read_areas_text(text)


def test_columnar_paths_build_no_area_record(monkeypatch):
    calls = []
    check = AreaRecord.__post_init__
    monkeypatch.setattr(AreaRecord, "__post_init__", lambda self: calls.append(self) or check(self))
    areas = synthetic_areas(10**4, 17)
    observations_histogram(areas, [0, 20, 500])
    sample_distortions(areas, Laplace(epsilon=0.1), 3, [0.5])
    assert calls == []
    areas[0]  # the patched check is the one records run
    assert len(calls) == 1


def distortions_by_record(records, spec, seed, thresholds):
    """The record-by-record reference for ``sample_distortions``: f, m, t of each area in turn."""
    truth = area_counts_by_record(records, np.int64).tolist()
    draws = np.asarray(sample_noise(spec, seed, len(truth)), dtype=float).tolist() if truth else []
    tallies = []
    for threshold in thresholds:
        single = broadband = zero_hits = 0
        for i in range(0, len(truth), 3):
            values, noise = truth[i : i + 3], draws[i : i + 3]
            exceed = [v > 0 and abs(d) / v > threshold for v, d in zip(values, noise)]
            single += sum(exceed)
            broadband += all(exceed) and (all(d > 0 for d in noise) or all(d < 0 for d in noise))
            zero_hits += sum(v == 0 and d != 0 for v, d in zip(values, noise))
        tallies.append((float(threshold), single, broadband, zero_hits))
    return tallies


LAWS = [
    Laplace(epsilon=0.5),
    TwoTailedGeometric(epsilon=0.5),
    TruncatedLaplace(epsilon=0.5, bound=4),
    CellKey(variance=2.0, bound=3),
]


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.tuples(st.integers(0, 40), st.integers(0, 40)), max_size=25),
    st.integers(0, 2**32),
    st.sampled_from(LAWS),
)
def test_areas_agree_with_the_record_reference(splits, seed, spec):
    records = [AreaRecord(f"A{i}", "X", f, m, f + m) for i, (f, m) in enumerate(splits)]
    areas = areas_of_splits(splits)
    thresholds = [0.1, 0.5, 2.0]
    tallies = sample_distortions(areas, spec, seed, thresholds)
    assert [dataclasses.astuple(t) for t in tallies] == distortions_by_record(records, spec, seed, thresholds)
    edges = [0, 1, 5, 20, 80]
    assert observations_histogram(areas, edges).bin_counts == histogram_by_loop(records, edges)


def test_array_thresholds_give_the_list_tallies():
    areas = synthetic_areas(500, 12)
    thresholds = [0.2, 0.5]
    expected = sample_distortions(areas, Laplace(epsilon=0.1), 4, thresholds)
    assert sample_distortions(areas, Laplace(epsilon=0.1), 4, np.array(thresholds)) == expected
    with pytest.raises(DomainError, match="at least one"):
        sample_distortions(areas, Laplace(epsilon=0.1), 4, np.array([]))


def test_bounded_noise_cannot_exceed_re_on_large_counts():
    areas = areas_of_splits([(30 + i, 30) for i in range(50)])
    tallies = sample_distortions(areas, CellKey(variance=2.0, bound=5), 5, [0.2])
    # all true counts exceed 25, so |noise| <= 5 can never exceed RE 20%
    assert tallies[0].single == 0


def test_sample_matches_binned_estimate():
    areas = synthetic_areas(10000, 20260823)
    edges = list(range(0, 520, 20))
    hist = observations_histogram(areas, edges)
    estimate = sum(binned_distortion_estimate(hist, 0.1, 0.5))
    tallies = sample_distortions(areas, Laplace(epsilon=0.1), 9, [0.5])
    sigma = math.sqrt(estimate)
    # right-edge construction under-estimates; allow sampling noise downward
    assert tallies[0].single >= estimate - 3 * sigma


def test_sample_without_areas_draws_nothing(monkeypatch):
    monkeypatch.setattr(utility, "sample_noise", lambda *args: pytest.fail("drew noise for no areas"))
    no_areas = Areas(np.empty((0, 3), dtype=np.int64), (), ())
    tallies = sample_distortions(no_areas, Laplace(epsilon=0.1), 1, [0.5, 2.0])
    assert [dataclasses.astuple(t) for t in tallies] == [(0.5, 0, 0, 0), (2.0, 0, 0, 0)]
    with pytest.raises(DomainError, match="must be positive"):
        sample_distortions(no_areas, Laplace(epsilon=0.1), 1, [0.5, 0.0])


def test_broadband_bounded_by_components():
    areas = synthetic_areas(2000, 6)
    tallies = sample_distortions(areas, Laplace(epsilon=0.05), 10, [0.3, 0.6])
    for tally in tallies:
        assert tally.broadband <= tally.single
    assert tallies[1].single <= tallies[0].single


def test_dp_utility_eps_values():
    assert dp_utility_eps(20, 68, 0.68) == pytest.approx(0.268, abs=5e-4)
    assert dp_utility_eps(20, 3.7e4, 0.68) == pytest.approx(0.583, abs=5e-4)
    assert dp_utility_eps(30, 68, 0.68) < dp_utility_eps(20, 68, 0.68)
    assert dp_utility_eps(20, 100, 0.68) > dp_utility_eps(20, 68, 0.68)


def test_dp_utility_eps_sampling_cross_check():
    e_alpha, t, alpha = 20.0, 200, 0.68
    eps = dp_utility_eps(e_alpha, t, alpha)
    rng = np.random.default_rng(33)
    draws = rng.laplace(0.0, 1.0 / eps, size=(4000, t))
    all_within = np.mean(np.all(np.abs(draws) <= e_alpha, axis=1))
    # union bound construction is conservative
    assert all_within >= alpha - 0.02


def test_scan_ve_uniform_limit_cells():
    grid = scan_ve([2.0, 4.0], [2, 3], m_avail=1000.0)
    cells = {(c["V"], c["E"]): c for c in grid.cells}
    uniform_e2 = cells[(2.0, 2)]
    assert uniform_e2["p1"] == pytest.approx(20 / 125)
    assert uniform_e2["m_required"] == 7
    # m stays within 15% of the 1/p1 rule of thumb on uniform-limit cells
    uniform_e3 = cells[(4.0, 3)]
    assert uniform_e3["p1"] == pytest.approx(20 / 343)
    assert abs(uniform_e3["m_required"] - 343 / 20) / (343 / 20) < 0.15


def test_scan_ve_safety_flags():
    grid = scan_ve([2.0], [5], m_avail=2.8e7)
    cell = grid.cells[0]
    assert 1e-8 < cell["p1"] < 1e-6
    assert cell["e_disclosure_safe"] is False
    safe = scan_ve([2.0], [5], m_avail=7e5).cells[0]
    assert safe["e_disclosure_safe"] is True


def test_scan_ve_reveal_prob_does_not_underflow(monkeypatch):
    # 1 - (1 - 1e-18)**m rounds to 0; the true probability is about m * p1
    monkeypatch.setattr(utility, "p1_exact", lambda pmf, bound: 1e-18)
    cell = scan_ve([2.0], [5], m_avail=2.8e7).cells[0]
    assert cell["p1"] == 1e-18
    assert cell["reveal_prob"] == pytest.approx(2.8e-11, rel=1e-9)
    assert cell["m_required"] == math.ceil(math.log(1.0 - 0.68) / math.log1p(-1e-18))


def test_scan_ve_marks_infeasible():
    grid = scan_ve([5.0], [2, 3, 5], m_avail=100.0)
    feasible = {c["E"]: c["feasible"] for c in grid.cells}
    assert feasible == {2: False, 3: False, 5: True}


@st.composite
def variance_and_bound(draw):
    bound = draw(st.integers(-3, 40))
    vmax = bound * (bound + 1) / 3.0
    edges = [0.0, -0.0, -1.0, math.nan, vmax - 1e-12, vmax, vmax + 1e-12, vmax + 2e-12]
    return draw(st.one_of(st.sampled_from(edges), st.floats(-1.0, 600.0))), bound


@settings(max_examples=200, deadline=None)
@given(variance_and_bound())
def test_scan_ve_feasibility_is_gen_ptables(case):
    variance, bound = case
    try:
        gen_ptable(variance, bound)
    except InfeasibleError:
        feasible = False
    except DomainError as exc:  # a bound below 1 under a variance the rule admits
        with pytest.raises(DomainError) as info:
            scan_ve([variance], [bound], m_avail=1000.0)
        assert str(info.value) == str(exc)
        return
    else:
        feasible = True
    (cell,) = scan_ve([variance], [bound], m_avail=1000.0).cells
    assert cell["feasible"] is feasible


def test_scan_ve_averaging_columns():
    grid = scan_ve([2.0], [5], m_avail=100.0, kt2=0.1)
    cell = grid.cells[0]
    assert "alpha_averaging" in cell and "averaging_safe" in cell


def _flip_eps(kt2):
    # epsilon where the Gaussian averaging model crosses alpha=0.68 at V=2/eps^2
    from sdcnoise.attacks import averaging_success

    lo, hi = 0.01, 5.0
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if averaging_success(2.0 / mid**2, kt2, 1.0) < 0.68:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def test_scan_eps_flip_points():
    assert _flip_eps(0.0118) == pytest.approx(0.3055, abs=1e-3)
    # printed as roughly 0.8; the Gaussian model puts the flip near 0.94
    assert 0.8 <= _flip_eps(0.112) <= 1.0


def test_scan_eps_bands():
    eps_values = [round(0.05 + 0.005 * i, 4) for i in range(200)]
    grid = scan_eps(eps_values, [0.0118, 0.017, 0.112], 20.0, 68.0, alpha=0.68)
    conservative = [c["eps"] for c in grid.cells if c["band_conservative"]]
    relaxed = [c["eps"] for c in grid.cells if c["band_relaxed"]]
    assert min(conservative) == pytest.approx(0.27, abs=0.005)
    assert max(conservative) == pytest.approx(0.305, abs=0.005)
    # dropping the most extreme k/t^2 widens the band to roughly [0.27, 0.37]
    assert min(relaxed) == pytest.approx(0.27, abs=0.005)
    assert max(relaxed) == pytest.approx(0.3667, abs=0.005)


def test_grid_csv_deterministic(tmp_path):
    grids = [
        scan_eps([0.1, 0.2, 0.3], [0.0118, 0.112], 20.0, 68.0) for _ in range(2)
    ]
    outputs = []
    for i, grid in enumerate(grids):
        path = tmp_path / f"grid{i}.csv"
        _write_grid(str(path), ["run"], grid)
        outputs.append(path.read_text(encoding="utf-8"))
    assert outputs[0] == outputs[1]
    assert outputs[0].startswith("# run\n")


def test_scan_validation():
    with pytest.raises(DomainError):
        scan_ve([2.0], [5], m_avail=0.0)
    with pytest.raises(DomainError):
        scan_ve([2.0], [5], m_avail=math.nan)
    # alpha and k/t^2 are checked before the grid, so a grid of only infeasible cells rejects them too
    for alpha in (5.0, 0.0, math.nan):
        with pytest.raises(DomainError, match="alpha must lie in \\(0,1\\)"):
            scan_ve([100.0], [1, 2], m_avail=2.8e7, alpha=alpha)
    for kt2 in (0.0, -1.0, math.nan):
        with pytest.raises(DomainError, match="kt2 must be positive"):
            scan_ve([100.0], [1], m_avail=1.0, kt2=kt2)
    with pytest.raises(DomainError):
        scan_eps([0.1], [], 20.0, 68.0)
    with pytest.raises(DomainError, match="finite"):
        scan_eps([0.1, math.inf], [0.1], 20.0, 68.0)
    # 1e-160 squares to a subnormal, 1e-300 to zero: V = 2/eps^2 overflows either way
    for eps in (1e-160, 1e-300):
        with pytest.raises(DomainError, match="overflows"):
            scan_eps([eps], [0.1], 20.0, 68.0)
