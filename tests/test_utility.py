import dataclasses
import hashlib
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from sdcnoise import utility
from sdcnoise.cli import _write_csv, _write_grid
from sdcnoise.errors import DomainError, InfeasibleError
from sdcnoise.noise import CellKey, Laplace, gen_ptable, sample_noise
from sdcnoise.utility import (
    AreaRecord,
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


def test_area_record_validation():
    AreaRecord(area_id="A", country="X", f=2, m=3, t=5)
    with pytest.raises(DomainError):
        AreaRecord(area_id="A", country="X", f=2, m=3, t=6)
    with pytest.raises(DomainError):
        AreaRecord(area_id="A", country="X", f=-1, m=1, t=0)


def test_synthetic_areas_shape():
    areas = synthetic_areas(500, 3)
    assert len(areas) == 500
    assert all(1 <= a.t <= 500 and a.f + a.m == a.t for a in areas)


def test_synthetic_areas_are_pinned():
    # SHA-256 recorded while the largest total was still a parameter
    digest = hashlib.sha256(repr(synthetic_areas(300, 7)).encode()).hexdigest()
    assert digest == "48d6729efe21d3393e1f50c4dc190529adeb335a75854af46ef5f09fdb11d34e"


def test_area_csv_roundtrip(tmp_path):
    areas = synthetic_areas(50, 4)
    path = tmp_path / "areas.csv"
    columns = [f.name for f in dataclasses.fields(AreaRecord)]
    _write_csv(str(path), [], columns, map(dataclasses.astuple, areas))
    assert read_areas_text(path.read_text(encoding="utf-8")) == areas


def test_observations_histogram_excludes_zeros():
    areas = [AreaRecord(area_id="A", country="X", f=0, m=4, t=4)]
    hist = observations_histogram(areas, [0, 10])
    assert hist.bin_counts == (2,)  # m and t; the zero f is dropped


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
    areas = [AreaRecord(area_id=f"A{i}", country="X", f=f, m=m, t=f + m) for i, (f, m) in enumerate(splits)]
    edges = sorted(edges)
    assume(all(a < b for a, b in zip(edges, edges[1:])))  # 1 and 1.0 are the same edge
    hist = observations_histogram(areas, edges)
    assert hist.bin_counts == histogram_by_loop(areas, edges)
    assert all(type(c) is int for c in hist.bin_counts)


def test_bounded_noise_cannot_exceed_re_on_large_counts():
    areas = [
        AreaRecord(area_id="A%d" % i, country="X", f=30 + i, m=30, t=60 + i)
        for i in range(50)
    ]
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
        if averaging_success(2.0 / mid**2, kt2, 1.0, "Gaussian") < 0.68:
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
    with pytest.raises(DomainError):
        scan_eps([0.1], [], 20.0, 68.0)
    with pytest.raises(DomainError, match="finite"):
        scan_eps([0.1, math.inf], [0.1], 20.0, 68.0)
    # 1e-160 squares to a subnormal, 1e-300 to zero: V = 2/eps^2 overflows either way
    for eps in (1e-160, 1e-300):
        with pytest.raises(DomainError, match="overflows"):
            scan_eps([eps], [0.1], 20.0, 68.0)
