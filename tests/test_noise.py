import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sdcnoise.errors import DomainError, InfeasibleError
from sdcnoise.noise import (
    CellKey,
    Laplace,
    PTable,
    RecordKey,
    TruncatedLaplace,
    TwoTailedGeometric,
    cell_key,
    cell_key_noise,
    gen_ptable,
    geometric2_pmf,
    laplace_variance,
    random_record_keys,
    sample_noise,
    uniform_max_variance,
)


def test_laplace_variance_examples():
    assert laplace_variance(1.0) == 2.0
    assert laplace_variance(0.025) == 3200.0
    assert laplace_variance(1.0, 2) == 8.0


def test_laplace_variance_rejects_bad_epsilon():
    with pytest.raises(DomainError):
        laplace_variance(0.0)


def log_uniform_variance(u, bound):
    """The variance at fraction ``u`` of the log scale from 1e-300 to E(E+1)/3."""
    low, high = math.log(1e-300), math.log(uniform_max_variance(bound))
    return min(math.exp(low + u * (high - low)), uniform_max_variance(bound))


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 60), st.floats(0.0, 1.0))
@example(1, 0.0)
@example(5, 0.0)
@example(5, 0.9)
@example(60, 1.0)
def test_gen_ptable_hits_every_feasible_variance(bound, u):
    variance = log_uniform_variance(u, bound)
    assert gen_ptable(variance, bound).variance() == pytest.approx(variance, rel=1e-9, abs=0)


@pytest.mark.parametrize("epsilon", [math.inf, -math.inf, 1e-200, 1e-320])
def test_laplace_variance_rejects_infinite_epsilon_and_overflow(epsilon):
    with pytest.raises(DomainError):
        laplace_variance(epsilon)


def test_geometric2_symmetry_and_value():
    xs = np.arange(-500, 501)
    pmf = geometric2_pmf(xs, 0.1)
    assert np.allclose(pmf, pmf[::-1])
    assert geometric2_pmf(0, 0.1) == pytest.approx(0.049958, abs=1e-6)
    assert abs(pmf.sum() - 1.0) < 1e-12
    # degenerate high-epsilon limit concentrates at zero
    assert geometric2_pmf(0, 50.0) == pytest.approx(1.0, abs=1e-12)


def test_gen_ptable_uniform_limit():
    pt = gen_ptable(4.0, 3)
    assert np.allclose(pt.probabilities, 1.0 / 7.0)
    assert pt.variance() == pytest.approx(4.0, abs=1e-9)


def test_gen_ptable_shape_and_variance():
    pt = gen_ptable(2.0, 5)
    assert pt.variance() == pytest.approx(2.0, abs=1e-9)
    half = pt.probabilities[5:]
    assert all(half[i] > half[i + 1] for i in range(5))


def test_gen_ptable_infeasible():
    with pytest.raises(InfeasibleError):
        gen_ptable(10.0, 3)
    with pytest.raises(InfeasibleError):
        gen_ptable(-1.0, 3)


@pytest.mark.parametrize(
    "make",
    [
        lambda: gen_ptable(math.nan, 3),
        lambda: CellKey(variance=math.nan, bound=3),
        lambda: Laplace(epsilon=math.nan),
        lambda: TwoTailedGeometric(epsilon=math.nan),
        lambda: TruncatedLaplace(epsilon=math.nan, bound=3),
    ],
    ids=["gen_ptable", "CellKey", "Laplace", "TwoTailedGeometric", "TruncatedLaplace"],
)
def test_nan_parameters_are_rejected(make):
    with pytest.raises(DomainError):
        make()


def test_ptable_variance_grid():
    for variance in (0.5, 1.0, 2.0, 3.0, 4.0):
        for bound in range(2, 11):
            if variance > uniform_max_variance(bound):
                continue
            pt = gen_ptable(variance, bound)
            assert pt.variance() == pytest.approx(variance, abs=1e-9)
            assert abs(pt.probabilities.sum() - 1.0) < 1e-12
            assert np.max(np.abs(pt.probabilities - pt.probabilities[::-1])) < 1e-12


def test_entropy_monotone_in_variance():
    for bound in (3, 5, 8):
        vmax = uniform_max_variance(bound)
        entropies = [
            gen_ptable(v, bound).entropy()
            for v in np.linspace(0.3, vmax, 12)
        ]
        assert all(b >= a - 1e-12 for a, b in zip(entropies, entropies[1:]))
        assert entropies[-1] == pytest.approx(math.log(2 * bound + 1), abs=1e-9)


def test_ptable_validation():
    with pytest.raises(DomainError, match="sum"):
        PTable(bound=1, probabilities=np.array([0.2, 0.2, 0.2]))
    with pytest.raises(DomainError, match="symmetric"):
        PTable(bound=1, probabilities=np.array([0.5, 0.2, 0.3]))


def test_quantile_covers_support():
    pt = gen_ptable(2.0, 5)
    assert pt.quantile(0.0) == -5
    assert pt.quantile(1.0) == 5
    assert pt.quantile(0.5) == 0


def test_record_key_fraction():
    a = RecordKey.from_float(0.3)
    b = RecordKey.from_float(0.9)
    assert cell_key([a, b]) == pytest.approx(0.2, abs=1e-12)
    assert cell_key([]) == 0.0


def test_record_key_validation():
    with pytest.raises(DomainError):
        RecordKey.from_float(1.0)
    with pytest.raises(DomainError):
        RecordKey(fraction=-1)


def test_cell_key_order_independent():
    keys = random_record_keys(10, 77)
    assert cell_key(keys) == cell_key(list(reversed(keys)))


def test_spsn_same_records_same_noise():
    pt = gen_ptable(2.0, 5)
    keys = random_record_keys(4, 3)
    # same participants queried through two different tables
    assert cell_key_noise(keys, pt) == cell_key_noise(list(keys), pt)


def test_cell_key_noise_sample_variance():
    pt = gen_ptable(2.0, 10)
    keys = random_record_keys(3000, 2024)
    noises = [cell_key_noise(keys[3 * i : 3 * i + 3], pt) for i in range(1000)]
    assert 1.7 <= np.var(noises) <= 2.3


def test_sample_noise_deterministic():
    spec = TwoTailedGeometric(epsilon=0.5)
    a = sample_noise(spec, 11, 100)
    b = sample_noise(spec, 11, 100)
    assert np.array_equal(a, b)


def test_truncated_laplace_bounded():
    spec = TruncatedLaplace(epsilon=0.5, bound=7)
    draws = sample_noise(spec, 4, 10000)
    assert np.abs(draws).max() <= 7
    assert draws.dtype == np.int64


def test_laplace_sample_variance():
    draws = sample_noise(Laplace(epsilon=0.1), 5, 100000)
    assert np.var(draws) == pytest.approx(200.0, rel=0.05)


def test_cell_key_spec_sampling():
    spec = CellKey(variance=2.0, bound=5)
    draws = sample_noise(spec, 6, 20000)
    assert np.abs(draws).max() <= 5
    assert np.var(draws) == pytest.approx(2.0, rel=0.1)


def test_cell_key_spec_infeasible():
    with pytest.raises(InfeasibleError):
        CellKey(variance=10.0, bound=3)


def test_geometric_approaches_laplace():
    # unit-binned Laplace(1/eps) mass vs the discrete geometric, total variation
    for eps in (0.1, 0.05, 0.02):
        xs = np.arange(-5000, 5001)
        geo = geometric2_pmf(xs, eps)
        lap = np.where(
            xs == 0,
            1.0 - math.exp(-eps / 2),
            np.exp(-eps * (np.abs(xs) - 0.5)) * (1.0 - math.exp(-eps)) / 2.0,
        )
        assert 0.5 * np.abs(geo - lap).sum() < 0.01


def test_uniform_max_variance():
    assert uniform_max_variance(2) == pytest.approx(2.0)
    assert uniform_max_variance(3) == pytest.approx(4.0)
