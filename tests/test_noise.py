import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sdcnoise.accounting import halving_schedule, us_table_budget
from sdcnoise.attacks import margin_exploit_scan
from sdcnoise.errors import DomainError, InfeasibleError
from sdcnoise.noise import (
    CellKey,
    Laplace,
    PTable,
    TruncatedLaplace,
    TwoTailedGeometric,
    check_bound,
    gen_ptable,
    geometric2_pmf,
    laplace_variance,
    sample_noise,
    uniform_max_variance,
    uniform_pmf,
)
from sdcnoise.utility import scan_eps, tail_prob

from record_keys import RecordKey, cell_key, cell_key_noise, random_record_keys


def test_laplace_variance_examples():
    assert laplace_variance(1.0) == 2.0
    assert laplace_variance(0.025) == 3200.0


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


@pytest.mark.parametrize("bound", range(1, 51))
def test_max_entropy_pmf_uniform_is_numpys_uniform(bound):
    # the max-entropy table at the uniform edge is uniform_pmf, the table the bisection would
    # build there: exp(-0 * j**2), all ones, over its sum
    pmf = uniform_pmf(bound)
    assert type(pmf) is list and all(type(p) is float for p in pmf)
    assert pmf == gen_ptable(uniform_max_variance(bound), bound).probabilities.tolist()
    assert pmf == (np.ones(2 * bound + 1) / (2 * bound + 1)).tolist()


def test_max_entropy_pmf_uniform_loads_no_numpy():
    code = (
        "import sys\n"
        "from sdcnoise.noise import uniform_pmf\n"
        "assert uniform_pmf(9) == [1 / 19] * 19\n"
        "print('numpy' in sys.modules)\n"
    )
    src = str(Path(sys.modules["sdcnoise.noise"].__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "False\n"


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


@pytest.mark.parametrize(
    "make",
    [
        lambda eps: geometric2_pmf(0, eps),
        lambda eps: Laplace(epsilon=eps),
        lambda eps: TwoTailedGeometric(epsilon=eps),
        lambda eps: TruncatedLaplace(epsilon=eps, bound=3),
    ],
    ids=["geometric2_pmf", "Laplace", "TwoTailedGeometric", "TruncatedLaplace"],
)
def test_infinite_epsilon_is_rejected(make):
    with pytest.raises(DomainError, match="finite"):
        make(math.inf)


EPSILON_SITES = {
    "laplace_variance": laplace_variance,
    "geometric2_pmf": lambda eps: geometric2_pmf(np.arange(-2, 3), eps),
    "TwoTailedGeometric": lambda eps: TwoTailedGeometric(epsilon=eps),
    "TruncatedLaplace": lambda eps: TruncatedLaplace(epsilon=eps, bound=3),
    "tail_prob": lambda eps: tail_prob(eps, 1.0),
    "scan_eps": lambda eps: scan_eps([0.5, eps], [0.1], 20.0, 68.0),
    "halving_schedule": lambda eps: halving_schedule(eps, 3),
    "us_table_budget": us_table_budget,
}


@pytest.mark.parametrize("epsilon", [0.0, -1.0, math.nan, math.inf])
@pytest.mark.parametrize("site", EPSILON_SITES.values(), ids=EPSILON_SITES.keys())
def test_every_epsilon_site_applies_the_one_rule(site, epsilon):
    with pytest.raises(DomainError) as info:
        site(epsilon)
    assert str(info.value) == f"epsilon must be positive and finite, got {epsilon}"


@pytest.mark.parametrize(
    "make",
    [
        lambda eps: geometric2_pmf(np.arange(-2, 3), eps),
        lambda eps: TwoTailedGeometric(epsilon=eps),
        lambda eps: TruncatedLaplace(epsilon=eps, bound=3),
    ],
    ids=["geometric2_pmf", "TwoTailedGeometric", "TruncatedLaplace"],
)
def test_geometric_law_rejects_epsilon_below_its_resolution(make):
    # 1 - e^-eps rounds to 0 here: the pmf would be all zeros and numpy's sampler raises
    with pytest.raises(DomainError, match="too small for the geometric law"):
        make(1e-17)
    make(1e-15)  # 1 - e^-eps is about 1.1e-15, still a valid law


def test_smallest_geometric_epsilon_keeps_the_formula():
    epsilon = 1e-15
    q = math.exp(-epsilon)
    assert geometric2_pmf(0, epsilon) == (1.0 - q) / (1.0 + q) > 0
    p = 1.0 - q
    rng = np.random.default_rng(4)
    want = rng.geometric(p, size=5) - rng.geometric(p, size=5)
    assert sample_noise(TwoTailedGeometric(epsilon), 4, 5).tolist() == want.tolist()


def test_cell_key_ptable_is_hidden_from_equality_and_repr():
    spec = CellKey(variance=2.0, bound=5)
    assert np.array_equal(spec.ptable().probabilities, gen_ptable(2.0, 5).probabilities)
    assert spec == CellKey(variance=2.0, bound=5) and hash(spec) == hash(CellKey(2.0, 5))
    assert repr(spec) == "CellKey(variance=2.0, bound=5)"


def test_ptable_checks_the_variance_before_the_bound():
    with pytest.raises(InfeasibleError, match="uniform maximum"):
        gen_ptable(1.0, 0)
    with pytest.raises(DomainError, match="bound must be a positive integer"):
        gen_ptable(0.5, -2)  # E(E+1)/3 = 2/3 admits the variance; the bound then fails


def test_every_noise_bound_is_at_most_a_million():
    assert check_bound(1) == 1 and check_bound(10**6) == 10**6
    for bound in (0, 10**6 + 1):
        with pytest.raises(DomainError, match="bound must be a positive integer no larger than 10\\*\\*6"):
            check_bound(bound)
    # each bounded site refuses the bound before it builds a table of 2E + 1 values
    for build in (lambda: gen_ptable(2.0, 10**20), lambda: TruncatedLaplace(1.0, 10**20),
                  lambda: uniform_pmf(10**20), lambda: margin_exploit_scan([[1, 1]], 10**20)):
        with pytest.raises(DomainError, match="no larger than"):
            build()


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
    def entropy(p):
        p = p[p > 0]
        return float(-np.sum(p * np.log(p)))

    for bound in (3, 5, 8):
        vmax = uniform_max_variance(bound)
        entropies = [
            entropy(gen_ptable(v, bound).probabilities)
            for v in np.linspace(0.3, vmax, 12)
        ]
        assert all(b >= a - 1e-12 for a, b in zip(entropies, entropies[1:]))
        assert entropies[-1] == pytest.approx(math.log(2 * bound + 1), abs=1e-9)


def test_ptable_validation():
    with pytest.raises(DomainError, match="sum"):
        PTable(bound=1, probabilities=np.array([0.2, 0.2, 0.2]))
    with pytest.raises(DomainError, match="symmetric"):
        PTable(bound=1, probabilities=np.array([0.5, 0.2, 0.3]))


@pytest.mark.parametrize("probabilities", [[math.nan] * 3, [0.2, math.nan, 0.2]], ids=["all-nan", "one-nan"])
def test_ptable_rejects_nan_probabilities(probabilities):
    with pytest.raises(DomainError):
        PTable(bound=1, probabilities=np.array(probabilities))


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


@settings(max_examples=200, deadline=None)
@given(
    st.floats(1e-12, 50.0),
    st.integers(1, 40),
    st.integers(0, 2**32 - 1),
    st.integers(1, 500),
)
@example(1e-12, 40, 0, 10)  # stalled the rejection sampler
@example(1e308, 5, 0, 10)  # -eps*|x| overflows to -inf: mass 0, and no warning
def test_truncated_laplace_is_its_geometric_ptable(epsilon, bound, seed, count):
    spec = TruncatedLaplace(epsilon=epsilon, bound=bound)
    pmf = geometric2_pmf(np.arange(-bound, bound + 1), epsilon)
    assert spec.ptable().probabilities.tolist() == (pmf / pmf.sum()).tolist()
    want = spec.ptable().quantile(np.random.default_rng(seed).random(count))
    assert sample_noise(spec, seed, count).tolist() == want.tolist()
    assert spec == TruncatedLaplace(epsilon, bound)
    assert repr(spec) == f"TruncatedLaplace(epsilon={epsilon!r}, bound={bound})"


def test_truncated_laplace_draws_follow_the_truncated_geometric_law():
    epsilon, bound, count = 0.5, 5, 200_000
    pmf = geometric2_pmf(np.arange(-bound, bound + 1), epsilon)
    pmf = pmf / pmf.sum()
    draws = sample_noise(TruncatedLaplace(epsilon, bound), 8, count)
    observed = np.bincount(draws + bound, minlength=2 * bound + 1)
    assert observed.size == 2 * bound + 1
    sigma = np.sqrt(count * pmf * (1 - pmf))
    assert np.all(np.abs(observed - count * pmf) <= 4 * sigma)


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
