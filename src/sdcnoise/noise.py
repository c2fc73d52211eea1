"""Noise distributions and the cell-key mechanism.

Covers the continuous Laplace distribution, its discrete two-tailed geometric
sibling, and two bounded laws on {-E..E}: the geometric law truncated to the
bound and renormalised, and lookup-table noise with prescribed variance V.
Both bounded laws are p-tables, sampled by one inverse-CDF lookup.  Tables of
prescribed variance are generated by maximum entropy: under the constraints
of normalization, zero mean and fixed variance the solution is the symmetric
family p_j proportional to exp(-lambda * j^2), with lambda found by bisection
(lambda = 0 is the uniform limit V = E(E+1)/3).

The parameter rules live here: :func:`check_epsilon` for a positive epsilon,
:func:`check_bound` for a bound E, the geometric law's smallest epsilon, and
:func:`gen_ptable`, the one max-entropy builder, for (V, E).

Only the functions that build arrays, tables or draws import numpy, so
importing this module, the parameter rules, the noise specs without a table
and the uniform law's probabilities (:func:`uniform_pmf`) load no numpy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from .errors import DomainError, InfeasibleError

if TYPE_CHECKING:
    import numpy as np


def check_epsilon(epsilon: float) -> float:
    """``epsilon`` if 0 < epsilon < inf, else DomainError (NaN included): the one positive-epsilon check."""
    if not 0 < epsilon < math.inf:
        raise DomainError(f"epsilon must be positive and finite, got {epsilon}")
    return epsilon


def check_bound(bound: int) -> int:
    """``bound`` if 1 <= bound <= 10**6 (a table of 2*10**6 + 1 probabilities), else DomainError."""
    if not 1 <= bound <= 10**6:
        raise DomainError(f"bound must be a positive integer no larger than 10**6, got {bound}")
    return bound


def _geometric_ratio(epsilon: float) -> float:
    """q = e^-eps of the geometric law, after checking that 1 - q does not round to 0."""
    q = math.exp(-check_epsilon(epsilon))
    if q == 1.0:
        raise DomainError(f"epsilon {epsilon} is too small for the geometric law: 1 - e^-eps rounds to 0")
    return q


def laplace_variance(epsilon: float) -> float:
    """Variance 2*(1/epsilon)^2 of Laplace noise of scale 1/epsilon (sensitivity 1)."""
    check_epsilon(epsilon)
    try:
        variance = 2.0 * (1 / epsilon) ** 2  # a subnormal epsilon gives inf without raising
    except OverflowError:
        variance = math.inf
    if variance == math.inf:
        raise DomainError(f"Laplace variance 2*(1/{epsilon})^2 overflows")
    return variance


def geometric2_pmf(x, epsilon: float):
    """Two-tailed geometric pmf on the integers, (1-q)/(1+q) * q^|x| with q=e^-eps."""
    import numpy as np
    q = _geometric_ratio(epsilon)
    with np.errstate(over="ignore"):  # a huge eps*|x| overflows to inf, and e^-inf = 0 is the mass
        return (1.0 - q) / (1.0 + q) * np.exp(-epsilon * np.abs(x))


def uniform_max_variance(bound: int) -> float:
    """Largest variance achievable on {-E..E}: the uniform value E(E+1)/3."""
    return bound * (bound + 1) / 3.0


@dataclass(frozen=True)
class PTable:
    """Discrete symmetric noise lookup table on {-E..E}.

    ``probabilities[j + bound]`` is the mass at value j; ``cumulative`` holds
    the prefix sums used for quantile lookup.
    """

    bound: int
    probabilities: np.ndarray
    cumulative: np.ndarray = field(init=False)

    def __post_init__(self):
        import numpy as np
        p = np.asarray(self.probabilities, dtype=float)
        if p.shape != (2 * self.bound + 1,):
            raise DomainError(
                f"expected {2 * self.bound + 1} probabilities, got {p.shape}"
            )
        # positive forms, so that a NaN probability fails every check
        if not np.all(p >= 0):
            raise DomainError("probabilities must be nonnegative")
        if not abs(p.sum() - 1.0) <= 1e-12:
            raise DomainError(f"probabilities sum to {p.sum()!r}, not 1")
        if not np.max(np.abs(p - p[::-1])) <= 1e-12:
            raise DomainError("probabilities must be symmetric around 0")
        object.__setattr__(self, "probabilities", p)
        object.__setattr__(self, "cumulative", np.cumsum(p))

    def variance(self) -> float:
        import numpy as np
        return float((np.arange(-self.bound, self.bound + 1) ** 2 * self.probabilities).sum())

    def quantile(self, u) -> np.ndarray:
        """Smallest j with cumulative mass >= u, elementwise."""
        import numpy as np
        return np.minimum(np.searchsorted(self.cumulative, u, side="left"), 2 * self.bound) - self.bound

    def as_pmf(self) -> dict[int, float]:
        return dict(zip(range(-self.bound, self.bound + 1), self.probabilities.tolist()))


def _variance_for_lambda(lam: float, bound: int) -> float:
    import numpy as np
    j = np.arange(-bound, bound + 1)
    w = np.exp(-lam * j.astype(float) ** 2)
    return float(np.sum(j**2 * w) / np.sum(w))


def uniform_pmf(bound: int) -> list[float]:
    """The uniform law on {-E..E}, 1/(2E+1) each, its bound checked; loads no numpy."""
    check_bound(bound)
    return [1.0 / (2 * bound + 1)] * (2 * bound + 1)


def gen_ptable(variance: float, bound: int) -> PTable:
    """Maximum-entropy lookup table on {-E..E} with mean 0 and variance ``variance``.

    The one (V, E) feasibility test: InfeasibleError unless 0 < V <= E(E+1)/3
    (NaN fails), checked before the bound, which must then be positive.  At
    V = E(E+1)/3 (within 1e-12) the law is :func:`uniform_pmf`; below it
    lambda is found by bisection.
    """
    vmax = uniform_max_variance(bound)
    if not 0 < variance <= vmax + 1e-12:
        raise InfeasibleError(
            f"variance {variance} is not positive or exceeds the uniform maximum E(E+1)/3 = {vmax}"
        )
    if abs(variance - vmax) <= 1e-12:
        return PTable(bound=bound, probabilities=uniform_pmf(bound))
    check_bound(bound)
    import numpy as np
    lo, hi = 0.0, 50.0
    while _variance_for_lambda(hi, bound) > variance:  # tiny V needs a wider bracket
        hi *= 2.0
    # variance is strictly decreasing in lambda; bisect the residual away
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if _variance_for_lambda(mid, bound) > variance:
            lo = mid
        else:
            hi = mid
        if hi - lo < 1e-15 and abs(_variance_for_lambda(hi, bound) - variance) < 1e-12:
            break
    lam = 0.5 * (lo + hi)
    w = np.exp(-lam * np.arange(-bound, bound + 1).astype(float) ** 2)
    return PTable(bound=bound, probabilities=w / w.sum())


# --- parameterized noise specifications -------------------------------------


@dataclass(frozen=True)
class Laplace:
    epsilon: float

    def __post_init__(self):
        laplace_variance(self.epsilon)  # validates


@dataclass(frozen=True)
class TwoTailedGeometric:
    epsilon: float

    def __post_init__(self):
        _geometric_ratio(self.epsilon)


@dataclass(frozen=True)
class TruncatedLaplace:
    """The two-tailed geometric law restricted to {-E..E} and renormalised; its p-table is built once."""

    epsilon: float
    bound: int
    _ptable: PTable = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        _geometric_ratio(self.epsilon)
        check_bound(self.bound)
        import numpy as np
        pmf = geometric2_pmf(np.arange(-self.bound, self.bound + 1), self.epsilon)
        object.__setattr__(self, "_ptable", PTable(bound=self.bound, probabilities=pmf / pmf.sum()))

    def ptable(self) -> PTable:
        return self._ptable


@dataclass(frozen=True)
class CellKey:
    """Lookup-table noise; its p-table is built once, when the spec is made."""

    variance: float
    bound: int
    _ptable: PTable = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "_ptable", gen_ptable(self.variance, self.bound))

    def ptable(self) -> PTable:
        return self._ptable


NoiseSpec = Laplace | TwoTailedGeometric | TruncatedLaplace | CellKey


def sample_noise(spec: NoiseSpec, seed, count: int) -> np.ndarray:
    """Reproducible draws, reals for Laplace; a Generator seed (one generator per release) is used as is."""
    if count < 1:
        raise DomainError(f"count must be positive, got {count}")
    import numpy as np
    rng = np.random.default_rng(seed)
    if isinstance(spec, Laplace):
        return rng.laplace(0.0, 1.0 / spec.epsilon, size=count)
    if isinstance(spec, TwoTailedGeometric):
        # difference of two iid geometric(1 - e^-eps) variables (shifted to start at 0)
        p = 1.0 - _geometric_ratio(spec.epsilon)
        return (rng.geometric(p, size=count) - rng.geometric(p, size=count)).astype(np.int64)
    if isinstance(spec, (TruncatedLaplace, CellKey)):
        return spec.ptable().quantile(rng.random(count))
    raise DomainError(f"unknown noise spec {spec!r}")
