"""Small-area utility tail analysis and risk/utility parameter scans.

The tail probability of unbounded per-count noise is folded with the
distribution of small-area counts to estimate how many published counts
exceed a relative error threshold; sampled runs cross-check the estimates.
Two grid scans sweep the bounded-noise (V, E) plane and the per-count
privacy budget range, recording every probability and feasibility flag per
cell for external heat-map plotting.
"""

from __future__ import annotations

import csv
import math
from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from .attacks import averaging_success, p1_exact, tuples_needed
from .errors import DomainError, InfeasibleError
from .noise import NoiseSpec, check_epsilon, gen_ptable, sample_noise


@dataclass(frozen=True)
class AreaRecord:
    """One small administrative area with its sex-split population counts."""

    area_id: str
    country: str
    f: int
    m: int
    t: int

    def __post_init__(self):
        if self.f < 0 or self.m < 0:
            raise DomainError(f"negative count in area {self.area_id!r}")
        if self.f + self.m != self.t:
            raise DomainError(
                f"area {self.area_id!r}: f + m = {self.f + self.m} != t = {self.t}"
            )


@dataclass(frozen=True)
class CountHistogram:
    """Observation counts per (edge[i], edge[i+1]] bin."""

    bin_edges: tuple[float, ...]
    bin_counts: tuple[int, ...]

    def __post_init__(self):
        if len(self.bin_edges) != len(self.bin_counts) + 1:
            raise DomainError("need one more edge than bins")
        if any(b >= a for a, b in zip(self.bin_edges[1:], self.bin_edges)):
            raise DomainError("bin edges must be strictly ascending")
        if any(c < 0 for c in self.bin_counts):
            raise DomainError("bin counts must be nonnegative")


def tail_prob(epsilon: float, threshold: float) -> float:
    """Two-sided Laplace(1/eps) tail mass beyond magnitude ``threshold``: exp(-eps*E)."""
    check_epsilon(epsilon)
    if not threshold >= 0:
        raise DomainError(f"threshold must be nonnegative, got {threshold}")
    return math.exp(-epsilon * threshold)


def binned_distortion_estimate(
    hist: CountHistogram, epsilon: float, re_threshold: float
) -> list[float]:
    """Expected exceedance count per bin at a relative-error threshold.

    Uses the right bin edge for the absolute threshold, a conservative choice
    (every count in the bin is at most the right edge, so the true exceedance
    probability is at least the one used here).
    """
    if not re_threshold > 0:
        raise DomainError(f"relative error threshold must be positive, got {re_threshold}")
    estimates = []
    for right, count in zip(hist.bin_edges[1:], hist.bin_counts):
        estimates.append(count * tail_prob(epsilon, re_threshold * right))
    return estimates


def read_areas_text(text: str) -> list[AreaRecord]:
    """Parse area_id,country,f,m,t rows; a bad row raises DomainError naming its line."""
    reader = csv.reader(text.splitlines())
    rows = [(reader.line_num, r) for r in reader if r and not r[0].startswith("#")]
    expected = ["area_id", "country", "f", "m", "t"]
    header = rows[0][1] if rows else "an empty file"
    if header != expected:
        raise DomainError(f"area CSV header must be {expected}, got {header}")
    areas = []
    for line, row in rows[1:]:
        try:
            area_id, country, f, m, t = row
            areas.append(AreaRecord(area_id=area_id, country=country, f=int(f), m=int(m), t=int(t)))
        except (ValueError, DomainError) as exc:
            raise DomainError(f"area CSV line {line}: {exc}") from exc
    return areas


def synthetic_areas(count: int, seed) -> list[AreaRecord]:
    """Log-uniform total counts on [1, 500], split by a fair binomial."""
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


def observations_histogram(
    areas: Sequence[AreaRecord], edges: Sequence[float]
) -> CountHistogram:
    """Histogram over all single observations (f, m and t separately), zeros excluded."""
    values = np.array([(a.f, a.m, a.t) for a in areas], dtype=np.int64).reshape(-1)
    # searchsorted "left" finds the bin i with edges[i] < v <= edges[i + 1] at i + 1
    bins = np.searchsorted(np.asarray(edges), values[values > 0], side="left") - 1
    nbins = max(len(edges) - 1, 0)
    counts = np.bincount(bins[(bins >= 0) & (bins < nbins)], minlength=nbins)
    return CountHistogram(bin_edges=tuple(edges), bin_counts=tuple(counts.tolist()))


@dataclass(frozen=True)
class DistortionTally:
    """Distortion counts at one relative-error threshold."""

    re_threshold: float
    single: int  # observations with |noise| / true > threshold (true > 0)
    broadband: int  # areas with f, m and t all beyond threshold, same sign
    zero_hits: int  # true-zero observations with nonzero noise (absolute)


def sample_distortions(
    areas: Sequence[AreaRecord],
    spec: NoiseSpec,
    seed,
    re_thresholds: Sequence[float],
) -> list[DistortionTally]:
    """Perturb f, m, t independently and tally threshold exceedances."""
    if not re_thresholds:
        raise DomainError("need at least one relative-error threshold")
    truth = np.array([[a.f, a.m, a.t] for a in areas], dtype=float)
    noise = np.asarray(
        sample_noise(spec, seed, truth.size), dtype=float
    ).reshape(truth.shape)
    positive = truth > 0
    with np.errstate(divide="ignore", invalid="ignore"):
        rel = np.where(positive, np.abs(noise) / np.where(positive, truth, 1.0), 0.0)
    tallies = []
    for threshold in re_thresholds:
        if not threshold > 0:
            raise DomainError(f"relative error threshold must be positive, got {threshold}")
        exceed = (rel > threshold) & positive
        same_sign = (np.all(noise > 0, axis=1)) | (np.all(noise < 0, axis=1))
        broadband = np.all(exceed, axis=1) & same_sign
        tallies.append(
            DistortionTally(
                re_threshold=float(threshold),
                single=int(exceed.sum()),
                broadband=int(broadband.sum()),
                zero_hits=int(((~positive) & (noise != 0)).sum()),
            )
        )
    return tallies


def dp_utility_eps(e_alpha: float, t_outputs: float, alpha: float) -> float:
    """Smallest per-count budget keeping all t counts within e_alpha at confidence alpha."""
    if not (e_alpha > 0 and t_outputs > 0):
        raise DomainError("bound and output count must be positive")
    if not 0.0 < alpha < 1.0:
        raise DomainError(f"alpha must lie in (0,1), got {alpha}")
    return math.log(t_outputs / (1.0 - alpha)) / e_alpha


# --- parameter-space grids ---------------------------------------------------


@dataclass
class ConstraintGrid:
    """Rectangular scan result: one dict of recorded values per grid cell."""

    columns: tuple[str, ...]
    cells: list[dict] = field(default_factory=list)


def scan_ve(
    v_values: Sequence[float],
    e_values: Sequence[int],
    m_avail: float,
    kt2: float | None = None,
    alpha: float = 0.68,
) -> ConstraintGrid:
    """Scan the bounded-noise (V, E) plane for bound-disclosure and averaging risk."""
    if not m_avail > 0:
        raise DomainError(f"m_avail must be positive, got {m_avail}")
    columns = [
        "V",
        "E",
        "feasible",
        "p1",
        "m_required",
        "reveal_prob",
        "e_disclosure_safe",
    ]
    if kt2 is not None:
        columns += ["alpha_averaging", "averaging_safe"]
    grid = ConstraintGrid(columns=tuple(columns))
    for v in v_values:
        for e in e_values:
            cell: dict = {"V": float(v), "E": int(e), "feasible": False}
            try:
                ptable = gen_ptable(v, e)
            except InfeasibleError:
                grid.cells.append(cell)
                continue
            cell["feasible"] = True
            p1 = float(p1_exact(ptable.probabilities, e))
            m_required = tuples_needed(p1, alpha)
            # expm1/log1p keep tiny p1 from rounding the reveal probability to 0
            reveal = -math.expm1(m_avail * math.log1p(-p1)) if 0.0 < p1 < 1.0 else p1
            cell.update(
                p1=p1,
                m_required=None if m_required == math.inf else int(m_required),
                reveal_prob=reveal,
                e_disclosure_safe=reveal < alpha,
            )
            if kt2 is not None:
                a_avg = averaging_success(v, kt2, 1.0, "Gaussian")
                cell.update(alpha_averaging=a_avg, averaging_safe=a_avg < alpha)
            grid.cells.append(cell)
    return grid


def scan_eps(
    eps_values: Sequence[float],
    kt2_values: Sequence[float],
    e_alpha: float,
    t_outputs: float,
    alpha: float = 0.68,
) -> ConstraintGrid:
    """Scan the per-count budget range against averaging and tail-utility limits.

    Per budget value the per-count variance is 2/eps^2; each supplied k/t^2
    gets a Gaussian averaging success probability and safety flag.  The
    conservative band requires every k/t^2 safe; the relaxed band drops the
    single most extreme (smallest) k/t^2.
    """
    if not kt2_values:
        raise DomainError("need at least one k/t^2 value")
    kt2_sorted = sorted(kt2_values)
    columns = ["eps", "V"]
    for i in range(len(kt2_sorted)):
        columns += [f"alpha_averaging_{i}", f"averaging_safe_{i}"]
    columns += [
        "eps_utility_min",
        "utility_ok",
        "band_conservative",
        "band_relaxed",
    ]
    grid = ConstraintGrid(columns=tuple(columns))
    eps_min = dp_utility_eps(e_alpha, t_outputs, alpha)
    for eps in eps_values:
        check_epsilon(eps)
        square = eps**2
        variance = 2.0 / square if square else math.inf  # a tiny eps squares to a subnormal or 0
        if variance == math.inf:
            raise DomainError(f"variance 2/eps^2 overflows at eps = {eps}")
        cell: dict = {"eps": float(eps), "V": variance}
        safes = []
        for i, kt2 in enumerate(kt2_sorted):
            a_avg = averaging_success(variance, kt2, 1.0, "Gaussian")
            safe = a_avg < alpha
            safes.append(safe)
            cell[f"alpha_averaging_{i}"] = a_avg
            cell[f"averaging_safe_{i}"] = safe
        utility_ok = eps >= eps_min
        cell.update(
            eps_utility_min=eps_min,
            utility_ok=utility_ok,
            band_conservative=all(safes) and utility_ok,
            band_relaxed=all(safes[1:]) and utility_ok,
        )
        grid.cells.append(cell)
    return grid
