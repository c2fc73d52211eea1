"""Small-area utility tail analysis and risk/utility parameter scans.

The tail probability of unbounded per-count noise is folded with the
distribution of small-area counts to estimate how many published counts
exceed a relative error threshold (:func:`check_re_threshold` is its one
rule, run before any draw); sampled runs cross-check the estimates.
Small areas are held as one read-only (n, 3) int64 array of (f, m, t)
counts (``Areas``, the one count check), which both the histogram and the
sampled tallies read directly; a file's areas keep their ids, to name a bad one.
Two grid scans sweep the bounded-noise (V, E) plane (each E checked as a
bound before any cell) and the per-count privacy budget range, recording
every probability and feasibility flag per cell for heat-map plotting.

Only the functions that hold small areas or build p-tables import numpy, so
importing this module, the tail estimates and :func:`scan_eps` load no numpy.
"""

from __future__ import annotations

import csv
import math
import operator
from collections.abc import Iterator, Sequence
from dataclasses import KW_ONLY, InitVar, dataclass, field
from typing import TYPE_CHECKING

from .attacks import averaging_success, check_alpha, p1_exact, tuples_needed
from .errors import DomainError, InfeasibleError
from .noise import NoiseSpec, check_bound, check_epsilon, gen_ptable, laplace_variance, sample_noise

if TYPE_CHECKING:
    import numpy as np


class _AreaError(DomainError):
    """A DomainError about the area at ``row``, so a reader can name its input line."""

    def __init__(self, message: str, row: int):
        super().__init__(message)
        self.row = row


@dataclass(frozen=True, slots=True)
class AreaRecord:
    """The sex-split (f, m, t) population counts of one small area, as ``Areas`` checked them."""

    f: int
    m: int
    t: int


@dataclass(frozen=True, eq=False)
class Areas:
    """Small areas as one read-only (n, 3) int64 array of (f, m, t), plus the ids of a file's areas.

    The counts are copied and checked once, vectorised: f, m >= 0 and
    f + m = t in every row, the first bad area named in the DomainError by
    its id, or by its 0-based row when the areas have no ids (``area_ids``
    is None). ``copy=False`` keeps an (n, 3) int64 C-order array as it is and
    makes it read-only, for an array no one else holds (the library's readers
    pass their own). Iteration builds ``AreaRecord``s of the checked counts on
    the fly; there is no indexing or slicing, so read ``counts`` for that.
    """

    counts: np.ndarray
    area_ids: tuple[str, ...] | None = None
    _: KW_ONLY
    copy: InitVar[bool] = True

    def __post_init__(self, copy: bool):
        import numpy as np
        counts = (np.array if copy else np.asarray)(self.counts, order="C")
        if counts.dtype != np.int64 or counts.ndim != 2 or counts.shape[1] != 3:
            raise DomainError(f"area counts must be an (n, 3) int64 array, got {counts.dtype} {counts.shape}")
        n, ids = len(counts), self.area_ids
        if ids is not None:
            ids = tuple(ids)
            if len(ids) != n:
                raise DomainError(f"{n} areas need {n} ids, got {len(ids)}")
        f, m, t = counts.T
        # with f, m, t >= 0 an f + m that wraps in int64 is negative, so it cannot equal t
        bad = (f < 0) | (m < 0) | (t < 0) | (f + m != t)
        if bad.any():
            row = int(bad.argmax())
            where = f" at row {row}" if ids is None else f" {ids[row]!r}"
            f, m, t = counts[row].tolist()
            fault = f"negative count in area{where}" if f < 0 or m < 0 else f"area{where}: f + m = {f + m} != t = {t}"
            raise _AreaError(fault, row)
        counts.flags.writeable = False
        object.__setattr__(self, "counts", counts)
        object.__setattr__(self, "area_ids", ids)

    def __len__(self) -> int:
        return len(self.counts)

    def __iter__(self) -> Iterator[AreaRecord]:
        return map(AreaRecord, *self.counts.T.tolist())


@dataclass(frozen=True)
class CountHistogram:
    """Observation counts per (edge[i], edge[i+1]] bin."""

    bin_edges: tuple[float, ...]
    bin_counts: tuple[int, ...]

    def __post_init__(self):
        if len(self.bin_edges) != len(self.bin_counts) + 1:
            raise DomainError("need one more edge than bins")
        if not all(a < b for a, b in zip(self.bin_edges, self.bin_edges[1:])):
            raise DomainError("bin edges must be strictly ascending")
        if any(c < 0 for c in self.bin_counts):
            raise DomainError("bin counts must be nonnegative")


def tail_prob(epsilon: float, threshold: float) -> float:
    """Two-sided Laplace(1/eps) tail mass beyond magnitude ``threshold``: exp(-eps*E)."""
    check_epsilon(epsilon)
    if not threshold >= 0:
        raise DomainError(f"threshold must be nonnegative, got {threshold}")
    return math.exp(-epsilon * threshold)


def check_re_threshold(re_threshold: float) -> float:
    """``re_threshold`` if it is positive, else DomainError (NaN included): the one relative-error threshold check."""
    if not re_threshold > 0:
        raise DomainError(f"relative error threshold must be positive, got {re_threshold}")
    return re_threshold


def binned_distortion_estimate(
    hist: CountHistogram, epsilon: float, re_threshold: float
) -> list[float]:
    """Expected exceedance count per bin at a relative-error threshold.

    Uses the right bin edge for the absolute threshold, a conservative choice
    (every count in the bin is at most the right edge, so the true exceedance
    probability is at least the one used here).
    """
    check_re_threshold(re_threshold)
    estimates = []
    for right, count in zip(hist.bin_edges[1:], hist.bin_counts):
        estimates.append(count * tail_prob(epsilon, re_threshold * right))
    return estimates


def read_areas_text(text: str) -> Areas:
    """Parse area_id,country,f,m,t rows; a bad row raises DomainError naming its line.

    Each row's fields are parsed as it is read; the counts are then checked
    at once, as one int64 array, and a fault there also names its line.
    The country column is required but not kept.
    """
    reader = csv.reader(text.splitlines())
    rows = ((reader.line_num, r) for r in reader if r and not r[0].startswith("#"))
    expected = ["area_id", "country", "f", "m", "t"]
    header = next(rows, (0, "an empty file"))[1]
    if header != expected:
        raise DomainError(f"area CSV header must be {expected}, got {header}")
    lines, ids, values = [], [], []
    for line, row in rows:
        try:
            area_id, _country, f, m, t = row
            values.append((int(f), int(m), int(t)))
        except ValueError as exc:
            raise DomainError(f"area CSV line {line}: {exc}") from exc
        lines.append(line)
        ids.append(area_id)
    import numpy as np
    try:
        counts = np.array(values, dtype=np.int64).reshape(-1, 3)
    except OverflowError:
        limits = np.iinfo(np.int64)
        row = next(i for i, v in enumerate(values) if not all(limits.min <= c <= limits.max for c in v))
        raise DomainError(
            f"area CSV line {lines[row]}: area {ids[row]!r}: count does not fit a 64-bit integer"
        ) from None
    try:
        return Areas(counts, ids, copy=False)
    except _AreaError as exc:
        raise DomainError(f"area CSV line {lines[exc.row]}: {exc}") from exc


def synthetic_areas(count: int, seed) -> Areas:
    """Log-uniform total counts on [1, 500], split by a fair binomial; the areas have no ids."""
    try:
        count = operator.index(count)
    except TypeError:
        raise DomainError(f"area count must be an integer, got {count!r}") from None
    if count < 0:
        raise DomainError(f"area count must be nonnegative, got {count}")
    import numpy as np
    rng = np.random.default_rng(seed)
    totals = np.exp(rng.uniform(0.0, math.log(500), size=count)).astype(np.int64)
    totals = np.clip(totals, 1, 500)
    females = rng.binomial(totals, 0.5)
    return Areas(np.column_stack((females, totals - females, totals)), copy=False)


def observations_histogram(areas: Areas, edges: Sequence[float]) -> CountHistogram:
    """Histogram over all single observations (f, m and t separately), zeros excluded."""
    import numpy as np
    values = areas.counts.ravel()
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
    areas: Areas,
    spec: NoiseSpec,
    seed,
    re_thresholds: Sequence[float],
) -> list[DistortionTally]:
    """Perturb f, m, t independently and tally threshold exceedances.

    The noise is drawn in one call, f, m and t of each area in turn.
    """
    if len(re_thresholds) == 0:
        raise DomainError("need at least one relative-error threshold")
    thresholds = [check_re_threshold(x) for x in re_thresholds]
    import numpy as np
    truth = areas.counts
    noise = np.asarray(sample_noise(spec, seed, truth.size) if truth.size else (), dtype=float).reshape(truth.shape)
    positive = truth > 0
    with np.errstate(divide="ignore", invalid="ignore"):
        rel = np.where(positive, np.abs(noise) / np.where(positive, truth, 1.0), 0.0)
    same_sign = np.all(noise > 0, axis=1) | np.all(noise < 0, axis=1)  # neither term depends on the threshold
    zero_hits = int(((~positive) & (noise != 0)).sum())
    tallies = []
    for threshold in thresholds:
        exceed = (rel > threshold) & positive
        broadband = np.all(exceed, axis=1) & same_sign
        tallies.append(
            DistortionTally(
                re_threshold=float(threshold),
                single=int(exceed.sum()),
                broadband=int(broadband.sum()),
                zero_hits=zero_hits,
            )
        )
    return tallies


def dp_utility_eps(e_alpha: float, t_outputs: float, alpha: float) -> float:
    """Smallest per-count budget keeping all t counts within e_alpha at confidence alpha."""
    if not (e_alpha > 0 and t_outputs > 0):
        raise DomainError("bound and output count must be positive")
    check_alpha(alpha)
    return math.log(t_outputs / (1.0 - alpha)) / e_alpha


# --- parameter-space grids ---------------------------------------------------


@dataclass
class ConstraintGrid:
    """Rectangular scan result: one dict of recorded values per grid cell."""

    columns: tuple[str, ...]
    cells: list[dict] = field(default_factory=list)

    def rows(self) -> Iterator[list]:
        """Each cell's values in column order, ``None`` where the cell recorded none, one row at a time."""
        return ([cell.get(c) for c in self.columns] for cell in self.cells)


def scan_ve(
    v_values: Sequence[float],
    e_values: Sequence[int],
    m_avail: float,
    kt2: float | None = None,
    alpha: float = 0.68,
) -> ConstraintGrid:
    """Scan the (V, E) plane for bound-disclosure and averaging risk, every E checked as a bound before any cell."""
    if not m_avail > 0:
        raise DomainError(f"m_avail must be positive, got {m_avail}")
    check_alpha(alpha)
    if kt2 is not None and not kt2 > 0:
        raise DomainError(f"kt2 must be positive, got {kt2}")
    for e in e_values:
        check_bound(e)
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
                a_avg = averaging_success(v, kt2, 1.0)
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
        variance = laplace_variance(eps)
        cell: dict = {"eps": float(eps), "V": variance}
        safes = []
        for i, kt2 in enumerate(kt2_sorted):
            a_avg = averaging_success(variance, kt2, 1.0)
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
