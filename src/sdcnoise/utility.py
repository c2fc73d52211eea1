"""Small-area utility tail analysis and risk/utility parameter scans.

The tail probability of unbounded per-count noise is folded with the
distribution of small-area counts to estimate how many published counts
exceed a relative error threshold; sampled runs cross-check the estimates.
Small areas are held as one read-only (n, 3) int64 array of (f, m, t)
counts (``Areas``), which both the histogram and the sampled tallies read
directly; a synthetic area's id and country are formatted from its row only
when read.
Two grid scans sweep the bounded-noise (V, E) plane and the per-count
privacy budget range, recording every probability and feasibility flag per
cell for external heat-map plotting.
"""

from __future__ import annotations

import csv
import math
import operator
from collections.abc import Iterator, Sequence
from dataclasses import dataclass, field

import numpy as np

from .attacks import averaging_success, p1_exact, tuples_needed
from .errors import DomainError, InfeasibleError
from .noise import NoiseSpec, check_epsilon, gen_ptable, laplace_variance, sample_noise


def _area_fault(area_id: str, f: int, m: int, t: int) -> str | None:
    """Why one area's counts are invalid, or None when f, m >= 0 and f + m = t."""
    if f < 0 or m < 0:
        return f"negative count in area {area_id!r}"
    if f + m != t:
        return f"area {area_id!r}: f + m = {f + m} != t = {t}"
    return None


class _AreaError(DomainError):
    """A DomainError about the area at ``row``, so a reader can name its input line."""

    def __init__(self, message: str, row: int):
        super().__init__(message)
        self.row = row


@dataclass(frozen=True, slots=True)
class AreaRecord:
    """One small administrative area with its sex-split population counts."""

    area_id: str
    country: str
    f: int
    m: int
    t: int

    def __post_init__(self):
        fault = _area_fault(self.area_id, self.f, self.m, self.t)
        if fault:
            raise DomainError(fault)


class _RowStrings(Sequence[str]):
    """Read-only strings whose item i is ``fmt.format(rows[i])``, formatted only when read."""

    __slots__ = ("fmt", "rows")

    def __init__(self, fmt: str, rows: range):
        self.fmt, self.rows = fmt, rows

    def __len__(self) -> int:
        return len(self.rows)

    def __getitem__(self, i: int | slice) -> str | _RowStrings:
        if isinstance(i, slice):
            return _RowStrings(self.fmt, self.rows[i])
        return self.fmt.format(self.rows[i])

    def __iter__(self) -> Iterator[str]:
        return map(self.fmt.format, self.rows)


@dataclass(frozen=True, eq=False)
class Areas(Sequence[AreaRecord]):
    """Small areas as one read-only (n, 3) int64 array of (f, m, t) plus ids and countries.

    The counts are copied and checked once, vectorised: f, m >= 0 and
    f + m = t in every row, the first bad area named in the DomainError.
    Ids and countries read from a file are tuples of its strings; those of
    synthetic areas are formatted from the row only when read.
    Indexing and iteration build ``AreaRecord``s on the fly; a slice is
    again ``Areas``. It is not a list: it compares equal only to itself,
    so compare ``list(areas)`` with a list of records.
    """

    counts: np.ndarray
    area_ids: Sequence[str]
    countries: Sequence[str]

    def __post_init__(self):
        counts = np.array(self.counts, order="C")
        if counts.dtype != np.int64 or counts.ndim != 2 or counts.shape[1] != 3:
            raise DomainError(f"area counts must be an (n, 3) int64 array, got {counts.dtype} {counts.shape}")
        n = len(counts)
        if len(self.area_ids) != n or len(self.countries) != n:
            raise DomainError(
                f"{n} areas need {n} ids and countries, got {len(self.area_ids)} and {len(self.countries)}"
            )
        f, m, t = counts.T
        # with f, m, t >= 0 an f + m that wraps in int64 is negative, so it cannot equal t
        bad = (f < 0) | (m < 0) | (t < 0) | (f + m != t)
        if bad.any():
            row = int(bad.argmax())
            raise _AreaError(_area_fault(self.area_ids[row], *counts[row].tolist()), row)
        counts.flags.writeable = False
        object.__setattr__(self, "counts", counts)
        for name in ("area_ids", "countries"):
            strings = getattr(self, name)
            if not isinstance(strings, _RowStrings):
                object.__setattr__(self, name, tuple(strings))

    def __len__(self) -> int:
        return len(self.area_ids)

    def __getitem__(self, i: int | slice) -> AreaRecord | Areas:
        if isinstance(i, slice):
            return Areas(self.counts[i], self.area_ids[i], self.countries[i])
        return AreaRecord(self.area_ids[i], self.countries[i], *self.counts[i].tolist())

    def __iter__(self) -> Iterator[AreaRecord]:
        return map(AreaRecord, self.area_ids, self.countries, *self.counts.T.tolist())


def _areas_from_rows(rows: list[tuple[str, str, int, int, int]]) -> Areas:
    """Areas from (area_id, country, f, m, t) rows; a fault names its row in an ``_AreaError``."""
    values = [row[2:] for row in rows]
    try:
        counts = np.array(values, dtype=np.int64).reshape(-1, 3)
    except OverflowError:
        limits = np.iinfo(np.int64)
        row = next(i for i, v in enumerate(values) if not all(limits.min <= c <= limits.max for c in v))
        raise _AreaError(f"area {rows[row][0]!r}: count does not fit a 64-bit integer", row) from None
    return Areas(counts, tuple(row[0] for row in rows), tuple(row[1] for row in rows))


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


def read_areas_text(text: str) -> Areas:
    """Parse area_id,country,f,m,t rows; a bad row raises DomainError naming its line.

    Each row's fields are parsed as it is read; the counts are then checked
    at once, as one int64 array, and a fault there also names its line.
    """
    reader = csv.reader(text.splitlines())
    rows = ((reader.line_num, r) for r in reader if r and not r[0].startswith("#"))
    expected = ["area_id", "country", "f", "m", "t"]
    header = next(rows, (0, "an empty file"))[1]
    if header != expected:
        raise DomainError(f"area CSV header must be {expected}, got {header}")
    lines, parsed = [], []
    for line, row in rows:
        try:
            area_id, country, f, m, t = row
            parsed.append((area_id, country, int(f), int(m), int(t)))
        except ValueError as exc:
            raise DomainError(f"area CSV line {line}: {exc}") from exc
        lines.append(line)
    try:
        return _areas_from_rows(parsed)
    except _AreaError as exc:
        raise DomainError(f"area CSV line {lines[exc.row]}: {exc}") from exc


def synthetic_areas(count: int, seed) -> Areas:
    """Log-uniform total counts on [1, 500], split by a fair binomial.

    Area i's id is ``A{i:05d}`` and its country ``SYN``, formatted only when read.
    """
    try:
        count = operator.index(count)
    except TypeError:
        raise DomainError(f"area count must be an integer, got {count!r}") from None
    if count < 0:
        raise DomainError(f"area count must be nonnegative, got {count}")
    rng = np.random.default_rng(seed)
    totals = np.exp(rng.uniform(0.0, math.log(500), size=count)).astype(np.int64)
    totals = np.clip(totals, 1, 500)
    females = rng.binomial(totals, 0.5)
    return Areas(
        np.column_stack((females, totals - females, totals)),
        _RowStrings("A{:05d}", range(count)),
        _RowStrings("SYN", range(count)),
    )


def observations_histogram(areas: Areas, edges: Sequence[float]) -> CountHistogram:
    """Histogram over all single observations (f, m and t separately), zeros excluded."""
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
    truth = areas.counts
    noise = np.asarray(sample_noise(spec, seed, truth.size) if truth.size else (), dtype=float).reshape(truth.shape)
    positive = truth > 0
    with np.errstate(divide="ignore", invalid="ignore"):
        rel = np.where(positive, np.abs(noise) / np.where(positive, truth, 1.0), 0.0)
    same_sign = np.all(noise > 0, axis=1) | np.all(noise < 0, axis=1)  # neither term depends on the threshold
    zero_hits = int(((~positive) & (noise != 0)).sum())
    tallies = []
    for threshold in re_thresholds:
        if not threshold > 0:
            raise DomainError(f"relative error threshold must be positive, got {threshold}")
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
    if not 0.0 < alpha < 1.0:
        raise DomainError(f"alpha must lie in (0,1), got {alpha}")
    if kt2 is not None and not kt2 > 0:
        raise DomainError(f"kt2 must be positive, got {kt2}")
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
