"""Independent reference values for the benchmark's correctness gate.

Nothing in this module imports ``sdcnoise``.  Expected values come from the
programme JSON, the generated inputs, numpy and closed-form probabilities, so
that a defect in the library cannot hide by also living in its checker.

Three kinds of comparison are used:

* exact equality for counts, cell-key noise and IRR (t, k) sizes;
* agreement to 12 significant digits (relative 1e-12) for deterministic
  floats whose summation order a legitimate optimisation may change;
* a two-sided z test with ``|z| <= Z_BOUND`` against the analytic value for
  seeded random draws whose order a legitimate optimisation may change.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

# two-sided tail of N(0, 1) beyond 5 is 5.7e-7 per check
Z_BOUND = 5.0
REL_12 = 1e-12


class CheckFailed(Exception):
    """An output disagrees with its reference value."""

    kind = "wrong"


class ContractBroken(CheckFailed):
    """A CLI run broke the exit-code contract or printed a traceback."""

    kind = "contract"


def require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def close12(a: float, b: float) -> bool:
    """Agreement to 12 significant digits; values below 1e-300 count as equal.

    Below 1e-300 every probability the scans derive from the value is zero to
    double precision, and subnormal floats carry too few digits to compare.
    """
    if a is None or b is None:
        return a is b
    if max(abs(a), abs(b)) < 1e-300:
        return True
    return math.isclose(a, b, rel_tol=REL_12, abs_tol=0.0)


def z_check(observed: float, expected: float, variance: float, what: str) -> None:
    """Binomial / CLT z test of a sampled total against its analytic mean."""
    if variance <= 0.0:
        require(observed == expected, f"{what}: {observed} != exact {expected}")
        return
    z = (observed - expected) / math.sqrt(variance)
    require(
        abs(z) <= Z_BOUND,
        f"{what}: observed {observed} vs analytic {expected:.6g}, z = {z:.2f}",
    )


# --- programme catalog and tabulation -----------------------------------------


class Catalog:
    """A table programme read straight from its JSON document."""

    def __init__(self, document: dict):
        self.order = [b["id"] for b in document["breakdowns"]]
        self.categories = {b["id"]: tuple(b["categories"]) for b in document["breakdowns"]}
        self.index = {
            bid: {c: i for i, c in enumerate(cats)} for bid, cats in self.categories.items()
        }
        self.tables = [(t["id"], frozenset(t["breakdowns"])) for t in document["tables"]]

    def shape(self, ids) -> tuple[int, ...]:
        return tuple(len(self.categories[b]) for b in sorted(ids))

    def released(self) -> list[tuple[str, frozenset]]:
        """Every (table id, statistic) pair a full release publishes."""
        pairs = []
        for tid, tset in self.tables:
            ids = sorted(tset)
            for size in range(len(ids) + 1):
                pairs += [(tid, frozenset(c)) for c in itertools.combinations(ids, size)]
        return pairs

    def statistics(self) -> list[frozenset]:
        unique = {ids for _, ids in self.released()}
        return sorted(unique, key=lambda s: (len(s), tuple(sorted(s))))

    def cells(self, ids) -> list[tuple[str, ...]]:
        return list(itertools.product(*(self.categories[b] for b in sorted(ids))))

    def cube(self, ids, table) -> np.ndarray:
        """A {cell: value} table as an array over sorted(ids)."""
        keys = sorted(ids)
        out = np.full(self.shape(ids), np.nan)
        for cell, value in table.items():
            out[tuple(self.index[b][c] for b, c in zip(keys, cell))] = value
        return out

    def weight(self, summed, overrides=None) -> int:
        overrides = overrides or {}
        return math.prod(overrides.get(b, len(self.categories[b])) for b in summed)

    def irrs(self, ids, spsn: bool, overrides=None) -> list[tuple[frozenset, str | None, int]]:
        """(summed-out set, table id or None, k weight) of every IRR of ``ids``."""
        out, seen = [], set()
        for tid, tset in self.tables:
            if not ids <= tset:
                continue
            rest = sorted(tset - ids)
            for size in range(len(rest) + 1):
                for combo in itertools.combinations(rest, size):
                    summed = frozenset(combo)
                    if spsn and summed in seen:
                        continue
                    seen.add(summed)
                    out.append((summed, None if spsn else tid, self.weight(summed, overrides)))
        return out


def greedy_kt2(irrs):
    """The paper's greedy k/t^2 subset: ascending weight, stop at the first non-decrease."""
    ordered = sorted(irrs, key=lambda i: (i[2], tuple(sorted(i[0])), i[1] or ""))
    chosen, k = [ordered[0]], ordered[0][2]
    for irr in ordered[1:]:
        if (k + irr[2]) / (len(chosen) + 1) ** 2 >= k / len(chosen) ** 2:
            break
        chosen.append(irr)
        k += irr[2]
    return chosen


def label(ids) -> str:
    return "*".join(sorted(ids)) if ids else "total"


def ranking(catalog: Catalog, spsn: bool, overrides=None) -> list[tuple]:
    """(label, t, k, opt_t, opt_k) per statistic, riskiest first."""
    rows = []
    for ids in catalog.statistics():
        irrs = catalog.irrs(ids, spsn, overrides)
        opt = greedy_kt2(irrs)
        k, opt_k = sum(i[2] for i in irrs), sum(i[2] for i in opt)
        rows.append((label(ids), len(irrs), k, len(opt), opt_k))
    rows.sort(key=lambda r: (r[4] / r[3] ** 2, -r[1], r[0].split("*") if r[0] != "total" else []))
    return rows


def flat_codes(catalog: Catalog, codes: np.ndarray, ids) -> np.ndarray:
    """Row-major cell index of every record in the statistic over sorted(ids)."""
    keys = sorted(ids)
    if not keys:
        return np.zeros(codes.shape[0], dtype=np.int64)
    cols = [codes[:, catalog.order.index(b)] for b in keys]
    return np.ravel_multi_index(cols, catalog.shape(keys))


def exact_counts(catalog: Catalog, codes: np.ndarray, ids) -> np.ndarray:
    flat = flat_codes(catalog, codes, ids)
    size = math.prod(catalog.shape(ids))
    return np.bincount(flat, minlength=size).reshape(catalog.shape(ids))


def cell_key_noise(catalog, codes, ids, record_keys, cumulative, bound) -> np.ndarray:
    """Cell-key lookup noise: p-table quantile at the uint64 record-key sum / 2^64."""
    flat = flat_codes(catalog, codes, ids)
    sums = np.zeros(math.prod(catalog.shape(ids)), dtype=np.uint64)
    np.add.at(sums, flat, record_keys)  # wraps mod 2^64, like the fixed-point keys
    u = sums.astype(np.float64) / 2.0**64
    idx = np.minimum(np.searchsorted(cumulative, u, side="left"), 2 * bound)
    return (idx - bound).reshape(catalog.shape(ids))


def averaging_estimates(catalog: Catalog, cubes, ids, spsn: bool, optimize: bool):
    """Averaging-attack estimates for every cell of ``ids``, with the IRR (t, k).

    ``cubes`` maps (table id or None, statistic) to the released noisy array.
    """
    irrs = catalog.irrs(ids, spsn)
    if optimize:
        irrs = greedy_kt2(irrs)
    values = []
    for summed, tid, _ in irrs:
        full = sorted(ids | summed)
        axes = tuple(full.index(b) for b in sorted(summed))
        values.append(cubes[(tid, ids | summed)].sum(axis=axes))
    return np.mean(values, axis=0), len(irrs), sum(i[2] for i in irrs)


# --- noise distributions ------------------------------------------------------


def p1_triple(pmf, bound: int) -> float:
    """Pr[|x1 + x2 + x3| > 3(E - 1)] for iid draws from a pmf centred on zero."""
    p = np.asarray(pmf, dtype=float)
    triple = np.convolve(np.convolve(p, p), p)
    offset = 3 * (len(p) - 1) // 2
    far = np.abs(np.arange(triple.size) - offset) > 3 * (bound - 1)
    return float(triple[far].sum())


def sum_pmf(pmf, k: int) -> np.ndarray:
    """pmf of the sum of k iid draws on {-E..E}, by FFT; index s + k*E."""
    p = np.asarray(pmf, dtype=float)
    span = k * (p.size - 1) + 1
    size = 1 << (span - 1).bit_length()
    out = np.fft.irfft(np.fft.rfft(p, size) ** k, size)[:span]
    return np.clip(out, 0.0, None)


def averaging_success_exact(pmf, k: int, t: int, xi: float) -> float:
    """Pr[|sum of k draws| / t < xi], the exact success rate of ``averaging_mc``."""
    dist = sum_pmf(pmf, k)
    s = np.arange(dist.size) - k * (len(pmf) - 1) // 2
    return float(dist[np.abs(s) / t < xi].sum())


def tightest_delta(pmf: dict, epsilon: float) -> float:
    support = np.arange(min(pmf) - 1, max(pmf) + 2)
    p = np.array([pmf.get(int(x), 0.0) for x in support])
    factor = math.exp(epsilon)
    return max(
        float(np.maximum(0.0, p[1:] - factor * p[:-1]).sum()),
        float(np.maximum(0.0, p[:-1] - factor * p[1:]).sum()),
    )


class NoiseLaw:
    """Per-count noise law of a sdcnoise noise spec, for tail probabilities.

    ``kind`` is the spec class name; discrete laws carry their pmf on
    ``support``.  Laplace uses its closed-form tail.
    """

    def __init__(self, kind: str, epsilon=None, bound=None, ptable_probs=None):
        self.kind = kind
        self.epsilon = epsilon
        if kind == "Laplace":
            self.support = None
            return
        if kind == "CellKey":
            probs = np.asarray(ptable_probs, dtype=float)
            self.support = np.arange(-(probs.size // 2), probs.size // 2 + 1)
            self.pmf = probs
            return
        q = math.exp(-epsilon)
        cut = bound if kind == "TruncatedLaplace" else int(60 / epsilon)
        self.support = np.arange(-cut, cut + 1)
        w = q ** np.abs(self.support).astype(float)
        self.pmf = w / w.sum()

    def exceed_positive(self, truth: np.ndarray, threshold: float) -> np.ndarray:
        """Pr[noise / truth > threshold] per positive true count (noise positive)."""
        if self.support is None:
            return 0.5 * np.exp(-self.epsilon * threshold * truth)
        # the same float division the library applies to each draw
        hit = np.abs(self.support)[None, :] / truth[:, None] > threshold
        hit &= self.support[None, :] > 0
        return (hit * self.pmf[None, :]).sum(axis=1)

    def nonzero(self) -> float:
        if self.support is None:
            return 1.0
        return float(1.0 - self.pmf[self.support == 0].sum())


def distortion_expectations(law: NoiseLaw, truth: np.ndarray, threshold: float):
    """Mean and variance of the single, broadband and zero-hit tallies.

    ``truth`` has one row per area and columns f, m, t; draws are iid.
    """
    values, inverse = np.unique(truth, return_inverse=True)
    positive = values > 0
    up = np.zeros(values.size)
    up[positive] = law.exceed_positive(values[positive].astype(float), threshold)
    p_cell = up[inverse.reshape(truth.shape)]  # one-sided; positive truth only
    single = np.where(truth > 0, 2.0 * p_cell, 0.0)
    broad = 2.0 * np.prod(p_cell, axis=1)
    zeros = int((truth == 0).sum())
    nz = law.nonzero()
    return {
        "single": (single.sum(), (single * (1 - single)).sum()),
        "broadband": (broad.sum(), (broad * (1 - broad)).sum()),
        "zero_hits": (zeros * nz, zeros * nz * (1 - nz)),
    }


def histogram(values: np.ndarray, edges) -> np.ndarray:
    """Counts of positive values per right-closed bin (edge[i], edge[i+1]]."""
    v = values[values > 0]
    idx = np.searchsorted(np.asarray(edges), v, side="left") - 1
    inside = (idx >= 0) & (idx < len(edges) - 1)
    return np.bincount(idx[inside], minlength=len(edges) - 1)
