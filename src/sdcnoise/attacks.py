"""Attack simulations on noisy count outputs.

Three attack classes are covered: disclosing the hard noise bound from
linearly constrained 3-tuples, exploiting margins once the bound is known,
and removing noise by averaging redundant representations.  Exact
probabilities come from discrete convolution; Monte Carlo harnesses are
seeded and reproducible.
"""

from __future__ import annotations

import json
import math
from collections.abc import Mapping, Sequence
from dataclasses import asdict, dataclass, field

import numpy as np

from .errors import DomainError
from .noise import CellKey, NoiseSpec, PTable, sample_noise
from .redundancy import IRRStats, count_k_t, enumerate_irrs, optimize_kt2
from .tables import Microdata, StatisticKey, TableProgramme, enumerate_subtables
from .tables import cube_index, encode, marginal


@dataclass
class AttackReport:
    """Outcome of one attack run, JSON-serializable for the audit trail."""

    attack: str
    probability: float | None = None
    m_required: int | None = None
    disclosed: list = field(default_factory=list)
    mc_trials: int = 0
    mc_successes: int = 0
    seed: int | None = None

    def __post_init__(self):
        if self.probability is not None and not 0.0 <= self.probability <= 1.0:
            raise DomainError(f"probability out of range: {self.probability}")
        if self.mc_successes > self.mc_trials:
            raise DomainError("successes cannot exceed trials")

    def to_json(self) -> str:
        return json.dumps(asdict(self), indent=2, sort_keys=True)


# --- bound disclosure --------------------------------------------------------


def _convolve(a: Sequence, b: Sequence) -> list:
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] = out[i + j] + x * y
    return out


def p1_exact(pmf: Sequence, bound: int):
    """Probability that one constrained 3-tuple pins the noise bound exactly.

    ``pmf`` is a symmetric finite pmf centered on zero (odd length); returns
    Pr[|x1 + x2 + x3| > 3*(bound - 1)] by exact triple convolution.  Fraction
    inputs stay exact.
    """
    probs = list(pmf)
    if len(probs) % 2 != 1:
        raise DomainError("pmf must have odd length (symmetric support around 0)")
    half = (len(probs) - 1) // 2
    if half > bound:
        outer = probs[: half - bound] + probs[half + bound + 1 :]
        if any(float(p) != 0.0 for p in outer):
            raise DomainError(f"pmf support exceeds the stated bound {bound}")
    triple = _convolve(_convolve(probs, probs), probs)
    offset = 3 * half
    threshold = 3 * (bound - 1)
    total = 0
    for idx, p in enumerate(triple):
        if abs(idx - offset) > threshold:
            total = total + p
    return total


def tuples_needed(p1: float, alpha: float) -> float:
    """Independent 3-tuples needed to pin the bound at confidence alpha.

    Returns the smallest integer m with 1 - (1 - p1)**m >= alpha.  Because m
    is rounded up, the coverage at m is at least alpha and may lie above it.
    Returns ``math.inf`` when p1 == 0 or so small (subnormal) that the count
    of tuples overflows, and 1 when p1 == 1.
    """
    if not 0.0 <= p1 <= 1.0:
        raise DomainError(f"p1 must lie in [0,1], got {p1}")
    if not 0.0 < alpha < 1.0:
        raise DomainError(f"alpha must lie in (0,1), got {alpha}")
    if p1 == 1.0:
        return 1
    # log1p keeps tiny p1 from flushing the denominator to zero
    tuples = math.log(1.0 - alpha) / math.log1p(-p1) if p1 > 0.0 else math.inf
    return math.ceil(tuples) if math.isfinite(tuples) else math.inf


def bound_disclosure_mc(ptable: PTable, m: int, streams: int, seed) -> AttackReport:
    """Fraction of streams of m noisy constrained 3-tuples (f, m, t = f + m) revealing the bound E.

    The attacker's running estimate max ceil(|f + m - t| / 3) reaches E
    exactly when some residual exceeds 3(E - 1) in magnitude.
    """
    if m < 1 or streams < 1:
        raise DomainError("stream length and count must be positive")
    rng = np.random.default_rng(seed)
    draws = ptable.quantile(rng.random((streams, m, 3)))
    residual = draws[:, :, 0] + draws[:, :, 1] - draws[:, :, 2]
    revealed = np.any(np.abs(residual) > 3 * (ptable.bound - 1), axis=1)
    return AttackReport(
        attack="BoundDisclosure",
        probability=float(p1_exact(ptable.probabilities, ptable.bound)),
        m_required=m,
        mc_trials=streams,
        mc_successes=int(revealed.sum()),
        seed=None if not isinstance(seed, int) else seed,
    )


# --- margin exploit ----------------------------------------------------------


def margin_exploit_scan(
    tuples: Sequence[Sequence[int]], bound: int
) -> list[tuple[int, tuple[int, ...]]]:
    """Flag constraint n-tuples carrying the unique all-extreme noise pattern.

    Each tuple lists n internal counts followed by their total.  A residual of
    exactly +-(n+1)*E can only arise with every internal at -+E and the total
    at +-E, so the true counts are recovered exactly: each internal shifted by
    -sign*E and the total by +sign*E.  Returns (index, recovered counts).
    """
    if bound < 1:
        raise DomainError(f"bound must be a positive integer, got {bound}")
    disclosures = []
    for idx, row in enumerate(tuples):
        if len(row) < 2:
            raise DomainError(f"tuple {idx} needs at least one internal count and a total")
        internals, total = list(row[:-1]), row[-1]
        residual = sum(internals) - total
        if abs(residual) == (len(internals) + 1) * bound:
            sign = 1 if residual > 0 else -1
            recovered = tuple(v - sign * bound for v in internals) + (total + sign * bound,)
            disclosures.append((idx, recovered))
    return disclosures


def margin_exploit_mc(ptable: PTable, count: int, seed) -> AttackReport:
    """Simulated scan of 3-tuples (f, m, f + m); disclosed entries carry recovered and true counts."""
    rng = np.random.default_rng(seed)
    true_internal = rng.integers(0, 50, size=(count, 2))
    true_total = true_internal.sum(axis=1)
    noise = ptable.quantile(rng.random((count, 3)))
    observed = np.column_stack([true_internal, true_total]) + noise
    found = margin_exploit_scan(observed.tolist(), ptable.bound)
    disclosed = [
        {
            "index": idx,
            "recovered": list(recovered),
            "true": [int(v) for v in true_internal[idx]] + [int(true_total[idx])],
        }
        for idx, recovered in found
    ]
    return AttackReport(
        attack="MarginExploit",
        disclosed=disclosed,
        mc_trials=count,
        mc_successes=len(found),
        seed=None if not isinstance(seed, int) else seed,
    )


# --- massive averaging -------------------------------------------------------


def averaging_success(
    variance: float, k: float, t: float, model: str = "Gaussian", xi: float = 0.5
) -> float:
    """Probability that the t-fold redundancy average pins the target within xi.

    ``ChebyshevLower`` gives the distribution-free lower bound
    max(0, 1 - k*V/(t^2 * xi^2)); ``Gaussian`` evaluates the normal model with
    summed-noise variance k*V/t^2 exactly.
    """
    if not (variance >= 0 and k > 0 and t > 0 and xi > 0):
        raise DomainError("V must be nonnegative and k, t, xi positive")
    if variance == 0:
        return 1.0
    avg_var = k * variance / t**2
    if model == "ChebyshevLower":
        return max(0.0, 1.0 - avg_var / xi**2)
    if model == "Gaussian":
        return math.erf(xi / math.sqrt(2.0 * avg_var))
    raise DomainError(f"unknown model {model!r}")


def averaging_mc(
    ptable: PTable, k: int, t: int, trials: int, seed, xi: float = 0.5
) -> AttackReport:
    """Sampled success rate of averaging t noise sums totalling k draws."""
    if k < t or t < 1 or trials < 1:
        raise DomainError("need k >= t >= 1 and positive trials")
    rng = np.random.default_rng(seed)
    successes, chunk = 0, max(1, 2**16 // k)  # trials per draw matrix, about 2**16 draws
    for done in range(0, trials, chunk):
        draws = ptable.quantile(rng.random((min(chunk, trials - done), k)))
        # the mean of the t sums is the total over t, however the k draws split
        successes += int(np.count_nonzero(np.abs(draws.sum(axis=1) / t) < xi))
    return AttackReport(
        attack="Averaging",
        probability=averaging_success(ptable.variance(), k, t, "Gaussian", xi),
        mc_trials=trials,
        mc_successes=successes,
        seed=None if not isinstance(seed, int) else seed,
    )


# --- programme-level noisy outputs and the full averaging attack -------------


OutputKey = tuple[str | None, frozenset[str]]


@dataclass(frozen=True)
class NoisyOutput:
    """A full static output release: noisy tabulations plus the hidden truth.

    ``tables`` maps (table id, statistic ids) to noisy cell values; with SPSN
    the table id slot is None because identical statistics share their noise.
    :func:`averaging_estimates` reads them from ``cubes``, arrays over the
    sorted ids whose axes the programme's ``category_index`` indexes, and
    memoises into ``estimates``.
    ``exact`` keeps the pre-noise tabulations per unique statistic for harness bookkeeping only.
    """

    spsn: bool
    tables: Mapping[OutputKey, Mapping[tuple, float]]
    exact: Mapping[frozenset, Mapping[tuple, int]]
    cubes: Mapping[OutputKey, np.ndarray] = field(default_factory=dict, compare=False, repr=False)
    estimates: dict = field(default_factory=dict, compare=False, repr=False)


def perturb_outputs(
    programme: TableProgramme,
    data: Microdata,
    spec: NoiseSpec | None,
    seed,
    spsn: bool = True,
) -> NoisyOutput:
    """Release every table of the programme with all its marginals, noised.

    ``spec=None`` releases exact counts.  With SPSN and a CellKey spec the
    noise is the genuine lookup mechanism driven by per-record keys; with SPSN
    and other specs one draw is reused per unique (statistic, cell).  Without
    SPSN every (table, statistic, cell) gets an independent draw, and the
    draws go to the cells in ``sorted(cells)`` order.

    Each table's finest cube is counted once and every statistic is a
    marginal of the first table holding it.  Record keys are summed the same
    way in uint64 cubes, which wrap mod 2**64 like :class:`RecordKey` sums.
    """
    rng = np.random.default_rng(seed) if spec is not None else None  # exact releases ignore the seed
    cell_key = spsn and isinstance(spec, CellKey)
    record_keys = rng.integers(0, 2**64, size=data.n, dtype=np.uint64) if cell_key else None
    codes = encode(programme, data, sorted({bid for table in programme.tables for bid in table.breakdowns}))
    exact_cubes, key_cubes = {}, {}
    for table in programme.tables:
        ids = tuple(sorted(table.breakdowns))
        flat, shape = cube_index(programme, codes, ids)
        counts = np.bincount(flat, minlength=math.prod(shape)).reshape(shape)
        if cell_key:
            keys = np.zeros(shape, dtype=np.uint64)
            np.add.at(keys.reshape(-1), flat, record_keys)  # a view: keys is contiguous
        for stat in (sub.breakdown_ids for sub in enumerate_subtables(table)):
            if stat not in exact_cubes:
                exact_cubes[stat] = marginal(counts, ids, stat)
                key_cubes[stat] = marginal(keys, ids, stat) if cell_key else None
    cells = {ids: programme.cells(StatisticKey(ids)) for ids in exact_cubes}
    exact = {ids: dict(zip(cells[ids], cube.ravel().tolist())) for ids, cube in exact_cubes.items()}
    ptable = spec.ptable() if cell_key else None
    tables, cubes, draw_orders = {}, {}, {}
    for key in [(None, ids) for ids in exact_cubes] if spsn else programme.released:
        ids, cube = key[1], exact_cubes[key[1]]
        if spec is None:
            tables[key], cubes[key] = dict(exact[ids]), cube
        elif cell_key:
            cubes[key] = cube + ptable.quantile(key_cubes[ids] / 2.0**64)
            tables[key] = dict(zip(cells[ids], cubes[key].ravel().tolist()))
        else:
            if ids not in draw_orders:
                order = sorted(range(cube.size), key=cells[ids].__getitem__)
                draw_orders[ids] = order, np.argsort(order), [cells[ids][i] for i in order]
            order, inverse, sorted_cells = draw_orders[ids]
            values = cube.ravel()[order] + sample_noise(spec, rng.integers(0, 2**63), cube.size)
            tables[key] = dict(zip(sorted_cells, values.tolist()))
            cubes[key] = values[inverse].reshape(cube.shape)
    return NoisyOutput(spsn=spsn, tables=tables, exact=exact, cubes=cubes)


def averaging_estimates(
    programme: TableProgramme, output: NoisyOutput, ids: frozenset[str], optimize: bool = False
) -> tuple[np.ndarray, IRRStats]:
    """Averaging-attack estimates of every cell of the statistic ``ids``, with their IRRs.

    Each chosen IRR's noisy cube is summed over its ``summed_out`` axes and
    the sums are averaged into one cube over ``sorted(ids)``.  The result is
    memoised on ``output.estimates`` by ``(ids, optimize)``: an output
    answers for the programme it was released from.
    """
    if (ids, optimize) not in output.estimates:
        irrs = enumerate_irrs(programme, StatisticKey(ids), spsn=output.spsn)
        stats = optimize_kt2(irrs) if optimize else count_k_t(irrs)
        sums = []
        for irr in stats.irrs:
            source = sorted(ids | irr.summed_out)
            axes = sorted(range(len(source)), key=lambda i: source[i] not in ids)
            # summed-out axes last and contiguous: each cell sums as its own slice would
            cube = np.ascontiguousarray(output.cubes[(irr.table_id, ids | irr.summed_out)].transpose(axes))
            sums.append(cube.reshape(cube.shape[: len(ids)] + (-1,)).sum(axis=-1))
        output.estimates[(ids, optimize)] = np.stack(sums, axis=-1).mean(axis=-1), stats
    return output.estimates[(ids, optimize)]


def run_averaging_attack(
    programme: TableProgramme,
    output: NoisyOutput,
    target: StatisticKey,
    optimize: bool = False,
) -> AttackReport:
    """Average all redundant representations of one target cell and round."""
    if target.cell is None:
        raise DomainError("averaging attack needs a fully specified target cell")
    estimates, stats = averaging_estimates(programme, output, target.breakdown_ids, optimize)
    try:
        index = tuple(programme.category_index[bid][value] for bid, value in zip(target.sorted_ids, target.cell))
    except KeyError:
        programme.validate_key(target)  # names the value that is not a category
        raise
    estimate = float(estimates[index])
    recovered = int(round(estimate))
    truth = output.exact[target.breakdown_ids][target.cell]
    return AttackReport(
        attack="Averaging",
        probability=None,
        disclosed=[
            {
                "cell": target.label() + ":" + "/".join(target.cell),
                "recovered": recovered,
                "true": int(truth),
                "estimate": estimate,
                "t": stats.t,
                "k": stats.k,
            }
        ],
        mc_trials=1,
        mc_successes=int(recovered == truth),
    )
