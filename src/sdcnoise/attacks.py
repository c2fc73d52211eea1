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
from .noise import CellKey, NoiseSpec, PTable, check_bound, sample_noise
from .redundancy import IRRStats, count_k_t, enumerate_irrs, optimize_kt2
from .tables import Cell, Microdata, StatisticKey, TableProgramme, enumerate_subtables
from .tables import encode, marginal, table_counts


def _recorded_seed(seed) -> int | None:
    """An integer seed, numpy's included, as the int a report records; any other seed as None."""
    return int(seed) if isinstance(seed, (int, np.integer)) else None


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
        seed=_recorded_seed(seed),
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
    check_bound(bound)
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
        seed=_recorded_seed(seed),
    )


# --- massive averaging -------------------------------------------------------


def averaging_success(variance: float, k: float, t: float, xi: float = 0.5) -> float:
    """Probability that the t-fold redundancy average pins the target within xi.

    Evaluates the normal model with summed-noise variance k*V/t^2 exactly.
    """
    if not (variance >= 0 and k > 0 and t > 0 and xi > 0):
        raise DomainError("V must be nonnegative and k, t, xi positive")
    if variance == 0:
        return 1.0
    return math.erf(xi / math.sqrt(2.0 * (k * variance / t**2)))


def averaging_mc(
    ptable: PTable, k: int, t: int, trials: int, seed, xi: float = 0.5
) -> AttackReport:
    """Sampled success rate of averaging t noise sums totalling k draws."""
    if k < t or t < 1 or trials < 1:
        raise DomainError("need k >= t >= 1 and positive trials")
    probability = averaging_success(ptable.variance(), k, t, xi)  # rejects xi before any draw
    rng = np.random.default_rng(seed)
    # trials per draw matrix, about 2**16 draws; a trial of more draws sums column blocks of 2**16
    successes, chunk, block = 0, max(1, 2**16 // k), min(k, 2**16)
    for done in range(0, trials, chunk):
        blocks = (rng.random((min(chunk, trials - done), min(block, k - c))) for c in range(0, k, block))
        # the mean of the t sums is the total over t, however the k draws split
        total = sum(ptable.quantile(u).sum(axis=1) for u in blocks)
        successes += int(np.count_nonzero(np.abs(total / t) < xi))
    return AttackReport(
        attack="Averaging",
        probability=probability,
        mc_trials=trials,
        mc_successes=successes,
        seed=_recorded_seed(seed),
    )


# --- programme-level noisy outputs and the full averaging attack -------------


OutputKey = tuple[str | None, frozenset[str]]


@dataclass(frozen=True)
class NoisyOutput:
    """A full static output release: noisy tabulations plus the hidden truth.

    ``tables`` maps (table id, statistic ids) to noisy cell values; with SPSN
    the table id slot is None because identical statistics share their noise.
    Cells are listed in row-major cube order, the order independent draws fill.
    :func:`averaging_estimates` reads them from ``cubes``, arrays over the
    sorted ids whose axes the programme's ``category_index`` indexes, and
    memoises into ``estimates`` the IRR sums both attack modes share and each
    estimate cube by ``(ids, optimize)``, read-only like every memoised array;
    :func:`run_averaging_attack` reads every target cell from its statistic's cube.
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
    SPSN every (table, statistic, cell) gets an independent draw.  Independent
    draws come from one generator per release, seeded by ``seed``, and fill each
    cube in turn in row-major order, the :meth:`TableProgramme.cells` order.

    Each table's finest cube is counted once and every statistic is a
    marginal of the first table holding it.  Record keys, 64-bit fractions of
    one, are summed the same way in uint64 cubes, which wrap as sums mod one do.
    """
    rng = np.random.default_rng(seed) if spec is not None else None  # exact releases ignore the seed
    cell_key = spsn and isinstance(spec, CellKey)
    record_keys = rng.integers(0, 2**64, size=data.n, dtype=np.uint64) if cell_key else None
    used = sorted({bid for table in programme.tables for bid in table.breakdowns})
    encode(programme, data, used)  # every column in one pass over the records
    exact_cubes, key_cubes = {}, {}
    for table in programme.tables:
        ids = tuple(sorted(table.breakdowns))
        flat, counts = table_counts(programme, data, ids)
        if cell_key:
            keys = np.zeros(counts.shape, dtype=np.uint64)
            np.add.at(keys.reshape(-1), flat, record_keys)  # a view: keys is contiguous
        for stat in (sub.breakdown_ids for sub in enumerate_subtables(table)):
            if stat not in exact_cubes:
                exact_cubes[stat] = marginal(counts, ids, stat)
                key_cubes[stat] = marginal(keys, ids, stat) if cell_key else None
    cubes = {}
    for key in [(None, ids) for ids in exact_cubes] if spsn else programme.released:
        cube = exact_cubes[key[1]]
        if spec is None:
            cubes[key] = cube
        elif cell_key:
            cubes[key] = cube + spec.ptable().quantile(key_cubes[key[1]] / 2.0**64)
        else:
            cubes[key] = cube + sample_noise(spec, rng, cube.size).reshape(cube.shape)
    tables = {key: dict(zip(_cell_index(programme, key[1]), cube.ravel().tolist())) for key, cube in cubes.items()}
    exact = {ids: dict(zip(_cell_index(programme, ids), cube.ravel().tolist())) for ids, cube in exact_cubes.items()}
    return NoisyOutput(spsn=spsn, tables=tables, exact=exact, cubes=cubes)


def _cell_index(programme: TableProgramme, ids: frozenset[str]) -> dict[Cell, tuple[int, str]]:
    """The statistic's row-major cells, each mapped to its (position, report label); once per programme."""
    if ids not in programme.plans:
        key = StatisticKey(ids)
        programme.plans[ids] = {c: (i, f"{key.label()}:{'/'.join(c)}") for i, c in enumerate(programme.cells(key))}
    return programme.plans[ids]


def _row_groups(groups: dict) -> tuple[dict, list[np.ndarray]]:
    """Blocks of index rows laid out by row length: each block's slice, and one read-only index per length.

    C-contiguous, as a gather keeps its index's layout and only C order reduces a row as a contiguous slice.
    """
    blocks, index, stop = {}, [], 0
    for _, group in sorted(groups.items()):
        for name, rows in group.items():
            blocks[name], stop = slice(stop, stop + len(rows)), stop + len(rows)
        index.append(np.ascontiguousarray(np.concatenate(list(group.values()))))
        index[-1].flags.writeable = False
    return blocks, index


def _gather_plan(programme: TableProgramme, spsn: bool, optimize: bool):
    """The averaging attack's two seed-free gather plans, each memoised on ``programme.plans``.

    Stage one, per SPSN flag, covers every IRR sum of the plain attack, whose
    IRRs hold those the optimized attack keeps: one row per cell of the sum's
    statistic, of indices into the noisy cubes concatenated in ``keys``
    order, summed-out cells last.  Stage two, per (SPSN, optimize), holds
    per cell one row of the places of its statistic's t IRR sums, and per
    statistic its cube shape, :class:`IRRStats` and block of the estimates.
    Shapes come from the cardinalities, never from a release.
    """
    if ("sums", spsn) not in programme.plans:
        sizes = {bid: b.cardinality for bid, b in programme.breakdowns.items()}
        stats = dict.fromkeys(stat for _, stat in programme.released)
        keys = [(None, stat) for stat in stats] if spsn else list(programme.released)
        offsets = dict(zip(keys, np.cumsum([0] + [math.prod(sizes[b] for b in key[1]) for key in keys]).tolist()))
        irrs, groups = {}, {}
        for ids in stats:
            irrs[ids] = enumerate_irrs(programme, StatisticKey(ids), spsn=spsn)
            for irr in irrs[ids]:
                key, order = (irr.table_id, ids | irr.summed_out), sorted(ids | irr.summed_out)
                cube = offsets[key] + np.arange(math.prod(sizes[b] for b in order)).reshape([sizes[b] for b in order])
                axes = np.argsort([bid in irr.summed_out for bid in order], kind="stable")  # summed-out axes last
                groups.setdefault(irr.k_weight, {})[(key, ids)] = cube.transpose(axes).reshape(-1, irr.k_weight)
        programme.plans[("sums", spsn)] = keys, irrs, *_row_groups(groups)
    keys, irrs, sums, sum_index = programme.plans[("sums", spsn)]
    if ("estimates", spsn, optimize) not in programme.plans:
        shapes, groups = {}, {}
        for ids, found in irrs.items():
            stats = optimize_kt2(found) if optimize else count_k_t(found)
            shapes[ids] = tuple(programme.breakdowns[bid].cardinality for bid in sorted(ids)), stats
            first = [sums[((irr.table_id, ids | irr.summed_out), ids)].start for irr in stats.irrs]
            groups.setdefault(stats.t, {})[ids] = np.add.outer(np.arange(math.prod(shapes[ids][0])), first)
        programme.plans[("estimates", spsn, optimize)] = shapes, *_row_groups(groups)
    return keys, irrs, sum_index, *programme.plans[("estimates", spsn, optimize)]


def averaging_estimates(
    programme: TableProgramme, output: NoisyOutput, ids: frozenset[str], optimize: bool = False
) -> tuple[np.ndarray, IRRStats]:
    """Averaging-attack estimates of every cell of the statistic ``ids``, with their IRRs.

    A release's first call per mode fills every statistic from the gather
    plans: one concatenation of the noisy cubes, a row sum per row length
    into the IRR sums both modes share (``"irr_sums"``), a row mean per IRR
    count.  Each read-only estimate cube over ``sorted(ids)`` is memoised on
    ``output.estimates`` by ``(ids, optimize)`` with its :class:`IRRStats`:
    an output answers for the programme it was released from.
    """
    if (ids, optimize) not in output.estimates:
        keys, irrs, sum_index, shapes, cells, mean_index = _gather_plan(programme, output.spsn, optimize)
        if ids not in irrs:
            enumerate_irrs(programme, StatisticKey(ids), spsn=output.spsn)  # names the unknown id or missing table
        if "irr_sums" not in output.estimates:
            flat = np.concatenate([output.cubes[key].ravel() for key in keys])
            output.estimates["irr_sums"] = np.concatenate([flat[index].sum(axis=-1) for index in sum_index])
            output.estimates["irr_sums"].flags.writeable = False
        estimates = np.concatenate([output.estimates["irr_sums"][index].mean(axis=-1) for index in mean_index])
        estimates.flags.writeable = False
        for stat, (shape, stats) in shapes.items():
            output.estimates[(stat, optimize)] = estimates[cells[stat]].reshape(shape), stats
    return output.estimates[(ids, optimize)]


def run_averaging_attack(
    programme: TableProgramme, output: NoisyOutput, target: StatisticKey, optimize: bool = False
) -> AttackReport:
    """Average all redundant representations of one target cell and round.

    The estimate is read at the target's row-major position from its
    statistic's :func:`averaging_estimates` cube, which raises as
    :func:`enumerate_irrs` for a statistic the release lacks; the position and
    report label come from the cell index in ``programme.plans``, the truth from ``exact``.
    """
    if target.cell is None:
        raise DomainError("averaging attack needs a fully specified target cell")
    ids = target.breakdown_ids
    estimates, stats = output.estimates.get((ids, optimize)) or averaging_estimates(programme, output, ids, optimize)
    try:
        position, label = _cell_index(programme, ids)[target.cell]
    except KeyError:
        programme.validate_key(target)  # names the value that is not a category
        raise
    estimate = estimates.item(position)
    recovered = round(estimate)
    truth = output.exact[ids][target.cell]
    entry = {"cell": label, "recovered": recovered, "true": truth, "estimate": estimate, "t": stats.t, "k": stats.k}
    return AttackReport(attack="Averaging", disclosed=[entry], mc_trials=1, mc_successes=int(recovered == truth))
