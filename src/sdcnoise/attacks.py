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
from .tables import Microdata, StatisticKey, TableProgramme, enumerate_subtables
from .tables import encode, table_counts

# The most uniforms a Monte Carlo harness draws at once: its memory stays
# bounded however many tuples, trials or draws per trial it simulates.
_BLOCK = 2**16


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
    exactly when some residual exceeds 3(E - 1) in magnitude.  The tuples are
    read from one draw stream in (stream, tuple) order, in blocks of at most
    ``_BLOCK`` draws, so memory holds one block and one flag per stream.
    """
    if m < 1 or streams < 1:
        raise DomainError("stream length and count must be positive")
    rng = np.random.default_rng(seed)
    revealed = np.zeros(streams, dtype=bool)
    tuples, rows = streams * m, _BLOCK // 3
    for start in range(0, tuples, rows):
        draws = ptable.quantile(rng.random((min(rows, tuples - start), 3)))
        hit = np.flatnonzero(np.abs(draws[:, 0] + draws[:, 1] - draws[:, 2]) > 3 * (ptable.bound - 1))
        revealed[(start + hit) // m] = True
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
    """Simulated scan of 3-tuples (f, m, f + m); disclosed entries carry recovered and true counts.

    All true counts are drawn first; the noise then comes from the same draw
    stream in blocks of at most ``_BLOCK`` draws, each block scanned in turn.
    """
    if count < 1:
        raise DomainError("tuple count must be positive")
    rng = np.random.default_rng(seed)
    true_internal = rng.integers(0, 50, size=(count, 2))
    true_total = true_internal.sum(axis=1)
    found, rows = [], _BLOCK // 3
    for start in range(0, count, rows):
        block = slice(start, start + rows)
        noise = ptable.quantile(rng.random((min(rows, count - start), 3)))
        observed = np.column_stack([true_internal[block], true_total[block]]) + noise
        found += [(start + idx, row) for idx, row in margin_exploit_scan(observed.tolist(), ptable.bound)]
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
    spread = math.sqrt(2.0 * (k * variance / t**2))
    # a spread below float resolution pins the target
    return math.erf(xi / spread) if spread > 0 else 1.0


def averaging_mc(
    ptable: PTable, k: int, t: int, trials: int, seed, xi: float = 0.5
) -> AttackReport:
    """Sampled success rate of averaging t noise sums totalling k draws.

    The trials' draws are read from one draw stream in blocks of at most
    ``_BLOCK`` draws: several trials a block, or a trial over several blocks.
    """
    if k < t or t < 1 or trials < 1:
        raise DomainError("need k >= t >= 1 and positive trials")
    probability = averaging_success(ptable.variance(), k, t, xi)  # rejects xi before any draw
    rng = np.random.default_rng(seed)
    # trials per draw matrix, about one block of draws; a trial of more draws sums column blocks
    successes, chunk, block = 0, max(1, _BLOCK // k), min(k, _BLOCK)
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
    memoises into ``estimates`` one entry per statistic and mode, from which
    :func:`run_averaging_attack` answers a target cell by its position.
    ``exact`` keeps each unique statistic's pre-noise counts, read by cell in
    any order: the truth :func:`run_averaging_attack` reports as ``true`` and
    counts its ``mc_successes`` against.  Each release holds its own copies
    of the dicts the microdata memoises.
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

    ``spec=None`` releases exact counts, as the read-only exact cubes the
    microdata memoises.  With SPSN and a CellKey spec the noise is the genuine
    lookup mechanism driven by per-record keys; with SPSN and other specs one
    draw is reused per unique (statistic, cell).  Without SPSN every (table,
    statistic, cell) gets an independent draw.  Independent draws come from
    one generator per release, seeded by ``seed``, and fill each cube in turn
    in row-major order, the :meth:`TableProgramme.cells` order.

    Every statistic is counted once per microdata, from the first table
    holding it, through the programme's seed-free release plan
    (:func:`_exact_statistics`).  A cell-key release sums the record keys,
    64-bit fractions of one, into each table's uint64 cube, gathers them
    through the same plan in uint64, which wraps as sums mod one do, and
    looks every cell key up in the p-table at once.
    """
    rng = np.random.default_rng(seed) if spec is not None else None  # exact releases ignore the seed
    _, offsets, shapes, sum_index, labels = _release_plan(programme)
    flats, counts, exact_cubes, exact_dicts = _exact_statistics(programme, data)
    if spsn and isinstance(spec, CellKey):
        record_keys = rng.integers(0, 2**64, size=data.n, dtype=np.uint64)
        keys = np.zeros(offsets[-1], dtype=np.uint64)
        for flat, start, stop in zip(flats, offsets, offsets[1:]):
            np.add.at(keys[start:stop], flat, record_keys)  # a view of the tables' one key vector
        key_sums = np.concatenate([keys[index].sum(axis=-1) for index in sum_index])
        noisy = counts + spec.ptable().quantile(key_sums / 2.0**64)
        cubes = {(None, ids): noisy[block].reshape(shape) for ids, (shape, block) in shapes.items()}
    else:
        cubes = {}
        for key in [(None, ids) for ids in shapes] if spsn else programme.released:
            cube = exact_cubes[key[1]]
            cubes[key] = cube if spec is None else cube + sample_noise(spec, rng, cube.size).reshape(cube.shape)
    tables = {key: dict(zip(labels[key[1]], cube.ravel().tolist())) for key, cube in cubes.items()}
    exact = {ids: dict(cells) for ids, cells in exact_dicts.items()}  # each release's own copies
    return NoisyOutput(spsn=spsn, tables=tables, exact=exact, cubes=cubes)


def _rows(sizes: Mapping[str, int], offset: int, ids: frozenset[str], summed_out: frozenset[str]) -> np.ndarray:
    """Flat indices of the cube over ``sorted(ids)`` stored from ``offset``, one row per cell of ``ids - summed_out``.

    Rows follow that statistic's row-major order; each row lists the cells summed into it.
    """
    order = sorted(ids)
    cube = offset + np.arange(math.prod(sizes[b] for b in order)).reshape([sizes[b] for b in order])
    axes = np.argsort([bid in summed_out for bid in order], kind="stable")  # summed-out axes last
    return cube.transpose(axes).reshape(-1, math.prod(sizes[b] for b in summed_out))


def _row_groups(groups: dict) -> tuple[dict, list[np.ndarray]]:
    """Blocks of index rows laid out by group key: each block's slice, and one read-only index per key.

    C-contiguous, as a gather keeps its index's layout and only C order reduces a row as a contiguous slice.
    """
    blocks, index, stop = {}, [], 0
    for _, group in sorted(groups.items()):
        for name, rows in group.items():
            blocks[name], stop = slice(stop, stop + len(rows)), stop + len(rows)
        index.append(np.ascontiguousarray(np.concatenate(list(group.values()))))
        index[-1].flags.writeable = False
    return blocks, index


def _release_plan(programme: TableProgramme):
    """Every statistic as rows of the tables' cubes: the release plan, memoised on ``programme.plans["release"]``.

    Each table that first holds some statistic gets its sorted ids and an
    offset in one vector of the tables' flat cubes; each statistic, in
    ``released`` order, gets its cube shape, a block of one vector of
    statistic cells and its label map, its cells in row-major order, each
    mapped to its (row-major position, report label).  A cell's row, from
    :func:`_rows`, lists the cells of the first table holding the statistic
    that sum to it.
    """
    if "release" not in programme.plans:
        sizes = {bid: b.cardinality for bid, b in programme.breakdowns.items()}
        tables, offsets, groups, stats, labels = [], [0], {}, {}, {}
        for table in programme.tables:
            new = [sub for sub in enumerate_subtables(table) if sub.breakdown_ids not in stats]
            for key in new:
                stat = key.breakdown_ids
                stats[stat] = tuple(sizes[bid] for bid in key.sorted_ids)
                labels[stat] = {c: (i, f"{key.label()}:{'/'.join(c)}") for i, c in enumerate(programme.cells(key))}
                rows = _rows(sizes, offsets[-1], table.breakdown_set, table.breakdown_set - stat)
                groups.setdefault(rows.shape[1], {})[stat] = rows
            if new:
                tables.append(tuple(sorted(table.breakdowns)))
                offsets.append(offsets[-1] + math.prod(sizes[bid] for bid in table.breakdowns))
        blocks, index = _row_groups(groups)
        shapes = {stat: (shape, blocks[stat]) for stat, shape in stats.items()}
        programme.plans["release"] = tables, offsets, shapes, index, labels
    return programme.plans["release"]


def _exact_statistics(programme: TableProgramme, data: Microdata):
    """The planned tables' record cells and every statistic's exact counts, once per microdata.

    Memoised on ``data.codes`` next to the table count cubes, by the planned
    tables' ids and category orders: the record cells of each table, one
    read-only vector of every statistic's counts in the release plan's
    layout, each statistic's cube (a view of it) and its cell dict.
    """
    tables, _, shapes, sum_index, labels = _release_plan(programme)
    key = ("exact", tuple(tuple((bid, programme.breakdowns[bid].categories) for bid in ids) for ids in tables))
    if key not in data.codes:
        encode(programme, data, sorted({bid for ids in tables for bid in ids}))  # every column in one pass
        flats, counts = zip(*(table_counts(programme, data, ids) for ids in tables))
        cells = np.concatenate([cube.ravel() for cube in counts])
        exact = np.concatenate([cells[index].sum(axis=-1) for index in sum_index])
        exact.flags.writeable = False
        cubes = {ids: exact[block].reshape(shape) for ids, (shape, block) in shapes.items()}
        dicts = {ids: dict(zip(labels[ids], cube.ravel().tolist())) for ids, cube in cubes.items()}
        data.codes[key] = flats, exact, cubes, dicts
    return data.codes[key]


def _attack_plan(programme: TableProgramme, spsn: bool, optimize: bool):
    """The averaging attack's seed-free plan, memoised on ``programme.plans[(spsn, optimize)]``.

    Each statistic's IRRs are enumerated and chosen (:func:`count_k_t`, or
    :func:`optimize_kt2` when ``optimize``).  Per cell of a statistic one row
    lists the k indices, into the noisy cubes concatenated in ``keys`` order,
    that its t chosen IRRs sum: their :func:`_rows` rows side by side.  Rows
    are grouped by the statistic's (k, t); per statistic the plan holds its
    cube shape, :class:`IRRStats` and block of the estimates.  Shapes come
    from the cardinalities, never from a release.
    """
    if (spsn, optimize) not in programme.plans:
        sizes = {bid: b.cardinality for bid, b in programme.breakdowns.items()}
        stats = dict.fromkeys(stat for _, stat in programme.released)
        keys = [(None, stat) for stat in stats] if spsn else list(programme.released)
        offsets = dict(zip(keys, np.cumsum([0] + [math.prod(sizes[b] for b in key[1]) for key in keys]).tolist()))
        rows, shapes = {}, {}
        for ids in stats:
            found = enumerate_irrs(programme, StatisticKey(ids), spsn=spsn)
            chosen = optimize_kt2(found) if optimize else count_k_t(found)
            sources = [((irr.table_id, ids | irr.summed_out), irr.summed_out) for irr in chosen.irrs]
            rows.setdefault((chosen.k, chosen.t), {})[ids] = np.concatenate(
                [_rows(sizes, offsets[key], key[1], summed_out) for key, summed_out in sources], axis=1
            )
            shapes[ids] = tuple(sizes[bid] for bid in sorted(ids)), chosen
        blocks, index = _row_groups(rows)
        programme.plans[(spsn, optimize)] = keys, shapes, blocks, list(zip(sorted(rows), index))
    return programme.plans[(spsn, optimize)]


def averaging_estimates(
    programme: TableProgramme, output: NoisyOutput, ids: frozenset[str], optimize: bool = False
) -> tuple[np.ndarray, IRRStats]:
    """Averaging-attack estimates of every cell of the statistic ``ids``, with their IRRs.

    A release's first call per mode fills every statistic from the mode's
    attack plan: one concatenation of the noisy cubes, then per (k, t) group
    one gather of each cell's k IRR cells, their row sum over t.  Each
    statistic gets one entry on ``output.estimates`` by ``(ids, optimize)``:
    its read-only estimate cube over ``sorted(ids)`` with its
    :class:`IRRStats`, which every call returns as the same object; its
    slice of the mode's one ``tolist`` of estimates, in row-major order; and,
    for :func:`run_averaging_attack`, its label map from the release plan and
    its dict in ``output.exact``.  An output answers for the programme it was
    released from.
    """
    if (ids, optimize) not in output.estimates:
        keys, shapes, cells, groups = _attack_plan(programme, output.spsn, optimize)
        if ids not in shapes:
            enumerate_irrs(programme, StatisticKey(ids), spsn=output.spsn)  # names the unknown id or missing table
        flat = np.concatenate([output.cubes[key].ravel() for key in keys])
        estimates = np.concatenate([flat[rows].sum(axis=-1) / t for (_, t), rows in groups])
        estimates.flags.writeable = False
        values, labels = estimates.tolist(), _release_plan(programme)[-1]
        for stat, (shape, stats) in shapes.items():
            cube = estimates[cells[stat]].reshape(shape)
            output.estimates[(stat, optimize)] = (cube, stats), values[cells[stat]], labels[stat], output.exact[stat]
    return output.estimates[(ids, optimize)][0]


def run_averaging_attack(
    programme: TableProgramme, output: NoisyOutput, target: StatisticKey, optimize: bool = False
) -> AttackReport:
    """Average all redundant representations of one target cell and round.

    The statistic's entry, which :func:`averaging_estimates` fills (raising
    as :func:`enumerate_irrs` for a statistic the release lacks), gives the
    target's label and row-major position.  The estimate at that position is
    rounded half to even to a Python int and compared with the truth, which
    the exact dict holds by cell, not by position.
    """
    if target.cell is None:
        raise DomainError("averaging attack needs a fully specified target cell")
    ids = target.breakdown_ids
    try:
        (_, stats), values, labels, exact = output.estimates[(ids, optimize)]
    except KeyError:
        averaging_estimates(programme, output, ids, optimize)
        (_, stats), values, labels, exact = output.estimates[(ids, optimize)]
    try:
        position, label = labels[target.cell]
    except KeyError:
        programme.validate_key(target)  # names the value that is not a category
        raise
    estimate = values[position]
    recovered, true = round(estimate), exact[target.cell]
    entry = {"cell": label, "recovered": recovered, "true": true, "estimate": estimate, "t": stats.t, "k": stats.k}
    return AttackReport("Averaging", None, None, [entry], 1, int(recovered == true))
