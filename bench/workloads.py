"""The benchmark's four workloads: inputs, operations and correctness checks.

Each workload class is built in two steps.  ``__init__`` is the timed set-up
(``setup_s``): it parses the programme with the library and generates the
workload's inputs from the seed.  ``prepare`` then computes the untimed
reference values the checks compare against.  ``ops(pass_index)`` returns
the operations of one pass as ``Op`` records; an operation fails when its
call raises or its ``check`` raises ``CheckFailed``.

The library is reached through module attributes at call time (never
through names bound here), so the traced run's wrappers see every call.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import math
import os
import selectors
import subprocess
import sys
from collections.abc import Callable
from dataclasses import dataclass
from importlib import resources

import numpy as np

import refs
from refs import ContractBroken, close12, require, z_check
from sdcnoise import accounting, attacks, cli, noise, redundancy, tables, utility

HERE = os.path.dirname(os.path.abspath(__file__))
DATA = os.path.join(HERE, "data")

ALPHA = 0.68
M_AVAIL = 2.8e7
KT2 = 0.1
RELEASE_N = {"full": 20_000, "smoke": 400}
AREAS_N = {"full": 100_000, "smoke": 2_000}
MC_TUPLES = {"full": 100_000, "smoke": 10_000}
AVG_TRIALS = {"full": 1000, "smoke": 100}


@dataclass
class Op:
    label: str
    call: Callable[[], object]
    check: Callable[[object], None]


def programme_text(name: str = "desk_programme.json") -> str:
    return resources.files("sdcnoise.data").joinpath(name).read_text(encoding="utf-8")


def op_seed(seed: int, *index: int) -> int:
    return int(np.random.SeedSequence([seed, *index]).generate_state(1)[0])


def check_ptable(probs, variance: float, bound: int) -> None:
    """Normalised, symmetric, on {-E..E}, variance V, and of the max-entropy form."""
    p = np.asarray(probs, dtype=float)
    j = np.arange(-bound, bound + 1)
    require(p.shape == j.shape, f"p-table has {p.size} entries, want {j.size}")
    symmetric = np.allclose(p, p[::-1], rtol=0, atol=1e-15)
    require(abs(p.sum() - 1.0) <= 1e-12 and symmetric, "p-table not a symmetric pmf")
    require(abs(float((j**2 * p).sum()) - variance) <= 1e-9, f"p-table variance != {variance}")
    # p_j proportional to exp(-lambda j^2): log(p_0 / p_j) / j^2 is one constant
    lam = np.log(p[bound] / p[bound + 1 :]) / j[bound + 1 :] ** 2
    require(np.allclose(lam, lam[0], rtol=1e-6, atol=1e-9), "p-table is not of max-entropy form")


# --- release workloads ------------------------------------------------------


class Release:
    """Full release of the desk programme over synthetic microdata, then the
    averaging attack on every cell of every statistic."""

    bound = 5

    def __init__(self, seed: int, scale: str, cell_key: bool):
        self.seed, self.cell_key = seed, cell_key
        text = programme_text()
        self.programme = tables.parse_programme(text)
        self.catalog = refs.Catalog(json.loads(text))
        rng = np.random.default_rng(seed)
        n = RELEASE_N[scale]
        columns = []
        for bid in self.catalog.order:
            size = len(self.catalog.categories[bid])
            weights = 0.5 ** np.arange(size)  # fixed unequal weights: small cells occur
            columns.append(rng.choice(size, size=n, p=weights / weights.sum()))
        self.codes = np.column_stack(columns)
        values = [
            np.array(self.catalog.categories[bid], dtype=object)[col].tolist()
            for bid, col in zip(self.catalog.order, columns)
        ]
        self.data = tables.Microdata(columns=tuple(self.catalog.order), records=tuple(zip(*values)))
        self.spec = noise.CellKey(variance=2.0, bound=self.bound) if cell_key else noise.Laplace(epsilon=0.5)
        self.stats = self.catalog.statistics()
        self.targets = [
            (ids, i, tables.StatisticKey(ids, cell))
            for ids in self.stats
            for i, cell in enumerate(self.catalog.cells(ids))
        ]

    def prepare(self) -> None:
        self.exact = {ids: refs.exact_counts(self.catalog, self.codes, ids) for ids in self.stats}
        if self.cell_key:
            self.cumulative = np.cumsum(self.spec.ptable().probabilities)
            check_ptable(self.spec.ptable().probabilities, self.spec.variance, self.bound)

    def ops(self, pass_index: int) -> list[Op]:
        seed = op_seed(self.seed, pass_index)
        label = "release_cellkey" if self.cell_key else "release_independent"
        return [Op(label, lambda: self.run(seed), lambda result: self.check(result, seed))]

    def run(self, seed: int):
        output = attacks.perturb_outputs(self.programme, self.data, self.spec, seed, spsn=self.cell_key)
        plain = [attacks.run_averaging_attack(self.programme, output, key) for _, _, key in self.targets]
        if self.cell_key:
            return output, plain, None
        optimized = [
            attacks.run_averaging_attack(self.programme, output, key, optimize=True)
            for _, _, key in self.targets
        ]
        return output, plain, optimized

    def check(self, result, seed: int) -> None:
        output, plain, optimized = result
        require(output.spsn == self.cell_key, "release has the wrong SPSN flag")
        require(set(output.exact) == set(self.stats), "exact tabulations miss statistics")
        for ids in self.stats:
            got = self.catalog.cube(ids, output.exact[ids])
            require(np.array_equal(got, self.exact[ids]), f"exact tabulation of {refs.label(ids)} != bincount")
        if self.cell_key:
            want = {(None, ids) for ids in self.stats}
        else:
            want = set(self.catalog.released())
        require(set(output.tables) == want, "released tables differ from the programme")
        cubes = {key: self.catalog.cube(key[1], table) for key, table in output.tables.items()}
        if self.cell_key:
            self.check_cell_keys(cubes, seed)
        else:
            self.check_laplace(cubes)
        self.check_attack(cubes, plain, optimize=False)
        if optimized is not None:
            self.check_attack(cubes, optimized, optimize=True)

    def check_cell_keys(self, cubes, seed: int) -> None:
        record_keys = np.random.default_rng(seed).integers(0, 2**64, size=self.codes.shape[0], dtype=np.uint64)
        for ids in self.stats:
            got = cubes[(None, ids)]
            require(np.all(np.abs(got - self.exact[ids]) <= self.bound), f"{refs.label(ids)}: noise beyond +-E")
            want = self.exact[ids] + refs.cell_key_noise(
                self.catalog, self.codes, ids, record_keys, self.cumulative, self.bound
            )
            require(np.array_equal(got, want), f"{refs.label(ids)}: cell-key noise differs from the reference")
        self.digest = release_digest(self.stats, cubes)

    def check_laplace(self, cubes) -> None:
        draws = np.concatenate([(cube - self.exact[key[1]]).ravel() for key, cube in cubes.items()])
        b = 1.0 / self.spec.epsilon  # Laplace scale: E x^2 = 2b^2, E x^4 = 24b^4
        z_check(draws.sum(), 0.0, draws.size * 2 * b**2, "Laplace noise sum")
        z_check((draws**2).sum(), draws.size * 2 * b**2, draws.size * 20 * b**4, "Laplace noise sum of squares")

    def check_attack(self, cubes, reports, optimize: bool) -> None:
        require(len(reports) == len(self.targets), "attack reports missing")
        reference = {
            ids: refs.averaging_estimates(self.catalog, cubes, ids, self.cell_key, optimize) for ids in self.stats
        }
        for (ids, i, _), report in zip(self.targets, reports):
            estimates, t, k = reference[ids]
            entry = report.disclosed[0]
            truth = int(self.exact[ids].ravel()[i])
            want = float(estimates.ravel()[i])
            cell = entry["cell"]
            require((entry["t"], entry["k"]) == (t, k), f"{cell}: IRR (t, k) = {entry['t'], entry['k']}, want {t, k}")
            require(
                math.isclose(entry["estimate"], want, rel_tol=1e-9, abs_tol=1e-9),
                f"{cell}: estimate {entry['estimate']} != {want}",
            )
            require(
                entry["true"] == truth and entry["recovered"] == round(entry["estimate"]),
                f"{cell}: inconsistent report",
            )
            require(report.mc_successes == int(entry["recovered"] == truth), f"{cell}: wrong success flag")


def release_digest(stats, cubes) -> str:
    """SHA-256 of every noisy cell of a SPSN release, statistics in catalog order."""
    h = hashlib.sha256()
    for ids in stats:
        h.update(refs.label(ids).encode())
        h.update(np.ascontiguousarray(cubes[(None, ids)], dtype=np.int64).tobytes())
    return h.hexdigest()


# --- risk grid ----------------------------------------------------------------


def check_scan_cell(cell: dict, p1_ref: dict, m_avail: float, kt2, alpha: float) -> None:
    """One (V, E) scan cell against the seed commit's p1 and closed forms.

    ``reveal_prob`` may follow either 1-(1-p1)^m (the seed commit) or the
    accurate -expm1(m log1p(-p1)); ``m_required`` is None when the count of
    tuples is not a finite float.
    """
    v, e = float(cell["V"]), int(cell["E"])
    feasible = v <= e * (e + 1) / 3 + 1e-12
    require(bool(cell["feasible"]) == feasible, f"({v}, {e}): feasible flag wrong")
    if not feasible:
        return
    p1 = cell["p1"]
    require(close12(p1, p1_ref[f"{v!r},{e}"]), f"({v}, {e}): p1 {p1} != {p1_ref[f'{v!r},{e}']}")
    m = None
    if p1 >= 1.0:
        m = 1
    elif p1 > 0.0:
        tuples = math.log(1.0 - alpha) / math.log1p(-p1)
        m = math.ceil(tuples) if math.isfinite(tuples) else None
    require(cell["m_required"] == m, f"({v}, {e}): m_required {cell['m_required']} != {m}")
    seed_reveal = 1.0 - (1.0 - p1) ** m_avail if p1 > 0 else 0.0
    accurate = -math.expm1(m_avail * math.log1p(-p1)) if p1 < 1 else 1.0
    reveal = cell["reveal_prob"]
    require(close12(reveal, seed_reveal) or close12(reveal, accurate), f"({v}, {e}): reveal_prob {reveal}")
    require(bool(cell["e_disclosure_safe"]) == (reveal < alpha), f"({v}, {e}): e_disclosure_safe wrong")
    if kt2 is not None:
        a_avg = math.erf(0.5 / math.sqrt(2.0 * kt2 * v))
        require(close12(cell["alpha_averaging"], a_avg), f"({v}, {e}): alpha_averaging wrong")
        require(bool(cell["averaging_safe"]) == (a_avg < alpha), f"({v}, {e}): averaging_safe wrong")


def check_eps_cell(cell: dict, kt2_values, e_alpha: float, t_outputs: float, alpha: float) -> None:
    eps = float(cell["eps"])
    variance = 2.0 / eps**2
    require(close12(cell["V"], variance), f"eps {eps}: V wrong")
    eps_min = math.log(t_outputs / (1.0 - alpha)) / e_alpha
    require(close12(cell["eps_utility_min"], eps_min), f"eps {eps}: eps_utility_min wrong")
    utility_ok = eps >= eps_min
    safes = []
    for i, kt2 in enumerate(sorted(kt2_values)):
        a_avg = math.erf(0.5 / math.sqrt(2.0 * kt2 * variance))
        require(close12(cell[f"alpha_averaging_{i}"], a_avg), f"eps {eps}: alpha_averaging_{i} wrong")
        safes.append(a_avg < alpha)
        if abs(a_avg - alpha) > 1e-9:  # a flag exactly at the boundary may go either way
            require(bool(cell[f"averaging_safe_{i}"]) == safes[-1], f"eps {eps}: averaging_safe_{i} wrong")
    require(bool(cell["utility_ok"]) == utility_ok, f"eps {eps}: utility_ok wrong")
    flags = [bool(cell[f"averaging_safe_{i}"]) for i in range(len(safes))]
    require(bool(cell["band_conservative"]) == (all(flags) and utility_ok), f"eps {eps}: band_conservative wrong")
    require(bool(cell["band_relaxed"]) == (all(flags[1:]) and utility_ok), f"eps {eps}: band_relaxed wrong")


def check_ranking(rows, catalog, spsn: bool, overrides=None) -> None:
    """Rows of (label, t, k, opt_t, opt_k) in the library's order."""
    want = refs.ranking(catalog, spsn, overrides)
    require(list(rows) == want, f"ranking (spsn={spsn}, overrides={overrides}) differs from the reference")


def check_tallies(tallies, law, truth, thresholds) -> None:
    require([t[0] for t in tallies] == list(thresholds), "tally thresholds differ")
    for threshold, *observed in tallies:
        expected = refs.distortion_expectations(law, truth, threshold)
        for name, value in zip(("single", "broadband", "zero_hits"), observed):
            mean, var = expected[name]
            z_check(value, mean, var, f"{law.kind} {name} at re={threshold}")


def check_histogram(bins, truth, edges, epsilon: float, re_threshold: float) -> None:
    """(observations, expected_exceed) per bin against numpy."""
    counts = refs.histogram(truth.ravel(), edges)
    require([b[0] for b in bins] == counts.tolist(), "histogram counts differ")
    for (count, estimate), right in zip(bins, edges[1:]):
        require(close12(estimate, count * math.exp(-epsilon * re_threshold * right)), "distortion estimate wrong")


class RiskGrid:
    """Single library calls over the risk planes; no microdata."""

    rankings = [(True, None), (False, None), (True, {"GEO.M": 429})]

    def __init__(self, seed: int, scale: str):
        self.seed = seed
        text = programme_text()
        self.programme = tables.parse_programme(text)
        self.catalog = refs.Catalog(json.loads(text))
        if scale == "full":
            self.v_values = [0.25 * i for i in range(1, 81)]
            self.e_values = list(range(1, 41))
            self.eps_values = [round(1e-4 * i, 12) for i in range(1, 20_001)]
        else:
            self.v_values, self.e_values = [1.0, 1.25, 2.0], [1, 2, 25, 32]
            self.eps_values = [round(0.01 * i, 12) for i in range(1, 201)]
        self.kt2_values = [0.0118, 0.112]
        self.areas = utility.synthetic_areas(AREAS_N[scale], seed)
        self.avg_ptable = noise.gen_ptable(2.0, 10)
        self.uniform = noise.gen_ptable(noise.uniform_max_variance(2), 2)
        self.specs = [
            noise.Laplace(epsilon=0.1),
            noise.TwoTailedGeometric(epsilon=0.1),
            noise.TruncatedLaplace(epsilon=0.1, bound=20),
            noise.CellKey(variance=2.0, bound=5),
        ]
        self.delta_pmfs = [
            (noise.gen_ptable(2.0, 5).as_pmf(), 1.0),
            (noise.gen_ptable(1.0, 3).as_pmf(), 0.5),
            (self.uniform.as_pmf(), 1.0),
        ]
        self.mc_tuples, self.trials = MC_TUPLES[scale], AVG_TRIALS[scale]

    def prepare(self) -> None:
        with open(os.path.join(DATA, "scan_ve_p1.json"), encoding="utf-8") as fh:
            self.p1_ref = json.load(fh)["p1"]
        self.truth = np.array([[a.f, a.m, a.t] for a in self.areas])
        check_ptable(self.avg_ptable.probabilities, 2.0, 10)
        check_ptable(self.uniform.probabilities, 2.0, 2)
        self.p1_uniform = refs.p1_triple(self.uniform.probabilities, 2)
        self.m_uniform = math.ceil(math.log(1 - ALPHA) / math.log1p(-self.p1_uniform))
        self.avg_exact = {
            k: refs.averaging_success_exact(self.avg_ptable.probabilities, k, 100, 0.5) for k in (1000, 10_000)
        }
        self.laws = []
        for spec in self.specs:
            kind = type(spec).__name__
            probs = spec.ptable().probabilities if kind == "CellKey" else None
            self.laws.append(refs.NoiseLaw(kind, getattr(spec, "epsilon", None), getattr(spec, "bound", None), probs))

    def ops(self, pass_index: int) -> list[Op]:
        ops = [self.scan_op(v, e) for v in self.v_values for e in self.e_values]
        ops.append(Op("scan_eps", lambda: utility.scan_eps(self.eps_values, self.kt2_values, 20.0, 68.0), self.check_eps))
        for spsn, overrides in self.rankings:
            ops.append(Op(
                "rank_statistics",
                lambda s=spsn, o=overrides: redundancy.rank_statistics(self.programme, spsn=s, geo_cardinalities=o),
                lambda r, s=spsn, o=overrides: check_ranking(
                    [(x.target.label(), x.raw.t, x.raw.k, x.optimized.t, x.optimized.k) for x in r], self.catalog, s, o
                ),
            ))
        for k in (1000, 10_000):
            seed = op_seed(self.seed, pass_index, k)
            ops.append(Op(
                "averaging_mc",
                lambda k=k, s=seed: attacks.averaging_mc(self.avg_ptable, k, 100, self.trials, s),
                lambda r, k=k: self.check_rate(r, self.trials, self.avg_exact[k], f"averaging_mc k={k}"),
            ))
        seed = op_seed(self.seed, pass_index, 1)
        ops.append(Op(
            "bound_disclosure_mc",
            lambda s=seed: attacks.bound_disclosure_mc(self.uniform, self.m_uniform, self.mc_tuples, s),
            self.check_bound_disclosure,
        ))
        seed = op_seed(self.seed, pass_index, 2)
        ops.append(Op(
            "margin_exploit_mc",
            lambda s=seed: attacks.margin_exploit_mc(self.uniform, self.mc_tuples, s),
            self.check_margin,
        ))
        for i, (spec, law) in enumerate(zip(self.specs, self.laws)):
            seed = op_seed(self.seed, pass_index, 10 + i)
            ops.append(Op(
                "sample_distortions",
                lambda spec=spec, s=seed: utility.sample_distortions(self.areas, spec, s, [0.2, 0.5]),
                lambda r, law=law: check_tallies(
                    [(t.re_threshold, t.single, t.broadband, t.zero_hits) for t in r], law, self.truth, [0.2, 0.5]
                ),
            ))
        edges = list(range(0, 520, 20))
        ops.append(Op(
            "distortion_estimate",
            lambda: self.estimate(edges),
            lambda r: check_histogram(r, self.truth, edges, 0.1, 0.5),
        ))
        for pmf, eps in self.delta_pmfs:
            ops.append(Op(
                "tightest_delta",
                lambda pmf=pmf, eps=eps: accounting.tightest_delta(pmf, eps),
                lambda r, pmf=pmf, eps=eps: require(close12(r, refs.tightest_delta(pmf, eps)), "tightest_delta wrong"),
            ))
        return ops

    def estimate(self, edges):
        hist = utility.observations_histogram(self.areas, edges)
        return list(zip(hist.bin_counts, utility.binned_distortion_estimate(hist, 0.1, 0.5)))

    def scan_op(self, v: float, e: int) -> Op:
        return Op(
            "scan_ve",
            lambda: utility.scan_ve([v], [e], m_avail=M_AVAIL, kt2=KT2),
            lambda grid: [check_scan_cell(c, self.p1_ref, M_AVAIL, KT2, ALPHA) for c in grid.cells],
        )

    def check_eps(self, grid) -> None:
        require(len(grid.cells) == len(self.eps_values), "scan_eps lost cells")
        for cell in grid.cells:
            check_eps_cell(cell, self.kt2_values, 20.0, 68.0, ALPHA)

    @staticmethod
    def check_rate(report, trials: int, p: float, what: str) -> None:
        require(report.mc_trials == trials, f"{what}: {report.mc_trials} trials, want {trials}")
        z_check(report.mc_successes, trials * p, trials * p * (1 - p), what)

    def check_bound_disclosure(self, report) -> None:
        require(close12(report.probability, self.p1_uniform), "bound disclosure p1 wrong")
        self.check_rate(report, self.mc_tuples, 1 - (1 - self.p1_uniform) ** self.m_uniform, "bound_disclosure_mc")

    def check_margin(self, report) -> None:
        p = self.uniform.probabilities
        self.check_rate(report, self.mc_tuples, p[0] ** 2 * p[-1] + p[-1] ** 2 * p[0], "margin_exploit_mc")
        require(all(d["recovered"] == d["true"] for d in report.disclosed), "margin exploit recovered a wrong count")


# --- cli ----------------------------------------------------------------------


@dataclass
class CliRun:
    code: int
    out: str
    err: str
    max_rss_kb: int = 0


def run_child(argv: list[str], env: dict, cwd: str) -> CliRun:
    """Run one child to completion; its own peak RSS comes from wait4."""
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env, cwd=cwd)
    chunks = {proc.stdout: [], proc.stderr: []}
    with selectors.DefaultSelector() as sel:
        for stream in chunks:
            sel.register(stream, selectors.EVENT_READ)
        while sel.get_map():
            for key, _ in sel.select():
                data = os.read(key.fd, 65536)
                if data:
                    chunks[key.fileobj].append(data)
                else:
                    sel.unregister(key.fileobj)
                    key.fileobj.close()
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    text = {s: b"".join(c).decode("utf-8", "replace") for s, c in chunks.items()}
    return CliRun(proc.returncode, text[proc.stdout], text[proc.stderr], usage.ru_maxrss)


def child_env(root: str) -> dict:
    env = dict(os.environ)
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def parse_csv(text: str) -> list[dict]:
    lines = text.splitlines()
    header = [line for line in lines if line.startswith("#")]
    require(bool(header) and header[0].startswith("# sdcnoise "), "CSV lacks its '# sdcnoise' provenance header")
    rows = list(csv.DictReader(line for line in lines if line and not line.startswith("#")))
    require(bool(rows) and all(None not in r and None not in r.values() for r in rows), "malformed CSV body")
    return [{k: _number(v) for k, v in r.items()} for r in rows]


def _number(text: str):
    if text == "":
        return None
    try:
        return int(text)
    except ValueError:
        try:
            return float(text)
        except ValueError:
            return text


class Cli:
    """The README's example commands plus three exit-contract probes."""

    missing_programme = "bench/data/absent_programme.json"

    def __init__(self, seed: int, scale: str):
        self.seed = seed
        self.root = os.getcwd()
        text = programme_text()
        self.programme = tables.parse_programme(text)  # set-up parses the programme on every workload
        self.catalog = refs.Catalog(json.loads(text))
        self.env = child_env(self.root)
        self.peak_rss_kb = 0  # largest child
        seed_a, seed_u = (str(op_seed(seed, i) % 2**31) for i in (1, 2))
        # (argv, allowed exit codes, check of stdout)
        self.commands = [
            (["ptable", "--v", "2", "--e", "5"], {0}, self.check_ptable),
            (["analyze", "desk", "--spsn"], {0}, lambda out: self.check_analyze(out, True, None)),
            (["analyze", "desk", "--no-spsn", "--geo-override", "GEO.M=429"], {0},
             lambda out: self.check_analyze(out, False, {"GEO.M": 429})),
            (["attack", "bound-disclosure", "--dist", "uniform", "--e", "2", "--alpha", "0.68"], {0},
             self.check_bound_uniform),
            (["attack", "margin", "--e", "2"], {0}, self.check_margin),
            (["attack", "averaging", "--v", "2", "--e", "10", "--k", "1000", "--t", "100", "--trials", "1000",
              "--seed", seed_a], {0}, self.check_averaging),
            (["utility", "estimate", "--eps", "0.1", "--re", "0.5"], {0}, self.check_estimate),
            (["utility", "sample", "--mech", "laplace", "--eps", "0.1", "--re", "0.2", "--re", "0.5",
              "--seed", seed_u], {0}, self.check_sample),
            (["scan", "ve", "--m-avail", "2.8e7", "--kt2", "0.1"], {0}, lambda out: self.check_scan(out, 144, 0.1)),
            (["scan", "eps", "--kt2", "0.0118", "--kt2", "0.112", "--e-alpha", "20", "--t-lau", "68"], {0},
             self.check_scan_eps),
            (["account", "delta", "--dist", "uniform", "--e", "2", "--eps", "1.0"], {0}, self.check_delta),
            (["account", "sensitivity", "sex-age", "--query", "SEX", "--query", "total"], {0},
             lambda out: require(json.loads(out) == {"delta": 2, "spsn": False}, "sensitivity wrong")),
            (["account", "budget", "--global-eps", "1.0", "--halving", "10"], {0}, self.check_budget),
            (["--config", "bench/data/cli_config.json", "ptable"], {0}, self.check_ptable),
            # exit-contract probes: a missing file, p1 subnormal, p1 = 0
            (["analyze", self.missing_programme], {2}, None),
            (["scan", "ve", "--v-min", "2", "--v-max", "2", "--e-min", "32", "--e-max", "32", "--m-avail", "2.8e7"],
             {0}, lambda out: self.check_scan(out, 1, None)),
            (["attack", "bound-disclosure", "--dist", "ptable", "--v", "2", "--e", "40", "--streams", "10",
              "--seed", "1"], {0, 2}, lambda out: require(json.loads(out)["mc_trials"] == 10, "streams lost")),
        ]

    def prepare(self) -> None:
        require(not os.path.exists(os.path.join(self.root, self.missing_programme)), "probe file exists")
        with open(os.path.join(self.root, "src/sdcnoise/data/synth_areas.csv"), encoding="utf-8") as fh:
            rows = [r for r in csv.DictReader(fh)]
        self.truth = np.array([[int(r["f"]), int(r["m"]), int(r["t"])] for r in rows])
        with open(os.path.join(DATA, "scan_ve_p1.json"), encoding="utf-8") as fh:
            self.p1_ref = json.load(fh)["p1"]
        with open(os.path.join(self.root, "src/sdcnoise/data/margin_demo.csv"), encoding="utf-8") as fh:
            self.margin_rows = [[int(v) for v in line.split(",")] for line in fh.read().split() if line]
        uniform = np.full(5, 0.2)
        self.p1_uniform = refs.p1_triple(uniform, 2)
        self.delta_uniform = refs.tightest_delta({j - 2: 0.2 for j in range(5)}, 1.0)
        self.avg_exact = refs.averaging_success_exact(noise.gen_ptable(2.0, 10).probabilities, 1000, 100, 0.5)

    def ops(self, pass_index: int, in_process: bool = False) -> list[Op]:
        run = self.run_in_process if in_process else self.run_subprocess
        return [
            Op(" ".join(argv), lambda argv=argv: run(argv), lambda r, c=codes, f=check: self.check(r, c, f))
            for argv, codes, check in self.commands
        ]

    def run_subprocess(self, argv) -> CliRun:
        run = run_child([sys.executable, "-m", "sdcnoise", *argv], self.env, self.root)
        self.peak_rss_kb = max(self.peak_rss_kb, run.max_rss_kb)
        return run

    @staticmethod
    def run_in_process(argv) -> CliRun:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                cli.main(list(argv))
                code = 0
            except SystemExit as exc:
                code = exc.code if isinstance(exc.code, int) else (0 if exc.code is None else 1)
        return CliRun(code, out.getvalue(), err.getvalue())

    @staticmethod
    def check(run: CliRun, codes, check_out) -> None:
        if "Traceback" in run.err:
            raise ContractBroken(f"exit code {run.code} with a traceback on stderr")
        if run.code not in codes:
            raise ContractBroken(f"exit code {run.code}, contract wants {sorted(codes)}")
        if run.code == 2:
            require(run.out == "" and run.err.strip() != "", "domain error without its message")
        elif check_out is not None:
            check_out(run.out)

    def check_ptable(self, out: str) -> None:
        rows = parse_csv(out)
        require([r["j"] for r in rows] == list(range(-5, 6)), "ptable support wrong")
        check_ptable([r["p_j"] for r in rows], 2.0, 5)

    def check_analyze(self, out: str, spsn: bool, overrides) -> None:
        rows = parse_csv(out)
        check_ranking(
            [(r["statistic"], r["t"], r["k"], r["opt_t"], r["opt_k"]) for r in rows], self.catalog, spsn, overrides
        )

    def check_bound_uniform(self, out: str) -> None:
        report = json.loads(out)
        require(close12(report["probability"], self.p1_uniform), "bound disclosure p1 wrong")
        want = math.ceil(math.log(1 - ALPHA) / math.log1p(-self.p1_uniform))
        require(report["m_required"] == want, "bound disclosure m_required wrong")

    def check_margin(self, out: str) -> None:
        want = []
        for i, row in enumerate(self.margin_rows):
            residual = sum(row[:-1]) - row[-1]
            if abs(residual) == len(row) * 2:
                sign = 1 if residual > 0 else -1
                want.append({"index": i, "recovered": [v - 2 * sign for v in row[:-1]] + [row[-1] + 2 * sign]})
        report = json.loads(out)
        require(report["disclosed"] == want, "margin disclosures differ from the reference scan")

    def check_averaging(self, out: str) -> None:
        report = json.loads(out)
        require(report["mc_trials"] == 1000, "averaging trials wrong")
        p = self.avg_exact
        z_check(report["mc_successes"], 1000 * p, 1000 * p * (1 - p), "cli averaging")

    def check_estimate(self, out: str) -> None:
        rows = parse_csv(out)
        edges = list(range(0, 520, 20))
        require([r["bin_right"] for r in rows] == edges[1:], "estimate bins wrong")
        check_histogram([(r["observations"], r["expected_exceed"]) for r in rows], self.truth, edges, 0.1, 0.5)

    def check_sample(self, out: str) -> None:
        rows = parse_csv(out)
        law = refs.NoiseLaw("Laplace", 0.1)
        check_tallies(
            [(r["re_threshold"], r["single"], r["broadband"], r["zero_hits"]) for r in rows], law, self.truth, [0.2, 0.5]
        )

    def check_scan(self, out: str, cells: int, kt2) -> None:
        rows = parse_csv(out)
        require(len(rows) == cells, f"scan ve has {len(rows)} cells, want {cells}")
        for row in rows:
            check_scan_cell(row, self.p1_ref, M_AVAIL, kt2, ALPHA)

    def check_scan_eps(self, out: str) -> None:
        rows = parse_csv(out)
        require(len(rows) == 96, f"scan eps has {len(rows)} cells, want 96")
        for row in rows:
            check_eps_cell(row, [0.0118, 0.112], 20.0, 68.0, ALPHA)

    def check_delta(self, out: str) -> None:
        require(close12(json.loads(out)["delta"], self.delta_uniform), "account delta wrong")

    def check_budget(self, out: str) -> None:
        got = json.loads(out)
        halving = 1.0 / 2**10
        want = {
            "table_eps": 0.1,
            "table_noise_variance": 2.0 / 0.1**2,
            "halving_eps": halving,
            "halving_noise_scale": math.sqrt(2.0) / halving,
        }
        require(all(close12(got[k], v) for k, v in want.items()), "account budget wrong")


WORKLOADS = {
    "release_cellkey": lambda seed, scale: Release(seed, scale, cell_key=True),
    "release_independent": lambda seed, scale: Release(seed, scale, cell_key=False),
    "risk_grid": RiskGrid,
    "cli": Cli,
}

