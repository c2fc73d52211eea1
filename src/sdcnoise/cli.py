"""Command-line front end.

Every command is a thin wrapper over the library: values printed equal
direct library-call results.  Outputs are CSV or JSON only; CSV files carry
a comment header with the tool version, the resolved parameters and the
seed, so that every disclosure-control decision leaves an audit trail.

Exit codes: 0 success, 1 usage error, 2 domain error (infeasible parameters,
bad programme files, ...).
"""

from __future__ import annotations

import json
import math
import secrets
import sys
from importlib import resources

import click
import numpy as np

from . import __version__
from .errors import DomainError
from . import accounting, attacks, noise, redundancy, tables, utility

_DEMOS = {
    "sex-age": "demo_sex_age.json",
    "duplicated": "duplicated_tables.json",
    "desk": "desk_programme.json",
}


def _data_text(name: str) -> str:
    return resources.files("sdcnoise.data").joinpath(name).read_text(encoding="utf-8")


def _read_input(path: str | None, bundled: str) -> str:
    """Text of the file ``path``, or of the bundled data file ``bundled`` without one."""
    if not path:
        return _data_text(bundled)
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise DomainError(f"cannot read {path}: {exc}") from exc


def _load_programme_arg(value: str) -> tables.TableProgramme:
    if value in _DEMOS:
        return tables.parse_programme(_data_text(_DEMOS[value]))
    return tables.load_programme(value)


def _resolve_seed(seed: int | None) -> int:
    if seed is None:
        seed = secrets.randbelow(2**31)
        click.echo(f"generated seed: {seed}", err=True)
    return seed


# The most rows a command builds: grid cells, epsilon values or histogram bins,
# checked from the option values before anything is allocated.
_MAX_ROWS = 10**6
# The most noise values one simulation draws, averaging (k * trials) or bound
# disclosure (3 per tuple, streams * m * 3).  Both hold one block of draws at a
# time, so the cap limits run time, not memory: about 40 s at the 2.5 * 10**7
# draws/s of a 2-core Xeon VM.
_MAX_DRAWS = 10**9


def _check_rows(rows: float, what: str) -> None:
    """Usage error unless ``what`` has at most ``_MAX_ROWS`` rows."""
    if not rows <= _MAX_ROWS:
        raise click.UsageError(f"{what} has more than {_MAX_ROWS} rows")


def _header(command: str, params: dict, seed: int | None = None) -> list[str]:
    lines = [f"sdcnoise {__version__}", f"command: {command}"]
    lines += [f"{k}: {v}" for k, v in params.items()]
    if seed is not None:
        lines.append(f"seed: {seed}")
    return lines


def _emit(text: str, out: str | None) -> None:
    """The one output sink: the file ``out`` if given, else stdout."""
    if not out:
        click.echo(text, nl=False)
        return
    try:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise DomainError(f"cannot write {out}: {exc.strerror or exc}") from exc


def _format_value(v) -> str:
    if v is None:
        return ""
    if isinstance(v, bool):
        return str(int(v))
    if isinstance(v, float):
        return repr(v)
    return str(v)


def _write_csv(out: str | None, header: list[str], columns, rows) -> None:
    """Header lines as ``#`` comments, the column line, then one line per row."""
    lines = [f"# {line}" for line in header] + [",".join(columns)]
    lines += [",".join(_format_value(v) for v in row) for row in rows]
    _emit("\n".join(lines) + "\n", out)


def _load_config(ctx, param, value):
    if value:
        try:
            with open(value, encoding="utf-8") as fh:
                config = json.load(fh)
        except (OSError, ValueError) as exc:
            raise click.BadParameter(f"cannot read {value}: {exc}") from exc
        if not (isinstance(config, dict) and all(isinstance(v, dict) for v in config.values())):
            raise click.BadParameter(f"{value} must map command names to objects")
        ctx.default_map = config
    return value


@click.group()
@click.version_option(__version__)
@click.option(
    "--config",
    type=click.Path(exists=True),
    callback=_load_config,
    expose_value=False,
    is_eager=True,
    help="JSON config file; keys mirror the command options, flags win.",
)
def cli():
    """Disclosure-control noise analysis for static count outputs."""


# The options each noise law reads: (required, optional).  ``ptable`` and ``ck`` name one law.
_LAW_OPTIONS = {
    "laplace": ({"--eps"}, set()),
    "geometric": ({"--eps"}, {"--e"}),
    "uniform": ({"--e"}, set()),
    "ptable": ({"--v", "--e"}, set()),
    "ck": ({"--v", "--e"}, set()),
}


def _spec_for(law: str, eps: float | None, variance: float | None, bound: int | None) -> noise.NoiseSpec:
    """The one place a law name and its options become a noise spec.

    A missing option the law needs, or a given option it does not read, is a usage
    error, so no output records a parameter that did not shape the noise.
    """
    required, optional = _LAW_OPTIONS[law]
    for flag, value in (("--eps", eps), ("--v", variance), ("--e", bound)):
        if value is None and flag in required:
            raise click.UsageError(f"{flag} is required for the {law} law")
        if value is not None and flag not in required | optional:
            raise click.UsageError(f"{flag} is not read by the {law} law")
    if law == "laplace":
        return noise.Laplace(epsilon=eps)
    if law == "geometric":
        if bound is None:
            return noise.TwoTailedGeometric(epsilon=eps)
        return noise.TruncatedLaplace(epsilon=eps, bound=bound)
    if law == "uniform":
        variance = noise.uniform_max_variance(bound)
    return noise.CellKey(variance=variance, bound=bound)


@cli.command("ptable")
@click.option("--v", "variance", type=float, required=True, help="Noise variance V.")
@click.option("--e", "bound", type=int, required=True, help="Noise bound E.")
@click.option("--out", type=click.Path(), default=None)
def cmd_ptable(variance, bound, out):
    """Generate a maximum-entropy lookup table and write it as CSV."""
    ptable = noise.gen_ptable(variance, bound)
    _write_csv(
        out,
        _header("ptable", {"V": variance, "E": bound}),
        ["j", "p_j", "cumulative"],
        zip(ptable.support.tolist(), ptable.probabilities.tolist(), ptable.cumulative.tolist()),
    )


@cli.command("analyze")
@click.argument("programme")
@click.option("--spsn/--no-spsn", default=True, show_default=True)
@click.option(
    "--geo-override",
    multiple=True,
    help="Cardinality override per geographic breakdown, e.g. GEO.M=429.",
)
@click.option("--order", type=click.Choice(["ratio", "t"]), default="ratio", show_default=True)
@click.option("--out", type=click.Path(), default=None)
def cmd_analyze(programme, spsn, geo_override, order, out):
    """Rank every statistic of a programme by averaging risk (k/t^2) or by t.

    PROGRAMME is a JSON file path or one of the bundled demos:
    sex-age, duplicated, desk.
    """
    prog = _load_programme_arg(programme)
    overrides = {}
    for item in geo_override:
        bid, _, value = item.partition("=")
        try:
            overrides[bid] = int(value)
        except ValueError:
            raise click.BadParameter(f"needs ID=N, got {item!r}", param_hint="--geo-override") from None
    stats = redundancy.rank_statistics(
        prog, spsn=spsn, geo_cardinalities=overrides or None, order=order
    )
    _write_csv(
        out,
        _header(
            "analyze",
            {"programme": programme, "spsn": spsn, "order": order, "geo_override": dict(overrides)},
        ),
        ["statistic", "spsn", "t", "k", "ratio", "opt_t", "opt_k", "opt_ratio"],
        (
            [s.target.label(), spsn, s.raw.t, s.raw.k, s.raw.ratio,
             s.optimized.t, s.optimized.k, s.optimized.ratio]
            for s in stats
        ),
    )


@cli.group("attack")
def attack_group():
    """Run one of the attack simulations."""


@attack_group.command("bound-disclosure")
@click.option("--dist", type=click.Choice(["uniform", "ptable"]), default="uniform", show_default=True)
@click.option("--e", "bound", type=int, required=True)
@click.option("--v", "variance", type=float, default=None)
@click.option("--alpha", type=float, default=0.68, show_default=True)
@click.option("--streams", type=click.IntRange(min=0), default=0, help="Monte Carlo streams (0 = analytic only).")
@click.option("--seed", type=click.IntRange(min=0), default=None)
@click.option("--out", type=click.Path(), default=None)
def cmd_bound_disclosure(dist, bound, variance, alpha, streams, seed, out):
    """Probability and 3-tuple complexity of disclosing the noise bound."""
    if seed is not None and streams == 0:
        raise click.UsageError("--seed is not read without --streams: the analytic figure samples nothing")
    ptable = _spec_for(dist, None, variance, bound).ptable()
    p1 = float(attacks.p1_exact(ptable.probabilities, bound))
    m = attacks.tuples_needed(p1, alpha)
    if streams > 0:
        if not streams * m * 3 <= _MAX_DRAWS:  # m = inf when p1 = 0
            raise DomainError(f"p1 = {p1!r}, m = {m:.4g}: {streams} streams draw more than {_MAX_DRAWS} noise values")
        seed = _resolve_seed(seed)
        report = attacks.bound_disclosure_mc(ptable, int(m), streams, seed)
    else:
        report = attacks.AttackReport(
            attack="BoundDisclosure",
            probability=p1,
            m_required=None if m == float("inf") else int(m),
        )
    _emit(report.to_json() + "\n", out)


@attack_group.command("margin")
@click.option("--e", "bound", type=int, required=True)
@click.option(
    "--input",
    "input_path",
    type=click.Path(exists=True),
    default=None,
    help="CSV of constraint tuples (internal counts..., total); bundled demo by default.",
)
@click.option("--out", type=click.Path(), default=None)
def cmd_margin(bound, input_path, out):
    """Scan constraint tuples for the all-extreme noise pattern."""
    rows = []
    for number, line in enumerate(_read_input(input_path, "margin_demo.csv").splitlines(), start=1):
        if line.strip() and not line.startswith("#"):
            try:
                rows.append([int(v) for v in line.split(",")])
            except ValueError:
                raise DomainError(f"tuple file line {number}: not integers: {line!r}") from None
            if len(rows[-1]) < 2:
                raise DomainError(f"tuple file line {number}: needs at least one internal count and a total")
    found = attacks.margin_exploit_scan(rows, bound)
    report = attacks.AttackReport(
        attack="MarginExploit",
        disclosed=[{"index": i, "recovered": list(r)} for i, r in found],
        mc_trials=len(rows),
        mc_successes=len(found),
    )
    _emit(report.to_json() + "\n", out)


@attack_group.command("averaging")
@click.option("--v", "variance", type=float, required=True)
@click.option("--e", "bound", type=int, required=True)
@click.option("--k", type=int, required=True)
@click.option("--t", type=int, required=True)
@click.option("--trials", type=int, default=1000, show_default=True)
@click.option("--seed", type=click.IntRange(min=0), default=None)
@click.option("--xi", type=float, default=0.5, show_default=True)
@click.option("--out", type=click.Path(), default=None)
def cmd_averaging(variance, bound, k, t, trials, seed, xi, out):
    """Monte Carlo averaging attack on synthetic redundancy (k, t)."""
    if trials > 0 and k * trials > _MAX_DRAWS:  # a negative k or trials is averaging_mc's domain error
        raise click.UsageError(f"--k {k} by --trials {trials} draws more than {_MAX_DRAWS} noise values")
    seed = _resolve_seed(seed)
    ptable = noise.gen_ptable(variance, bound)
    report = attacks.averaging_mc(ptable, k, t, trials, seed, xi)
    _emit(report.to_json() + "\n", out)


@cli.group("utility")
def utility_group():
    """Small-area distortion analysis."""


@utility_group.command("estimate")
@click.option("--areas", type=click.Path(exists=True), default=None)
@click.option("--eps", type=float, required=True)
@click.option("--re", "re_threshold", type=float, required=True)
@click.option("--bin-width", type=click.IntRange(min=1), default=20, show_default=True)
@click.option("--max-count", type=click.IntRange(min=1), default=500, show_default=True)
@click.option("--out", type=click.Path(), default=None)
def cmd_utility_estimate(areas, eps, re_threshold, bin_width, max_count, out):
    """Expected relative-error exceedances per count bin."""
    _check_rows(-(-max_count // bin_width), f"a histogram up to {max_count} in bins of {bin_width}")
    records = utility.read_areas_text(_read_input(areas, "synth_areas.csv"))
    edges = list(range(0, max_count + bin_width, bin_width))
    hist = utility.observations_histogram(records, edges)
    estimates = utility.binned_distortion_estimate(hist, eps, re_threshold)
    _write_csv(
        out,
        _header(
            "utility estimate",
            {"eps": eps, "re": re_threshold, "bin_width": bin_width, "areas": areas or "bundled"},
        ),
        ["bin_left", "bin_right", "observations", "expected_exceed"],
        zip(hist.bin_edges, hist.bin_edges[1:], hist.bin_counts, estimates),
    )


@utility_group.command("sample")
@click.option("--areas", type=click.Path(exists=True), default=None)
@click.option("--mech", type=click.Choice(["laplace", "geometric", "ck"]), default="laplace", show_default=True)
@click.option("--eps", type=float, default=None)
@click.option("--v", "variance", type=float, default=None)
@click.option("--e", "bound", type=int, default=None)
@click.option("--re", "re_thresholds", type=float, multiple=True, required=True)
@click.option("--seed", type=click.IntRange(min=0), default=None)
@click.option("--out", type=click.Path(), default=None)
def cmd_utility_sample(areas, mech, eps, variance, bound, re_thresholds, seed, out):
    """Sample noise on area counts and tally distortions per threshold."""
    records = utility.read_areas_text(_read_input(areas, "synth_areas.csv"))
    spec = _spec_for(mech, eps, variance, bound)
    seed = _resolve_seed(seed)
    tallies = utility.sample_distortions(records, spec, seed, list(re_thresholds))
    _write_csv(
        out,
        _header(
            "utility sample",
            {"mech": mech, "eps": eps, "V": variance, "E": bound, "areas": areas or "bundled"},
            seed,
        ),
        ["re_threshold", "single", "broadband", "zero_hits"],
        ((t.re_threshold, t.single, t.broadband, t.zero_hits) for t in tallies),
    )


@cli.group("scan")
def scan_group():
    """Parameter-space constraint grids."""


def _grid_range(lo: float, hi: float, step: float) -> list[float]:
    if not (all(map(math.isfinite, (lo, hi, step))) and step > 0 and hi >= lo):
        raise click.UsageError("need finite bounds and step, step > 0 and max >= min")
    # np.arange makes ceil of this many values; a span that overflows makes it inf
    _check_rows((hi + step / 2 - lo) / step, f"a grid from {lo} to {hi} in steps of {step}")
    return [float(f"{v:.12g}") for v in np.arange(lo, hi + step / 2, step)]


def _write_grid(out: str | None, header: list[str], grid: utility.ConstraintGrid) -> None:
    _write_csv(out, header, grid.columns, ([cell.get(c) for c in grid.columns] for cell in grid.cells))


@scan_group.command("ve")
@click.option("--v-min", type=float, default=0.5, show_default=True)
@click.option("--v-max", type=float, default=6.0, show_default=True)
@click.option("--v-step", type=float, default=0.5, show_default=True)
@click.option("--e-min", type=int, default=1, show_default=True)
@click.option("--e-max", type=int, default=12, show_default=True)
@click.option("--m-avail", type=float, required=True)
@click.option("--kt2", type=float, default=None)
@click.option("--alpha", type=float, default=0.68, show_default=True)
@click.option("--out", type=click.Path(), default=None)
def cmd_scan_ve(v_min, v_max, v_step, e_min, e_max, m_avail, kt2, alpha, out):
    """Scan the bounded-noise (V, E) plane."""
    v_values = _grid_range(v_min, v_max, v_step)
    if e_max < e_min:
        raise click.UsageError(f"--e-max {e_max} is below --e-min {e_min}: the E range is empty")
    _check_rows(len(v_values) * (e_max - e_min + 1), f"a {len(v_values)} by {e_max - e_min + 1} (V, E) grid")
    grid = utility.scan_ve(v_values, list(range(e_min, e_max + 1)), m_avail, kt2=kt2, alpha=alpha)
    _write_grid(out, _header("scan ve", {"m_avail": m_avail, "kt2": kt2, "alpha": alpha}), grid)


@scan_group.command("eps")
@click.option("--eps-min", type=float, default=0.05, show_default=True)
@click.option("--eps-max", type=float, default=1.0, show_default=True)
@click.option("--eps-step", type=float, default=0.01, show_default=True)
@click.option("--kt2", "kt2_values", type=float, multiple=True, required=True)
@click.option("--e-alpha", type=float, default=20.0, show_default=True)
@click.option("--t-lau", type=float, required=True)
@click.option("--alpha", type=float, default=0.68, show_default=True)
@click.option("--out", type=click.Path(), default=None)
def cmd_scan_eps(eps_min, eps_max, eps_step, kt2_values, e_alpha, t_lau, alpha, out):
    """Scan the per-count privacy budget range."""
    grid = utility.scan_eps(
        _grid_range(eps_min, eps_max, eps_step),
        list(kt2_values),
        e_alpha,
        t_lau,
        alpha=alpha,
    )
    _write_grid(
        out,
        _header(
            "scan eps",
            {"kt2": list(kt2_values), "e_alpha": e_alpha, "t_lau": t_lau, "alpha": alpha},
        ),
        grid,
    )


@cli.group("account")
def account_group():
    """Differential-privacy accounting helpers."""


@account_group.command("delta")
@click.option("--dist", type=click.Choice(["uniform", "geometric", "ptable"]), required=True)
@click.option("--e", "bound", type=int, required=True)
@click.option("--v", "variance", type=float, default=None)
@click.option("--eps", type=float, required=True)
@click.option("--out", type=click.Path(), default=None)
def cmd_delta(dist, bound, variance, eps, out):
    """Tightest delta of a finite noise pmf at a given epsilon.

    The delta covers one count moving by one under one pmf. It does not cover
    SPSN cell keys, which release every empty cell at -E: a record alone in its
    cell is then perfectly distinguishable (delta = 1).
    """
    # --eps is the accounting epsilon; of these laws only the geometric one also reads it
    spec = _spec_for(dist, eps if dist == "geometric" else None, variance, bound)
    delta = accounting.tightest_delta(spec.ptable().as_pmf(), eps)
    _emit(json.dumps({"epsilon": eps, "delta": delta}, indent=2) + "\n", out)


@account_group.command("sensitivity")
@click.argument("programme")
@click.option(
    "--query",
    "queries",
    multiple=True,
    required=True,
    help="Statistic per flag: '*'-joined breakdown ids, or 'total'.",
)
@click.option("--spsn/--no-spsn", default=False, show_default=True)
@click.option("--out", type=click.Path(), default=None)
def cmd_sensitivity(programme, queries, spsn, out):
    """Global L1 sensitivity of a set of requested tabulations."""
    prog = _load_programme_arg(programme)
    keys = []
    for q in queries:
        ids = frozenset() if q == "total" else frozenset(q.split("*"))
        keys.append(tables.StatisticKey(ids))
    delta = accounting.sensitivity(prog, keys, spsn=spsn)
    _emit(json.dumps({"delta": delta, "spsn": spsn}, indent=2) + "\n", out)


@account_group.command("budget")
@click.option("--global-eps", type=float, required=True)
@click.option("--rounded/--exact", default=True, show_default=True)
@click.option("--halving", type=int, default=None, help="Call index i of the halving schedule.")
@click.option("--out", type=click.Path(), default=None)
def cmd_budget(global_eps, rounded, halving, out):
    """Per-table budget presets and the iterative halving schedule."""
    payload: dict = {"global_eps": global_eps}
    table_eps = accounting.us_table_budget(global_eps, rounded=rounded)
    payload["table_eps"] = table_eps
    payload["table_noise_variance"] = noise.laplace_variance(table_eps)
    if halving is not None:
        eps_i = accounting.halving_schedule(global_eps, halving)
        payload["halving_i"] = halving
        payload["halving_eps"] = eps_i
        payload["halving_noise_scale"] = noise.laplace_variance(eps_i) ** 0.5
    _emit(json.dumps(payload, indent=2) + "\n", out)


def main(argv=None) -> None:
    try:
        cli.main(args=argv, standalone_mode=False)
    except click.exceptions.Exit as exc:
        sys.exit(exc.exit_code)
    except click.UsageError as exc:
        exc.show()
        sys.exit(1)
    except click.ClickException as exc:
        exc.show()
        sys.exit(exc.exit_code)
    except click.Abort:
        sys.exit(1)
    except DomainError as exc:
        click.echo(f"error: {exc}", err=True)
        sys.exit(2)
    sys.exit(0)
