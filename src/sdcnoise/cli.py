"""Command-line front end.

Every command is a thin wrapper over the library: values printed equal
direct library-call results.  Outputs are CSV or JSON only; CSV files carry
a comment header with the tool version, the resolved parameters and the
seed, so that every disclosure-control decision leaves an audit trail.

Exit codes: 0 success, 1 usage error, 2 domain error (infeasible parameters,
bad programme files, ...).
"""

from __future__ import annotations

import io
import json
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


def _load_programme_arg(value: str) -> tables.TableProgramme:
    if value in _DEMOS:
        return tables.parse_programme(_data_text(_DEMOS[value]))
    return tables.load_programme(value)


def _resolve_seed(seed: int | None) -> int:
    if seed is None:
        seed = secrets.randbelow(2**31)
        click.echo(f"generated seed: {seed}", err=True)
    return seed


def _header(command: str, params: dict, seed: int | None = None) -> list[str]:
    lines = [f"sdcnoise {__version__}", f"command: {command}"]
    lines += [f"{k}: {v}" for k, v in params.items()]
    if seed is not None:
        lines.append(f"seed: {seed}")
    return lines


def _emit(text: str, out: str | None) -> None:
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        click.echo(text, nl=False)


def _emit_report(report: attacks.AttackReport, out: str | None) -> None:
    _emit(report.to_json() + "\n", out)


def _load_config(ctx, param, value):
    if value:
        with open(value, encoding="utf-8") as fh:
            ctx.default_map = json.load(fh)
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


@cli.command("ptable")
@click.option("--v", "variance", type=float, required=True, help="Noise variance V.")
@click.option("--e", "bound", type=int, required=True, help="Noise bound E.")
@click.option("--js", type=int, default=0, show_default=True)
@click.option("--out", type=click.Path(), default=None)
def cmd_ptable(variance, bound, js, out):
    """Generate a maximum-entropy lookup table and write it as CSV."""
    ptable = noise.gen_ptable(variance, bound, js)
    buf = io.StringIO()
    ptable.write_csv(
        buf, comments=_header("ptable", {"V": variance, "E": bound, "js": js})
    )
    _emit(buf.getvalue(), out)


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
        if not value:
            raise click.UsageError(f"--geo-override needs ID=N, got {item!r}")
        overrides[bid] = int(value)
    stats = redundancy.rank_statistics(
        prog, spsn=spsn, geo_cardinalities=overrides or None, order=order
    )
    buf = io.StringIO()
    redundancy.write_ranking_csv(
        stats,
        spsn,
        buf,
        comments=_header(
            "analyze",
            {"programme": programme, "spsn": spsn, "order": order, "geo_override": dict(overrides)},
        ),
    )
    _emit(buf.getvalue(), out)


@cli.group("attack")
def attack_group():
    """Run one of the attack simulations."""


def _ptable_for(dist: str, bound: int, variance: float | None) -> noise.PTable:
    if dist == "uniform":
        return noise.gen_ptable(noise.uniform_max_variance(bound), bound)
    if variance is None:
        raise click.UsageError("--v is required for --dist ptable")
    return noise.gen_ptable(variance, bound)


@attack_group.command("bound-disclosure")
@click.option("--dist", type=click.Choice(["uniform", "ptable"]), default="uniform", show_default=True)
@click.option("--e", "bound", type=int, required=True)
@click.option("--v", "variance", type=float, default=None)
@click.option("--alpha", type=float, default=0.68, show_default=True)
@click.option("--streams", type=int, default=0, help="Monte Carlo streams (0 = analytic only).")
@click.option("--seed", type=int, default=None)
@click.option("--out", type=click.Path(), default=None)
def cmd_bound_disclosure(dist, bound, variance, alpha, streams, seed, out):
    """Probability and 3-tuple complexity of disclosing the noise bound."""
    ptable = _ptable_for(dist, bound, variance)
    p1 = float(attacks.p1_exact(ptable.probabilities, bound))
    m = attacks.tuples_needed(p1, alpha)
    if streams > 0:
        if m == float("inf"):
            raise DomainError(f"p1 = {p1!r}: no stream length discloses the bound, nothing to simulate")
        seed = _resolve_seed(seed)
        report = attacks.bound_disclosure_mc(ptable, int(m), streams, seed)
    else:
        report = attacks.AttackReport(
            attack="BoundDisclosure",
            probability=p1,
            m_required=None if m == float("inf") else int(m),
            seed=seed,
        )
    _emit_report(report, out)


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
    if input_path:
        with open(input_path, encoding="utf-8") as fh:
            text = fh.read()
    else:
        text = _data_text("margin_demo.csv")
    rows = [
        [int(v) for v in line.split(",")]
        for line in text.strip().splitlines()
        if line and not line.startswith("#")
    ]
    found = attacks.margin_exploit_scan(rows, bound)
    report = attacks.AttackReport(
        attack="MarginExploit",
        disclosed=[{"index": i, "recovered": list(r)} for i, r in found],
        mc_trials=len(rows),
        mc_successes=len(found),
    )
    _emit_report(report, out)


@attack_group.command("averaging")
@click.option("--v", "variance", type=float, required=True)
@click.option("--e", "bound", type=int, required=True)
@click.option("--k", type=int, required=True)
@click.option("--t", type=int, required=True)
@click.option("--trials", type=int, default=1000, show_default=True)
@click.option("--seed", type=int, default=None)
@click.option("--xi", type=float, default=0.5, show_default=True)
@click.option("--out", type=click.Path(), default=None)
def cmd_averaging(variance, bound, k, t, trials, seed, xi, out):
    """Monte Carlo averaging attack on synthetic redundancy (k, t)."""
    seed = _resolve_seed(seed)
    ptable = noise.gen_ptable(variance, bound)
    report = attacks.averaging_mc(ptable, k, t, trials, seed, xi)
    _emit_report(report, out)


@cli.group("utility")
def utility_group():
    """Small-area distortion analysis."""


def _load_areas(path: str | None) -> list[utility.AreaRecord]:
    if path:
        return utility.read_areas(path)
    return utility.read_areas_text(_data_text("synth_areas.csv"))


@utility_group.command("estimate")
@click.option("--areas", type=click.Path(exists=True), default=None)
@click.option("--eps", type=float, required=True)
@click.option("--re", "re_threshold", type=float, required=True)
@click.option("--bin-width", type=int, default=20, show_default=True)
@click.option("--max-count", type=int, default=500, show_default=True)
@click.option("--out", type=click.Path(), default=None)
def cmd_utility_estimate(areas, eps, re_threshold, bin_width, max_count, out):
    """Expected relative-error exceedances per count bin."""
    records = _load_areas(areas)
    edges = list(range(0, max_count + bin_width, bin_width))
    hist = utility.observations_histogram(records, edges)
    estimates = utility.binned_distortion_estimate(hist, eps, re_threshold)
    lines = [
        f"# {line}"
        for line in _header(
            "utility estimate",
            {"eps": eps, "re": re_threshold, "bin_width": bin_width, "areas": areas or "bundled"},
        )
    ]
    lines.append("bin_left,bin_right,observations,expected_exceed")
    for left, right, count, est in zip(
        hist.bin_edges, hist.bin_edges[1:], hist.bin_counts, estimates
    ):
        lines.append(f"{left},{right},{count},{est!r}")
    _emit("\n".join(lines) + "\n", out)


@utility_group.command("sample")
@click.option("--areas", type=click.Path(exists=True), default=None)
@click.option("--mech", type=click.Choice(["laplace", "geometric", "ck"]), default="laplace", show_default=True)
@click.option("--eps", type=float, default=None)
@click.option("--v", "variance", type=float, default=None)
@click.option("--e", "bound", type=int, default=None)
@click.option("--re", "re_thresholds", type=float, multiple=True, required=True)
@click.option("--seed", type=int, default=None)
@click.option("--out", type=click.Path(), default=None)
def cmd_utility_sample(areas, mech, eps, variance, bound, re_thresholds, seed, out):
    """Sample noise on area counts and tally distortions per threshold."""
    records = _load_areas(areas)
    if mech == "laplace":
        if eps is None:
            raise click.UsageError("--eps is required for --mech laplace")
        spec: noise.NoiseSpec = noise.Laplace(epsilon=eps)
    elif mech == "geometric":
        if eps is None:
            raise click.UsageError("--eps is required for --mech geometric")
        spec = noise.TwoTailedGeometric(epsilon=eps)
    else:
        if variance is None or bound is None:
            raise click.UsageError("--v and --e are required for --mech ck")
        spec = noise.CellKey(variance=variance, bound=bound)
    seed = _resolve_seed(seed)
    tallies = utility.sample_distortions(records, spec, seed, list(re_thresholds))
    lines = [
        f"# {line}"
        for line in _header(
            "utility sample",
            {"mech": mech, "eps": eps, "V": variance, "E": bound, "areas": areas or "bundled"},
            seed,
        )
    ]
    lines.append("re_threshold,single,broadband,zero_hits")
    for tally in tallies:
        lines.append(
            f"{tally.re_threshold!r},{tally.single},{tally.broadband},{tally.zero_hits}"
        )
    _emit("\n".join(lines) + "\n", out)


@cli.group("scan")
def scan_group():
    """Parameter-space constraint grids."""


def _grid_range(lo: float, hi: float, step: float) -> list[float]:
    if step <= 0 or hi < lo:
        raise click.UsageError("need step > 0 and max >= min")
    values = np.arange(lo, hi + step / 2, step)
    return [round(float(v), 12) for v in values]


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
    grid = utility.scan_ve(
        _grid_range(v_min, v_max, v_step),
        list(range(e_min, e_max + 1)),
        m_avail,
        kt2=kt2,
        alpha=alpha,
    )
    buf = io.StringIO()
    grid.write_csv(
        buf,
        comments=_header(
            "scan ve",
            {"m_avail": m_avail, "kt2": kt2, "alpha": alpha},
        ),
    )
    _emit(buf.getvalue(), out)


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
    buf = io.StringIO()
    grid.write_csv(
        buf,
        comments=_header(
            "scan eps",
            {"kt2": list(kt2_values), "e_alpha": e_alpha, "t_lau": t_lau, "alpha": alpha},
        ),
    )
    _emit(buf.getvalue(), out)


@cli.group("account")
def account_group():
    """Differential-privacy accounting helpers."""


@account_group.command("delta")
@click.option("--dist", type=click.Choice(["uniform", "geometric", "ptable"]), required=True)
@click.option("--e", "bound", type=int, default=None)
@click.option("--v", "variance", type=float, default=None)
@click.option("--eps", type=float, required=True)
@click.option("--trunc", type=int, default=50, show_default=True, help="Support cut for geometric.")
@click.option("--out", type=click.Path(), default=None)
def cmd_delta(dist, bound, variance, eps, trunc, out):
    """Tightest delta of a finite noise pmf at a given epsilon."""
    if dist == "geometric":
        support = np.arange(-trunc, trunc + 1)
        probs = noise.geometric2_pmf(support, eps)
        probs = probs / probs.sum()
        pmf = {int(x): float(p) for x, p in zip(support, probs)}
    else:
        if bound is None:
            raise click.UsageError("--e is required for bounded distributions")
        ptable = _ptable_for("uniform" if dist == "uniform" else "ptable", bound, variance)
        pmf = ptable.as_pmf()
    delta = accounting.tightest_delta(pmf, eps)
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
