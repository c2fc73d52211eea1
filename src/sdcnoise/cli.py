"""Command-line front end, on the standard library's argparse.

Every command is a thin wrapper over the library: values printed equal
direct library-call results.  Outputs are CSV or JSON only; CSV files carry
a comment header with the tool version, the command, the resolved parameters
and the seed, so that every disclosure-control decision leaves an audit trail.
Each command returns its result and :func:`_write` alone renders and writes it.

Exit codes: 0 success, 1 usage error (``Error: <message>`` as the last stderr
line), 2 domain error (one ``error:`` line: infeasible parameters, bad
programme files, an unwritable ``--out``, ...).

Each command imports the library modules it runs inside its own function,
and the library imports numpy only where it builds arrays.  So ``--help``,
usage errors, ``analyze``, ``attack margin``, ``scan eps``, ``account
sensitivity`` and ``account budget`` start without numpy, and so do the
uniform law of ``account delta`` and of ``attack bound-disclosure`` without
``--streams``.  A law's options (exit 1) and a command's cheap rules are
checked before :func:`_law_pmf` or :func:`_spec_for` builds the law's table.
"""

from __future__ import annotations

import argparse
import errno
import json
import math
import os
import sys
from importlib import resources
from typing import TYPE_CHECKING

from . import __version__
from .errors import DomainError

if TYPE_CHECKING:
    from . import noise, tables

_DEMOS = {
    "sex-age": "demo_sex_age.json",
    "duplicated": "duplicated_tables.json",
    "desk": "desk_programme.json",
}


class UsageError(Exception):
    """A malformed command line or config file: exit 1."""


def _read_input(path: str | None, bundled: str | None = None) -> str:
    """The one reader of the files the CLI reads: the text of ``path``, or of the bundled data file ``bundled``
    when the option is absent (None).  A path it cannot open or decode, "" included, is a domain error."""
    if path is None:
        return resources.files("sdcnoise.data").joinpath(bundled).read_text(encoding="utf-8")
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise DomainError(f"cannot read {path}: {exc}") from exc


def _load_programme_arg(value: str) -> tables.TableProgramme:
    """The programme of a bundled demo name or of any other word, read as a path."""
    from . import tables
    demo = _DEMOS.get(value)
    return tables.parse_programme(_read_input(None if demo else value, demo))


def _resolve_seed(seed: int | None) -> int:
    if seed is None:
        import secrets
        seed = secrets.randbelow(2**31)
        print(f"generated seed: {seed}", file=sys.stderr)
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
        raise UsageError(f"{what} has more than {_MAX_ROWS} rows")


def _unwritable(out: str, exc: OSError) -> DomainError:
    """The one error of an ``--out`` that cannot be written, from :func:`_check_out` or :func:`_write`."""
    return DomainError(f"cannot write {out}: {exc.strerror or exc}")


def _check_out(out: str | None) -> None:
    """The domain error :func:`_write` gives for an ``--out`` it cannot open, raised before the command's work."""
    if out is None:
        return
    parent = os.path.dirname(out) or "."
    try:
        os.stat(parent)  # a missing directory, or a file on the way to it
        code = (errno.ENOENT if not out else errno.ENOTDIR if not os.path.isdir(parent)
                else errno.EISDIR if os.path.isdir(out)
                else 0 if os.access(out if os.path.exists(out) else parent, os.W_OK) else errno.EACCES)
        if code:
            raise OSError(code, os.strerror(code))
    except OSError as exc:
        raise _unwritable(out, exc) from exc


def _format_value(v) -> str:
    return "" if v is None else str(int(v) if isinstance(v, bool) else v)


def _write(out: str | None, command: str, result) -> None:
    """The one writer of a command's result, to ``out`` or stdout: a dict as JSON, an attack report as its JSON,
    a table ``(params, columns, rows)`` as ``#`` lines of version, command and parameters, then CSV."""
    if isinstance(result, dict):
        text = json.dumps(result, indent=2)
    elif isinstance(result, tuple):
        params, columns, rows = result
        header = [f"sdcnoise {__version__}", f"command: {command}", *(f"{k}: {v}" for k, v in params.items())]
        lines = [f"# {line}" for line in header] + [",".join(columns)]
        text = "\n".join(lines + [",".join(_format_value(v) for v in row) for row in rows])
    else:
        text = result.to_json()
    if out is None:
        sys.stdout.write(text + "\n")
        return
    try:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    except OSError as exc:
        raise _unwritable(out, exc) from exc


def _at_least(low: int):
    """The type of an integer option whose values start at ``low``."""
    def convert(text: str) -> int:
        if int(text) < low:
            raise argparse.ArgumentTypeError(f"{int(text)} is not in the range x>={low}.")
        return int(text)
    convert.__name__ = "int"  # argparse names the type of a word int() rejects
    return convert


# Each command's function and options: (flag, keyword, type, default, choices, required, repeatable, help).
_COMMANDS: dict[str, tuple] = {}


def _opt(flag, type=str, default=None, dest=None, choices=None, required=False, multiple=False, help=None) -> tuple:
    """An option (``--on/--off`` for a pair of type bool, no dashes for the positional argument)."""
    dest = dest or flag.split("/")[0].lstrip("-").replace("-", "_").lower()
    return flag, dest, type, default, choices, required, multiple, help


def _command(name: str, *options: tuple):
    """Register the function as the command ``name`` with its options and then ``--out``."""
    def register(fn):
        _COMMANDS[name] = fn, [*options, _opt("--out")]
        return fn
    return register


_GROUPS = {"attack": "Run one of the attack simulations.", "utility": "Small-area distortion analysis.",
           "scan": "Parameter-space constraint grids.", "account": "Differential-privacy accounting helpers."}
# The words click's boolean type read, which a config file may give for an on/off pair.
_FLAG_WORDS = {**dict.fromkeys(("1", "true", "t", "yes", "y", "on"), True),
               **dict.fromkeys(("0", "false", "f", "no", "n", "off"), False)}


# The options each noise law reads: (required, optional).  ``ptable`` and ``ck`` name one law.
_LAW_OPTIONS = {
    "laplace": ({"--eps"}, set()),
    "geometric": ({"--eps"}, {"--e"}),
    "uniform": ({"--e"}, set()),
    "ptable": ({"--v", "--e"}, set()),
    "ck": ({"--v", "--e"}, set()),
}


def _check_law_options(law: str, eps: float | None, variance: float | None, bound: int | None) -> None:
    """Usage error for a missing option the law needs or a given option it does not read.

    So no output records a parameter that did not shape the noise.  Each command
    with a law option calls this first, before its cheap checks and the law's table.
    """
    required, optional = _LAW_OPTIONS[law]
    for flag, value in (("--eps", eps), ("--v", variance), ("--e", bound)):
        if value is None and flag in required:
            raise UsageError(f"{flag} is required for the {law} law")
        if value is not None and flag not in required | optional:
            raise UsageError(f"{flag} is not read by the {law} law")


def _spec_for(law: str, eps: float | None, variance: float | None, bound: int | None) -> noise.NoiseSpec:
    """The noise spec of a law other than uniform (``ptable`` is ``ck``'s law), from checked options."""
    from . import noise
    if law == "laplace":
        return noise.Laplace(epsilon=eps)
    if law == "geometric":
        if bound is None:
            return noise.TwoTailedGeometric(epsilon=eps)
        return noise.TruncatedLaplace(epsilon=eps, bound=bound)
    return noise.CellKey(variance=variance, bound=bound)


def _law_pmf(law: str, eps: float | None, variance: float | None, bound: int) -> list[float]:
    """The probabilities of {-E..E} under a finite law (uniform, ptable, geometric with --e), from checked options."""
    if law == "uniform":
        from . import noise
        return noise.uniform_pmf(bound)
    return _spec_for(law, eps, variance, bound).ptable().probabilities.tolist()


@_command("ptable", _opt("--v", float, dest="variance", required=True, help="Noise variance V."),
          _opt("--e", int, dest="bound", required=True, help="Noise bound E."))
def cmd_ptable(variance, bound):
    """Generate a maximum-entropy lookup table and write it as CSV."""
    from . import noise
    ptable = noise.gen_ptable(variance, bound)
    return (
        {"V": variance, "E": bound},
        ["j", "p_j", "cumulative"],
        zip(range(-bound, bound + 1), ptable.probabilities.tolist(), ptable.cumulative.tolist()),
    )


@_command("analyze", _opt("PROGRAMME", required=True), _opt("--spsn/--no-spsn", bool, True),
          _opt("--geo-override", default=(), multiple=True,
               help="Cardinality override per geographic breakdown, e.g. GEO.M=429."),
          _opt("--order", default="ratio", choices=("ratio", "t")))
def cmd_analyze(programme, spsn, geo_override, order):
    """Rank every statistic of a programme by averaging risk (k/t^2) or by t.

    PROGRAMME is a JSON file path or one of the bundled demos:
    sex-age, duplicated, desk.
    """
    from . import redundancy
    prog = _load_programme_arg(programme)
    overrides = {}
    for item in geo_override:
        bid, _, value = item.partition("=")
        try:
            overrides[bid] = int(value)
        except ValueError:
            raise UsageError(f"Invalid value for --geo-override: needs ID=N, got {item!r}") from None
    stats = redundancy.rank_statistics(
        prog, spsn=spsn, geo_cardinalities=overrides or None, order=order
    )
    return (
        {"programme": programme, "spsn": spsn, "order": order, "geo_override": dict(overrides)},
        ["statistic", "spsn", "t", "k", "ratio", "opt_t", "opt_k", "opt_ratio"],
        (
            [s.target.label(), spsn, s.raw.t, s.raw.k, s.raw.ratio,
             s.optimized.t, s.optimized.k, s.optimized.ratio]
            for s in stats
        ),
    )


@_command("attack bound-disclosure", _opt("--dist", default="uniform", choices=("uniform", "ptable")),
          _opt("--e", int, dest="bound", required=True), _opt("--v", float, dest="variance"),
          _opt("--alpha", float, 0.68),
          _opt("--streams", _at_least(0), 0, help="Monte Carlo streams (0 = analytic only)."),
          _opt("--seed", _at_least(0)))
def cmd_bound_disclosure(dist, bound, variance, alpha, streams, seed):
    """Probability and 3-tuple complexity of disclosing the noise bound."""
    if seed is not None and streams == 0:
        raise UsageError("--seed is not read without --streams: the analytic figure samples nothing")
    _check_law_options(dist, None, variance, bound)
    from . import attacks, noise
    attacks.check_alpha(alpha)
    pmf = _law_pmf(dist, None, variance, bound)
    p1 = float(attacks.p1_exact(pmf, bound))
    m = attacks.tuples_needed(p1, alpha)
    if streams > 0:
        if not streams * m * 3 <= _MAX_DRAWS:  # m = inf when p1 = 0
            raise DomainError(f"p1 = {p1!r}, m = {m:.4g}: {streams} streams draw more than {_MAX_DRAWS} noise values")
        seed = _resolve_seed(seed)
        return attacks.bound_disclosure_mc(noise.PTable(bound=bound, probabilities=pmf), int(m), streams, seed)
    return attacks.AttackReport(
        attack="BoundDisclosure",
        probability=p1,
        m_required=None if m == float("inf") else int(m),
    )


@_command("attack margin", _opt("--e", int, dest="bound", required=True),
          _opt("--input", dest="input_path",
               help="CSV of constraint tuples (internal counts..., total); bundled demo by default."))
def cmd_margin(bound, input_path):
    """Scan constraint tuples for the all-extreme noise pattern."""
    from . import attacks
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
    return attacks.AttackReport(
        attack="MarginExploit",
        disclosed=[{"index": i, "recovered": list(r)} for i, r in found],
        mc_trials=len(rows),
        mc_successes=len(found),
    )


@_command("attack averaging", _opt("--v", float, dest="variance", required=True),
          _opt("--e", int, dest="bound", required=True), _opt("--k", int, required=True),
          _opt("--t", int, required=True), _opt("--trials", int, 1000), _opt("--seed", _at_least(0)),
          _opt("--xi", float, 0.5))
def cmd_averaging(variance, bound, k, t, trials, seed, xi):
    """Monte Carlo averaging attack on synthetic redundancy (k, t)."""
    if trials > 0 and k * trials > _MAX_DRAWS:  # a negative k or trials is check_averaging's domain error
        raise UsageError(f"--k {k} by --trials {trials} draws more than {_MAX_DRAWS} noise values")
    from . import attacks, noise
    attacks.check_averaging(k, t, trials)
    attacks.check_xi(xi)
    seed = _resolve_seed(seed)
    ptable = noise.gen_ptable(variance, bound)
    return attacks.averaging_mc(ptable, k, t, trials, seed, xi)


@_command("utility estimate", _opt("--areas"), _opt("--eps", float, required=True),
          _opt("--re", float, dest="re_threshold", required=True), _opt("--bin-width", _at_least(1), 20),
          _opt("--max-count", _at_least(1), 500))
def cmd_utility_estimate(areas, eps, re_threshold, bin_width, max_count):
    """Expected relative-error exceedances per count bin."""
    _check_rows(-(-max_count // bin_width), f"a histogram up to {max_count} in bins of {bin_width}")
    from . import utility
    records = utility.read_areas_text(_read_input(areas, "synth_areas.csv"))
    edges = list(range(0, max_count + bin_width, bin_width))
    hist = utility.observations_histogram(records, edges)
    estimates = utility.binned_distortion_estimate(hist, eps, re_threshold)
    return (
        {"eps": eps, "re": re_threshold, "bin_width": bin_width, "areas": areas or "bundled"},
        ["bin_left", "bin_right", "observations", "expected_exceed"],
        zip(hist.bin_edges, hist.bin_edges[1:], hist.bin_counts, estimates),
    )


@_command("utility sample", _opt("--areas"),
          _opt("--mech", default="laplace", choices=("laplace", "geometric", "ck")), _opt("--eps", float),
          _opt("--v", float, dest="variance"), _opt("--e", int, dest="bound"),
          _opt("--re", float, dest="re_thresholds", required=True, multiple=True), _opt("--seed", _at_least(0)))
def cmd_utility_sample(areas, mech, eps, variance, bound, re_thresholds, seed):
    """Sample noise on area counts and tally distortions per threshold."""
    _check_law_options(mech, eps, variance, bound)
    from . import utility
    thresholds = [utility.check_re_threshold(x) for x in re_thresholds]
    records = utility.read_areas_text(_read_input(areas, "synth_areas.csv"))
    spec = _spec_for(mech, eps, variance, bound)
    seed = _resolve_seed(seed)
    tallies = utility.sample_distortions(records, spec, seed, thresholds)
    return (
        {"mech": mech, "eps": eps, "V": variance, "E": bound, "areas": areas or "bundled", "seed": seed},
        ["re_threshold", "single", "broadband", "zero_hits"],
        ((t.re_threshold, t.single, t.broadband, t.zero_hits) for t in tallies),
    )


def _grid_range(lo: float, hi: float, step: float) -> list[float]:
    if not (all(map(math.isfinite, (lo, hi, step))) and step > 0 and hi >= lo):
        raise UsageError("need finite bounds and step, step > 0 and max >= min")
    # the grid has ceil of this many values; a span that overflows makes it inf
    rows = (hi + step / 2 - lo) / step
    _check_rows(rows, f"a grid from {lo} to {hi} in steps of {step}")
    # the values of np.arange(lo, hi + step / 2, step): lo, lo + step, then lo + i * d for d = (lo + step) - lo
    n, d = math.ceil(rows), (lo + step) - lo
    values = [lo, lo + step][:n] + [lo + i * d for i in range(2, n)]
    return [float(f"{v:.12g}") for v in values]


@_command("scan ve", _opt("--v-min", float, 0.5), _opt("--v-max", float, 6.0), _opt("--v-step", float, 0.5),
          _opt("--e-min", int, 1), _opt("--e-max", int, 12), _opt("--m-avail", float, required=True),
          _opt("--kt2", float), _opt("--alpha", float, 0.68))
def cmd_scan_ve(v_min, v_max, v_step, e_min, e_max, m_avail, kt2, alpha):
    """Scan the bounded-noise (V, E) plane."""
    v_values = _grid_range(v_min, v_max, v_step)
    if e_max < e_min:
        raise UsageError(f"--e-max {e_max} is below --e-min {e_min}: the E range is empty")
    _check_rows(len(v_values) * (e_max - e_min + 1), f"a {len(v_values)} by {e_max - e_min + 1} (V, E) grid")
    from . import utility
    grid = utility.scan_ve(v_values, list(range(e_min, e_max + 1)), m_avail, kt2=kt2, alpha=alpha)
    return {"m_avail": m_avail, "kt2": kt2, "alpha": alpha}, grid.columns, grid.rows()


@_command("scan eps", _opt("--eps-min", float, 0.05), _opt("--eps-max", float, 1.0), _opt("--eps-step", float, 0.01),
          _opt("--kt2", float, dest="kt2_values", required=True, multiple=True), _opt("--e-alpha", float, 20.0),
          _opt("--t-lau", float, required=True), _opt("--alpha", float, 0.68))
def cmd_scan_eps(eps_min, eps_max, eps_step, kt2_values, e_alpha, t_lau, alpha):
    """Scan the per-count privacy budget range."""
    eps_values = _grid_range(eps_min, eps_max, eps_step)
    from . import utility
    grid = utility.scan_eps(eps_values, list(kt2_values), e_alpha, t_lau, alpha=alpha)
    return {"kt2": list(kt2_values), "e_alpha": e_alpha, "t_lau": t_lau, "alpha": alpha}, grid.columns, grid.rows()


@_command("account delta", _opt("--dist", choices=("uniform", "geometric", "ptable"), required=True),
          _opt("--e", int, dest="bound", required=True), _opt("--v", float, dest="variance"),
          _opt("--eps", float, required=True))
def cmd_delta(dist, bound, variance, eps):
    """Tightest delta of a finite noise pmf at a given epsilon.

    The delta covers one count moving by one under one pmf. It does not cover
    SPSN cell keys, which release every empty cell at -E: a record alone in its
    cell is then perfectly distinguishable (delta = 1).
    """
    # --eps is the accounting epsilon; of these laws only the geometric one also reads it
    law_eps = eps if dist == "geometric" else None
    _check_law_options(dist, law_eps, variance, bound)
    from . import accounting
    accounting.check_delta_epsilon(eps)
    pmf = _law_pmf(dist, law_eps, variance, bound)
    delta = accounting.tightest_delta(dict(zip(range(-bound, bound + 1), pmf)), eps)
    return {"epsilon": eps, "delta": delta}


@_command("account sensitivity", _opt("PROGRAMME", required=True),
          _opt("--query", dest="queries", required=True, multiple=True,
               help="Statistic per flag: '*'-joined breakdown ids, or 'total'."),
          _opt("--spsn/--no-spsn", bool, False))
def cmd_sensitivity(programme, queries, spsn):
    """Global L1 sensitivity of a set of requested tabulations."""
    from . import accounting, tables
    prog = _load_programme_arg(programme)
    keys = []
    for q in queries:
        ids = frozenset() if q == "total" else frozenset(q.split("*"))
        keys.append(tables.StatisticKey(ids))
    delta = accounting.sensitivity(prog, keys, spsn=spsn)
    return {"delta": delta, "spsn": spsn}


@_command("account budget", _opt("--global-eps", float, required=True), _opt("--rounded/--exact", bool, True),
          _opt("--halving", int, help="Call index i of the halving schedule."))
def cmd_budget(global_eps, rounded, halving):
    """Per-table budget presets and the iterative halving schedule."""
    from . import accounting, noise
    payload: dict = {"global_eps": global_eps}
    table_eps = accounting.us_table_budget(global_eps, rounded=rounded)
    if table_eps == 0.0:
        raise DomainError(f"the per-table budget underflows to 0 at --global-eps {global_eps}")
    payload["table_eps"] = table_eps
    payload["table_noise_variance"] = noise.laplace_variance(table_eps)
    if halving is not None:
        eps_i = accounting.halving_schedule(global_eps, halving)
        if eps_i == 0.0:
            raise DomainError(f"the halving budget eps/2^i underflows to 0 at --halving {halving}")
        payload["halving_i"] = halving
        payload["halving_eps"] = eps_i
        payload["halving_noise_scale"] = noise.laplace_variance(eps_i) ** 0.5
    return payload


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        raise UsageError(message)


def _build_parser(words: list[str] = ()) -> _Parser:
    """The command tree, or only the path to the command ``words`` names (all 12 leaves: 3.5 ms, 2-core Xeon VM)."""
    def add(subparsers, name: str, doc: str) -> _Parser:
        parser = subparsers.add_parser(name, help=doc.split("\n")[0], description=doc,
                                       add_help=False, allow_abbrev=False)
        parser.add_argument("--help", action="help", help="Show this message and exit.")
        return parser

    root = _Parser(prog="sdcnoise", description="Disclosure-control noise analysis for static count outputs.",
                   add_help=False, allow_abbrev=False)
    root.add_argument("--version", action="version", version=f"sdcnoise, version {__version__}")
    root.add_argument("--config", help="JSON config file; keys mirror the command options, flags win.")
    root.add_argument("--help", action="help", help="Show this message and exit.")
    subparsers = {"": root.add_subparsers(metavar="COMMAND", required=True)}
    plain = [w for w in words if not w.startswith("-")]
    named = [] if "--help" in words else [n for n in _COMMANDS if n.split() == plain[:n.count(" ") + 1]]
    for name in named or _COMMANDS:
        (fn, options), (group, _, word) = _COMMANDS[name], name.rpartition(" ")
        if group not in subparsers:
            group_parser = add(subparsers[""], group, _GROUPS[group])
            subparsers[group] = group_parser.add_subparsers(metavar="COMMAND", required=True)
        leaf = add(subparsers[group], word, fn.__doc__)
        leaf.set_defaults(_command=(name, fn, options, leaf))
        for flag, dest, kind, default, choices, required, multiple, text in options:
            shown = "[required]" if required else default not in (None, ()) and f"[default: {default}]"
            shown = " ".join(filter(None, [text, shown]))
            if kind is bool:  # an on/off pair
                for each, value in zip(flag.split("/"), (True, False)):
                    leaf.add_argument(each, dest=dest, action="store_const", const=value, help=shown if value else None)
            elif flag.startswith("--"):
                leaf.add_argument(flag, dest=dest, type=kind, choices=choices, help=shown,
                                  action="append" if multiple else "store")
            else:
                leaf.add_argument(dest, nargs="?", metavar=flag, help=shown)
    return root


# Every option that takes a value.  Click gave it the next word, whatever that was;
# argparse takes -inf, -nan or -1e308 for an unknown option, so main joins the two.
_VALUE_FLAGS = {"--config"} | {
    flag for _, options in _COMMANDS.values() for flag, _, kind, *_ in options if flag[:2] == "--" and kind is not bool
}


def _config_words(path: str | None, command: str, options: list) -> list[str]:
    """The ``--config`` file's values for ``command``, one object per word of its name, as words of its flags."""
    if path is None:
        return []
    try:
        config = json.loads(_read_input(path))
    except DomainError as exc:
        raise UsageError(f"Invalid value for '--config': {exc}") from exc
    except ValueError as exc:
        raise UsageError(f"Invalid value for '--config': {path} is not JSON: {exc}") from exc
    if not (isinstance(config, dict) and all(isinstance(v, dict) for v in config.values())):
        raise UsageError(f"Invalid value for '--config': {path} must map command names to objects")
    parts = command.split()
    for depth, word in enumerate(parts):  # each key of the top object, then of the group's, names a command
        names = list(dict.fromkeys(n.split()[depth] for n in _COMMANDS if n.split()[:depth] == parts[:depth]))
        unknown = [key for key in config if key not in names]
        if unknown:
            raise UsageError(f"Invalid value for '--config': {path} gives {' '.join([*parts[:depth], unknown[0]])!r}: "
                             f"no command has that name ({' '.join(parts[:depth]) or 'sdcnoise'} has {', '.join(names)})")
        config = config.get(word, {})
    known = [dest for _, dest, *_ in options]
    unknown = [key for key in config if key not in known] if isinstance(config, dict) else [config]
    if unknown:
        raise UsageError(f"Invalid value for '--config': {path} gives {command!r} {unknown[0]!r}: "
                         f"it takes an object of the keys {', '.join(known)}")
    words = []
    for flag, dest, kind, *_, multiple, _ in options:
        value = config.get(dest)
        if value is not None and kind is bool:
            on = _FLAG_WORDS.get(str(value).strip().lower())
            if on is None:
                raise UsageError(f"Invalid value for {flag!r} in {path}: {value!r} is not a boolean")
            words.append(flag.split("/")[not on])
        elif value is not None:
            values = value if multiple and isinstance(value, list) else [value]
            words += [f"{flag}={v}" if flag.startswith("--") else str(v) for v in values]
    return words


def main(argv=None) -> None:
    words = []
    for word in sys.argv[1:] if argv is None else argv:
        if words and words[-1] in _VALUE_FLAGS:
            words[-1] += "=" + word
        else:
            words.append(word)
    try:
        args = vars(_build_parser(words).parse_args(words))
        name, run, options, leaf = args.pop("_command")
        config = vars(leaf.parse_args(_config_words(args.pop("config"), name, options)))  # converted as flags
        values = {}
        for flag, dest, _, default, _, required, *_ in options:
            value = config[dest] if args[dest] is None else args[dest]
            if value is None and required:
                raise UsageError(f"Missing {'option' if flag.startswith('--') else 'argument'} {flag!r}.")
            values[dest] = default if value is None else value
        out = values.pop("out")
        _check_out(out)
        _write(out, name, run(**values))
    except UsageError as exc:
        print(f"Error: {exc}", file=sys.stderr)
        sys.exit(1)
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        sys.exit(2)
    sys.exit(0)
