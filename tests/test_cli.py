import argparse
import contextlib
import csv
import hashlib
import inspect
import io
import json
import math
import os
import shlex
import subprocess
import sys
import time
from importlib import resources
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import sdcnoise
from sdcnoise import __version__, attacks, cli, noise, tables, utility
from sdcnoise.attacks import averaging_success, p1_exact, tuples_needed
from sdcnoise.noise import TruncatedLaplace, gen_ptable, laplace_variance
from sdcnoise.utility import read_areas_text, sample_distortions
from sdcnoise.accounting import sensitivity, us_table_budget
from sdcnoise.tables import StatisticKey, parse_programme


def child_env():
    """The environment for a ``python -m sdcnoise`` child: the tested package's ``src`` first on PYTHONPATH."""
    src = Path(sdcnoise.__file__).parents[1]
    return {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))}


def run_cli(*args, check=True):
    proc = subprocess.run(
        [sys.executable, "-m", "sdcnoise", *args],
        capture_output=True,
        text=True,
        env=child_env(),
    )
    if check:
        assert proc.returncode == 0, proc.stderr
    return proc


def run_in_process(*args):
    """``cli.main`` in this process, as the benchmark's in-process runner calls it: (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            cli.main(list(args))
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def _rows(text):
    lines = [l for l in text.splitlines() if l and not l.startswith("#")]
    return list(csv.DictReader(io.StringIO("\n".join(lines))))


def test_ptable_csv(tmp_path):
    out = tmp_path / "p.csv"
    run_cli("ptable", "--v", "2", "--e", "5", "--out", str(out))
    rows = _rows(out.read_text())
    assert len(rows) == 11
    variance = sum(float(r["p_j"]) * int(r["j"]) ** 2 for r in rows)
    assert variance == pytest.approx(2.0, abs=1e-9)
    assert f"sdcnoise {__version__}" in out.read_text()


def test_ptable_uniform():
    proc = run_cli("ptable", "--v", "4", "--e", "3")
    rows = _rows(proc.stdout)
    assert all(float(r["p_j"]) == pytest.approx(1 / 7) for r in rows)


def test_ptable_infeasible_exit_code():
    proc = run_cli("ptable", "--v", "10", "--e", "3", check=False)
    assert proc.returncode == 2
    assert "exceeds" in proc.stderr


def test_usage_error_exit_code():
    proc = run_cli("ptable", "--v", "2", check=False)
    assert proc.returncode == 1
    proc = run_cli("frobnicate", check=False)
    assert proc.returncode == 1


def test_analyze_matches_library():
    proc = run_cli("analyze", "sex-age")
    rows = _rows(proc.stdout)
    total = next(r for r in rows if r["statistic"] == "total")
    assert (total["t"], total["k"], total["ratio"]) == ("4", "9", "0.5625")
    sex = next(r for r in rows if r["statistic"] == "SEX")
    assert (sex["t"], sex["k"], sex["ratio"]) == ("2", "3", "0.75")
    age = next(r for r in rows if r["statistic"] == "AGE")
    assert (age["t"], age["k"]) == ("2", "3")
    cell = next(r for r in rows if r["statistic"] == "AGE*SEX")
    assert (cell["t"], cell["k"], cell["ratio"]) == ("1", "1", "1.0")


def test_analyze_spsn_doubles_t():
    with_spsn = _rows(run_cli("analyze", "duplicated", "--spsn").stdout)
    without = _rows(run_cli("analyze", "duplicated", "--no-spsn").stdout)
    for row in with_spsn:
        twin = next(r for r in without if r["statistic"] == row["statistic"])
        assert int(twin["t"]) == 2 * int(row["t"])


def test_attack_bound_disclosure():
    proc = run_cli("attack", "bound-disclosure", "--dist", "uniform", "--e", "2", "--alpha", "0.68")
    report = json.loads(proc.stdout)
    assert report["m_required"] == 7
    assert report["probability"] == pytest.approx(0.16)


def test_attack_margin_bundled_fixture():
    proc = run_cli("attack", "margin", "--e", "2")
    report = json.loads(proc.stdout)
    assert report["disclosed"] == [{"index": 0, "recovered": [5, 4, 9]}]


def test_attack_averaging_seeded():
    proc = run_cli(
        "attack", "averaging", "--v", "2", "--e", "10",
        "--k", "1000", "--t", "100", "--trials", "1000", "--seed", "1",
    )
    report = json.loads(proc.stdout)
    assert 700 <= report["mc_successes"] <= 780
    assert report["probability"] == pytest.approx(
        averaging_success(2.0, 1000, 100)
    )
    assert report["seed"] == 1


def test_attack_averaging_generates_seed_when_missing():
    proc = run_cli(
        "attack", "averaging", "--v", "2", "--e", "5",
        "--k", "10", "--t", "5", "--trials", "10",
    )
    assert "generated seed:" in proc.stderr


def test_utility_estimate():
    proc = run_cli("utility", "estimate", "--eps", "0.1", "--re", "0.5")
    rows = _rows(proc.stdout)
    assert len(rows) == 25
    for row in rows:
        expect = int(row["observations"]) * np.exp(-0.1 * 0.5 * float(row["bin_right"]))
        assert float(row["expected_exceed"]) == pytest.approx(expect, rel=1e-12)


def test_utility_sample_deterministic():
    args = ("utility", "sample", "--mech", "laplace", "--eps", "0.1",
            "--re", "0.5", "--seed", "3")
    assert run_cli(*args).stdout == run_cli(*args).stdout


def test_scan_ve_uniform_arithmetic():
    proc = run_cli("scan", "ve", "--v-min", "2", "--v-max", "2", "--v-step", "1",
                   "--e-min", "2", "--e-max", "2", "--m-avail", "2.8e7")
    rows = _rows(proc.stdout)
    assert float(rows[0]["p1"]) == pytest.approx(20 / 125)
    assert int(rows[0]["m_required"]) == tuples_needed(0.16, 0.68)


def test_scan_eps_band_boundaries():
    proc = run_cli("scan", "eps", "--eps-min", "0.05", "--eps-max", "1.0",
                   "--eps-step", "0.005", "--kt2", "0.0118", "--kt2", "0.112",
                   "--e-alpha", "20", "--t-lau", "68")
    rows = _rows(proc.stdout)
    relaxed = [float(r["eps"]) for r in rows if r["band_relaxed"] == "1"]
    conservative = [float(r["eps"]) for r in rows if r["band_conservative"] == "1"]
    # lower boundary is the utility floor near 0.27 for both bands
    assert min(relaxed) == pytest.approx(0.27, abs=0.005)
    assert min(conservative) == pytest.approx(0.27, abs=0.005)
    assert max(conservative) == pytest.approx(0.305, abs=0.005)


def test_scan_determinism_byte_identical():
    args = ("scan", "ve", "--v-min", "1", "--v-max", "3", "--v-step", "0.5",
            "--e-min", "2", "--e-max", "6", "--m-avail", "1000", "--kt2", "0.1")
    assert run_cli(*args).stdout == run_cli(*args).stdout


def test_account_delta_matches_library():
    proc = run_cli("account", "delta", "--dist", "uniform", "--e", "2", "--eps", "5")
    payload = json.loads(proc.stdout)
    assert payload["delta"] == pytest.approx(1 / 5)


def test_account_sensitivity():
    proc = run_cli("account", "sensitivity", "sex-age",
                   "--query", "SEX", "--query", "total")
    payload = json.loads(proc.stdout)
    prog = parse_programme(
        {
            "breakdowns": [
                {"id": "SEX", "categories": ["F", "M"]},
                {"id": "AGE", "categories": ["young", "old"]},
            ],
            "tables": [{"id": "T1", "breakdowns": ["SEX", "AGE"]}],
        }
    )
    expected = sensitivity(prog, [StatisticKey(frozenset({"SEX"})), StatisticKey(frozenset())])
    assert payload["delta"] == expected == 2


def test_account_budget():
    proc = run_cli("account", "budget", "--global-eps", "0.25")
    payload = json.loads(proc.stdout)
    assert payload["table_eps"] == pytest.approx(us_table_budget(0.25))
    assert payload["table_noise_variance"] == pytest.approx(laplace_variance(0.025))


def test_config_file_supplies_defaults(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"ptable": {"variance": 4.0, "bound": 3}}))
    from_cfg = run_cli("--config", str(cfg), "ptable")
    assert _rows(from_cfg.stdout)[0]["p_j"] == repr(float(gen_ptable(4.0, 3).probabilities[0]))
    # explicit flags win over the config file
    overridden = run_cli("--config", str(cfg), "ptable", "--e", "5")
    assert len(_rows(overridden.stdout)) == 11


def test_config_file_reads_group_commands_lists_and_on_off_pairs(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"scan": {"eps": {"kt2_values": [0.1, 0.2], "t_lau": 68}}, "analyze": {"spsn": "no"},
                               "account": {"budget": {"global_eps": 0.5, "rounded": False}}}))
    for command, flags in [(["scan", "eps"], ["--kt2", "0.1", "--kt2", "0.2", "--t-lau", "68"]),
                           (["analyze", "desk"], ["--no-spsn"]),
                           (["account", "budget"], ["--global-eps", "0.5", "--exact"])]:
        assert run_cli("--config", str(cfg), *command).stdout == run_cli(*command, *flags).stdout
    # a given repeatable flag replaces the config file's list
    assert run_cli("--config", str(cfg), "scan", "eps", "--kt2", "0.3").stdout == run_cli(
        "scan", "eps", "--kt2", "0.3", "--t-lau", "68").stdout
    # a config value is read as the option's own value would be
    cfg.write_text(json.dumps({"ptable": {"variance": 2.0, "bound": "x"}, "analyze": {"spsn": "maybe"}}))
    for command in (["ptable"], ["analyze", "desk"]):
        proc = run_cli("--config", str(cfg), *command, check=False)
        assert (proc.returncode, proc.stdout) == (1, "")
        assert proc.stderr.splitlines()[-1].startswith("Error: ")


_SCAN_VE_KEYS = "v_min, v_max, v_step, e_min, e_max, m_avail, kt2, alpha, out"


@pytest.mark.parametrize("config, command, shown, keys", [
    ({"scan": {"ve": {"m_avail": 2.8e7, "kt2": 0.1, "vmax": 2.0}}}, ["scan", "ve"], "'vmax'", _SCAN_VE_KEYS),
    ({"account": {"budget": {"global_eps": 1.0, "halvng": 3}}}, ["account", "budget"], "'halvng'",
     "global_eps, rounded, halving, out"),
    ({"scan": {"ve": 5}}, ["scan", "ve", "--m-avail", "2.8e7"], "5", _SCAN_VE_KEYS),
], ids=["misspelt-option", "misspelt-optional-option", "not-an-object"])
def test_config_file_refuses_what_its_command_does_not_read(tmp_path, config, command, shown, keys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    code, out, err = run_in_process("--config", str(cfg), *command)
    assert (code, out) == (1, "")
    assert err.splitlines()[-1] == (f"Error: Invalid value for '--config': {cfg} gives {' '.join(command[:2])!r} "
                                    f"{shown}: it takes an object of the keys {keys}")
    # the objects of other commands are not read, so they may hold anything
    cfg.write_text(json.dumps({"scan": {"eps": {"vmax": 2.0}, "ve": {"m_avail": 2.8e7}}}))
    assert run_in_process("--config", str(cfg), "scan", "ve") == run_in_process("scan", "ve", "--m-avail", "2.8e7")


@pytest.mark.parametrize("config, command, shown, names", [
    ({"ptabel": {"variance": 2.0, "bound": 5}}, ["ptable", "--v", "3", "--e", "5"], "ptabel",
     "sdcnoise has ptable, analyze, attack, utility, scan, account"),
    ({"scan": {"vee": {"m_avail": 1}}}, ["scan", "ve", "--m-avail", "2.8e7"], "scan vee", "scan has ve, eps"),
], ids=["misspelt-command", "misspelt-group-command"])
def test_config_file_refuses_a_key_that_names_no_command(tmp_path, config, command, shown, names):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    code, out, err = run_in_process("--config", str(cfg), *command)
    assert (code, out) == (1, "")
    assert err.splitlines()[-1] == (f"Error: Invalid value for '--config': {cfg} gives {shown!r}: "
                                    f"no command has that name ({names})")
    # the group objects of other commands are not read
    cfg.write_text(json.dumps({"attack": {"averagin": {}}, "scan": {"ve": {"m_avail": 2.8e7}}}))
    assert run_in_process("--config", str(cfg), "scan", "ve") == run_in_process("scan", "ve", "--m-avail", "2.8e7")


# Each command that reads a file, with its other options, and the option naming the file
# (PROGRAMME: the positional argument).
FILE_INPUTS = {
    "analyze": (["analyze"], "PROGRAMME"),
    "account sensitivity": (["account", "sensitivity", "--query", "SEX"], "PROGRAMME"),
    "utility estimate": (["utility", "estimate", "--eps", "0.1", "--re", "0.5"], "--areas"),
    "utility sample": (["utility", "sample", "--mech", "ck", "--v", "2", "--e", "5", "--re", "0.5", "--seed", "1"],
                       "--areas"),
    "attack margin": (["attack", "margin", "--e", "2"], "--input"),
}
UNREADABLE = {"missing": "{tmp}/missing.csv", "empty-name": "", "directory": "{tmp}", "undecodable": "{tmp}/binary"}


@pytest.mark.parametrize("case", UNREADABLE)
@pytest.mark.parametrize("command", FILE_INPUTS)
def test_every_input_file_is_read_by_one_reader(tmp_path, monkeypatch, command, case):
    (tmp_path / "binary").write_bytes(b"\xff\xfe\x00{")
    fail_to_solve_or_draw(monkeypatch)
    words, flag = FILE_INPUTS[command]
    path = UNREADABLE[case].format(tmp=tmp_path)
    code, out, err = run_in_process(*words, *([path] if flag == "PROGRAMME" else [flag, path]))
    assert (code, out) == (2, "")
    assert err.startswith(f"error: cannot read {path}: ") and len(err.splitlines()) == 1, err


@pytest.mark.parametrize("case", ["missing", "empty-name", "directory", "malformed"])
def test_config_file_read_failure_is_a_usage_error(tmp_path, case):
    (tmp_path / "malformed").write_text("{bad")
    path = {**UNREADABLE, "malformed": "{tmp}/malformed"}[case].format(tmp=tmp_path)
    code, out, err = run_in_process("--config", path, "ptable", "--v", "2", "--e", "5")
    assert (code, out) == (1, "")
    shown = f"{path} is not JSON: " if case == "malformed" else f"cannot read {path}: "
    assert err.splitlines()[-1].startswith(f"Error: Invalid value for '--config': {shown}")


def test_empty_out_is_refused_before_the_work(monkeypatch):
    fail_to_solve_or_draw(monkeypatch)
    assert run_in_process("ptable", "--v", "2", "--e", "2", "--out", "") == (
        2, "", "error: cannot write : No such file or directory\n")


def test_one_reader_opens_every_file_the_cli_reads():
    source = Path(cli.__file__).read_text(encoding="utf-8")
    owners = "".join(inspect.getsource(fn) for fn in (cli._read_input, cli._write))
    assert source.count("open(") == owners.count("open(") == 2
    assert not hasattr(tables, "load_programme")


@pytest.mark.parametrize(
    "args",
    [
        ("analyze", "/nonexistent.json"),
        ("attack", "bound-disclosure", "--dist", "ptable", "--v", "2", "--e", "40",
         "--streams", "10", "--seed", "1"),
    ],
    ids=["missing-programme", "bound-disclosure-p1-zero"],
)
def test_domain_probes_exit_2_without_traceback(args):
    proc = run_cli(*args, check=False)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith("error: ")


def test_scan_ve_subnormal_p1_has_no_tuple_count():
    proc = run_cli("scan", "ve", "--v-min", "2", "--v-max", "2", "--e-min", "32",
                   "--e-max", "32", "--m-avail", "2.8e7", check=False)
    assert proc.returncode == 0
    assert "Traceback" not in proc.stderr
    (row,) = _rows(proc.stdout)
    assert 0.0 < float(row["p1"]) < 1e-300
    assert row["m_required"] == ""
    assert row["e_disclosure_safe"] == "1"


# Bad option values are usage errors (exit 1); bad data, unwritable outputs and
# infeasible, NaN or infinite parameters are domain errors (exit 2).  ``{tmp}`` is a
# directory holding the fixture files written below.
EXIT_PROBES = {
    "out-unwritable": (["analyze", "desk", "--out", "/nonexistent/dir/x.csv"], 2),
    "config-malformed": (["--config", "{tmp}/bad.json", "ptable"], 1),
    "config-not-object": (["--config", "{tmp}/list.json", "ptable"], 1),
    "geo-override-not-int": (["analyze", "desk", "--geo-override", "GEO.M=abc"], 1),
    "bin-width-zero": (["utility", "estimate", "--eps", "0.1", "--re", "0.5", "--bin-width", "0"], 1),
    "max-count-zero": (["utility", "estimate", "--eps", "0.1", "--re", "0.5", "--max-count", "0"], 1),
    "scan-v-min-nan": (["scan", "ve", "--v-min", "nan", "--m-avail", "1000"], 1),
    "scan-e-range-empty": (["scan", "ve", "--m-avail", "2.8e7", "--e-min", "5", "--e-max", "1"], 1),
    "scan-eps-step-inf": (["scan", "eps", "--eps-step", "inf", "--kt2", "0.1", "--t-lau", "68"], 1),
    "js-removed": (["ptable", "--v", "2", "--e", "5", "--js", "1"], 1),
    "areas-not-int": (["utility", "estimate", "--eps", "0.1", "--re", "0.5",
                       "--areas", "{tmp}/bad_areas.csv"], 2),
    "areas-int64-overflow": (["utility", "estimate", "--eps", "0.1", "--re", "0.5",
                              "--areas", "{tmp}/big_areas.csv"], 2),
    "areas-wrapping-sum": (["utility", "estimate", "--eps", "0.1", "--re", "0.5",
                            "--areas", "{tmp}/wrap_areas.csv"], 2),
    "sample-areas-wrapping-sum": (["utility", "sample", "--mech", "laplace", "--eps", "0.1", "--re", "0.5",
                            "--seed", "1", "--areas", "{tmp}/wrap_areas.csv"], 2),
    "areas-empty": (["utility", "estimate", "--eps", "0.1", "--re", "0.5", "--areas", "{tmp}/empty.csv"], 2),
    "areas-directory": (["utility", "estimate", "--eps", "0.1", "--re", "0.5", "--areas", "{tmp}"], 2),
    "margin-not-int": (["attack", "margin", "--e", "2", "--input", "{tmp}/bad_margin.csv"], 2),
    "ptable-v-nan": (["ptable", "--v", "nan", "--e", "3"], 2),
    "averaging-v-nan": (["attack", "averaging", "--v", "nan", "--e", "5", "--k", "10", "--t", "5",
                         "--trials", "10", "--seed", "1"], 2),
    "sample-ck-v-nan": (["utility", "sample", "--mech", "ck", "--v", "nan", "--e", "3",
                         "--re", "0.5", "--seed", "1"], 2),
    "sample-eps-nan": (["utility", "sample", "--eps", "nan", "--re", "0.5", "--seed", "1"], 2),
    "scan-m-avail-nan": (["scan", "ve", "--m-avail", "nan"], 2),
    # every E is checked as a bound (1..10**6) before the first cell, whatever V is
    "scan-ve-e-zero": (["scan", "ve", "--v-min", "1", "--v-max", "1", "--e-min", "0", "--e-max", "0",
                        "--m-avail", "10"], 2),
    "scan-ve-e-negative": (["scan", "ve", "--v-min", "1", "--v-max", "1", "--e-min", "-2", "--e-max", "-2",
                            "--m-avail", "10"], 2),
    # alpha and --kt2 are checked even on a grid whose every cell is infeasible
    "scan-ve-alpha-infeasible": (["scan", "ve", "--m-avail", "2.8e7", "--alpha", "5", "--v-min", "100",
                                  "--v-max", "100", "--e-min", "1", "--e-max", "2"], 2),
    "scan-ve-kt2-infeasible": (["scan", "ve", "--m-avail", "1", "--kt2", "0", "--v-min", "100", "--v-max", "100",
                                "--e-min", "1", "--e-max", "1"], 2),
    # k * V underflows to 0 at V = 0.5: a noise spread below float resolution pins the target
    "scan-ve-kt2-subnormal": (["scan", "ve", "--m-avail", "1", "--kt2", "5e-324", "--v-min", "0.5",
                               "--v-max", "0.5", "--e-min", "1", "--e-max", "1"], 0),
    "seed-negative": (["attack", "averaging", "--v", "2", "--e", "5", "--k", "10", "--t", "5",
                       "--trials", "10", "--seed", "-1"], 1),
    "budget-halving-600": (["account", "budget", "--global-eps", "1", "--halving", "600"], 2),
    "budget-halving-2000": (["account", "budget", "--global-eps", "1", "--halving", "2000"], 2),
    "budget-eps-tiny": (["account", "budget", "--global-eps", "1e-200"], 2),
    "budget-eps-inf": (["account", "budget", "--global-eps", "inf"], 2),
    # 0.10 * eps and 0.1125 * eps both round to 0 at the smallest subnormal eps
    "budget-table-underflow-rounded": (["account", "budget", "--global-eps", "5e-324", "--rounded"], 2),
    "budget-table-underflow-exact": (["account", "budget", "--global-eps", "5e-324", "--exact"], 2),
    "geo-override-unknown": (["analyze", "desk", "--geo-override", "FOO=3"], 2),
    "geo-override-zero": (["analyze", "desk", "--geo-override", "GEO.M=0"], 2),
    "delta-eps-inf": (["account", "delta", "--dist", "uniform", "--e", "2", "--eps", "inf"], 2),
    "delta-geometric-eps-inf": (["account", "delta", "--dist", "geometric", "--eps", "inf", "--e", "50"], 2),
    "estimate-eps-inf": (["utility", "estimate", "--eps", "inf", "--re", "0.5"], 2),
    "sample-geometric-eps-inf": (["utility", "sample", "--mech", "geometric", "--eps", "inf",
                                  "--re", "0.5", "--seed", "1"], 2),
    "sample-geometric-eps-tiny": (["utility", "sample", "--mech", "geometric", "--eps", "1e-17",
                                   "--re", "0.5", "--seed", "1"], 2),
    "delta-geometric-eps-tiny": (["account", "delta", "--dist", "geometric", "--eps", "1e-17", "--e", "50"], 2),
    "delta-geometric-trunc-zero": (["account", "delta", "--dist", "geometric", "--eps", "0.5",
                                    "--e", "0"], 2),
    "delta-geometric-trunc-negative": (["account", "delta", "--dist", "geometric", "--eps", "0.5",
                                        "--e", "-2"], 2),
    "streams-negative": (["attack", "bound-disclosure", "--e", "2", "--streams", "-1"], 1),
    # the analytic figure samples nothing, so it reads no seed
    "bound-disclosure-seed-without-streams": (["attack", "bound-disclosure", "--dist", "uniform", "--e", "2",
                                               "--seed", "5"], 1),
    "scan-eps-variance-overflow": (["scan", "eps", "--eps-min", "1e-300", "--eps-max", "2e-300",
                                    "--eps-step", "1e-300", "--kt2", "0.1", "--t-lau", "68"], 2),
    # about 10**300 grid values: over the 10**6-row limit, refused before any value is made
    "scan-eps-grid-too-large": (["scan", "eps", "--eps-min", "0.1", "--eps-max", "1e300", "--eps-step", "1",
                                 "--kt2", "0.1", "--t-lau", "68"], 1),
    "programme-breakdowns-not-list": (["analyze", "{tmp}/breakdowns_int.json"], 2),
    "programme-tables-null": (["analyze", "{tmp}/tables_null.json"], 2),
    # an IRR weight of 10**401 has no float k/t^2
    "geo-override-overflow": (["analyze", "desk", "--geo-override", "GEO.M=1" + "0" * 400], 2),
    "averaging-xi-nan": (["attack", "averaging", "--v", "2", "--e", "10", "--k", "60", "--t", "10",
                          "--trials", "20", "--seed", "1", "--xi", "nan"], 2),
    "sample-areas-header-only": (["utility", "sample", "--mech", "laplace", "--eps", "0.1", "--re", "0.5",
                                  "--seed", "1", "--areas", "{tmp}/header_only.csv"], 0),
    # a command builds at most 10**6 rows (grid cells, eps values, histogram bins), checked
    # from the options: a grid or histogram over it is a usage error ...
    "scan-eps-step-tiny": (["scan", "eps", "--kt2", "0.1", "--t-lau", "68", "--eps-step", "1e-15"], 1),
    "scan-e-max-huge": (["scan", "ve", "--m-avail", "1", "--e-max", "1" + "0" * 20], 1),
    "scan-ve-v-step-tiny": (["scan", "ve", "--m-avail", "1", "--v-step", "0.000001"], 1),
    "scan-ve-product": (["scan", "ve", "--m-avail", "1", "--v-step", "0.00005"], 1),  # 110 001 V by 12 E
    "estimate-max-count-huge": (["utility", "estimate", "--eps", "0.1", "--re", "0.5",
                                "--max-count", "1" + "0" * 20], 1),
    # an averaging simulation of more than 10**9 draws (k * trials) is a usage error too ...
    "averaging-draws-huge": (["attack", "averaging", "--v", "2", "--e", "5", "--k", "100000000000", "--t", "100",
                              "--trials", "2", "--seed", "1"], 1),
    # ... and a bound-disclosure simulation of more than 10**9 draws (3 per tuple, streams * m * 3)
    # a domain error: m is 1.1 * 10**10 at E = 6, and 7 for uniform E = 2
    "bound-disclosure-e6-streams": (["attack", "bound-disclosure", "--dist", "ptable", "--v", "2", "--e", "6",
                                     "--streams", "10", "--seed", "1"], 2),
    "bound-disclosure-e8-streams": (["attack", "bound-disclosure", "--dist", "ptable", "--v", "2", "--e", "8",
                                     "--streams", "10", "--seed", "1"], 2),
    "bound-disclosure-e12-streams": (["attack", "bound-disclosure", "--dist", "ptable", "--v", "2", "--e", "12",
                                      "--streams", "10", "--seed", "1"], 2),
    "bound-disclosure-e20-streams": (["attack", "bound-disclosure", "--dist", "ptable", "--v", "2", "--e", "20",
                                      "--streams", "10", "--seed", "1"], 2),
    "bound-disclosure-streams-huge": (["attack", "bound-disclosure", "--dist", "uniform", "--e", "2",
                                       "--streams", "100000000000"], 2),
    "bound-disclosure-draws-over-cap": (["attack", "bound-disclosure", "--dist", "uniform", "--e", "2",
                                         "--streams", "47619048", "--seed", "1"], 2),  # 1 000 000 008 draws
    "bound-disclosure-over-row-cap": (["attack", "bound-disclosure", "--dist", "uniform", "--e", "2",
                                       "--streams", "150000", "--seed", "1"], 0),  # 1.05 * 10**6 tuples
    "bound-disclosure-e6-analytic": (["attack", "bound-disclosure", "--dist", "ptable", "--v", "2", "--e", "6",
                                      "--streams", "0"], 0),
    # every noise bound is at most 10**6, so no table of more than 2 * 10**6 + 1 values is built
    "ptable-e-huge": (["ptable", "--v", "2", "--e", "100000000"], 2),
    "bound-disclosure-e-huge": (["attack", "bound-disclosure", "--dist", "uniform", "--e", "100000000"], 2),
    "delta-geometric-e-huge": (["account", "delta", "--dist", "geometric", "--eps", "1", "--e", "100000000"], 2),
    "sample-ck-e-huge": (["utility", "sample", "--mech", "ck", "--v", "2", "--e", "100000000",
                         "--re", "0.5", "--seed", "1"], 2),
    "margin-e-huge": (["attack", "margin", "--e", "100000000"], 2),
    # the uniform law names its bound, not the variance E(E+1)/3 it would have
    "delta-uniform-e-zero": (["account", "delta", "--dist", "uniform", "--e", "0", "--eps", "1"], 2),
    "delta-uniform-e-negative": (["account", "delta", "--dist", "uniform", "--e", "-1", "--eps", "1"], 2),
    "bound-disclosure-uniform-e-zero": (["attack", "bound-disclosure", "--dist", "uniform", "--e", "0"], 2),
    "bound-disclosure-uniform-e-negative": (["attack", "bound-disclosure", "--dist", "uniform", "--e", "-1"], 2),
    # a value that looks like an option is the option's value, as click read it
    "ptable-v-minus-inf": (["ptable", "--v", "-inf", "--e", "3"], 2),
    "ptable-v-minus-1e308": (["ptable", "--v", "-1e308", "--e", "3"], 2),
    "scan-m-avail-minus-1e308": (["scan", "ve", "--m-avail", "-1e308"], 2),
    "averaging-xi-minus-inf": (["attack", "averaging", "--v", "2", "--e", "10", "--k", "60", "--t", "10",
                                "--trials", "20", "--seed", "1", "--xi", "-inf"], 2),
    # options are given in full: no abbreviation
    "estimate-bin-abbreviated": (["utility", "estimate", "--eps", "0.1", "--re", "0.5", "--bin", "5"], 1),
    "budget-global-abbreviated": (["account", "budget", "--global", "1"], 1),
    # a group without its command is a usage error, with nothing on stdout
    "no-command": ([], 1),
    "attack-no-command": (["attack"], 1),
}


@pytest.mark.parametrize("args, code", EXIT_PROBES.values(), ids=EXIT_PROBES.keys())
def test_exit_contract(tmp_path, args, code):
    (tmp_path / "bad.json").write_text("{bad")
    (tmp_path / "list.json").write_text("[1, 2]")
    (tmp_path / "bad_areas.csv").write_text("area_id,country,f,m,t\nA,X,1,2,3\nB,X,x,2,3\n")
    (tmp_path / "big_areas.csv").write_text(f"area_id,country,f,m,t\nA,X,1,2,3\nB,X,{10**20},1,{10**20 + 1}\n")
    (tmp_path / "wrap_areas.csv").write_text(f"area_id,country,f,m,t\nA,X,1,2,3\nB,X,{2**62},{2**62},{-(2**63)}\n")
    (tmp_path / "empty.csv").write_text("")
    (tmp_path / "header_only.csv").write_text("area_id,country,f,m,t\n")
    (tmp_path / "bad_margin.csv").write_text("5,4,9\n1,a,3\n")
    (tmp_path / "breakdowns_int.json").write_text(json.dumps({"breakdowns": 5, "tables": []}))
    (tmp_path / "tables_null.json").write_text(
        json.dumps({"breakdowns": [{"id": "SEX", "categories": ["F", "M"]}], "tables": None})
    )
    proc = run_cli(*(a.format(tmp=tmp_path) for a in args), check=False)
    assert proc.returncode == code, proc.stderr
    assert "Traceback" not in proc.stderr
    if code == 0:
        assert proc.stdout and proc.stderr == ""
    else:
        assert proc.stderr.strip()
    if code == 1:
        assert proc.stdout == ""
        assert proc.stderr.splitlines()[-1].startswith("Error: ")
    if code == 2:
        assert proc.stdout == ""
        assert proc.stderr.startswith("error: ")
        assert len(proc.stderr.splitlines()) == 1


# Every leaf of the command tree as a small valid invocation (E <= 12): its words, then each
# option it takes with the option's kind and value (None: left out of the valid invocation).
# PROGRAMME is the positional argument of analyze and account sensitivity.
EXIT_LEAVES = {
    "ptable": (["ptable"], {"--v": ("float", "2"), "--e": ("int", "5")}),
    "analyze": (["analyze"], {"PROGRAMME": ("file", "desk")}),
    "attack bound-disclosure": (["attack", "bound-disclosure", "--dist", "ptable"], {
        "--v": ("float", "2"), "--e": ("int", "2"), "--alpha": ("float", "0.68"),
        "--streams": ("int", "10"), "--seed": ("int", "1")}),
    "attack margin": (["attack", "margin"], {"--e": ("int", "2"), "--input": ("file", None)}),
    "attack averaging": (["attack", "averaging"], {
        "--v": ("float", "2"), "--e": ("int", "5"), "--k": ("int", "10"), "--t": ("int", "5"),
        "--trials": ("int", "10"), "--seed": ("int", "1"), "--xi": ("float", "0.5")}),
    "utility estimate": (["utility", "estimate"], {
        "--eps": ("float", "0.1"), "--re": ("float", "0.5"), "--bin-width": ("int", "20"),
        "--max-count": ("int", "100"), "--areas": ("file", None)}),
    "utility sample": (["utility", "sample", "--mech", "ck"], {
        "--v": ("float", "2"), "--e": ("int", "5"), "--re": ("float", "0.5"), "--seed": ("int", "1"),
        "--areas": ("file", None)}),
    "scan ve": (["scan", "ve"], {
        "--v-min": ("float", "1"), "--v-max": ("float", "2"), "--v-step": ("float", "1"), "--e-min": ("int", "1"),
        "--e-max": ("int", "3"), "--m-avail": ("float", "1000"), "--kt2": ("float", "0.1"),
        "--alpha": ("float", "0.68")}),
    "scan eps": (["scan", "eps"], {
        "--eps-min": ("float", "0.1"), "--eps-max": ("float", "0.2"), "--eps-step": ("float", "0.1"),
        "--kt2": ("float", "0.1"), "--e-alpha": ("float", "20"), "--t-lau": ("float", "68"),
        "--alpha": ("float", "0.68")}),
    "account delta": (["account", "delta", "--dist", "ptable"], {
        "--v": ("float", "2"), "--e": ("int", "5"), "--eps": ("float", "1")}),
    "account sensitivity": (["account", "sensitivity"], {
        "PROGRAMME": ("file", "sex-age"), "--query": ("str", "SEX")}),
    "account budget": (["account", "budget"], {"--global-eps": ("float", "1"), "--halving": ("int", "3")}),
}
HOSTILE = {
    "float": ["0", "-1", "nan", "inf", "-inf", "5e-324", "1e308"],
    "int": ["0", "-1", str(10**6 + 1), str(2**63)],
    "file": ["{tmp}/missing.csv", "{tmp}/empty.csv", "{tmp}", "{tmp}/garbled.txt", "{tmp}/binary.txt"],
    "out": ["{tmp}/missing/out.csv"],
}


def test_exit_leaves_cover_the_command_tree():
    def leaves(parser, words):
        groups = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
        if groups:
            return [leaf for name, sub in groups[0].choices.items() for leaf in leaves(sub, [*words, name])]
        return [" ".join(words)]

    assert sorted(leaves(cli._build_parser(), [])) == sorted(EXIT_LEAVES)


@pytest.fixture(scope="module")
def hostile_files(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("hostile")
    (tmp / "empty.csv").write_text("")
    (tmp / "garbled.txt").write_text('{bad,\n"x,1\n')
    (tmp / "binary.txt").write_bytes(b"\xff\xfe\x00{")
    return tmp


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_exit_contract_holds_for_one_hostile_option(hostile_files, data):
    leaf = data.draw(st.sampled_from(sorted(EXIT_LEAVES)), label="leaf")
    words, options = EXIT_LEAVES[leaf]
    options = {**options, "--out": ("out", None), "--config": ("file", None)}
    flag = data.draw(st.sampled_from([f for f, (kind, _) in options.items() if kind != "str"]), label="option")
    value = data.draw(st.sampled_from(HOSTILE[options[flag][0]]), label="value").format(tmp=hostile_files)
    options[flag] = options[flag][0], value
    config = options.pop("--config")[1]
    programme = [options.pop("PROGRAMME")[1]] if "PROGRAMME" in options else []
    args = [*(["--config", config] if config else []), *words, *programme]
    args += [a for f, (_, v) in options.items() if v is not None for a in (f, v)]
    code, out, err = run_in_process(*args)  # an exception or a warning escaping cli.main fails here
    assert code in (0, 1, 2), (args, err)
    if code:
        assert out == "", args
    if code == 2:
        assert err.startswith("error: ") and len(err.splitlines()) == 1, (args, err)


# Each law command as a valid invocation at the largest bound, E = 10**6, where building the
# law's table takes over a second, and values that the rule of each of its options rejects.
AT_THE_BOUND_CAP = {
    "ptable": ["ptable", "--v", "2", "--e", "1000000"],
    "attack bound-disclosure": ["attack", "bound-disclosure", "--dist", "ptable", "--v", "2", "--e", "1000000",
                                "--alpha", "0.68", "--streams", "10", "--seed", "1"],
    "attack averaging": ["attack", "averaging", "--v", "2", "--e", "1000000", "--k", "10", "--t", "5",
                         "--trials", "5", "--seed", "1", "--xi", "0.5"],
    "utility sample": ["utility", "sample", "--mech", "ck", "--v", "2", "--e", "1000000", "--re", "0.5",
                       "--seed", "1"],
    "account delta": ["account", "delta", "--dist", "ptable", "--v", "2", "--e", "1000000", "--eps", "1"],
}
REJECTED = {
    "--v": ["0", "-1", "nan", "inf", "1e308"], "--e": ["0", "-1", "1000001"], "--alpha": ["0", "1", "nan"],
    "--xi": ["0", "-1", "nan"], "--eps": ["-1", "nan", "inf"], "--re": ["0", "-1", "nan"], "--k": ["0", "-1"],
    "--t": ["0", "-1"], "--trials": ["0", "-1"], "--seed": ["-1"], "--streams": ["-1"],
}
REJECTIONS_AT_THE_CAP = sorted(
    [(leaf, flag, value)
     for leaf, args in AT_THE_BOUND_CAP.items()
     for flag in args if flag in REJECTED
     for value in REJECTED[flag]]
    # an --out in a missing directory, added to the valid invocation
    + [(leaf, "--out", "{tmp}/missing/x.csv") for leaf in AT_THE_BOUND_CAP]
)
# the in-process wall time of a rejection; a solve at E = 10**6 takes 1.2 s or more on a 2-core Xeon VM
REJECTION_BUDGET_S = 0.5


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(REJECTIONS_AT_THE_CAP))
@example(("attack averaging", "--xi", "-1"))
@example(("account delta", "--eps", "-1"))
def test_law_commands_reject_a_bad_option_before_the_table(hostile_files, rejection):
    leaf, flag, value = rejection
    args = list(AT_THE_BOUND_CAP[leaf])
    value = value.format(tmp=hostile_files)
    if flag in args:
        args[args.index(flag) + 1] = value
    else:
        args += [flag, value]
    start = time.perf_counter()
    code, out, err = run_in_process(*args)
    elapsed = time.perf_counter() - start
    assert code in (1, 2) and out == "", (args, err)
    if code == 2:
        assert err.startswith("error: ") and len(err.splitlines()) == 1, (args, err)
    assert elapsed < REJECTION_BUDGET_S, (args, elapsed)


def test_budget_halving_names_its_underflow():
    # the budget-halving-2000 probe: eps/2^i is 0, an epsilon the user never gave
    proc = run_cli(*EXIT_PROBES["budget-halving-2000"][0], check=False)
    assert proc.returncode == 2
    assert proc.stderr == "error: the halving budget eps/2^i underflows to 0 at --halving 2000\n"


@pytest.mark.parametrize("probe", ["budget-table-underflow-rounded", "budget-table-underflow-exact"])
def test_budget_names_its_table_budget_underflow(probe):
    # the per-table budget is 0, an epsilon the user never gave
    proc = run_cli(*EXIT_PROBES[probe][0], check=False)
    assert proc.returncode == 2
    assert proc.stderr == "error: the per-table budget underflows to 0 at --global-eps 5e-324\n"


# Every law choice of every command: the command with its fixed options, the law
# option and choice, the law options it needs, and a given option it does not read
# (None where the command has no such option).
LAW_VALUES = {"--eps": "0.5", "--v": "2", "--e": "5"}
LAW_CHOICES = [
    (["attack", "bound-disclosure", "--dist", "uniform"], ["--e"], "--v"),
    (["attack", "bound-disclosure", "--dist", "ptable"], ["--v", "--e"], None),
    (["account", "delta", "--dist", "uniform"], ["--eps", "--e"], "--v"),
    (["account", "delta", "--dist", "geometric"], ["--eps", "--e"], "--v"),
    (["account", "delta", "--dist", "ptable"], ["--eps", "--v", "--e"], None),
    (["utility", "sample", "--re", "0.5", "--seed", "1", "--mech", "laplace"], ["--eps"], "--e"),
    (["utility", "sample", "--re", "0.5", "--seed", "1", "--mech", "geometric"], ["--eps"], "--v"),
    (["utility", "sample", "--re", "0.5", "--seed", "1", "--mech", "ck"], ["--v", "--e"], "--eps"),
]


@pytest.mark.parametrize("command, needs, unread", LAW_CHOICES, ids=[" ".join(c) for c, _, _ in LAW_CHOICES])
def test_every_law_reads_exactly_its_options(command, needs, unread):
    def run(flags):
        return run_cli(*command, *(a for f in flags for a in (f, LAW_VALUES[f])), check=False)

    valid = run(needs)
    assert valid.returncode == 0, valid.stderr
    for missing in needs:
        proc = run([f for f in needs if f != missing])
        assert proc.returncode == 1
        assert missing in proc.stderr
        assert "Traceback" not in proc.stderr
    if unread is not None:
        proc = run([*needs, unread])
        assert proc.returncode == 1
        assert f"{unread} is not read" in proc.stderr
        assert "Traceback" not in proc.stderr


def test_analytic_bound_disclosure_reads_no_seed():
    proc = run_cli("attack", "bound-disclosure", "--dist", "uniform", "--e", "2", "--streams", "0", "--seed", "5",
                   check=False)
    assert proc.returncode == 1
    assert "--seed is not read" in proc.stderr
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize(
    "args, code, message",
    [
        (["--dist", "ptable", "--v", "2", "--e", "1000", "--alpha", "0"], 2, "error: alpha must lie in (0,1), got 0.0"),
        (["--dist", "uniform", "--e", "2", "--alpha", "nan", "--streams", "5"], 2,
         "error: alpha must lie in (0,1), got nan"),
        # the law's options are checked first ...
        (["--dist", "ptable", "--e", "2", "--alpha", "0"], 1, "Error: --v is required for the ptable law"),
        # ... then alpha, then the law's table
        (["--dist", "ptable", "--v", "9", "--e", "2", "--alpha", "0"], 2, "error: alpha must lie in (0,1), got 0.0"),
        (["--dist", "ptable", "--v", "9", "--e", "2"], 2,
         "error: variance 9.0 is not positive or exceeds the uniform maximum E(E+1)/3 = 2.0"),
    ],
    ids=["alpha-zero-e1000", "alpha-nan-streams", "missing-v", "infeasible-v", "infeasible-v-valid-alpha"],
)
def test_bound_disclosure_checks_alpha_before_p1(monkeypatch, args, code, message):
    def fail(pmf, bound):
        raise AssertionError("p1_exact ran before alpha was checked")

    monkeypatch.setattr(attacks, "p1_exact", fail)
    exit_code, out, err = run_in_process("attack", "bound-disclosure", *args)
    assert (exit_code, out) == (code, "")
    assert err.splitlines()[-1] == message


def fail_to_solve_or_draw(monkeypatch):
    """Make building a p-table or drawing noise fail, so a check that must come first is seen to."""
    def fail(*args):
        raise AssertionError("the law's table was built or noise drawn before a cheap check")

    for module, name in [(noise, "gen_ptable"), (noise, "sample_noise"), (utility, "sample_noise")]:
        monkeypatch.setattr(module, name, fail)


def test_bound_disclosure_checks_alpha_before_the_table(monkeypatch):
    fail_to_solve_or_draw(monkeypatch)
    args = ["--dist", "ptable", "--v", "2", "--e", "1000000", "--alpha", "0"]
    assert run_in_process("attack", "bound-disclosure", *args) == (2, "", "error: alpha must lie in (0,1), got 0.0\n")


@pytest.mark.parametrize(
    "thresholds, shown",
    [(["-1"], "-1.0"), (["0"], "0.0"), (["nan"], "nan"), (["0.5", "-1"], "-1.0")],
    ids=["negative", "zero", "nan", "second-negative"],
)
def test_utility_sample_checks_its_thresholds_before_the_table_and_the_draws(monkeypatch, thresholds, shown):
    fail_to_solve_or_draw(monkeypatch)
    args = ["--mech", "ck", "--v", "2", "--e", "1000000", *(a for x in thresholds for a in ("--re", x))]
    assert run_in_process("utility", "sample", *args) == (
        2, "", f"error: relative error threshold must be positive, got {shown}\n"
    )


def test_utility_sample_law_usage_error_comes_before_the_thresholds(monkeypatch):
    fail_to_solve_or_draw(monkeypatch)
    code, out, err = run_in_process("utility", "sample", "--mech", "ck", "--e", "5", "--re", "-1")
    assert (code, out) == (1, "")
    assert err.splitlines()[-1] == "Error: --v is required for the ck law"


@pytest.mark.parametrize(
    "probe", ["delta-uniform-e-zero", "delta-uniform-e-negative",
              "bound-disclosure-uniform-e-zero", "bound-disclosure-uniform-e-negative"],
)
def test_uniform_law_names_its_bound(probe):
    args = EXIT_PROBES[probe][0]
    bound = args[args.index("--e") + 1]
    assert run_in_process(*args) == (
        2, "", f"error: bound must be a positive integer no larger than 10**6, got {bound}\n"
    )


@pytest.mark.parametrize("k, t, trials", [(1, 0, 5), (5, 10, 5), (10, 5, 0)])
def test_averaging_checks_its_sizes_before_the_seed_and_the_solve(monkeypatch, k, t, trials):
    def fail(variance, bound):
        raise AssertionError("the p-table was solved before k, t and trials were checked")

    monkeypatch.setattr(noise, "gen_ptable", fail)
    args = ["--v", "2", "--e", "1000000", "--k", str(k), "--t", str(t), "--trials", str(trials)]
    assert run_in_process("attack", "averaging", *args) == (2, "", "error: need k >= t >= 1 and positive trials\n")


@pytest.mark.parametrize("xi, shown", [("0", "0.0"), ("-1", "-1.0"), ("nan", "nan")])
def test_averaging_checks_xi_before_the_seed_and_the_solve(monkeypatch, xi, shown):
    fail_to_solve_or_draw(monkeypatch)
    args = ["--v", "2", "--e", "1000000", "--k", "10", "--t", "5", "--trials", "5", "--xi", xi]
    assert run_in_process("attack", "averaging", *args) == (2, "", f"error: xi must be positive, got {shown}\n")


@pytest.mark.parametrize("dist", [["ptable", "--v", "2"], ["uniform"], ["geometric"]], ids=lambda d: d[0])
def test_account_delta_checks_its_epsilon_before_the_table(monkeypatch, dist):
    fail_to_solve_or_draw(monkeypatch)
    monkeypatch.setattr(noise, "uniform_pmf", lambda bound: pytest.fail("the uniform law was built first"))
    args = ["account", "delta", "--dist", *dist, "--e", "1000000", "--eps", "-1"]
    assert run_in_process(*args) == (2, "", "error: epsilon must be nonnegative and finite, got -1.0\n")


def test_geometric_with_a_bound_samples_the_truncated_law():
    proc = run_cli("utility", "sample", "--mech", "geometric", "--eps", "0.1", "--e", "5",
                   "--re", "0.2", "--re", "0.5", "--seed", "3")
    records = read_areas_text(resources.files("sdcnoise.data").joinpath("synth_areas.csv").read_text())
    tallies = sample_distortions(records, TruncatedLaplace(0.1, 5), 3, [0.2, 0.5])
    assert [(r["re_threshold"], r["single"], r["broadband"], r["zero_hits"]) for r in _rows(proc.stdout)] == [
        (repr(t.re_threshold), str(t.single), str(t.broadband), str(t.zero_hits)) for t in tallies
    ]
    assert "# E: 5" in proc.stdout


@settings(max_examples=60, deadline=None)
@given(
    st.floats(-1e6, 1e6, allow_subnormal=False),
    st.floats(1e-12, 1e3, allow_subnormal=False),
    st.floats(0.0, 6.0),
)
@example(0.5, 0.5, math.log10(12))  # the scan ve default V grid
@example(0.05, 0.01, math.log10(96))  # the scan eps default grid
@example(0.05, 0.005, math.log10(191))
@example(1e-13, 1e-13, math.log10(2))
@example(0.0, 1.0, 6.0)
def test_grid_range_is_numpys_arange(lo, step, log_rows):
    # hi lies 10**log_rows - 1 steps above lo: up to the 10**6-row cap, most grids small
    hi = lo + (10**log_rows - 1) * step
    if not (hi + step / 2 - lo) / step <= 10**6:
        return
    assert cli._grid_range(lo, hi, step) == [float(f"{v:.12g}") for v in np.arange(lo, hi + step / 2, step)]


def test_scan_eps_keeps_tiny_grid_values():
    proc = run_cli("scan", "eps", "--eps-min", "1e-13", "--eps-max", "2e-13", "--eps-step", "1e-13",
                   "--kt2", "0.1", "--t-lau", "68")
    assert [float(r["eps"]) for r in _rows(proc.stdout)] == [1e-13, 2e-13]


def test_account_delta_huge_epsilon_keeps_the_edge_mass():
    proc = run_cli("account", "delta", "--dist", "uniform", "--e", "2", "--eps", "1e308")
    assert json.loads(proc.stdout) == {"epsilon": 1e308, "delta": 0.2}


def test_bad_data_errors_name_their_line(tmp_path):
    (tmp_path / "areas.csv").write_text("area_id,country,f,m,t\n# note\nA,X,1,2,3\nB,X,x,2,3\n")
    (tmp_path / "tuples.csv").write_text("5,4,9\n\n1,a,3\n")
    areas = run_cli("utility", "estimate", "--eps", "0.1", "--re", "0.5",
                    "--areas", str(tmp_path / "areas.csv"), check=False)
    assert areas.returncode == 2
    assert areas.stderr.startswith("error: area CSV line 4: ")
    margin = run_cli("attack", "margin", "--e", "2", "--input", str(tmp_path / "tuples.csv"), check=False)
    assert margin.returncode == 2
    assert margin.stderr.startswith("error: tuple file line 3: ")
    (tmp_path / "short.csv").write_text("5,4,9\n# c\n7\n")
    short = run_cli("attack", "margin", "--e", "2", "--input", str(tmp_path / "short.csv"), check=False)
    assert short.returncode == 2
    assert short.stderr.startswith("error: tuple file line 3: ")


# SHA-256 of stdout for the README's example commands (without --out, with the
# bundled desk programme for my_programme.json), the config-file ptable and the
# subnormal-p1 scan, recorded before the CSV writers were merged into one.  The
# ptable digests were recorded with the removed "# js: 0" header line deleted.
STDOUT_PINS = [
    (["ptable", "--v", "2", "--e", "5"],
     "7f9ca292323de10c75413adca278fd524bb9a4b9540c2bbb80312137a03c1f82"),
    (["analyze", "desk", "--spsn"],
     "a7f6f30b540fc44b37220725ee2077ed66c0c88eff8c9cec58cfea1cb012de20"),
    (["analyze", "desk", "--no-spsn", "--geo-override", "GEO.M=429"],
     "baab7a263a6a31cfa32536dfec06326a5fe054e1ff9fb816f431c7cde9cd90f3"),
    (["attack", "bound-disclosure", "--dist", "uniform", "--e", "2", "--alpha", "0.68"],
     "640bfb75642afc1bd22ce17b7292596226a336ec032da890f336b59b6622a757"),
    (["attack", "margin", "--e", "2"],
     "f2f1a503b0a34404c470dedc3000232888c1335688657a23966665f3c5c964d6"),
    (["attack", "averaging", "--v", "2", "--e", "10", "--k", "1000", "--t", "100",
      "--trials", "1000", "--seed", "1"],
     "cf93e99e1fca00c483e4211a60aeb10d2131706db080a3f1a822a182341b4e5f"),
    (["utility", "estimate", "--eps", "0.1", "--re", "0.5"],
     "6c1cc50bd2945bc07a01d55093782f4c006655beecd227633b8f7d18b580ddc3"),
    (["utility", "sample", "--mech", "laplace", "--eps", "0.1", "--re", "0.2", "--re", "0.5",
      "--seed", "3"],
     "8abcdc24e8e513bf7ad83653f41f1f0b432f1d3dfc9f40f2ff9d9147d501d29f"),
    (["scan", "ve", "--m-avail", "2.8e7", "--kt2", "0.1"],
     "ff5770e1eefef2dc7f0ca48c95989d9dc62c1c372954b1c0b4e5851bf9e1f7b5"),
    # re-recorded when scan eps took V from laplace_variance, 2*(1/eps)^2, in place of
    # its own 2/eps^2: V and the averaging alphas moved in the last bit on 56 of 96 rows
    (["scan", "eps", "--kt2", "0.0118", "--kt2", "0.112", "--e-alpha", "20", "--t-lau", "68"],
     "38111442e75a06cf9de39d979469fce12239968f8b53f30c26c3a4a3cab5a022"),
    (["account", "delta", "--dist", "uniform", "--e", "2", "--eps", "1.0"],
     "e055e5c3cb712ec7a2ab72f56925df58029d7d804c7e0294acf65789d2c95bde"),
    (["account", "sensitivity", "sex-age", "--query", "SEX", "--query", "total"],
     "e20547a22c856a90feef7f77f7857d7003a316ad24983258ceccfba84b396d4e"),
    (["account", "budget", "--global-eps", "1.0", "--halving", "10"],
     "f59bef916e2e41ddc07bfb09866bb97a821f1fc2f452aa8af1cd18c5ec39317e"),
    (["--config", "{tmp}/cfg.json", "ptable"],
     "7f9ca292323de10c75413adca278fd524bb9a4b9540c2bbb80312137a03c1f82"),
    (["scan", "ve", "--v-min", "2", "--v-max", "2", "--e-min", "32", "--e-max", "32",
      "--m-avail", "2.8e7"],
     "e44b37fbdb38437481e1438a962b7cf57537354a6c5a284284c2948f4d29a4e6"),
    # recorded before the per-tuple bound estimator and the unused parameters were removed
    (["attack", "bound-disclosure", "--dist", "uniform", "--e", "2", "--streams", "500", "--seed", "4"],
     "7e4adb0c7fc3a109b8d32b5931986d3193eaa27a730762ac20173627265e9a61"),
    (["account", "delta", "--dist", "ptable", "--v", "2", "--e", "5", "--eps", "1.0"],
     "9977aae346fef81d5471f45e306632df9297ac945acd4b07d5b0fe1c81c0b420"),
    (["utility", "sample", "--mech", "geometric", "--eps", "0.1", "--re", "0.5", "--seed", "3"],
     "e02cfc17a753fa9ac84c789984ee5a83f4e913a8fa054b1559512bbea33f0bb0"),
    # recorded while the CLI still built the truncated geometric pmf itself, and cut
    # its support with --trunc (default 50) in place of --e
    (["account", "delta", "--dist", "geometric", "--eps", "0.5", "--e", "5"],
     "fcffc4058fe018f9ab410344408916eb79a17fbf4a8033e37b132e9548d38888"),
    (["account", "delta", "--dist", "geometric", "--eps", "0.1", "--e", "50"],
     "b4eaba1861b6df67a4449f52dceac9f793a934600ec11b9cb0cee019e46cf02e"),
    # the ptable law of bound disclosure (p1 = 0.1478..., m = 8), recorded before the
    # CLI read every finite law's probabilities through one helper
    (["attack", "bound-disclosure", "--dist", "ptable", "--v", "1.9", "--e", "2"],
     "0c5f4cfedb3f7d87f3e11ab4e3304a971a1e4e5cc8394f88d25a3c89aab8d407"),
    (["attack", "bound-disclosure", "--dist", "ptable", "--v", "1.9", "--e", "2", "--streams", "50", "--seed", "4"],
     "e246c9e622683500498f5ceba24ae546988e0a80e24e38e23dcfc4b626b51a6d"),
]


@pytest.mark.parametrize("args, digest", STDOUT_PINS, ids=[" ".join(a) for a, _ in STDOUT_PINS])
def test_stdout_is_byte_identical_to_recorded_digest(tmp_path, args, digest):
    (tmp_path / "cfg.json").write_text(json.dumps({"ptable": {"variance": 2.0, "bound": 5}}))
    proc = subprocess.run(
        [sys.executable, "-m", "sdcnoise", *(a.format(tmp=tmp_path) for a in args)],
        capture_output=True,
        env=child_env(),
    )
    assert proc.returncode == 0, proc.stderr
    assert hashlib.sha256(proc.stdout).hexdigest() == digest


@pytest.mark.parametrize("args, digest", STDOUT_PINS, ids=[" ".join(a) for a, _ in STDOUT_PINS])
def test_out_file_is_byte_identical_to_recorded_stdout(tmp_path, args, digest):
    (tmp_path / "cfg.json").write_text(json.dumps({"ptable": {"variance": 2.0, "bound": 5}}))
    code, out, err = run_in_process(*(a.format(tmp=tmp_path) for a in args), "--out", str(tmp_path / "x"))
    assert (code, out) == (0, ""), err
    assert hashlib.sha256((tmp_path / "x").read_bytes()).hexdigest() == digest


def test_one_writer_renders_and_writes_every_command_output():
    source = Path(cli.__file__).read_text(encoding="utf-8")
    for call in ("json.dumps(", "sys.stdout.write("):
        assert source.count(call) == 1 and call in inspect.getsource(cli._write), call
    # so a command returns its result and never chooses where it goes
    assert [name for name, (fn, _) in cli._COMMANDS.items() if "out" in inspect.signature(fn).parameters] == []


def _readme_commands():
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("## CLI", 1)[1].split("```sh", 1)[1].split("```", 1)[0]
    return [line for line in block.splitlines() if line.startswith("sdcnoise ")]


@pytest.mark.parametrize("line", _readme_commands())
def test_readme_cli_examples_run(tmp_path, line):
    args = [a.replace("my_programme.json", "desk") for a in shlex.split(line)[1:]]
    proc = subprocess.run([sys.executable, "-m", "sdcnoise", *args], capture_output=True, text=True,
                          cwd=tmp_path, env=child_env())
    assert proc.returncode == 0, proc.stderr
    assert "Traceback" not in proc.stderr


# A fresh child that imports the named modules (after "--import") or runs
# ``python -m sdcnoise`` with its arguments, then prints its exit code and loaded modules.
IMPORT_GRAPH_CHILD = """import json, runpy, sys
code = 0
if sys.argv[1] == "--import":
    for name in sys.argv[2:]:
        __import__(name)
else:
    try:
        runpy.run_module("sdcnoise", run_name="__main__")
    except SystemExit as exc:
        code = exc.code
print(json.dumps([code, sorted(sys.modules)]))
"""
# The modules attacks imports at its top: tables and redundancy load only in the release pipeline.
ATTACKS = {"attacks", "noise"}
# case: (child arguments, exit code, the sdcnoise modules it may load, whether it may load numpy)
IMPORT_GRAPH = {
    "import cli": (["--import", "sdcnoise.cli"], 0, {"cli", "errors"}, False),
    "import tables redundancy accounting": (
        ["--import", "sdcnoise.tables", "sdcnoise.redundancy", "sdcnoise.accounting"], 0,
        {"tables", "redundancy", "accounting", "errors"}, False,
    ),
    "import noise attacks utility": (
        ["--import", "sdcnoise.noise", "sdcnoise.attacks", "sdcnoise.utility"], 0,
        {"utility", "errors", *ATTACKS}, False,
    ),
    "help": (["--help"], 0, {"cli", "errors"}, False),
    "usage error": (["scan", "ve"], 1, {"cli", "errors"}, False),
    "analyze": (["analyze", "desk", "--spsn"], 0, {"cli", "errors", "data", "tables", "redundancy"}, False),
    "analyze missing file": (["analyze", "{tmp}/missing.json"], 2, {"cli", "errors", "tables", "redundancy"}, False),
    "account sensitivity": (["account", "sensitivity", "sex-age", "--query", "SEX", "--query", "total"], 0,
                            {"cli", "errors", "data", "tables", "accounting"}, False),
    "ptable": (["ptable", "--v", "2", "--e", "5"], 0, {"cli", "errors", "noise", "data"}, True),
    "account budget": (["account", "budget", "--global-eps", "1"], 0, {"cli", "errors", "accounting", "noise"}, False),
    "account delta uniform": (["account", "delta", "--dist", "uniform", "--e", "2", "--eps", "1"], 0,
                              {"cli", "errors", "accounting", "noise"}, False),
    # the accounting epsilon is checked before the law's bound
    "account delta uniform e zero": (["account", "delta", "--dist", "uniform", "--e", "0", "--eps", "1"], 2,
                                     {"cli", "errors", "accounting", "noise"}, False),
    "account delta": (["account", "delta", "--dist", "ptable", "--v", "2", "--e", "5", "--eps", "1"], 0,
                      {"cli", "errors", "accounting", "noise"}, True),
    "attack margin": (["attack", "margin", "--e", "2"], 0, {"cli", "errors", "data", *ATTACKS}, False),
    "attack bound-disclosure uniform": (["attack", "bound-disclosure", "--dist", "uniform", "--e", "2"], 0,
                                        {"cli", "errors", *ATTACKS}, False),
    "scan eps": (["scan", "eps", "--kt2", "0.1", "--t-lau", "68"], 0, {"cli", "errors", "utility", *ATTACKS}, False),
}


@pytest.mark.parametrize("args, code, allowed, numpy", IMPORT_GRAPH.values(), ids=IMPORT_GRAPH.keys())
def test_each_command_loads_only_the_modules_it_runs(tmp_path, args, code, allowed, numpy):
    """No case loads click, and importing the CLI adds only standard-library and sdcnoise modules."""
    def child(args):
        proc = subprocess.run(
            [sys.executable, "-c", IMPORT_GRAPH_CHILD, *(a.format(tmp=tmp_path) for a in args)],
            capture_output=True,
            text=True,
            env=child_env(),
        )
        assert "Traceback" not in proc.stderr, proc.stderr
        return proc, *json.loads(proc.stdout.splitlines()[-1])

    proc, exit_code, modules = child(args)
    assert exit_code == code, proc.stderr
    assert {m.split(".")[1] for m in modules if m.startswith("sdcnoise.")} <= allowed
    if not numpy:
        assert "numpy" not in modules
    assert "click" not in modules
    if args == ["--import", "sdcnoise.cli"]:
        added = set(modules) - set(child(["--import"])[2])  # beyond what the interpreter's start-up loads
        assert {m.split(".")[0] for m in added} <= sys.stdlib_module_names | {"sdcnoise"}
