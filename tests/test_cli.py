import csv
import hashlib
import io
import json
import os
import shlex
import subprocess
import sys
from importlib import resources
from pathlib import Path

import numpy as np
import pytest

import sdcnoise
from sdcnoise import __version__
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
    if code == 2:
        assert proc.stdout == ""
        assert proc.stderr.startswith("error: ")
        assert len(proc.stderr.splitlines()) == 1


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


def test_geometric_with_a_bound_samples_the_truncated_law():
    proc = run_cli("utility", "sample", "--mech", "geometric", "--eps", "0.1", "--e", "5",
                   "--re", "0.2", "--re", "0.5", "--seed", "3")
    records = read_areas_text(resources.files("sdcnoise.data").joinpath("synth_areas.csv").read_text())
    tallies = sample_distortions(records, TruncatedLaplace(0.1, 5), 3, [0.2, 0.5])
    assert [(r["re_threshold"], r["single"], r["broadband"], r["zero_hits"]) for r in _rows(proc.stdout)] == [
        (repr(t.re_threshold), str(t.single), str(t.broadband), str(t.zero_hits)) for t in tallies
    ]
    assert "# E: 5" in proc.stdout


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
