import csv
import io
import json
import subprocess
import sys

import numpy as np
import pytest

from sdcnoise import __version__
from sdcnoise.attacks import averaging_success, p1_exact, tuples_needed
from sdcnoise.noise import gen_ptable, laplace_variance
from sdcnoise.accounting import sensitivity, us_table_budget
from sdcnoise.tables import StatisticKey, parse_programme


def run_cli(*args, check=True):
    proc = subprocess.run(
        [sys.executable, "-m", "sdcnoise", *args],
        capture_output=True,
        text=True,
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
        averaging_success(2.0, 1000, 100, "Gaussian")
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
