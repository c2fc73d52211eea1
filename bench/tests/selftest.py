"""Self-tests of the benchmark harness.

Run from the repository root (the file is not collected by a bare `pytest`,
so the library's test run stays fast):

    python3 -m pytest -q bench/tests/selftest.py
"""

from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
BENCH = os.path.join(ROOT, "bench")
sys.path[:0] = [os.path.join(ROOT, "src"), BENCH]

import refs  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

# failing operations per pass at the commit that defined the benchmark
SMOKE_FAILURES = {"release_cellkey": 0, "release_independent": 0, "risk_grid": 2, "cli": 3}
# release_cellkey, smoke scale, seed 1, pass 0, computed at that commit
SMOKE_DIGEST = "04babbe9256a08da3945858dbb174f7c23ef432c5bd07cbedd201a0025976691"


def bench_run(cwd, *args):
    done = subprocess.run(
        [sys.executable, "bench/run.py", *args], cwd=cwd, capture_output=True, text=True, timeout=170
    )
    return done


@pytest.fixture(scope="module")
def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(SMOKE_FAILURES))
def test_smoke_prints_every_metric(spec, workload, trace):
    done = bench_run(ROOT, "--workload", workload, "--seed", "3", "--seconds", "1",
                     "--trace", str(trace), "--scale", "smoke")
    assert done.returncode == 0, done.stderr
    *_, detail_line, result_line = done.stdout.strip().splitlines()
    result, detail = json.loads(result_line), json.loads(detail_line)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1
    want = spec["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in want} == {k: v["unit"] for k, v in result["metrics"].items()}
    assert all(isinstance(v["value"], float) and math.isfinite(v["value"]) for v in result["metrics"].values())
    if trace == 0:
        assert result["failed"] == SMOKE_FAILURES[workload] * detail["passes"]
        assert detail["provenance"]["workload"] == workload and detail["provenance"]["seed"] == 3


def test_exits_without_the_library(tmp_path, spec):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    done = bench_run(tmp_path, "--workload", "release_cellkey", "--seed", "1", "--seconds", "1", "--trace", "0")
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout


@pytest.fixture(scope="module")
def release():
    state = workloads.Release(seed=1, scale="smoke", cell_key=True)
    state.prepare()
    (op,) = state.ops(0)
    return state, op, op.call()


def test_release_passes_and_matches_pinned_digest(release):
    state, op, result = release
    op.check(result)
    assert state.digest == SMOKE_DIGEST


def _replay(op, result):
    return run.run_op(workloads.Op(op.label, lambda: result, op.check))


def test_exact_count_off_by_one_fails(release):
    state, op, (output, plain, optimized) = release
    ids = next(ids for ids in state.stats if len(ids) == 2)
    exact = {key: dict(table) for key, table in output.exact.items()}
    cell = next(iter(exact[ids]))
    exact[ids][cell] += 1
    corrupted = type(output)(spsn=output.spsn, tables=output.tables, exact=exact)
    sample = _replay(op, (corrupted, plain, optimized))
    assert sample.failure == "wrong" and "bincount" in sample.message


def test_noisy_cell_off_by_one_fails(release):
    state, op, (output, plain, optimized) = release
    tables = {key: dict(table) for key, table in output.tables.items()}
    key = next(k for k in tables if len(k[1]) == 3)
    cell = next(iter(tables[key]))
    tables[key][cell] += 1
    corrupted = type(output)(spsn=output.spsn, tables=tables, exact=output.exact)
    assert _replay(op, (corrupted, plain, optimized)).failure == "wrong"


def test_cli_traceback_fails():
    state = workloads.Cli(seed=1, scale="smoke")
    state.prepare()
    op = state.ops(0)[0]  # ptable --v 2 --e 5
    good = state.run_in_process(["ptable", "--v", "2", "--e", "5"])
    assert _replay(op, good).failure is None
    broken = workloads.CliRun(0, good.out, 'Traceback (most recent call last):\n  File "x"\nOverflowError\n')
    sample = _replay(op, broken)
    assert sample.failure == "contract" and "traceback" in sample.message


def test_cli_wrong_exit_code_fails():
    state = workloads.Cli(seed=1, scale="smoke")
    op = state.ops(0)[-3]  # analyze of a missing file must exit 2
    assert _replay(op, workloads.CliRun(1, "", "Error: no such file\n")).failure == "contract"
    assert _replay(op, workloads.CliRun(2, "", "error: no such file\n")).failure is None


def test_scan_checker_accepts_the_overflow_fix():
    """A fixed (V, E) = (2.0, 32) cell, p1 subnormal, passes: m_required None, accurate reveal."""
    with open(os.path.join(BENCH, "data", "scan_ve_p1.json"), encoding="utf-8") as fh:
        p1_ref = json.load(fh)["p1"]
    p1 = p1_ref["2.0,32"]
    assert 0 < p1 < 1e-300
    cell = {"V": 2.0, "E": 32, "feasible": True, "p1": p1, "m_required": None,
            "reveal_prob": -math.expm1(2.8e7 * math.log1p(-p1)), "e_disclosure_safe": True}
    workloads.check_scan_cell(cell, p1_ref, 2.8e7, None, 0.68)
    with pytest.raises(refs.CheckFailed):
        workloads.check_scan_cell(dict(cell, m_required=7), p1_ref, 2.8e7, None, 0.68)
