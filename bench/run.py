"""Run one benchmark workload and print its metrics as the last stdout line.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the repository root; it imports ``sdcnoise`` from ``./src``
and exits with code 2, printing no result, when that is missing.  With
``--trace 0`` it prints the end-to-end metrics, with ``--trace 1`` the
per-layer metrics of a traced run.  ``bench/README.md`` describes the
workloads, metrics and checks.
"""

from __future__ import annotations

# Only the standard library is imported here: sdcnoise, numpy and the
# benchmark's own modules load inside main() after the timed import, so that
# setup_s includes their cold import.
import argparse
import gc
import importlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from dataclasses import dataclass
from time import perf_counter

BENCH_VERSION = "1"
SETUP_RUNS = {"full": 5, "smoke": 2}
# cli runs whole passes of 17 commands; three passes keep op_tail_s at p75
MIN_PASSES = {"cli": 3}
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0)
TAIL_BEYOND = 10
# Shared hosts switch speed: on the 2-core VM where the benchmark was written
# a fixed pure-Python loop ran at two speeds about 1.65x apart, each lasting
# from a second to over twenty, so whole runs met one speed or the other and
# the medians of ten 20 s runs spread by up to 42 %.  Machine probes bracket
# every stretch of at most SEGMENT_S seconds of operations, and each
# operation's wall time is scaled to a machine on which the probe loop takes
# PROBE_REF_S, about that VM's fast state.
PROBE_S = 0.3
SEGMENT_S = 1.5
PROBE_REF_S = 0.0015


@dataclass
class Sample:
    label: str
    seconds: float
    failure: str | None = None  # None, "raised", "contract" or "wrong"
    message: str = ""
    segment: int = 0  # index of the machine probe taken before the operation
    normalized: float = 0.0  # seconds scaled to the reference machine speed


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["release_cellkey", "release_independent", "risk_grid", "cli"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--scale", choices=["full", "smoke"], default="full",
                        help="smoke: tiny inputs for the benchmark's self-tests")
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def run_op(op, tracer=None) -> Sample:
    """Time one operation; exceptions and failed checks make it a failure."""
    if tracer is not None:
        tracer.active = True
    start = perf_counter()
    try:
        result = op.call()
    except Exception as exc:  # the run continues; the failure is counted
        return Sample(op.label, perf_counter() - start, "raised", f"{type(exc).__name__}: {exc}")
    finally:
        if tracer is not None:
            tracer.active = False
    elapsed = perf_counter() - start
    try:
        op.check(result)
    except Exception as exc:  # malformed output fails its check like a wrong value
        return Sample(op.label, elapsed, getattr(exc, "kind", "wrong"), f"{type(exc).__name__}: {exc}")
    return Sample(op.label, elapsed)


def run_passes(ops_for_pass, seconds: float, min_passes: int = 1, tracer=None, first_pass: int = 0):
    """Whole passes until ``seconds`` is about used up, closed loop, one client.

    Returns the samples, the number of passes and the machine probes.  Each
    sample's ``normalized`` time uses the mean of the two probes around it.
    """
    samples, probes, passes = [], [machine_probe()], 0
    start = segment_start = perf_counter()
    while True:
        elapsed = perf_counter() - start
        if passes >= min_passes and elapsed + 0.5 * elapsed / passes >= seconds:
            break
        ops = ops_for_pass(first_pass + passes)
        gc.collect()  # each pass starts from a collected heap, outside the timers
        for op in ops:
            sample = run_op(op, tracer)
            sample.segment = len(probes) - 1
            samples.append(sample)
            if perf_counter() - segment_start >= SEGMENT_S:
                probes.append(machine_probe())
                segment_start = perf_counter()
        passes += 1
    probes.append(machine_probe())
    for s in samples:
        s.normalized = s.seconds * 2 * PROBE_REF_S / (probes[s.segment] + probes[s.segment + 1])
    return samples, passes, probes


def tail(times: list[float]):
    """Highest ladder percentile with at least TAIL_BEYOND samples beyond it, else p50."""
    import numpy as np

    for pct in TAIL_LADDER:
        if len(times) * (1 - pct / 100) >= TAIL_BEYOND:
            return float(np.percentile(times, pct)), pct
    return statistics.median(times), 50.0


def _probe_loop() -> None:
    # record tuples counted into a dict, the pattern of the library's tabulation
    counts = {}
    for i in range(4_000):
        key = (i % 7, i % 11, i % 13)
        counts[key] = counts.get(key, 0) + 1
    sorted(counts.items())


def machine_probe() -> float:
    """Median seconds of a fixed pure-Python loop repeated for PROBE_S: the machine's speed now."""
    times, start = [], perf_counter()
    while not times or perf_counter() - start < PROBE_S:
        begin = perf_counter()
        _probe_loop()
        times.append(perf_counter() - begin)
    return statistics.median(times)


def child_setup(args) -> list[float]:
    """[set-up seconds, machine probe] of one set-up in a fresh interpreter."""
    import workloads

    argv = [sys.executable, os.path.abspath(__file__), "--setup-only", "--workload", args.workload,
            "--seed", str(args.seed), "--seconds", "0", "--scale", args.scale]
    run = workloads.run_child(argv, dict(os.environ), os.getcwd())
    if run.code != 0:
        raise RuntimeError(f"set-up child failed ({run.code}): {run.err.strip()}")
    return json.loads(run.out.strip().splitlines()[-1])


def cli_probe(argv: list[str], prints_seconds: bool, repeats: int = 3) -> float:
    """Median over fresh interpreters of a child's wall time, or of the seconds it prints."""
    import workloads

    env = workloads.child_env(os.getcwd())
    values = []
    for _ in range(repeats):
        start = perf_counter()
        run = workloads.run_child([sys.executable, *argv], env, os.getcwd())
        wall = perf_counter() - start
        if run.code != 0:
            raise RuntimeError(f"probe {argv} failed: {run.err.strip()}")
        values.append(float(run.out) if prints_seconds else wall)
    return statistics.median(values)


def provenance(args) -> dict:
    import numpy as np
    from importlib import metadata

    def git(*cmd):
        try:
            done = subprocess.run(["git", "--git-dir=.git", "--work-tree=.", *cmd],
                                  capture_output=True, text=True, timeout=60)
        except (OSError, subprocess.SubprocessError):
            return None
        return done.stdout if done.returncode == 0 else None

    sha = git("rev-parse", "HEAD") if os.path.isdir(".git") else None
    status = git("status", "--porcelain") if sha else None
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "bench_version": BENCH_VERSION,
        "git_sha": sha.strip() if sha else "unknown",
        "git_dirty": None if status is None else bool(status.strip()),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "click": metadata.version("click"),
        "nproc": os.cpu_count(),
        "pinned_cpu": sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu_model": cpu,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "scale": args.scale,
    }


def timings(samples, field: str):
    """ops_per_s, op_p50_s and op_tail_s from one time field of the samples."""
    times = [getattr(s, field) for s in samples]
    ok = [t for s, t in zip(samples, times) if s.failure is None] or times
    tail_s, pct = tail(ok)
    values = {"ops_per_s": (len(samples) - failures(samples)) / sum(times), "op_p50_s": statistics.median(ok),
              "op_tail_s": tail_s}
    return values, {"percentile": pct, "samples": len(ok), "beyond": len(ok) * (1 - pct / 100)}


def end_to_end(samples, setups, peak_rss_mb: float):
    """The end-to-end metrics at reference machine speed; raw wall times go to the detail record."""
    metrics, op_tail = timings(samples, "normalized")
    raw, _ = timings(samples, "seconds")
    metrics.update(
        ok_ratio=1.0 - failures(samples) / len(samples),
        peak_rss_mb=peak_rss_mb,
        setup_s=statistics.median(seconds * PROBE_REF_S / probe for seconds, probe in setups),
    )
    raw["setup_s"] = statistics.median(seconds for seconds, _ in setups)
    units = {"ops_per_s": "1/s", "ok_ratio": "ratio", "peak_rss_mb": "MB"}
    detail = {"op_tail": op_tail, "raw_wall": raw}
    return {k: {"value": v, "unit": units.get(k, "s")} for k, v in metrics.items()}, detail


def per_layer(untraced, traced, tracer):
    from tracing import LAYERS

    n = len(traced)
    traced_s = sum(s.seconds for s in traced)
    values, units = {}, {}
    for layer in LAYERS:
        values[f"{layer}.self_s"] = tracer.self_s[layer] / n
        values[f"{layer}.calls"] = tracer.calls[layer] / n
        values[f"{layer}.errors"] = tracer.errors[layer] / n
    for name in ("tables.record_visits", "noise.values_drawn", "noise.ptables_built", "noise.cell_keys",
                 "redundancy.irrs_enumerated", "attacks.irr_evals", "attacks.cells_visited",
                 "attacks.convolve_mults", "attacks.mc_draws", "utility.grid_cells", "utility.areas_processed"):
        values[name] = tracer.counts[name] / n
    attacked = tracer.counts["attacks.cells_attacked"]
    values["attacks.recovered_ratio"] = tracer.counts["attacks.cells_recovered"] / attacked if attacked else 0.0
    values["cli.startup_s"] = cli_probe(["-m", "sdcnoise", "--version"], prints_seconds=False)
    values["cli.import_s"] = cli_probe(
        ["-c", "import time; t = time.perf_counter(); import sdcnoise.cli; print(time.perf_counter() - t)"],
        prints_seconds=True,
    )
    values["bench.self_s"] = (traced_s - tracer.top_s) / n
    values["trace.op_s"] = traced_s / n
    # both halves at reference machine speed, since they ran at different times
    values["trace.overhead_ratio"] = (
        sum(s.normalized for s in traced) / n / (sum(s.normalized for s in untraced) / len(untraced))
    )
    values["failed_ratio"] = failures(traced) / n
    for name in values:
        if name.endswith("_s"):
            units[name] = "s"
        elif name.endswith("_ratio"):
            units[name] = "ratio"
        else:
            units[name] = "count"
    return {k: {"value": v, "unit": units[k]} for k, v in values.items()}


def failures(samples) -> int:
    return sum(s.failure is not None for s in samples)


def main(argv=None) -> int:
    args = parse_args(argv)
    if hasattr(os, "sched_setaffinity"):
        # one CPU for the operations, the probes and every child process
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    src = os.path.join(os.getcwd(), "src")
    if not os.path.isfile(os.path.join(src, "sdcnoise", "__init__.py")):
        print("bench: src/sdcnoise not found; run from the repository root", file=sys.stderr)
        return 2
    sys.path.insert(0, src)

    start = perf_counter()
    package = importlib.import_module("sdcnoise.cli" if args.workload == "cli" else "sdcnoise")
    import_s = perf_counter() - start
    if not os.path.abspath(package.__file__).startswith(src + os.sep):
        print(f"bench: sdcnoise imported from {package.__file__}, not {src}", file=sys.stderr)
        return 2
    import workloads

    start = perf_counter()
    state = workloads.WORKLOADS[args.workload](args.seed, args.scale)
    setup = [import_s + perf_counter() - start, machine_probe()]
    if args.setup_only:
        print(json.dumps(setup))
        return 0
    setups = [setup] + [child_setup(args) for _ in range(SETUP_RUNS[args.scale] - 1)]
    state.prepare()

    min_passes = MIN_PASSES.get(args.workload, 1) if args.scale == "full" else 1
    detail = {"provenance": provenance(args), "setup_runs": setups}
    if args.trace == 0:
        samples, passes, probes = run_passes(state.ops, args.seconds, min_passes)
        if args.workload == "cli":
            peak_kb = state.peak_rss_kb
        else:
            peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        metrics, extra = end_to_end(samples, setups, peak_kb / 1024)
        detail.update(extra)
    else:
        from tracing import Tracer

        ops = (lambda i: state.ops(i, in_process=True)) if args.workload == "cli" else state.ops
        untraced, _, probes = run_passes(ops, args.seconds / 2)
        tracer = Tracer()
        tracer.install()
        try:
            traced, passes, more_probes = run_passes(ops, args.seconds / 2, tracer=tracer, first_pass=10_000)
        finally:
            tracer.uninstall()
        metrics = per_layer(untraced, traced, tracer)
        samples, probes = untraced + traced, probes + more_probes
    detail["machine_probe_s"] = {"count": len(probes), "median": statistics.median(probes),
                                 "min": min(probes), "max": max(probes)}
    detail["passes"] = passes
    detail["failures"] = {}
    for s in samples:
        if s.failure:
            entry = detail["failures"].setdefault(s.label, {"count": 0, "kind": s.failure, "first": s.message})
            entry["count"] += 1
    if getattr(state, "digest", None):
        detail["release_digest"] = state.digest
    print(json.dumps(detail, sort_keys=True))
    print(json.dumps({
        "correct": not any(s.failure == "wrong" for s in samples),
        "attempted": len(samples),
        "failed": failures(samples),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
