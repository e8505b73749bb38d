"""certlab benchmark: time to a verified battery, end to end and per layer.

    python3 bench/run.py --workload loops|bulk [--seed 0] [--seconds 20] [--trace 0|1]

Run from the root of a checkout.  Each battery runs in a fresh child
interpreter (bench/child.py) that imports certlab from ``src``, writes one
config per experiment of the workload and drives the CLI.  The parent times
the child, reads its CPU time and peak memory from ``wait4``, and verifies
every output: exit codes, the sha256 recorded in each manifest against the
bytes on disk, and every digest against the seed-0 digests pinned in
bench/digests.json.

certlab's own seed stays 0 in every run, so every run is checked byte for
byte.  ``--seed`` orders the experiments (and their reports) within the
battery.  Other certlab seeds are not used because the experiments' checks
are statistical gates: at certlab seed 2, dag-exploration fails its
trap-ordering check, and a benchmark run must not fail.

With ``--trace 0`` it prints the end-to-end metrics of untraced batteries,
with ``--trace 1`` the per-layer metrics of traced ones (bench/tracer.py).
A traced run also reruns the workload's thread-pooled experiments once,
untraced, at ``--threads 2`` and checks their outputs against the same
single-thread digests.
Metric names and units come from BENCHMARK.json.  The last line of standard
output is one JSON object: correct, attempted, failed, metrics.
See bench/README.md for why each workload and metric exists.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
DIGESTS = BENCH_DIR / "digests.json"

# certlab's own seed in every run; --seed orders the experiments instead.
CERTLAB_SEED = 0
# Set-up is short and noisy, so each run also starts this many set-up-only
# children and reports the median over them and every battery.
SETUP_PROBES = 7
# A child that runs longer than this is killed and its battery counts as failed.
CHILD_TIMEOUT_S = 170.0
# Pinned so that no run uses more threads than the 2 cores it was sized for;
# the default linear_scaling path does no matmul, so no output byte moves.
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


# Thread count of the determinism check in traced runs.
POOL_THREADS = 2


@dataclass(frozen=True)
class Workload:
    experiments: tuple[str, ...]
    # Experiments rerun at POOL_THREADS in traced runs: those whose
    # deterministic_map pool does numpy work and ends within seconds.
    pooled: tuple[str, ...] = ()


# Why each workload exists is in bench/README.md and BENCHMARK.json.
# Every battery runs at one thread.
WORKLOADS = {
    "loops": Workload(("curriculum", "dag-exploration", "cib-frontier")),
    "bulk": Workload(
        ("error-accumulation", "noise-discrete", "divergence-asymptote", "tradeoff-scan", "accuracy-sweep"),
        pooled=("error-accumulation", "noise-discrete"),
    ),
}


@dataclass
class Battery:
    wall_s: float
    setup_s: float
    cpu_s: float
    peak_rss_mb: float
    attempted: int
    failed: int
    digests: dict[str, str]
    trace: dict | None


def child_env() -> dict[str, str]:
    env = {k: v for k, v in os.environ.items() if k not in ("CERTLAB_THREADS", "PYTHONPATH")}
    env.update(THREAD_ENV)
    return env


def run_child(work: Path, order: list[str], threads: int, *, trace: bool, setup_only: bool):
    """Start one child and wait for it; return (start clock, rusage, result or None)."""
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    spec = {
        "src": str(SRC), "work": str(work), "experiments": order, "seed": CERTLAB_SEED,
        "threads": threads, "trace": trace, "setup_only": setup_only,
    }
    spec_path = work / "spec.json"
    spec_path.write_text(json.dumps(spec))
    with open(work / "child.log", "wb") as log:
        start = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, str(BENCH_DIR / "child.py"), str(spec_path)],
            stdout=log, stderr=subprocess.STDOUT, env=child_env(), cwd=ROOT,
        )
        killer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        proc.returncode = os.waitstatus_to_exitcode(status)
    result_path = work / "RESULT.json"
    if proc.returncode != 0 or not result_path.is_file():
        print(f"error: child exited with {proc.returncode}; see {work / 'child.log'}", file=sys.stderr)
        return start, usage, None
    return start, usage, json.loads(result_path.read_text())


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def verify(work: Path, order: list[str], codes: dict[str, int], pinned: dict) -> tuple[int, dict]:
    """Count failed CLI calls and collect the digest of every output.

    An experiment run fails on a nonzero exit, on a file whose bytes differ
    from the digest its manifest records, or on a set of digests different
    from the pinned one.  A report run fails on a nonzero exit or a missing
    report file.
    """
    failed = 0
    digests: dict[str, str] = {}
    for name in order:
        out = work / "out" / name
        ok = codes.get(f"run {name}") == 0
        mine = {}
        try:
            for entry in json.loads((out / "manifest.json").read_text())["files"]:
                path = Path(entry["path"])
                mine[f"{name}/{path.name}"] = actual = sha256(path)
                ok &= actual == entry["sha256"]
        except (OSError, ValueError, KeyError) as exc:
            print(f"error: {name}: unreadable output: {exc}", file=sys.stderr)
            ok = False
        expected = {k: v for k, v in pinned.items() if k.startswith(name + "/")}
        if mine != expected:
            print(f"error: {name}: outputs differ from the pinned digests", file=sys.stderr)
            ok = False
        digests.update(mine)
        failed += not ok
        failed += codes.get(f"report md {name}") != 0 or not (out / "report.md").is_file()
        failed += codes.get(f"report svg {name}") != 0
    return failed, digests


def battery(work: Path, order: list[str], threads: int, pinned: dict, *, trace: bool) -> Battery:
    attempted = 3 * len(order)  # one run and two reports per experiment
    start, usage, result = run_child(work, order, threads, trace=trace, setup_only=False)
    if result is None:
        return Battery(math.nan, math.nan, math.nan, math.nan, attempted, attempted, {}, None)
    failed, digests = verify(work, order, result["codes"], pinned)
    return Battery(
        wall_s=result["done"] - start,
        setup_s=result["setup_done"] - start,
        cpu_s=usage.ru_utime + usage.ru_stime,
        peak_rss_mb=usage.ru_maxrss / 1024.0,
        attempted=attempted,
        failed=failed,
        digests=digests,
        trace=result.get("trace"),
    )


def layer_metrics(trace: dict) -> dict[str, float]:
    """Per-layer numbers from one traced battery; a layer the workload never calls reads 0."""
    records = trace["records"]
    metrics: dict[str, float] = {"trace.overhead_s": trace["overhead_s"]}
    for key, record in records.items():
        metrics[f"{key}.calls"] = record["calls"]
        metrics[f"{key}.self_s"] = record["self_time"]
        metrics[f"{key}.s"] = record["inclusive"]

    def work(key):
        return records[key]["work"] if key in records else 0

    metrics["dag.run_search.trials"] = work("dag.run_search")
    metrics["dynamics.monte_carlo_error.trials"] = work("dynamics.monte_carlo_error")
    metrics["manifest.csv_bytes"] = work("manifest.write_csv")
    sweeps = metrics.get("cib._encoder_sweep.calls", 0)
    metrics["cib.winner_sweep_share"] = work("cib.solve_cib") / sweeps if sweeps else 0.0
    return metrics


def environment() -> dict[str, object]:
    """Commit, interpreter, numpy and BLAS, cores, CPU model and thread settings."""
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():  # else git would report an enclosing repository's commit
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, check=True
            ).stdout.strip()
        except (OSError, subprocess.CalledProcessError):
            pass
    import numpy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    cpu_model = platform.processor() or "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu_model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "commit": commit,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model,
        "thread_env_inherited": {k: os.environ.get(k) for k in (*THREAD_ENV, "CERTLAB_THREADS")},
        "thread_env_child": THREAD_ENV,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "certlab" / "__init__.py").is_file():
        print(f"error: no certlab sources under {SRC}; run from the root of a certlab checkout", file=sys.stderr)
        return 2

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    pinned = json.loads(DIGESTS.read_text())
    workload = WORKLOADS[args.workload]
    order = list(workload.experiments)
    random.Random(args.seed).shuffle(order)
    work = WORK / args.workload
    for key, value in environment().items():
        print(f"env {key}: {value}")
    print(f"workload {args.workload}: seed {args.seed}, order {', '.join(order)}, threads 1")

    trace = bool(args.trace)
    attempted = failed = 0
    setups = []
    for _ in range(0 if trace else SETUP_PROBES):
        start, _, result = run_child(work / "setup", order, 1, trace=False, setup_only=True)
        attempted += 1
        if result is None:
            failed += 1
        else:
            setups.append(result["setup_done"] - start)
    batteries: list[Battery] = []
    measure_start = time.perf_counter()
    while not batteries or time.perf_counter() - measure_start < args.seconds:
        batteries.append(battery(work / "battery", order, 1, pinned, trace=trace))
    if trace and workload.pooled:
        pooled = battery(work / "pooled", list(workload.pooled), POOL_THREADS, pinned, trace=False)
        print(f"determinism: {', '.join(workload.pooled)} at --threads {POOL_THREADS}, {pooled.failed} failed")
        attempted += pooled.attempted
        failed += pooled.failed
    attempted += sum(b.attempted for b in batteries)
    failed += sum(b.failed for b in batteries)
    if len({json.dumps(b.digests, sort_keys=True) for b in batteries if b.digests}) > 1:
        print("error: batteries of one run emitted different outputs", file=sys.stderr)
        failed += 1

    good = [b for b in batteries if not math.isnan(b.wall_s)]
    if not good:
        print("error: no battery completed", file=sys.stderr)
        return 1
    if trace:
        per_battery = [layer_metrics(b.trace) for b in good]
        metrics = {k: statistics.median(m.get(k, 0) for m in per_battery) for k in set().union(*per_battery)}
        wanted = spec["per_layer"]
    else:
        setups += [b.setup_s for b in good]
        metrics = {
            "wall_s": statistics.median(b.wall_s for b in good),
            "setup_s": statistics.median(setups),
            "cpu_s": statistics.median(b.cpu_s for b in good),
            "peak_rss_mb": statistics.median(b.peak_rss_mb for b in good),
        }
        wanted = spec["end_to_end"]
    print(f"{len(good)} {'traced' if trace else 'untraced'} batteries, {len(setups)} set-up samples")
    out = {}
    for entry in wanted:
        value = metrics.get(entry["name"], 0)
        out[entry["name"]] = {"value": value, "unit": entry["unit"]}
        print(f"{entry['name']} = {value} {entry['unit']}")
    print(f"failed_share = {failed / attempted} ({failed} of {attempted} runs failed)")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": out}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
