"""Benchmark entry point for tropval.

    python3 perfbench/run.py --workload axiom-sweep --seed 1 --seconds 30 --trace 0

Run from the root of a checkout.  With ``--trace 0`` it times set-up in
several fresh worker processes and then runs the workload's job list in a
closed loop for ``--seconds`` seconds in one more; it prints the
end-to-end metrics.  With ``--trace 1`` one worker runs the job list once
untraced and once with span tracing and prints the per-layer metrics.
Metric names and units come from BENCHMARK.json.  The last line of stdout
is the JSON result; the exit code is non-zero, with no result, when the
benchmark itself could not run.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import speed  # noqa: E402

ROOT = HERE.parent
WORKER = HERE / "worker.py"
SETUP_PROBES = 7
DEADLINE_S = 170


class BenchError(RuntimeError):
    pass


def start_worker(args, *extra: str) -> tuple[subprocess.Popen, float]:
    """Start a worker, wait for ``ready`` and return it with its set-up time."""
    argv = [sys.executable, str(WORKER), "--workload", args.workload,
            "--seed", str(args.seed), "--seconds", str(args.seconds),
            "--trace", str(args.trace), *extra]
    t0 = time.perf_counter()
    proc = subprocess.Popen(argv, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    line = proc.stdout.readline()
    setup = time.perf_counter() - t0
    if line != "ready\n":
        finish(proc, 10)
        raise BenchError(f"worker did not get ready (exit {proc.returncode})")
    return proc, setup


def finish(proc: subprocess.Popen, timeout: float) -> str:
    """Wait for a worker, killing it when it overruns; returns its stdout."""
    try:
        out, _ = proc.communicate(timeout=max(timeout, 1))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError("worker overran its time limit") from None
    if proc.returncode != 0:
        raise BenchError(f"worker exited with code {proc.returncode}")
    return out


def measure(args, spec: dict) -> dict:
    t_start = time.perf_counter()
    # Each probe times the calibration kernel right after set-up, in its own
    # process, and prints the median kernel time as its last line.
    setups, raw_setups = [], []
    if not args.trace:
        for _ in range(SETUP_PROBES):
            proc, raw = start_worker(args, "--probe")
            kernel = float(finish(proc, 30).split()[-1])
            setups.append(raw * speed.REFERENCE_S / kernel)
            raw_setups.append(raw)
    proc, _ = start_worker(args)
    lines = finish(proc, DEADLINE_S - (time.perf_counter() - t_start)).splitlines()
    if not lines:
        raise BenchError("worker printed no result")
    result = json.loads(lines[-1])
    measured = dict(result["metrics"])
    if setups:
        measured["setup_s"] = statistics.median(setups)

    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    missing = [m["name"] for m in wanted if m["name"] not in measured]
    if missing:
        raise BenchError(f"worker did not measure {missing}")
    for problem in result["problems"][:20]:
        print(f"problem: {problem}")
    print(f"workload {args.workload} seed {args.seed}: {result['jobs']} jobs, "
          f"{result['attempted']} runs, {result['failed']} failed "
          f"(failed_ratio {result['failed'] / result['attempted']:.4f})")
    for key in ("passes", "raw_wall_s", "trace.untraced_wall_s"):
        if key in measured:
            print(f"{key}: {measured[key]:.4f}")
    if not args.trace:
        print("setup_s samples: " + " ".join(f"{s:.4f}" for s in setups))
        print("raw setup samples: " + " ".join(f"{s:.4f}" for s in raw_setups))
    return {
        "correct": result["failed"] == 0 and not result["problems"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {m["name"]: {"value": measured[m["name"]], "unit": m["unit"]}
                    for m in wanted},
    }


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    try:
        report = measure(args, spec)
    except (BenchError, OSError, ValueError, KeyError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
