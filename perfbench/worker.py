"""One benchmark process: set up a workload, run its jobs, report as JSON.

Started by run.py in a fresh interpreter, one workload at a time.  It
prints ``ready`` once set-up is done (interpreter start, ``import tropval``,
fixtures and job list), so the parent can time set-up from outside, and a
JSON line with the results at the end.  With ``--probe`` it exits right
after ``ready``.

Jobs run in-process through ``tropval.cli.run(argv)`` in a closed loop with
one client: each job starts when the previous one has returned.
"""

from __future__ import annotations

import argparse
import collections
import contextlib
import io
import json
import os
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(1, str(Path(__file__).resolve().parent))

import tropval  # noqa: E402
import tropval.cli  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402

if Path(tropval.__file__).resolve().parent != ROOT / "src" / "tropval":
    raise SystemExit(f"tropval was imported from {tropval.__file__}, not from {ROOT / 'src'}")


def run_job(job) -> tuple[float, int | None, str, str | None]:
    """Time one CLI call; returns (seconds, exit code, stdout, exception)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        t0 = time.perf_counter()
        try:
            code = tropval.cli.run(list(job.argv))
        except Exception as exc:  # a job that raises counts as failed
            return time.perf_counter() - t0, None, out.getvalue(), repr(exc)
        t1 = time.perf_counter()
    return t1 - t0, code, out.getvalue(), None


class Session:
    """Job list of one workload plus the record of every execution.

    A calibration kernel runs before every execution; ``log[k]`` is the
    (job, raw seconds) of execution k and ``kernel[k]`` the kernel time just
    before it, so execution k is scaled by the kernel runs around it.
    """

    def __init__(self, workload: str, seed: int, workdir: Path):
        self.jobs = workloads.build(workload, seed, workdir)
        self.log: list[tuple[int, float]] = []
        self.kernel: list[float] = []
        self.first_out: list[str | None] = [None] * len(self.jobs)
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def execute(self, i: int) -> str:
        """Run job i, check it, and return its stdout."""
        job = self.jobs[i]
        self.kernel.append(speed.kernel_time())
        seconds, code, out, exc = run_job(job)
        self.attempted += 1
        self.log.append((i, seconds))
        if exc is not None:
            problem = f"raised {exc}"
        elif self.first_out[i] is None:
            self.first_out[i] = out
            try:
                problem = job.check(code, out)
            except (ValueError, KeyError, IndexError) as bad:
                problem = f"unreadable report ({bad!r})"
            if job.on_output is not None and problem is None:
                job.on_output(out)
        else:
            problem = None if out == self.first_out[i] else "stdout differs between runs"
        if problem is not None:
            self.failed += 1
            self.problems.append(f"{' '.join(job.argv)}: {problem}")
        return out

    def scaled(self, k: int) -> float:
        """Execution k's time at reference speed."""
        return speed.scale(self.log[k][1], self.kernel[max(k - 1, 0):k + 2])

    def per_job(self) -> list[list[float]]:
        """Scaled times of each job over all its executions."""
        out: list[list[float]] = [[] for _ in self.jobs]
        for k, (i, _) in enumerate(self.log):
            out[i].append(self.scaled(k))
        return out

    def run_pass(self) -> tuple[float, list[str]]:
        """Run every job once; returns the summed scaled time and the stdouts."""
        start = len(self.log)
        outs = [self.execute(i) for i in range(len(self.jobs))]
        return sum(self.scaled(k) for k in range(start, len(self.log))), outs


def verify_tropicalization() -> list[str]:
    """The sweep's on-variety valuations must tropicalize onto the variety."""
    from tropval.textio import parse_presentation
    from tropval.poly import WeightVector
    from tropval.valuation import make_weight_valuation, tropicalize

    problems = []
    for fixture, weights in workloads.ON_VARIETY.items():
        P = parse_presentation(workloads.FIXTURES[fixture]).presentation
        for w in weights:
            point = tropicalize(make_weight_valuation(P, WeightVector(tuple(w))))
            if not workloads.on_variety(fixture, point.weights):
                problems.append(f"tropicalize({fixture}, {workloads.wstr(w)}) = "
                                f"{point} is off the variety")
    return problems


def timed_run(session: Session, seconds: float) -> dict:
    """Cycle through the job list until the time is up, at least once."""
    n = len(session.jobs)
    deadline = time.perf_counter() + seconds
    k = 0
    while k < n or time.perf_counter() < deadline:
        session.execute(k % n)
        k += 1
    medians = [statistics.median(t) for t in session.per_job()]
    return {
        "wall_s": sum(medians),
        "raw_wall_s": sum(statistics.median(t for j, t in session.log if j == i)
                          for i in range(n)),
        "job_p50_ms": 1000 * statistics.median(medians),
        "job_p90_ms": 1000 * statistics.quantiles(medians, n=10)[8],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "passes": k / n,
    }


def profile_subset(session: Session) -> list[int]:
    """The cheapest job of each verb: enough to exercise every binding."""
    fastest = [min(t) for t in session.per_job()]
    best: dict[str, int] = {}
    for i, job in enumerate(session.jobs):
        if job.verb not in best or fastest[i] < fastest[best[job.verb]]:
            best[job.verb] = i
    return sorted(best.values())


def traced_run(session: Session) -> dict:
    """Untraced passes, a traced pass, and the checks that tie them together.

    The first pass checks outputs and warms the process up; the second is
    the untraced reference for the tracing overhead.
    """
    # Imported here so that tracing costs nothing in set-up.
    from tracing import Tracer, layer_metrics, profile_counts

    session.run_pass()
    untraced_wall, plain = session.run_pass()
    tracer = Tracer()
    tracer.install()
    try:
        start, traced = len(session.log), []
        for i in range(len(session.jobs)):
            tracer.job = i
            traced.append(session.execute(i))
        traced_wall = sum(session.scaled(k) for k in range(start, len(session.log)))
        factor = traced_wall / sum(t for _, t in session.log[start:])
        # Layer times take the traced pass's overall speed scaling, so they
        # read in the same seconds as wall_s.
        metrics = {}
        for key, value in layer_metrics(tracer.spans).items():
            if key.endswith("_per_s"):
                value /= factor
            elif key.endswith("_s"):
                value *= factor
            metrics[key] = value
        for i, (a, b) in enumerate(zip(plain, traced)):
            if a != b:
                session.problems.append(f"{' '.join(session.jobs[i].argv)}: "
                                        "stdout differs with tracing on")
        for i in profile_subset(session):
            tracer.spans.clear()
            tracer.job = i
            counted = profile_counts(tracer.functions, lambda: session.execute(i))
            spanned = collections.Counter(s[0] for s in tracer.spans)
            if counted != spanned:
                diff = {f: (spanned[f], counted[f]) for f in counted | spanned
                        if spanned[f] != counted[f]}
                session.problems.append(f"{' '.join(session.jobs[i].argv)}: traced "
                                        f"call counts differ from the profiler: {diff}")
    finally:
        tracer.uninstall()
    metrics["trace.overhead_s"] = traced_wall - untraced_wall
    metrics["trace.untraced_wall_s"] = untraced_wall
    return metrics


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe", action="store_true")
    args = parser.parse_args()

    workdir = ROOT / ".perfbench_work" / str(os.getpid())
    workdir.mkdir(parents=True)
    cwd = os.getcwd()
    try:
        os.chdir(workdir)
        session = Session(args.workload, args.seed, workdir)
        print("ready", flush=True)
        if args.probe:
            print(statistics.median(speed.kernel_time() for _ in range(9)), flush=True)
            return 0
        if args.trace:
            metrics = traced_run(session)
        else:
            metrics = timed_run(session, args.seconds)
        if args.workload == "axiom-sweep":
            session.problems.extend(verify_tropicalization())
    finally:
        os.chdir(cwd)
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            workdir.parent.rmdir()
    print(json.dumps({"jobs": len(session.jobs), "attempted": session.attempted,
                      "failed": session.failed, "problems": session.problems,
                      "metrics": metrics}), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
