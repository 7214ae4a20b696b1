"""Outside-in benchmark of the reescalc command line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the program is taken from ./src.  One
closed-loop client runs the workload's jobs one at a time, each a fresh
`python3 -m reescalc.cli ...` process, so interpreter start, import,
parsing and JSON output are paid on every call and no in-memory cache
survives from one job to the next.  A pass runs every job once; passes
repeat while another one is expected to end within S seconds, and at
least one runs.  Every answer is checked against hand-written values
(jobs.py), and a job whose report bytes differ between repetitions fails.

--trace 0 prints the end-to-end metrics, --trace 1 the per-layer ones:
it alternates untraced passes with passes under perfbench/tracer.py and
also reports trace.overhead_frac, traced over untraced pass time minus 1.
The last line of stdout is the result object; the line before it holds
details (job digests, the tail percentile and its sample count).
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import jobs as workload_jobs
import layers

HERE = Path(__file__).resolve().parent
JOB_TIMEOUT_S = 100
RUN_DEADLINE_S = 170
SETUP_PROBES = 9
# Fresh-interpreter set-up: import the CLI and parse and embed every
# problem of the workload, with no computation.
SETUP_PROBE = """\
import sys
import reescalc.cli
from reescalc.problem import parse_problem
for path in sys.argv[1:]:
    with open(path) as fh:
        parse_problem(fh.read()).embedding()
"""

E2E_UNITS = {"setup_s": "s", "wall_s": "s", "cpu_s": "s", "job_p50_s": "s",
             "job_tail_s": "s", "peak_rss_mb": "MB"}


def layer_unit(name):
    if name.endswith("_s"):
        return "s"
    if name.endswith("_frac"):
        return "ratio"
    return "count"


@dataclass
class JobRun:
    job: str
    wall: float
    cpu: float
    rss_mb: float
    digest: str
    error: str = None
    trace: Path = None


class Runner:
    def __init__(self, root, work):
        self.root = root
        self.work = work
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"))
        self.deadline = time.monotonic() + RUN_DEADLINE_S
        self.count = 0

    def spawn(self, argv):
        """Run argv to exit; returns (status, wall, rusage, stdout, stderr,
        timed_out)."""
        out_path = self.work / "stdout"
        err_path = self.work / "stderr"
        timeout = max(1.0, min(JOB_TIMEOUT_S,
                               self.deadline - time.monotonic()))
        state = {"exited": False, "killed": False}
        lock = threading.Lock()
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, stdout=out, stderr=err,
                                    env=self.env, cwd=self.root)

            def kill():
                with lock:
                    if not state["exited"]:
                        state["killed"] = True
                        proc.kill()

            timer = threading.Timer(timeout, kill)
            timer.start()
            try:
                # Wait without reaping, so the pid cannot be reused before
                # the timer is disarmed; then reap and read the rusage.
                os.waitid(os.P_PID, proc.pid, os.WEXITED | os.WNOWAIT)
                wall = time.perf_counter() - start
                with lock:
                    state["exited"] = True
                timer.cancel()
                _, status, usage = os.wait4(proc.pid, 0)
                proc.returncode = os.waitstatus_to_exitcode(status)
            except BaseException:
                timer.cancel()
                if proc.returncode is None:
                    proc.kill()
                    proc.wait()
                raise
        return (proc.returncode, wall, usage, out_path.read_bytes(),
                err_path.read_text(errors="replace"), state["killed"])

    def run_job(self, job, traced):
        self.count += 1
        if traced:
            trace = self.work / f"spans-{self.count}.json"
            argv = [sys.executable, str(HERE / "tracer.py"),
                    f"{job.name}#{self.count}", str(trace)] + job.argv
        else:
            trace = None
            argv = [sys.executable, "-m", "reescalc.cli"] + job.argv
        status, wall, usage, stdout, stderr, killed = self.spawn(argv)
        if killed:
            error = "timed out"
        else:
            error = job.check(status, stdout)
        if error and stderr.strip():
            error += f" ({stderr.strip().splitlines()[-1]})"
        return JobRun(job.name, wall, usage.ru_utime + usage.ru_stime,
                      usage.ru_maxrss / 1024, hashlib.sha256(stdout).hexdigest(),
                      error, trace)

    def setup_s(self, jobs):
        """Median wall time of fresh interpreters that import the CLI and
        parse and embed every valid problem file of the workload."""
        files = sorted({str(j.problem) for j in jobs
                        if j.problem is not None and j.exit_code == 0})
        argv = [sys.executable, "-c", SETUP_PROBE] + files
        times = []
        for _ in range(SETUP_PROBES):
            status, wall, _, _, stderr, _ = self.spawn(argv)
            if status != 0:
                raise RuntimeError(f"set-up probe failed: {stderr.strip()}")
            times.append(wall)
        return statistics.median(times)

    def warm_up(self):
        """One untimed import, so that bytecode is compiled before timing."""
        status, _, _, _, stderr, _ = self.spawn(
            [sys.executable, "-c", "import reescalc.cli"])
        if status != 0:
            raise RuntimeError(f"cannot import reescalc: {stderr.strip()}")


def repeat(run_pass, seconds):
    """Run passes while another is expected to end within seconds."""
    passes = []
    start = time.perf_counter()
    while True:
        passes.append(run_pass())
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / len(passes) > seconds:
            return passes


def tail(values):
    """Highest nearest-rank percentile with at least ten samples above it,
    as (value, percentile, samples).  Below 21 samples the bar drops to
    what keeps the value at or above the median."""
    values = sorted(values)
    n = len(values)
    above = min(10, (n - 1) // 2)
    return values[n - above - 1], 100.0 * (n - above) / n, n


def source_digest(src):
    h = hashlib.sha256()
    for path in sorted((src / "reescalc").rglob("*.py")):
        h.update(str(path.relative_to(src)).encode() + b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()


class DigestStore:
    """Report digests by source tree and job input, kept in the checkout
    across runs, so that a job run once per run is still compared with
    its earlier repetitions."""

    def __init__(self, path, src_digest):
        self.path = path
        self.prefix = src_digest[:16]
        try:
            self.known = json.loads(path.read_text())
        except (OSError, ValueError):
            self.known = {}

    def key(self, job):
        parts = [self.prefix]
        for arg in job.argv:
            if job.problem is not None and arg == str(job.problem):
                arg = hashlib.sha256(job.problem.read_bytes()).hexdigest()
            parts.append(arg)
        return " ".join(parts)

    def check(self, job, digest):
        """Digest recorded earlier for the same input, if it differs."""
        previous = self.known.setdefault(self.key(job), digest)
        return None if previous == digest else previous

    def save(self):
        tmp = self.path.with_suffix(".tmp")
        tmp.write_text(json.dumps(self.known, indent=0, sort_keys=True))
        tmp.replace(self.path)


def mark_nondeterministic(runs, jobs, store):
    """Fail every repetition whose report digest differs from the job's
    first one in this run or from the one stored for the same input."""
    by_name = {j.name: j for j in jobs}
    first = {}
    for run in runs:
        ref = first.setdefault(run.job, run.digest)
        stored = store.check(by_name[run.job], ref)
        if run.error is None and run.digest != ref:
            run.error = "report differs between repetitions"
        elif run.error is None and stored is not None:
            run.error = "report differs from an earlier run"


def end_to_end(passes, setup):
    job_walls = [r.wall for p in passes for r in p]
    tail_value, percentile, samples = tail(job_walls)
    values = {
        "setup_s": setup,
        "wall_s": statistics.median(sum(r.wall for r in p) for p in passes),
        "cpu_s": statistics.median(sum(r.cpu for r in p) for p in passes),
        "job_p50_s": statistics.median(job_walls),
        "job_tail_s": tail_value,
        "peak_rss_mb": statistics.median(max(r.rss_mb for r in p)
                                         for p in passes),
    }
    detail = {"job_tail": {"percentile": round(percentile, 1),
                           "samples": samples}}
    return values, detail


def per_layer(untraced, traced):
    rows = [layers.pass_metrics([json.loads(r.trace.read_text())
                                 for r in p if r.trace.exists()])
            for p in traced]
    values = {name: statistics.median(row[name] for row in rows)
              for name in layers.METRICS}
    wall = statistics.median(sum(r.wall for r in p) for p in untraced)
    traced_wall = statistics.median(sum(r.wall for r in p) for p in traced)
    values["trace.overhead_frac"] = traced_wall / wall - 1
    return values


def traced_pass(runner, jobs, flip):
    """Each job untraced and traced back to back, the order flipping from
    one pass to the next, so that drift in machine speed cancels out of
    the overhead."""
    untraced, traced = [], []
    for job in jobs:
        for trace in ((True, False) if flip else (False, True)):
            (traced if trace else untraced).append(runner.run_job(job, trace))
    return untraced, traced


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=workload_jobs.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    src = root / "src"
    if not (src / "reescalc" / "cli.py").is_file():
        print("error: no reescalc sources under ./src; run this from the "
              "root of a reescalc checkout", file=sys.stderr)
        return 2
    work_root = root / ".bench_work"
    work_root.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=work_root))
    try:
        return measure(args, root, work, work_root)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def measure(args, root, work, work_root):
    jobs = workload_jobs.build(args.workload, args.seed, work / "inputs")
    runner = Runner(root, work)
    runner.warm_up()
    if args.trace:
        flips = itertools.cycle((False, True))
        pairs = repeat(lambda: traced_pass(runner, jobs, next(flips)),
                       args.seconds)
        untraced = [u for u, _ in pairs]
        traced = [t for _, t in pairs]
        runs = [r for u, t in pairs for r in u + t]
    else:
        setup = runner.setup_s(jobs)
        untraced = repeat(lambda: [runner.run_job(j, False) for j in jobs],
                          args.seconds)
        runs = [r for p in untraced for r in p]
    store = DigestStore(work_root / "digests.json",
                        source_digest(root / "src"))
    mark_nondeterministic(runs, jobs, store)
    store.save()

    failures = [f"{r.job}: {r.error}" for r in runs if r.error]
    ok = not failures
    detail = {"workload": args.workload, "seed": args.seed,
              "passes": len(untraced),
              "digests": {r.job: r.digest for r in untraced[0]}}
    if args.trace:
        values = per_layer(untraced, traced)
        units = {name: layer_unit(name) for name in values}
    else:
        values, extra = end_to_end(untraced, setup)
        detail.update(extra)
        units = E2E_UNITS
    for failure in failures:
        print(f"FAILED {failure}", file=sys.stderr)
    for name, value in values.items():
        print(f"{args.workload:12s} {name:40s} {value:12.6g} {units[name]}",
              file=sys.stderr)
    detail["failures"] = failures
    print(json.dumps({"detail": detail}, sort_keys=True))
    print(json.dumps({
        "correct": ok, "attempted": len(runs), "failed": len(failures),
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in values.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
