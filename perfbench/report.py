"""Run every workload and print one row of end-to-end metrics each.

    python3 perfbench/report.py --seed N [--seconds S] [--trace]
                                [--record perfbench/baseline.json]

Run from the root of a checkout.  Each workload runs once through
perfbench/run.py; --trace adds a traced run per workload for the
per-layer metrics.  failed_frac is failed jobs over attempted jobs.
--record adds the rows, the per-layer numbers and the report digest of
every job under this seed to the given JSON file.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

import jobs
import run

HERE = Path(__file__).resolve().parent


def run_workload(workload, seed, seconds, trace):
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(int(trace))],
        stdout=subprocess.PIPE, text=True, check=True).stdout
    detail, result = (json.loads(line) for line in out.splitlines()[-2:])
    return detail["detail"], result


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=json.loads(
        (HERE.parent / "BENCHMARK.json").read_text())["run_seconds"])
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--record", type=Path)
    args = parser.parse_args(argv)

    rows = {}
    for workload in jobs.WORKLOADS:
        detail, result = run_workload(workload, args.seed, args.seconds,
                                      False)
        row = {name: m["value"] for name, m in result["metrics"].items()}
        row["failed_frac"] = result["failed"] / result["attempted"]
        row["attempted"] = result["attempted"]
        row["passes"] = detail["passes"]
        row["job_tail_percentile"] = detail["job_tail"]["percentile"]
        row["job_tail_samples"] = detail["job_tail"]["samples"]
        entry = {"end_to_end": row, "digests": detail["digests"]}
        if args.trace:
            _, traced = run_workload(workload, args.seed, args.seconds, True)
            entry["per_layer"] = {name: m["value"]
                                  for name, m in traced["metrics"].items()}
        rows[workload] = entry
        for failure in detail["failures"]:
            print(f"FAILED {workload}: {failure}", file=sys.stderr)

    units = {name: m["unit"] for name, m in result["metrics"].items()}
    units["failed_frac"] = "ratio"
    names = list(units)
    print(f"seed {args.seed}, run_seconds {args.seconds:g}")
    print(f"{'workload':12s}" + "".join(f"{f'{n} [{units[n]}]':>20s}"
                                        for n in names))
    for workload, entry in rows.items():
        row = entry["end_to_end"]
        print(f"{workload:12s}" + "".join(f"{row[n]:20.4f}" for n in names)
              + f"   tail p{row['job_tail_percentile']:g}"
              f" of {row['job_tail_samples']} jobs")
    if args.record:
        data = (json.loads(args.record.read_text())
                if args.record.exists() else {})
        data["about"] = {
            "load": "1 closed-loop client, one fresh reescalc process per "
                    "job, one job at a time",
            "run_seconds": args.seconds,
            "machine": f"{os.cpu_count()} CPUs, {platform.machine()}, "
                       f"Python {platform.python_version()}",
            "source_digest": run.source_digest(Path.cwd() / "src"),
        }
        data.setdefault("seeds", {})[str(args.seed)] = rows
        args.record.write_text(json.dumps(data, indent=1, sort_keys=True)
                               + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
