#!/usr/bin/env python3
"""Record the benchmark's reference data from the current source tree.

    python3 perfbench/record.py digests            # writes perfbench/digests.json
    python3 perfbench/record.py baseline           # writes perfbench/baseline.json

`digests` runs every alternative of every workload slot once per thread
count and stores the sha256 of its stdout, keyed by the argv without
`--threads`/`--cache-dir`.  It refuses to write if any run exits non-zero
or if the thread counts disagree.  Run it only on a commit whose output is
trusted; the digests are the benchmark's correctness oracle, beside the
goldens that `reproduce` already checks.

`baseline` runs `run.py` for every workload at seed 0, untraced and traced,
for `run_seconds` of BENCHMARK.json, and stores both results with the
environment they were measured in.
"""

from __future__ import annotations

import argparse
import json
import platform
import subprocess
import sys
import time

import run
import workloads


def record_digests() -> int:
    run.OUT.mkdir(exist_ok=True)
    digests: dict[str, dict] = {}
    problems = []
    for workload, slots in workloads.WORKLOADS.items():
        jobs = [
            workloads.Job(s.name, argv, s.threads, s.cache) for s in slots for argv in s.pool
        ]
        result = run.run_pass(jobs, False, f"record-{workload}", 600.0)
        for rec in result["jobs"]:
            entry = digests.setdefault(
                rec["key"],
                {"workload": workload, "slot": rec["name"], "sha256": rec["sha256"],
                 "tuples": rec["tuples"], "wall_s": {}},
            )
            entry["wall_s"][str(rec["threads"] or 1)] = round(rec["wall_s"], 3)
            if rec["status"] != 0:
                problems.append(f"{rec['key']}: exit status {rec['status']} {rec['stderr']}")
            if rec["sha256"] != entry["sha256"]:
                problems.append(f"{rec['key']}: thread counts disagree")
    for line in problems:
        print(line, file=sys.stderr)
    if problems:
        return 1
    path = run.HERE / "digests.json"
    path.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(digests)} digests to {path.relative_to(run.ROOT)}")
    return 0


def environment() -> dict:
    import numpy

    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=run.ROOT, capture_output=True, text=True,
            check=True,
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = None
    return {
        "nproc": run.NPROC,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_commit": commit,
        "threads_used": sorted({min(t, run.NPROC) for s in workloads.WORKLOADS.values()
                                for slot in s for t in slot.threads}),
        "machine": platform.machine(),
        "recorded": time.strftime("%Y-%m-%d", time.gmtime()),
    }


def record_baseline() -> int:
    seconds = run.spec()["run_seconds"]
    out = {"environment": environment(), "seconds": seconds, "workloads": {}}
    for workload in workloads.WORKLOADS:
        entry = {}
        for trace in (False, True):
            result, detail = run.measure(workload, 0, seconds, trace)
            if not result["correct"]:
                print("\n".join(detail["failures"]), file=sys.stderr)
                return 1
            key = "per_layer" if trace else "end_to_end"
            entry[key] = {k: v["value"] for k, v in result["metrics"].items()}
            entry[key + "_attempted"] = result["attempted"]
            entry[key + "_failed"] = result["failed"]
            if trace:
                entry["trace_table"] = detail["table"]
            else:
                entry["passes"] = len(detail["passes"])
        out["workloads"][workload] = entry
        print(f"{workload}: {json.dumps(entry['end_to_end'])}")
    path = run.HERE / "baseline.json"
    path.write_text(json.dumps(out, indent=1, sort_keys=True) + "\n")
    print(f"wrote {path.relative_to(run.ROOT)}")
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description="record digests or the seed baseline")
    parser.add_argument("what", choices=("digests", "baseline"))
    args = parser.parse_args()
    if args.what == "digests":
        return record_digests()
    return record_baseline()


if __name__ == "__main__":
    sys.exit(main())
