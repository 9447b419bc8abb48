#!/usr/bin/env python3
"""shiftlab benchmark harness.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  One harness process starts one fresh
child interpreter per pass (`child.py`), one at a time; each pass runs every
job of the workload through `shiftlab.cli.main` in-process.  Passes repeat
until the next one would overrun `--seconds` (at least MIN_PASSES);
`--seconds` defaults to `run_seconds` of BENCHMARK.json, the length the
recorded baseline was measured at.

Every job's output is checked: exit status 0, stdout sha256 equal to the
digest recorded in `digests.json`, and `--threads 2` stdout identical to
`--threads 1` stdout.  A job failing any check counts in `failed`.

With `--trace 0` the metrics are the end-to-end ones of BENCHMARK.json, as
medians over the passes.  With `--trace 1` untraced and traced passes
alternate and the metrics are the per-layer ones.  The last stdout line is
the result; the line before it holds the full detail, which is also written
to `.perfbench_out/` together with the spans of the last traced pass.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"
NPROC = os.cpu_count() or 1
MIN_PASSES = 3
# A run has 180 s in all; no pass starts that would end past this.
CEILING_S = 165.0
# Child interpreters use no more threads than `--threads` asks for.
CHILD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


class HarnessError(Exception):
    """The benchmark cannot run here (no source tree, a child crashed)."""


def launch(request: dict, timeout: float) -> dict:
    """Run one child to completion and return its parsed result."""
    payload = json.dumps(request)
    env = dict(os.environ, **CHILD_ENV)
    # Byte-compile once (the warm-up child does it), as an installed package is.
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    launched = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "child.py"), repr(launched)],
            input=payload, capture_output=True, text=True, cwd=ROOT, env=env,
            timeout=max(timeout, 1.0),
        )
    except subprocess.TimeoutExpired as exc:
        raise HarnessError(f"child exceeded {exc.timeout:.0f} s") from exc
    if proc.returncode != 0:
        raise HarnessError(
            f"child exited {proc.returncode}: {proc.stderr.strip()[-2000:]}"
        )
    return json.loads(proc.stdout)


def expand(jobs: list[workloads.Job], cache_dir: Path) -> list[dict]:
    """One run per (job, thread count), with the flags the harness adds."""
    runs = []
    for job in jobs:
        argv = list(job.argv)
        if job.cache:
            argv += ["--cache-dir", os.path.relpath(cache_dir, ROOT)]
        for threads in job.threads or (None,):
            extra = [] if threads is None else ["--threads", str(min(threads, NPROC))]
            runs.append({"job": job, "threads": threads, "argv": argv + extra})
    return runs


def run_pass(jobs: list[workloads.Job], traced: bool, tag: str, timeout: float) -> dict:
    work = OUT / f"tmp-{tag}"
    shutil.rmtree(work, ignore_errors=True)
    runs = expand(jobs, work / "cache")
    request = {"runs": [r["argv"] for r in runs]}
    if traced:
        request["spans"] = str(OUT / f"{tag}-spans.npz")
    try:
        result = launch(request, timeout)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    for run, rec in zip(runs, result["jobs"]):
        rec.update(name=run["job"].name, key=run["job"].key, threads=run["threads"])
    result["traced"] = traced
    result["wall_s"] = sum(rec["wall_s"] for rec in result["jobs"])
    result["tuples"] = sum(rec["tuples"] for rec in result["jobs"])
    return result


def check(result: dict, digests: dict) -> list[str]:
    """Mark each job of a pass; return one line per failed job."""
    failures = []
    first: dict[str, str] = {}
    for rec in result["jobs"]:
        why = []
        if rec["status"] != 0:
            why.append(f"exit status {rec['status']}")
        want = digests.get(rec["key"], {}).get("sha256")
        if want is None:
            why.append("no recorded digest")
        elif rec["sha256"] != want:
            why.append("stdout differs from the recorded digest")
        if rec["threads"] is not None and rec["threads"] > 1:
            if rec["sha256"] != first.get(rec["key"]):
                why.append("stdout differs from the --threads 1 stdout")
        else:
            first[rec["key"]] = rec["sha256"]
        rec["failed"] = bool(why)
        if why:
            kind = "traced" if result["traced"] else "untraced"
            failures.append(f"{kind} {rec['name']} (threads {rec['threads']}): "
                            + "; ".join(why) + f" :: {rec['key']}")
    return failures


def median(values) -> float:
    return statistics.median(values) if values else 0.0


def end_to_end(passes: list[dict], setups: list[float], attempted: int, failed: int) -> dict:
    return {
        "wall_s": median([p["wall_s"] for p in passes]),
        "setup_s": median(setups),
        "peak_rss_mib": median([p["peak_rss_mib"] for p in passes]),
        "tuples_per_s": median([p["tuples"] / p["wall_s"] for p in passes]),
        "passed_jobs_ratio": (attempted - failed) / attempted,
    }


def per_layer(untraced: list[dict], traced: list[dict]) -> dict:
    """Median over traced passes of every layer figure, plus derived ratios."""
    names = sorted({k for p in traced for k in p["layers"]})
    table = {k: median([p["layers"].get(k, 0) for p in traced]) for k in names}

    def ratio(num: str, den: str) -> float:
        return table.get(num, 0) / table[den] if table.get(den) else 0.0

    table["subshift.linear_hitting.nonempty_ratio"] = ratio(
        "subshift.linear_hitting.nonempty", "subshift.linear_hitting.calls")
    table["subshift.certificate.issued_ratio"] = ratio(
        "subshift.certificate.issued", "subshift.certificate.calls")
    untraced_wall = median([p["wall_s"] for p in untraced])
    table["trace.untraced_wall_s"] = untraced_wall
    table["trace.traced_wall_s"] = median([p["wall_s"] for p in traced])
    table["trace.overhead_ratio"] = table["trace.traced_wall_s"] / untraced_wall

    job_walls: dict[str, list[float]] = defaultdict(list)
    threads1, threads2 = [], []
    for p in untraced:
        for r in p["jobs"]:
            suffix = "" if r["threads"] in (None, 1) else f".threads{r['threads']}"
            job_walls[f"cli.job.{r['name']}{suffix}.wall_s"].append(r["wall_s"])
        t2 = sum(r["wall_s"] for r in p["jobs"] if r["threads"] == 2)
        if t2:
            threads1.append(sum(r["wall_s"] for r in p["jobs"] if r["threads"] == 1))
            threads2.append(t2)
    table.update({k: median(v) for k, v in job_walls.items()})
    if threads2:
        table["dynamics.threads1_wall_s"] = median(threads1)
        table["dynamics.threads2_wall_s"] = median(threads2)
        table["dynamics.threads2_over_threads1"] = median(threads2) / median(threads1)
    return dict(sorted(table.items()))


def spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def measure(workload: str, seed: int, seconds: float, trace: bool) -> tuple[dict, dict]:
    wanted = spec()["per_layer" if trace else "end_to_end"]
    digests = json.loads((HERE / "digests.json").read_text())
    jobs = workloads.jobs_for(workload, seed)
    OUT.mkdir(exist_ok=True)
    tag = f"{workload}-seed{seed}-trace{int(trace)}"
    started = time.monotonic()

    def left() -> float:
        return CEILING_S - (time.monotonic() - started)

    launch({"runs": []}, left())  # warm-up: byte-compiles, checks the source tree
    setups: list[float] = []
    passes: list[dict] = []
    failures: list[str] = []
    kinds = [False, True] if trace else [False]
    while True:
        for traced in kinds:
            t0 = time.monotonic()
            result = run_pass(jobs, traced, tag, left())
            result["duration_s"] = time.monotonic() - t0
            failures += check(result, digests)
            setups.append(result["setup_s"])
            passes.append(result)
        elapsed = time.monotonic() - started
        cycle = sum(p["duration_s"] for p in passes[-len(kinds):])
        if len(passes) >= MIN_PASSES and elapsed + cycle > seconds:
            break
        if elapsed + cycle > CEILING_S:
            break

    attempted = sum(len(p["jobs"]) for p in passes)
    failed = sum(r["failed"] for p in passes for r in p["jobs"])
    untraced = [p for p in passes if not p["traced"]]
    if trace:
        table = per_layer(untraced, [p for p in passes if p["traced"]])
    else:
        table = end_to_end(untraced, setups, attempted, failed)
    metrics = {m["name"]: {"value": table.get(m["name"], 0), "unit": m["unit"]}
               for m in wanted}
    detail = {
        "workload": workload,
        "seed": seed,
        "trace": int(trace),
        "jobs": [list(j.argv) for j in jobs],
        "passes": [
            {k: p[k] for k in ("traced", "wall_s", "setup_s", "peak_rss_mib", "tuples")}
            | {"jobs": [[r["name"], r["threads"], r["wall_s"]] for r in p["jobs"]]}
            for p in passes
        ],
        "samples": {"passes": len(untraced), "traced_passes": len(passes) - len(untraced),
                    "setup_s": len(setups)},
        "setup_samples": setups,
        "failures": failures,
        "table": table,
        "env": {"nproc": NPROC, "python": sys.version.split()[0]},
    }
    (OUT / f"{tag}.json").write_text(json.dumps(detail, indent=1) + "\n")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    return result, detail


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float,
                        help="how long to measure (default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        seconds = spec()["run_seconds"] if args.seconds is None else args.seconds
        result, detail = measure(args.workload, args.seed, seconds, bool(args.trace))
    except (HarnessError, OSError, ValueError, KeyError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    for line in detail["failures"]:
        print(f"FAILED {line}", file=sys.stderr)
    print(json.dumps({"detail": detail}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
