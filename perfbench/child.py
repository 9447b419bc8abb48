"""One benchmark pass in a fresh interpreter.

`run.py` starts this script once per pass, writes a JSON
request to its stdin and reads one JSON result from its stdout.  The request
lists the argv to hand to `shiftlab.cli.main`, in order, and whether to
trace.  Each job's stdout and stderr are captured in memory; the result
carries, per job, the exit status, the sha256 of the stdout, the report's
`tuples_checked` and the wall time of the `main` call.

Usage: python3 perfbench/child.py LAUNCHED < request.json
LAUNCHED is `run.py`'s `time.monotonic()` just before the start, so the
child can report its set-up time: interpreter start plus `import shiftlab.cli`.
"""

import os
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, SRC)
try:
    import shiftlab.cli
except ImportError as exc:
    print(f"child: cannot import shiftlab from {SRC}: {exc}", file=sys.stderr)
    sys.exit(3)
IMPORTED = time.monotonic()

import contextlib  # noqa: E402  (imported after the set-up clock stops)
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import traceback  # noqa: E402


def _run(argv: list[str]) -> tuple[int | str, str, str, float]:
    out, err = io.StringIO(), io.StringIO()
    started = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            status = shiftlab.cli.main(argv)
    except Exception:  # a traceback is a failed job, never a crashed pass
        status = "exception: " + traceback.format_exc(limit=3).strip().splitlines()[-1]
    return status, out.getvalue(), err.getvalue(), time.perf_counter() - started


def _tuples(stdout: str) -> int:
    try:
        return int(json.loads(stdout)["tuples_checked"])
    except (ValueError, KeyError, TypeError):
        return 0


def main() -> int:
    launched = float(sys.argv[1])
    where = os.path.realpath(os.path.dirname(shiftlab.__file__))
    if where != os.path.realpath(os.path.join(SRC, "shiftlab")):
        print(f"child: shiftlab was imported from {where}, not {SRC}", file=sys.stderr)
        return 3
    request = json.load(sys.stdin)
    tracer = None
    if request.get("spans"):
        from tracer import Tracer

        tracer = Tracer()
        tracer.install(shiftlab)
        shiftlab.cli.main = tracer.span("cli.main", shiftlab.cli.main)
    jobs = []
    for index, argv in enumerate(request["runs"]):
        if tracer is not None:
            tracer.job = index
        status, stdout, stderr, wall = _run(argv)
        jobs.append(
            {
                "status": status,
                "sha256": hashlib.sha256(stdout.encode()).hexdigest(),
                "tuples": _tuples(stdout),
                "wall_s": wall,
                "stderr": stderr[-400:],
            }
        )
    result = {
        "setup_s": IMPORTED - launched,
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "jobs": jobs,
    }
    if tracer is not None:
        tracer.save(request["spans"])
        result["layers"] = tracer.table()
    json.dump(result, sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
