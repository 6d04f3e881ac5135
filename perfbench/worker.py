"""One pass of a workload in a fresh interpreter.

Run by run.py, never reused: heartglue keeps process-global caches, so a
second pass in the same process would start with the state of the first.
Prints one JSON line: the set-up time from interpreter start (the parent
passes the wall-clock time at which it started this process), the time
of every operation, the failures, the peak resident memory, and with
--trace the per-layer figures of the whole pass, set-up included.  With
--setup-only it stops after set-up and prints the set-up time alone.

Before every operation the pass times reference(), a fixed load that
does not call heartglue, and reports scale = REFERENCE_S / its mean time.
The times printed are raw; run.py multiplies them by scale.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import sys
import time
import traceback
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent

# Time of reference() on an undisturbed machine.  Never change it: every
# reported time is scaled by it, so a new value would move every figure.
REFERENCE_S = 0.0025


def reference() -> None:
    """A fixed pure-Python load of the program's kind: rational
    elimination on a 10 x 12 integer matrix."""
    rows = [[Fraction((i * 7 + j * 3) % 11 - 5) for j in range(12)]
            for i in range(10)]
    h = 0
    for c in range(12):
        p = next((i for i in range(h, 10) if rows[i][c] != 0), None)
        if p is None:
            continue
        rows[h], rows[p] = rows[p], rows[h]
        for i in range(10):
            if i != h and rows[i][c] != 0:
                f = rows[i][c] / rows[h][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[h])]
        h += 1
        if h == 10:
            break


def timed_reference() -> float:
    t = time.perf_counter()
    reference()
    return time.perf_counter() - t


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--trace-file")
    ap.add_argument("--setup-only", action="store_true",
                    help="stop after set-up and report only its time")
    ap.add_argument("--started", type=float, required=True)
    ap.add_argument("--root", required=True)
    args = ap.parse_args()

    sys.path.insert(0, str(Path(args.root) / "src"))
    import heartglue  # noqa: F401  (set-up includes the package import)
    tracer = None
    if args.trace:
        import tracer as tracing
        tracer = tracing.Tracer()
        tracing.install(tracer)
    import workloads

    golden = json.loads((HERE / "golden" / f"{args.workload}.json")
                        .read_text(encoding="utf-8"))
    workdir = HERE / "out" / f"inputs-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        ops = workloads.build(args.workload, args.seed, workdir, golden)
        setup_s = time.time() - args.started
        if args.setup_only:
            refs = [timed_reference() for _ in range(20)]
            print(json.dumps({"setup_s": setup_s,
                              "scale": REFERENCE_S / statistics.mean(refs)}))
            return 0

        outcomes, times, refs = [], [], []
        perf = time.perf_counter
        first = perf()
        for op in ops:
            refs.append(timed_reference())
            t = perf()
            try:
                if tracer is None:
                    out = op.run()
                else:
                    out = tracer.spanned("bench.op", op.run)()
            except Exception:
                text = traceback.format_exc()
                print(f"{op.id} raised:\n{text}", file=sys.stderr)
                out = Raised(text.strip().splitlines()[-1])
            times.append(perf() - t)
            outcomes.append(out)
        wall_s = perf() - first - sum(refs)

        failures = []
        for op, out in zip(ops, outcomes):
            why = (f"raised {out.message}" if isinstance(out, Raised)
                   else op.check(out, golden))
            if why:
                failures.append([op.id, why])
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    result = {
        "setup_s": setup_s,
        "wall_s": wall_s,
        "op_s": times,
        "scale": REFERENCE_S / statistics.mean(refs),
        "failures": failures,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024,
    }
    if tracer is not None:
        result["layers"] = tracer.metrics()
        if args.trace_file:
            tracer.write(args.trace_file,
                         {"workload": args.workload, "seed": args.seed,
                          "wall_s": wall_s, "setup_s": setup_s})
    print(json.dumps(result))
    return 0


class Raised:
    """Outcome of an operation that raised instead of giving a verdict."""

    def __init__(self, message: str):
        self.message = message


if __name__ == "__main__":
    sys.exit(main())
