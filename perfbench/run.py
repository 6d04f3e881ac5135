"""heartglue benchmark: time to a verdict on three workloads.

    python3 perfbench/run.py --workload hom-scan --seed 1 --seconds 40 \\
        --trace 0

Run from the repository root.  The load is a closed loop: one client, one
process, one thread, one operation at a time.  A run repeats passes of the
workload's fixed, seeded operation list, each pass in a fresh interpreter
(worker.py), for as many passes as fit in --seconds, and reports:

  wall_s       time of a pass, first operation to last verdict (median)
  op_s.p50     time to a verdict per operation: the median and the 90th
  op_s.p90     percentile over the operations of each one's median time
  peak_rss_mb  peak resident memory of a pass's process (median)
  setup_s      interpreter start to first operation (median), taken in
               every untraced pass and in one set-up-only process after it

Times are in seconds at a fixed machine speed.  Each process times a
fixed pure-Python reference load between operations, and every time it
measures is multiplied by the reference's nominal time over its mean
measured time.  On a shared 2-vCPU VM the same hom-scan pass took from
5.0 to 8.8 s within a few minutes, and the reference load slowed with
it; the unscaled medians are printed too.

With --trace 1 the passes alternate untraced and traced, and the run
reports the per-layer figures of the traced passes (medians), and the
tracing overhead as traced over untraced wall_s; the spans of the last
traced pass go to perfbench/out/trace-<workload>-<seed>.jsonl.  The last
line of output is one JSON object; every operation's output is checked
and failures count against correctness.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from tracer import LAYER_METRICS  # noqa: E402

WORKLOADS = ("hom-scan", "ext-calculus", "glue-truncate")
MIN_PASSES = 3
RUN_LIMIT_S = 150       # start no pass that could end after this

# Predictions the traced run checks: (workload, metric, test, wording).
PREDICTIONS = [
    ("hom-scan", "derived.dhom_space.hit_ratio", lambda v: v < 0.05,
     "dhom_space hit ratio is about 0 (< 0.05)"),
    ("hom-scan", "linalg.rref.self_share", lambda v: v < 0.10,
     "rref is a small share of self time (< 0.10)"),
    ("glue-truncate", "derived.dhom_space.hit_ratio", lambda v: v > 0,
     "dhom_space hit ratio is above 0"),
    ("glue-truncate", "linalg.rref.self_share", lambda v: v > 0.25,
     "rref is a large share of self time (> 0.25)"),
]


def run_pass(root: Path, workload: str, seed: int, timeout: float,
             trace: bool = False, setup_only: bool = False) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--trace", str(int(trace)),
           "--root", str(root)]
    if trace:
        cmd += ["--trace-file",
                str(HERE / "out" / f"trace-{workload}-{seed}.jsonl")]
    if setup_only:
        cmd.append("--setup-only")
    env = dict(os.environ, PYTHONHASHSEED="0")
    env.pop("HEARTGLUE_CORPUS_DIR", None)
    cmd += ["--started", repr(time.time())]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, env=env, text=True,
                          timeout=timeout)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"worker exited with status {proc.returncode}")
    return json.loads(lines[-1])


def quantile(values: list[float], q: int) -> float:
    """The q-th percentile of values."""
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    # subprocess.run kills and reaps the running pass when an exception
    # unwinds through it, so turn a termination request into one
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    root = Path.cwd()
    if not (root / "src" / "heartglue" / "__init__.py").is_file():
        print("error: run from the repository root; src/heartglue is "
              "missing", file=sys.stderr)
        return 2
    (HERE / "out").mkdir(exist_ok=True)

    plain, traced, setups = [], [], []
    start = time.monotonic()
    durations = []
    while True:
        trace = bool(args.trace) and len(traced) < len(plain)
        elapsed = time.monotonic() - start
        timeout = max(RUN_LIMIT_S + 25 - elapsed, 1)
        try:
            t = time.monotonic()
            got = run_pass(root, args.workload, args.seed, timeout, trace)
            if not trace:
                # one more set-up in a fresh process, for a steadier median
                probe = run_pass(root, args.workload, args.seed, timeout,
                                 setup_only=True)
                setups += [got["setup_s"] * got["scale"],
                           probe["setup_s"] * probe["scale"]]
            durations.append(time.monotonic() - t)
        except (RuntimeError, subprocess.TimeoutExpired) as e:
            print(f"error: pass failed: {e}", file=sys.stderr)
            return 1
        (traced if trace else plain).append(got)
        elapsed = time.monotonic() - start
        if elapsed + max(durations) > RUN_LIMIT_S:
            break
        if (len(durations) >= MIN_PASSES
                and elapsed + statistics.median(durations) > args.seconds):
            break

    passes = plain + traced
    attempted = sum(len(p["op_s"]) for p in passes)
    failures = [f for p in passes for f in p["failures"]]
    for op_id, why in failures[:20]:
        print(f"FAILED {op_id}: {why}")
    median = statistics.median
    # every pass runs the same operations in the same order, so each
    # operation has one time per untraced pass; take its median
    raw_ops = [median(ts) for ts in zip(*(p["op_s"] for p in plain))]
    ops = [median(ts) for ts in zip(*([t * p["scale"] for t in p["op_s"]]
                                      for p in plain))]
    e2e = {
        "wall_s": (median(p["wall_s"] * p["scale"] for p in plain), "s"),
        "op_s.p50": (median(ops), "s"),
        "op_s.p90": (quantile(ops, 90), "s"),
        "peak_rss_mb": (median(p["peak_rss_mb"] for p in plain), "MB"),
        "setup_s": (median(setups), "s"),
    }
    raw = {"wall_s": median(p["wall_s"] for p in plain),
           "op_s.p50": median(raw_ops), "op_s.p90": quantile(raw_ops, 90)}
    print(f"{args.workload} seed={args.seed}: {len(plain)} untraced and "
          f"{len(traced)} traced passes, {attempted} operations, "
          f"{len(failures)} failed (ops_failed_ratio "
          f"{len(failures) / attempted:.4f}); machine speed scale "
          f"{median(p['scale'] for p in plain):.3f}")
    per_op = f"{len(ops)} operations, each the median of {len(plain)}"
    samples = {"op_s.p50": per_op, "op_s.p90": per_op,
               "setup_s": f"median of {len(setups)}",
               "wall_s": f"median of {len(plain)}",
               "peak_rss_mb": f"median of {len(plain)}"}
    for name, (value, unit) in e2e.items():
        unscaled = (f", unscaled {raw[name]:.6g} {unit}" if name in raw
                    else "")
        print(f"  {name} = {value:.6g} {unit}  ({samples[name]}{unscaled})")

    if args.trace:
        layers = {}
        for name, unit, _, _ in LAYER_METRICS:
            if name == "trace.overhead_ratio":
                value = (median(p["wall_s"] * p["scale"] for p in traced)
                         / e2e["wall_s"][0])
            elif unit == "s":
                value = median(p["layers"][name] * p["scale"]
                               for p in traced)
            else:
                value = median(p["layers"][name] for p in traced)
            layers[name] = (value, unit)
        for name, unit, _, moves in LAYER_METRICS:
            print(f"  {name} = {layers[name][0]:.6g} {unit}  "
                  f"(should move {moves})")
        for workload, name, test, wording in PREDICTIONS:
            if workload == args.workload:
                held = "held" if test(layers[name][0]) else "DID NOT HOLD"
                print(f"  prediction on {workload}: {wording}: {held} "
                      f"({name} = {layers[name][0]:.4f})")
        metrics = layers
    else:
        metrics = e2e
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
