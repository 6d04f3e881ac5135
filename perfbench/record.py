"""Record the known verdicts the benchmark checks against.

For every CLI job of every workload this stores the exit status and the
canonical JSON report, byte for byte, in golden/<workload>.json; for
ext-calculus it also stores every nonzero Ext space the class
comparisons draw from.  The reports are a contract that must not change,
so record only to add a job, never to accept a changed report.

    python3 perfbench/record.py          (from the repository root)
"""

from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(Path.cwd() / "src"))

import workloads  # noqa: E402

# The failure path has a known answer too: the projectives of a3 in
# reverse order are not exceptional, because E_2 = P_2 maps to E_1 = P_3.
KNOWN_FAILURE = ("check-exceptional a3 rev", 1,
                 {"position": [2, 1], "shift": 0, "dim": 1})


def main() -> int:
    workdir = HERE / "out" / "record"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        inputs = workloads.Inputs(workdir)
        for name in workloads.WORKLOADS:
            reports = {}
            for job in workloads.cli_jobs(name):
                op = workloads.CliOp(inputs, *job)
                code, rendered = op.run()
                if code == 2:
                    raise SystemExit(f"{op.id}: input error\n{rendered}")
                bad = op.euler_mismatch(rendered)
                if bad:
                    raise SystemExit(f"{op.id}: {bad}")
                reports[op.id] = {"exit": code, "report": rendered}
            golden = {"reports": reports}
            if name == "ext-calculus":
                golden["spaces"] = workloads.record_spaces(inputs)
            if name == "hom-scan":
                op_id, code, failure = KNOWN_FAILURE
                got = reports[op_id]
                seen = json.loads(got["report"])["failure"]
                if got["exit"] != code or any(seen[k] != v
                                              for k, v in failure.items()):
                    raise SystemExit(f"{op_id}: unexpected verdict {seen}")
            path = HERE / "golden" / f"{name}.json"
            path.write_text(json.dumps(golden, indent=1, sort_keys=True)
                            + "\n", encoding="utf-8")
            codes = sorted(r["exit"] for r in reports.values())
            print(f"{name}: {len(reports)} reports "
                  f"({codes.count(1)} known failures)"
                  + (f", {len(golden['spaces'])} spaces"
                     if "spaces" in golden else ""))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
