"""Print every workload's latest end-to-end and per-layer tables.

Run from the repository root after benchmark runs (``--trace 0`` and
``--trace 1``) have written their reports to ``.perfbench/reports/``::

    python3 perfbench/report.py
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    reports = ROOT / ".perfbench" / "reports"
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    missing = 0
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            found = sorted(
                reports.glob(f"{workload}-seed*-trace{trace}.json"),
                key=lambda path: path.stat().st_mtime,
            )
            if not found:
                print(f"{workload}: no --trace {trace} report yet\n")
                missing += 1
                continue
            report = json.loads(found[-1].read_text())
            print(f"[{found[-1].name}]")
            print(report["report"])
            for problem in report["problems"]:
                print(f"CHECK FAILED: {problem}")
            print()
    return 1 if missing else 0


if __name__ == "__main__":
    sys.exit(main())
