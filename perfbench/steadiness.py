"""Two interleaved sets of benchmark runs: spread and agreement per metric.

Run from the repository root::

    python3 perfbench/steadiness.py --runs 10 --out perfbench/STEADINESS.md

Set A uses seeds 1..N and set B seeds N+1..2N.  Their runs alternate
(A1 B1 A2 B2 ...) and round i runs every workload before round i+1,
so host drift lands on both sets and every workload alike instead of
on whichever ran last.  For every workload and end-to-end metric the report gives
each set's median and spread (quartile distance over the median, as
``statistics.quantiles(values, n=4)`` gives them), and B's median
relative to A's, against the metric's bound in ``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_once(workload: str, seed: int, seconds: int) -> tuple[dict, float]:
    """One ``--trace 0`` run: its result line and its wall seconds."""
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", f"--workload={workload}",
         f"--seed={seed}", f"--seconds={seconds}", "--trace=0"],
        cwd=ROOT, capture_output=True, text=True, check=True,
    )
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    return result, time.perf_counter() - start


def spread(values: list[float]) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in spec["workloads"]]
    results: dict[tuple[str, str], list[dict]] = {}
    durations: list[float] = []
    for i in range(1, args.runs + 1):
        for workload in workloads:
            for label, seed in (("A", i), ("B", args.runs + i)):
                result, seconds = run_once(workload, seed, spec["run_seconds"])
                results.setdefault((workload, label), []).append(result)
                durations.append(seconds)
                print(f"{workload} set {label} seed {seed}: "
                      f"correct={result['correct']} {seconds:.1f}s", flush=True)

    # Estimated time of 4 + 22 runs per workload at this mean.
    total = (4 + 22 * len(workloads)) * statistics.fmean(durations)
    lines = [
        f"Two interleaved sets of {args.runs} runs per workload "
        f"(`--seconds {spec['run_seconds']}`); spread = IQR / median.",
        f"Runs took {min(durations):.1f} to {max(durations):.1f} s "
        f"(mean {statistics.fmean(durations):.1f} s): "
        f"{4 + 22 * len(workloads)} runs take about {total:.0f} s.",
        "",
        "| workload | metric | bound | A median | A spread | B median "
        "| B spread | B / A - 1 |",
        "|---|---|---|---|---|---|---|---|",
    ]
    ok = True
    for workload in workloads:
        sets = {label: results[(workload, label)] for label in "AB"}
        ok &= all(r["correct"] and not r["failed"] for rs in sets.values() for r in rs)
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            values = {
                label: [r["metrics"][name]["value"] for r in rs]
                for label, rs in sets.items()
            }
            med = {label: statistics.median(v) for label, v in values.items()}
            drift = med["B"] / med["A"] - 1
            ok &= abs(drift) <= bound
            if name != "setup_s":
                ok &= spread(values["A"]) <= bound and spread(values["B"]) <= bound
            lines.append(
                f"| {workload} | {name} | {bound} | {med['A']:.4g} "
                f"| {spread(values['A']):.3f} | {med['B']:.4g} "
                f"| {spread(values['B']):.3f} | {drift:+.3f} |"
            )
    lines += ["", f"all checks and bounds met: {ok}"]
    args.out.write_text("\n".join(lines) + "\n")
    print("\n".join(lines))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
