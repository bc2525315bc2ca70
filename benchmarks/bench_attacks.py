"""Adversary-scenario campaign benchmark: cold vs cached attack cells.

Runs one small scenario grid cell (the CI attack smoke cell) twice
against a fresh cache directory — once cold (every stage computed) and
once warm (every stage served from the content-keyed artifact cache) —
and emits ``BENCH_attacks.json`` next to ``BENCH_sim.json`` so the
attack-stage cost and the cache's effectiveness are tracked PR over PR.
The warm pass also cross-checks that cached outcomes are bit-identical
to the cold computation, and that every connection-recovering scenario
beat the random floor.

The ``matcher`` block times the netflow matcher alone on the b14 /
scale 0.03 / M4 / k32 instance of the attack smoke grid: CPU seconds
of the whole-graph reference solver (:class:`MinCostFlow`) against the
incremental solver, on the same canonical costs, with hint-3 load
limits (capacitated) and without (unbounded).  Both must return the
identical matching.

The ``lock`` block times, on the same instance, a cold
:func:`atpg_lock` (fresh circuit, LEC included) and
:func:`rebuild_netlist` over the cell's rebuilds: one per scenario
engine run plus one per post-processed result, in CPU seconds.

Usage::

    python benchmarks/bench_attacks.py --quick     # CI smoke cell
    python benchmarks/bench_attacks.py             # the full smoke grid
    python benchmarks/bench_attacks.py --output out.json
"""

from __future__ import annotations

import argparse
import json
import sys
import tempfile
import time
from dataclasses import asdict, replace
from pathlib import Path
from statistics import median

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.adversary import build_candidates, get_engine  # noqa: E402
from repro.adversary.engine import (  # noqa: E402
    DEFAULT_CANDIDATES_PER_SINK,
    DEFAULT_LOAD_LIMIT,
    AttackContext,
)
from repro.adversary.evaluate import grid_verdict  # noqa: E402
from repro.adversary.netflow import (  # noqa: E402
    canonical_arcs,
    incremental_ssp,
    reference_match,
)
from repro.attacks import rebuild_netlist  # noqa: E402
from repro.attacks.postprocess import reconnect_key_gates_to_ties  # noqa: E402
from repro.locking import atpg_lock  # noqa: E402
from repro.runner import run_attack_campaign  # noqa: E402
from repro.runner.profiles import attack_smoke_campaign  # noqa: E402
from repro.runner.spec import AttackCampaignSpec  # noqa: E402
from repro.runner.stages import (  # noqa: E402
    cell_layout,
    load_cell_circuit,
    locked_design,
)

#: Key size of the matcher instance (the smoke grid runs k16).
MATCHER_KEY_BITS = 32
#: Incremental-solver repeats per mode (median reported): one solve
#: takes milliseconds, the reference seconds.
MATCHER_REPEATS = 5
#: Cold-lock and rebuild repeats (median reported).
LOCK_REPEATS = 3


def quick_campaign() -> AttackCampaignSpec:
    """One benchmark x the two new engines + the random floor."""
    return AttackCampaignSpec(
        benchmarks=("random:i14-o8-g200",),
        scenarios=("netflow", "learned", "random"),
        split_layers=(4,),
        key_bits=(16,),
        hd_patterns=2_048,
        max_candidates=80,
    )


def run_grid(spec: AttackCampaignSpec, cache_dir: Path, workers: int):
    start = time.perf_counter()
    result = run_attack_campaign(
        spec, workers=workers, cache_dir=cache_dir
    )
    seconds = time.perf_counter() - start
    return result, seconds


def verify(cold, warm) -> None:
    warm_stats = warm.cache_stats()
    if warm_stats.misses != 0:
        raise AssertionError(
            f"warm pass recomputed {warm_stats.misses} stages"
        )
    for a, b in zip(cold.cells, warm.cells):
        if (
            a.outcome.ccr != b.outcome.ccr
            or a.outcome.hd_oer != b.outcome.hd_oer
            or a.outcome.diagnostics != b.outcome.diagnostics
        ):
            raise AssertionError(
                f"{a.cell.cell_id}: cached outcome differs from cold"
            )
    ok, problems = grid_verdict(cold.outcomes())
    if not ok:
        raise AssertionError("; ".join(problems))


def _cpu_seconds(solve) -> tuple[float, object]:
    start = time.process_time()
    result = solve()
    return time.process_time() - start, result


def b14_instance():
    """The b14 attack cells of the k32 smoke grid, its lock and FEOL view."""
    spec = replace(attack_smoke_campaign(), key_bits=(MATCHER_KEY_BITS,))
    acells = [a for a in spec.cells() if a.cell.benchmark == "b14"]
    cell = acells[0].cell
    design = locked_design(cell)
    view = cell_layout(cell, design=design).feol_view(cell.split_layer)
    return acells, design, view


def matcher_bench(acells, view) -> dict:
    """Reference vs incremental matcher CPU seconds per capacity mode."""
    cell = acells[0].cell
    candidates = build_candidates(view, per_sink=DEFAULT_CANDIDATES_PER_SINK)
    costs, _ = get_engine("netflow").costs(None, candidates)
    arcs = canonical_arcs(candidates, costs)
    block = {
        "instance": f"b14/M{cell.split_layer}/k{MATCHER_KEY_BITS} "
        f"(scale {cell.scale})",
        "sinks": arcs.num_sinks,
        "arcs": len(arcs.sink),
    }
    for mode, load_limit in (
        ("capacitated", DEFAULT_LOAD_LIMIT),
        ("unbounded", None),
    ):
        reference_s, (expected, _, _) = _cpu_seconds(
            lambda: reference_match(arcs, load_limit, arcs.cost)
        )
        runs = [
            _cpu_seconds(lambda: incremental_ssp(arcs, load_limit))
            for _ in range(MATCHER_REPEATS)
        ]
        if any(matched != expected for _, matched in runs):
            raise AssertionError(
                f"matcher ({mode}): incremental matching differs from "
                "the reference"
            )
        incremental_s = median(seconds for seconds, _ in runs)
        block[mode] = {
            "load_limit": load_limit,
            "reference_cpu_seconds": reference_s,
            "incremental_cpu_seconds": incremental_s,
            "speedup": reference_s / max(incremental_s, 1e-9),
            "unmatched": expected.count(None),
        }
        print(
            f"matcher {mode:>11}: reference {reference_s:.3f}s, "
            f"incremental {incremental_s * 1e3:.1f}ms "
            f"({block[mode]['speedup']:.0f}x, identical matching)"
        )
    return block


def lock_bench(acells, design, view) -> dict:
    """Cold lock-planning and netlist-rebuild CPU seconds on one cell."""
    cell = acells[0].cell
    lock_runs = []
    for _ in range(LOCK_REPEATS):
        core = load_cell_circuit(cell).combinational_core()
        lock_runs.append(_cpu_seconds(lambda: atpg_lock(core, cell.lock_config())))
    for _, (locked, _report) in lock_runs:
        if locked.key_bits != design.locked.key_bits:
            raise AssertionError("lock: a cold lock differs from the cell's")

    rebuilds = []
    for acell in acells:
        scenario = acell.scenario
        ctx = AttackContext(
            view=view,
            scenario=scenario,
            seed=scenario.seed,
            budget=scenario.budget,
            locked=design.locked,
            oracle=design.core if scenario.has_oracle else None,
        )
        raw = get_engine(scenario.engine).run(ctx)
        rebuilds.append(raw)
        if scenario.postprocess:
            rebuilds.append(
                reconnect_key_gates_to_ties(raw, seed=cell.postprocess_seed)
            )

    def rebuild_all():
        return [
            rebuild_netlist(r.view, r.assignment, f"{cell.benchmark}_bench")
            for r in rebuilds
        ]

    rebuild_s = median(
        _cpu_seconds(rebuild_all)[0] for _ in range(LOCK_REPEATS)
    )
    block = {
        "instance": f"b14/M{cell.split_layer}/k{MATCHER_KEY_BITS} "
        f"(scale {cell.scale})",
        "key_bits": design.locked.key_length,
        "atpg_lock_cpu_seconds": median(seconds for seconds, _ in lock_runs),
        "rebuilds": len(rebuilds),
        "rebuild_netlist_cpu_seconds": rebuild_s,
    }
    print(
        f"lock: atpg_lock {block['atpg_lock_cpu_seconds']:.3f}s, "
        f"rebuild_netlist {rebuild_s:.3f}s over {len(rebuilds)} rebuilds"
    )
    return block


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick", action="store_true",
        help="CI smoke subset (one benchmark, three scenarios)",
    )
    parser.add_argument("--workers", type=int, default=2)
    parser.add_argument(
        "--output", type=Path,
        default=Path(__file__).resolve().parent.parent / "BENCH_attacks.json",
    )
    args = parser.parse_args(argv)

    spec = quick_campaign() if args.quick else attack_smoke_campaign()
    with tempfile.TemporaryDirectory(prefix="bench-attacks-") as tmp:
        cache_dir = Path(tmp) / "cache"
        cold, cold_seconds = run_grid(spec, cache_dir, args.workers)
        warm, warm_seconds = run_grid(spec, cache_dir, args.workers)
    verify(cold, warm)

    print(
        f"{'cell':>34} {'scenario':>10} {'reg CCR':>8} "
        f"{'cold s':>7} {'warm s':>7}"
    )
    rows = []
    for a, b in zip(cold.cells, warm.cells):
        rows.append(
            {
                "cell": a.cell.cell.cell_id,
                "scenario": a.cell.scenario.name,
                "engine": a.outcome.engine,
                "regular_ccr": a.outcome.ccr.regular_ccr,
                "key_logical_ccr": a.outcome.ccr.key_logical_ccr,
                "hd_percent": (
                    a.outcome.hd_oer.hd_percent if a.outcome.hd_oer else None
                ),
                "oer_percent": (
                    a.outcome.hd_oer.oer_percent if a.outcome.hd_oer else None
                ),
                "sim_engine": a.outcome.sim_engine,
                "cold_seconds": a.seconds,
                "cached_seconds": b.seconds,
            }
        )
        print(
            f"{rows[-1]['cell']:>34} {rows[-1]['scenario']:>10} "
            f"{rows[-1]['regular_ccr']:>8.1f} {a.seconds:>7.2f} "
            f"{b.seconds:>7.3f}"
        )

    payload = {
        "workload": "adversary scenario grid, cold vs artifact-cache-served",
        "quick": args.quick,
        "workers": args.workers,
        "cells": rows,
        "cold_wall_seconds": cold_seconds,
        "cached_wall_seconds": warm_seconds,
        "cache_speedup": cold_seconds / max(warm_seconds, 1e-9),
        "cold_cache": asdict(cold.cache_stats()),
        "warm_cache": asdict(warm.cache_stats()),
    }
    acells, design, view = b14_instance()
    payload["matcher"] = matcher_bench(acells, view)
    payload["lock"] = lock_bench(acells, design, view)
    args.output.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"\nwrote {args.output}")
    print(
        f"cold {cold_seconds:.1f}s -> cached {warm_seconds:.2f}s "
        f"({payload['cache_speedup']:.0f}x)"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
