"""One cold campaign of a benchmark workload, in a fresh interpreter.

Run by ``perfbench/run.py`` (with ``src`` on ``PYTHONPATH``)::

    python perfbench/campaign.py --workload table-grid --seed 2019 \\
        --workers 2 --ready-fd FD [--trace] [--cache-dir DIR] [--setup-only]

It imports the runner, builds the workload's spec and writes ``READY``
to the inherited descriptor *FD* (the parent times interpreter start to
that write as set-up), then runs the campaign and prints one JSON line:
wall time, the SHA-256 of the records' canonical JSON, the output
checks' problems and, with ``--trace``, the layer spans.  Without
``--cache-dir`` the campaign is cacheless; with it, the campaign reads
and writes that artifact store.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import time
from dataclasses import replace

#: ``table-grid``: Table I/II's six ITC'99 designs at this scale (the
#: default profile's 0.08 takes minutes per campaign).
TABLE_SCALE = 0.03
#: ``attack-grid``: key size of the attack smoke grid (smoke: 16).
ATTACK_KEY_BITS = 32
#: Table I's key result, checked on every ``table-grid`` cell: the
#: attack recovers key-gate connections at random-guess rate
#: (key-logical CCR near 50%) and never their physical ties (near 0%).
KEY_LOGICAL_CCR_RANGE = (30.0, 70.0)
KEY_PHYSICAL_CCR_MAX = 15.0

WORKLOADS = ("table-grid", "attack-grid", "matrix-service")


def build_spec(workload: str, seed: int):
    """The campaign spec a workload runs for the workload *seed*.

    The designs, locks and layouts stay at the paper's ``DEFAULT_SEED``
    and *seed* drives the Monte-Carlo HD/OER patterns and the key-pin
    post-processing: every seed gives other outputs for the same
    amount of work.  Re-seeding the lock instead changes the matcher's
    problem instance, whose cost varies by up to 1.5x between seeds.
    """
    from repro.runner import (
        ExperimentProfile,
        attack_smoke_campaign,
        defense_smoke_campaign,
    )

    if workload == "table-grid":
        spec = ExperimentProfile(full=False, scale=TABLE_SCALE).table_campaign()
    elif workload == "attack-grid":
        spec = replace(attack_smoke_campaign(), key_bits=(ATTACK_KEY_BITS,))
    elif workload == "matrix-service":
        spec = defense_smoke_campaign()
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return replace(spec, hd_seed=seed, postprocess_seed=seed)


def records_digest(records) -> str:
    from repro.runner import canonical_json

    return hashlib.sha256(canonical_json(records).encode()).hexdigest()


def check_result(workload: str, result) -> list[str]:
    """The workload's output checks; returns the problems found."""
    if workload == "table-grid":
        low, high = KEY_LOGICAL_CCR_RANGE
        problems = []
        for cell in result.cells:
            ccr = cell.run.ccr
            if not low <= ccr.key_logical_ccr <= high:
                problems.append(
                    f"{cell.cell.cell_id}: key-logical CCR "
                    f"{ccr.key_logical_ccr:.1f} outside [{low}, {high}]"
                )
            if ccr.key_physical_ccr > KEY_PHYSICAL_CCR_MAX:
                problems.append(
                    f"{cell.cell.cell_id}: key-physical CCR "
                    f"{ccr.key_physical_ccr:.1f} above {KEY_PHYSICAL_CCR_MAX}"
                )
        return problems
    if workload == "attack-grid":
        from repro.adversary import grid_verdict

        return grid_verdict(result.outcomes())[1]
    from repro.defense import matrix_verdict

    return matrix_verdict(result.cells)[1]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--workers", type=int, default=1)
    parser.add_argument("--cache-dir", default=None)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--ready-fd", type=int, required=True)
    args = parser.parse_args(argv)

    from repro.runner import (
        AttackCampaignSpec,
        result_record,
        run_attack_campaign,
        run_campaign,
    )

    spec = build_spec(args.workload, args.seed)
    os.write(args.ready_fd, b"READY")
    os.close(args.ready_fd)
    if args.setup_only:
        return 0

    tracer = None
    if args.trace:
        from spans import Tracer

        tracer = Tracer()
        tracer.install()
    run = (
        run_attack_campaign
        if isinstance(spec, AttackCampaignSpec)
        else run_campaign
    )
    start = time.perf_counter()
    result = run(
        spec,
        workers=args.workers,
        cache_dir=args.cache_dir,
        use_cache=args.cache_dir is not None,
    )
    wall = time.perf_counter() - start
    records = [result_record(cell) for cell in result.cells]
    payload = {
        "wall_s": wall,
        "cells": len(records),
        "digest": records_digest(records),
        "problems": check_result(args.workload, result),
    }
    if tracer is not None:
        payload["spans"] = tracer.report()
        payload["top_level_wall_s"] = tracer.top_level_wall_s
        payload["bindings"] = tracer.bindings
    print(json.dumps(payload), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
