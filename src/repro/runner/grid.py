"""The grid compiler: campaign cells planned as a DAG over shared artifacts.

A campaign grid expands into cells whose stage payloads overlap heavily:
every split layer of one (benchmark, key config) shares the **lock**
artifact, and every seed/scenario variation over one split shares the
**layout** on top of it.  The unfused path exploits the overlap only
through the on-disk cache — each cell re-opens, re-reads and re-unpickles
the shared artifacts (or, cold and cacheless, recomputes them outright).

:func:`plan_campaign` compiles the cell list into that DAG explicitly:
cells with equal (layout, defense) key prefixes form a
:class:`SiblingGroup` — defended attack cells additionally share the
**defense** artifact, so the defended FEOL view is computed once per
group — and groups with equal lock keys share a lock node above them.
Inside a group:

* the lock and layout are computed **once** and handed to every member
  in memory (``design=``/``layout=`` on the stage functions), so the
  compiled simulation programs cached on those circuit objects are
  reused across members instead of being re-pickled and recompiled;
* member HD/OER evaluations run inside
  :func:`repro.metrics.hd_oer.shared_reference_sweeps`, so the original
  machine's Monte-Carlo sweeps are simulated once per group and each
  sibling only pays for its own recovered netlist — one batched
  array-domain comparison per sibling against recorded reference rows.

:func:`run_fused_cells` executes every campaign in one shape, the
:class:`LockBundle`: :func:`execute_bundle` runs a bundle's groups in
order and threads each lock's design through all of its groups, so a
lock is resolved once per bundle.  Serially the whole plan is one
in-process bundle.  On the pool path :func:`plan_bundles` collapses
every group sharing a lock into one lock-key-sorted bundle per task,
splitting the widest bundles — down to one group each — until every
pool slot has work.  Each bundle resolves its own lock through
:func:`~repro.runner.stages.locked_design` (worker tier, then disk
cache); with a cache, the parent resolves each *split* lock once before
submitting, so its bundles read it from disk instead of computing it
twice.

Everything is bit-identical to the unfused path: the fusion only moves
*where* shared artifacts are computed — never what is computed.
``tests/test_grid.py`` enforces the identity differentially;
``benchmarks/bench_campaign.py`` tracks the wall-clock win under the
``BENCH_campaign`` regression gate.
"""
from __future__ import annotations

import functools
import time
from collections import Counter
from concurrent.futures import FIRST_EXCEPTION, wait
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Sequence

from repro.metrics.hd_oer import shared_reference_sweeps
from repro.phys.split import FeolView
from repro.runner.engine import (
    AttackCellResult,
    CampaignExecutor,
    CellExecutionError,
    CellResult,
    _open_cache,
    _wrap_cell_error,
    default_workers,
)
from repro.runner.spec import AttackCellSpec, CellSpec
from repro.runner.stages import (
    LockedDesign,
    cell_attack,
    cell_defense,
    cell_layout,
    cell_run,
    defense_payload,
    layout_payload,
    lock_payload,
    locked_design,
)
from repro.runner.worker import worker_stats_delta, worker_stats_snapshot
from repro.utils.artifact_cache import CacheStats, StageStats, spec_key

__all__ = [
    "SiblingGroup",
    "GridPlan",
    "LockBundle",
    "plan_campaign",
    "plan_bundles",
    "execute_bundle",
    "run_fused_cells",
]

GridCell = CellSpec | AttackCellSpec


def _base_cell(cell: GridCell) -> CellSpec:
    """The plain cell carrying the lock/layout axes of *cell*."""
    return cell.cell if isinstance(cell, AttackCellSpec) else cell


@dataclass(frozen=True)
class SiblingGroup:
    """Cells sharing one layout (and therefore one lock) artifact.

    Defended attack cells also share one **defense** artifact:
    ``defense_key`` is the defense-stage cache key, or ``""`` for
    undefended members, so a defense x attack matrix splits each layout
    into one group per defense while scenario siblings stay fused.
    ``indices`` point into the planned cell list, preserving original
    order so fused results reassemble into exact spec order.
    """

    lock_key: str
    layout_key: str
    indices: tuple[int, ...]
    defense_key: str = ""

    def __len__(self) -> int:
        return len(self.indices)


@dataclass(frozen=True)
class GridPlan:
    """The campaign DAG: cells grouped under shared lock/layout nodes."""

    cells: tuple[GridCell, ...]
    groups: tuple[SiblingGroup, ...]

    def group_cells(self, group: SiblingGroup) -> tuple[GridCell, ...]:
        return tuple(self.cells[i] for i in group.indices)

    @property
    def unique_locks(self) -> int:
        return len({g.lock_key for g in self.groups})

    def describe(self) -> str:
        """One-line shape summary for logs and benchmark output."""
        return (
            f"{len(self.cells)} cells -> {len(self.groups)} sibling "
            f"group(s) over {self.unique_locks} unique lock(s)"
        )


def plan_campaign(cells: Iterable[GridCell]) -> GridPlan:
    """Group *cells* by their (layout, defense) cache-key prefix,
    preserving first-seen group order and per-group member order (both
    deterministic functions of the input order, so plans are stable
    across processes).  Undefended cells carry an empty defense key, so
    grids without a defense axis plan exactly as before."""
    cells = tuple(cells)
    order: list[tuple[str, str]] = []
    members: dict[tuple[str, str], list[int]] = {}
    lock_of: dict[tuple[str, str], str] = {}
    for index, cell in enumerate(cells):
        base = _base_cell(cell)
        layout_key = spec_key(layout_payload(base))
        defense = getattr(cell, "defense", None)
        defense_key = (
            spec_key(defense_payload(base, defense))
            if defense is not None
            else ""
        )
        key = (layout_key, defense_key)
        if key not in members:
            order.append(key)
            members[key] = []
            lock_of[key] = spec_key(lock_payload(base))
        members[key].append(index)
    groups = tuple(
        SiblingGroup(
            lock_key=lock_of[key],
            layout_key=key[0],
            defense_key=key[1],
            indices=tuple(members[key]),
        )
        for key in order
    )
    return GridPlan(cells=cells, groups=groups)


# ---------------------------------------------------------------------------
# Group execution


def _stats_snapshot(cache) -> CacheStats:
    snap = CacheStats()
    snap.worker = worker_stats_snapshot()
    if cache is None:
        return snap
    stats = cache.stats
    snap.hits, snap.misses, snap.stores = stats.hits, stats.misses, stats.stores
    for name, stage in stats.stages.items():
        snap.stages[name] = StageStats(
            stage.hits, stage.misses, stage.stores, stage.compute_seconds
        )
    return snap


def _stats_delta(before: CacheStats, cache) -> CacheStats:
    """Cache + worker-tier activity since *before* — per-member attribution.

    Worker-tier counters move even cacheless (the tier serves artifacts
    the disk never saw), so they are tracked unconditionally.
    """
    delta = CacheStats()
    delta.worker = worker_stats_delta(before.worker)
    if cache is None:
        return delta
    after = cache.stats
    delta.hits = after.hits - before.hits
    delta.misses = after.misses - before.misses
    delta.stores = after.stores - before.stores
    for name, stage in after.stages.items():
        prior = before.stages.get(name, StageStats())
        moved = StageStats(
            hits=stage.hits - prior.hits,
            misses=stage.misses - prior.misses,
            stores=stage.stores - prior.stores,
            compute_seconds=stage.compute_seconds - prior.compute_seconds,
        )
        if moved.hits or moved.misses or moved.stores:
            delta.stages[name] = moved
    return delta


def _run_group(
    cells: Sequence[GridCell],
    cache,
    design: LockedDesign | None = None,
) -> tuple[list[CellResult | AttackCellResult], LockedDesign]:
    """Execute one group sharing lock/layout/defense/programs in memory.

    Returns the member results (group order) and the group's design so
    in-process callers can reuse it across groups sharing a lock.
    """
    results: list[CellResult | AttackCellResult] = []
    layout = None
    defended = None

    @functools.cache
    def undefended_view() -> FeolView:
        # Split on the first undefended attack that misses the cache;
        # its siblings then attack (and memoize candidates on) one view.
        return layout.feol_view(_base_cell(cells[0]).split_layer)

    with shared_reference_sweeps():
        for cell in cells:
            base = _base_cell(cell)
            start = time.perf_counter()
            before = _stats_snapshot(cache)
            try:
                if design is None:
                    design = locked_design(base, cache)
                if layout is None:
                    layout = cell_layout(base, cache, design=design)
                if isinstance(cell, AttackCellSpec):
                    if cell.defense is not None and defended is None:
                        # Group members share one defense by plan
                        # construction, so the defended view is
                        # computed once and handed to every sibling.
                        defended = cell_defense(
                            base,
                            cell.defense,
                            cache,
                            design=design,
                            layout=layout,
                        )
                    outcome = cell_attack(
                        cell,
                        cache,
                        design=design,
                        layout=layout,
                        defended=(
                            defended if cell.defense is not None else None
                        ),
                        view=undefended_view,
                    )
                    results.append(
                        AttackCellResult(
                            cell=cell,
                            outcome=outcome,
                            seconds=time.perf_counter() - start,
                            cache=_stats_delta(before, cache),
                        )
                    )
                else:
                    run = cell_run(cell, cache, design=design, layout=layout)
                    results.append(
                        CellResult(
                            cell=cell,
                            run=run,
                            seconds=time.perf_counter() - start,
                            cache=_stats_delta(before, cache),
                        )
                    )
            except CellExecutionError:
                raise
            except Exception as exc:
                raise _wrap_cell_error(cell, exc) from exc
    return results, design


# ---------------------------------------------------------------------------
# Lock bundles: groups sharing a lock run as one task


@dataclass(frozen=True)
class LockBundle:
    """Sibling groups of one lock, dispatched as a single task.

    :func:`execute_bundle` threads the lock's design through the groups,
    so the lock is resolved once per bundle instead of once per group.
    """

    lock_key: str
    groups: tuple[SiblingGroup, ...]

    def __len__(self) -> int:
        return len(self.groups)

    @property
    def cell_count(self) -> int:
        return sum(len(group) for group in self.groups)


def plan_bundles(plan: GridPlan, slots: int | None = None) -> list[LockBundle]:
    """Bundle *plan*'s groups by lock key, lock-key-sorted (stable).

    With *slots*, over-wide bundles are split (largest first, by cell
    count) until every pool slot has work or no bundle has more than
    one group left.  A split bundle's halves each resolve the lock:
    with a cache, :func:`run_fused_cells` computes it once up front and
    both halves read it from disk; cacheless, both recompute it, which
    still beats idle workers.  The result is a deterministic
    function of (plan, slots), so submission order is reproducible.
    """
    by_lock: dict[str, list[SiblingGroup]] = {}
    for group in plan.groups:
        by_lock.setdefault(group.lock_key, []).append(group)
    bundles = [
        LockBundle(lock_key=key, groups=tuple(groups))
        for key, groups in sorted(by_lock.items())
    ]
    if slots is not None:
        while len(bundles) < slots:
            widest = max(
                bundles, key=lambda b: (len(b.groups), b.cell_count, b.lock_key)
            )
            if len(widest.groups) < 2:
                break
            half = len(widest.groups) // 2
            bundles.remove(widest)
            bundles.append(LockBundle(widest.lock_key, widest.groups[:half]))
            bundles.append(LockBundle(widest.lock_key, widest.groups[half:]))
        bundles.sort(key=lambda b: (b.lock_key, b.groups[0].indices[0]))
    return bundles


def execute_bundle(
    group_cells: Sequence[Sequence[GridCell]],
    cache_dir: str | Path | None = None,
    use_cache: bool = True,
    lock_keys: Sequence[str] = (),
) -> list[list[CellResult | AttackCellResult]]:
    """One lock bundle, group by group (module-level: picklable).

    Pool workers run one bundle per task; the serial path runs the whole
    plan as one in-process bundle.  The design resolved for the first
    group of each lock key is threaded through the key's later groups.
    """
    cache = _open_cache(cache_dir, use_cache)
    designs: dict[str, LockedDesign] = {}
    out: list[list[CellResult | AttackCellResult]] = []
    for cells, lock_key in zip(group_cells, lock_keys):
        results, design = _run_group(cells, cache, design=designs.get(lock_key))
        designs[lock_key] = design
        out.append(results)
    return out


# ---------------------------------------------------------------------------
# Fused campaign driver


def _resolve_split_locks(
    plan: GridPlan, bundles: Sequence[LockBundle], cache
) -> None:
    """Compute (or load) each lock spread over several bundles, once.

    The lock then sits in the disk cache before any of its bundles
    starts, so they read it instead of each computing it.
    """
    spread = Counter(bundle.lock_key for bundle in bundles)
    for bundle in bundles:
        if spread.pop(bundle.lock_key, 0) > 1:
            first = bundle.groups[0].indices[0]
            locked_design(_base_cell(plan.cells[first]), cache)


def _collect_pool(futures, bundles, plan, ordered) -> None:
    """Fail-fast collection: scatter each bundle's member results into
    *ordered* by original cell index."""
    done, not_done = wait(futures, return_when=FIRST_EXCEPTION)
    failed = next((f for f in done if f.exception() is not None), None)
    if failed is not None:
        for future in not_done:
            future.cancel()
        exc = failed.exception()
        if isinstance(exc, CellExecutionError):
            raise exc
        bundle = bundles[futures.index(failed)]
        raise _wrap_cell_error(
            plan.cells[bundle.groups[0].indices[0]], exc
        ) from exc
    for future, bundle in zip(futures, bundles):
        _scatter(bundle.groups, future.result(), ordered)


def _scatter(groups, group_results, ordered) -> None:
    for group, results in zip(groups, group_results):
        for index, result in zip(group.indices, results):
            ordered[index] = result


def run_fused_cells(
    cells: Iterable[GridCell],
    workers: int | None = None,
    cache_dir: str | Path | None = None,
    use_cache: bool = True,
) -> list[CellResult | AttackCellResult]:
    """Execute *cells* through the grid plan as lock bundles; results in
    input order.

    Serial (one worker or one group): the whole plan runs as one
    in-process :func:`execute_bundle` call in plan order, reusing each
    design across the groups that share its lock.  Pool: one task per
    :class:`LockBundle` from :func:`plan_bundles` on a private
    :class:`CampaignExecutor` — every group of a lock lands on one
    worker, which resolves the lock once.  When a lock's bundle was
    split to fill idle slots and a cache is in use, the parent resolves
    that lock first, so its bundles read it from the disk cache.
    """
    cells = tuple(cells)
    if not cells:
        return []
    plan = plan_campaign(cells)
    count = workers if workers is not None else default_workers()
    count = max(1, min(count, len(plan.groups)))
    ordered: dict[int, CellResult | AttackCellResult] = {}

    if count == 1:
        results = execute_bundle(
            [plan.group_cells(g) for g in plan.groups],
            cache_dir,
            use_cache,
            lock_keys=[g.lock_key for g in plan.groups],
        )
        _scatter(plan.groups, results, ordered)
        return [ordered[i] for i in range(len(cells))]

    bundles = plan_bundles(plan, slots=count)
    if use_cache:
        _resolve_split_locks(plan, bundles, _open_cache(cache_dir, use_cache))
    with CampaignExecutor(count, cache_dir, use_cache) as executor:
        futures = [
            executor.submit(
                execute_bundle,
                [plan.group_cells(g) for g in bundle.groups],
                lock_keys=[g.lock_key for g in bundle.groups],
            )
            for bundle in bundles
        ]
        _collect_pool(futures, bundles, plan, ordered)
    return [ordered[i] for i in range(len(cells))]
