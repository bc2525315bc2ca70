"""Grid compiler: sibling planning, fused execution, bit-identity.

The contract under test is strict: fusion may change *where* shared
artifacts are computed — never what is computed.  Every fused/unfused comparison below goes through
:func:`repro.runner.serialize.canonical_json`, the same canonical form
CI diffs, so any numeric drift in any metric fails loudly.
"""

from __future__ import annotations

import pickle
from dataclasses import replace

import pytest

from repro.runner.engine import (
    CellExecutionError,
    run_attack_campaign,
    run_campaign,
)
from repro.runner.grid import plan_bundles, plan_campaign, run_fused_cells
from repro.runner.profiles import attack_smoke_campaign, defense_smoke_campaign
from repro.runner.serialize import canonical_json, result_record
from repro.runner.spec import AttackCampaignSpec, CellSpec

BASE = CellSpec(
    benchmark="random:i10-o5-g90",
    split_layer=4,
    key_bits=10,
    hd_patterns=512,
    max_candidates=60,
)

#: Three siblings over one layout plus one cell on its own layout —
#: two groups over a single lock.
GRID = [
    BASE,
    replace(BASE, hd_seed=6),
    replace(BASE, hd_seed=7),
    replace(BASE, split_layer=6),
]

#: GRID plus a third layout over the same lock: two workers split the
#: lock's bundle into a one-group and a two-group bundle, three workers
#: split it down to one group per bundle.
POOL_GRID = GRID + [replace(BASE, split_layer=6, utilization=0.66)]

ATTACKS = AttackCampaignSpec(
    benchmarks=("random:i10-o5-g90",),
    scenarios=("netflow", "random"),
    split_layers=(4,),
    key_bits=(10,),
    hd_patterns=512,
    max_candidates=60,
)


def _canon(result) -> str:
    return canonical_json([result_record(r) for r in result.cells])


# ---------------------------------------------------------------------------
# Planning


def test_plan_groups_siblings_by_layout():
    plan = plan_campaign(GRID)
    assert len(plan.groups) == 2
    assert plan.groups[0].indices == (0, 1, 2)  # hd_seed is not a layout axis
    assert plan.groups[1].indices == (3,)  # split layer re-keys the layout
    assert plan.unique_locks == 1  # both splits lock identically
    assert "4 cells" in plan.describe()


def test_plan_groups_attack_scenarios_as_siblings():
    cells = ATTACKS.cells()
    plan = plan_campaign(cells)
    assert len(plan.groups) == 1
    assert plan.groups[0].indices == tuple(range(len(cells)))


def test_plan_preserves_input_order_and_distinct_locks():
    other = replace(BASE, key_bits=8)
    plan = plan_campaign([other, BASE])
    assert [g.indices for g in plan.groups] == [(0,), (1,)]
    assert plan.unique_locks == 2


# ---------------------------------------------------------------------------
# Fused execution: bit-identity with the legacy path


@pytest.fixture(scope="module")
def unfused_runs():
    return run_campaign(GRID, workers=1, use_cache=False, fuse=False)


def test_fused_serial_bit_identical(unfused_runs):
    fused = run_campaign(GRID, workers=1, use_cache=False, fuse=True)
    assert _canon(fused) == _canon(unfused_runs)
    assert list(fused.runs()) == list(unfused_runs.runs())


def test_fused_pool_bit_identical(unfused_runs, tmp_path):
    """Two workers over a real cache: each bundle reads its lock from disk."""
    fused = run_campaign(
        GRID, workers=2, cache_dir=tmp_path, use_cache=True, fuse=True
    )
    assert _canon(fused) == _canon(unfused_runs)


@pytest.mark.parametrize(
    "campaign, counts",
    [
        # One lock split over two bundles: the parent computes it, both
        # bundles read it from disk.
        (defense_smoke_campaign, (0, 2)),
        # Two locks, one bundle each: each bundle computes its own.
        (attack_smoke_campaign, (2, 0)),
    ],
    ids=["split-lock", "unsplit-locks"],
)
def test_pool_computes_each_lock_once(campaign, counts, monkeypatch, tmp_path):
    """Cold cached pool run: lock-stage (misses, hits) summed over cells.

    The worker tier is off so that every bundle resolves its lock
    through the disk cache, whichever worker runs it.
    """
    monkeypatch.setenv("REPRO_WORKER_CACHE_MB", "0")
    cells = campaign().cells()
    assert len(plan_bundles(plan_campaign(cells), slots=2)) == 2
    results = run_fused_cells(cells, workers=2, cache_dir=tmp_path)
    lock = [r.cache.stages.get("lock") for r in results]
    misses = sum(s.misses for s in lock if s is not None)
    hits = sum(s.hits for s in lock if s is not None)
    assert (misses, hits) == counts


@pytest.fixture(scope="module")
def unfused_pool_runs():
    return run_campaign(POOL_GRID, workers=1, use_cache=False, fuse=False)


@pytest.mark.parametrize("use_cache", [True, False], ids=["cached", "cacheless"])
@pytest.mark.parametrize("workers", [2, len(plan_campaign(POOL_GRID).groups)])
def test_bundle_pool_bit_identical(
    unfused_pool_runs, tmp_path, workers, use_cache
):
    """Pool bundles at every split width, with and without the disk
    cache handing the split lock over: same records as the unfused path
    exactly.  At one worker per group the split reaches one group per
    bundle."""
    plan = plan_campaign(POOL_GRID)
    bundles = plan_bundles(plan, slots=workers)
    assert len(bundles) == workers
    per_group = all(len(bundle) == 1 for bundle in bundles)
    assert per_group == (workers == len(plan.groups))
    results = run_fused_cells(
        POOL_GRID, workers=workers, cache_dir=tmp_path, use_cache=use_cache
    )
    assert canonical_json([result_record(r) for r in results]) == _canon(
        unfused_pool_runs
    )


def test_fused_attacks_bit_identical():
    unfused = run_attack_campaign(
        ATTACKS, workers=1, use_cache=False, fuse=False
    )
    fused = run_attack_campaign(
        ATTACKS, workers=1, use_cache=False, fuse=True
    )
    assert _canon(fused) == _canon(unfused)
    assert list(fused.outcomes()) == list(unfused.outcomes())


def test_fused_group_shares_one_view_and_candidate_set(monkeypatch, tmp_path):
    """An undefended sibling group splits its layout once, the two
    matcher scenarios share one candidate build on that view, and a
    warm group (every attack a cache hit) never splits at all."""
    from repro.adversary import features
    from repro.adversary.learned import default_train_config, trained_scorer
    from repro.phys.layout import PhysicalLayout

    trained_scorer(default_train_config())  # training views stay uncounted
    spec = replace(ATTACKS, scenarios=("netflow", "learned", "random"))
    counts = {"views": 0, "builds": 0}
    feol_view = PhysicalLayout.feol_view
    assemble = features._assemble_candidates

    def counting_view(self, *args, **kwargs):
        counts["views"] += 1
        return feol_view(self, *args, **kwargs)

    def counting_assemble(*args, **kwargs):
        counts["builds"] += 1
        return assemble(*args, **kwargs)

    monkeypatch.setattr(PhysicalLayout, "feol_view", counting_view)
    monkeypatch.setattr(features, "_assemble_candidates", counting_assemble)
    unfused = run_attack_campaign(spec, workers=1, use_cache=False, fuse=False)
    assert counts == {"views": 3, "builds": 2}
    for expected in ({"views": 1, "builds": 1}, {"views": 0, "builds": 0}):
        counts.update(views=0, builds=0)
        fused = run_attack_campaign(
            spec, workers=1, cache_dir=tmp_path, fuse=True
        )
        assert counts == expected
        assert _canon(fused) == _canon(unfused)


def test_fused_empty_grid():
    assert run_fused_cells([], workers=1, use_cache=False) == []


def test_env_knob_routes_through_grid(monkeypatch):
    import repro.runner.grid as grid_module

    calls = []
    original = grid_module.run_fused_cells

    def recorder(cells, workers, cache_dir, use_cache):
        calls.append(tuple(cells))
        return original(cells, workers, cache_dir, use_cache)

    monkeypatch.setattr(grid_module, "run_fused_cells", recorder)
    # Fusion is the default: no env var needed to hit the grid compiler.
    monkeypatch.delenv("REPRO_GRID_FUSE", raising=False)
    run_campaign([BASE], workers=1, use_cache=False)
    assert calls == [(BASE,)]
    # REPRO_GRID_FUSE=0 opts out.
    monkeypatch.setenv("REPRO_GRID_FUSE", "0")
    run_campaign([BASE], workers=1, use_cache=False)
    assert len(calls) == 1
    # Explicit fuse=True overrides the opt-out; fuse=False the default.
    run_campaign([BASE], workers=1, use_cache=False, fuse=True)
    assert len(calls) == 2
    monkeypatch.delenv("REPRO_GRID_FUSE", raising=False)
    run_campaign([BASE], workers=1, use_cache=False, fuse=False)
    assert len(calls) == 2


def test_fused_wraps_member_failure_with_cell_id():
    bad = replace(BASE, benchmark="random:i6-o4-g40", key_bits=64)
    with pytest.raises(CellExecutionError) as excinfo:
        run_fused_cells([BASE, bad], workers=1, use_cache=False)
    assert excinfo.value.cell_id == bad.cell_id
    # The exception must survive a pool boundary intact.
    clone = pickle.loads(pickle.dumps(excinfo.value))
    assert clone.cell_id == bad.cell_id
    assert clone.detail == excinfo.value.detail
