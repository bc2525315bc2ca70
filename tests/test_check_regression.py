"""Benchmark regression gate: tolerance bands, baselines, update mode."""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "benchmarks"))

from check_regression import (  # noqa: E402
    GATES,
    MAX_LIFTING_PROTECTED_CCR_PP,
    MIN_EFFECTIVE_DROP_PP,
    RATIO_TOLERANCE,
    UNITS,
    WALL_CLOCK_GRACE_SECONDS,
    check_payload,
    main,
)


def _sim_payload(speedup: float = 6.0, pps: float = 1e6) -> dict:
    return {
        "largest_iscas85": {"speedup": speedup},
        "results": [
            {"speedup": speedup, "compiled_pps": pps},
            {"speedup": speedup + 1.0, "compiled_pps": pps / 2},
        ],
    }


def _attacks_payload(
    cache_speedup: float = 100.0,
    cold: float = 2.0,
    cached: float = 0.02,
    matcher_speedup: float = 150.0,
    lock: float = 0.3,
    rebuild: float = 0.04,
) -> dict:
    return {
        "cache_speedup": cache_speedup,
        "cold_wall_seconds": cold,
        "cached_wall_seconds": cached,
        "matcher": {
            "capacitated": {"speedup": matcher_speedup},
            "unbounded": {"speedup": matcher_speedup * 2},
        },
        "lock": {
            "atpg_lock_cpu_seconds": lock,
            "rebuild_netlist_cpu_seconds": rebuild,
        },
    }


def _defenses_payload(drop: float = 4.9, lifting_ccr: float = 0.37) -> dict:
    return {
        "cache_speedup": 10.0,
        "cold_wall_seconds": 6.7,
        "min_effective_drop": drop,
        "max_lifting_protected_ccr": lifting_ccr,
    }


def test_identical_payload_passes():
    payload = _sim_payload()
    assert check_payload("BENCH_sim", payload, payload) == []


def test_improvement_never_fails():
    assert (
        check_payload("BENCH_sim", _sim_payload(speedup=60.0), _sim_payload())
        == []
    )
    assert (
        check_payload(
            "BENCH_attacks",
            _attacks_payload(cache_speedup=500.0, cold=0.5),
            _attacks_payload(),
        )
        == []
    )


def test_ratio_regression_beyond_tolerance_fails():
    baseline = _sim_payload(speedup=6.0)
    barely_ok = _sim_payload(speedup=6.0 * (1 - RATIO_TOLERANCE) + 0.01)
    assert check_payload("BENCH_sim", barely_ok, baseline) == []
    collapsed = _sim_payload(speedup=6.0 * (1 - RATIO_TOLERANCE) - 0.1)
    failures = check_payload("BENCH_sim", collapsed, baseline)
    assert failures and "speedup" in failures[0]


def test_wall_clock_grace_spares_millisecond_baselines():
    # 20ms -> 900ms is a 45x blowup but inside the absolute grace band:
    # scheduler noise on a cache-served rerun must not trip the gate.
    baseline = _attacks_payload(cached=0.02)
    noisy = _attacks_payload(cached=0.9)
    assert check_payload("BENCH_attacks", noisy, baseline) == []
    # a genuine collapse (cache not serving at all) still trips
    broken = _attacks_payload(cached=30.0, cache_speedup=1.1)
    failures = check_payload("BENCH_attacks", broken, baseline)
    assert any("cached_wall_seconds" in f for f in failures)
    assert any("cache_speedup" in f for f in failures)


def test_matcher_speedup_collapse_fails():
    failures = check_payload(
        "BENCH_attacks",
        _attacks_payload(matcher_speedup=1.0),
        _attacks_payload(),
    )
    assert {f.split(":")[0] for f in failures} == {
        "BENCH_attacks.matcher_speedup_capacitated",
        "BENCH_attacks.matcher_speedup_unbounded",
    }


def test_lock_and_rebuild_slowdowns_fail():
    baseline = _attacks_payload()
    # the per-candidate rescans cost about 2x on the lock, 10x on rebuild
    failures = check_payload(
        "BENCH_attacks", _attacks_payload(lock=0.9, rebuild=0.4), baseline
    )
    assert {f.split(":")[0] for f in failures} == {
        "BENCH_attacks.lock_cpu_seconds",
        "BENCH_attacks.rebuild_cpu_seconds",
    }


def test_security_metrics_hold_fixed_point_bounds():
    # today's bounds are never loosened
    assert MIN_EFFECTIVE_DROP_PP >= 2.95
    assert MAX_LIFTING_PROTECTED_CCR_PP <= 1.67
    baseline = _defenses_payload()
    assert check_payload("BENCH_defenses", baseline, baseline) == []
    # inside the old relative/wall-clock bands (>= 2.95, <= 1.67), but
    # past the fixed percentage-point bounds
    failures = check_payload(
        "BENCH_defenses", _defenses_payload(drop=2.96, lifting_ccr=1.6), baseline
    )
    assert {f.split(":")[0] for f in failures} == {
        "BENCH_defenses.min_effective_drop",
        "BENCH_defenses.max_lifting_protected_ccr",
    }
    # the bound does not move with the baseline
    weak = _defenses_payload(drop=3.5, lifting_ccr=1.4)
    assert check_payload("BENCH_defenses", weak, weak) == []
    assert check_payload(
        "BENCH_defenses", _defenses_payload(drop=2.99), weak
    ) == ["BENCH_defenses.min_effective_drop: 2.99 vs 3.5"]


def test_grace_only_for_seconds():
    for stem, metrics in GATES.items():
        for metric in metrics:
            assert metric.unit in UNITS, (stem, metric.name)
            if metric.unit != "s":
                assert metric.grace == 0, (stem, metric.name)
            if metric.limit is None:
                continue
            assert metric.unit == "pp", (stem, metric.name)
    wall = {
        m.name: m.grace
        for m in GATES["BENCH_attacks"]
        if m.name.endswith("wall_seconds")
    }
    assert wall == dict.fromkeys(
        ("cold_wall_seconds", "cached_wall_seconds"), WALL_CLOCK_GRACE_SECONDS
    )


def test_every_committed_baseline_has_a_gate_and_parses():
    baseline_dir = Path(__file__).resolve().parent.parent / (
        "benchmarks/baselines"
    )
    committed = sorted(baseline_dir.glob("BENCH_*.json"))
    assert {p.stem for p in committed} == set(GATES)
    for path in committed:
        payload = json.loads(path.read_text())
        # every gated metric must be extractable from its own baseline
        for metric in GATES[path.stem]:
            assert metric.extract(payload) > 0


def test_main_checks_and_updates(tmp_path, capsys):
    current = tmp_path / "BENCH_sim.json"
    current.write_text(json.dumps(_sim_payload(speedup=6.0)))
    baselines = tmp_path / "baselines"

    # no baseline yet: the gate fails and says how to create one
    assert main([str(current), "--baseline-dir", str(baselines)]) == 1
    assert "missing baseline" in capsys.readouterr().err

    assert (
        main([str(current), "--baseline-dir", str(baselines), "--update"])
        == 0
    )
    assert main([str(current), "--baseline-dir", str(baselines)]) == 0

    current.write_text(json.dumps(_sim_payload(speedup=0.5)))
    assert main([str(current), "--baseline-dir", str(baselines)]) == 1


def test_main_rejects_unknown_payloads(tmp_path):
    rogue = tmp_path / "BENCH_rogue.json"
    rogue.write_text("{}")
    assert main([str(rogue)]) == 1


@pytest.mark.parametrize("stem", sorted(GATES))
def test_gate_metrics_are_well_formed(stem):
    for metric in GATES[stem]:
        assert metric.direction in ("higher", "lower")
        assert 0 < metric.tolerance < 1
        assert metric.grace >= 0
