"""End-to-end flow, security-layer math, and defense baseline tests."""

import math

import pytest

from repro.benchgen import c17, load_iscas85
from repro.core import (
    SplitLockConfig,
    SplitLockFlow,
    brute_force_work_factor,
    constrained_keyspace_size,
    is_negligible,
    keyspace_size,
    security_bits,
    theorem1_bound,
)
from repro.core.config import LayoutConfig
from repro.defenses import (
    evaluate_beol_restore,
    evaluate_routing_perturbation,
    evaluate_wire_lifting,
)
from repro.locking import AtpgLockConfig
from tests.conftest import build_random_circuit


# ----------------------------------------------------------------------
# Security layer (Sec. II-C)
# ----------------------------------------------------------------------
def test_theorem1_bound_values():
    assert theorem1_bound(1) == 0.5
    assert theorem1_bound(128) == pytest.approx(2.0**-128)
    assert theorem1_bound(10, epsilon=0.1) == pytest.approx(0.6**10)


def test_theorem1_bound_rejects_bad_epsilon():
    with pytest.raises(ValueError):
        theorem1_bound(8, epsilon=0.5)


def test_negligibility():
    assert is_negligible(theorem1_bound(128), security_parameter=128)
    assert not is_negligible(0.3, security_parameter=128)


def test_keyspace_sizes():
    assert keyspace_size(8) == 256
    assert constrained_keyspace_size(8, 4) == math.comb(8, 4)
    # seeing the TIE polarities costs only ~log2(sqrt(pi k/2)) bits
    assert security_bits(128, 64) > 120
    assert security_bits(128) == 128.0


def test_brute_force_work_factor_is_astronomical():
    seconds = brute_force_work_factor(128)
    assert seconds > 1e20  # far beyond any real budget


# ----------------------------------------------------------------------
# End-to-end flow
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def flow_result():
    config = SplitLockConfig(
        lock=AtpgLockConfig(key_bits=12, seed=6, run_lec=True),
        layout=LayoutConfig(seed=4),
        split_layers=(4, 6),
    )
    circuit = build_random_circuit(50, num_inputs=12, num_gates=180, num_outputs=8)
    flow = SplitLockFlow(config)
    return flow, flow.run(circuit)


def test_flow_produces_all_layouts(flow_result):
    _, result = flow_result
    assert result.lock_report.lec_equivalent is True
    assert set(result.split_layouts) == {4, 6}
    assert result.prelift_layout.split_layer is None
    assert result.split_layouts[4].split_layer == 4


def test_flow_layout_costs(flow_result):
    _, result = flow_result
    costs = result.layout_costs()
    assert {"unprotected", "prelift", "M4", "M6"} <= set(costs)
    base = costs["unprotected"]
    for key in ("prelift", "M4", "M6"):
        deltas = costs[key].delta_percent(base)
        assert all(abs(v) < 400 for v in deltas.values())


def test_flow_evaluation_metrics(flow_result):
    flow, result = flow_result
    evaluation = flow.evaluate_split(result, 4, hd_patterns=2048)
    assert 0 <= evaluation.ccr.key_logical_ccr <= 100
    assert evaluation.ccr.key_physical_ccr <= 50
    assert evaluation.hd_oer.oer_percent > 50
    assert evaluation.broken_nets > 0


def test_flow_handles_sequential_inputs():
    from repro.benchgen import GeneratorConfig, generate_random_circuit

    seq = generate_random_circuit(
        GeneratorConfig(num_inputs=8, num_outputs=4, num_gates=120, num_dffs=6),
        seed=9,
        name="seqflow",
    )
    config = SplitLockConfig(
        lock=AtpgLockConfig(key_bits=8, seed=7, run_lec=True),
        split_layers=(4,),
    )
    flow = SplitLockFlow(config)
    result = flow.run(seq)
    assert result.lock_report.lec_equivalent is True
    assert not result.original.is_sequential  # core was extracted


def test_flow_on_c17_smoke():
    config = SplitLockConfig(
        lock=AtpgLockConfig(
            key_bits=6, max_support=5, max_minterms=16, seed=1
        ),
        split_layers=(4,),
    )
    flow = SplitLockFlow(config)
    result = flow.run(c17())
    evaluation = flow.evaluate_split(result, 4, hd_patterns=256)
    assert result.locked.key_length == 6
    assert evaluation.hd_oer.patterns == 256


# ----------------------------------------------------------------------
# Defense baselines (Table III shape)
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def defense_outcomes():
    circuit = load_iscas85("c432")
    return {
        "perturb": evaluate_routing_perturbation(circuit, hd_patterns=2048),
        "lift": evaluate_wire_lifting(circuit, hd_patterns=2048),
        "restore": evaluate_beol_restore(circuit, hd_patterns=2048),
    }


#: c432 Table III goldens: (PNR, CCR, HD, OER, broken_nets) per defense,
#: pinned exactly so a rewrite of the legacy helpers cannot drift.
TABLE3_C432 = {
    "perturb": (
        58.415841584158414, 58.415841584158414, 40.945870535714285,
        98.6328125, 52,
    ),
    "lift": (
        2.247191011235955, 2.247191011235955, 45.591517857142854,
        98.681640625, 62,
    ),
    "restore": (
        2.247191011235955, 2.247191011235955, 47.537667410714285,
        98.974609375, 62,
    ),
}


@pytest.mark.parametrize("name", sorted(TABLE3_C432))
def test_table3_c432_goldens(defense_outcomes, name):
    outcome = defense_outcomes[name]
    assert (
        outcome.pnr_percent,
        outcome.ccr_percent,
        outcome.hd_percent,
        outcome.oer_percent,
        outcome.broken_nets,
    ) == TABLE3_C432[name]


def test_routing_perturbation_is_weak(defense_outcomes):
    outcome = defense_outcomes["perturb"]
    assert outcome.ccr_percent > 35.0  # the attack recovers most
    assert outcome.pnr_percent > 35.0


def test_wire_lifting_is_strong(defense_outcomes):
    outcome = defense_outcomes["lift"]
    assert outcome.ccr_percent < 10.0
    assert outcome.oer_percent > 90.0


def test_beol_restore_is_strong(defense_outcomes):
    outcome = defense_outcomes["restore"]
    assert outcome.ccr_percent < 10.0
    assert outcome.hd_percent > 20.0


def test_defense_ordering_matches_table3(defense_outcomes):
    """[22] leaves far more recoverable structure than [12]/[13]."""
    assert (
        defense_outcomes["perturb"].pnr_percent
        > defense_outcomes["lift"].pnr_percent
    )
    assert (
        defense_outcomes["perturb"].ccr_percent
        > defense_outcomes["restore"].ccr_percent
    )
