"""Adversary scenario engine: specs, engines, matchers, evaluation."""

from __future__ import annotations

import os
import pickle
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.adversary import (
    FEATURE_NAMES,
    SCENARIOS,
    MinCostFlow,
    Scenario,
    TrainConfig,
    build_candidates,
    engine_names,
    get_engine,
    implied_key_guess,
    key_accuracy,
    oracle_key_search,
    parse_scenario,
    run_scenario,
    train_scorer,
)
from repro.adversary.engine import AttackContext
from repro.adversary.features import CandidateSet
from repro.adversary.netflow import (
    _match_nets,
    canonical_arcs,
    flow_assignment,
    reference_match,
)
from repro.locking import AtpgLockConfig, atpg_lock
from repro.metrics import compute_ccr
from repro.phys import build_locked_layout
from tests.conftest import build_random_circuit


@pytest.fixture(scope="module")
def attacked_design():
    circuit = build_random_circuit(40, num_inputs=12, num_gates=200, num_outputs=8)
    locked, _ = atpg_lock(
        circuit, AtpgLockConfig(key_bits=16, seed=5, run_lec=False)
    )
    layout = build_locked_layout(locked, split_layer=4, seed=2)
    view = layout.feol_view()
    return circuit, locked, layout, view


#: Small, fast training config shared by the learned-scorer tests.
TINY_TRAIN = TrainConfig(
    profiles=((8, 4, 50), (10, 5, 70)), key_bits=6, epochs=60
)


# ----------------------------------------------------------------------
# Scenario specs
# ----------------------------------------------------------------------
def test_scenario_registry_names_are_consistent():
    for name, scenario in SCENARIOS.items():
        assert scenario.name == name
        assert scenario.engine in engine_names()


def test_scenario_rejects_unknown_fields():
    with pytest.raises(ValueError):
        Scenario("x", knowledge="telepathy")
    with pytest.raises(ValueError):
        Scenario("x", objective="world-domination")
    with pytest.raises(KeyError):
        parse_scenario("not-a-scenario")


def test_scenario_resolve_pins_seed_and_budget(monkeypatch):
    monkeypatch.delenv("REPRO_ATTACK_SEED", raising=False)
    monkeypatch.delenv("REPRO_ATTACK_BUDGET", raising=False)
    resolved = SCENARIOS["netflow"].resolve()
    assert resolved.seed is not None and resolved.budget is not None
    monkeypatch.setenv("REPRO_ATTACK_SEED", "7")
    monkeypatch.setenv("REPRO_ATTACK_BUDGET", "33")
    resolved = SCENARIOS["netflow"].resolve()
    assert resolved.seed == 7 and resolved.budget == 33
    # explicit scenario values win over the environment
    pinned = Scenario("x", seed=1, budget=2).resolve()
    assert pinned.seed == 1 and pinned.budget == 2


def test_scenario_payload_round_trip():
    scenario = SCENARIOS["oracle-key"].resolve()
    assert Scenario.from_payload(scenario.to_payload()) == scenario


# ----------------------------------------------------------------------
# Candidate features
# ----------------------------------------------------------------------
def test_candidates_cover_every_sink(attacked_design):
    _, _, _, view = attacked_design
    candidates = build_candidates(view, per_sink=8)
    assert len(candidates.per_sink) == len(view.sink_stubs)
    assert all(chosen for chosen in candidates.per_sink)
    assert candidates.features.shape == (
        candidates.num_pairs,
        len(FEATURE_NAMES),
    )


def test_key_pins_always_see_every_tie(attacked_design):
    _, _, _, view = attacked_design
    candidates = build_candidates(view, per_sink=2)
    tie_nets = {s.net for s in view.source_stubs if s.is_tie}
    for sink_index, sink in enumerate(candidates.sinks):
        if sink.has_escape:
            continue
        nets = {
            candidates.source_net(i) for i in candidates.per_sink[sink_index]
        }
        assert tie_nets <= nets


def test_labels_mark_true_pairs(attacked_design):
    _, _, _, view = attacked_design
    candidates = build_candidates(view, per_sink=16, with_labels=True)
    assert candidates.labels is not None
    rows = np.flatnonzero(candidates.labels)
    for row in rows[:50]:
        sink = candidates.sinks[int(candidates.pairs[row, 0])]
        assert candidates.source_net(int(candidates.pairs[row, 1])) == sink.net


def test_candidate_set_is_memoized_on_the_view(attacked_design):
    _, _, layout, _ = attacked_design
    view = layout.feol_view()
    first = build_candidates(view, per_sink=8)
    assert build_candidates(view, per_sink=8) is first
    assert not first.features.flags.writeable
    assert not first.pairs.flags.writeable
    # Other arguments rebuild (and take over the one-entry memo).
    other = build_candidates(view, per_sink=4)
    assert other is not first and other.num_pairs < first.num_pairs
    labeled = build_candidates(view, per_sink=4, with_labels=True)
    assert labeled is not other and labeled.labels is not None
    assert build_candidates(view, per_sink=4, with_labels=True) is labeled


def test_candidate_memo_follows_stub_reassignment(attacked_design):
    """A defense-style ``sink_stubs`` reassignment forces a rebuild,
    even to an equal-length list."""
    _, _, layout, _ = attacked_design
    view = layout.feol_view()
    before = build_candidates(view, per_sink=8)
    view.sink_stubs = list(reversed(view.sink_stubs))
    after = build_candidates(view, per_sink=8)
    assert after is not before
    assert after.sinks == view.sink_stubs
    assert build_candidates(view, per_sink=8) is after


def test_pickled_view_carries_no_candidate_memo(attacked_design):
    _, _, layout, _ = attacked_design
    view = layout.feol_view()
    bare = len(pickle.dumps(view))
    candidates = build_candidates(view, per_sink=8)
    assert "_candidates" in vars(view)
    assert len(pickle.dumps(view)) == bare
    clone = pickle.loads(pickle.dumps(view))
    assert "_candidates" not in vars(clone)
    rebuilt = build_candidates(clone, per_sink=8)
    assert np.array_equal(rebuilt.pairs, candidates.pairs)
    assert np.array_equal(rebuilt.features, candidates.features)


# ----------------------------------------------------------------------
# Min-cost flow matcher
# ----------------------------------------------------------------------
def test_min_cost_flow_beats_greedy_on_crossing():
    # Greedy commits X-A (cost 1) then eats Y-B (cost 10) = 11;
    # the optimal matching X-B + Y-A costs 3.5.
    flow = MinCostFlow(6)  # S, X, Y, A, B, T
    s, x, y, a, b, t = range(6)
    flow.add_edge(s, x, 1, 0)
    flow.add_edge(s, y, 1, 0)
    arcs = {
        ("X", "A"): flow.add_edge(x, a, 1, 10),
        ("X", "B"): flow.add_edge(x, b, 1, 20),
        ("Y", "A"): flow.add_edge(y, a, 1, 15),
        ("Y", "B"): flow.add_edge(y, b, 1, 100),
    }
    flow.add_edge(a, t, 1, 0)
    flow.add_edge(b, t, 1, 0)
    pushed, cost = flow.solve(s, t, 2)
    assert pushed == 2
    assert cost == 35
    assert flow.cap[arcs[("X", "B")]] == 0  # saturated = chosen
    assert flow.cap[arcs[("Y", "A")]] == 0


def test_min_cost_flow_respects_capacity():
    flow = MinCostFlow(5)  # S, X, A, B, T
    s, x, a, b, t = range(5)
    flow.add_edge(s, x, 1, 0)  # driver load capacity 1
    flow.add_edge(x, a, 1, 1)
    flow.add_edge(x, b, 1, 1)
    flow.add_edge(a, t, 1, 0)
    flow.add_edge(b, t, 1, 0)
    pushed, _ = flow.solve(s, t, 2)
    assert pushed == 1  # capacity bounds the matching


def test_flow_assignment_is_deterministic(attacked_design):
    _, _, _, view = attacked_design
    candidates = build_candidates(view, per_sink=8)
    costs = candidates.features[:, 0]
    first, diag_a = flow_assignment(view, candidates, costs, load_limit=5)
    second, diag_b = flow_assignment(view, candidates, costs, load_limit=5)
    assert first == second
    assert diag_a == diag_b


def _synthetic_candidates(sink_ids, sources, pairs) -> CandidateSet:
    """A view-less candidate set: what the matcher reads, nothing more.

    *sources* are ``(net name, is_tie)`` branch stubs; *pairs* are
    ``(sink index, source index)`` rows in hand-score order.
    """
    per_sink: list[list[int]] = [[] for _ in sink_ids]
    for sink_i, src_i in pairs:
        per_sink[sink_i].append(src_i)
    return CandidateSet(
        view=None,
        sinks=[SimpleNamespace(stub_id=i) for i in sink_ids],
        sources=[SimpleNamespace(net=n, is_tie=t) for n, t in sources],
        per_sink=per_sink,
        pairs=np.array(pairs, dtype=np.intp).reshape(-1, 2),
        features=np.zeros((len(pairs), 0)),
        _net_of_source=[net for net, _ in sources],
    )


@st.composite
def tie_heavy_instances(draw):
    """Small matchings with costs in {-1, 0, 1, 2}: ties everywhere."""
    num_nets = draw(st.integers(1, 5))
    names = draw(st.permutations([f"net{k}" for k in range(num_nets)]))
    sources = []
    for name in names:
        is_tie = draw(st.sampled_from((False, False, False, True)))
        sources += [(name, is_tie)] * draw(st.integers(1, 3))
    num_sinks = draw(st.integers(1, 9))
    sink_ids = draw(
        st.lists(
            st.integers(0, 10_000),
            min_size=num_sinks,
            max_size=num_sinks,
            unique=True,
        )
    )
    pairs, costs = [], []
    for sink_i in range(num_sinks):
        chosen = draw(
            st.lists(
                st.integers(0, len(sources) - 1),
                min_size=1,
                max_size=len(sources),
                unique=True,
            )
        )
        for src_i in chosen:
            pairs.append((sink_i, src_i))
            costs.append(float(draw(st.integers(-1, 2))))
    load_limit = draw(st.sampled_from((None, 1, 2, 5)))
    candidates = _synthetic_candidates(sink_ids, sources, pairs)
    return candidates, np.array(costs), load_limit


def _assert_matches_oracle(candidates, costs, load_limit):
    """Incremental SSP == whole-graph SSP on the canonical costs."""
    arcs = canonical_arcs(candidates, costs)
    match = _match_nets(candidates, costs, load_limit)
    oracle, oracle_flow, _ = reference_match(arcs, load_limit, arcs.cost)
    assert match.matched_net == [
        None if j is None else arcs.nets[j] for j in oracle
    ]
    assert match.flow == oracle_flow
    # flow_cost is the unperturbed optimum: the raw-cost SSP total.
    _, raw_flow, raw_cost = reference_match(arcs, load_limit, arcs.base)
    assert (match.flow, match.cost) == (raw_flow, raw_cost)
    return match


@settings(max_examples=200, deadline=None)
@given(tie_heavy_instances())
def test_incremental_ssp_matches_reference_oracle(instance):
    _assert_matches_oracle(*instance)


@pytest.mark.parametrize("load_limit", [None, 1, 2, 5])
@pytest.mark.parametrize("per_sink", [4, 16])
def test_incremental_ssp_matches_reference_on_layout(
    attacked_design, load_limit, per_sink
):
    _, _, _, view = attacked_design
    candidates = build_candidates(view, per_sink=per_sink)
    costs = candidates.features[:, -1] * candidates.span
    _assert_matches_oracle(candidates, costs, load_limit)


def test_capacity_leaves_sinks_unmatched():
    # Five sinks, one net of load 2: exactly two matched, and which
    # two is decided by the canonical tie weights, not visit order.
    candidates = _synthetic_candidates(
        [40, 10, 30, 20, 50],
        [("x", False)],
        [(i, 0) for i in range(5)],
    )
    match = _assert_matches_oracle(candidates, np.zeros(5), 2)
    assert match.flow == 2
    assert match.matched_net.count(None) == 3


def test_tie_nets_ignore_the_load_limit():
    candidates = _synthetic_candidates(
        [1, 2, 3, 4],
        [("tie0", True), ("x", False)],
        [(i, src) for i in range(4) for src in (0, 1)],
    )
    costs = np.array([0.0, 1.0] * 4)  # every sink prefers the TIE net
    match = _assert_matches_oracle(candidates, costs, 1)
    assert match.matched_net == ["tie0"] * 4
    assert match.cost == 0


def _permuted(candidates, costs, rng):
    """The same instance with candidate rows and source stubs shuffled."""
    rows = rng.permutation(candidates.num_pairs)
    order = rng.permutation(len(candidates.sources))
    new_index = np.empty_like(order)
    new_index[order] = np.arange(len(order))
    pairs = candidates.pairs[rows].copy()
    pairs[:, 1] = new_index[pairs[:, 1]]
    per_sink: list[list[int]] = [[] for _ in candidates.sinks]
    for sink_i, src_i in pairs.tolist():
        per_sink[sink_i].append(src_i)
    shuffled = CandidateSet(
        view=candidates.view,
        sinks=candidates.sinks,
        sources=[candidates.sources[i] for i in order.tolist()],
        per_sink=per_sink,
        pairs=pairs,
        features=candidates.features[rows],
        span=candidates.span,
        _net_of_source=[candidates._net_of_source[i] for i in order.tolist()],
    )
    return shuffled, np.asarray(costs)[rows]


def test_swap_ties_are_broken_by_definition_not_order():
    # Two sinks, two nets, four equal costs: (a-x, b-y) and (a-y, b-x)
    # tie on every additive score.  Every candidate-row and source
    # order must pick the same one.
    candidates = _synthetic_candidates(
        [7, 3],
        [("x", False), ("y", False)],
        [(0, 0), (0, 1), (1, 0), (1, 1)],
    )
    costs = np.ones(4)
    expected = _match_nets(candidates, costs, 1).matched_net
    assert sorted(expected) == ["x", "y"]
    rng = np.random.default_rng(0)
    for _ in range(20):
        shuffled, shuffled_costs = _permuted(candidates, costs, rng)
        assert _match_nets(shuffled, shuffled_costs, 1).matched_net == expected


@pytest.mark.parametrize("load_limit", [None, 2])
def test_assignment_is_invariant_to_candidate_order(attacked_design, load_limit):
    _, _, _, view = attacked_design
    candidates = build_candidates(view, per_sink=8)
    # Coarse costs (quarter-span buckets) make many sinks tie.
    costs = np.round(candidates.features[:, 0] * 4) / 4
    expected = flow_assignment(view, candidates, costs, load_limit)
    rng = np.random.default_rng(1)
    for _ in range(3):
        shuffled, shuffled_costs = _permuted(candidates, costs, rng)
        assert (
            flow_assignment(view, shuffled, shuffled_costs, load_limit)
            == expected
        )


_ARC_DUMP = """
import hashlib, json
from repro.adversary import build_candidates
from repro.adversary.netflow import canonical_arcs
from repro.locking import AtpgLockConfig, atpg_lock
from repro.phys import build_locked_layout
from tests.conftest import build_random_circuit

circuit = build_random_circuit(3, num_inputs=8, num_gates=80, num_outputs=4)
locked, _ = atpg_lock(circuit, AtpgLockConfig(key_bits=8, seed=1, run_lec=False))
view = build_locked_layout(locked, split_layer=4, seed=1).feol_view()
candidates = build_candidates(view, per_sink=8)
arcs = canonical_arcs(candidates, candidates.features[:, -1] * candidates.span)
rows = [
    [candidates.sinks[i].stub_id, arcs.nets[j], c]
    for i, j, c in zip(arcs.sink, arcs.net, arcs.cost)
]
print(len(rows), hashlib.sha256(json.dumps(rows).encode()).hexdigest())
"""


def test_canonical_costs_ignore_the_hash_seed():
    root = Path(__file__).resolve().parent.parent
    digests = []
    for seed in ("1", "2"):
        env = {
            **os.environ,
            "PYTHONHASHSEED": seed,
            "PYTHONPATH": os.pathsep.join([str(root / "src"), str(root)]),
        }
        out = subprocess.run(
            [sys.executable, "-c", _ARC_DUMP],
            cwd=root,
            env=env,
            capture_output=True,
            text=True,
            check=True,
        )
        digests.append(out.stdout.strip())
    assert int(digests[0].split()[0]) > 0
    assert digests[0] == digests[1]


# ----------------------------------------------------------------------
# Engines
# ----------------------------------------------------------------------
def _context(view, locked, scenario_name, **overrides):
    scenario = SCENARIOS[scenario_name].resolve()
    return AttackContext(
        view=view,
        scenario=scenario,
        seed=scenario.seed,
        budget=scenario.budget,
        locked=locked,
        **overrides,
    )


def test_engine_registry_rejects_unknown():
    with pytest.raises(KeyError):
        get_engine("quantum")


def test_netflow_engine_assigns_every_sink(attacked_design):
    _, locked, _, view = attacked_design
    result = get_engine("netflow").run(_context(view, locked, "netflow"))
    assert set(result.assignment) == {s.stub_id for s in view.sink_stubs}
    assert result.engine == "netflow"
    result.recovered.topological_order()  # acyclic


def test_netflow_beats_random_on_regular_nets(attacked_design):
    _, locked, _, view = attacked_design
    netflow = get_engine("netflow").run(_context(view, locked, "netflow"))
    random_result = get_engine("random").run(_context(view, locked, "random"))
    assert (
        compute_ccr(netflow).regular_ccr
        > compute_ccr(random_result).regular_ccr
    )


def test_learned_scorer_trains_deterministically():
    first = train_scorer(TINY_TRAIN)
    second = train_scorer(TINY_TRAIN)
    assert np.array_equal(first.weights, second.weights)
    assert first.bias == second.bias
    assert first.meta["train_pairs"] > 0
    assert 0.5 < first.meta["train_auc"] <= 1.0


def test_learned_scorer_ranks_true_pairs_higher(attacked_design):
    _, _, _, view = attacked_design
    scorer = train_scorer(TINY_TRAIN)
    candidates = build_candidates(view, per_sink=16, with_labels=True)
    probs = scorer.probabilities(candidates.features)
    true_mean = probs[candidates.labels > 0.5].mean()
    false_mean = probs[candidates.labels < 0.5].mean()
    assert true_mean > false_mean


def test_sat_engine_reports_futility(attacked_design):
    _, locked, _, view = attacked_design
    result = get_engine("sat").run(_context(view, locked, "sat"))
    futility = result.diagnostics["sat_futility"]
    assert futility["keys_probed"] == futility["keys_consistent"]
    assert len(result.key_guess) == locked.key_length


# ----------------------------------------------------------------------
# Scenario evaluation
# ----------------------------------------------------------------------
def test_run_scenario_requires_resolved():
    with pytest.raises(ValueError):
        run_scenario(
            SCENARIOS["netflow"],  # unresolved: seed/budget are None
            None, None, None, "x", 4, hd_patterns=64,
        )


def test_run_scenario_outcome_is_picklable(attacked_design):
    circuit, locked, _, view = attacked_design
    outcome = run_scenario(
        SCENARIOS["netflow"].resolve(),
        view, locked, circuit, "t200", 4, hd_patterns=512,
    )
    clone = pickle.loads(pickle.dumps(outcome))
    assert clone.ccr == outcome.ccr
    assert clone.hd_oer == outcome.hd_oer
    assert clone.scenario == outcome.scenario


def test_oracle_scenario_batches_hypotheses(attacked_design):
    circuit, locked, _, view = attacked_design
    outcome = run_scenario(
        SCENARIOS["oracle-key"].resolve(),
        view, locked, circuit, "t200", 4, hd_patterns=512,
    )
    assert outcome.sim_engine == "compiled-batch"
    assert outcome.hypotheses > 1
    assert outcome.key_guess is not None
    assert 0.0 <= outcome.key_accuracy <= 1.0


def test_oracle_key_search_finds_true_key_in_small_keyspace():
    circuit = build_random_circuit(7, num_inputs=8, num_gates=80, num_outputs=4)
    locked, _ = atpg_lock(
        circuit, AtpgLockConfig(key_bits=4, seed=3, run_lec=False)
    )
    # Budget covers the whole 16-key space: the true key (or an exact
    # functional equivalent) must score zero mismatches.
    guess, diagnostics = oracle_key_search(
        locked, circuit, budget=16, seed=11
    )
    assert diagnostics["hypotheses"] == 16
    assert diagnostics["best_mismatch_bits"] == 0
    assert key_accuracy(guess, locked) == 1.0 or _equivalent_key(
        locked, guess
    )


def _equivalent_key(locked, guess):
    from repro.sim.bitparallel import functions_equal_exhaustive

    return functions_equal_exhaustive(
        locked.with_key(list(guess), name="g"), locked.circuit.copy("r")
    )


def test_implied_key_guess_reads_tie_polarities(attacked_design):
    circuit, locked, _, view = attacked_design
    outcome_result = get_engine("ideal").run(
        _context(view, locked, "ideal")
    )
    guess = implied_key_guess(outcome_result, locked)
    assert len(guess) == locked.key_length
    assert set(guess) <= {0, 1}
    # the perfect assignment implies the true key exactly
    from repro.attacks.result import AttackResult

    perfect = AttackResult(
        view, {s.stub_id: s.net for s in view.sink_stubs}, strategy="oracle"
    )
    assert implied_key_guess(perfect, locked) == locked.key
    assert key_accuracy(implied_key_guess(perfect, locked), locked) == 1.0
