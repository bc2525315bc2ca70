"""Loop breaking in the attacker's rebuilt netlist.

:func:`repro.attacks.result._break_cycles` ties cycle-closing patched
pins to constant 0 in one resumable Kahn peel.  It is pinned here on a
hand-built view and checked, on random cyclic patchings, against the
full-recompute loop it replaced (kept below as the oracle).
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.attacks.result import _break_cycles, rebuild_netlist
from repro.netlist.circuit import Circuit, Gate, NetlistError
from repro.netlist.gate_types import SOURCE_TYPES, GateType
from repro.phys.split import FeolView, SinkStub
from tests.conftest import build_random_circuit


def _peel_residue(circuit: Circuit) -> set[str]:
    indegree: dict[str, int] = {}
    ready: list[str] = []
    for gate in circuit.gates.values():
        if gate.gate_type in SOURCE_TYPES or gate.is_dff:
            indegree[gate.name] = 0
            ready.append(gate.name)
        else:
            indegree[gate.name] = len(gate.fanin)
    fanout = circuit.fanout_map()
    cursor = 0
    while cursor < len(ready):
        name = ready[cursor]
        cursor += 1
        for reader in fanout[name]:
            if circuit.gates[reader].is_dff:
                continue
            indegree[reader] -= 1
            if indegree[reader] == 0:
                ready.append(reader)
    return {name for name, degree in indegree.items() if degree > 0}


def _break_cycles_oracle(circuit: Circuit, patched_pins: set) -> int:
    """Re-sort and re-peel the whole netlist after every tied pin."""
    broken = 0
    while True:
        try:
            circuit.topological_order()
            return broken
        except NetlistError:
            pass
        cyclic = _peel_residue(circuit)
        rewired = False
        for gate_name in sorted(cyclic):
            gate = circuit.gates[gate_name]
            for position, fin in enumerate(gate.fanin):
                if (gate_name, position) in patched_pins and fin in cyclic:
                    tie = circuit.fresh_name(f"{gate_name}_loopbrk")
                    circuit.add(tie, GateType.TIELO)
                    fanin = list(gate.fanin)
                    fanin[position] = tie
                    circuit.replace_gate(gate.with_fanin(fanin))
                    patched_pins.discard((gate_name, position))
                    broken += 1
                    rewired = True
                    break
            if rewired:
                break
        if not rewired:
            raise RuntimeError("unbreakable cycle in recovered netlist")


def _snapshot(circuit: Circuit):
    return list(circuit.gates.items()), list(circuit.outputs)


def _two_loop_view() -> tuple[FeolView, dict[int, str]]:
    """Patched pins close g1->g2->g3->g1 and g2->g3->g4->g2.

    ``d1`` only hangs off the loops: its patched pin reads g3 from the
    peel residue, and it sorts before every loop gate.
    """
    gates = [
        Gate("a", GateType.INPUT),
        Gate("b", GateType.INPUT),
        Gate("g1", GateType.AND, ("a", "b")),
        Gate("g2", GateType.OR, ("g1", "b")),
        Gate("g3", GateType.XOR, ("g2", "a")),
        Gate("g4", GateType.NAND, ("g3", "b")),
        Gate("d1", GateType.AND, ("a", "b")),
        Gate("g1_loopbrk", GateType.BUF, ("a",)),  # forces a fresh name
    ]
    view = FeolView(
        circuit_name="loops",
        split_layer=4,
        gates={g.name: g for g in gates},
        outputs=["g4", "d1", "g1_loopbrk"],
    )
    pins = [("g1", 1, "g3"), ("g2", 1, "g4"), ("d1", 0, "g3"), ("g4", 1, "a")]
    view.sink_stubs = [
        SinkStub(stub_id, owner, pin, "b", 0.0, 0.0, False)
        for stub_id, (owner, pin, _) in enumerate(pins)
    ]
    return view, {stub_id: net for stub_id, (_, _, net) in enumerate(pins)}


def test_two_patched_loops_pinned():
    view, assignment = _two_loop_view()
    rebuilt = rebuild_netlist(view, assignment, "loops_recovered")
    assert rebuilt.gates["d1"].fanin == ("d1_loopbrk", "b")
    assert rebuilt.gates["g1"].fanin == ("a", "g1_loopbrk_0")
    assert rebuilt.gates["g2"].fanin == ("g1", "g2_loopbrk")
    # the patched pin off every cycle keeps the attacker's guess
    assert rebuilt.gates["g4"].fanin == ("g3", "a")
    for tie in ("d1_loopbrk", "g1_loopbrk_0", "g2_loopbrk"):
        assert rebuilt.gates[tie].gate_type is GateType.TIELO
    assert rebuilt.gates["g1_loopbrk"].gate_type is GateType.BUF
    rebuilt.topological_order()  # acyclic


def test_two_patched_loops_count_and_remaining_pins():
    view, assignment = _two_loop_view()
    plain = rebuild_netlist(view, {}, "unused")  # FEOL-only: no loops
    circuit = plain.copy()
    for stub in view.sink_stubs:
        gate = circuit.gates[stub.owner]
        fanin = list(gate.fanin)
        fanin[stub.pin_index] = assignment[stub.stub_id]
        circuit.replace_gate(gate.with_fanin(fanin))
    pins = {(s.owner, s.pin_index) for s in view.sink_stubs}
    assert _break_cycles(circuit, pins) == 3
    assert pins == {("g4", 1)}
    assert _break_cycles(circuit, pins) == 0


@st.composite
def cyclic_patchings(draw):
    circuit = build_random_circuit(
        draw(st.integers(0, 10_000)), num_gates=draw(st.integers(10, 60))
    )
    pins = [
        (gate.name, position)
        for gate in circuit
        if not gate.is_input
        for position in range(len(gate.fanin))
    ]
    chosen = draw(
        st.lists(st.sampled_from(pins), min_size=1, max_size=12, unique=True)
    )
    nets = sorted(circuit.gates)
    patch = {pin: draw(st.sampled_from(nets)) for pin in chosen}
    return circuit, patch


@settings(max_examples=150, deadline=None)
@given(cyclic_patchings())
def test_break_cycles_matches_full_recompute(case):
    base, patch = case
    for (owner, position), net in patch.items():
        gate = base.gates[owner]
        fanin = list(gate.fanin)
        fanin[position] = net
        base.replace_gate(gate.with_fanin(fanin))
    fast, slow = base.copy(), base.copy()
    fast_pins, slow_pins = set(patch), set(patch)
    assert _break_cycles(fast, fast_pins) == _break_cycles_oracle(
        slow, slow_pins
    )
    assert _snapshot(fast) == _snapshot(slow)
    assert fast_pins == slow_pins
    fast.topological_order()
