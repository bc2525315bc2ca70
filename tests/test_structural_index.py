"""The per-circuit structural index behind lock planning.

:meth:`Circuit.structure` caches sink-reach bitsets, the topological
position map and the cut-expandable net set.  These tests pin every
query against the scalar walks it replaced (kept here as oracles), and
pin the cache contract: any structural edit or output re-listing drops
the index, and pickles never carry it.
"""

from __future__ import annotations

import pickle

import pytest

from repro.benchgen import generate_random_circuit, load_itc99
from repro.locking.atpg_lock import FaultPlan, _inject
from repro.locking.cost_model import FaultCost, _fold_value, cascade_removed_area
from repro.locking.partition import affected_sinks
from repro.netlist.circuit import Circuit, Gate
from repro.netlist.gate_types import GateType
from repro.netlist.transforms import substitute_net
from repro.runner.spec import parse_benchmark


def _cone_sinks(circuit: Circuit, net: str):
    """Oracle: sinks of *net* from one transitive-fanout walk."""
    reach = circuit.transitive_fanout([net])
    aliases: dict[str, list[str]] = {}
    for out in circuit.outputs:
        if out in reach:
            aliases.setdefault(out, []).append(f"PO:{out}")
    for dff_name in circuit.dffs:
        d_net = circuit.gates[dff_name].fanin[0]
        if d_net in reach:
            aliases.setdefault(d_net, []).append(f"DFF:{dff_name}")
    return list(aliases), aliases


def _cone_cascade_area(circuit: Circuit, net: str, value: int) -> float:
    """Oracle: cascade area folding every fanout-cone gate in topo order."""
    from repro.netlist.cell_library import NANGATE45 as lib

    fanout = circuit.fanout_map()
    outputs = set(circuit.outputs)

    def gate_area(name: str) -> float:
        gate = circuit.gates[name]
        return lib.gate_area(gate.gate_type, len(gate.fanin))

    cone: set[str] = {net}
    stack = list(circuit.gates[net].fanin)
    while stack:
        candidate = stack.pop()
        if candidate in cone:
            continue
        gate = circuit.gates[candidate]
        if gate.is_input or gate.is_dff or gate.is_tie or candidate in outputs:
            continue
        readers = fanout[candidate]
        if readers and all(r in cone for r in readers):
            cone.add(candidate)
            stack.extend(gate.fanin)
    constant: dict[str, int] = {net: value}
    order = {n: i for i, n in enumerate(circuit.topological_order())}
    for name in sorted(circuit.transitive_fanout([net]), key=order.__getitem__):
        if name == net or name in constant:
            continue
        gate = circuit.gates[name]
        if gate.is_dff or gate.is_input or gate.is_tie:
            continue
        folded = _fold_value(gate.gate_type, [constant.get(n) for n in gate.fanin])
        if folded is not None:
            constant[name] = folded
    area = gate_area(net)
    area += sum(gate_area(n) for n in cone if n != net)
    area += sum(gate_area(n) for n in constant if n != net and n not in cone)
    return area


def _dff_chain_circuit() -> Circuit:
    """DFF->DFF chains, a PO that is also a D-net, a PO on a DFF output."""
    c = Circuit("chains")
    for name in ("a", "b"):
        c.add_input(name)
    c.add("x", GateType.AND, ("a", "b"))
    c.add("y", GateType.XOR, ("x", "q2"))
    c.add("q1", GateType.DFF, ("x",))  # D-net x ...
    c.add("q2", GateType.DFF, ("q1",))  # ... chained DFF -> DFF
    c.add("q3", GateType.DFF, ("q2",))
    c.add("q4", GateType.DFF, ("y",))
    c.add("q5", GateType.DFF, ("x",))  # a second DFF on the same D-net
    c.add_output("y")
    c.add_output("x")  # a PO that is also a D-net
    c.add_output("q3")  # a PO listing a DFF output
    return c


def _designs() -> list[Circuit]:
    from repro.benchgen import c17

    generator = parse_benchmark("random:i14-o8-g200-d6")
    return [
        c17(),
        load_itc99("b14", scale=0.03),
        generate_random_circuit(generator, seed=2019, name="random"),
        _dff_chain_circuit(),
    ]


@pytest.mark.parametrize("circuit", _designs(), ids=lambda c: c.name)
def test_affected_sinks_match_cone_walks(circuit):
    for net in circuit.gates:
        assert affected_sinks(circuit, net) == _cone_sinks(circuit, net), net


def test_alias_order_outputs_first_then_dffs():
    c = _dff_chain_circuit()
    sinks, aliases = affected_sinks(c, "a")
    # q1 and q5 read x, q4 reads y: each DFF joins the cone untraversed
    assert sinks == ["y", "x", "q1"]
    assert aliases == {
        "y": ["PO:y", "DFF:q4"],
        "x": ["PO:x", "DFF:q1", "DFF:q5"],
        "q1": ["DFF:q2"],
    }
    # a DFF output observes its readers, and a DFF reader is itself a
    # sink net when a PO lists it or a chained DFF reads it as data
    assert affected_sinks(c, "q1") == (
        ["q1", "q2"],
        {"q1": ["DFF:q2"], "q2": ["DFF:q3"]},
    )
    assert affected_sinks(c, "q2") == (
        ["y", "q3", "q2"],
        {"y": ["PO:y", "DFF:q4"], "q3": ["PO:q3"], "q2": ["DFF:q3"]},
    )
    assert affected_sinks(c, "q3") == (["q3"], {"q3": ["PO:q3"]})


def test_affected_sinks_memoized_per_net(c17_circuit):
    first = affected_sinks(c17_circuit, "N11")
    assert affected_sinks(c17_circuit, "N11") is first


@pytest.mark.parametrize("circuit", _designs(), ids=lambda c: c.name)
def test_position_and_expandable_tables(circuit):
    index = circuit.structure()
    assert list(index.position) == circuit.topological_order()
    assert index.expandable == {
        g.name
        for g in circuit
        if not (g.is_input or g.is_dff or g.is_tie)
    }


@pytest.mark.parametrize("circuit", _designs()[:3], ids=lambda c: c.name)
def test_cascade_removed_area_matches_cone_fold(circuit):
    for gate in circuit:
        if gate.is_input or gate.is_dff or gate.is_tie:
            continue
        for value in (0, 1):
            assert cascade_removed_area(
                circuit, gate.name, value
            ) == _cone_cascade_area(circuit, gate.name, value), gate.name


def test_index_dropped_by_every_structural_edit(c17_circuit):
    c = c17_circuit
    index = c.structure()
    assert c.structure() is index
    c.replace_gate(Gate("N10", GateType.NOR, c.gates["N10"].fanin))
    assert c.structure() is not index

    index = c.structure()
    plan = FaultPlan("N11", 1, [], [], FaultCost(0.0, 0.0, 0))
    _inject(c, plan)
    assert c.structure() is not index
    assert affected_sinks(c, "N6") == ([], {})  # its only reader N11 is a TIE

    index = c.structure()
    c.add("N30", GateType.NOT, ("N22",))
    c.add_output("N30")
    assert c.structure() is not index
    assert affected_sinks(c, "N22")[0] == ["N22", "N30"]

    index = c.structure()
    c.rename_output("N30", "N19")
    assert c.structure() is not index
    assert "N19" in affected_sinks(c, "N7")[0]

    index = c.structure()
    substitute_net(c, "N23", "N16")  # re-lists a primary output only
    assert c.structure() is not index
    assert affected_sinks(c, "N16")[0] == _cone_sinks(c, "N16")[0]


def test_index_never_pickled(c17_circuit):
    index = c17_circuit.structure()
    assert "_index_cache" not in c17_circuit.__getstate__()
    blob = pickle.dumps(c17_circuit)
    assert b"StructuralIndex" not in blob and b"sink_reach" not in blob
    clone = pickle.loads(blob)
    assert clone._index_cache is None
    assert clone.structure().sink_reach == index.sink_reach
