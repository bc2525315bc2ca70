"""Bounded-support module extraction around candidate faults.

The paper partitions the netlist "in a random but balanced manner" so that
stuck-at faults can be enumerated per module, in parallel, with bounded
ATPG effort.  We realise the same tractability bound through *fault-local
cuts*: for a candidate fault, take the set of sinks it can reach (primary
outputs and DFF data pins), then grow a backward cut from those sinks
until the cut frontier has at most ``max_support`` nets and strictly
contains the fault site.  The module between the cut and the sinks is the
unit on which the exact failing set is computed (see
:mod:`repro.atpg.patterns`), and the cut nets are where the restore
comparator taps.

Every per-fault query reads the circuit's
:class:`~repro.netlist.circuit.StructuralIndex` (``circuit.structure()``)
instead of rescanning the netlist: sink sets decode from its sink-reach
bitsets (memoized per net), cuts grow through its expandable-net set and
modules list their gates by its topological positions.  The index is
cached on the circuit like the topological order; any gate edit
(``add_gate``/``replace_gate``/``remove_gate``, fault injection) or
output re-listing drops it, and pickles never carry it.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.netlist.circuit import Circuit
from repro.netlist.gate_types import GateType


@dataclass
class FaultModule:
    """A bounded-support module enclosing one candidate fault site."""

    module: Circuit  # standalone circuit: INPUTs = cut nets, outputs = sinks
    cut_nets: list[str]  # names in the full circuit (== module input names)
    sink_nets: list[str]  # affected output nets (full-circuit names)
    sink_aliases: dict[str, list[str]]  # sink net -> PO names / DFF q names


def affected_sinks(circuit: Circuit, net: str) -> tuple[list[str], dict[str, list[str]]]:
    """Sinks observed by a fault at *net*: PO nets and DFF data nets.

    Returns ``(sink_nets, aliases)`` where aliases maps a sink net to the
    primary outputs listing it and the DFFs reading it as data.  Decoded
    from the circuit's sink-reach bitsets and memoized per net, so the
    stuck-at-0 and stuck-at-1 faults of a net share one answer; treat the
    result as read-only.
    """
    return circuit.structure().affected_sinks(net)


def grow_cut(
    circuit: Circuit,
    sinks: list[str],
    must_contain: str,
    max_support: int,
    tainted: set[str] | None = None,
) -> list[str] | None:
    """Find a cut of <= *max_support* nets separating *sinks* from inputs.

    The returned cut strictly excludes *must_contain* (the fault net stays
    interior) and never uses a net from the fault's fanout cone: a cut net
    is treated as a fault-independent module input, so it must not itself
    depend on the fault.  Strategy: start with the frontier at the sink
    drivers' fanins and greedily expand fault-tainted nets first, then the
    deepest frontier net; sources stop expanding.  Returns ``None`` when
    no feasible cut exists.
    """
    levels = circuit.levels()
    expandable = circuit.structure().expandable
    if tainted is None:
        tainted = circuit.transitive_fanout([must_contain])
    interior: set[str] = set(sinks)
    frontier: set[str] = set()
    for sink in sinks:
        frontier.update(circuit.gates[sink].fanin)
    frontier -= interior

    guard = 0
    while True:
        guard += 1
        if guard > 4 * len(circuit.gates) + 64:
            return None
        # force the fault net and everything it influences into the module
        forced = [n for n in frontier if n in tainted]
        if forced:
            target = forced[0]
        elif len(frontier) <= max_support and must_contain in interior:
            return sorted(frontier)
        else:
            candidates = [n for n in frontier if n in expandable]
            if not candidates:
                return None
            # expanding the deepest net tends to shrink the frontier
            # (reconvergence) and pulls the cut toward the inputs.
            target = max(candidates, key=lambda n: (levels[n], n))
        if target not in expandable:
            return None
        gate = circuit.gates[target]
        frontier.discard(target)
        interior.add(target)
        for net in gate.fanin:
            if net not in interior:
                frontier.add(net)
        if len(frontier) > 3 * max_support:
            return None  # hopeless blow-up


def extract_fault_module(
    circuit: Circuit,
    fault_net: str,
    max_support: int,
    max_sinks: int = 12,
) -> FaultModule | None:
    """Build one bounded module enclosing *fault_net* and all its sinks.

    ``None`` means the fault is not locally enclosable within the support
    and sink budgets — the locking flow simply skips such candidates, the
    same way the paper's cost model rejects faults whose restore logic
    would be too expensive.
    """
    sinks, aliases = affected_sinks(circuit, fault_net)
    if not sinks or len(sinks) > max_sinks:
        return None
    cut = grow_cut(circuit, sinks, fault_net, max_support)
    if cut is None or fault_net in cut:
        return None
    module = _extract_between(circuit, cut, sinks)
    if module is None or fault_net not in module.gates:
        return None
    return FaultModule(module, cut, sinks, aliases)


def extract_sink_modules(
    circuit: Circuit,
    fault_net: str,
    max_support: int,
    max_sinks: int = 24,
) -> list[FaultModule] | None:
    """Per-sink bounded modules for a fault at *fault_net*.

    Stronger than :func:`extract_fault_module` for faults whose effect
    fans out to many sinks: every affected sink is enclosed in its *own*
    cut of at most *max_support* nets, and the restore unit corrects each
    sink independently.  Returns ``None`` when any sink is not enclosable
    (all affected sinks must be correctable for the lock to be exact) or
    when the fault observes more than *max_sinks* sinks.
    """
    sinks, aliases = affected_sinks(circuit, fault_net)
    if not sinks or len(sinks) > max_sinks:
        return None
    tainted = circuit.transitive_fanout([fault_net])
    modules: list[FaultModule] = []
    for sink in sinks:
        cut = grow_cut(circuit, [sink], fault_net, max_support, tainted=tainted)
        if cut is None or fault_net in cut:
            return None
        module = _extract_between(circuit, cut, [sink])
        if module is None or fault_net not in module.gates:
            return None
        modules.append(
            FaultModule(module, cut, [sink], {sink: aliases[sink]})
        )
    return modules


def _extract_between(
    circuit: Circuit, cut: list[str], sinks: list[str]
) -> Circuit | None:
    """Standalone circuit of the logic between *cut* and *sinks*."""
    cut_set = set(cut)
    module = Circuit("fault_module")
    for net in cut:
        module.add(net, GateType.INPUT)
    # include every gate on a path cut -> sinks: backward walk from sinks
    # stopping at cut nets.
    index = circuit.structure()
    needed: list[str] = []
    seen: set[str] = set(cut_set)
    stack = list(sinks)
    while stack:
        net = stack.pop()
        if net in seen:
            continue
        seen.add(net)
        if net not in index.expandable:
            return None  # a source leaked past the cut: infeasible
        needed.append(net)
        stack.extend(n for n in circuit.gates[net].fanin if n not in seen)
    for net in sorted(needed, key=index.position.__getitem__):
        gate = circuit.gates[net]
        module.add(net, gate.gate_type, gate.fanin)
    for sink in sinks:
        module.add_output(sink)
    return module
