"""Common result model shared by every attack engine.

One :class:`AttackResult` dataclass covers all engines — the greedy
proximity attack, the min-cost network-flow matcher, the learned
scorer, random guessing, the ideal attacker and the oracle-less SAT
probe — so metrics (:mod:`repro.metrics.ccr`, ``pnr``, ``hd_oer``) and
the runner's cached ``attack`` stage consume one shape.

The result is **artifact-cache friendly**: every field pickles cleanly
(``recovered`` drops its derived topological/level/compile caches via
:class:`~repro.netlist.circuit.Circuit` pickling), and ``diagnostics``
holds only plain values (dicts/lists/scalars — attack configs are
stored as dicts, never as live config objects), so cached bytes are a
stable function of the producing spec.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.netlist.circuit import Circuit
from repro.phys.split import FeolView


@dataclass
class AttackResult:
    """Outcome of an attack on one FEOL view.

    ``assignment`` maps every broken sink-stub id to the *net name* of the
    source the attacker connected it to.  ``recovered`` is the netlist the
    attacker would hand to a fab — broken pins wired per the assignment.
    ``strategy`` is the human-readable pipeline label (postprocessing
    appends to it); ``engine`` is the registry name of the producing
    engine.  ``key_guess`` carries the key-bit vector the attacker would
    commit to, when the engine forms one.
    """

    view: FeolView
    assignment: dict[int, str] = field(default_factory=dict)
    recovered: Circuit | None = None
    strategy: str = "unspecified"
    engine: str = "unspecified"
    key_guess: tuple[int, ...] | None = None
    diagnostics: dict[str, object] = field(default_factory=dict)

    def assigned_net(self, stub_id: int) -> str | None:
        return self.assignment.get(stub_id)

    def derived(
        self,
        assignment: dict[int, str] | None = None,
        strategy: str | None = None,
        netlist_name: str | None = None,
    ) -> "AttackResult":
        """A follow-up result on the same view (post-processing steps).

        Diagnostics are copied (never shared) so pipeline stages can
        annotate without mutating their input; the recovered netlist is
        rebuilt when a new assignment is supplied.
        """
        new_assignment = (
            dict(self.assignment) if assignment is None else assignment
        )
        out = AttackResult(
            self.view,
            new_assignment,
            strategy=strategy or self.strategy,
            engine=self.engine,
            key_guess=self.key_guess,
            diagnostics=dict(self.diagnostics),
        )
        if assignment is None:
            out.recovered = self.recovered
            if netlist_name is not None and out.recovered is not None:
                out.recovered = out.recovered.copy(netlist_name)
        else:
            out.recovered = rebuild_netlist(
                self.view,
                new_assignment,
                netlist_name or f"{self.view.circuit_name}_recovered",
            )
        return out


def rebuild_netlist(view: FeolView, assignment: dict[int, str], name: str) -> Circuit:
    """Construct the attacker's completed netlist from an assignment.

    Broken gate-input pins take the assigned driver; broken primary-output
    pads re-point the output alias.  Unassigned pins fall back to their
    own gate's first available net to keep the netlist well-formed (the
    attacker must tape out *something*).
    """
    from repro.netlist.circuit import Circuit as _Circuit

    rebuilt = _Circuit(name)
    patch: dict[tuple[str, int], str] = {}
    output_patch: dict[str, str] = {}
    for stub in view.sink_stubs:
        target = assignment.get(stub.stub_id)
        if target is None:
            # The attacker must connect every pin: fall back to the
            # geometrically nearest source stub.  Never the ground truth.
            target = _nearest_source(view, stub)
        if target is None:
            continue
        if stub.owner.startswith("PO:"):
            output_patch[stub.owner[3:]] = target
        else:
            patch[(stub.owner, stub.pin_index)] = target

    for gate in view.gates.values():
        if gate.is_input:
            rebuilt.add(gate.name, gate.gate_type)
            continue
        fanin = list(gate.fanin)
        for position in range(len(fanin)):
            key = (gate.name, position)
            if key in patch:
                fanin[position] = patch[key]
        rebuilt.add(gate.name, gate.gate_type, tuple(fanin))

    from repro.netlist.gate_types import GateType

    for net in view.outputs:
        target = output_patch.get(net, net)
        if target in rebuilt.outputs:
            # the attacker wired two pads to one net; alias through a BUF
            # so the netlist model (distinct output listings) holds.
            alias = rebuilt.fresh_name(f"{target}_poalias")
            rebuilt.add(alias, GateType.BUF, (target,))
            target = alias
        rebuilt.add_output(target)
    _break_cycles(rebuilt, set(patch))
    return rebuilt


def _break_cycles(circuit, patched_pins: set[tuple[str, int]]) -> int:
    """Tie cycle-closing *attacker-patched* pins to constant 0.

    A guessed netlist with a combinational loop is not fabricable; real
    attack tooling rejects such assignments outright.  As a safety net for
    randomized attack variants we break any residual cycle at one of the
    guessed pins (never at an FEOL-visible connection) — the functional
    damage stays on the attacker's side of the ledger.

    One Kahn peel (repeatedly retire gates whose fanins are all retired;
    sources and DFF outputs start retired) leaves the gates on or fed by
    a cycle.  The lowest-named such gate with a patched pin driven from
    inside that residue gets the pin tied off, which removes one
    unretired edge, and the peel resumes.  A peel's residue does not
    depend on retirement order, so every step sees the residue a fresh
    peel of the edited netlist would leave; and since the residue and
    the patched pins only shrink, a gate passed over never qualifies
    again, so one ascending scan makes every choice.  Returns the number
    of pins tied off.
    """
    from repro.netlist.gate_types import SOURCE_TYPES, GateType

    fanout = {net: list(readers) for net, readers in circuit.fanout_map().items()}
    indegree: dict[str, int] = {}
    ready: list[str] = []
    for gate in circuit.gates.values():
        if gate.gate_type in SOURCE_TYPES or gate.is_dff:
            indegree[gate.name] = 0
            ready.append(gate.name)
        else:
            indegree[gate.name] = len(gate.fanin)
    dffs = {name for name in ready if circuit.gates[name].is_dff}

    def peel() -> None:
        while ready:
            for reader in fanout[ready.pop()]:
                if reader in dffs:
                    continue  # a D pin is not a combinational edge
                indegree[reader] -= 1
                if indegree[reader] == 0:
                    ready.append(reader)

    peel()
    broken = 0
    for gate_name in sorted(n for n, degree in indegree.items() if degree):
        while indegree[gate_name]:
            gate = circuit.gates[gate_name]
            position = next(
                (
                    position
                    for position, fin in enumerate(gate.fanin)
                    if (gate_name, position) in patched_pins
                    and indegree[fin]
                ),
                None,
            )
            if position is None:
                break
            fin = gate.fanin[position]
            tie = circuit.fresh_name(f"{gate_name}_loopbrk")
            circuit.add(tie, GateType.TIELO)
            fanin = list(gate.fanin)
            fanin[position] = tie
            circuit.replace_gate(gate.with_fanin(fanin))
            patched_pins.discard((gate_name, position))
            broken += 1
            # the cut edge leaves the peel; the tie's edge is a source's,
            # retired at once
            fanout[fin].remove(gate_name)
            indegree[gate_name] -= 1
            if not indegree[gate_name]:
                ready.append(gate_name)
                peel()
    if any(indegree.values()):  # pragma: no cover - cycle through visible edges
        raise RuntimeError("unbreakable cycle in recovered netlist")
    return broken


def _nearest_source(view: FeolView, sink) -> str | None:
    best = None
    best_dist = float("inf")
    for source in view.source_stubs:
        if source.owner == sink.owner:
            continue  # no self-loop
        dist = (source.x - sink.x) ** 2 + (source.y - sink.y) ** 2
        if dist < best_dist:
            best_dist = dist
            best = source.net
    return best
