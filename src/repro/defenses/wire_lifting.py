"""Concerted wire lifting defense ([12] Patnaik et al., ASPDAC'18).

Selected nets are lifted wholesale above the split layer through via
stacks placed *at the pins*, deliberately leaving no FEOL escape wiring —
the same physical trick the paper later applies to its key-nets.  The
attack is left with proximity over raw pin positions, which for the
strategically chosen (high-fanout, long, reconvergent) nets carries
essentially no signal: Table III reports CCR 0 for [12], at the price of
noticeable layout cost (the motivation for the paper's key-based scheme,
which protects with far fewer lifted nets).
"""

from __future__ import annotations

from repro.defense.wire_lifting import select_protected_nets
from repro.defenses.base import DefenseOutcome, base_layout, evaluate_defense
from repro.metrics.hd_oer import DEFAULT_HD_PATTERNS
from repro.netlist.circuit import Circuit
from repro.phys.split import split_layout
from repro.utils.rng import rng_for

#: Fraction of nets concertedly lifted above the split layer.
LIFT_FRACTION = 0.30


def apply_wire_lifting(
    circuit: Circuit,
    split_layer: int = 4,
    seed: int = 2019,
    fraction: float = LIFT_FRACTION,
) -> tuple[object, set[str]]:
    """Build the [12]-protected FEOL view; returns ``(view, lifted)``."""
    rng = rng_for(seed, "wire-lifting", circuit.name)
    layout = base_layout(circuit, seed)
    routing = layout.routing
    chosen = set(select_protected_nets(circuit, routing, fraction))
    for net in chosen:
        routed = routing.nets[net]
        # whole-net lifting through via stacks with *concerted* (randomly
        # re-seated) via locations — no escape, no trunk hint, and the
        # via column itself carries no proximity signal.
        routed.is_key_net = True
        routed.lift_layer = split_layer + 1
    view = split_layout(layout.circuit, routing, split_layer, key_nets=chosen)
    scatter_stubs(view, chosen, layout, rng)
    return view, chosen


def scatter_stubs(view, chosen: set[str], layout, rng) -> None:
    """Re-seat the via columns of lifted nets at randomized locations.

    [12] chooses lifting vias concertedly so that candidate sets overlap
    maximally; a uniform scatter over the die achieves the same "zero
    residual proximity" property in our geometry model.
    """
    from repro.phys.split import SinkStub, SourceStub

    width = layout.floorplan.width_um
    height = layout.floorplan.height_um
    view.source_stubs = [
        SourceStub(
            s.stub_id,
            s.owner,
            s.net,
            rng.uniform(0, width),
            rng.uniform(0, height),
            s.is_tie,
            s.tie_value,
            None,
        )
        if s.net in chosen
        else s
        for s in view.source_stubs
    ]
    view.sink_stubs = [
        SinkStub(
            s.stub_id,
            s.owner,
            s.pin_index,
            s.net,
            rng.uniform(0, width),
            rng.uniform(0, height),
            s.has_escape,
            None,
        )
        if s.net in chosen
        else s
        for s in view.sink_stubs
    ]


def evaluate_wire_lifting(
    circuit: Circuit,
    split_layer: int = 4,
    seed: int = 2019,
    hd_patterns: int = DEFAULT_HD_PATTERNS,
) -> DefenseOutcome:
    """Full [12]-style evaluation on *circuit*."""
    view, protected = apply_wire_lifting(circuit, split_layer, seed)
    return evaluate_defense(
        "wire-lifting[12]", circuit, view, protected, hd_patterns
    )
