"""Routing perturbation defense ([22] Wang et al., ASPDAC'17).

The defense re-routes a fraction of nets with deliberate detours so that
the proximity heuristic mis-ranks candidates.  Crucially, it perturbs
*where wires run* but the perturbed nets still cross the split layer with
their dangling ends in the neighbourhood of the true partner — lots of
residual signal.  Table III shows the consequence: the attack still
recovers ~73% of the perturbed connections and ~88% of the netlist.
"""

from __future__ import annotations

from repro.defense.routing_perturbation import jog_stubs
from repro.defenses.base import DefenseOutcome, base_layout, evaluate_defense
from repro.metrics.hd_oer import DEFAULT_HD_PATTERNS
from repro.netlist.circuit import Circuit
from repro.phys.split import split_layout
from repro.utils.rng import rng_for


#: Fraction of nets the defense re-routes through the BEOL.
PERTURB_FRACTION = 0.25

#: Maximum jog (um) applied along the trunk direction of perturbed nets.
MAX_JOG_UM = 1.0

#: Maximum cross-trunk jog (um) — small, so the tell-tale row alignment
#: of the dangling ends survives: this is exactly why the defense is weak.
MAX_CROSS_JOG_UM = 0.3


def apply_routing_perturbation(
    circuit: Circuit,
    split_layer: int = 4,
    seed: int = 2019,
) -> tuple[object, set[str]]:
    """Build the perturbed FEOL view; returns ``(view, protected_nets)``."""
    rng = rng_for(seed, "routing-perturbation", circuit.name)
    layout = base_layout(circuit, seed)
    routing = layout.routing

    candidates = [
        net
        for net, routed in routing.nets.items()
        if routed.routes and routed.top_layer <= split_layer
    ]
    rng.shuffle(candidates)
    chosen = set(candidates[: max(1, int(len(candidates) * PERTURB_FRACTION))])
    for net in chosen:
        routed = routing.nets[net]
        # push the net across the split: its trunk now runs one pair up
        routed.lower_layer = split_layer  # trunk (odd layer) above split
        routed.detour_factor = max(routed.detour_factor, 1.0 + rng.uniform(0.05, 0.2))

    view = split_layout(layout.circuit, routing, split_layer)
    jog_stubs(view, chosen, rng, MAX_JOG_UM, MAX_CROSS_JOG_UM)
    return view, chosen


def evaluate_routing_perturbation(
    circuit: Circuit,
    split_layer: int = 4,
    seed: int = 2019,
    hd_patterns: int = DEFAULT_HD_PATTERNS,
) -> DefenseOutcome:
    """Full [22]-style evaluation on *circuit*."""
    view, protected = apply_routing_perturbation(circuit, split_layer, seed)
    return evaluate_defense(
        "routing-perturbation[22]", circuit, view, protected, hd_patterns
    )
