"""BEOL functionality-restore defense ([13] Patnaik et al., DAC'18).

"Raise your game for split manufacturing: restoring the true
functionality through BEOL" — the FEOL implements a *wrong* polarity for
selected gates; the correction happens purely in BEOL wiring choices.
We model it as concerted lifting ([12]) plus polarity obfuscation: the
drivers of the lifted nets appear inverted in the FEOL view, so even a
lucky physical match hands the attacker the wrong logic function.  As in
Table III, CCR stays ~0 and the recovered netlist's HD stays high.
"""

from __future__ import annotations

from repro.defense.wire_lifting import select_protected_nets
from repro.defenses.base import DefenseOutcome, base_layout, evaluate_defense
from repro.defenses.wire_lifting import LIFT_FRACTION, scatter_stubs
from repro.metrics.hd_oer import DEFAULT_HD_PATTERNS
from repro.netlist.circuit import Circuit
from repro.netlist.gate_types import INVERTED_DUAL
from repro.phys.split import split_layout
from repro.utils.rng import rng_for


#: Fraction of the lifted nets whose FEOL polarity is obfuscated.
OBFUSCATE_FRACTION = 0.5


def apply_beol_restore(
    circuit: Circuit,
    split_layer: int = 4,
    seed: int = 2019,
    fraction: float = LIFT_FRACTION,
) -> tuple[object, set[str]]:
    """Build the [13]-protected FEOL view; returns ``(view, protected)``."""
    rng = rng_for(seed, "beol-restore", circuit.name)
    layout = base_layout(circuit, seed)
    routing = layout.routing
    chosen = set(select_protected_nets(circuit, routing, fraction))
    for net in chosen:
        routed = routing.nets[net]
        routed.is_key_net = True
        routed.lift_layer = split_layer + 1
    view = split_layout(layout.circuit, routing, split_layer, key_nets=chosen)
    scatter_stubs(view, chosen, layout, rng)

    # Polarity obfuscation: the FEOL cell of some lifted-net drivers is
    # the inverted dual; the true polarity is restored only by the BEOL.
    flipped = []
    for net in sorted(chosen):
        gate = view.gates.get(net)
        if gate is None or gate.is_input or gate.is_dff or gate.is_tie:
            continue
        if gate.gate_type not in INVERTED_DUAL:
            continue
        if rng.random() < OBFUSCATE_FRACTION:
            view.gates[net] = gate.with_type(INVERTED_DUAL[gate.gate_type])
            flipped.append(net)
    view.obfuscated_nets = flipped  # type: ignore[attr-defined]
    return view, chosen


def evaluate_beol_restore(
    circuit: Circuit,
    split_layer: int = 4,
    seed: int = 2019,
    hd_patterns: int = DEFAULT_HD_PATTERNS,
) -> DefenseOutcome:
    """Full [13]-style evaluation on *circuit*."""
    view, protected = apply_beol_restore(circuit, split_layer, seed)
    outcome = evaluate_defense(
        "beol-restore[13]", circuit, view, protected, hd_patterns
    )
    outcome.diagnostics["obfuscated_nets"] = len(
        getattr(view, "obfuscated_nets", [])
    )
    return outcome
