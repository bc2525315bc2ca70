"""Outside-in layer spans: wrap the public functions of ``repro`` modules.

Nothing in ``src/`` is instrumented.  :class:`Tracer` replaces each
listed function with a timing wrapper *everywhere it is bound*: modules
import with ``from x import y``, so patching only the defining module
would miss every caller that looked the name up at import time.  The
wrapper is installed in the defining module and in every loaded
``repro`` module that holds the original object; lazy imports made
later read the patched attribute of the defining module.

Each span records inclusive wall time, *self* wall and CPU time (the
span minus the child spans it encloses), calls, and work counts read
from the call's result.  Spans run in one process and one thread (the traced
campaign is serial), so a plain stack gives the nesting.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from dataclasses import dataclass, field
from typing import Any, Callable

#: Modules imported before patching, so every ``from x import y``
#: binding of a traced function already exists and gets replaced.
PRELOAD = (
    "repro.runner",
    "repro.runner.grid",
    "repro.adversary",
    "repro.adversary.engine",
    "repro.adversary.evaluate",
    "repro.adversary.learned",
    "repro.attacks",
    "repro.defense",
    "repro.locking",
    "repro.metrics",
    "repro.phys",
    "repro.synth",
)


def _atpg_counts(result) -> dict[str, float]:
    locked, _report = result
    return {"key_bits": locked.key_length}


def _flow_counts(result) -> dict[str, float]:
    _assignment, diagnostics = result
    return {
        "arcs": diagnostics["flow_arcs"],
        "loop_repairs": diagnostics["loop_repairs"],
        "unmatched": diagnostics["unmatched"],
    }


#: (span name, defining module, attribute path, work counter).  Span
#: names are ``<repro module>.<public function>``; the attribute path
#: may name a method as ``Class.method``.
SPANS: tuple[tuple[str, str, str, Callable[[Any], dict] | None], ...] = (
    ("benchgen.load_cell_circuit", "repro.runner.stages", "load_cell_circuit", None),
    ("locking.atpg_lock", "repro.locking.atpg_lock", "atpg_lock", _atpg_counts),
    ("synth.resynthesize", "repro.synth.resynth", "resynthesize", None),
    ("phys.build_locked_layout", "repro.phys.layout", "build_locked_layout", None),
    (
        "phys.feol_view",
        "repro.phys.layout",
        "PhysicalLayout.feol_view",
        lambda view: {"sink_stubs": len(view.sink_stubs)},
    ),
    ("defense.apply_defense", "repro.defense.engine", "apply_defense", None),
    (
        "adversary.build_candidates",
        "repro.adversary.features",
        "build_candidates",
        lambda candidates: {"pairs": candidates.num_pairs},
    ),
    ("adversary.trained_scorer", "repro.adversary.learned", "trained_scorer", None),
    (
        "adversary.flow_assignment",
        "repro.adversary.netflow",
        "flow_assignment",
        _flow_counts,
    ),
    (
        "adversary.oracle_key_search",
        "repro.adversary.evaluate",
        "oracle_key_search",
        lambda result: {"hypotheses": result[1]["hypotheses"]},
    ),
    ("attacks.proximity_attack", "repro.attacks.proximity", "proximity_attack", None),
    (
        "attacks.random_guess_attack",
        "repro.attacks.random_guess",
        "random_guess_attack",
        None,
    ),
    ("attacks.rebuild_netlist", "repro.attacks.result", "rebuild_netlist", None),
    (
        "attacks.reconnect_key_gates_to_ties",
        "repro.attacks.postprocess",
        "reconnect_key_gates_to_ties",
        None,
    ),
    (
        "metrics.compute_hd_oer",
        "repro.metrics.hd_oer",
        "compute_hd_oer",
        lambda report: {"patterns": report.patterns},
    ),
    ("metrics.compute_ccr", "repro.metrics.ccr", "compute_ccr", None),
)

SPAN_NAMES = tuple(name for name, *_ in SPANS)


@dataclass
class SpanTotals:
    calls: int = 0
    wall_s: float = 0.0
    self_wall_s: float = 0.0
    self_cpu_s: float = 0.0
    counts: dict[str, float] = field(default_factory=dict)


class Tracer:
    """Installs the span wrappers; :meth:`report` returns the totals."""

    def __init__(self) -> None:
        self.totals = {name: SpanTotals() for name in SPAN_NAMES}
        # One frame per open span: [child wall, child cpu].
        self._stack: list[list[float]] = []
        self.top_level_wall_s = 0.0
        self.bindings = 0

    def install(self) -> None:
        for module in PRELOAD:
            importlib.import_module(module)
        for name, module_name, path, counter in SPANS:
            owner = importlib.import_module(module_name)
            *classes, attr = path.split(".")
            for class_name in classes:
                owner = getattr(owner, class_name)
            original = getattr(owner, attr)
            wrapper = self._wrap(name, original, counter)
            setattr(owner, attr, wrapper)
            self.bindings += 1
            if classes:
                continue
            for loaded_name, module in list(sys.modules.items()):
                if not loaded_name.startswith("repro") or module is None:
                    continue
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapper)
                        self.bindings += 1

    def _wrap(self, name: str, original: Callable, counter) -> Callable:
        totals = self.totals[name]
        stack = self._stack

        @functools.wraps(original)
        def span(*args, **kwargs):
            frame = [0.0, 0.0]
            stack.append(frame)
            wall0 = time.perf_counter()
            cpu0 = time.process_time()
            try:
                result = original(*args, **kwargs)
            finally:
                wall = time.perf_counter() - wall0
                cpu = time.process_time() - cpu0
                stack.pop()
                totals.calls += 1
                totals.wall_s += wall
                totals.self_wall_s += wall - frame[0]
                totals.self_cpu_s += cpu - frame[1]
                if stack:
                    stack[-1][0] += wall
                    stack[-1][1] += cpu
                else:
                    self.top_level_wall_s += wall
            if counter is not None:
                for key, value in counter(result).items():
                    totals.counts[key] = totals.counts.get(key, 0) + value
            return result

        return span

    def report(self) -> dict[str, dict[str, Any]]:
        return {
            name: {
                "calls": t.calls,
                "wall_s": t.self_wall_s,
                "cpu_s": t.self_cpu_s,
                "inclusive_wall_s": t.wall_s,
                "counts": dict(t.counts),
            }
            for name, t in self.totals.items()
        }
