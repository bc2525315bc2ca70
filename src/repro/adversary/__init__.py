"""Adversary scenario engine: composable threat models at campaign scale.

* :mod:`repro.adversary.scenario` — declarative threat-model specs
  (knowledge x objective x engine) and the named registry;
* :mod:`repro.adversary.engine`   — the common ``AttackEngine``
  interface, registry, and all engines (legacy attacks wrapped, plus
  the min-cost network-flow matcher and the learned scorer);
* :mod:`repro.adversary.features` — FEOL feature extraction for
  candidate (source, sink) pairs;
* :mod:`repro.adversary.netflow`  — min-cost max-flow matching on
  canonical tie-broken costs (incremental successive shortest path),
  engine-agnostic over any cost vector;
* :mod:`repro.adversary.learned`  — NumPy-only logistic scorer trained
  on self-generated labeled splits;
* :mod:`repro.adversary.evaluate` — scenario execution and batched
  candidate-hypothesis evaluation on the compiled simulation core.
"""

from repro.adversary.engine import (
    AttackContext,
    AttackEngine,
    engine_names,
    get_engine,
    register_engine,
)
from repro.adversary.evaluate import (
    AttackOutcome,
    grid_verdict,
    implied_key_guess,
    key_accuracy,
    oracle_key_search,
    run_scenario,
)
from repro.adversary.features import (
    FEATURE_NAMES,
    CandidateSet,
    build_candidates,
)
from repro.adversary.learned import (
    LearnedScorer,
    TrainConfig,
    train_scorer,
    trained_scorer,
)
from repro.adversary.netflow import MinCostFlow, flow_assignment
from repro.adversary.scenario import (
    DEFAULT_SCENARIO_NAMES,
    SCENARIOS,
    Scenario,
    default_scenario_names,
    parse_scenario,
)

__all__ = [
    "AttackContext",
    "AttackEngine",
    "AttackOutcome",
    "CandidateSet",
    "DEFAULT_SCENARIO_NAMES",
    "FEATURE_NAMES",
    "LearnedScorer",
    "MinCostFlow",
    "SCENARIOS",
    "Scenario",
    "TrainConfig",
    "build_candidates",
    "default_scenario_names",
    "engine_names",
    "flow_assignment",
    "get_engine",
    "grid_verdict",
    "implied_key_guess",
    "key_accuracy",
    "oracle_key_search",
    "parse_scenario",
    "register_engine",
    "run_scenario",
    "train_scorer",
    "trained_scorer",
]
