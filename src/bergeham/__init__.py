"""Berge Hamiltonicity machinery for random r-uniform hypergraph processes:
hosts and generators, rotation-extension search with certificates, an exact
small-instance oracle, hitting-time trials, and threshold reports."""

from .berge import (
    BergeCycle,
    BergePath,
    RotationClosure,
    endpoint_closure,
    verify_cycle,
    verify_path,
)
from .engine import (
    DecisionOutcome,
    absorption_run,
    connect_components,
    decide_hamiltonian,
    default_d0,
    extract_expander,
    greedy_path,
)
from .generators import (
    GenSpec,
    binomial,
    complete,
    degree_condition_random,
    two_cliques,
    two_cliques_matching,
)
from .hypergraph import (
    CapacityError,
    CheckResult,
    Hypergraph,
    ParseError,
    check_codegree_condition,
    check_min_degree_conditions,
    is_expander,
    parse,
    serialize,
)
from .oracle import (
    OracleGuard,
    exact_hamiltonian,
    exact_is_booster,
    exact_longest_path,
)
from .process import (
    NoHitError,
    SubgraphProcess,
    TrialConfig,
    TrialRecord,
    random_process,
    run_trials,
    tau_min_degree,
    tau_property,
)
from .rng import SplitMix64
from .thresholds import (
    ThresholdReport,
    basic_thresholds,
    decay_bounds_report,
    property_report,
    shifted_thresholds,
    solve_p0,
    threshold_report,
)

__version__ = "0.1.0"

__all__ = [
    "BergeCycle",
    "BergePath",
    "CapacityError",
    "CheckResult",
    "DecisionOutcome",
    "GenSpec",
    "Hypergraph",
    "NoHitError",
    "OracleGuard",
    "ParseError",
    "RotationClosure",
    "SplitMix64",
    "SubgraphProcess",
    "ThresholdReport",
    "TrialConfig",
    "TrialRecord",
    "absorption_run",
    "basic_thresholds",
    "binomial",
    "check_codegree_condition",
    "check_min_degree_conditions",
    "complete",
    "connect_components",
    "decay_bounds_report",
    "decide_hamiltonian",
    "default_d0",
    "degree_condition_random",
    "endpoint_closure",
    "exact_hamiltonian",
    "exact_is_booster",
    "exact_longest_path",
    "extract_expander",
    "greedy_path",
    "is_expander",
    "parse",
    "property_report",
    "random_process",
    "run_trials",
    "serialize",
    "shifted_thresholds",
    "solve_p0",
    "tau_min_degree",
    "tau_property",
    "threshold_report",
    "two_cliques",
    "two_cliques_matching",
    "verify_cycle",
    "verify_path",
]
