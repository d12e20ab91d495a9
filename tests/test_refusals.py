"""Argument checks that only a bad call reaches.

Each entry calls one public function with arguments its contract refuses
and names the error it must raise. The ``match`` pins the one check that
refuses, so a call that fails later, elsewhere, for another reason does
not pass.
"""

import pytest

from bergeham.generators import GenSpec, binomial, complete, two_cliques
from bergeham.hypergraph import (
    Hypergraph,
    check_codegree_condition,
    check_min_degree_conditions,
    is_expander,
)
from bergeham.process import (
    SubgraphProcess,
    TrialConfig,
    predicate_probe,
    run_trials,
    tau_property,
)
from bergeham.rng import SplitMix64
from bergeham.thresholds import (
    basic_thresholds,
    decay_bounds_report,
    property_report,
    solve_p0,
)

K5 = complete(5, 3)
PAIR = Hypergraph(2, 2, [(0, 1)])  # two vertices: below every n >= 3 check


def process_on_k5():
    return SubgraphProcess(K5, range(K5.num_edges))


REFUSALS = [
    ("hypergraph-no-vertex", lambda: Hypergraph(0, 3, []), "at least one vertex"),
    ("hypergraph-r-1", lambda: Hypergraph(4, 1, []), "uniformity must be at least 2"),
    ("two-cliques-side-below-r", lambda: two_cliques(4, 3), "each side needs"),
    ("binomial-n-below-r", lambda: binomial(2, 3, 0.5), "need n >= r >= 2"),
    ("binomial-p-negative", lambda: binomial(5, 3, -0.1), "p must be in"),
    ("binomial-p-above-1", lambda: binomial(5, 3, 1.5), "p must be in"),
    ("spec-matching-r-4",
     lambda: GenSpec("two_cliques_matching", 12, r=4).build(), "3-graph family"),
    ("spec-degree-random-no-eps",
     lambda: GenSpec("degree_condition_random", 12).build(), "requires eps"),
    ("expander-k-0", lambda: is_expander(K5, 0, 2.0), "k must be in"),
    ("expander-k-above-n", lambda: is_expander(K5, 6, 2.0), "k must be in"),
    ("expander-alpha-0", lambda: is_expander(K5, 1, 0.0), "alpha must be positive"),
    ("codegree-eps-0", lambda: check_codegree_condition(K5, 0.0), "eps must be in"),
    ("codegree-eps-1", lambda: check_codegree_condition(K5, 1.0), "eps must be in"),
    ("min-degree-eps-0", lambda: check_min_degree_conditions(K5, 0.0),
     "eps must be in"),
    ("min-degree-eps-1", lambda: check_min_degree_conditions(K5, 1.0),
     "eps must be in"),
    ("prefix-negative", lambda: process_on_k5().prefix(-1), "out of range"),
    ("prefix-past-n", lambda: process_on_k5().prefix(K5.num_edges + 1), "out of range"),
    ("tau-unknown-strategy",
     lambda: tau_property(process_on_k5(), predicate_probe(bool), "gallop"),
     "strategy must be"),
    ("trials-0", lambda: run_trials(K5, 0, 1, TrialConfig()), "at least one trial"),
    ("below-0", lambda: SplitMix64(1).below(0), "bound must be positive"),
    ("choose-too-many", lambda: SplitMix64(1).choose([1, 2], 3), "cannot choose"),
    ("choose-negative", lambda: SplitMix64(1).choose([1, 2], -1), "cannot choose"),
    ("basic-n-2", lambda: basic_thresholds(PAIR, 0.3), "need n >= 3"),
    ("basic-eps-0", lambda: basic_thresholds(K5, 0.0), "eps must be in"),
    ("basic-eps-1", lambda: basic_thresholds(K5, 1.0), "eps must be in"),
    ("p0-tol-0", lambda: solve_p0(K5, tol=0.0), "tol must be positive"),
    ("p0-n-2", lambda: solve_p0(PAIR), "need n >= 3"),
    ("decay-p3-negative", lambda: decay_bounds_report(K5, 0.3, -0.1, 0.5, 1.0),
     "p3 and p4"),
    ("decay-p4-above-1", lambda: decay_bounds_report(K5, 0.3, 0.1, 1.5, 1.0),
     "p3 and p4"),
    ("props-eps-0", lambda: property_report(K5, 0.0), "eps must be in"),
    ("props-eps-1", lambda: property_report(K5, 1.0), "eps must be in"),
    ("props-unknown-mode", lambda: property_report(K5, 0.3, mode="bogus"),
     "mode must be"),
]


@pytest.mark.parametrize(
    "call,message", [r[1:] for r in REFUSALS], ids=[r[0] for r in REFUSALS]
)
def test_refused(call, message):
    with pytest.raises(ValueError, match=message):
        call()
