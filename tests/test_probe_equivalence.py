"""The τ₂ probe against a verbatim copy of the probe that always searches.

``reference_probe`` runs every round of rotation search on every
connected prefix before it falls back to the oracle. The package's
``hamiltonicity_probe`` must give the same (verdict, provenance) on
every τ₂ prefix below, whether or not it runs those rounds.
"""

import pytest

from bergeham.engine import NO, UNKNOWN, YES, decide_hamiltonian
from bergeham.generators import binomial, complete, two_cliques_matching
from bergeham.oracle import DEFAULT_GUARD, OracleGuard, exact_hamiltonian
from bergeham.process import (
    TrialConfig,
    hamiltonicity_probe,
    random_process,
    tau_min_degree,
    tau_property,
)
from bergeham.rng import derive_seed


def reference_probe(
    budgets: tuple = (50_000, 200_000),
    seed: int = 0,
    guard: OracleGuard = DEFAULT_GUARD,
    use_oracle: bool = True,
):
    """One-sided Berge-Hamiltonicity probe: rotation engine with escalating
    budgets, then the exact oracle when the prefix fits the guard."""

    def probe(graph, t):
        if graph.n < 3 or graph.num_edges < graph.n:
            return NO, "exact"
        for round_no, budget in enumerate(budgets):
            outcome = decide_hamiltonian(
                graph,
                budget=budget,
                seed=derive_seed(seed, t, round_no),
                fallback=False,
            )
            if outcome.verdict != UNKNOWN:
                return outcome.verdict, outcome.provenance
        if use_oracle and graph.n <= guard.max_n and graph.num_edges <= guard.max_edges:
            cert = exact_hamiltonian(graph, guard)
            return (YES if cert is not None else NO), "oracle"
        return UNKNOWN, "rotation"

    return probe


CONFIG = TrialConfig()


def probes(seed: int):
    """The reference and the package probe as ``run_one_trial`` builds it."""
    kwargs = dict(
        budgets=CONFIG.budgets, seed=derive_seed(seed, 0xB0), guard=CONFIG.oracle_guard
    )
    return reference_probe(**kwargs), hamiltonicity_probe(**kwargs)


def tau2_prefix(H, seed: int):
    proc = random_process(H, seed)
    tau2 = tau_min_degree(proc, 2)
    return proc.prefix(tau2), tau2


def compare(H, seeds, connected_only: bool = False) -> list:
    """Both probes' answers on the τ₂ prefix of each trial seed; asserts
    that they agree and returns the reference's answers."""
    answers = []
    for seed in seeds:
        graph, tau2 = tau2_prefix(H, seed)
        if connected_only and not graph.is_connected:
            continue
        reference, package = probes(seed)
        expected = reference(graph, tau2)
        assert package(graph, tau2) == expected, (H, seed, tau2)
        answers.append(expected)
    return answers


@pytest.mark.parametrize("n", [24, 36])
def test_two_cliques_matching(n):
    H = two_cliques_matching(n, seed=1)
    answers = compare(H, [0xACCE07 ^ i for i in range(24)])
    # every kind of τ₂ prefix occurs: disconnected, bridged and Hamiltonian
    assert {(NO, "rotation"), (UNKNOWN, "rotation"), (YES, "rotation")} <= set(answers)


def test_complete_criterion_05():
    # criterion 05's trials, plus two later ones of the same seed base
    # whose τ₂ prefixes hold an overloaded edge (503) and a twin (2955)
    H = complete(40, 3)
    indices = list(range(200)) + [503, 2955]
    answers = compare(H, [0xACCE05 ^ i for i in indices])
    assert answers.count((YES, "rotation")) >= 200


def test_binomial_small():
    answers = []
    for n in range(6, 11):
        for p in (0.3, 0.5):
            for host_seed in range(4):
                H = binomial(n, 3, p, seed=host_seed)
                if H.min_degree() >= 2:
                    answers += compare(H, range(10), connected_only=True)
    assert (NO, "oracle") in answers and (NO, "exact") in answers


def test_full_tau_bh_search():
    H = two_cliques_matching(24, seed=1)
    for i in range(4):
        seed = 0xACCE07 ^ i
        reference, package = probes(seed)
        expected = tau_property(random_process(H, seed), reference, "binary")
        got = tau_property(random_process(H, seed), package, "binary")
        assert got.to_json() == expected.to_json()


@pytest.fixture
def decide_calls(monkeypatch):
    """Counts the probe's calls of ``decide_hamiltonian``."""
    from bergeham import process

    calls = []

    def counting_decide(*args, **kwargs):
        calls.append(1)
        return decide_hamiltonian(*args, **kwargs)

    monkeypatch.setattr(process, "decide_hamiltonian", counting_decide)
    return calls


def test_no_search_on_a_bridged_prefix(decide_calls):
    # trial 0: the τ₂ prefix is connected and its one matching triple is
    # a bridge, so no round of search can close a Hamilton cycle
    seed = 0xACCE07
    graph, tau2 = tau2_prefix(two_cliques_matching(36, seed=1), seed)
    assert graph.is_connected
    assert probes(seed)[1](graph, tau2) == (UNKNOWN, "rotation")
    assert decide_calls == []


def test_search_runs_exactly_where_no_obstruction(decide_calls):
    from bergeham.berge import obstruction

    H = two_cliques_matching(36, seed=1)
    kinds = []
    for i in range(24):
        seed = 0xACCE07 ^ i
        graph, tau2 = tau2_prefix(H, seed)
        if not graph.is_connected:
            continue
        blocker = obstruction(graph)
        kinds.append(blocker.kind if blocker else None)
        del decide_calls[:]
        probes(seed)[1](graph, tau2)
        assert bool(decide_calls) == (blocker is None), i
    assert "bridge" in kinds and None in kinds
