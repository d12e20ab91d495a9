"""The τ₂ probe against a verbatim copy of the probe that always searches.

``reference_probe`` runs every round of rotation search on every
connected prefix, with the escalating budgets ``run_one_trial`` once
used, before it falls back to the oracle. The package's
``hamiltonicity_probe`` makes one search, or none on an obstructed
prefix, and must give the same (verdict, provenance) on every τ₂ prefix
below.
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
    budgets: tuple = (50_000, 200_000, 800_000),
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
    probe_seed = derive_seed(seed, 0xB0)
    package = hamiltonicity_probe(CONFIG.budget, probe_seed)
    return reference_probe(seed=probe_seed), package


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


def test_prefixes_past_the_first_round():
    # trials 35 and 52 of test_invariants' two_cliques_matching(12) run:
    # the only τ₂ prefixes of the suite where the reference's first round
    # ends unknown, so it searches again with larger budgets
    from bergeham.berge import obstruction

    H = two_cliques_matching(12, seed=0)
    seeds = [99 ^ 35, 99 ^ 52]
    for seed in seeds:
        graph, tau2 = tau2_prefix(H, seed)
        assert graph.is_connected and obstruction(graph) is None
        first = decide_hamiltonian(
            graph, budget=50_000, seed=derive_seed(derive_seed(seed, 0xB0), tau2, 0)
        )
        assert first.verdict == UNKNOWN
    assert compare(H, seeds) == [(UNKNOWN, "rotation")] * 2


def test_unobstructed_prefixes_only_the_oracle_decides():
    # connected prefixes with n edges and no twin, overload or bridge that
    # have no Hamilton cycle, so the search ends unknown and the oracle
    # says no; and a budget of 0, which leaves every prefix to the oracle
    from bergeham.berge import obstruction

    for n, p, seed in ((9, 0.3, 10), (10, 0.5, 17)):
        graph = random_process(binomial(n, 3, p, seed=seed), seed).prefix(n)
        assert graph.is_connected and obstruction(graph) is None
        reference, package = probes(seed)
        assert reference(graph, n) == package(graph, n) == (NO, "oracle")
    K7 = complete(7, 3)
    assert reference_probe(budgets=(0,))(K7, 35) == (YES, "oracle")
    assert hamiltonicity_probe(0)(K7, 35) == (YES, "oracle")


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
    """The outcomes of the probe's calls of ``decide_hamiltonian``."""
    from bergeham import process

    calls = []

    def recording_decide(*args, **kwargs):
        outcome = decide_hamiltonian(*args, **kwargs)
        calls.append(outcome)
        return outcome

    monkeypatch.setattr(process, "decide_hamiltonian", recording_decide)
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


def test_search_keeps_the_first_rounds_seed(decide_calls):
    # τ₂ prefixes whose search closes a Hamilton cycle only from a later
    # start vertex, in the order the seed draws; the one search must find
    # the cycle, with the effort, that the reference's first round found
    cases = [(two_cliques_matching(24, seed=1), 0xACCE07, i) for i in (36, 68)]
    cases.append((complete(40, 3), 0xACCE05, 192))
    for H, seed_base, i in cases:
        seed = seed_base ^ i
        graph, tau2 = tau2_prefix(H, seed)
        del decide_calls[:]
        assert probes(seed)[1](graph, tau2) == (YES, "rotation")
        round_seed = derive_seed(derive_seed(seed, 0xB0), tau2, 0)
        first = decide_hamiltonian(graph, budget=50_000, seed=round_seed)
        assert first.effort["restarts"] > 1
        assert [c.to_json() for c in decide_calls] == [first.to_json()]
