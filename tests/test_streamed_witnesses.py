"""Streamed rotation witnesses against the eager harvest they replaced.

``eager_witnesses`` is ``engine._witnesses`` as it was when each
rotation closure ran to its end (``endpoint_closure``) before its first
witness was tried, with its ``_closure`` helper inlined. Patched into
``engine``, it gives the search the same witnesses in the same order;
only the rotations spent after a winning witness differ. So at an
unbounded budget the package and the reference must agree on every
verdict, certificate, best length and absorption trace, while the
package rotates no more.

At a budget that binds, spending fewer rotations may turn an
``unknown`` into a certified ``yes``, and should change no other
verdict; the sweep below checks that on 90 budget-bound runs.
"""

import pytest

from bergeham import engine
from bergeham.berge import endpoint_closure, verify_cycle
from bergeham.engine import (
    UNKNOWN,
    YES,
    _Budget,
    absorption_run,
    decide_hamiltonian,
    greedy_path,
)
from bergeham.generators import binomial, complete, two_cliques_matching
from bergeham.process import random_process, tau_min_degree
from bergeham.rng import derive_seed

UNBOUNDED = 10**15


def eager_witnesses(H, path, budget):
    """Endpoint-pair witnesses of ``path``, lazily: the rotation closure at
    its tip (always run), then, while the budget lasts, the closure at the
    other end of each tip witness. All share the vertex set of ``path``."""

    def closure(start):
        budget.closures += 1
        remaining = max(0, budget.limit - budget.used)
        done = endpoint_closure(H, start, budget=remaining)
        budget.rotations += done.rotations_applied
        return done

    tip = closure(path).paths.values()
    yield from tip
    for cand in tip:
        if budget.exhausted:
            return
        yield from closure(cand.reverse()).paths.values()


@pytest.fixture
def eager():
    """Runs a callable with ``eager_witnesses`` patched into the engine."""

    def run(fn, *args, **kwargs):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(engine, "_witnesses", eager_witnesses)
            return fn(*args, **kwargs)

    return run


def tau2_prefix(H, seed: int):
    proc = random_process(H, seed)
    return proc.prefix(tau_min_degree(proc, 2))


def same_decision(got, want) -> None:
    """Everything but the effort agrees, and the package rotated no more."""
    assert got.verdict == want.verdict
    assert got.certificate == want.certificate
    assert got.provenance == want.provenance
    assert got.best_length == want.best_length
    assert got.effort["rotations"] <= want.effort["rotations"]


def probe_prefixes():
    """The τ₂ prefixes of the probe equivalence tests."""
    for n in (24, 36):
        H = two_cliques_matching(n, seed=1)
        for i in range(24):
            yield tau2_prefix(H, 0xACCE07 ^ i)
    H = complete(40, 3)
    for i in list(range(0, 200, 4)) + [192, 503, 2955]:
        yield tau2_prefix(H, 0xACCE05 ^ i)
    for n in range(6, 11):
        for p in (0.3, 0.5):
            for host_seed in range(4):
                H = binomial(n, 3, p, seed=host_seed)
                if H.min_degree() >= 2:
                    for seed in range(0, 10, 3):
                        yield tau2_prefix(H, seed)


def test_decide_matches_eager_at_unbounded_budget(eager):
    verdicts = []
    saved = 0
    for graph in probe_prefixes():
        if graph.n < 3 or not graph.is_connected:
            continue
        seed = graph.num_edges
        got = decide_hamiltonian(graph, budget=UNBOUNDED, seed=seed)
        want = eager(decide_hamiltonian, graph, budget=UNBOUNDED, seed=seed)
        same_decision(got, want)
        verdicts.append(want.verdict)
        saved += want.effort["rotations"] - got.effort["rotations"]
    assert verdicts.count(YES) > 50 and UNKNOWN in verdicts
    assert saved > 0


def absorb_hosts():
    """The hosts of the absorption step's reference test."""
    hosts = [two_cliques_matching(24, seed=1), complete(12, 3)]
    for n in range(12, 17):
        for p in (0.1, 0.2):
            found = [binomial(n, 3, p, seed=s) for s in range(12)]
            hosts += [H for H in found if H.is_connected][:2]
    return hosts


def test_absorption_matches_eager_at_unbounded_budget(eager):
    runs = []
    for G in absorb_hosts():
        for d0 in (1, 2, 4):
            for seed in range(2):
                runs.append((G, d0, seed))
    G = two_cliques_matching(36, seed=1)
    runs += [(G, None, derive_seed(0xAB50, i)) for i in (3, 10, 14, 38)]
    absorbed = 0
    for G, d0, seed in runs:
        got, got_trace = absorption_run(G, d0=d0, budget=UNBOUNDED, seed=seed)
        want, want_trace = eager(
            absorption_run, G, d0=d0, budget=UNBOUNDED, seed=seed
        )
        same_decision(got, want)
        assert got_trace == want_trace
        absorbed += sum(t["event"] == "absorb" for t in want_trace)
    assert absorbed > 50


def test_witness_stream_matches_eager_witnesses():
    # drained to the end, the stream does exactly the eager harvest's
    # rotations; stopped after k witnesses, it has done no more
    compared = 0
    for H in (two_cliques_matching(24, seed=1), binomial(12, 3, 0.3, seed=1)):
        for start in (0, H.n // 2):
            path = greedy_path(H, start)
            total = sum(1 for _ in eager_witnesses(H, path, _Budget(UNBOUNDED)))
            for limit in (0, 1, 7, 60, UNBOUNDED):
                want_budget = _Budget(limit)
                want = list(eager_witnesses(H, path, want_budget))
                got_budget = _Budget(limit)
                assert list(engine._witnesses(H, path, got_budget)) == want
                assert got_budget.effort() == want_budget.effort()
                for k in range(1, min(total, 40)):
                    partial = _Budget(limit)
                    stream = engine._witnesses(H, path, partial)
                    got = [next(stream) for _ in range(min(k, len(want)))]
                    assert got == want[:k]
                    assert partial.rotations <= want_budget.rotations
                    compared += 1
    assert compared > 100


# -- the declared verdict change at a budget that binds -----------------------


def test_budget_bound_unknown_becomes_yes(eager):
    # the eager harvest spends its 50 rotations on closures the streamed
    # one leaves once a witness wins, and ends unknown
    graph = tau2_prefix(complete(40, 3), derive_seed(11, 0))
    want = eager(decide_hamiltonian, graph, budget=50, seed=0)
    got = decide_hamiltonian(graph, budget=50, seed=0)
    assert want.verdict == UNKNOWN
    assert got.verdict == YES and got.provenance == "rotation"
    assert len(got.certificate) == graph.n
    assert verify_cycle(graph, got.certificate)


def test_budget_bound_verdicts_only_gain_yes(eager):
    # streamed verdicts differ from eager ones only by unknown -> yes,
    # and a yes of both carries the same certificate
    H = complete(40, 3)
    pairs = {}
    for i in range(30):
        graph = tau2_prefix(H, derive_seed(11, i))
        for budget in (50, 200, 1000):
            want = eager(decide_hamiltonian, graph, budget=budget, seed=0)
            got = decide_hamiltonian(graph, budget=budget, seed=0)
            pair = (want.verdict, got.verdict)
            pairs[pair] = pairs.get(pair, 0) + 1
            if pair == (YES, YES):
                assert got.certificate == want.certificate
    assert set(pairs) <= {(UNKNOWN, YES), (UNKNOWN, UNKNOWN), (YES, YES)}
    assert pairs == {(UNKNOWN, YES): 56, (UNKNOWN, UNKNOWN): 24, (YES, YES): 10}
