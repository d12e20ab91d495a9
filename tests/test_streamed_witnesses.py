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

The absorption step streams its witnesses too. ``draining_absorb_step``
is that step as it was when it drained them with ``list(...)`` before
trying the first; the streamed step must absorb the same edges at the
same witness and rotate no more.
"""

import json

import pytest

from bergeham import engine
from bergeham.berge import (
    Budget,
    certify,
    close_with,
    endpoint_closure,
    rotated,
    verify_cycle,
)
from bergeham.engine import (
    DEFAULT_BUDGET,
    UNKNOWN,
    YES,
    _absorbed,
    _booster_candidates,
    _spans_or_reopen,
    _try_endpoint,
    absorption_run,
    decide_hamiltonian,
    greedy_path,
)
from bergeham.hypergraph import Hypergraph
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


def absorb_runs():
    """(host, d0, seed) of the absorption tests: the hosts above, and
    absorb-trap seeds of which one (38) tests thousands of pairs."""
    runs = [
        (G, d0, seed) for G in absorb_hosts() for d0 in (1, 2, 4) for seed in (0, 1)
    ]
    G = two_cliques_matching(36, seed=1)
    return runs + [(G, None, derive_seed(0xAB50, i)) for i in (3, 10, 14, 38)]


def test_absorption_matches_eager_at_unbounded_budget(eager):
    absorbed = 0
    for G, d0, seed in absorb_runs():
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
            total = sum(1 for _ in eager_witnesses(H, path, Budget(UNBOUNDED)))
            for limit in (0, 1, 7, 60, UNBOUNDED):
                want_budget = Budget(limit)
                want = list(eager_witnesses(H, path, want_budget))
                got_budget = Budget(limit)
                assert list(engine._witnesses(H, path, got_budget)) == want
                assert got_budget.effort() == want_budget.effort()
                for k in range(1, min(total, 40)):
                    partial = Budget(limit)
                    stream = engine._witnesses(H, path, partial)
                    got = [next(stream) for _ in range(min(k, len(want)))]
                    assert got == want[:k]
                    assert partial.rotations <= want_budget.rotations
                    compared += 1
    assert compared > 100


# -- the absorption step's stream -------------------------------------------


def draining_absorb_step(G, gamma, path, tracker, trace, step):
    """Verbatim copy of ``engine._absorb_step`` as it was when it drained
    every witness with ``list(...)``, docstring aside."""
    on_path = set(path.vertices)
    for witness in list(engine._witnesses(gamma, path, tracker)):
        s, t = witness.first, witness.last
        cands_t = _booster_candidates(G, gamma, t)
        # single-edge absorption: extend at the tip or close through both ends
        for edge in cands_t:
            if s in edge or not on_path.issuperset(edge):
                gamma2 = Hypergraph(G.n, G.r, list(gamma.edges) + [edge])
                won = _try_endpoint(gamma2, witness, tracker, on_path)
                return _absorbed(trace, step, [edge], gamma2, *won)
        # paired absorption: rotate with e_t, then close with e_s
        cands_s = _booster_candidates(G, gamma, s)
        pos = {v: j for j, v in enumerate(witness.vertices)}
        pivots_t = [{pos[v] for v in e_t if v in pos} for e_t in cands_t]
        for e_s in cands_s:
            if tracker.exhausted:
                return None
            pivots_s = {pos[v] - 1 for v in e_s if v in pos}
            pivots_s.discard(-1)  # e_s holds s = v_0, which follows no pivot
            if not pivots_s:
                continue
            for e_t, pivots in zip(cands_t, pivots_t):
                if e_t == e_s:
                    continue
                tracker.extensions += 1
                if pivots_s.isdisjoint(pivots):
                    continue
                gamma2 = Hypergraph(G.n, G.r, list(gamma.edges) + [e_s, e_t])
                j = min(pivots_s & pivots)
                m = gamma2.num_edges  # e_s and e_t hold the last two edge ids
                cycle = certify(gamma2, close_with(rotated(witness, m - 1, j), m - 2))
                won = _spans_or_reopen(gamma2, cycle)
                return _absorbed(trace, step, [e_s, e_t], gamma2, *won)
    return None


def without_effort(outcome) -> str:
    payload = outcome.to_json()
    payload.pop("effort")
    return json.dumps(payload, sort_keys=True)


def test_absorption_step_matches_draining_copy_at_default_budget():
    saved = absorbed = 0
    for G, d0, seed in absorb_runs():
        got, got_trace = absorption_run(G, d0=d0, seed=seed)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(engine, "_absorb_step", draining_absorb_step)
            want, want_trace = absorption_run(G, d0=d0, seed=seed)
        assert without_effort(got) == without_effort(want)
        assert got_trace == want_trace
        assert got.effort["rotations"] <= want.effort["rotations"]
        saved += want.effort["rotations"] - got.effort["rotations"]
        absorbed += sum(t["event"] == "absorb" for t in want_trace)
    assert absorbed > 50 and saved > 0


def test_absorption_step_rotations_on_golden_tcm36():
    # golden ``absorb TCM36 --seed 9494955178128197401``: each step
    # absorbs at its first witness, so the rest of its closures go, and
    # its gamma has a bridge, so no search rotates its spanning path
    G = two_cliques_matching(36, seed=1)
    seed = 9494955178128197401
    got, _ = absorption_run(G, seed=seed)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(engine, "_absorb_step", draining_absorb_step)
        want, _ = absorption_run(G, seed=seed)
    assert got.verdict == want.verdict == YES
    assert without_effort(got) == without_effort(want)
    assert (want.effort["rotations"], got.effort["rotations"]) == (2710, 3)
    assert got.effort["extensions"] == want.effort["extensions"] == 16949


def test_absorption_step_pulls_no_witness_past_its_absorption():
    """The step stops pulling witnesses at the one it absorbs at: that
    witness alone gives the step's result, and the witnesses pulled
    before it give none."""
    step, witnesses = engine._absorb_step, engine._witnesses
    pulled = []

    def recording(H, path, budget):
        for witness in witnesses(H, path, budget):
            pulled.append(witness)
            yield witness

    def replaying(chosen):
        return lambda H, path, budget: iter(chosen)

    checked = 0

    def checked_step(G, gamma, path, tracker, trace, step_no):
        nonlocal checked
        pulled.clear()
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(engine, "_witnesses", recording)
            result = step(G, gamma, path, tracker, trace, step_no)
            if result is None:
                return None
            before, last = pulled[:-1], pulled[-1:]
            mp.setattr(engine, "_witnesses", replaying(before))
            assert step(G, gamma, path, Budget(), [], step_no) is None
            mp.setattr(engine, "_witnesses", replaying(last))
            again = []
            assert step(G, gamma, path, Budget(), again, step_no) == result
            assert again == trace[-1:]
        checked += 1
        return result

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(engine, "_absorb_step", checked_step)
        for G, d0, seed in absorb_runs():
            absorption_run(G, d0=d0, seed=seed)
    assert checked > 50


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
