from typing import Optional, Tuple

import pytest

from bergeham import engine
from bergeham.berge import (
    BergeCycle,
    BergePath,
    Budget,
    CertificateError,
    Obstruction,
    reopen_cycle,
    verify_cycle,
    verify_path,
)
from bergeham.engine import (
    DEFAULT_BUDGET,
    _booster_candidates,
    _try_endpoint,
    _witnesses,
    absorption_run,
    connect_components,
    decide_hamiltonian,
    default_d0,
    extract_expander,
)
from bergeham.generators import binomial, complete, two_cliques, two_cliques_matching
from bergeham.hypergraph import Hypergraph
from bergeham.oracle import exact_hamiltonian, exact_is_booster, exact_longest_path
from bergeham.rng import SplitMix64, derive_seed


class TestDecideHamiltonian:
    def test_complete_7_yes_with_certificate(self):
        H = complete(7, 3)
        out = decide_hamiltonian(H)
        assert out.verdict == "yes"
        assert out.provenance == "rotation"
        assert verify_cycle(H, out.certificate)
        assert len(out.certificate) == 7

    def test_complete_4_yes(self):
        out = decide_hamiltonian(complete(4, 3))
        assert out.verdict == "yes"
        assert len(out.certificate) == 4

    def test_two_cliques_no_via_disconnection(self):
        out = decide_hamiltonian(two_cliques(8, 3), fallback=True)
        assert out.verdict == "no"

    def test_small_n_rejected(self):
        with pytest.raises(ValueError):
            decide_hamiltonian(Hypergraph(2, 2, [(0, 1)]))

    def test_deterministic_given_seed(self):
        H = binomial(12, 3, 0.12, seed=3)
        if not H.is_connected:
            pytest.skip("fixture host must be connected")
        a = decide_hamiltonian(H, budget=5000, seed=42)
        b = decide_hamiltonian(H, budget=5000, seed=42)
        assert a.verdict == b.verdict
        assert a.effort == b.effort
        assert a.certificate == b.certificate

    def test_budget_zero_is_unknown_on_connected_host(self):
        out = decide_hamiltonian(complete(6, 3), budget=0)
        assert out.verdict == "unknown"

    def test_oracle_fallback_decides_small_hosts(self):
        # sparse connected host the engine may not crack: fallback must match
        for seed in range(12):
            H = binomial(7, 3, 0.15, seed=seed)
            out = decide_hamiltonian(H, budget=2000, fallback=True)
            expected = exact_hamiltonian(H)
            if out.verdict == "yes":
                assert verify_cycle(H, out.certificate)
                assert expected is not None
            elif out.verdict == "no":
                assert expected is None

    def test_sound_against_oracle(self):
        hits = 0
        for seed in range(40):
            H = binomial(8, 3, 0.3, seed=seed)
            out = decide_hamiltonian(H)
            if out.verdict == "yes":
                hits += 1
                assert verify_cycle(H, out.certificate)
                assert exact_hamiltonian(H) is not None
        assert hits > 0


def tau2_prefix(n: int, seed: int) -> Hypergraph:
    """Distinct uniform triples on n vertices, drawn until every vertex has
    degree 2: the tau_2 prefix of a random ordering of complete(n, 3)."""
    rng = SplitMix64(seed)
    edges, seen = [], set()
    degree = [0] * n
    short = n  # vertices of degree below 2
    while short:
        e = tuple(sorted({rng.below(n), rng.below(n), rng.below(n)}))
        if len(e) < 3 or e in seen:
            continue
        seen.add(e)
        edges.append(e)
        for v in e:
            degree[v] += 1
            short -= degree[v] == 2
    return Hypergraph(n, 3, edges)


class TestLargeN:
    def test_tau2_prefix_at_n_1000(self):
        H = tau2_prefix(1000, seed=1)
        assert (H.num_edges, H.min_degree()) == (3715, 2)
        out = decide_hamiltonian(H)
        assert out.verdict == "yes"
        assert verify_cycle(H, out.certificate)
        assert len(out.certificate) == 1000
        assert out.effort == {
            "rotations": 682,
            "extensions": 999,
            "closures": 61,
            "restarts": 1,
        }


class TestExtractExpander:
    def test_d0_above_max_degree_keeps_everything(self):
        H = complete(7, 3)
        assert extract_expander(H, d0=50, seed=1) == H

    def test_star_like_with_d0_one(self):
        H = Hypergraph(7, 3, [(0, 1, 2), (0, 3, 4), (0, 5, 6)])
        gamma = extract_expander(H, d0=1, seed=2)
        # vertex 0 keeps one edge; every other vertex keeps its only edge
        assert gamma.num_edges == 3

    def test_size_and_degree_bounds(self):
        H = complete(30, 3)
        gamma = extract_expander(H, d0=5, seed=7)
        assert gamma.num_edges <= 30 * 5
        assert gamma.min_degree() >= 5

    def test_deterministic(self):
        H = complete(12, 3)
        assert extract_expander(H, 3, seed=5) == extract_expander(H, 3, seed=5)

    def test_d0_validation(self):
        with pytest.raises(ValueError):
            extract_expander(complete(5, 3), 0)

    def test_default_d0_floor(self):
        assert default_d0(40, 0.1) == 2


def reference_connect_components(G, gamma):
    """Verbatim copy of ``connect_components`` as it was when it built a
    graph for every crossing edge it added."""
    added = []
    current = gamma
    while not current.is_connected:
        comp = set(current.components[0])
        crossing = None
        for e in G.edges:
            inside = sum(1 for v in e if v in comp)
            if 0 < inside < len(e) and not current.has_edge(e):
                crossing = e
                break
        if crossing is None:
            rest = tuple(v for v in range(G.n) if v not in comp)
            return engine.ConnectOutcome(
                current,
                connected=False,
                added=tuple(added),
                obstruction=(tuple(sorted(comp)), rest),
            )
        added.append(crossing)
        current = Hypergraph(G.n, G.r, list(current.edges) + [crossing])
    return engine.ConnectOutcome(current, connected=True, added=tuple(added))


class TestConnectComponents:
    def test_matches_reference(self):
        # gammas as absorption_run extracts them (mostly connected already)
        # and random edge subsets (split into many parts); the disconnected
        # hosts end with an obstruction, often after some joins
        hosts = [complete(9, 3), complete(12, 3), complete(8, 4)]
        hosts += [two_cliques(8, 3), two_cliques(10, 3), two_cliques(12, 4)]
        hosts += [two_cliques_matching(n, seed=1) for n in (12, 24, 36)]
        sparse = [(16, 0.04, 0), (20, 0.02, 0), (30, 0.008, 1), (40, 0.004, 2)]
        sparse += [(40, 0.006, 1), (14, 0.15, 4), (20, 0.1, 8), (24, 0.015, 1)]
        sparse.append((12, 0.3, 2))
        hosts += [binomial(n, 3, p, seed=s) for n, p, s in sparse]
        joins = obstructed_after_joins = 0
        for G in hosts:
            for d0 in (1, 2, 3):
                for seed in range(20):
                    ids = SplitMix64(seed).choose(range(G.num_edges), G.n // (d0 + 1))
                    random_part = G.subgraph(sorted(ids))
                    for gamma in (extract_expander(G, d0, seed), random_part):
                        got = connect_components(G, gamma)
                        want = reference_connect_components(G, gamma)
                        assert got == want, (G, d0, seed)
                        joins += len(got.added) > 1
                        obstructed_after_joins += bool(got.added) and not got.connected
        assert joins > 700 and obstructed_after_joins > 300

    def test_connected_gamma_unchanged(self):
        H = complete(6, 3)
        gamma = extract_expander(H, 3, seed=1)
        out = connect_components(H, gamma)
        assert out.connected
        assert out.added == ()
        assert out.graph == gamma

    def test_two_parts_joined_by_one_edge(self):
        H = complete(9, 3)
        gamma = Hypergraph(9, 3, [(0, 1, 2), (2, 3, 4), (5, 6, 7), (6, 7, 8)])
        assert len(gamma.components) == 2
        out = connect_components(H, gamma)
        assert out.connected
        assert len(out.added) == 1
        assert H.has_edge(out.added[0])

    def test_three_parts_joined_by_two_edges(self):
        H = complete(9, 3)
        gamma = Hypergraph(9, 3, [(0, 1, 2), (3, 4, 5), (6, 7, 8)])
        out = connect_components(H, gamma)
        assert out.connected
        assert len(out.added) == 2
        for e in out.added:
            assert H.has_edge(e)

    def test_obstruction_reported(self):
        G = two_cliques(8, 3)
        out = connect_components(G, G)
        assert not out.connected
        U, W = out.obstruction
        assert sorted(U + W) == list(range(8))


class TestAbsorptionRun:
    def test_complete_20_yes_with_short_trace(self):
        G = complete(20, 3)
        outcome, trace = absorption_run(G, d0=8, budget=500_000, seed=3)
        assert outcome.verdict == "yes"
        assert verify_cycle(G, outcome.certificate)
        absorbed = [t for t in trace if t["event"] == "absorb"]
        assert len(absorbed) <= G.n

    def test_disconnected_no(self):
        outcome, trace = absorption_run(two_cliques(8, 3), d0=3, budget=1000, seed=1)
        assert outcome.verdict == "no"

    def test_budget_zero_unknown_empty_trace(self):
        outcome, trace = absorption_run(complete(8, 3), d0=3, budget=0, seed=1)
        assert outcome.verdict == "unknown"
        assert trace == []

    def test_absorbed_edges_come_from_outside_gamma(self):
        for seed in range(4):
            G = binomial(14, 3, 0.25, seed=seed)
            if not G.is_connected:
                continue
            outcome, trace = absorption_run(G, d0=2, budget=300_000, seed=seed)
            gamma_sizes = []
            for entry in trace:
                if entry["event"] == "absorb":
                    assert entry["arity"] in (1, 2)
                    for e in entry["added"]:
                        assert G.has_edge(e)
                    gamma_sizes.append(entry["gamma_edges"])
            if outcome.verdict == "yes":
                assert len(outcome.certificate) == G.n

    def test_certificate_verifies_in_host(self):
        G = complete(12, 3)
        outcome, trace = absorption_run(G, d0=4, budget=300_000, seed=9)
        assert outcome.verdict == "yes"
        assert verify_cycle(G, outcome.certificate)
        assert len(outcome.certificate) == 12

    def test_paired_absorption_occurs_and_wins(self):
        # frozen host where a single added edge is not enough at some step
        G = binomial(15, 3, 0.2, seed=112)
        assert G.is_connected
        outcome, trace = absorption_run(G, d0=1, budget=200_000, seed=1)
        arities = [t["arity"] for t in trace if t["event"] == "absorb"]
        assert 2 in arities
        assert outcome.verdict == "yes"
        assert verify_cycle(G, outcome.certificate)


class TestBudgetStop:
    @staticmethod
    def _traced_run(monkeypatch, G, d0, seed, budget):
        """absorption_run with each search's (stop, refused, spans) and
        each absorption step's number recorded."""
        stops, steps = [], []
        search, absorb_step = engine._search, engine._absorb_step

        def traced_search(H, path, tracker, *blocked):
            cycle, last, stop = search(H, path, tracker, *blocked)
            stops.append((stop, tracker.refused, len(last) == H.n))
            return cycle, last, stop

        def traced_step(*args):
            steps.append(args[-1])
            return absorb_step(*args)

        monkeypatch.setattr(engine, "_search", traced_search)
        monkeypatch.setattr(engine, "_absorb_step", traced_step)
        outcome, _ = absorption_run(G, d0=d0, budget=budget, seed=seed)
        return outcome, stops, steps

    @pytest.mark.parametrize(
        "host,d0,seed,budget,spans",
        [
            # the stream that should close a spanning path in a gamma with
            # no obstruction is refused at the limit
            ("complete(10,3)", 1, 0, 10, True),
            # the stream that should lengthen a 9-vertex path is refused
            ("binomial(12,3,0.06,seed=6)", 1, 0, 10, False),
        ],
    )
    def test_refused_stream_ends_the_run(
        self, monkeypatch, host, d0, seed, budget, spans
    ):
        """A search whose rotation stream the budget refuses stops with
        BUDGET, whether its path spans or not, and absorption_run then runs
        no absorption step, so it spends no more than its budget."""
        G = {
            "complete(10,3)": complete(10, 3),
            "binomial(12,3,0.06,seed=6)": binomial(12, 3, 0.06, seed=6),
        }[host]
        outcome, stops, steps = self._traced_run(monkeypatch, G, d0, seed, budget)
        assert stops == [(engine.BUDGET, True, spans)]
        assert steps == []
        assert outcome.verdict == "unknown"
        assert outcome.effort["rotations"] + outcome.effort["extensions"] == budget

    def test_spanning_path_of_obstructed_gamma_goes_to_absorption(self, monkeypatch):
        """Golden ``absorb B12 --seed 6 --budget 20``: gamma has a bridge,
        so the search rotates no spanning path and stops with
        SPANNING_UNCLOSABLE within budget; the absorption step spends the
        rest and ends the run at the limit."""
        G = binomial(12, 3, 0.06, seed=6)
        outcome, stops, steps = self._traced_run(monkeypatch, G, None, 6, 20)
        assert stops == [(engine.SPANNING_UNCLOSABLE, False, True)]
        assert steps == [0]
        assert outcome.verdict == "unknown"
        assert outcome.effort["rotations"] + outcome.effort["extensions"] == 20


class TestHigherUniformity:
    def test_decide_complete_4_graph(self):
        H = complete(8, 4)
        out = decide_hamiltonian(H)
        assert out.verdict == "yes"
        assert verify_cycle(H, out.certificate)
        assert len(out.certificate) == 8

    def test_oracle_complete_4_graph(self):
        H = complete(6, 4)
        cert = exact_hamiltonian(H)
        assert cert is not None and len(cert) == 6


# The absorption step before candidate pairs were decided by their pivot
# sets, kept verbatim as the reference: it builds gamma plus both edges
# for every candidate pair and lets _pair_boost judge it. The three
# helpers below are verbatim copies of the engine's own before pair
# absorption became a rotation plus a closing step. Only two things
# changed since, so that the two spend the same budget and their effort
# can be compared: its witness loop streams the witnesses, as the
# engine does, and its pair scan tests no pair once the budget is spent.
def _pair_boost(
    gamma_plus: Hypergraph, path_vertices: tuple, path_edges: tuple, n: int
) -> Tuple[Optional[BergeCycle], Optional[BergePath]]:
    """Given gamma plus the two candidate edges appended at the end,
    rebuild the covering cycle and reopen it (or report it spanning).
    The candidates occupy the last two edge ids."""
    e_s = gamma_plus.num_edges - 2  # contains first and vertices[j+1]
    e_t = gamma_plus.num_edges - 1  # contains last and vertices[j]
    es_edge = gamma_plus.edges[e_s]
    et_edge = gamma_plus.edges[e_t]
    ell = len(path_vertices)
    for j in range(ell - 1):
        if path_vertices[j + 1] in es_edge and path_vertices[j] in et_edge:
            vs = path_vertices[: j + 1] + path_vertices[: j : -1]
            es = path_edges[:j] + (e_t,) + path_edges[: j : -1] + (e_s,)
            cycle = BergeCycle(vs, es)
            if verify_cycle(gamma_plus, cycle):
                if len(cycle) == n:
                    return cycle, None
                reopened = reopen_cycle(gamma_plus, cycle)
                if reopened is not None:
                    return None, reopened
    return None, None


def _absorb_entry(step, edges, new_length, gamma2):
    return {
        "event": "absorb",
        "step": step,
        "added": [list(e) for e in edges],
        "arity": len(edges),
        "new_length": new_length,
        "gamma_edges": gamma2.num_edges,
    }


def _cycle_as_path(cycle: BergeCycle) -> BergePath:
    """Spanning cycle found mid-absorption: keep it as a path so the main
    loop re-closes it inside the updated graph."""
    return BergePath(cycle.vertices, cycle.edge_ids[:-1])


def reference_absorb_step(G, gamma, path, tracker, trace, step):
    """Find host edges outside gamma that improve the stuck path, scanning
    endpoint pairs from rotation closures at both ends. Returns the new
    (gamma, path) or None when nothing improves."""
    target = len(path)
    on_path = set(path.vertices)
    for witness in _witnesses(gamma, path, tracker):
        s, t = witness.first, witness.last
        cands_t = _booster_candidates(G, gamma, t)
        # single-edge absorption: extend at the tip or close through both ends
        for edge in cands_t:
            extends = any(v not in on_path for v in edge)
            closes = s in edge
            if not (extends or closes):
                continue
            gamma2 = Hypergraph(G.n, G.r, list(gamma.edges) + [edge])
            cycle, better = _try_endpoint(gamma2, witness, tracker, on_path)
            if cycle is not None:
                trace.append(_absorb_entry(step, [edge], len(cycle), gamma2))
                return gamma2, _cycle_as_path(cycle)
            if better is not None and len(better) > target:
                trace.append(_absorb_entry(step, [edge], len(better), gamma2))
                return gamma2, better
        # paired absorption: one edge at each endpoint, covering a
        # consecutive path pair so the path closes into a cycle
        cands_s = _booster_candidates(G, gamma, s)
        vs = witness.vertices
        for e_s in cands_s:
            if tracker.exhausted:
                return None
            hits_s = set(e_s)
            if not any(vs[j + 1] in hits_s for j in range(len(vs) - 1)):
                continue
            for e_t in cands_t:
                if e_t == e_s:
                    continue
                if tracker.exhausted:
                    return None
                gamma2 = Hypergraph(
                    G.n, G.r, list(gamma.edges) + [e_s, e_t]
                )
                cycle, better = _pair_boost(
                    gamma2, witness.vertices, witness.edge_ids, G.n
                )
                tracker.extensions += 1
                if cycle is not None:
                    trace.append(_absorb_entry(step, [e_s, e_t], len(cycle), gamma2))
                    return gamma2, _cycle_as_path(cycle)
                if better is not None and len(better) > target:
                    trace.append(_absorb_entry(step, [e_s, e_t], len(better), gamma2))
                    return gamma2, better
    return None


class TestAbsorbStepMatchesReference:
    """``absorption_run`` against itself with ``reference_absorb_step``, a
    copy of the absorption step that builds gamma plus both edges for
    every candidate pair: the same outcome JSON (verdict, certificate,
    effort counts) and the same trace. Besides the default budget, each
    run is repeated with a budget that runs out in its closures and with
    budgets that run out among the candidate pairs of its steps: midway,
    one pair short of the last pair a step tests, and, where that pair
    wins, exactly at it."""

    def setup_method(self):
        self.compared = self.ran_out_in_pairs = self.pair_absorptions = 0
        self.won_at_limit = self.pair_scans = 0

    def _reference(self, G, gamma, path, tracker, trace, step):
        extensions = tracker.extensions
        witnesses = []
        stream = _witnesses

        def recorded(*args):
            for witness in stream(*args):
                witnesses.append(witness)
                yield witness

        with pytest.MonkeyPatch.context() as mp:
            mp.setitem(globals(), "_witnesses", recorded)
            result = reference_absorb_step(G, gamma, path, tracker, trace, step)
        won_pair = result is not None and trace[-1]["arity"] == 2
        # a single edge counts an extension only when it wins, so every
        # other extension a step counts is a candidate pair it tested
        pairs = tracker.extensions - extensions - (result is not None and not won_pair)
        if pairs:
            self.pair_spans.append((tracker.used - pairs, tracker.used, won_pair))
            if result is None and tracker.exhausted:
                self.ran_out_in_pairs += 1
        self.won_at_limit += won_pair and tracker.used == tracker.limit
        # A step scans pairs at each witness but one whose single edge it
        # absorbs, and only after absorbing any t-candidate that holds s as
        # a single edge. So no e_s, which holds s, is ever a t-candidate:
        # the reference's e_t == e_s skip never fires, and the step has none.
        if result is not None and not won_pair:
            witnesses.pop()
        for witness in witnesses:
            cands_t = _booster_candidates(G, gamma, witness.last)
            assert not any(witness.first in e for e in cands_t)
        self.pair_scans += len(witnesses)
        return result

    def _compare(self, G, d0, seed, budget):
        """Compares one run; returns the budget used by the reference and,
        for each step that tests candidate pairs, the budget used before
        its first pair and after its last, and whether that last pair won."""
        got_outcome, got_trace = absorption_run(G, d0=d0, budget=budget, seed=seed)
        self.pair_spans = []
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(engine, "_absorb_step", self._reference)
            want_outcome, want_trace = absorption_run(
                G, d0=d0, budget=budget, seed=seed
            )
        assert got_outcome.to_json() == want_outcome.to_json()
        assert got_trace == want_trace
        self.compared += 1
        self.pair_absorptions += sum(
            t["event"] == "absorb" and t["arity"] == 2 for t in want_trace
        )
        effort = want_outcome.effort
        return effort["rotations"] + effort["extensions"], self.pair_spans

    def _compare_budgets(self, G, d0, seed):
        used, spans = self._compare(G, d0, seed, DEFAULT_BUDGET)
        budgets = {used // 2}
        for first, last, won in spans[:3]:
            if last - first > 1:
                budgets.add((first + last) // 2)
            # the room the last pair's e_s has is one short of, or exactly,
            # the pairs it tests
            budgets.add(last - 1)
            if won:
                budgets.add(last)
        for budget in sorted(budgets):
            if budget > 0:
                self._compare(G, d0, seed, budget)

    def test_small_hosts(self):
        hosts = [two_cliques_matching(24, seed=1), complete(12, 3)]
        for n in range(12, 17):
            for p in (0.1, 0.2):
                found = [binomial(n, 3, p, seed=s) for s in range(12)]
                hosts += [H for H in found if H.is_connected][:2]
        for G in hosts:
            for d0 in (1, 2, 4):
                for seed in range(6):
                    self._compare_budgets(G, d0, seed)
        assert self.compared > 500
        assert self.pair_absorptions > 40
        assert self.ran_out_in_pairs > 10
        assert self.won_at_limit > 10
        assert self.pair_scans > 300

    def test_two_cliques_matching_36(self):
        G = two_cliques_matching(36, seed=1)
        for d0 in (1, 2, 4):
            for seed in range(3):
                self._compare_budgets(G, d0, seed)
        # absorb-trap seeds whose one absorption tests hundreds of pairs
        for i in (3, 10, 14):
            self._compare_budgets(G, None, derive_seed(0xAB50, i))
        assert self.pair_absorptions > 5
        assert self.ran_out_in_pairs > 8
        assert self.won_at_limit > 3

    def test_long_pair_scan(self):
        # 16,915 candidate pairs before one closes; 15,000 runs out among them
        G = two_cliques_matching(36, seed=1)
        seed = derive_seed(0xAB50, 38)
        for budget in (DEFAULT_BUDGET, 15_000):
            self._compare(G, None, seed, budget)
        assert self.ran_out_in_pairs == 1

    def test_pair_whose_pivot_sets_meet_twice(self):
        # e_s = {0, 2, 4} and e_t = {1, 3, 5} close the spanning path
        # 0..5 at pivot 1 and at pivot 3; the reference rotates at the
        # first pivot its scan finds, so the step must take the least
        gamma_edges = [(0, 1, 2), (1, 2, 3), (2, 3, 4), (3, 4, 5), (1, 4, 5)]
        gamma = Hypergraph(6, 3, gamma_edges)
        G = Hypergraph(6, 3, gamma_edges + [(0, 2, 4), (1, 3, 5)])
        path = BergePath(
            tuple(range(6)), tuple(gamma.edge_id_of(e) for e in gamma_edges)
        )
        results = []
        for step in (engine._absorb_step, reference_absorb_step):
            trace = []
            results.append((step(G, gamma, path, Budget(100), trace, 0), trace))
        assert results[0] == results[1]
        (_, boosted), trace = results[0]
        assert trace[0]["added"] == [[0, 2, 4], [1, 3, 5]]
        assert boosted.vertices == (0, 1, 5, 4, 3, 2)


def test_absorption_builds_only_what_it_keeps(monkeypatch):
    """On the absorb-trap host and seeds, absorption_run grows one graph
    that connects the extracted subgraph, when it needs edges, and one per
    absorption it keeps; a candidate pair that cannot close builds nothing.
    Every graph it grows is ``Hypergraph.extended`` from the last."""
    builds = []
    extended = Hypergraph.extended

    def counting_extended(self, edges):
        builds.append(1)
        return extended(self, edges)

    monkeypatch.setattr(Hypergraph, "extended", counting_extended)
    G = two_cliques_matching(36, seed=1)
    pair_absorptions = 0
    for i in range(60):
        builds.clear()
        outcome, trace = absorption_run(G, seed=derive_seed(0xAB50, i))
        absorbed = [t for t in trace if t["event"] == "absorb"]
        assert outcome.verdict == "yes"
        assert len(builds) == bool(trace[0]["connect_added"]) + len(absorbed)
        pair_absorptions += sum(t["arity"] == 2 for t in absorbed)
    assert pair_absorptions > 40


def _bridged_host() -> Tuple[Hypergraph, BergePath]:
    """Two copies of complete(4, 3), on 0..3 and on 4..7, joined by the
    one edge (3, 4, 5), which is a bridge; and a spanning path through it."""
    edges = [(0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3), (3, 4, 5)]
    edges += [(4, 5, 6), (4, 5, 7), (4, 6, 7), (5, 6, 7)]
    H = Hypergraph(8, 3, edges)
    route = [(0, 1, 2), (1, 2, 3), (0, 2, 3), (3, 4, 5)]
    route += [(4, 5, 6), (5, 6, 7), (4, 6, 7)]
    path = BergePath(tuple(range(8)), tuple(H.edge_id_of(e) for e in route))
    assert verify_path(H, path)
    return H, path


class TestObstructedGamma:
    """absorption_run rotates no spanning path in a gamma with a certified
    obstruction, which no rotation could close. With ``engine.obstruction``
    patched to find none, every search drains those rotations as before."""

    @staticmethod
    def runs():
        for n in (24, 36):
            G = two_cliques_matching(n, seed=1)
            for i in range(60):
                yield G, None, derive_seed(0xAB50, i)
        for n in range(12, 17):
            for p in (0.1, 0.2):
                found = [binomial(n, 3, p, seed=s) for s in range(12)]
                for G in [H for H in found if H.is_connected][:2]:
                    for d0 in (1, 2):
                        for seed in range(3):
                            yield G, d0, seed

    def test_skip_moves_effort_only(self):
        runs = skipped = 0
        for G, d0, seed in self.runs():
            got, got_trace = absorption_run(G, d0=d0, seed=seed)
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(engine, "obstruction", lambda H: None)
                want, want_trace = absorption_run(G, d0=d0, seed=seed)
            got_json, want_json = got.to_json(), want.to_json()
            got_effort, want_effort = got_json.pop("effort"), want_json.pop("effort")
            assert got_json == want_json
            assert got_trace == want_trace
            assert got_effort["rotations"] <= want_effort["rotations"]
            assert got_effort["closures"] <= want_effort["closures"]
            assert got_effort["extensions"] == want_effort["extensions"]
            runs += 1
            skipped += got_effort["rotations"] < want_effort["rotations"]
        assert runs > 200 and skipped > 120

    def test_search_rotates_no_spanning_path_when_blocked(self):
        H, path = _bridged_host()
        assert engine.obstruction(H).kind == "bridge"
        tracker = Budget()
        cycle, last, stop = engine._search(H, path, tracker, blocked=lambda: True)
        assert (cycle, last, stop) == (None, path, engine.SPANNING_UNCLOSABLE)
        assert tracker.rotations == tracker.extensions == 0
        # unblocked, the same search drains its rotations to the same end
        tracker = Budget()
        assert engine._search(H, path, tracker) == (None, path, stop)
        assert tracker.rotations > 0

    def test_obstruction_only_after_a_failed_direct_close(self, monkeypatch):
        """On the absorb-trap host and seeds, absorption_run computes an
        obstruction right after each direct close of a spanning path that
        fails with budget left, and never otherwise: a search that closes
        its path directly, that ends stuck, or whose budget ran out as its
        path came to span, computes none. Each run is repeated with the
        budget it had used at its first failed close."""
        events = []
        used = []  # budget used at each failed direct close
        inside = []  # calls of _improve and _absorb_step in progress
        try_endpoint, find, search = engine._try_endpoint, engine.obstruction, engine._search

        def traced_try(H, cand, budget, on_path):
            cycle, longer = try_endpoint(H, cand, budget, on_path)
            if not inside and len(cand) == H.n:  # _search's direct close
                if cycle is not None:
                    events.append("closed")
                else:
                    events.append("spent" if budget.exhausted else "failed")
                    used.append(budget.used)
            return cycle, longer

        def nested(fn):
            def call(*args):
                inside.append(fn)
                try:
                    return fn(*args)
                finally:
                    inside.pop()

            return call

        def traced_find(H):
            events.append("obstruction")
            return find(H)

        def traced_search(*args):
            events.append("search")
            return search(*args)

        monkeypatch.setattr(engine, "_try_endpoint", traced_try)
        monkeypatch.setattr(engine, "_improve", nested(engine._improve))
        monkeypatch.setattr(engine, "_absorb_step", nested(engine._absorb_step))
        monkeypatch.setattr(engine, "obstruction", traced_find)
        monkeypatch.setattr(engine, "_search", traced_search)
        G = two_cliques_matching(36, seed=1)
        for i in range(60):
            seed = derive_seed(0xAB50, i)
            used.clear()
            outcome, _ = absorption_run(G, seed=seed)
            assert outcome.verdict == "yes"
            outcome, _ = absorption_run(G, budget=used[0], seed=seed)
            assert outcome.verdict == "unknown"
        failed = [k for k, e in enumerate(events) if e == "failed"]
        found = [k for k, e in enumerate(events) if e == "obstruction"]
        assert found == [k + 1 for k in failed]
        # each run meets one failed direct close; most searches meet none
        assert len(found) >= 60 and events.count("spent") == 60
        assert len(found) < events.count("search") / 2

    def test_obstruction_is_certified_before_it_is_trusted(self, monkeypatch):
        # the bridged host's one spanning path does not close, so the check
        # runs; its bridge holds, but a claimed side that edges cross fails
        H, _ = _bridged_host()
        calls = []

        def claimed(gamma):
            calls.append(gamma)
            bridge = gamma.edge_id_of((3, 4, 5))
            return Obstruction("bridge", edge=bridge, side=(0, 1, 2))

        monkeypatch.setattr(engine, "obstruction", claimed)
        with pytest.raises(CertificateError):
            absorption_run(H, d0=4, seed=0)
        assert len(calls) == 1


def test_absorb_step_stays_within_budget(monkeypatch):
    """Over a sweep of budgets, up to what each run spends at the default
    budget, no absorption step leaves more budget used than its limit:
    its pair scan tests no pair once the budget is spent."""
    step = engine._absorb_step
    steps = ran_out_in_pairs = 0

    def checked_step(G, gamma, path, tracker, trace, step_no):
        nonlocal steps, ran_out_in_pairs
        extensions = tracker.extensions
        result = step(G, gamma, path, tracker, trace, step_no)
        assert tracker.used <= tracker.limit
        steps += 1
        ran_out_in_pairs += result is None and tracker.extensions > extensions
        return result

    monkeypatch.setattr(engine, "_absorb_step", checked_step)
    runs = [
        (two_cliques_matching(n, seed=1), None, derive_seed(0xAB50, i))
        for n in (36, 24)
        for i in range(12)
    ]
    for n in range(12, 17):
        found = [binomial(n, 3, 0.15, seed=s) for s in range(4)]
        runs += [(G, d0, 0) for G in found if G.is_connected for d0 in (1, 2)]
    for G, d0, seed in runs:
        outcome, _ = absorption_run(G, d0=d0, seed=seed)
        spent = outcome.effort["rotations"] + outcome.effort["extensions"]
        for budget in range(1, spent, max(1, spent // 30)):
            absorption_run(G, d0=d0, budget=budget, seed=seed)
    # golden ``absorb TCM36 ... --budget 15000`` runs out in its pair scan
    outcome, _ = absorption_run(
        two_cliques_matching(36, seed=1), budget=15_000, seed=9494955178128197401
    )
    assert outcome.effort["rotations"] + outcome.effort["extensions"] == 15_000
    assert steps > 600 and ran_out_in_pairs > 300


def test_absorbed_pairs_of_longest_paths_are_boosters(monkeypatch):
    """``oracle.exact_is_booster`` as the independent check of absorption:
    on small hosts of the reference comparison's kind, every pair that
    ``_absorb_step`` absorbs while its path is a longest path of a
    non-Hamiltonian gamma makes gamma Hamiltonian or its longest path
    longer."""
    step = engine._absorb_step
    checked = []

    def checked_step(G, gamma, path, tracker, trace, step_no):
        result = step(G, gamma, path, tracker, trace, step_no)
        if result is not None and trace[-1]["arity"] == 2:
            longest = exact_hamiltonian(gamma) is None and len(path) == len(
                exact_longest_path(gamma)
            )
            if longest:
                pair = tuple(map(tuple, trace[-1]["added"]))
                assert exact_is_booster(gamma, pair), (G, pair)
                checked.append(len(path) < G.n)
        return result

    monkeypatch.setattr(engine, "_absorb_step", checked_step)
    for n in range(8, 11):
        for p in (0.1, 0.2, 0.3):
            found = [binomial(n, 3, p, seed=s) for s in range(40)]
            for G in [H for H in found if H.is_connected][:12]:
                for d0 in (1, 2):
                    for seed in range(4):
                        absorption_run(G, d0=d0, seed=seed)
    # pairs that lengthen a longest path short of n, and pairs that close
    # a spanning one
    assert checked.count(True) > 10 and checked.count(False) > 50
