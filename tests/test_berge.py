import pytest

from bergeham.berge import (
    BergeCycle,
    BergePath,
    RotationCap,
    _rotated,
    close_with,
    closing_edge,
    endpoint_closure,
    extend_at_tip,
    reopen_cycle,
    rotation_witnesses,
    verify_cycle,
    verify_path,
)
from bergeham.engine import greedy_path
from bergeham.generators import binomial, complete, two_cliques_matching
from bergeham.hypergraph import Hypergraph
from bergeham.oracle import exact_longest_path
from bergeham.process import random_process
from bergeham.rng import SplitMix64


def host_with(edges, n=6):
    return Hypergraph(n, 3, edges)


class TestVerifyPath:
    def test_valid_two_edge_path(self):
        H = host_with([(1, 2, 5), (2, 3, 5), (1, 3, 4)])
        P = BergePath((1, 2, 3), (0, 1))
        assert verify_path(H, P)

    def test_repeated_edge_weak_only(self):
        H = host_with([(1, 2, 5), (2, 3, 5)])
        # edge 0 contains 1,2 and also... build a genuine weak repeat
        H2 = host_with([(1, 2, 3)])
        P = BergePath((1, 2, 3), (0, 0))
        assert not verify_path(H2, P)
        assert verify_path(H2, P, weak=True)

    def test_repeated_vertex_always_invalid(self):
        H = host_with([(1, 2, 5), (2, 3, 5)])
        P = BergePath((1, 2, 1), (0, 0))
        assert not verify_path(H, P, weak=True)

    def test_flank_not_in_edge(self):
        H = host_with([(1, 2, 5), (2, 3, 5)])
        P = BergePath((1, 2, 4), (0, 1))
        assert not verify_path(H, P)

    def test_single_vertex(self):
        assert verify_path(host_with([]), BergePath((3,), ()))


class TestRotate:
    def test_worked_example_with_new_edge(self):
        # P = (1, {1,2,5}, 2, {2,3,5}, 3), rotate with e = {1,3,4}:
        # pivot at vertex 1 reverses the suffix, giving endpoint 2
        H = host_with([(1, 2, 5), (2, 3, 5), (1, 3, 4)])
        P = BergePath((1, 2, 3), (0, 1))
        rotated = rotate(H, P, 2)
        assert rotated == BergePath((1, 3, 2), (2, 1))
        assert verify_path(H, rotated)

    def test_edge_without_other_path_vertex_has_no_pivot(self):
        H = host_with([(1, 2, 5), (2, 3, 5), (0, 3, 4)])
        P = BergePath((1, 2, 3), (0, 1))
        assert rotate(H, P, 2) is None

    def test_degenerate_last_edge_pivot(self):
        H = host_with([(1, 2, 5), (2, 3, 5)])
        P = BergePath((1, 2, 3), (0, 1))
        assert rotate(H, P, 1) is None  # own position is l-2: endpoint fixed

    def test_edge_must_contain_endpoint(self):
        H = host_with([(1, 2, 5), (2, 3, 5), (0, 1, 4)])
        P = BergePath((1, 2, 3), (0, 1))
        with pytest.raises(ValueError):
            rotate(H, P, 2)

    def test_on_path_edge_uses_own_position(self):
        # edge 0 = {1,2,5} contains the endpoint 5 of the longer path below
        H = host_with([(1, 2, 5), (2, 3, 5), (3, 4, 5), (2, 4, 5)])
        P = BergePath((1, 2, 3, 5), (0, 1, 2))
        rotated = rotate(H, P, 0)
        assert rotated is not None
        assert rotated.vertices == (1, 5, 3, 2)
        assert verify_path(H, rotated)

    def test_invariants_over_random_rotations(self):
        for seed in range(10):
            H = binomial(9, 3, 0.5, seed=seed)
            path = exact_longest_path(H)
            rng = SplitMix64(seed)
            current = path
            for _ in range(20):
                last = current.vertices[-1]
                inc = H.incidence[last]
                if not inc:
                    break
                e = inc[rng.below(len(inc))]
                pivots = rotation_pivots(H, current, e)
                if not pivots:
                    continue
                new = rotate(H, current, e, pivot=pivots[rng.below(len(pivots))])
                assert new is not None
                assert verify_path(H, new)
                assert new.vertices[0] == current.vertices[0]
                assert sorted(new.vertices) == sorted(current.vertices)
                assert len(new) == len(current)
                current = new


class TestEndpointClosure:
    def test_complete_host_reaches_every_endpoint(self):
        H = complete(6, 3)
        path = exact_longest_path(H)
        closure = endpoint_closure(H, path)
        assert len(closure.paths) == 5  # every vertex except the fixed one

    def test_trivial_path_closure(self):
        H = host_with([])
        closure = endpoint_closure(H, BergePath((2,), ()))
        assert closure.endpoints() == (2,)

    def test_budget_zero_keeps_only_own_endpoint(self):
        H = complete(6, 3)
        path = exact_longest_path(H)
        closure = endpoint_closure(H, path, budget=0)
        assert closure.endpoints() == (path.last,)

    def test_all_witnesses_share_shape(self):
        for seed in range(6):
            H = binomial(8, 3, 0.4, seed=seed)
            path = exact_longest_path(H)
            closure = endpoint_closure(H, path)
            lengths = {len(p) for p in closure.paths.values()}
            assert lengths == {len(path)}
            for endpoint, witness in closure.paths.items():
                assert witness.last == endpoint
                assert witness.first == path.first
                assert verify_path(H, witness)
            assert len(set(closure.paths)) == len(closure.paths)

    def test_invalid_path_rejected(self):
        H = host_with([(0, 1, 2)])
        with pytest.raises(ValueError):
            endpoint_closure(H, BergePath((0, 3), (0,)))

    def test_stream_sees_budget_spent_while_it_waits(self):
        H = complete(6, 3)
        path = exact_longest_path(H)
        cap = RotationCap(100)
        stream = rotation_witnesses(H, path, cap)
        assert next(stream) == path
        assert next(stream).first == path.first
        cap.rotations = 100  # spent by the caller between two witnesses
        assert list(stream) == []
        assert cap.refused and cap.rotations == 100


def rotation_pivots(H: Hypergraph, path: BergePath, e: int) -> list:
    """Eligible 0-based pivot positions for rotating with edge e, which
    must contain the path's last vertex.

    If e is already on the path its own position is the only candidate
    (any other would use it twice). The position just before the endpoint
    is degenerate (the endpoint would not change) and is excluded.
    """
    vs = path.vertices
    ell = len(vs)
    if path.last not in H.edges[e]:
        raise ValueError(f"edge {e} does not contain the endpoint {path.last}")
    if ell < 3:
        return []
    if e in path.edge_ids:
        q = path.edge_ids.index(e)
        return [q] if q < ell - 2 else []
    edge = H.edges[e]
    return [q for q in range(ell - 2) if vs[q] in edge]


def rotate(H: Hypergraph, path: BergePath, e: int, pivot=None):
    """Single rotation with edge e at the given (or first eligible) pivot;
    None when no eligible pivot exists."""
    pivots = rotation_pivots(H, path, e)
    if pivot is None:
        return _rotated(path, e, pivots[0]) if pivots else None
    return _rotated(path, e, pivot) if pivot in pivots else None


def extend_or_close(H: Hypergraph, path: BergePath):
    """One growth step at the endpoint: prefer extending by a new vertex
    through an unused edge; otherwise close into a cycle on the path's
    vertex set via an unused edge containing both endpoints; None when
    stuck."""
    if not verify_path(H, path):
        raise ValueError("extend_or_close requires a valid Berge path")
    used = set(path.edge_ids)
    longer = extend_at_tip(H, path, used, set(path.vertices))
    if longer is not None:
        return longer
    e = closing_edge(H, path, used)
    return None if e is None else close_with(path, e)


def reference_closure(H, path, budget=None):
    """Eager breadth-first rotation closure built from ``rotation_pivots``
    and ``rotate``: every rotation is built and counted, the budget is
    checked before each one, and the first witness per endpoint is kept.
    Returns (paths, rotations, budget_exhausted)."""
    paths = {path.last: path}
    rotations = 0
    queue = [path]
    while queue:
        nxt = []
        for cur in queue:
            for e in H.incidence[cur.last]:
                for q in rotation_pivots(H, cur, e):
                    if budget is not None and rotations >= budget:
                        return paths, rotations, True
                    rotations += 1
                    rotated = rotate(H, cur, e, pivot=q)
                    if rotated.last not in paths:
                        paths[rotated.last] = rotated
                        nxt.append(rotated)
        queue = nxt
    return paths, rotations, False


def _closure_cases():
    """Hosts for the differential closure test: prefixes of random
    processes on complete, two-cliques-plus-matching and binomial hosts."""
    hosts = [
        (complete(9, 3), (12, 30, 84)),
        (two_cliques_matching(12, seed=3), (15, 30, 44)),
        (two_cliques_matching(18, seed=1), (40, 90, 142)),
        (binomial(10, 3, 0.4, seed=2), (20, 45)),
    ]
    for H, steps in hosts:
        proc = random_process(H, seed=H.num_edges)
        for t in steps:
            yield proc.prefix(min(t, H.num_edges))


class TestClosureMatchesReference:
    """endpoint_closure against ``reference_closure``: the same witnesses
    in the same insertion order, the same rotation count and the same
    budget flag, for budgets that run out at every stage of the search."""

    def test_greedy_paths_all_budgets(self):
        compared = exhausted = 0
        for G in _closure_cases():
            for start in (0, G.n // 2, G.n - 1):
                grown = greedy_path(G, start)
                for path in (grown, grown.reverse()):
                    _, total, _ = reference_closure(G, path)
                    budgets = {None, 0, 1, 2, 7, total // 3, total // 2}
                    budgets |= {max(total - 1, 0), total}
                    for budget in budgets:
                        want = reference_closure(G, path, budget)
                        got = endpoint_closure(G, path, budget=budget)
                        assert got.fixed == path.first
                        assert list(got.paths.items()) == list(want[0].items())
                        assert got.rotations_applied == want[1]
                        assert got.budget_exhausted == want[2]
                        compared += 1
                        exhausted += want[2]
        assert compared > 300
        assert exhausted > 100

    def test_stream_matches_closure(self):
        # the stream yields the closure's witnesses in insertion order, each
        # as soon as it is built: stopped after k of them, it has done no
        # more rotations than the whole closure
        compared = 0
        for G in _closure_cases():
            path = greedy_path(G, G.n // 2)
            _, total, _ = reference_closure(G, path)
            for budget in {None, 0, 1, 2, 7, total // 3, total // 2, total}:
                closure = endpoint_closure(G, path, budget=budget)
                want = list(closure.paths.values())
                assert want == list(reference_closure(G, path, budget)[0].values())
                assert list(rotation_witnesses(G, path, RotationCap(budget))) == want
                for k in range(1, len(want) + 1):
                    cap = RotationCap(budget)
                    stream = rotation_witnesses(G, path, cap)
                    assert [next(stream) for _ in range(k)] == want[:k]
                    assert cap.rotations <= closure.rotations_applied
                    compared += 1
        assert compared > 300


class TestExtendOrClose:
    def test_single_edge_extends_single_vertex(self):
        H = Hypergraph(3, 3, [(0, 1, 2)])
        result = extend_or_close(H, BergePath((0,), ()))
        assert result == BergePath((0, 1), (0,))

    def test_spanning_path_closes(self):
        H = complete(4, 3)
        # pairs (0,1),(1,2),(2,3) via edges {0,1,2},{1,2,3},{0,2,3};
        # the unused edge {0,1,3} holds both endpoints
        P = BergePath((0, 1, 2, 3), (0, 3, 2))
        result = extend_or_close(H, P)
        assert isinstance(result, BergeCycle)
        assert verify_cycle(H, result)
        assert len(result) == 4

    def test_saturated_path_is_stuck(self):
        H = host_with([(1, 2, 5), (2, 3, 5)])
        P = BergePath((1, 2, 3), (0, 1))
        assert extend_or_close(H, P) is None


class TestCycles:
    def test_close_and_verify(self):
        H = complete(5, 3)
        path = exact_longest_path(H)
        result = extend_or_close(H, path)
        assert isinstance(result, BergeCycle)
        assert result.is_hamiltonian(5)

    def test_reopen_gains_a_vertex(self):
        # 4-cycle inside complete(6,3) reopens to a 5-vertex path
        H = complete(6, 3)
        cycle = BergeCycle((0, 1, 2, 3), (0, 10, 16, 8))
        assert verify_cycle(H, cycle)
        path = reopen_cycle(H, cycle)
        assert path is not None
        assert verify_path(H, path)
        assert len(path) == 5

    def test_reopen_none_when_component_saturated(self):
        H = Hypergraph(5, 3, [(0, 1, 2), (1, 2, 3), (0, 2, 3), (0, 1, 3)])
        cycle = BergeCycle((0, 1, 2, 3), (0, 1, 2, 3))
        assert verify_cycle(H, cycle)
        assert reopen_cycle(H, cycle) is None

    def test_reopen_through_own_cycle_edge(self):
        # the only leaving edge lies on the cycle; it must be the one removed
        H = Hypergraph(5, 3, [(0, 1, 4), (1, 2, 3), (0, 2, 3), (0, 1, 3)])
        cycle = BergeCycle((0, 1, 2, 3), (0, 1, 2, 3))
        assert verify_cycle(H, cycle)
        path = reopen_cycle(H, cycle)
        assert path is not None
        assert verify_path(H, path)
        assert len(path) == 5
        assert 4 == path.vertices[-1]

    def test_close_with_helper(self):
        H = complete(4, 3)
        P = BergePath((0, 1, 2, 3), (0, 3, 2))
        cycle = close_with(P, 1)  # edge {0,1,3} covers (3, 0)
        assert verify_cycle(H, cycle)
