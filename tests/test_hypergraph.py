import gc
import math
import tracemalloc
from itertools import combinations

import pytest

from bergeham.generators import binomial, complete, two_cliques
from bergeham.hypergraph import (
    VERIFIED,
    VIOLATED,
    CapacityError,
    EdgeError,
    Hypergraph,
    ParseError,
    _data_lines,
    check_codegree_condition,
    check_min_degree_conditions,
    is_expander,
    parse,
    serialize,
)
from bergeham.rng import SplitMix64


def brute_degree(H, v):
    return sum(1 for e in H.edges if v in e)


def brute_codegree(H, u, v):
    return sum(1 for e in H.edges if u in e and v in e)


def brute_pair_edges(H, u, v):
    return tuple(i for i, e in enumerate(H.edges) if u in e and v in e)


class TestConstruction:
    def test_edges_are_canonical_sorted_tuples(self):
        H = Hypergraph(5, 3, [(2, 0, 4), (1, 3, 2)])
        assert H.edges == ((0, 2, 4), (1, 2, 3))

    def test_incidence_is_sorted_and_exact(self):
        H = Hypergraph(4, 3, [(0, 1, 2), (0, 2, 3), (1, 2, 3)])
        assert H.incidence[2] == (0, 1, 2)
        assert H.incidence[0] == (0, 1)

    def test_rejects_wrong_arity(self):
        with pytest.raises(ValueError, match="3 distinct vertices"):
            Hypergraph(4, 3, [(0, 1)])
        with pytest.raises(ValueError, match="3 distinct vertices"):
            Hypergraph(4, 3, [(0, 1, 1)])

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError, match="out of range"):
            Hypergraph(3, 3, [(0, 1, 3)])

    def test_rejects_duplicate_edges_as_sets(self):
        with pytest.raises(ValueError, match="duplicate"):
            Hypergraph(4, 3, [(0, 1, 2), (2, 1, 0)])

    def test_rejection_names_the_edge_position(self):
        with pytest.raises(EdgeError) as info:
            Hypergraph(4, 3, [(0, 1, 2), (0, 1, 3), (2, 1, 0)])
        assert str(info.value) == "duplicate edge (0, 1, 2)"
        assert (info.value.index, info.value.kind) == (2, "duplicate")
        with pytest.raises(EdgeError) as info:
            Hypergraph(4, 3, [(0, 1, 2), (1, 2, 4)])
        assert (info.value.index, info.value.kind) == (1, "range")

    def test_one_shot_iterator_gives_the_same_host(self):
        edges = [(3, 1, 0), (0, 2, 4), (1, 2, 3)]
        assert Hypergraph(5, 3, iter(edges)) == Hypergraph(5, 3, edges)
        H = complete(7, 3)
        assert Hypergraph(7, 3, (e for e in combinations(range(7), 3))) == H


class TestSubgraph:
    def test_keeps_given_order_and_reissues_ids(self):
        H = complete(5, 3)
        sub = H.subgraph([4, 0, 7])
        assert sub.edges == (H.edges[4], H.edges[0], H.edges[7])
        assert sub.incidence == Hypergraph(5, 3, sub.edges).incidence

    @pytest.mark.parametrize(
        "ids,match",
        [([-1], "in 0..9"), ([0, 10], "in 0..9"), ([3, 1, 3], None)],
        ids=["negative", "at_m", "repeated"],
    )
    def test_rejects_invalid_ids(self, ids, match):
        # complete(5, 3) has m = 10 edges; id -1 used to pick the last one
        with pytest.raises(ValueError, match=match):
            complete(5, 3).subgraph(ids)


def _random_growth(rng: SplitMix64) -> tuple:
    """A random host and a list of distinct edges it lacks, each in a
    random vertex order: (base, added)."""
    n, r = 5 + rng.below(8), 2 + rng.below(3)
    pool = list(combinations(range(n), r))
    rng.shuffle(pool)
    split = rng.below(len(pool))
    base = Hypergraph(n, r, pool[:split])
    added = []
    for e in pool[split : split + rng.below(6)]:
        e = list(e)
        rng.shuffle(e)
        added.append(tuple(e))
    return base, added


def _rejection(build):
    """(kind, index, edge, message) of the EdgeError ``build()`` raises."""
    with pytest.raises(EdgeError) as info:
        build()
    err = info.value
    return err.kind, err.index, err.edge, str(err)


class TestExtended:
    """``H.extended(added)`` against ``Hypergraph(n, r, list(H.edges) + added)``."""

    def test_matches_constructor_on_random_inputs(self):
        rng = SplitMix64(0xE7)
        for _ in range(300):
            base, added = _random_growth(rng)
            before = (base.edges, base.incidence, dict(base._edge_index))
            grown = base.extended(added)
            want = Hypergraph(base.n, base.r, list(base.edges) + added)
            assert grown == want
            assert grown.incidence == want.incidence
            assert grown._edge_index == want._edge_index
            # the base is left as it was
            assert (base.edges, base.incidence, base._edge_index) == before

    def test_grown_twice_keeps_every_id(self):
        H = Hypergraph(6, 3, [(0, 1, 2), (3, 4, 5)])
        grown = H.extended([(2, 3, 1)]).extended([(5, 0, 4), (1, 3, 5)])
        assert grown == Hypergraph(6, 3, [(0, 1, 2), (3, 4, 5), (1, 2, 3), (0, 4, 5), (1, 3, 5)])
        assert grown.incidence == (
            (0, 3), (0, 2, 4), (0, 2), (1, 2, 4), (1, 3), (1, 3, 4)
        )
        assert H.extended([]) == H

    @pytest.mark.parametrize(
        "added,kind,index",
        [
            ([(0, 1, 4), (0, 1)], "arity", 4),
            ([(0, 2, 2)], "arity", 3),
            ([(0, 1, 4), (1, 2, 6)], "range", 4),
            ([(-1, 0, 1)], "range", 3),
            ([(0, 1, 4), (2, 0, 1)], "duplicate", 4),
            ([(0, 1, 4), (4, 1, 0)], "duplicate", 4),
        ],
        ids=["arity", "repeated-vertex", "range", "negative", "base-duplicate", "added-duplicate"],
    )
    def test_rejects_as_constructor(self, added, kind, index):
        H = Hypergraph(6, 3, [(0, 1, 2), (1, 2, 3), (2, 3, 4)])
        got = _rejection(lambda: H.extended(added))
        assert got == _rejection(lambda: Hypergraph(6, 3, list(H.edges) + added))
        assert got[:2] == (kind, index)

    def test_rejects_as_constructor_on_random_faults(self):
        rng = SplitMix64(0xBAD)
        kinds = set()
        for _ in range(300):
            base, added = _random_growth(rng)
            n, r = base.n, base.r
            faults = [
                tuple(range(r - 1)),  # arity
                (0,) * r,  # a repeated vertex
                tuple(range(n - r + 1, n + 1)),  # range
            ]
            if base.edges:  # a duplicate of a base edge, reordered
                faults.append(base.edges[rng.below(base.num_edges)][::-1])
            if added:  # a duplicate within the added edges
                faults.append(added[rng.below(len(added))][::-1])
            fault = faults[rng.below(len(faults))]
            added.insert(rng.below(len(added) + 1), fault)
            got = _rejection(lambda: base.extended(added))
            assert got == _rejection(lambda: Hypergraph(n, r, list(base.edges) + added))
            kinds.add(got[0])
        assert kinds == {"arity", "range", "duplicate"}


class TestDegrees:
    def test_complete_graph_degree(self):
        H = complete(6, 3)
        assert H.degree(0) == 10  # C(5, 2), confirmed by enumeration
        assert all(H.degree(v) == brute_degree(H, v) for v in range(6))

    def test_empty_graph_degree(self):
        H = Hypergraph(4, 3, [])
        assert H.degree(2) == 0

    def test_two_cliques_degree(self):
        H = two_cliques(12, 3)
        assert all(H.degree(v) == 10 for v in range(12))

    def test_degree_out_of_range(self):
        with pytest.raises(ValueError):
            complete(4, 3).degree(4)

    def test_complete_codegree(self):
        H = complete(6, 3)
        for u, v in combinations(range(6), 2):
            assert H.codegree(u, v) == 4  # C(4, 1)
            assert H.codegree(u, v) == brute_codegree(H, u, v)

    def test_cross_clique_codegree_zero(self):
        H = two_cliques(12, 3)
        assert H.codegree(0, 6) == 0

    def test_single_edge_codegree(self):
        H = Hypergraph(3, 3, [(0, 1, 2)])
        assert H.codegree(0, 1) == 1

    def test_codegree_same_vertex_rejected(self):
        with pytest.raises(ValueError):
            complete(4, 3).codegree(1, 1)

    def test_degree_codegree_identity(self):
        # degree(v) * (r-1) == sum of codegrees with all other vertices
        for seed in range(5):
            H = binomial(9, 3, 0.3, seed=seed)
            for v in range(H.n):
                total = sum(H.codegree(u, v) for u in range(H.n) if u != v)
                assert total == H.degree(v) * (H.r - 1)


class TestEdgesWithPair:
    @pytest.mark.parametrize("r", [2, 3, 4])
    def test_matches_scan_in_order(self, r):
        hosts = [complete(7, r)] + [binomial(9, r, 0.4, seed=s) for s in range(3)]
        for H in hosts:
            for u, v in combinations(range(H.n), 2):
                assert H.edges_with_pair(u, v) == brute_pair_edges(H, u, v)
                assert H.edges_with_pair(v, u) == brute_pair_edges(H, u, v)

    def test_same_vertex_holds_no_pair(self):
        H = complete(5, 3)
        assert all(H.edges_with_pair(v, v) == () for v in range(5))

    def test_out_of_range(self):
        H = complete(4, 3)
        for u, v in [(0, 4), (4, 0), (-1, 2), (4, 4)]:
            with pytest.raises(ValueError, match="out of range"):
                H.edges_with_pair(u, v)


class TestNeighborhood:
    def test_single_edge(self):
        H = Hypergraph(3, 3, [(0, 1, 2)])
        assert H.neighborhood([0]) == {1, 2}

    def test_empty_graph(self):
        H = Hypergraph(5, 3, [])
        assert len(H.neighborhood([0, 1])) == 0

    def test_whole_clique_has_no_outside_neighbors(self):
        H = two_cliques(8, 3)
        assert len(H.neighborhood(range(4))) == 0

    def test_never_intersects_input(self):
        for seed in range(5):
            H = binomial(10, 3, 0.4, seed=seed)
            rng = SplitMix64(seed)
            S = set(rng.choose(list(range(10)), 3))
            assert S.isdisjoint(H.neighborhood(S))

    def test_out_of_range(self):
        with pytest.raises(ValueError, match="vertex 4 out of range 0..3"):
            complete(4, 3).neighborhood([4])


class TestConnectivity:
    def test_complete_connected(self):
        assert complete(5, 3).is_connected

    def test_two_cliques_disconnected(self):
        assert not two_cliques(8, 3).is_connected

    def test_isolated_vertex_disconnects(self):
        H = Hypergraph(4, 3, [(0, 1, 2)])
        assert not H.is_connected
        assert (3,) in H.components

    def test_single_vertex_no_edges_connected(self):
        assert Hypergraph(1, 2, []).is_connected


class TestExpander:
    def test_complete_small_expander(self):
        assert is_expander(complete(4, 3), k=1, alpha=2).status == VERIFIED

    def test_isolated_vertex_witness(self):
        # complete(4,3) plus isolated vertex 4: only X={4} (with Y empty)
        # violates, since no single Y-vertex covers a clique vertex's edges
        H = Hypergraph(5, 3, list(combinations(range(4), 3)))
        res = is_expander(H, k=1, alpha=2)
        assert res.status == VIOLATED
        X, Y = res.witness
        assert X == (4,) and Y == ()

    def test_two_cliques_violated(self):
        res = is_expander(two_cliques(8, 3), k=4, alpha=2)
        assert res.status == VIOLATED

    def test_witness_verifies_against_definition(self):
        for seed in range(8):
            H = binomial(8, 3, 0.25, seed=seed)
            res = is_expander(H, k=3, alpha=2)
            if res.status != VIOLATED:
                continue
            X, Y = res.witness
            assert set(X).isdisjoint(Y)
            assert len(Y) < 2 * len(X) and len(X) <= 3
            for e in H.edges:
                in_x = sum(1 for v in e if v in X)
                in_y = sum(1 for v in e if v in Y)
                assert not (in_x == 1 and in_y == 0)

    def test_sampled_witness_agrees_with_exhaustive(self):
        H = two_cliques(8, 3)
        res = is_expander(H, k=4, alpha=2, exhaustive=False, trials=3000, seed=1)
        if res.status == VIOLATED:
            X, Y = res.witness
            for e in H.edges:
                in_x = sum(1 for v in e if v in X)
                in_y = sum(1 for v in e if v in Y)
                assert not (in_x == 1 and in_y == 0)

    def test_guard(self):
        with pytest.raises(CapacityError):
            is_expander(complete(20, 3), k=2, alpha=2)

    @pytest.mark.parametrize("trials", [0, -3])
    def test_sampled_trials_below_one_refused(self, trials):
        H = complete(6, 3)
        with pytest.raises(ValueError, match="at least one trial"):
            is_expander(H, k=2, alpha=2, exhaustive=False, trials=trials)
        exhaustive = is_expander(H, k=2, alpha=2, trials=trials)
        assert exhaustive == is_expander(H, k=2, alpha=2)


class TestDegreeConditions:
    def test_complete_passes_codegree_condition(self):
        assert check_codegree_condition(complete(20, 3), 0.1).status == VERIFIED

    def test_two_cliques_fails(self):
        res = check_codegree_condition(two_cliques(20, 3), 0.1)
        assert res.status == VIOLATED
        assert res.witness is not None

    def test_empty_fails(self):
        H = Hypergraph(6, 3, [])
        assert check_codegree_condition(H, 0.1).status == VIOLATED

    def test_complete_min_degree_conditions(self):
        rep = check_min_degree_conditions(complete(20, 3), 0.05)
        assert rep.delta1_ok and rep.delta2_ok
        assert rep.min_degree == math.comb(19, 2)
        assert rep.min_codegree == 18

    def test_two_cliques_delta2_fails(self):
        rep = check_min_degree_conditions(two_cliques(20, 3), 0.05)
        assert not rep.delta2_ok

    def test_single_edge_both_fail(self):
        rep = check_min_degree_conditions(Hypergraph(6, 3, [(0, 1, 2)]), 0.05)
        assert not rep.delta1_ok and not rep.delta2_ok

    def test_min_codegree_matches_scan(self):
        for H in [binomial(8, 3, 0.6, seed=s) for s in range(4)] + [complete(6, 2)]:
            rep = check_min_degree_conditions(H, 0.05)
            pairs = combinations(range(H.n), 2)
            assert rep.min_codegree == min(brute_codegree(H, u, v) for u, v in pairs)

    def test_min_degree_conditions_need_two_vertices(self):
        with pytest.raises(ValueError, match="need n >= 2, got 1"):
            check_min_degree_conditions(Hypergraph(1, 2, []), 0.1)


class TestTextFormat:
    def test_parse_single_edge(self):
        H = parse("3 3 1\n0 1 2\n")
        assert H.n == 3 and H.edges == ((0, 1, 2),)

    def test_serialize_parse_roundtrip(self):
        for seed in range(4):
            H = binomial(9, 3, 0.3, seed=seed)
            assert parse(serialize(H)) == H

    def test_canonical_fixed_point(self):
        text = "4 3 2\n0 1 2\n1 2 3\n"
        assert serialize(parse(text)) == text

    def test_comments_and_blank_lines(self):
        H = parse("# host\n3 3 1\n\n0 1 2  # the only edge\n")
        assert H.num_edges == 1

    def test_duplicate_edge_rejected_with_line(self):
        with pytest.raises(ParseError, match="line 3"):
            parse("3 3 2\n0 1 2\n2 1 0\n")

    def test_wrong_arity_rejected(self):
        with pytest.raises(ParseError, match="distinct vertices"):
            parse("3 3 1\n0 1\n")

    def test_out_of_range_rejected(self):
        with pytest.raises(ParseError, match="out of range"):
            parse("3 3 1\n0 1 5\n")

    def test_data_lines_across_chunk_boundaries(self):
        rng = SplitMix64(7)
        for _ in range(300):
            text = "".join(rng.choose(list("\n\n1 #\r"), 1)[0] for _ in range(rng.below(30)))
            expected = [
                (lineno, raw.split("#", 1)[0].strip())
                for lineno, raw in enumerate(text.split("\n"), start=1)
                if raw.split("#", 1)[0].strip()
            ]
            for chunk in (1, 2, 3, 7, 1 << 14):
                assert list(_data_lines(text, chunk)) == expected

    def test_parse_peak_memory_is_a_small_multiple_of_the_host(self):
        # traced peak of parse over the traced size of the host it returns:
        # 3.4 when every line, a duplicate map and an edge list were held
        # next to the host, 1.3 when each edge is checked once as it is read
        text = serialize(complete(40, 3))
        gc.disable()
        tracemalloc.start()
        try:
            H = parse(text)
            size, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
            gc.enable()
        assert H.num_edges == math.comb(40, 3)
        assert peak / size < 2.0

    def test_wrong_edge_count_rejected(self):
        with pytest.raises(ParseError, match="edge lines"):
            parse("3 3 2\n0 1 2\n")

    def test_edge_count_reported_before_edge_faults(self):
        # the count check runs before any edge line is checked, so the
        # duplicate on line 3 is not what the error names
        with pytest.raises(ParseError) as info:
            parse("3 3 1\n0 1 2\n0 1 2\n")
        assert str(info.value) == "line 3: expected 1 edge lines, found 2"


def reference_parse(text: str) -> Hypergraph:
    """``parse`` as it was when every host was validated twice: a list of
    data rows, a duplicate map and an edge list, then the constructor.
    Kept verbatim as the reference for its messages and line numbers."""
    rows = []
    for lineno, raw in enumerate(text.split("\n"), start=1):
        body = raw.split("#", 1)[0].strip()
        if body:
            rows.append((lineno, body))
    if not rows:
        raise ParseError(1, "missing header line 'n r m'")
    header_line, header = rows[0]
    parts = header.split()
    if len(parts) != 3:
        raise ParseError(header_line, f"header must be 'n r m', got {header!r}")
    try:
        n, r, m = (int(p) for p in parts)
    except ValueError:
        raise ParseError(header_line, f"header must be three integers, got {header!r}")
    if n < 1 or r < 2 or m < 0:
        raise ParseError(header_line, f"need n >= 1, r >= 2, m >= 0, got {header!r}")
    if len(rows) - 1 != m:
        raise ParseError(
            rows[-1][0], f"expected {m} edge lines, found {len(rows) - 1}"
        )
    edges = []
    seen = {}
    for lineno, body in rows[1:]:
        try:
            verts = tuple(int(p) for p in body.split())
        except ValueError:
            raise ParseError(lineno, f"edge line must be integers, got {body!r}")
        if len(verts) != r or len(set(verts)) != r:
            raise ParseError(lineno, f"edge must have {r} distinct vertices, got {body!r}")
        if min(verts) < 0 or max(verts) >= n:
            raise ParseError(lineno, f"vertex out of range 0..{n - 1} in {body!r}")
        key = tuple(sorted(verts))
        if key in seen:
            raise ParseError(lineno, f"duplicate edge {key} (first at line {seen[key]})")
        seen[key] = lineno
        edges.append(verts)
    return Hypergraph(n, r, edges)


def _parse_outcome(parse_fn, text):
    try:
        return parse_fn(text)
    except ValueError as exc:
        return type(exc).__name__, getattr(exc, "line", None), str(exc)


def _mutate(lines: list, n: int, r: int, rng: SplitMix64) -> list:
    """One random fault or harmless change to a host's text lines (header
    first, then one line per edge). Half the time the header's edge count
    is then made to match, so that the edge-level faults are reached."""
    lines = list(lines)
    kind = rng.below(11)
    at = rng.below(len(lines))
    tokens = lines[at].split()
    if kind == 0 and tokens:  # drop a token
        del tokens[rng.below(len(tokens))]
        lines[at] = " ".join(tokens)
    elif kind == 1:  # add a token
        tokens.insert(rng.below(len(tokens) + 1), str(rng.below(n + 2) - 1))
        lines[at] = " ".join(tokens)
    elif kind == 2 and tokens:  # an out-of-range id
        tokens[rng.below(len(tokens))] = str(rng.choose([-1, n, n + 7], 1)[0])
        lines[at] = " ".join(tokens)
    elif kind == 3 and len(tokens) > 1:  # a repeated vertex
        i, j = rng.choose(list(range(len(tokens))), 2)
        tokens[i] = tokens[j]
        lines[at] = " ".join(tokens)
    elif kind == 4 and tokens:  # a non-integer
        tokens[rng.below(len(tokens))] = rng.choose(["x", "1.5", "--2", "0x1"], 1)[0]
        lines[at] = " ".join(tokens)
    elif kind == 5 and len(lines) > 1:  # a line repeated, vertices permuted
        src = 1 + rng.below(len(lines) - 1)
        verts = lines[src].split()
        rng.shuffle(verts)
        lines.insert(1 + rng.below(len(lines)), " ".join(verts))
    elif kind == 6 and len(lines) > 1:  # an edge line deleted
        del lines[1 + rng.below(len(lines) - 1)]
    elif kind == 7:  # an edge line added
        verts = [str(v) for v in rng.choose(list(range(n)), min(r, n))]
        lines.insert(1 + rng.below(len(lines)), " ".join(verts))
    elif kind == 8:  # comments and blank lines
        lines[at] += rng.choose(["  # note", "#", " # 1 2 3"], 1)[0]
        lines.insert(rng.below(len(lines) + 1), rng.choose(["", "   ", "# c", "\t"], 1)[0])
    elif kind == 9:  # '\r\n' endings
        lines = [line + "\r" for line in lines]
    elif kind == 10:  # every line a comment
        lines = ["# " + line for line in lines]
    if rng.below(2):
        header = lines[0].split()
        if len(header) == 3:
            header[2] = str(len(lines) - 1)
            lines[0] = " ".join(header)
    return lines


class TestParseMatchesReference:
    """``parse`` against ``reference_parse`` on seeded random hosts and one
    or two mutations of each host's text: an equal host, or a
    ``ParseError`` with the same message and line, including which of two
    faults is named."""

    def test_random_hosts_and_mutations(self):
        rng = SplitMix64(0x9A25E)
        faults = 0
        for case in range(600):
            n = 1 + rng.below(12)
            r = 2 + rng.below(3)
            if r > n:
                H = Hypergraph(n, r, [])
            else:
                H = binomial(n, r, rng.random(), seed=rng.next_u64())
            text = serialize(H)
            assert parse(text) == H
            lines = _mutate(text.split("\n")[:-1], n, r, rng)
            if rng.below(3) == 0:  # a second change, so that two faults meet
                lines = _mutate(lines, n, r, rng)
            mutated = "\n".join(lines) + rng.choose(["\n", ""], 1)[0]
            expected = _parse_outcome(reference_parse, mutated)
            assert _parse_outcome(parse, mutated) == expected, (case, mutated)
            faults += not isinstance(expected, Hypergraph)
        assert 200 < faults < 550  # both outcomes are exercised
