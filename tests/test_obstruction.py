"""Twin, overload and bridge obstructions, and their checker.

``obstruction`` is tested against the exact oracle (it must never fire
on a Hamiltonian prefix), its bridge search against brute force (remove
each edge and test connectivity), and ``certify_obstruction`` against
hand-built and corrupted certificates.
"""

import pytest

from bergeham.berge import (
    CertificateError,
    Obstruction,
    _bridge_sides,
    certify_obstruction,
    obstruction,
)
from bergeham.generators import binomial, complete
from bergeham.hypergraph import Hypergraph
from bergeham.oracle import exact_hamiltonian
from bergeham.process import random_process


def connected_prefixes():
    """Every connected process prefix with at least n edges of
    binomial(n, 3, 0.5) hosts, n = 6..10: eight hosts and four arrival
    orders for each n."""
    for n in range(6, 11):
        for host_seed in range(8):
            H = binomial(n, 3, 0.5, seed=host_seed)
            for seed in range(4):
                proc = random_process(H, seed)
                for t in range(n, H.num_edges + 1):
                    graph = proc.prefix(t)
                    if graph.is_connected:
                        yield graph


PREFIXES = list(connected_prefixes())


def brute_bridges(H: Hypergraph) -> dict:
    """Each edge whose removal disconnects H, mapped to the vertex
    bitmasks of the components left behind; grown from scratch per edge."""
    masks = [sum(1 << v for v in edge) for edge in H.edges]
    found = {}
    for e in range(len(masks)):
        others = masks[:e] + masks[e + 1 :]
        parts = []
        left = (1 << H.n) - 1
        while left:
            part = left & -left
            grown = True
            while grown:
                grown = False
                for mask in others:
                    if mask & part and mask & ~part:
                        part |= mask
                        grown = True
            parts.append(part)
            left &= ~part
        if len(parts) > 1:
            found[e] = parts
    return found


def test_sound_against_the_oracle():
    hamiltonian = caught = missed = 0
    for graph in PREFIXES:
        found = obstruction(graph)
        if found is not None:
            assert certify_obstruction(graph, found) is found
        if exact_hamiltonian(graph) is not None:
            hamiltonian += 1
            assert found is None, (graph.edges, found)
        elif found is not None:
            caught += 1
        else:
            missed += 1
    assert len(PREFIXES) > 3000
    assert hamiltonian > 2500 and caught > 150
    print(f"{len(PREFIXES)} prefixes: {hamiltonian} Hamiltonian, {caught} caught, {missed} missed")


def test_bridges_match_brute_force():
    bridged = 0
    for graph in PREFIXES:
        sides = _bridge_sides(graph)
        brute = brute_bridges(graph)
        assert set(sides) == set(brute), graph.edges
        for e, side in sides.items():
            assert sum(1 << v for v in side) in brute[e]
            assert list(side) == sorted(side)
            certify_obstruction(graph, Obstruction("bridge", edge=e, side=side))
        bridged += bool(sides)
    assert bridged > 100


def test_bridge_search_is_iterative():
    # a path of 600 triples, each sharing one vertex with the next: every
    # edge is a bridge, and a recursive search would pass Python's limit
    n = 1201
    H = Hypergraph(n, 3, [(2 * i, 2 * i + 1, 2 * i + 2) for i in range(600)])
    assert sorted(_bridge_sides(H)) == list(range(600))
    found = obstruction(H)
    assert found.kind == "bridge" and found.edge == 0
    # vertex 1 lies in edge 0 only; the search starts at vertex 0
    assert certify_obstruction(H, found).side == (1,)


def two_blocks(n: int, r: int, link: tuple) -> Hypergraph:
    """complete(n, r) on 0..n-1 and on n..2n-1, then the edge ``link``."""
    half = complete(n, r).edges
    return Hypergraph(2 * n, r, [*half, *(tuple(v + n for v in e) for e in half), link])


HAND_BUILT = [
    # 0 and 1 lie in the edges 0 and 1 only
    (
        Hypergraph(6, 3, [(0, 1, 2), (0, 1, 3), (2, 3, 4), (2, 4, 5), (3, 4, 5), (2, 3, 5)]),
        Obstruction("twin", vertices=(0, 1)),
    ),
    (
        Hypergraph(7, 4, [(0, 1, 2, 3), (0, 1, 4, 5), (2, 3, 4, 6), (2, 3, 5, 6), (4, 5, 6, 3)]),
        Obstruction("twin", vertices=(0, 1)),
    ),
    # 0, 1 and 2 each lie in edge 0 and one other edge
    (
        Hypergraph(6, 3, [(0, 1, 2), (0, 3, 4), (1, 4, 5), (2, 3, 5), (3, 4, 5)]),
        Obstruction("overload", edge=0, vertices=(0, 1, 2)),
    ),
    # two cliques joined by one edge, the last one
    (two_blocks(4, 3, (3, 4, 5)), Obstruction("bridge", edge=8, side=(4, 5, 6, 7))),
    (two_blocks(5, 4, (3, 4, 5, 6)), Obstruction("bridge", edge=10, side=(5, 6, 7, 8, 9))),
]


@pytest.mark.parametrize("H,expected", HAND_BUILT, ids=lambda x: getattr(x, "kind", None))
def test_hand_built(H, expected):
    assert H.is_connected and exact_hamiltonian(H) is None
    assert obstruction(H) == expected
    assert certify_obstruction(H, expected) is expected


def test_none_on_hamiltonian_hosts():
    for H in (complete(6, 3), complete(7, 4), complete(12, 3)):
        assert obstruction(H) is None


def test_needs_a_connected_host_on_three_vertices():
    with pytest.raises(ValueError):
        obstruction(Hypergraph(2, 2, [(0, 1)]))
    with pytest.raises(ValueError):
        obstruction(Hypergraph(6, 3, [(0, 1, 2), (3, 4, 5)]))


CORRUPTED = [
    # (host index in HAND_BUILT, certificate that must be refused)
    (0, Obstruction("twin", vertices=(0, 0))),
    (0, Obstruction("twin", vertices=(0, 2))),  # 2 has degree 4
    (0, Obstruction("twin", vertices=(0,))),
    (2, Obstruction("twin", vertices=(0, 1))),  # degree 2, other edges differ
    (2, Obstruction("overload", edge=0, vertices=(0, 1))),
    (2, Obstruction("overload", edge=0, vertices=(0, 1, 1))),
    (2, Obstruction("overload", edge=1, vertices=(0, 3, 4))),  # 3, 4: degree 3
    (2, Obstruction("overload", edge=4, vertices=(0, 1, 2))),  # not in edge 4
    (2, Obstruction("overload", edge=9, vertices=(0, 1, 2))),
    (3, Obstruction("bridge", edge=8, side=(4, 5, 6))),
    (3, Obstruction("bridge", edge=8, side=(3, 4, 5, 6, 7))),
    (3, Obstruction("bridge", edge=0, side=(4, 5, 6, 7))),
    (3, Obstruction("bridge", edge=8, side=())),
    (3, Obstruction("bridge", edge=8, side=tuple(range(8)))),
    (3, Obstruction("bridge", edge=8, side=(4, 5, 6, 7, 8))),
    (3, Obstruction("bridge", edge=8, side=(4, 4, 5, 6, 7))),
    (3, Obstruction("bridge", edge=None, side=(4, 5, 6, 7))),
    (3, Obstruction("cut", edge=8, side=(4, 5, 6, 7))),
]


@pytest.mark.parametrize("index,cert", CORRUPTED)
def test_checker_refuses(index, cert):
    with pytest.raises(CertificateError):
        certify_obstruction(HAND_BUILT[index][0], cert)


def test_checker_needs_three_vertices():
    # on two vertices a twin is no obstruction: two edges through both
    # form a Hamilton cycle
    H = Hypergraph(2, 2, [(0, 1)])
    with pytest.raises(CertificateError):
        certify_obstruction(H, Obstruction("bridge", edge=0, side=(0,)))


def test_checker_refuses_twins_of_degree_three():
    # 0 and 1 share all three of their edges, yet the host is Hamiltonian:
    # only a vertex of degree 2 must use every edge it lies in
    H = Hypergraph(6, 3, [(0, 1, 2), (0, 1, 3), (0, 1, 4), (2, 3, 5), (3, 4, 5), (2, 4, 5)])
    assert exact_hamiltonian(H) is not None
    with pytest.raises(CertificateError):
        certify_obstruction(H, Obstruction("twin", vertices=(0, 1)))
