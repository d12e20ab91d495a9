"""The exact oracle against its earlier form.

``_augment``, ``exact_hamiltonian`` and ``exact_longest_path`` below are
the oracle as it was before its pair-edge matching moved into one class,
kept verbatim. On a seeded sweep of small hosts, Hamiltonian or not,
connected or not, the package must return the same certificate (vertices
and edge ids) or the same None, and, on three or more vertices, must ask
the host for the same pairs in the same order: the search order, and so
every certificate, is unchanged.
"""

from typing import Optional, Tuple

import pytest

from bergeham import oracle
from bergeham.berge import BergeCycle, BergePath, certify
from bergeham.generators import binomial, complete, two_cliques
from bergeham.hypergraph import Hypergraph
from bergeham.oracle import DEFAULT_GUARD, OracleGuard, _check_guard


def _augment(slot: int, cands, edge_of_slot, slot_of_edge, visited) -> bool:
    """Kuhn augmenting step: try to give ``slot`` an edge, re-routing
    earlier slots along an alternating path. Mutates only on success."""
    for e in cands[slot]:
        if e in visited:
            continue
        visited.add(e)
        owner = slot_of_edge.get(e)
        if owner is None or _augment(owner, cands, edge_of_slot, slot_of_edge, visited):
            slot_of_edge[e] = slot
            edge_of_slot[slot] = e
            return True
    return False


def exact_hamiltonian(
    H: Hypergraph, guard: OracleGuard = DEFAULT_GUARD
) -> Optional[BergeCycle]:
    """A verified spanning Berge cycle, or None when none exists.

    Enumerates cyclic vertex orders fixing vertex 0 and quotienting
    reflection (second vertex below last), with incremental matching
    feasibility on the consecutive pairs.
    """
    _check_guard(H, guard)
    n = H.n
    if n < 2:
        return None
    if n == 2:
        eids = H.edges_with_pair(0, 1)
        if len(eids) >= 2:
            return BergeCycle((0, 1), (eids[0], eids[1]))
        return None
    if H.num_edges < n or H.min_degree() < 2 or not H.is_connected:
        return None

    seq = [0]
    in_seq = [False] * n
    in_seq[0] = True
    cands: list = [()] * n
    edge_of_slot: dict = {}
    slot_of_edge: dict = {}

    def place(depth: int) -> bool:
        # depth = number of placed vertices; slot depth-1 pairs the last two
        if depth == n:
            closing = H.edges_with_pair(seq[-1], 0)
            cands[n - 1] = closing
            if _augment(n - 1, cands, edge_of_slot, slot_of_edge, set()):
                return True
            return False
        for u in range(1, n):
            if in_seq[u]:
                continue
            if depth == n - 1 and u < seq[1]:
                continue  # reflection: keep second vertex below last
            pair_edges = H.edges_with_pair(seq[-1], u)
            if not pair_edges:
                continue
            slot = depth - 1
            cands[slot] = pair_edges
            if _augment(slot, cands, edge_of_slot, slot_of_edge, set()):
                seq.append(u)
                in_seq[u] = True
                if place(depth + 1):
                    return True
                in_seq[u] = False
                seq.pop()
                e = edge_of_slot.pop(slot)
                del slot_of_edge[e]
        return False

    if place(1):
        cycle = BergeCycle(tuple(seq), tuple(edge_of_slot[i] for i in range(n)))
        return certify(H, cycle)
    return None


def exact_longest_path(H: Hypergraph, guard: OracleGuard = DEFAULT_GUARD) -> BergePath:
    """A maximum-length verified Berge path, ties broken lexicographically
    by vertex sequence."""
    _check_guard(H, guard)
    n = H.n
    best: Tuple[tuple, tuple] = ((0,), ())
    seq: list = []
    in_seq = [False] * n
    cands: list = [()] * n
    edge_of_slot: dict = {}
    slot_of_edge: dict = {}

    def record() -> None:
        nonlocal best
        if len(seq) > len(best[0]):
            edges = tuple(edge_of_slot[i] for i in range(len(seq) - 1))
            best = (tuple(seq), edges)

    def extend() -> None:
        record()
        depth = len(seq)
        # even routing through every still-usable vertex cannot beat best
        potential = depth + sum(
            1 for v in range(n) if not in_seq[v] and H.degree(v) > 0
        )
        if potential <= len(best[0]):
            return
        for u in range(n):
            if in_seq[u]:
                continue
            pair_edges = H.edges_with_pair(seq[-1], u)
            if not pair_edges:
                continue
            slot = depth - 1
            cands[slot] = pair_edges
            if _augment(slot, cands, edge_of_slot, slot_of_edge, set()):
                seq.append(u)
                in_seq[u] = True
                extend()
                in_seq[u] = False
                seq.pop()
                e = edge_of_slot.pop(slot)
                del slot_of_edge[e]

    for start in range(n):
        seq = [start]
        in_seq = [False] * n
        in_seq[start] = True
        edge_of_slot.clear()
        slot_of_edge.clear()
        extend()
        if len(best[0]) == n:
            break

    return certify(H, BergePath(best[0], best[1]))


class LoggedHost(Hypergraph):
    """A host that logs every pair the search asks for."""

    def __init__(self, H: Hypergraph):
        super().__init__(H.n, H.r, H.edges)
        self.log = []

    def edges_with_pair(self, u: int, v: int) -> tuple:
        self.log.append((u, v))
        return super().edges_with_pair(u, v)


def sweep_hosts():
    hosts = [
        binomial(n, r, p, seed=seed)
        for n in range(3, 11)
        for r in range(2, min(n, 4) + 1)
        for p in (0.1, 0.2, 0.35, 0.6)
        for seed in range(3)
    ]
    hosts += [two_cliques(n, r) for n in (6, 8, 10) for r in (2, 3)]
    hosts += [complete(n, r) for n in (3, 4, 7) for r in (2, 3)]
    hosts += [Hypergraph(n, 3, []) for n in (1, 2, 5)]
    hosts += [Hypergraph(2, 2, [(0, 1)])]
    # backtracks hundreds of times to a yes; exhausts every order to a no
    hosts += [binomial(10, 3, 0.08, seed=8), binomial(10, 3, 0.15, seed=2)]
    return [H for H in hosts if H.num_edges <= DEFAULT_GUARD.max_edges]


def as_pair(cert):
    return None if cert is None else (cert.vertices, cert.edge_ids)


@pytest.mark.parametrize(
    "package,reference",
    [
        (oracle.exact_hamiltonian, exact_hamiltonian),
        (oracle.exact_longest_path, exact_longest_path),
    ],
    ids=["hamiltonian", "longest_path"],
)
def test_same_certificates_and_search_order(package, reference):
    outcomes = set()
    for H in sweep_hosts():
        ours, theirs = LoggedHost(H), LoggedHost(H)
        got, want = as_pair(package(ours)), as_pair(reference(theirs))
        assert got == want, H.edges
        if H.n > 2:  # at n = 2 the earlier form looked up one pair, in vain
            assert ours.log == theirs.log, H.edges
        outcomes.add((want is None, H.is_connected, len(ours.log) > 100))
    if package is oracle.exact_hamiltonian:
        # a yes, a no after a long search and a disconnected no are all reached
        assert {(False, True, True), (True, True, True), (True, False, False)} <= outcomes
