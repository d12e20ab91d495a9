"""Exact small-instance ground truth by exhaustive search.

A candidate vertex order induces consecutive pairs; the order is realizable
iff the bipartite graph from pairs to the edges containing them has a
matching saturating the pairs (a system of distinct representatives). The
search backtracks over vertex sequences and keeps the matching incrementally
feasible, so infeasible prefixes are cut early.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

from .berge import BergeCycle, BergePath, certify
from .hypergraph import CapacityError, Hypergraph


@dataclass(frozen=True)
class OracleGuard:
    """Hard size limits; requests above them are rejected, never truncated."""

    max_n: int = 10
    max_edges: int = 400

    def admits(self, H: Hypergraph) -> bool:
        return H.n <= self.max_n and H.num_edges <= self.max_edges


DEFAULT_GUARD = OracleGuard()


def _check_guard(H: Hypergraph, guard: OracleGuard) -> None:
    if H.n > guard.max_n:
        raise CapacityError(f"oracle guard: n={H.n} exceeds max_n={guard.max_n}")
    if H.num_edges > guard.max_edges:
        raise CapacityError(
            f"oracle guard: {H.num_edges} edges exceed max_edges={guard.max_edges}"
        )


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


def exact_is_booster(
    gamma: Hypergraph,
    pair: Tuple[tuple, tuple],
    guard: OracleGuard = DEFAULT_GUARD,
) -> bool:
    """True iff adding the two non-edges makes the host Berge Hamiltonian
    or strictly lengthens its longest Berge path. Only defined for
    non-Hamiltonian hosts. It shares no search with the engine, so the
    tests use it to check the pairs ``engine.absorption_run`` absorbs."""
    _check_guard(gamma, guard)
    e1, e2 = (tuple(sorted(e)) for e in pair)
    if e1 == e2:
        raise ValueError("a booster pair needs two distinct candidate edges")
    for e in (e1, e2):
        if len(e) != gamma.r or len(set(e)) != gamma.r:
            raise ValueError(f"candidate {e} is not an {gamma.r}-set")
        if min(e) < 0 or max(e) >= gamma.n:
            raise ValueError(f"candidate {e} has a vertex out of range")
        if gamma.has_edge(e):
            raise ValueError(f"candidate {e} is already an edge of the host")
    if exact_hamiltonian(gamma, guard) is not None:
        raise ValueError("booster pairs are only defined for non-Hamiltonian hosts")
    boosted = gamma.extended([e1, e2])
    if exact_hamiltonian(boosted, guard) is not None:
        return True
    base_len = len(exact_longest_path(gamma, guard))
    return len(exact_longest_path(boosted, guard)) > base_len
