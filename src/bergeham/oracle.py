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


class _PairMatching:
    """The consecutive pairs of a vertex sequence on ``H``, each matched to
    its own edge: ``push`` adds the next pair's candidate edges and keeps
    the pair only if every pair can still get a distinct edge, ``pop``
    drops the last pair and frees its edge, ``edges`` lists each pair's."""

    __slots__ = ("cands", "edge_of_slot", "slot_of_edge")

    def __init__(self, H: Hypergraph):
        self.cands: list = []
        self.edge_of_slot: list = [None] * H.n
        self.slot_of_edge: list = [None] * H.num_edges

    def push(self, pair_edges: tuple) -> bool:
        self.cands.append(pair_edges)
        if self._augment(len(self.cands) - 1, set()):
            return True
        self.cands.pop()
        return False

    def pop(self) -> None:
        self.cands.pop()
        self.slot_of_edge[self.edge_of_slot[len(self.cands)]] = None

    def edges(self) -> tuple:
        return tuple(self.edge_of_slot[: len(self.cands)])

    def _augment(self, slot: int, visited: set) -> bool:
        """Kuhn augmenting step: try to give ``slot`` an edge, re-routing
        earlier slots along an alternating path. Mutates only on success."""
        for e in self.cands[slot]:
            if e in visited:
                continue
            visited.add(e)
            owner = self.slot_of_edge[e]
            if owner is None or self._augment(owner, visited):
                self.slot_of_edge[e] = slot
                self.edge_of_slot[slot] = e
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
    # below 3 vertices a cycle repeats its one pair, which no two r-sets share
    if n < 3 or H.num_edges < n or H.min_degree() < 2 or not H.is_connected:
        return None

    seq = [0]
    in_seq = [v == 0 for v in range(n)]
    pairs = _PairMatching(H)

    def place() -> bool:
        if len(seq) == n:
            return pairs.push(H.edges_with_pair(seq[-1], 0))
        last_slot = len(seq) == n - 1
        for u in range(1, n):
            if in_seq[u] or (last_slot and u < seq[1]):
                continue  # reflection: keep second vertex below last
            pair_edges = H.edges_with_pair(seq[-1], u)
            if pair_edges and pairs.push(pair_edges):
                seq.append(u)
                in_seq[u] = True
                if place():
                    return True
                in_seq[u] = False
                seq.pop()
                pairs.pop()
        return False

    if place():
        return certify(H, BergeCycle(tuple(seq), pairs.edges()))
    return None


def exact_longest_path(H: Hypergraph, guard: OracleGuard = DEFAULT_GUARD) -> BergePath:
    """A maximum-length verified Berge path, ties broken lexicographically
    by vertex sequence."""
    _check_guard(H, guard)
    n = H.n
    best: Tuple[tuple, tuple] = ((0,), ())
    usable = [v for v in range(n) if H.degree(v) > 0]

    def extend() -> None:
        nonlocal best
        depth = len(seq)
        if depth > len(best[0]):
            best = (tuple(seq), pairs.edges())
        # even routing through every still-usable vertex cannot beat best
        if depth + sum(1 for v in usable if not in_seq[v]) <= len(best[0]):
            return
        for u in range(n):
            if in_seq[u]:
                continue
            pair_edges = H.edges_with_pair(seq[-1], u)
            if pair_edges and pairs.push(pair_edges):
                seq.append(u)
                in_seq[u] = True
                extend()
                in_seq[u] = False
                seq.pop()
                pairs.pop()

    for start in range(n):
        seq = [start]
        in_seq = [v == start for v in range(n)]
        pairs = _PairMatching(H)
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
        if gamma.has_edge(e):
            raise ValueError(f"candidate {e} is already an edge of the host")
    boosted = gamma.extended([e1, e2])  # refuses a bad arity or vertex
    if exact_hamiltonian(gamma, guard) is not None:
        raise ValueError("booster pairs are only defined for non-Hamiltonian hosts")
    if exact_hamiltonian(boosted, guard) is not None:
        return True
    base_len = len(exact_longest_path(gamma, guard))
    return len(exact_longest_path(boosted, guard)) > base_len
