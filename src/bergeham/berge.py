"""Berge paths and cycles, path rotation, and the rotation closure.

A Berge path alternates distinct vertices and distinct edges, each edge
containing its two flanking vertices. Rotation keeps the first vertex and
the whole vertex set fixed, reverses a suffix around a pivot edge, and
yields a path of the same length with a new endpoint; iterating from a
stuck path harvests many candidate endpoints. ``rotation_witnesses``
streams them breadth-first, each as its rotation builds it, and
``endpoint_closure`` collects the whole closure from that stream.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterator, Optional, Union

from .hypergraph import Hypergraph


@dataclass(frozen=True)
class BergePath:
    """Vertex sequence v_0..v_{l-1} with edge_ids[i] covering {v_i, v_i+1}."""

    vertices: tuple
    edge_ids: tuple

    @property
    def first(self) -> int:
        return self.vertices[0]

    @property
    def last(self) -> int:
        return self.vertices[-1]

    def __len__(self) -> int:
        return len(self.vertices)

    def reverse(self) -> "BergePath":
        return BergePath(self.vertices[::-1], self.edge_ids[::-1])

    def to_json(self) -> dict:
        return {
            "vertices": list(self.vertices),
            "edge_ids": list(self.edge_ids),
            "cycle": False,
        }


@dataclass(frozen=True)
class BergeCycle:
    """Cyclic variant: edge_ids[i] covers {v_i, v_(i+1 mod k)}."""

    vertices: tuple
    edge_ids: tuple

    def __len__(self) -> int:
        return len(self.vertices)

    def is_hamiltonian(self, n: int) -> bool:
        return len(self.vertices) == n

    def to_json(self) -> dict:
        return {
            "vertices": list(self.vertices),
            "edge_ids": list(self.edge_ids),
            "cycle": True,
        }


def verify_path(H: Hypergraph, path: BergePath, weak: bool = False) -> bool:
    """True iff the path invariants hold in H; weak mode skips only the
    distinct-edge requirement."""
    vs, es = path.vertices, path.edge_ids
    if len(vs) < 1 or len(es) != len(vs) - 1:
        return False
    if len(set(vs)) != len(vs):
        return False
    if not weak and len(set(es)) != len(es):
        return False
    for e in es:
        if not 0 <= e < H.num_edges:
            return False
    for i, e in enumerate(es):
        edge = H.edges[e]
        if vs[i] not in edge or vs[i + 1] not in edge:
            return False
    return True


def verify_cycle(H: Hypergraph, cycle: BergeCycle, weak: bool = False) -> bool:
    vs, es = cycle.vertices, cycle.edge_ids
    k = len(vs)
    if k < 2 or len(es) != k:
        return False
    if len(set(vs)) != k:
        return False
    if not weak and len(set(es)) != k:
        return False
    for e in es:
        if not 0 <= e < H.num_edges:
            return False
    for i, e in enumerate(es):
        edge = H.edges[e]
        if vs[i] not in edge or vs[(i + 1) % k] not in edge:
            return False
    return True


class CertificateError(RuntimeError):
    """A certificate that fails verification: the code that built it is
    wrong, so the answer it supports must not be reported."""


def certify(H: Hypergraph, cert: Union[BergePath, BergeCycle]):
    """Return ``cert`` when it is a valid Berge path or cycle of H; raise
    CertificateError otherwise. An explicit check, so that it also runs
    under ``python -O``."""
    if isinstance(cert, BergeCycle):
        valid = verify_cycle(H, cert)
    else:
        valid = verify_path(H, cert)
    if not valid:
        raise CertificateError(f"certificate fails verification: {cert.to_json()}")
    return cert


def _rotated(path: BergePath, e: int, pivot: int) -> BergePath:
    """Apply the suffix-reversal at 0-based pivot position; caller has
    already validated eligibility."""
    vs, es = path.vertices, path.edge_ids
    new_vs = vs[: pivot + 1] + vs[: pivot : -1]
    new_es = es[:pivot] + (e,) + es[: pivot : -1]
    return BergePath(new_vs, new_es)


@dataclass
class RotationClosure:
    """Endpoints reachable by rotation sequences fixing the first vertex,
    each with one witness path (all witnesses share vertex set and length)."""

    fixed: int
    paths: dict = field(default_factory=dict)
    rotations_applied: int = 0
    budget_exhausted: bool = False

    def endpoints(self) -> tuple:
        return tuple(self.paths)


class RotationCap:
    """A budget of ``limit`` rotations (None: no limit) for
    ``rotation_witnesses`` on its own. ``refused`` records that the
    stream asked for a rotation past the limit."""

    __slots__ = ("limit", "rotations", "refused")

    def __init__(self, limit: Optional[int] = None):
        self.limit = math.inf if limit is None else limit
        self.rotations = 0
        self.refused = False

    @property
    def used(self) -> int:
        return self.rotations

    @property
    def exhausted(self) -> bool:
        if self.rotations >= self.limit:
            self.refused = True
        return self.refused


def rotation_witnesses(
    H: Hypergraph, path: BergePath, budget
) -> Iterator[BergePath]:
    """Breadth-first rotation exploration from ``path``, streamed: yields
    ``path`` and then the first witness of each new endpoint as soon as
    its rotation builds it, so a caller that stops at a witness it can use
    stops rotating there.

    ``budget`` is the engine's search budget or a ``RotationCap``. Each
    rotation needs ``used < limit``; when that fails, the stream ends if
    ``exhausted`` confirms it. The stream counts its rotations and adds
    them to ``budget.rotations`` before each yield and before it ends, so
    the caller always sees every rotation done so far, and it re-reads
    the budget after each yield, since the caller may spend some while
    the stream waits. Every rotation counts, also one that reaches an
    endpoint already seen: that one is counted but its path is never
    built, since it could not change the closure."""
    if not verify_path(H, path):
        raise ValueError("a rotation closure requires a valid Berge path")
    yield path
    ell = len(path.vertices)
    if ell < 3:
        return
    # pivots sit at positions 0..ell-3: one at ell-2 would keep the endpoint
    limit = ell - 2
    seen = {path.last}
    edges = H.edges
    incidence = H.incidence
    positions = range(ell)
    # every witness has the vertex set of ``path``, so one map serves them
    # all: vertices off the path sit at ``ell``, past every pivot
    pos = dict.fromkeys(range(H.n), ell)
    pos_of = pos.__getitem__
    room = budget.limit - budget.used  # rotations the budget still allows
    done = 0  # rotations not yet added to the budget
    queue = [path]
    while queue:
        nxt = []
        for cur in queue:
            vs = cur.vertices
            pos.update(zip(vs, positions))
            epos = dict(zip(cur.edge_ids, positions))
            for e in incidence[vs[-1]]:
                # an edge on the path may only pivot at its own position;
                # any other pivots at each of its vertices on the path
                q = epos.get(e)
                pivots = (q,) if q is not None else sorted(map(pos_of, edges[e]))
                for q in pivots:
                    if q >= limit:
                        break
                    if done >= room:
                        budget.rotations += done
                        done = 0
                        if budget.exhausted:
                            return
                        room = budget.limit - budget.used
                    done += 1
                    # the rotation at q ends at vs[q + 1]: build it only if new
                    endpoint = vs[q + 1]
                    if endpoint not in seen:
                        seen.add(endpoint)
                        rotated = _rotated(cur, e, q)
                        nxt.append(rotated)
                        budget.rotations += done
                        yield rotated
                        room = budget.limit - budget.used
                        done = 0
        queue = nxt
    budget.rotations += done


def endpoint_closure(
    H: Hypergraph, path: BergePath, budget: Optional[int] = None
) -> RotationClosure:
    """The whole rotation closure of ``path``: ``rotation_witnesses``
    drained, keeping the first witness per endpoint in the order they were
    built. ``budget`` caps the number of rotations; None means exhaustive.
    ``budget_exhausted`` says that a rotation was refused, not that the
    count reached the cap."""
    cap = RotationCap(budget)
    paths = {w.last: w for w in rotation_witnesses(H, path, cap)}
    return RotationClosure(path.first, paths, cap.rotations, cap.refused)


def extend_at_tip(
    H: Hypergraph, path: BergePath, used: set, on_path: set
) -> Optional[BergePath]:
    """``path`` extended at its endpoint through the first unused edge there
    that holds a vertex off the path (its first such vertex); None when the
    endpoint is stuck. ``used`` and ``on_path`` are the path's edge ids and
    vertices as sets."""
    for e in H.incidence[path.last]:
        if e not in used:
            for v in H.edges[e]:
                if v not in on_path:
                    return BergePath(path.vertices + (v,), path.edge_ids + (e,))
    return None


def closing_edge(H: Hypergraph, path: BergePath, used: set) -> Optional[int]:
    """The lowest-id edge not in ``used`` through both ends of the path, or
    None (always for a single vertex: no edge holds a vertex twice)."""
    for e in H.edges_with_pair(path.vertices[0], path.vertices[-1]):
        if e not in used:
            return e
    return None


def close_with(path: BergePath, e: int) -> BergeCycle:
    """Close a path into a cycle with edge e covering (last, first)."""
    return BergeCycle(path.vertices, path.edge_ids + (e,))


def reopen_cycle(H: Hypergraph, cycle: BergeCycle) -> Optional[BergePath]:
    """Turn a non-spanning cycle into a strictly longer path using an edge
    that leaves the cycle's vertex set; None when no such edge exists
    (then the cycle's vertices form a union of components).

    If the leaving edge is one of the cycle's own edges, that edge is the
    one removed, which frees it to carry the new endpoint.
    """
    on_cycle = set(cycle.vertices)
    k = len(cycle.vertices)
    position = {v: i for i, v in enumerate(cycle.vertices)}
    cycle_edges = set(cycle.edge_ids)
    for e in range(H.num_edges):
        edge = H.edges[e]
        inside = [v for v in edge if v in on_cycle]
        outside = [v for v in edge if v not in on_cycle]
        if not inside or not outside:
            continue
        w = min(outside)
        if e in cycle_edges:
            j = cycle.edge_ids.index(e)
        else:
            j = min(position[v] for v in inside)
        # drop edge j (covering v_j -> v_j+1); path runs v_j+1 ... v_j
        vs = cycle.vertices[j + 1 :] + cycle.vertices[: j + 1]
        es = cycle.edge_ids[j + 1 :] + cycle.edge_ids[:j]
        return BergePath(vs + (w,), es + (e,))
    return None


# -- obstructions ---------------------------------------------------------------


@dataclass(frozen=True)
class Obstruction:
    """A reason why a host on n >= 3 vertices has no Berge Hamilton cycle.

    - ``twin``: ``vertices`` are two degree-2 vertices with the same two
      edges. Each must use both, and two vertices of a cycle on n >= 3
      vertices never share both of their cycle edges.
    - ``overload``: ``vertices`` are three degree-2 vertices of ``edge``.
      Each must use that edge, which serves two consecutive vertices only.
    - ``bridge``: every edge but ``edge`` lies inside ``side`` or outside
      it. A cycle through every vertex crosses that cut at least twice,
      through distinct edges.
    """

    kind: str
    edge: Optional[int] = None
    vertices: tuple = ()
    side: tuple = ()


def obstruction(H: Hypergraph) -> Optional[Obstruction]:
    """A twin, overload or bridge obstruction of the connected host H, or
    None when it has none of them. Deterministic: the first twin pair in
    vertex order, else the lowest-id overloaded edge, else the lowest-id
    bridge. The twin and overload checks take O(n), the bridge search
    O(n + m)."""
    if H.n < 3 or not H.is_connected:
        raise ValueError("obstruction needs a connected host on at least 3 vertices")
    twins: dict = {}  # edge pair -> the degree-2 vertex that has it
    held: dict = {}  # edge id -> its degree-2 vertices, in vertex order
    for v, inc in enumerate(H.incidence):
        if len(inc) == 2:
            if inc in twins:
                return Obstruction("twin", vertices=(twins[inc], v))
            twins[inc] = v
            for e in inc:
                held.setdefault(e, []).append(v)
    for e in sorted(held):
        if len(held[e]) >= 3:
            return Obstruction("overload", edge=e, vertices=tuple(held[e][:3]))
    sides = _bridge_sides(H)
    if sides:
        e = min(sides)
        return Obstruction("bridge", edge=e, side=sides[e])
    return None


def _bridge_sides(H: Hypergraph) -> dict:
    """Every bridge of the connected host H, mapped to one side of its cut.

    An edge is a bridge when removing it disconnects H, that is when its
    node is a cut vertex of the vertex-edge incidence graph, whose nodes are the vertices 0..n-1 and the edges
    n..n+m-1. One iterative lowpoint DFS from vertex 0 finds them all
    (Hopcroft-Tarjan): an edge node x cuts off the subtree of a child c
    with low[c] >= disc[x], whose vertices are the side given."""
    n = H.n
    adjacent = [[n + e for e in inc] for inc in H.incidence] + list(H.edges)
    total = len(adjacent)
    disc = [0] * total  # DFS discovery time from 1; 0 while unseen
    low = [0] * total
    last = [0] * total  # latest discovery time in the node's subtree
    cut: dict = {}  # edge id -> the child whose subtree it cuts off
    clock = disc[0] = low[0] = 1
    stack = [(0, -1, iter(adjacent[0]))]
    while stack:
        x, parent, neighbours = stack[-1]
        for y in neighbours:
            if y == parent:
                continue
            if disc[y]:
                if disc[y] < low[x]:
                    low[x] = disc[y]
            else:
                clock += 1
                disc[y] = low[y] = clock
                stack.append((y, x, iter(adjacent[y])))
                break
        else:
            stack.pop()
            last[x] = clock
            if parent >= 0:
                if low[x] < low[parent]:
                    low[parent] = low[x]
                if parent >= n and low[x] >= disc[parent]:
                    cut.setdefault(parent - n, x)
    return {
        e: tuple(v for v in range(n) if disc[c] <= disc[v] <= last[c])
        for e, c in cut.items()
    }


def certify_obstruction(H: Hypergraph, cert: Obstruction) -> Obstruction:
    """Return ``cert`` when it proves that H has no Berge Hamilton cycle;
    raise CertificateError otherwise. Shares no code with ``obstruction``
    and is an explicit check, so that it also runs under ``python -O``."""
    n, edges, vs = H.n, H.edges, cert.vertices

    def edge_ids(v) -> set:
        return {i for i, edge in enumerate(edges) if v in edge}

    has_edge = isinstance(cert.edge, int) and 0 <= cert.edge < len(edges)
    if cert.kind == "twin":
        valid = (
            len(vs) == 2
            and vs[0] != vs[1]
            and len(edge_ids(vs[0])) == 2
            and edge_ids(vs[0]) == edge_ids(vs[1])
        )
    elif cert.kind == "overload":
        valid = (
            has_edge
            and len(set(vs)) == len(vs) == 3
            and all(v in edges[cert.edge] and len(edge_ids(v)) == 2 for v in vs)
        )
    elif cert.kind == "bridge":
        side = set(cert.side)
        valid = (
            has_edge
            and len(side) == len(cert.side)
            and side <= set(range(n))
            and 0 < len(side) < n
            and all(
                i == cert.edge or side.isdisjoint(edge) or side.issuperset(edge)
                for i, edge in enumerate(edges)
            )
        )
    else:
        valid = False
    if n < 3 or not valid:
        raise CertificateError(f"obstruction fails verification: {cert!r}")
    return cert
