"""Constructive search for Berge Hamilton cycles.

One search core serves both entry points. ``_search`` keeps a Berge path
and alternates greedy extension at either end (``_grow``) with rotation:
``_witnesses`` streams endpoint-pair witnesses from rotation closures at
the tip and then at the other end of each tip witness, each as soon as
its rotation builds it, and ``_try_endpoint`` takes a one-step win from
a witness, extending it at its tip or closing it through both ends
(reopening a cycle that does not span into a longer path). Rotation
stops at the first witness that wins. The search stops with a Hamilton
cycle or says why it could not find one: the path spans but cannot be
closed, the budget ran out, or the path is stuck.

``decide_hamiltonian`` runs the core once per restart vertex. The engine
is one-sided: "yes" always ships a certificate checked in ``_yes``, while
"no" only comes from disconnection or the exact oracle.
``absorption_run`` runs the core once per step on a sparse extracted
subgraph, and between steps adds pairs (or single edges) from the host
that verifiably lengthen the path or close a spanning cycle. A candidate
pair is decided by its pivot sets, the path positions its two edges can
close at, without building a graph; only the pair that wins is built.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Tuple

from .berge import (
    BergeCycle,
    BergePath,
    CertificateError,
    certify,
    close_with,
    closing_edge,
    endpoint_closure,  # unused here; bench/workloads.py traces engine.endpoint_closure
    extend_at_tip,
    reopen_cycle,
    rotation_witnesses,
    verify_cycle,
)
from .hypergraph import Hypergraph
from .oracle import DEFAULT_GUARD, exact_hamiltonian
from .rng import SplitMix64, derive_seed

DEFAULT_BUDGET = 200_000
RESTARTS = 8  # start vertices a decision searches from, at most

YES = "yes"
NO = "no"
UNKNOWN = "unknown"

# Why a search stopped without a cycle.
SPANNING_UNCLOSABLE = "spanning_unclosable"
BUDGET = "budget"
STUCK = "stuck"


@dataclass
class DecisionOutcome:
    verdict: str
    certificate: Optional[BergeCycle] = None
    provenance: str = "rotation"
    effort: dict = field(default_factory=dict)
    best_length: int = 0

    def to_json(self) -> dict:
        return {
            "verdict": self.verdict,
            "certificate": self.certificate.to_json() if self.certificate else None,
            "provenance": self.provenance,
            "effort": self.effort,
            "best_length": self.best_length,
        }


class _Budget:
    __slots__ = ("limit", "rotations", "extensions", "closures", "restarts")

    def __init__(self, limit: int):
        self.limit = limit
        self.rotations = 0
        self.extensions = 0
        self.closures = 0
        self.restarts = 0

    @property
    def used(self) -> int:
        return self.rotations + self.extensions

    @property
    def exhausted(self) -> bool:
        return self.used >= self.limit

    def effort(self) -> dict:
        return {
            "rotations": self.rotations,
            "extensions": self.extensions,
            "closures": self.closures,
            "restarts": self.restarts,
        }


def _yes(
    H: Hypergraph, cycle: BergeCycle, tracker: _Budget, provenance: str = "rotation"
) -> DecisionOutcome:
    """The one place a "yes" is built: its certificate must be a Berge
    Hamilton cycle of H, or CertificateError is raised."""
    if len(cycle) != H.n:
        raise CertificateError(
            f"a {len(cycle)}-vertex cycle is no Hamilton cycle of {H.n} vertices"
        )
    return DecisionOutcome(
        YES,
        certificate=certify(H, cycle),
        provenance=provenance,
        effort=tracker.effort(),
        best_length=H.n,
    )


def initial_path(H: Hypergraph, start: Optional[int] = None) -> BergePath:
    """Single-vertex path at the max-degree vertex (ties to the smallest)."""
    if start is None:
        degs = H.degrees()
        start = max(range(H.n), key=lambda v: (degs[v], -v))
    return BergePath((start,), ())


def greedy_path(
    H: Hypergraph, start: Optional[int] = None, budget: int = DEFAULT_BUDGET
) -> BergePath:
    """Greedily extended path from ``start`` (default: max-degree vertex),
    stuck at both ends."""
    return _grow(H, initial_path(H, start), _Budget(budget))


def _grow(H: Hypergraph, path: BergePath, budget: _Budget) -> BergePath:
    """Greedy extension at the current end, switching ends when it is
    stuck, until both are; returns the final path oriented with its
    original first vertex first."""
    flipped = False
    used = set(path.edge_ids)
    on_path = set(path.vertices)
    while not budget.exhausted:
        longer = extend_at_tip(H, path, used, on_path)
        if longer is None:
            path, flipped = path.reverse(), not flipped
            longer = extend_at_tip(H, path, used, on_path)
            if longer is None:
                break
        budget.extensions += 1
        path = longer
        used.add(path.edge_ids[-1])
        on_path.add(path.last)
    return path.reverse() if flipped else path


def _try_endpoint(
    H: Hypergraph, cand: BergePath, budget: _Budget, on_path: set
) -> Tuple[Optional[BergeCycle], Optional[BergePath]]:
    """From a witness, try a one-step win: extend at its tip, or close it
    with an unused edge through both ends. ``on_path`` is the witness's
    vertex set, shared by every witness of one harvest. Returns (cycle,
    None) when the closed cycle spans, (None, longer path) after an
    extension or after reopening the cycle, and (None, None) otherwise."""
    used = set(cand.edge_ids)
    longer = None
    if len(cand.vertices) < H.n:
        longer = extend_at_tip(H, cand, used, on_path)
    if longer is None:
        e = closing_edge(H, cand, used)
        if e is None:
            return None, None
        cycle = close_with(cand, e)
        if len(cycle) == H.n:
            return cycle, None
        longer = reopen_cycle(H, cycle)
        if longer is None:
            return None, None
    budget.extensions += 1
    return None, longer


def _witnesses(H: Hypergraph, path: BergePath, budget: _Budget):
    """Endpoint-pair witnesses of ``path``, streamed: the rotation closure
    at its tip (always started), then, while the budget lasts, the closure
    at the other end of each tip witness. Each witness is yielded as soon
    as its rotation builds it, so a caller that stops at a winning witness
    stops rotating there. All share the vertex set of ``path``."""
    budget.closures += 1
    tip = []
    for cand in rotation_witnesses(H, path, budget):
        tip.append(cand)
        yield cand
    for cand in tip:
        if budget.exhausted:
            return
        budget.closures += 1
        yield from rotation_witnesses(H, cand.reverse(), budget)


def _improve(
    H: Hypergraph, path: BergePath, budget: _Budget
) -> Tuple[Optional[BergeCycle], Optional[BergePath]]:
    """``_try_endpoint`` on the first witness of ``path`` that wins, or
    (None, None) when none does."""
    on_path = set(path.vertices)
    for cand in _witnesses(H, path, budget):
        cycle, longer = _try_endpoint(H, cand, budget, on_path)
        if cycle or longer:
            return cycle, longer
    return None, None


def _search(
    H: Hypergraph, path: BergePath, tracker: _Budget
) -> Tuple[Optional[BergeCycle], BergePath, Optional[str]]:
    """Grow ``path``; once it spans, close it directly or through rotated
    witnesses, and otherwise improve it by rotation and grow again.

    Returns (cycle, last path, stop): a Hamilton cycle with stop None, or
    None and why the search stopped (SPANNING_UNCLOSABLE, BUDGET or STUCK).
    """
    while True:
        path = _grow(H, path, tracker)
        if len(path) == H.n:
            cycle, _ = _try_endpoint(H, path, tracker, set(path.vertices))
            if cycle is None and not tracker.exhausted:
                cycle, _ = _improve(H, path, tracker)
            return cycle, path, None if cycle else SPANNING_UNCLOSABLE
        if tracker.exhausted:
            return None, path, BUDGET
        # _try_endpoint returns a cycle only when it spans, and the
        # witnesses of a path that does not span do not
        _, longer = _improve(H, path, tracker)
        if longer is None:
            return None, path, STUCK
        path = longer


def decide_hamiltonian(
    H: Hypergraph,
    budget: int = DEFAULT_BUDGET,
    seed: int = 0,
    fallback: bool = False,
) -> DecisionOutcome:
    """Search for a Berge Hamilton cycle by rotation-extension from at
    most ``RESTARTS`` start vertices, all but the first ordered by the seed.

    With ``fallback`` enabled and the host within the oracle guard, an
    exhausted search escalates to the exact oracle instead of returning
    unknown.
    """
    if H.n < 3:
        raise ValueError(f"need at least 3 vertices, got n={H.n}")
    tracker = _Budget(budget)
    if not H.is_connected:
        return DecisionOutcome(NO, effort=tracker.effort())

    degs = H.degrees()
    order = sorted(range(H.n), key=lambda v: (-degs[v], v))
    anchor, rest = order[0], order[1:]
    SplitMix64(derive_seed(seed, 0x5EED)).shuffle(rest)
    starts = [anchor] + rest

    best_len = 0
    for start in starts[:RESTARTS]:
        if tracker.exhausted and best_len > 0:
            break
        tracker.restarts += 1
        cycle, path, _ = _search(H, initial_path(H, start), tracker)
        if cycle is not None:
            return _yes(H, cycle, tracker)
        best_len = max(best_len, len(path))

    if fallback and DEFAULT_GUARD.admits(H):
        cert = exact_hamiltonian(H)
        if cert is not None:
            return _yes(H, cert, tracker, provenance="oracle")
        return DecisionOutcome(
            NO, provenance="oracle", effort=tracker.effort(), best_length=best_len
        )
    return DecisionOutcome(UNKNOWN, effort=tracker.effort(), best_length=best_len)


# -- expander extraction and absorption ---------------------------------------


def default_d0(n: int, eps: float) -> int:
    """Degree cap for extraction; the asymptotic eps^8 * log n is far below
    1 at desk scale, so a floor of 2 keeps the extracted subgraph useful."""
    return max(2, math.ceil(eps**8 * math.log(n)))


def extract_expander(G: Hypergraph, d0: int, seed: int = 0) -> Hypergraph:
    """Sparse spanning subgraph: every vertex keeps all incident edges if
    it has at most d0 of them, otherwise a uniform d0-subset; the union is
    returned (at most n*d0 edges)."""
    if d0 < 1:
        raise ValueError(f"d0 must be at least 1, got {d0}")
    rng = SplitMix64(derive_seed(seed, 0xD0))
    chosen = set()
    for v in range(G.n):
        inc = G.incidence[v]
        if len(inc) <= d0:
            chosen.update(inc)
        else:
            chosen.update(rng.choose(list(inc), d0))
    return G.subgraph(sorted(chosen))


@dataclass
class ConnectOutcome:
    graph: Hypergraph
    connected: bool
    added: tuple = ()
    obstruction: Optional[tuple] = None


def connect_components(G: Hypergraph, gamma: Hypergraph) -> ConnectOutcome:
    """Add crossing edges of G one at a time until gamma is connected;
    reports the obstructing component split if G itself has none (then G
    is disconnected across that split). Each added edge is the first of G
    that leaves the component of vertex 0; no gamma edge does, so the
    grown graph is built once, at the end."""
    component_of = {v: comp for comp in gamma.components for v in comp}
    comp = set(gamma.components[0])
    added = []
    while len(comp) < G.n:
        crossing = next(
            (e for e in G.edges if 0 < sum(v in comp for v in e) < len(e)), None
        )
        if crossing is None:
            break
        added.append(crossing)
        comp.update(*(component_of[v] for v in crossing))
    graph = Hypergraph(G.n, G.r, list(gamma.edges) + added) if added else gamma
    rest = tuple(v for v in range(G.n) if v not in comp)
    split = (tuple(sorted(comp)), rest) if rest else None
    return ConnectOutcome(graph, not rest, tuple(added), split)


def _booster_candidates(G: Hypergraph, gamma: Hypergraph, v: int) -> list:
    """G-edges incident to v and absent from gamma, lexicographically."""
    return sorted(
        G.edges[e] for e in G.incidence[v] if not gamma.has_edge(G.edges[e])
    )


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


def _remap_to_host(G: Hypergraph, gamma: Hypergraph, cycle: BergeCycle) -> BergeCycle:
    """Certificates built inside gamma cite gamma-local edge ids; every
    gamma edge is a host edge, so re-key them for host-level verification."""
    return BergeCycle(
        cycle.vertices,
        tuple(G.edge_id_of(gamma.edges[e]) for e in cycle.edge_ids),
    )


def absorption_run(
    G: Hypergraph,
    d0: Optional[int] = None,
    budget: int = DEFAULT_BUDGET,
    seed: int = 0,
    eps: float = 0.1,
) -> Tuple[DecisionOutcome, list]:
    """Extract a sparse subgraph, connect it, then repeatedly absorb edge
    pairs (or single edges) from the host that verifiably lengthen the
    working path or close a Hamilton cycle. Each step that succeeds
    lengthens the path or makes it a spanning path the next search
    closes, so at most n - 1 absorption steps succeed.

    Returns the decision outcome plus a trace of extraction sizes and every
    absorbed addition.
    """
    if d0 is None:
        d0 = default_d0(G.n, eps)
    tracker = _Budget(budget)
    trace: list = []
    if G.n < 3 or not G.is_connected or budget <= 0:
        verdict = NO if not G.is_connected else UNKNOWN
        return DecisionOutcome(verdict, effort=tracker.effort()), trace

    gamma0 = extract_expander(G, d0, seed)
    connect = connect_components(G, gamma0)
    gamma = connect.graph
    trace.append(
        {
            "event": "extract",
            "d0": d0,
            "gamma0_edges": gamma0.num_edges,
            "connect_added": [list(e) for e in connect.added],
            "gamma_edges": gamma.num_edges,
        }
    )

    path = initial_path(gamma)
    for step in range(G.n):
        cycle, path, stop = _search(gamma, path, tracker)
        if cycle is not None:
            trace.append({"event": "hamiltonian", "step": step})
            return _yes(G, _remap_to_host(G, gamma, cycle), tracker), trace
        if stop == BUDGET:
            break
        boosted = _absorb_step(G, gamma, path, tracker, trace, step)
        if boosted is None:
            break
        gamma, path = boosted

    return (
        DecisionOutcome(UNKNOWN, effort=tracker.effort(), best_length=len(path)),
        trace,
    )


def _absorb_step(G, gamma, path, tracker, trace, step):
    """Find host edges outside gamma that improve the stuck path, scanning
    endpoint pairs from rotation closures at both ends. Returns the new
    (gamma, path) or None when nothing improves.

    A pair (e_s, e_t) closes a witness v_0..v_(l-1) into a cycle exactly
    when some pivot j has v_(j+1) in e_s and v_j in e_t, so each pair is
    decided by whether its two pivot sets meet, and gamma plus the pair
    is built only for the pair that wins. Every pair tested counts as an
    extension."""
    target = len(path)
    on_path = set(path.vertices)
    for witness in list(_witnesses(gamma, path, tracker)):
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
                cycle, better = _pair_boost(
                    gamma2, witness.vertices, witness.edge_ids, G.n
                )
                if cycle is not None:
                    trace.append(_absorb_entry(step, [e_s, e_t], len(cycle), gamma2))
                    return gamma2, _cycle_as_path(cycle)
                if better is not None and len(better) > target:
                    trace.append(_absorb_entry(step, [e_s, e_t], len(better), gamma2))
                    return gamma2, better
    return None


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
