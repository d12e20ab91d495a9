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
subgraph, joined up by crossing host edges that it finds by vertex
bitmask, and between steps adds pairs (or single edges) from the host
that verifiably lengthen the path or close a spanning cycle. Each grown
graph is ``Hypergraph.extended`` from the last, which checks only the
edges it adds. When a spanning path does not close directly, the
subgraph is checked for an obstruction (``berge.obstruction``,
certified before it is trusted); with one, no rotation can close the
path, so it goes straight to the absorption step. A search that ends
in a cycle, or stuck, computes no obstruction. The step streams its
witnesses as the search does, so it stops rotating at the witness it
absorbs at. A pair (e_s, e_t) is the search's own two moves: a rotation
of a witness with e_t at a pivot j, then the closing step through e_s.
Each pivot j indexes the first e_t that can rotate there, so the first
e_t that pairs with an e_s is read off e_s's own pivots, without a scan
over the others and without building a graph; only the pair that wins
is built. Both entry points spend a ``berge.Budget``, as
``berge.endpoint_closure`` does.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Optional, Tuple

from .berge import (
    BergeCycle,
    BergePath,
    Budget,
    CertificateError,
    certify,
    certify_obstruction,
    close_with,
    closing_edge,
    endpoint_closure,  # unused here; bench/workloads.py traces engine.endpoint_closure
    extend_at_tip,
    obstruction,
    reopen_cycle,
    rotated,
    rotation_witnesses,
)
from .hypergraph import Hypergraph  # bench/workloads.py traces engine.Hypergraph
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


def _yes(
    H: Hypergraph, cycle: BergeCycle, tracker: Budget, provenance: str = "rotation"
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
    return _grow(H, initial_path(H, start), Budget(budget))


def _grow(H: Hypergraph, path: BergePath, budget: Budget) -> BergePath:
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
    H: Hypergraph, cand: BergePath, budget: Budget, on_path: set
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
        cycle, longer = _spans_or_reopen(H, close_with(cand, e))
        if longer is None:
            return cycle, None
    budget.extensions += 1
    return None, longer


def _spans_or_reopen(
    H: Hypergraph, cycle: BergeCycle
) -> Tuple[Optional[BergeCycle], Optional[BergePath]]:
    """(cycle, None) when ``cycle`` spans H, else (None, the longer path
    that reopening it gives, None when no edge leaves it)."""
    if len(cycle) == H.n:
        return cycle, None
    return None, reopen_cycle(H, cycle)


def _witnesses(H: Hypergraph, path: BergePath, budget: Budget):
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
    H: Hypergraph, path: BergePath, budget: Budget
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
    H: Hypergraph,
    path: BergePath,
    tracker: Budget,
    blocked: Callable[[], bool] = lambda: False,
) -> Tuple[Optional[BergeCycle], BergePath, Optional[str]]:
    """Grow ``path``; once it spans, close it directly or through rotated
    witnesses, and otherwise improve it by rotation and grow again.
    ``blocked()`` says that H has a certified obstruction, so no rotation
    can close a spanning path. It is called only when a spanning path's
    direct close fails with budget left, and if it is true no rotation is
    tried.

    Returns (cycle, last path, stop): a Hamilton cycle with stop None, or
    None and why the search stopped: BUDGET whenever the budget is spent,
    also when it refused the rotations that might have closed or
    lengthened the path, else SPANNING_UNCLOSABLE or STUCK.
    """
    while True:
        path = _grow(H, path, tracker)
        if len(path) == H.n:
            cycle, _ = _try_endpoint(H, path, tracker, set(path.vertices))
            if cycle is None and not tracker.exhausted and not blocked():
                cycle, _ = _improve(H, path, tracker)
            if cycle is not None:
                return cycle, path, None
            return None, path, BUDGET if tracker.exhausted else SPANNING_UNCLOSABLE
        if tracker.exhausted:
            return None, path, BUDGET
        # _try_endpoint returns a cycle only when it spans, and the
        # witnesses of a path that does not span do not
        _, longer = _improve(H, path, tracker)
        if longer is None:
            return None, path, BUDGET if tracker.exhausted else STUCK
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
    tracker = Budget(budget)
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
    grown graph is built once, at the end. That component is kept as a
    vertex bitmask ``comp``, so an edge of mask m crosses it exactly when
    ``m & comp`` and ``m & ~comp`` are both nonzero."""
    mask_of = {}  # vertex -> vertex bitmask of its gamma component
    for members in gamma.components:
        mask = sum(1 << v for v in members)
        mask_of.update(dict.fromkeys(members, mask))
    comp = mask_of[0]
    added = []
    # each added edge joins at least one more component to comp
    for _ in gamma.components[1:]:
        i = next(
            (i for i, m in enumerate(G.edge_masks) if m & comp and m & ~comp), None
        )
        if i is None:
            break
        added.append(G.edges[i])
        for v in G.edges[i]:
            comp |= mask_of[v]
    graph = gamma.extended(added) if added else gamma
    inside = tuple(v for v in range(G.n) if comp >> v & 1)
    rest = tuple(v for v in range(G.n) if not comp >> v & 1)
    split = (inside, rest) if rest else None
    return ConnectOutcome(graph, not rest, tuple(added), split)


def _booster_candidates(G: Hypergraph, gamma: Hypergraph, v: int) -> list:
    """G-edges incident to v and absent from gamma, lexicographically."""
    edges, in_gamma = G.edges, gamma._edge_index  # both keyed by canonical edge
    return sorted(edges[e] for e in G.incidence[v] if edges[e] not in in_gamma)


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
) -> Tuple[DecisionOutcome, list]:
    """Extract a sparse subgraph, connect it, then repeatedly absorb edge
    pairs (or single edges) from the host that verifiably lengthen the
    working path or close a Hamilton cycle. Each step that succeeds
    lengthens the path or makes it a spanning path the next search
    closes, so at most n - 1 absorption steps succeed. When a search's
    spanning path does not close directly, the working subgraph is
    checked for a certified obstruction; with one, the path is absorbed
    at once rather than rotated.

    Returns the decision outcome plus a trace of extraction sizes and every
    absorbed addition.
    """
    if d0 is None:
        d0 = default_d0(G.n, 0.1)
    tracker = Budget(budget)
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
        cycle, path, stop = _search(gamma, path, tracker, partial(_obstructed, gamma))
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


def _obstructed(H: Hypergraph) -> bool:
    """Whether H has an obstruction, which is certified before it is
    trusted: ``certify_obstruction`` raises unless it holds."""
    blocker = obstruction(H)
    if blocker is not None:
        certify_obstruction(H, blocker)
    return blocker is not None


def _absorb_step(G, gamma, path, tracker, trace, step):
    """Find host edges outside gamma that improve the stuck path, scanning
    endpoint pairs from rotation closures at both ends. Returns the new
    (gamma, path) or None when nothing improves.

    The witnesses are streamed, so the step stops rotating at the one it
    absorbs at, and the extensions its candidate pairs count share the
    budget with the rotations still to come.

    A pair (e_s, e_t) closes a witness v_0..v_(l-1) into a cycle exactly
    when some pivot j has v_(j+1) in e_s and v_j in e_t: rotating at j
    with e_t makes v_(j+1) the tip, and e_s closes it. So each pair is
    decided by whether its two pivot sets meet, and gamma plus the pair
    is built only for the pair that wins. The pairs of one e_s are taken
    in the order of ``cands_t``; the first that wins is the first e_t at
    any of e_s's pivots. Every pair before it, and the winner, counts as
    an extension, as if each had been tested, and the scan stops once the
    budget is spent.

    Gamma is connected, so the first tip edge that leaves the path or
    holds s, and the first pair whose pivot sets meet, always lengthen
    the path or close a spanning cycle."""
    on_path = set(path.vertices)
    for witness in _witnesses(gamma, path, tracker):
        s, t = witness.first, witness.last
        cands_t = _booster_candidates(G, gamma, t)
        # single-edge absorption: extend at the tip or close through both ends
        for edge in cands_t:
            if s in edge or not on_path.issuperset(edge):
                gamma2 = gamma.extended([edge])
                won = _try_endpoint(gamma2, witness, tracker, on_path)
                return _absorbed(trace, step, [edge], gamma2, *won)
        # paired absorption: rotate with e_t, then close with e_s. No
        # t-candidate holds s, or it was absorbed above, so no e_s is an e_t.
        pos = {v: j for j, v in enumerate(witness.vertices)}
        first_t: dict = {}  # pivot j -> the first index of cands_t holding v_j
        for k, e_t in enumerate(cands_t):
            for v in e_t:
                if v in pos:
                    first_t.setdefault(pos[v], k)
        last = len(cands_t)
        for e_s in _booster_candidates(G, gamma, s):
            room = tracker.limit - tracker.used  # pairs the budget still allows
            if room <= 0:
                return None
            pivots_s = {pos[v] - 1 for v in e_s if v in pos}
            pivots_s.discard(-1)  # e_s holds s = v_0, which follows no pivot
            if not pivots_s:
                continue
            win = min((first_t[j] for j in pivots_s if j in first_t), default=last)
            tested = min(win + 1, last)  # the pairs up to the winner, or all
            if tested > room:
                tracker.extensions += room
                return None
            tracker.extensions += tested
            if win == last:
                continue
            e_t = cands_t[win]
            j = min(pivots_s.intersection(pos[v] for v in e_t if v in pos))
            gamma2 = gamma.extended([e_s, e_t])
            m = gamma2.num_edges  # e_s and e_t hold the last two edge ids
            cycle = certify(gamma2, close_with(rotated(witness, m - 1, j), m - 2))
            won = _spans_or_reopen(gamma2, cycle)
            return _absorbed(trace, step, [e_s, e_t], gamma2, *won)
    return None


def _absorbed(trace, step, edges, gamma2, cycle, longer):
    """Record an absorption of ``edges`` into ``gamma2`` and return the new
    (gamma, path). A spanning cycle stays a path, so the main loop closes
    it again inside ``gamma2``."""
    if cycle is not None:
        longer = BergePath(cycle.vertices, cycle.edge_ids[:-1])
    trace.append(
        {
            "event": "absorb",
            "step": step,
            "added": [list(e) for e in edges],
            "arity": len(edges),
            "new_length": len(longer),
            "gamma_edges": gamma2.num_edges,
        }
    )
    return gamma2, longer
