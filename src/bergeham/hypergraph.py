"""r-uniform hypergraphs: representation, degree queries, structural checks.

Vertices are dense integers 0..n-1. Edges are stored as sorted tuples in
construction order; edge identity throughout the package is the index into
``edges`` (subgraph processes permute indices, certificates cite them).
Instances are immutable after construction and safe to share across
workers.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from functools import cached_property, reduce
from itertools import chain, combinations, starmap
from operator import or_
from typing import Iterable, Iterator, Optional, Sequence

from .rng import SplitMix64


class CapacityError(Exception):
    """An exhaustive check was requested above its size guard."""


class ParseError(ValueError):
    """Malformed hypergraph text; carries the offending 1-based line."""

    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}")
        self.line = line


class EdgeError(ValueError):
    """An edge the constructor rejects: ``index`` is its position in the
    input, ``kind`` one of "arity", "range" and "duplicate", ``edge`` the
    edge sorted."""

    def __init__(self, index: int, kind: str, edge: tuple, message: str):
        super().__init__(message)
        self.index = index
        self.kind = kind
        self.edge = edge


def _canonical(n: int, r: int, edges: Iterable[Sequence[int]]) -> list:
    """Each edge as a sorted tuple, in order, once it has r distinct
    vertices of 0..n-1 and differs from every edge before it."""
    kept = []
    seen = set()
    for e in edges:
        tup = tuple(sorted(e))
        if len(tup) != r or len(set(tup)) != r:
            message = f"edge {tuple(e)} does not have {r} distinct vertices"
            raise EdgeError(len(kept), "arity", tup, message)
        if tup[0] < 0 or tup[-1] >= n:
            message = f"edge {tup} has a vertex out of range 0..{n - 1}"
            raise EdgeError(len(kept), "range", tup, message)
        if tup in seen:
            raise EdgeError(len(kept), "duplicate", tup, f"duplicate edge {tup}")
        seen.add(tup)
        kept.append(tup)
    return kept


class Hypergraph:
    """Immutable r-uniform hypergraph with a per-vertex incidence index."""

    def __init__(self, n: int, r: int, edges: Iterable[Sequence[int]]):
        """Each edge is sorted and checked once, as it is read, so ``edges``
        may be any iterable, read once. A rejected edge raises
        ``EdgeError`` with its position in ``edges``."""
        if n < 1:
            raise ValueError(f"need at least one vertex, got n={n}")
        if r < 2:
            raise ValueError(f"uniformity must be at least 2, got r={r}")
        self._store(n, r, _canonical(n, r, edges))

    def _store(self, n: int, r: int, edges: list) -> None:
        """Keep canonical edges in order, with each vertex's edge ids."""
        self.n = n
        self.r = r
        incidence = [[] for _ in range(n)]
        add = [ids.append for ids in incidence]
        for idx, e in enumerate(edges):
            for v in e:
                add[v](idx)
        self.edges: tuple = tuple(edges)
        self.incidence: tuple = tuple(map(tuple, incidence))

    # -- basic queries ----------------------------------------------------

    @property
    def num_edges(self) -> int:
        return len(self.edges)

    def degree(self, v: int) -> int:
        """Number of edges containing v."""
        if not 0 <= v < self.n:
            raise ValueError(f"vertex {v} out of range 0..{self.n - 1}")
        return len(self.incidence[v])

    def degrees(self) -> list:
        return [len(inc) for inc in self.incidence]

    def min_degree(self) -> int:
        return min(self.degrees())

    def codegree(self, u: int, v: int) -> int:
        """Number of edges containing both u and v."""
        if u == v:
            raise ValueError("codegree requires two distinct vertices")
        return len(self.edges_with_pair(u, v))

    def edges_with_pair(self, u: int, v: int) -> tuple:
        """Ids of the edges that hold both u and v, ascending; none when
        u == v, since no edge holds a vertex twice."""
        if not (0 <= u < self.n and 0 <= v < self.n):
            raise ValueError(f"vertex out of range 0..{self.n - 1}")
        if u == v:
            return ()
        edges = self.edges
        return tuple(i for i in self.incidence[u] if v in edges[i])

    @cached_property
    def edge_masks(self) -> tuple:
        """Per-edge vertex bitmask; hot-loop companion to ``edges``."""
        masks = []
        for e in self.edges:
            m = 0
            for v in e:
                m |= 1 << v
            masks.append(m)
        return tuple(masks)

    def meeting_once(self, mask: int) -> Iterator[int]:
        """``edge_masks`` of the edges that meet the vertices in ``mask`` in
        exactly one vertex, in edge order. Lazy, so that a sampled check can
        stop at the first edge that settles its case."""
        return (m for m in self.edge_masks if (m & mask).bit_count() == 1)

    @cached_property
    def _edge_index(self) -> dict:
        return {e: i for i, e in enumerate(self.edges)}

    def has_edge(self, vertices: Iterable[int]) -> bool:
        return tuple(sorted(vertices)) in self._edge_index

    def edge_id_of(self, vertices: Iterable[int]) -> int:
        """Index of the edge with this vertex set; KeyError if absent."""
        return self._edge_index[tuple(sorted(vertices))]

    def neighborhood(self, vertices: Iterable[int]) -> set:
        """Vertices outside S touched by an edge that meets S."""
        s = set(vertices)
        touched = set()
        for v in s:
            if not 0 <= v < self.n:
                raise ValueError(f"vertex {v} out of range 0..{self.n - 1}")
            for idx in self.incidence[v]:
                touched.update(self.edges[idx])
        return touched - s

    def subgraph(self, edge_ids: Iterable[int]) -> "Hypergraph":
        """New hypergraph on the same vertex set keeping the given edges,
        in the given order (edge identities are re-issued 0,1,2,...).
        Each id must be a distinct one of 0..m-1."""
        ids = tuple(edge_ids)
        m = len(self.edges)
        if ids and not (0 <= min(ids) and max(ids) < m):
            raise ValueError(f"edge ids must be in 0..{m - 1}")
        if len(set(ids)) != len(ids):
            raise ValueError("edge ids must be distinct")
        sub = Hypergraph.__new__(Hypergraph)
        sub._store(self.n, self.r, [self.edges[i] for i in ids])
        return sub

    def extended(self, edges: Iterable[Sequence[int]]) -> "Hypergraph":
        """This hypergraph with ``edges`` appended, in order: every edge
        keeps its id and only the added edges are checked. A rejected edge
        raises the ``EdgeError`` that ``Hypergraph(n, r, list(self.edges) +
        list(edges))`` would, with its index in that whole list."""
        index = dict(self._edge_index)
        incidence = list(self.incidence)
        added = []
        for e in edges:
            k = len(index)
            try:
                (tup,) = _canonical(self.n, self.r, [e])
            except EdgeError as err:
                raise EdgeError(k, err.kind, err.edge, str(err)) from None
            if tup in index:
                raise EdgeError(k, "duplicate", tup, f"duplicate edge {tup}")
            index[tup] = k
            added.append(tup)
            for v in tup:
                incidence[v] += (k,)
        grown = Hypergraph.__new__(Hypergraph)
        grown.n, grown.r = self.n, self.r
        grown.edges = self.edges + tuple(added)
        grown.incidence = tuple(incidence)
        grown._edge_index = index
        return grown

    # -- connectivity ------------------------------------------------------

    @cached_property
    def components(self) -> tuple:
        """Connected components as sorted vertex tuples; vertices in no
        edge form singleton components."""
        seen = [False] * self.n
        comps = []
        for start in range(self.n):
            if seen[start]:
                continue
            seen[start] = True
            comp = [start]
            frontier = [start]
            while frontier:
                v = frontier.pop()
                for idx in self.incidence[v]:
                    for u in self.edges[idx]:
                        if not seen[u]:
                            seen[u] = True
                            comp.append(u)
                            frontier.append(u)
            comps.append(tuple(sorted(comp)))
        return tuple(comps)

    @cached_property
    def is_connected(self) -> bool:
        """True iff every vertex is reachable through shared edges. A host
        with an isolated vertex is disconnected (a spanning cycle must
        visit it)."""
        return len(self.components) == 1

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Hypergraph)
            and self.n == other.n
            and self.r == other.r
            and self.edges == other.edges
        )

    def __hash__(self) -> int:
        return hash((self.n, self.r, self.edges))

    def __repr__(self) -> str:
        return f"Hypergraph(n={self.n}, r={self.r}, m={self.num_edges})"


# -- structured check results ---------------------------------------------

VERIFIED = "verified"
VIOLATED = "violated"
NO_COUNTEREXAMPLE = "no_counterexample"


@dataclass(frozen=True)
class CheckResult:
    """Outcome of a universal-property check.

    ``verified`` only ever comes from an exact method; sampled checkers
    report ``no_counterexample`` with the number of draws tried.
    """

    status: str
    witness: object = None
    trials: int = 0
    observed: Optional[float] = None
    bound: Optional[float] = None

    @property
    def ok(self) -> bool:
        return self.status != VIOLATED

    def to_json(self) -> dict:
        return {
            "status": self.status,
            "witness": self.witness,
            "trials": self.trials,
            "observed": self.observed,
            "bound": self.bound,
        }


def subsets(pool: Sequence[int], sizes: Iterable[int]) -> Iterator[tuple]:
    """(subset, its vertex bitmask) for every subset of ``pool`` with a
    size in ``sizes``, size by size in ``combinations`` order: the cases of
    an exact check."""
    bits = [1 << v for v in pool]
    return chain.from_iterable(
        zip(combinations(pool, s), map(sum, combinations(bits, s))) for s in sizes
    )


def draw_subset(rng: SplitMix64, pool: Sequence[int], size: int) -> tuple:
    """(subset, its vertex bitmask) for a uniform ``size``-subset of
    ``pool``, sorted: a case of a sampled check."""
    subset = tuple(sorted(rng.choose(pool, size)))
    mask = 0
    for v in subset:
        mask |= 1 << v
    return subset, mask


def first_violation(results: Iterable, trials: Optional[int] = None) -> CheckResult:
    """The first violation in a stream of per-case results, each a violating
    ``CheckResult`` or None for a case that holds.

    A property check is one test run over cases that either enumerate
    every instance (``trials`` None) or are ``trials`` random draws. The
    stream is read lazily, so a sampled check stops drawing at its first
    violation. Without one, exhaustive cases verify the property and drawn
    ones report that no counterexample was found; sampled checks need at
    least one draw.
    """
    if trials is not None and trials < 1:
        raise ValueError(f"need at least one trial, got {trials}")
    for result in results:
        if result is not None:
            return result
    if trials is None:
        return CheckResult(VERIFIED)
    return CheckResult(NO_COUNTEREXAMPLE, trials=trials)


@dataclass(frozen=True)
class MinDegreeReport:
    delta1_ok: bool
    delta2_ok: bool
    min_degree: int
    min_codegree: int
    delta1_bound: float
    delta2_bound: float


# -- expander check ---------------------------------------------------------

EXPANDER_SIZE_GUARD = 16


def is_expander(
    H: Hypergraph,
    k: int,
    alpha: float,
    *,
    exhaustive: bool = True,
    trials: int = 2000,
    seed: int = 0,
    size_guard: int = EXPANDER_SIZE_GUARD,
) -> CheckResult:
    """Check the vertex-expansion property: every X with |X| <= k and
    every disjoint Y with |Y| < alpha|X| leave some edge meeting X exactly
    once and missing Y.

    Exhaustive mode scans all (X, Y) pairs and either verifies or returns
    a violating pair; it refuses hosts above ``size_guard``. Sampled mode
    draws ``trials`` (at least one) random pairs and can only ever produce
    a witness, which carries ``trials``, or report that none was found.
    """
    if not 1 <= k <= H.n:
        raise ValueError(f"k must be in 1..{H.n}, got {k}")
    if alpha <= 0:
        raise ValueError(f"alpha must be positive, got {alpha}")
    if exhaustive and H.n > size_guard:
        raise CapacityError(
            f"exhaustive expander check needs n <= {size_guard}, got n={H.n}"
        )
    vertices = range(H.n)

    def exhaustive_cases():
        # a violating Y hits every edge that meets X once: only the other
        # vertices of those edges matter, smallest Y first
        for X, xmask in subsets(vertices, range(1, k + 1)):
            touching = list(H.meeting_once(xmask))
            others = reduce(or_, touching, 0) & ~xmask
            relevant = [v for v in vertices if others >> v & 1]
            y_cap = min(_strictly_below(alpha * len(X)), len(relevant))
            for Y, ymask in subsets(relevant, range(y_cap + 1)):
                yield X, Y, ymask, touching

    def drawn_cases():
        rng = SplitMix64(seed)
        for _ in range(trials):
            X, xmask = draw_subset(rng, vertices, 1 + rng.below(k))
            rest = [v for v in vertices if v not in X]
            y_cap = min(_strictly_below(alpha * len(X)), len(rest))
            Y, ymask = draw_subset(rng, rest, rng.below(y_cap + 1))
            yield X, Y, ymask, H.meeting_once(xmask)

    drawn = None if exhaustive else trials

    def violation(X, Y, ymask, touching):
        if all(m & ymask for m in touching):
            # a sampled witness carries the number of draws it was among
            return CheckResult(VIOLATED, witness=(X, Y), trials=drawn or 0)
        return None

    cases = exhaustive_cases() if exhaustive else drawn_cases()
    return first_violation(starmap(violation, cases), drawn)


def _strictly_below(bound: float) -> int:
    """Largest integer strictly below a positive real bound."""
    c = math.ceil(bound)
    return c - 1 if c == bound else math.floor(bound)


# -- degree-condition checks -------------------------------------------------


def _codegrees(H: Hypergraph) -> Counter:
    """Codegree of every vertex pair (u < v) that some edge holds."""
    return Counter(pair for e in H.edges for pair in combinations(e, 2))


def check_codegree_condition(H: Hypergraph, eps: float) -> CheckResult:
    """Check the codegree-support condition: every vertex v has at least
    (1/2 + eps)n partners u with codegree(u, v) >= eps * n^(r-2); the
    failing vertex is the witness.

    This is not the paper's delta_2 condition, which bounds the minimum
    codegree over all pairs; ``check_min_degree_conditions`` evaluates
    delta_1 and delta_2 as the paper states them."""
    if not 0 < eps < 1:
        raise ValueError(f"eps must be in (0, 1), got {eps}")
    threshold = eps * H.n ** (H.r - 2)
    need = (0.5 + eps) * H.n
    good = [0] * H.n
    for (u, v), count in _codegrees(H).items():
        if count >= threshold:
            good[u] += 1
            good[v] += 1
    for v in range(H.n):
        if good[v] < need:
            return CheckResult(VIOLATED, witness=v, observed=good[v], bound=need)
    return CheckResult(VERIFIED, observed=min(good), bound=need)


def check_min_degree_conditions(H: Hypergraph, eps: float) -> MinDegreeReport:
    """Evaluate the two minimum-degree sufficient conditions: delta_1 against
    (1/2^(r-1) + eps) * C(n-1, r-1) and delta_2 against eps * n^(r-2)."""
    if not 0 < eps < 1:
        raise ValueError(f"eps must be in (0, 1), got {eps}")
    if H.n < 2:
        raise ValueError(f"need n >= 2, got {H.n}")
    d1_bound = (0.5 ** (H.r - 1) + eps) * math.comb(H.n - 1, H.r - 1)
    d2_bound = eps * H.n ** (H.r - 2)
    min_deg = H.min_degree()
    codegrees = _codegrees(H)
    # a pair that no edge holds has codegree 0
    min_codeg = min(codegrees.values()) if len(codegrees) == math.comb(H.n, 2) else 0
    return MinDegreeReport(
        delta1_ok=min_deg >= d1_bound,
        delta2_ok=min_codeg >= d2_bound,
        min_degree=min_deg,
        min_codegree=min_codeg,
        delta1_bound=d1_bound,
        delta2_bound=d2_bound,
    )


# -- text format --------------------------------------------------------------
#
# First data line: "n r m"; then m lines of r space-separated vertex ids.
# Lines are UTF-8 with '\n' endings; '#' starts a comment.


def _data_lines(text: str, chunk: int = 1 << 14) -> Iterator[tuple]:
    """(line number, content) of each line that holds more than a comment.
    The text is split into lines one chunk of about ``chunk`` characters at
    a time, so the lines of a large host are never all held at once."""
    lineno = 0
    start = 0
    while start <= len(text):
        end = text.find("\n", start + chunk)
        if end < 0:
            end = len(text)
        for raw in text[start:end].split("\n"):
            lineno += 1
            body = raw.split("#", 1)[0].strip()
            if body:
                yield lineno, body
        start = end + 1


def parse(text: str) -> Hypergraph:
    """The host a text describes. Edge lines are streamed into the
    constructor, which checks each once; a fault is named by its line."""
    rows = _data_lines(text)
    header_line, header = next(rows, (1, ""))
    if not header:
        raise ParseError(1, "missing header line 'n r m'")
    parts = header.split()
    if len(parts) != 3:
        raise ParseError(header_line, f"header must be 'n r m', got {header!r}")
    try:
        n, r, m = (int(p) for p in parts)
    except ValueError:
        raise ParseError(header_line, f"header must be three integers, got {header!r}")
    if n < 1 or r < 2 or m < 0:
        raise ParseError(header_line, f"need n >= 1, r >= 2, m >= 0, got {header!r}")

    def vertex_rows():
        for lineno, body in rows:
            try:
                yield tuple(map(int, body.split()))
            except ValueError:
                raise ParseError(lineno, f"edge line must be integers, got {body!r}") from None

    fault = None
    try:
        H = Hypergraph(n, r, vertex_rows())
        if H.num_edges == m:
            return H
    except (ParseError, EdgeError) as exc:
        fault = exc
    # A wrong edge count is named before any fault in an edge line.
    lines = list(_data_lines(text))[1:]
    if len(lines) != m:
        last = lines[-1][0] if lines else header_line
        raise ParseError(last, f"expected {m} edge lines, found {len(lines)}")
    if isinstance(fault, EdgeError):
        lineno, body = lines[fault.index]
        if fault.kind == "duplicate":
            first = next(k for k, b in lines if tuple(sorted(map(int, b.split()))) == fault.edge)
            message = f"duplicate edge {fault.edge} (first at line {first})"
        elif fault.kind == "range":
            message = f"vertex out of range 0..{n - 1} in {body!r}"
        else:
            message = f"edge must have {r} distinct vertices, got {body!r}"
        raise ParseError(lineno, message) from None
    raise fault


def serialize(H: Hypergraph) -> str:
    row = " ".join(["%d"] * H.r)
    return "\n".join(chain([f"{H.n} {H.r} {H.num_edges}"], (row % e for e in H.edges), [""]))
