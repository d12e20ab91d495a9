"""Output checks that share no code with the package under test.

Every function takes plain data (vertex counts, edge tuples, id lists)
and raises ``CheckError`` when the output is wrong. None of them calls
``verify_cycle``, ``SubgraphProcess.__post_init__`` or any other routine
of ``bergeham``, so a fault in the package's own validation cannot hide
a wrong answer here.
"""

from __future__ import annotations


class CheckError(Exception):
    """An output of the program failed an independent check."""


def check_order(sigma, num_edges: int) -> None:
    """The arrival order is a permutation of the host's edge ids."""
    if len(sigma) != num_edges:
        raise CheckError(f"order has {len(sigma)} entries, host has {num_edges} edges")
    seen = bytearray(num_edges)
    for e in sigma:
        if not (isinstance(e, int) and 0 <= e < num_edges):
            raise CheckError(f"order holds {e!r}, not an edge id of the host")
        if seen[e]:
            raise CheckError(f"edge id {e} arrives twice")
        seen[e] = 1


def hitting_time(n: int, host_edges, sigma, k: int = 2) -> int:
    """First t with every vertex in at least k of the first t arrivals."""
    deg = [0] * n
    lacking = n
    for t, e in enumerate(sigma, start=1):
        for v in host_edges[e]:
            deg[v] += 1
            if deg[v] == k:
                lacking -= 1
        if lacking == 0:
            return t
    raise CheckError(f"minimum degree never reaches {k}")


def check_tau2(n: int, host_edges, sigma, tau2: int, k: int = 2) -> None:
    """tau2 is the hitting time of minimum degree k: every vertex has
    degree >= k after tau2 arrivals, and some vertex has degree < k after
    tau2 - 1."""
    own = hitting_time(n, host_edges, sigma, k)
    if tau2 != own:
        raise CheckError(f"tau2={tau2}, but minimum degree {k} is first reached at {own}")


def components(n: int, edges) -> int:
    """Number of connected components (a vertex in no edge is one)."""
    parent = list(range(n))

    def find(v):
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    count = n
    for edge in edges:
        root = find(edge[0])
        for v in edge[1:]:
            other = find(v)
            if other != root:
                parent[other] = root
                count -= 1
    return count


def check_no(n: int, edges) -> None:
    """A `no` needs a reason anyone can check: the graph is disconnected,
    or it has fewer than n edges (a Berge Hamilton cycle uses n distinct
    edges)."""
    if len(edges) >= n and components(n, edges) == 1:
        raise CheckError(f"`no` on a connected graph with {len(edges)} >= n={n} edges")


def check_cycle(n: int, edges, vertices, edge_ids) -> None:
    """A Berge Hamilton cycle: n distinct vertices covering 0..n-1, n
    distinct edge ids of ``edges``, and edge i containing vertices i and
    i+1 (cyclically)."""
    if len(vertices) != n or sorted(vertices) != list(range(n)):
        raise CheckError("cycle does not visit every vertex exactly once")
    if len(edge_ids) != n or len(set(edge_ids)) != n:
        raise CheckError("cycle does not use n distinct edges")
    for i, e in enumerate(edge_ids):
        if not (isinstance(e, int) and 0 <= e < len(edges)):
            raise CheckError(f"cycle cites edge id {e!r}, not in 0..{len(edges) - 1}")
        u, w = vertices[i], vertices[(i + 1) % n]
        if u not in edges[e] or w not in edges[e]:
            raise CheckError(f"edge {e} = {edges[e]} does not contain both {u} and {w}")


def check_complete_host(n: int, r: int, edges) -> None:
    """Every r-subset of 0..n-1 exactly once."""
    seen = set()
    for edge in edges:
        key = tuple(sorted(edge))
        if len(key) != r or len(set(key)) != r or key[0] < 0 or key[-1] >= n:
            raise CheckError(f"edge {edge} is not an {r}-subset of 0..{n - 1}")
        seen.add(key)
    expected = 1
    for i in range(r):
        expected = expected * (n - i) // (i + 1)
    if len(seen) != expected or len(edges) != expected:
        raise CheckError(f"{len(edges)} edges ({len(seen)} distinct), C({n},{r})={expected}")


def check_matching_host(n: int, edges) -> None:
    """Two 3-cliques on the halves plus a perfect matching: the edges
    that meet both halves are disjoint triples covering every vertex,
    the rest are all 3-subsets of one half, and the host is connected."""
    half = n // 2
    crossing = [e for e in edges if min(e) < half <= max(e)]
    covered = sorted(v for e in crossing for v in e)
    if covered != list(range(n)):
        raise CheckError("matching triples are not disjoint or do not cover every vertex")
    inside = {tuple(sorted(e)) for e in edges if not min(e) < half <= max(e)}
    side = half * (half - 1) * (half - 2) // 6
    if len(inside) != 2 * side or len(edges) != 2 * side + n // 3:
        raise CheckError(f"{len(inside)} clique edges, expected {2 * side}")
    if components(n, edges) != 1:
        raise CheckError("host is disconnected")
