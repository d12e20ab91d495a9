"""Host-family constructors. Every generator is a pure function of its
arguments, including the seed."""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, combinations
from typing import Iterator, Optional

from .hypergraph import Hypergraph, check_codegree_condition
from .rng import SplitMix64, derive_seed


class GenerationError(Exception):
    """A post-verified generator exhausted its retries."""


def complete(n: int, r: int) -> Hypergraph:
    """All C(n, r) edges in lexicographic order."""
    if not n >= r >= 2:
        raise ValueError(f"need n >= r >= 2, got n={n}, r={r}")
    return Hypergraph(n, r, combinations(range(n), r))


def two_cliques(n: int, r: int) -> Hypergraph:
    """Two disjoint complete r-graphs on {0..n/2-1} and {n/2..n-1}.

    Disconnected by construction, with minimum degree C(n/2 - 1, r - 1);
    the standard family with no spanning cycle despite high degrees.
    """
    return Hypergraph(n, r, _two_clique_edges(n, r))


def _two_clique_edges(n: int, r: int) -> Iterator[tuple]:
    """The edges of two_cliques(n, r), in its order."""
    if n % 2 != 0:
        raise ValueError(f"n must be even, got {n}")
    if n // 2 < r:
        raise ValueError(f"each side needs at least r={r} vertices, got n={n}")
    half = n // 2
    return chain(combinations(range(half), r), combinations(range(half, n), r))


def two_cliques_matching(n: int, seed: int = 0) -> Hypergraph:
    """two_cliques(n, 3) plus a perfect matching of n/3 disjoint triples,
    each meeting both sides, drawn uniformly under the seed.

    Every matching triple takes one vertex from one side and two from the
    other; covering both halves exactly forces n/6 triples of each split.
    """
    if n % 6 != 0:
        raise ValueError(f"n must be divisible by 6, got {n}")
    cliques = _two_clique_edges(n, 3)
    rng = SplitMix64(seed)
    half = n // 2
    splits = [1] * (n // 6) + [2] * (n // 6)
    rng.shuffle(splits)
    left = list(range(half))
    right = list(range(half, n))
    rng.shuffle(left)
    rng.shuffle(right)
    matching = []
    li = ri = 0
    for take_left in splits:
        take_right = 3 - take_left
        matching.append(left[li : li + take_left] + right[ri : ri + take_right])
        li += take_left
        ri += take_right
    return Hypergraph(n, 3, chain(cliques, matching))


def binomial(n: int, r: int, p: float, seed: int = 0) -> Hypergraph:
    """Each of the C(n, r) candidate edges kept independently with
    probability p; lexicographic candidate order fixes the stream."""
    if not n >= r >= 2:
        raise ValueError(f"need n >= r >= 2, got n={n}, r={r}")
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"p must be in [0, 1], got {p}")
    rng = SplitMix64(seed)
    return Hypergraph(n, r, (e for e in combinations(range(n), r) if rng.random() < p))


def degree_condition_random(
    n: int, r: int, eps: float, seed: int = 0, max_retries: int = 32
) -> Hypergraph:
    """Random host certified to satisfy the codegree-support condition at
    eps: sampled from binomial(n, r, p*) and post-verified, doubling the
    density on retry.

    The condition is ``check_codegree_condition``'s, not the paper's
    delta_2; ``check_min_degree_conditions`` evaluates delta_1 and delta_2
    as the paper states them."""
    if not 0 < eps < 0.2:
        raise ValueError(f"eps must be in (0, 0.2), got {eps}")
    if not n >= r >= 2:
        raise ValueError(f"need n >= r >= 2, got n={n}, r={r}")
    p_star = min(1.0, 4.0 * eps)
    last = None
    for attempt in range(max_retries):
        H = binomial(n, r, p_star, derive_seed(seed, attempt))
        last = check_codegree_condition(H, eps)
        if last.ok:
            return H
        p_star = min(1.0, 2.0 * p_star)
    witness = "none tried" if last is None else f"vertex {last.witness}"
    raise GenerationError(
        f"no host passed the codegree condition after {max_retries} tries; "
        f"last witness: {witness}"
    )


FAMILIES = (
    "complete",
    "two_cliques",
    "two_cliques_matching",
    "binomial",
    "degree_condition_random",
)


@dataclass(frozen=True)
class GenSpec:
    """Declarative generator request, as accepted by the CLI."""

    family: str
    n: int
    r: int = 3
    p: Optional[float] = None
    eps: Optional[float] = None
    seed: int = 0

    def build(self) -> Hypergraph:
        if self.family == "complete":
            return complete(self.n, self.r)
        if self.family == "two_cliques":
            return two_cliques(self.n, self.r)
        if self.family == "two_cliques_matching":
            if self.r != 3:
                raise ValueError("two_cliques_matching is a 3-graph family")
            return two_cliques_matching(self.n, self.seed)
        if self.family == "binomial":
            if self.p is None:
                raise ValueError("binomial requires p")
            return binomial(self.n, self.r, self.p, self.seed)
        if self.family == "degree_condition_random":
            if self.eps is None:
                raise ValueError("degree_condition_random requires eps")
            return degree_condition_random(self.n, self.r, self.eps, self.seed)
        raise ValueError(f"unknown family {self.family!r}; choose from {FAMILIES}")
