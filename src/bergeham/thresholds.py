"""Numeric threshold quantities for a concrete host, and the structural
property checkers used to certify extracted subgraphs.

All logarithms are natural; hidden asymptotic constants are exposed as
parameters (``c_gamma`` scales the ln ln ln n window half-width).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import reduce
from itertools import starmap
from operator import or_
from typing import Optional

from .hypergraph import (
    VERIFIED,
    VIOLATED,
    CapacityError,
    CheckResult,
    Hypergraph,
    draw_subset,
    first_violation,
    subsets,
)
from .rng import SplitMix64

PROPERTY_GUARD = 12


@dataclass(frozen=True)
class BasicThresholds:
    p1: float
    p2: float
    m1_real: float
    m2_real: float
    m1: int
    m2: int


@dataclass(frozen=True)
class ShiftedThresholds:
    gamma: float
    p3: float
    p4: float
    m3_real: float
    m4_real: float
    m3: int
    m4: int
    lower_sane: bool  # p3 >= r! ln n / (2 n^(r-1)); may fail at small n
    upper_sane: bool  # p4 <= 2 ln n / (eps n^(r-1)); may fail at small n


@dataclass(frozen=True)
class DecayBounds:
    """The three exponential-sum inequalities behind the tighter window:
    ln n * sum (1-p3)^deg between e^(eps*gamma/4) and e^gamma, and
    ln n * sum (1-p4)^deg at most e^(-gamma)."""

    L1_ok: bool
    L2_ok: bool
    L3_ok: bool
    lhs_p3: float
    lhs_p4: float
    rhs_L1: float
    rhs_L2: float
    rhs_L3: float


@dataclass(frozen=True)
class ThresholdReport:
    n: int
    r: int
    N: int
    eps: float
    p1: float
    p2: float
    p0: float
    residual: float
    gamma: float
    p3: float
    p4: float
    m1: int
    m2: int
    m3: int
    m4: int
    m1_real: float
    m2_real: float
    m3_real: float
    m4_real: float
    L1_ok: bool
    L2_ok: bool
    L3_ok: bool

    def to_json(self) -> dict:
        return {k: getattr(self, k) for k in self.__dataclass_fields__}


def basic_thresholds(H: Hypergraph, eps: float) -> BasicThresholds:
    """Coarse window: p1 = ln n / n^(r-1) and p2 = 2 ln n / (eps n^(r-1));
    step counts m_i = N * p_i (floor below, ceil above)."""
    if H.n < 3:
        raise ValueError(f"need n >= 3, got {H.n}")
    if not 0 < eps < 1:
        raise ValueError(f"eps must be in (0, 1), got {eps}")
    scale = H.n ** (H.r - 1)
    p1 = math.log(H.n) / scale
    p2 = 2.0 * math.log(H.n) / (eps * scale)
    m1r = H.num_edges * p1
    m2r = H.num_edges * p2
    return BasicThresholds(p1, p2, m1r, m2r, math.floor(m1r), math.ceil(m2r))


def decay_sum(H: Hypergraph, p: float) -> float:
    """sum over vertices of (1-p)^degree, via the compressed degree
    multiset."""
    counts: dict = {}
    for d in H.degrees():
        counts[d] = counts.get(d, 0) + 1
    return sum(mult * (1.0 - p) ** d for d, mult in counts.items())


def solve_p0(H: Hypergraph, tol: float = 1e-9) -> float:
    """Unique root of sum (1-p)^deg = 1/ln n on (0,1), by bisection on the
    residual (the left side is strictly decreasing in p)."""
    if tol <= 0:
        raise ValueError(f"tol must be positive, got {tol}")
    if H.n < 3:
        raise ValueError(f"need n >= 3, got {H.n}")
    if H.min_degree() == 0:
        raise ValueError(
            "a vertex of degree 0 pins the sum at or above 1: no root exists"
        )
    target = 1.0 / math.log(H.n)
    lo, hi = 0.0, 1.0
    if decay_sum(H, 0.0) - target <= 0:
        raise ValueError("sum is below 1/ln n already at p=0; no root in (0,1)")
    # bisect to float resolution; tol is a verified guarantee, not a stop rule
    while True:
        mid = (lo + hi) / 2.0
        if mid == lo or mid == hi:
            break
        if decay_sum(H, mid) - target > 0:
            lo = mid
        else:
            hi = mid
    root = min((lo, hi), key=lambda p: abs(decay_sum(H, p) - target))
    residual = decay_sum(H, root) - target
    if abs(residual) > tol:
        raise ArithmeticError(
            f"root residual {residual:.3e} exceeds tol={tol:.3e} at float precision"
        )
    return root


def regular_p0_closed_form(n: int, degree: int) -> float:
    """For degree-regular hosts the root is 1 - (n ln n)^(-1/degree)."""
    return 1.0 - (n * math.log(n)) ** (-1.0 / degree)


def shifted_thresholds(
    H: Hypergraph, eps: float, c_gamma: float = 1.0, p0: Optional[float] = None, tol: float = 1e-9
) -> ShiftedThresholds:
    """Tight window around the root: gamma = max(0, c_gamma * ln ln ln n),
    p3/p4 = p0 -/+ gamma / n^(r-1), clamped into [0, 1]."""
    if p0 is None:
        p0 = solve_p0(H, tol)
    gamma = max(0.0, c_gamma * math.log(math.log(math.log(H.n))))
    scale = H.n ** (H.r - 1)
    p3 = min(1.0, max(0.0, p0 - gamma / scale))
    p4 = min(1.0, max(0.0, p0 + gamma / scale))
    m3r = H.num_edges * p3
    m4r = H.num_edges * p4
    lower = p3 >= math.factorial(H.r) * math.log(H.n) / (2.0 * scale)
    upper = p4 <= 2.0 * math.log(H.n) / (eps * scale)
    return ShiftedThresholds(
        gamma, p3, p4, m3r, m4r, math.floor(m3r), math.ceil(m4r), lower, upper
    )


def decay_bounds_report(
    H: Hypergraph, eps: float, p3: float, p4: float, gamma: float
) -> DecayBounds:
    if not (0 <= p3 <= 1 and 0 <= p4 <= 1):
        raise ValueError("p3 and p4 must lie in [0, 1]")
    ln_n = math.log(H.n)
    lhs_p3 = ln_n * decay_sum(H, p3)
    lhs_p4 = ln_n * decay_sum(H, p4)
    rhs_l1 = math.exp(eps * gamma / 4.0)
    rhs_l2 = math.exp(gamma)
    rhs_l3 = math.exp(-gamma)
    return DecayBounds(
        L1_ok=lhs_p3 >= rhs_l1,
        L2_ok=lhs_p3 <= rhs_l2,
        L3_ok=lhs_p4 <= rhs_l3,
        lhs_p3=lhs_p3,
        lhs_p4=lhs_p4,
        rhs_L1=rhs_l1,
        rhs_L2=rhs_l2,
        rhs_L3=rhs_l3,
    )


def threshold_report(
    H: Hypergraph, eps: float, c_gamma: float = 1.0, tol: float = 1e-9
) -> ThresholdReport:
    basic = basic_thresholds(H, eps)
    p0 = solve_p0(H, tol)
    residual = decay_sum(H, p0) - 1.0 / math.log(H.n)
    shifted = shifted_thresholds(H, eps, c_gamma, p0=p0)
    bounds = decay_bounds_report(H, eps, shifted.p3, shifted.p4, shifted.gamma)
    assert shifted.p3 <= p0 <= shifted.p4
    return ThresholdReport(
        n=H.n,
        r=H.r,
        N=H.num_edges,
        eps=eps,
        p1=basic.p1,
        p2=basic.p2,
        p0=p0,
        residual=residual,
        gamma=shifted.gamma,
        p3=shifted.p3,
        p4=shifted.p4,
        m1=basic.m1,
        m2=basic.m2,
        m3=shifted.m3,
        m4=shifted.m4,
        m1_real=basic.m1_real,
        m2_real=basic.m2_real,
        m3_real=shifted.m3_real,
        m4_real=shifted.m4_real,
        L1_ok=bounds.L1_ok,
        L2_ok=bounds.L2_ok,
        L3_ok=bounds.L3_ok,
    )


# -- structural properties P1..P7 ----------------------------------------------


def low_degree_vertices(H: Hypergraph, d0: float) -> tuple:
    """Vertices of degree at most d0. The asymptotic default threshold
    eps^8 * ln n sits below 1 at desk sizes, leaving this set empty on
    hosts without isolated vertices."""
    return tuple(v for v in range(H.n) if H.degree(v) <= d0)


def default_property_d0(n: int, eps: float) -> float:
    return eps**8 * math.log(n)


def _check_p1(H: Hypergraph, eps: float) -> CheckResult:
    bound = (10.0 / eps) * math.log(H.n)
    worst = max(range(H.n), key=H.degree)
    observed = H.degree(worst)
    if observed <= bound:
        return CheckResult(VERIFIED, observed=observed, bound=bound)
    return CheckResult(VIOLATED, witness=worst, observed=observed, bound=bound)


def _check_p2(H: Hypergraph, d0: float) -> CheckResult:
    small = low_degree_vertices(H, d0)
    bound = H.n**0.1
    if len(small) <= bound:
        return CheckResult(VERIFIED, observed=len(small), bound=bound)
    return CheckResult(VIOLATED, witness=small, observed=len(small), bound=bound)


def _check_p3(H: Hypergraph, d0: float) -> CheckResult:
    """No edge may meet the low-degree set twice, and no outside vertex may
    lie in two or more edges that touch the closed neighborhood of the
    low-degree set away from itself."""
    small = set(low_degree_vertices(H, d0))
    for i, e in enumerate(H.edges):
        if sum(1 for v in e if v in small) >= 2:
            return CheckResult(VIOLATED, witness=("edge", i))
    closed = small | H.neighborhood(small)
    for v in range(H.n):
        if v in small:
            continue
        incident = [
            i
            for i in H.incidence[v]
            if any(u != v and u in closed for u in H.edges[i])
        ]
        if len(incident) > 1:
            return CheckResult(VIOLATED, witness=("vertex", v, tuple(incident)))
    return CheckResult(VERIFIED)


# P4-P6 each run one test over cases that either enumerate every vertex
# subset (``rng`` None, exact mode) or are ``trials`` lazy draws from
# ``rng``; ``first_violation`` turns them into a verdict. The draws share
# one stream in the order P4, P5, P6, so a sampled report depends on every
# draw each check makes, including where it stops.


def _check_p4(H: Hypergraph, size_cap: int, rng, trials) -> CheckResult:
    """Every U of at most ``size_cap`` vertices meets at most
    |U| ln^(3/4) n edges in two or more vertices."""
    per_vertex = math.log(H.n) ** 0.75
    vertices = range(H.n)
    if rng is None:
        # no U meets more edges than the host has
        sizes = [s for s in range(1, size_cap + 1) if s * per_vertex < H.num_edges]
        cases = subsets(vertices, sizes)
    else:
        cases = (
            draw_subset(rng, vertices, 1 + rng.below(size_cap)) for _ in range(trials)
        )

    def violation(U, umask):
        bound = len(U) * per_vertex
        count = len([m for m in H.edge_masks if (m & umask).bit_count() >= 2])
        if count > bound:
            return CheckResult(VIOLATED, witness=U, observed=count, bound=bound)
        return None

    return first_violation(starmap(violation, cases), trials)


def _check_p5(H: Hypergraph, eps: float, size_cap: int, rng, trials) -> CheckResult:
    """For every U of at most ``size_cap`` vertices and W of at most 3|U|
    others, at most (eps/2) ln n |U| edges meet U once and also meet W."""
    per_vertex = 0.5 * eps * math.log(H.n)
    vertices = range(H.n)

    def enumerated():
        # no U meets more edges once than the host has
        sizes = [s for s in range(1, size_cap + 1) if per_vertex * s < H.num_edges]
        for U, umask in subsets(vertices, sizes):
            once = list(H.meeting_once(umask))
            if len(once) <= per_vertex * len(U):
                continue  # even W = everything cannot violate
            others = reduce(or_, once, 0) & ~umask
            relevant = [v for v in vertices if others >> v & 1]
            w_sizes = range(1, min(3 * len(U), len(relevant)) + 1)
            for W, wmask in subsets(relevant, w_sizes):
                yield U, W, wmask, once

    def drawn():
        for _ in range(trials):
            u_size = 1 + rng.below(size_cap)
            U, umask = draw_subset(rng, vertices, u_size)
            rest = [v for v in vertices if v not in U]
            w_cap = min(3 * u_size, len(rest))
            if w_cap >= 1:
                W, wmask = draw_subset(rng, rest, 1 + rng.below(w_cap))
                yield U, W, wmask, H.meeting_once(umask)

    def violation(U, W, wmask, once):
        bound = per_vertex * len(U)
        count = len([m for m in once if m & wmask])
        if count > bound:
            return CheckResult(VIOLATED, witness=(U, W), observed=count, bound=bound)
        return None

    cases = enumerated() if rng is None else drawn()
    return first_violation(starmap(violation, cases), trials)


def _check_p6(H: Hypergraph, eps: float, u_size: int, rng, trials) -> CheckResult:
    """For every U of ``u_size`` vertices and disjoint W of
    floor((1 - eps/2) n), at least n ln^(1/3) n edges meet U once and W in
    all their other vertices. Vacuous when no such pair fits."""
    w_size = math.floor((1.0 - eps / 2.0) * H.n)
    if u_size + w_size > H.n:
        return CheckResult(VERIFIED, observed=None, bound=None)  # vacuous
    bound = H.n * math.log(H.n) ** (1.0 / 3.0)
    others = H.r - 1
    vertices = range(H.n)

    def enumerated():
        for U, umask in subsets(vertices, (u_size,)):
            once = list(H.meeting_once(umask))
            rest = [v for v in vertices if v not in U]
            for W, wmask in subsets(rest, (w_size,)):
                yield U, W, wmask, once

    def drawn():
        for _ in range(trials):
            U, umask = draw_subset(rng, vertices, u_size)
            rest = [v for v in vertices if v not in U]
            W, wmask = draw_subset(rng, rest, w_size)
            yield U, W, wmask, H.meeting_once(umask)

    def violation(U, W, wmask, once):
        count = len([m for m in once if (m & wmask).bit_count() == others])
        if count < bound:
            return CheckResult(VIOLATED, witness=(U, W), observed=count, bound=bound)
        return None

    cases = enumerated() if rng is None else drawn()
    return first_violation(starmap(violation, cases), trials)


def _check_p7_exact(H: Hypergraph, eps: float) -> CheckResult:
    """A partition with no crossing edge is a union of connected
    components, so subset sums over component sizes decide this exactly
    at any n."""
    lo = eps * H.n / 6.0
    hi = H.n / 2.0
    comps = H.components
    reachable = {0: ()}
    for idx, comp in enumerate(comps):
        size = len(comp)
        additions = {}
        for total, chosen in reachable.items():
            new_total = total + size
            if new_total <= hi and new_total not in reachable:
                additions[new_total] = chosen + (idx,)
        reachable.update(additions)
    for total, chosen in sorted(reachable.items()):
        if lo <= total <= hi and 0 < total < H.n:
            U = tuple(sorted(v for idx in chosen for v in comps[idx]))
            W = tuple(v for v in range(H.n) if v not in set(U))
            return CheckResult(VIOLATED, witness=(U, W))
    return CheckResult(VERIFIED)


def property_report(
    H: Hypergraph,
    eps: float,
    mode: str = "exact",
    trials: int = 2000,
    seed: int = 0,
    d0: Optional[float] = None,
    guard: int = PROPERTY_GUARD,
) -> dict:
    """Verdicts for the seven structural properties P1..P7.

    P1-P3 are always exact. P4-P6 quantify over vertex subsets: exact mode
    enumerates them and requires n <= guard; sampled mode draws ``trials``
    random (U, W) pairs from one stream seeded by ``seed`` (``trials`` >= 1)
    and claims Verified only for a vacuous P6. P7 reduces to subset sums
    over connected-component sizes, so it is decided exactly in both modes.
    Hosts need at least two vertices.
    """
    if not 0 < eps < 1:
        raise ValueError(f"eps must be in (0, 1), got {eps}")
    if mode not in ("exact", "sampled"):
        raise ValueError(f"mode must be 'exact' or 'sampled', got {mode!r}")
    if H.n < 2:
        raise ValueError(f"need n >= 2, got {H.n}")
    if mode == "exact" and H.n > guard:
        raise CapacityError(
            f"exact mode for P4-P6 needs n <= {guard}, got n={H.n}; "
            "use sampled mode or raise the guard"
        )
    if d0 is None:
        d0 = default_property_d0(H.n, eps)
    size_cap = math.floor(H.n / math.sqrt(math.log(H.n)))  # in 1..n for n >= 2
    draws = (SplitMix64(seed), trials) if mode == "sampled" else (None, None)
    return {
        "P1": _check_p1(H, eps),
        "P2": _check_p2(H, d0),
        "P3": _check_p3(H, d0),
        "P4": _check_p4(H, size_cap, *draws),
        "P5": _check_p5(H, eps, size_cap, *draws),
        "P6": _check_p6(H, eps, size_cap, *draws),
        "P7": _check_p7_exact(H, eps),
    }
