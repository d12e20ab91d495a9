"""Random subgraph processes, hitting times, and the trial harness.

A process is an ordering of the host's edges, drawn only as far as it is
read; the prefix graph at step t keeps the first t. Hitting times are
computed by a forward degree scan (minimum degree) or by search over t
with monotone predicates, where probes may be exact or one-sided: the
strategy (binary or linear) picks the steps, one rule reads the result.
"""

from __future__ import annotations

import io
import math
import multiprocessing
import time
from dataclasses import dataclass
from itertools import islice
from typing import Callable, Iterator, Optional, Sequence, Tuple

from .berge import certify_obstruction, obstruction
from .engine import DEFAULT_BUDGET, NO, UNKNOWN, YES, decide_hamiltonian
from .hypergraph import Hypergraph
from .oracle import DEFAULT_GUARD, OracleGuard, exact_hamiltonian
from .rng import SplitMix64, derive_seed


class NoHitError(Exception):
    """The property never holds, even with every edge present."""


class SubgraphProcess:
    """Host plus an arrival order (a permutation of its edge indices).

    The order is drawn from an iterator only as far as it is read
    (``lazy``), or given in full and read at once. One check covers both:
    each arrival taken must be a new id in 0..N-1, and ``sigma`` refuses
    a source with ids left after N. Every read sees the same order."""

    __slots__ = ("host", "_order", "_source", "_seen")

    def __init__(self, host: Hypergraph, sigma: Sequence[int]):
        self._take_from(host, iter(sigma))
        self.sigma  # read, and so check, the whole order now

    @classmethod
    def lazy(cls, host: Hypergraph, ids: Iterator[int]) -> "SubgraphProcess":
        """A process whose arrivals are taken from ``ids`` when first read."""
        proc = cls.__new__(cls)
        proc._take_from(host, ids)
        return proc

    def _take_from(self, host: Hypergraph, ids: Iterator[int]) -> None:
        self.host = host
        self._order: list = []  # a tuple once read to the end
        self._source: Optional[Iterator[int]] = ids
        self._seen = set()

    @property
    def num_steps(self) -> int:
        return self.host.num_edges

    @property
    def sigma(self) -> tuple:
        """The whole order; a lazy one is drawn to the end and kept."""
        if self._source is not None:
            self._draw(self.num_steps)
            for _ in self._source:
                raise ValueError(f"order has more than {self.num_steps} arrivals")
            self._order, self._source, self._seen = tuple(self._order), None, None
        return self._order

    def _draw(self, t: int) -> None:
        """Take arrivals from the source until the first t are known."""
        order, seen, n_edges = self._order, self._seen, self.num_steps
        if t > len(order):
            for e in islice(self._source, t - len(order)):
                if not 0 <= e < n_edges or e in seen:
                    raise ValueError(
                        f"arrival {e} is not a new edge index of 0..{n_edges - 1}"
                    )
                seen.add(e)
                order.append(e)
            if len(order) < t:
                raise ValueError(f"order ended after {len(order)} of {n_edges} arrivals")

    def arrivals(self) -> Iterator[int]:
        """Edge indices in arrival order, each drawn when first read."""
        for t in range(self.num_steps):
            if t == len(self._order):
                self._draw(t + 1)
            yield self._order[t]

    def prefix(self, t: int) -> Hypergraph:
        """The graph after t arrivals; edges keep arrival order."""
        if not 0 <= t <= self.num_steps:
            raise ValueError(f"step {t} out of range 0..{self.num_steps}")
        if self._source is not None:
            self._draw(t)
        return self.host.subgraph(self._order[:t])


def random_process(H: Hypergraph, seed: int = 0) -> SubgraphProcess:
    """Uniform edge ordering under the package PRNG, drawn lazily by
    forward Fisher-Yates (``SplitMix64.permutation``)."""
    if H.num_edges < 1:
        raise ValueError("cannot run a process on a host with no edges")
    return SubgraphProcess.lazy(H, SplitMix64(seed).permutation(H.num_edges))


def tau_min_degree(proc: SubgraphProcess, k: int) -> int:
    """Smallest t at which every vertex lies in at least k prefix edges."""
    if k <= 0:
        return 0
    host = proc.host
    if host.min_degree() < k:
        raise NoHitError(f"host min degree {host.min_degree()} is below k={k}")
    deg = [0] * host.n
    lacking = host.n
    for t, e in enumerate(proc.arrivals(), start=1):
        for v in host.edges[e]:
            deg[v] += 1
            if deg[v] == k:
                lacking -= 1
        if lacking == 0:
            return t
    raise AssertionError("unreachable: host min degree was checked")


# -- monotone property search --------------------------------------------------

Probe = Callable[[Hypergraph, int], Tuple[str, str]]
"""A probe maps (prefix graph, step) to (verdict, provenance); verdict is
"yes"/"no"/"unknown" and must depend on the step only, never on probe
order, so binary and linear search agree."""


@dataclass(frozen=True)
class TauSearchResult:
    step: Optional[int]
    conclusive: bool
    bracket: Optional[tuple]
    probes: tuple

    def to_json(self) -> dict:
        return {
            "step": self.step,
            "conclusive": self.conclusive,
            "bracket": list(self.bracket) if self.bracket else None,
            "probes": [list(p) for p in self.probes],
        }


def predicate_probe(pred: Callable[[Hypergraph], bool]) -> Probe:
    """Wrap an exact boolean predicate as a probe."""

    def probe(graph: Hypergraph, t: int) -> Tuple[str, str]:
        return (YES if pred(graph) else NO), "exact"

    return probe


def hamiltonicity_probe(budget: int = DEFAULT_BUDGET, seed: int = 0) -> Probe:
    """One-sided Berge-Hamiltonicity probe: one rotation search, which falls
    back to the exact oracle when the prefix fits the oracle's guard.

    A connected prefix with a certified twin, overload or bridge
    obstruction (``berge.obstruction``) skips the search, which could
    only end unknown there (its yes needs a Hamilton cycle, its no a
    disconnected host), and goes to the oracle or, if too large, to unknown.
    """

    def probe(graph: Hypergraph, t: int) -> Tuple[str, str]:
        if graph.n < 3 or graph.num_edges < graph.n:
            return NO, "exact"
        blocker = obstruction(graph) if graph.is_connected else None
        if blocker is None:
            outcome = decide_hamiltonian(
                graph, budget, seed=derive_seed(seed, t, 0), fallback=True
            )
            return outcome.verdict, outcome.provenance
        certify_obstruction(graph, blocker)
        if DEFAULT_GUARD.admits(graph):
            return (YES if exact_hamiltonian(graph) else NO), "oracle"
        return UNKNOWN, "rotation"

    return probe


def oracle_probe(guard: OracleGuard = DEFAULT_GUARD) -> Probe:
    def probe(graph: Hypergraph, t: int) -> Tuple[str, str]:
        return (YES if exact_hamiltonian(graph, guard) else NO), "oracle"

    return probe


def tau_property(
    proc: SubgraphProcess, probe: Probe, strategy: str = "binary"
) -> TauSearchResult:
    """Hitting time of a monotone increasing property.

    The strategy only chooses which steps to probe, after the whole host:
    ``linear`` scans up from 0 to the first yes; ``binary`` probes 0, then
    bisects, and stops at its first unknown. One rule reads the result off
    the probe log. The first yes step and the last no step before it make
    the bracket (no, or 0 if there is none; yes), which unknown probes may
    leave open. The hitting time is known when yes is 0 or no is yes - 1.
    """
    if strategy not in ("binary", "linear"):
        raise ValueError(f"strategy must be 'binary' or 'linear', got {strategy!r}")
    N = proc.num_steps
    log: list = []

    def run(t: int) -> str:
        verdict, provenance = probe(proc.prefix(t), t)
        log.append((t, verdict, provenance))
        return verdict

    final = run(N)
    if final == NO:
        raise NoHitError("property does not hold even with every edge present")
    if strategy == "linear":
        # monotonicity reconciles any unknowns a later no covers
        for t in range(N):
            if run(t) == YES:
                break
    elif final == YES and run(0) != YES:
        lo, hi = 0, N
        while hi - lo > 1:
            mid = (lo + hi) // 2
            verdict = run(mid)
            if verdict == UNKNOWN:
                break
            lo, hi = (lo, mid) if verdict == YES else (mid, hi)

    # each strategy probes only between its last no and first yes so far,
    # so every no in the log lies below every yes
    yes = min((t for t, verdict, _ in log if verdict == YES), default=None)
    no = max((t for t, verdict, _ in log if verdict == NO), default=None)
    conclusive = yes is not None and (yes == 0 or no == yes - 1)
    return TauSearchResult(
        yes if conclusive else None, conclusive, (no or 0, yes), tuple(log)
    )


# -- trial harness -------------------------------------------------------------


@dataclass(frozen=True)
class TrialConfig:
    probe: bool = True
    full_tau_bh: bool = False
    budget: int = DEFAULT_BUDGET
    jobs: int = 1


@dataclass(frozen=True)
class TrialRecord:
    trial: int
    seed: int
    tau2: int
    tau_bh: Optional[int]
    coincide: Optional[bool]
    provenance: str
    wall_ms: float

    def __post_init__(self):
        if self.tau_bh is not None and self.tau_bh < self.tau2:
            raise AssertionError(
                f"tau_bh={self.tau_bh} below tau2={self.tau2}: a spanning "
                "cycle forces minimum degree 2"
            )


_WORKER_STATE: dict = {}


def _init_worker(host: Hypergraph, seed_base: int, config: TrialConfig) -> None:
    _WORKER_STATE["args"] = (host, seed_base, config)


def _run_worker(index: int) -> TrialRecord:
    host, seed_base, config = _WORKER_STATE["args"]
    return run_one_trial(host, index, seed_base, config)


def run_one_trial(
    H: Hypergraph, index: int, seed_base: int, config: TrialConfig
) -> TrialRecord:
    started = time.perf_counter()
    seed = seed_base ^ index
    proc = random_process(H, seed)
    tau2 = tau_min_degree(proc, 2)

    tau_bh: Optional[int] = None
    coincide: Optional[bool] = None
    provenance = "none"
    if config.probe:
        probe = hamiltonicity_probe(config.budget, seed=derive_seed(seed, 0xB0))
        verdict, provenance = probe(proc.prefix(tau2), tau2)
        if verdict == YES:
            coincide = True
            tau_bh = tau2
        elif verdict == NO:
            coincide = False
        if config.full_tau_bh and tau_bh is None:
            result = tau_property(proc, probe, strategy="binary")
            if result.conclusive:
                tau_bh = result.step
                coincide = tau_bh == tau2
    wall_ms = (time.perf_counter() - started) * 1000.0
    return TrialRecord(index, seed, tau2, tau_bh, coincide, provenance, wall_ms)


def run_trials(
    H: Hypergraph, trials: int, seed_base: int, config: TrialConfig = TrialConfig()
) -> Tuple[list, dict]:
    """Independent trials (trial i uses seed_base XOR i) plus a summary
    that depends only on the record multiset, never on worker count.

    With ``jobs > 1`` the trials run in a pool of ``min(jobs, trials)``
    worker processes started by ``fork``, which POSIX systems have and
    Windows lacks: each worker inherits the host and config from this
    process rather than receiving a pickled copy. A trial depends on its
    index alone, so the records and the summary are byte-identical for
    every ``jobs``."""
    if trials < 1:
        raise ValueError(f"need at least one trial, got {trials}")
    if config.jobs < 1:
        raise ValueError(f"need at least one job, got {config.jobs}")
    workers = min(config.jobs, trials)
    if workers == 1:
        records = [run_one_trial(H, i, seed_base, config) for i in range(trials)]
    else:
        ctx = multiprocessing.get_context("fork")
        with ctx.Pool(
            processes=workers, initializer=_init_worker, initargs=(H, seed_base, config)
        ) as pool:
            records = pool.map(_run_worker, range(trials))
    records.sort(key=lambda rec: rec.trial)
    return records, summarize(records, seed_base)


def _quantile(sorted_vals: list, q: float) -> float:
    if not sorted_vals:
        return math.nan
    pos = q * (len(sorted_vals) - 1)
    lo = math.floor(pos)
    hi = math.ceil(pos)
    frac = pos - lo
    return sorted_vals[lo] * (1 - frac) + sorted_vals[hi] * frac


def summarize(records: list, seed_base: int) -> dict:
    """Pure function of the (non-empty) record multiset; no timing data so
    output stays byte-reproducible."""
    taus = sorted(rec.tau2 for rec in records)
    n_yes = sum(1 for rec in records if rec.coincide is True)
    n_no = sum(1 for rec in records if rec.coincide is False)
    n_unknown = sum(1 for rec in records if rec.coincide is None)
    return {
        "trials": len(records),
        "seed_base": seed_base,
        "coincidence_fraction": n_yes / len(records),
        "coincide_yes": n_yes,
        "coincide_no": n_no,
        "inconclusive": n_unknown,
        "tau2_min": taus[0],
        "tau2_q25": _quantile(taus, 0.25),
        "tau2_median": _quantile(taus, 0.5),
        "tau2_q75": _quantile(taus, 0.75),
        "tau2_max": taus[-1],
    }


CSV_COLUMNS = ("trial", "seed", "tau2", "tauBH", "coincide", "provenance", "millis")


def records_to_csv(records: list, with_timing: bool = False) -> str:
    """CSV per the external contract. The millis column is left blank
    unless timing is requested, so identical seeds give identical bytes."""
    out = io.StringIO()
    out.write(",".join(CSV_COLUMNS) + "\n")
    for rec in records:
        coincide = "" if rec.coincide is None else ("1" if rec.coincide else "0")
        millis = f"{rec.wall_ms:.3f}" if with_timing else ""
        out.write(
            f"{rec.trial},{rec.seed},{rec.tau2},"
            f"{'' if rec.tau_bh is None else rec.tau_bh},"
            f"{coincide},{rec.provenance},{millis}\n"
        )
    return out.getvalue()
