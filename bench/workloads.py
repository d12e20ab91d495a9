"""The three workloads: hosts, operation lists, timed calls and checks.

Each operation calls one public entry point of the package, the same
function its CLI subcommand calls with default flags:

- tau-complete / tau-trap: ``process.run_one_trial`` (``bergeham tau``);
- absorb-trap: ``engine.absorption_run`` (``bergeham absorb``).

The trial path returns neither the arrival order nor the certificate, so
two capture wrappers, installed on every run, keep the ``SubgraphProcess``
that ``random_process`` returns and the outcome of each
``decide_hamiltonian`` call the probe makes. The checks in ``checks.py``
then judge those against the benchmark's own copy of the host.
"""

from __future__ import annotations

import time

from bergeham import engine, generators, process
from bergeham.hypergraph import parse, serialize
from bergeham.rng import derive_seed

import checks
from checks import CheckError

TAU_CONFIG = process.TrialConfig()  # `bergeham tau` with its default flags

# Shares of tau2 prefixes of two_cliques_matching(36) by the number of
# matching triples they hold: 0 (disconnected, cheap `no`), 1 (a cut
# crossed once, so no Hamilton cycle, and the engine spends three
# rounds of search before `unknown`), 2 or more (`yes` in a few ms).
# Measured on 3,000 trials over host seeds 0..4: 59.5%, 31.0%, 9.6%.
# Each round holds them in fixed proportion, so its cost does not swing
# with how many expensive trials a seed happens to draw.
TRAP_STRATA = (108, 54, 18)

# absorption_run's cost per seed is heavy tailed: most runs build tens
# of Hypergraph instances, about one in ten builds 16-17 thousand and
# takes ~1.8 s. No seed-drawn list that fits in a run has a steady mean,
# so the operation seeds are one fixed list and --seed orders it.
ABSORB_SEEDS = tuple(derive_seed(0xAB50, i) for i in range(60))
ABSORB_HOST_SEED = 1


class Workload:
    """Host set-up, the operations of one round, and their checks."""

    name = ""
    setup_reps = 1

    def build_host(self, seed: int):
        raise NotImplementedError

    def check_host(self, edges) -> None:
        raise NotImplementedError

    def setup(self, seed: int) -> tuple:
        """Build the host, serialise it and parse it back as ``--host``
        loads it, and check it. Returns (host, generator s, parse s)."""
        t0 = time.perf_counter()
        built = self.build_host(seed)
        t1 = time.perf_counter()
        text = serialize(built)
        t2 = time.perf_counter()
        host = parse(text)
        t3 = time.perf_counter()
        if host != built:
            raise CheckError("parse(serialize(host)) differs from the host")
        self.check_host(list(host.edges))
        return host, t1 - t0, t3 - t2


class TauWorkload(Workload):
    def capture(self, patches, captured: dict) -> None:
        draw = process.random_process
        decide = process.decide_hamiltonian

        def capturing_draw(*args, **kwargs):
            captured["proc"] = proc = draw(*args, **kwargs)
            return proc

        def capturing_decide(*args, **kwargs):
            outcome = decide(*args, **kwargs)
            captured["decides"].append(outcome)
            return outcome

        patches.set(process, "random_process", capturing_draw)
        patches.set(process, "decide_hamiltonian", capturing_decide)

    def run(self, host, op):
        index, seed_base = op
        return process.run_one_trial(host, index, seed_base, TAU_CONFIG)

    def check(self, ref, record, captured) -> tuple:
        """Checks one trial against the reference host ``ref``; returns
        (verdict, a signature every repeat of the trial must match)."""
        n, host_edges = ref.n, ref.edges
        proc = captured.get("proc")
        if proc is None:
            raise CheckError("trial drew no arrival order")
        sigma = proc.sigma
        checks.check_order(sigma, len(host_edges))
        checks.check_tau2(n, host_edges, sigma, record.tau2)
        prefix = [host_edges[e] for e in sigma[: record.tau2]]
        if record.coincide is True:
            decides = captured["decides"]
            if not decides or decides[-1].verdict != engine.YES:
                raise CheckError("`yes` without a `yes` from decide_hamiltonian")
            cert = decides[-1].certificate
            if cert is None:
                raise CheckError("`yes` without a certificate")
            checks.check_cycle(n, prefix, cert.vertices, cert.edge_ids)
            verdict = engine.YES
        elif record.coincide is False:
            checks.check_no(n, prefix)
            verdict = engine.NO
        else:
            verdict = engine.UNKNOWN
        return verdict, (record.tau2, verdict, record.provenance)

    def add_counts(self, counts, record) -> None:
        pass

    def trace(self, patches, tracer) -> None:
        def on_scan(counts, tau2):
            counts["process.tau2"] += tau2

        def on_decide(counts, outcome):
            counts["engine.decide_conclusive"] += outcome.verdict != engine.UNKNOWN
            _add_effort(counts, outcome.effort)

        wrap = tracer.wrap
        patches.set(process, "random_process", wrap("process.order", process.random_process))
        patches.set(process, "tau_min_degree", wrap("process.scan", process.tau_min_degree, on_scan))
        patches.set(
            process.SubgraphProcess,
            "prefix",
            wrap("process.prefix", process.SubgraphProcess.prefix),
        )
        patches.set(
            process,
            "decide_hamiltonian",
            wrap("engine.decide", process.decide_hamiltonian, on_decide),
        )
        _trace_engine(patches, tracer)


class TauComplete(TauWorkload):
    name = "tau-complete"
    setup_reps = 5
    N_OPS = 40

    def build_host(self, seed: int):
        return generators.complete(60, 3)

    def check_host(self, edges) -> None:
        checks.check_complete_host(60, 3, edges)

    def ops(self, host, seed: int) -> list:
        seed_base = derive_seed(seed, 0x7A0)
        return [(i, seed_base) for i in range(self.N_OPS)]


class TauTrap(TauWorkload):
    name = "tau-trap"
    setup_reps = 25

    def build_host(self, seed: int):
        return generators.two_cliques_matching(36, seed=derive_seed(seed, 0x4057))

    def check_host(self, edges) -> None:
        checks.check_matching_host(36, edges)

    def ops(self, host, seed: int) -> list:
        """Trials `seed_base ^ i` for i = 0, 1, ..., kept while their
        stratum (matching triples in the tau2 prefix: 0, 1, 2+) has room."""
        seed_base = derive_seed(seed, 0x7A0)
        edges = host.edges
        half = host.n // 2
        room = list(TRAP_STRATA)
        chosen = []
        index = 0
        while any(room):
            sigma = process.random_process(host, seed_base ^ index).sigma
            tau2 = checks.hitting_time(host.n, edges, sigma)
            crossing = sum(1 for e in sigma[:tau2] if edges[e][0] < half <= edges[e][-1])
            stratum = min(crossing, 2)
            if room[stratum]:
                room[stratum] -= 1
                chosen.append((index, seed_base))
            index += 1
        return chosen


class AbsorbTrap(Workload):
    name = "absorb-trap"
    setup_reps = 25

    def build_host(self, seed: int):
        return generators.two_cliques_matching(36, seed=ABSORB_HOST_SEED)

    def check_host(self, edges) -> None:
        checks.check_matching_host(36, edges)

    def ops(self, host, seed: int) -> list:
        return list(ABSORB_SEEDS)

    def capture(self, patches, captured: dict) -> None:
        pass

    def run(self, host, op):
        return engine.absorption_run(host, seed=op)

    def check(self, ref, result, captured) -> tuple:
        outcome, trace = result
        for entry in trace:
            added = entry.get("connect_added", []) + entry.get("added", [])
            for edge in added:
                if tuple(sorted(edge)) not in ref.edge_set:
                    raise CheckError(f"absorbed {edge}, which is not a host edge")
        if outcome.verdict == engine.NO:
            raise CheckError("`no` on a connected host")
        if outcome.verdict == engine.YES:
            cert = outcome.certificate
            if cert is None:
                raise CheckError("`yes` without a certificate")
            checks.check_cycle(ref.n, ref.edges, cert.vertices, cert.edge_ids)
        return outcome.verdict, (outcome.verdict, len(trace))

    def add_counts(self, counts, result) -> None:
        outcome, trace = result
        _add_effort(counts, outcome.effort)
        counts["engine.absorb_steps"] += sum(1 for e in trace if e["event"] == "absorb")

    def trace(self, patches, tracer) -> None:
        _trace_engine(patches, tracer)


def _trace_engine(patches, tracer) -> None:
    def on_closure(counts, closure):
        counts["berge.closure_rotations"] += closure.rotations_applied
        counts["berge.closure_endpoints"] += len(closure.paths)

    wrap = tracer.wrap
    patches.set(engine, "endpoint_closure", wrap("berge.closure", engine.endpoint_closure, on_closure))
    patches.set(engine, "Hypergraph", wrap("hypergraph.build", engine.Hypergraph))
    patches.set(engine, "extract_expander", wrap("engine.extract", engine.extract_expander))
    patches.set(engine, "connect_components", wrap("engine.connect", engine.connect_components))


def _add_effort(counts, effort: dict) -> None:
    for key in ("rotations", "extensions", "closures", "restarts"):
        counts["engine." + key] += effort.get(key, 0)


WORKLOADS = {w.name: w for w in (TauComplete(), TauTrap(), AbsorbTrap())}
