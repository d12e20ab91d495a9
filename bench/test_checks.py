"""Each check rejects a mutated output of the program and accepts the real one.

    python3 bench/test_checks.py
"""

from __future__ import annotations

import dataclasses
import itertools
import sys
import unittest
from pathlib import Path
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

from bergeham import engine, generators, process  # noqa: E402

import checks  # noqa: E402
from checks import CheckError  # noqa: E402
from spans import Patches  # noqa: E402
from workloads import AbsorbTrap, TauTrap  # noqa: E402


def _ref(host):
    return SimpleNamespace(n=host.n, edges=list(host.edges), edge_set=frozenset(host.edges))


class CycleCheck(unittest.TestCase):
    def setUp(self):
        self.host = generators.complete(8, 3)
        self.edges = list(self.host.edges)
        outcome = engine.decide_hamiltonian(self.host, seed=3)
        self.assertEqual(outcome.verdict, engine.YES)
        self.vs = list(outcome.certificate.vertices)
        self.es = list(outcome.certificate.edge_ids)

    def test_accepts_certificate(self):
        checks.check_cycle(8, self.edges, self.vs, self.es)

    def test_rejects_edge_missing_its_vertices(self):
        u, w = self.vs[0], self.vs[1]
        wrong = next(
            i for i, e in enumerate(self.edges)
            if not (u in e and w in e) and i not in self.es
        )
        es = [wrong] + self.es[1:]
        with self.assertRaises(CheckError):
            checks.check_cycle(8, self.edges, self.vs, es)

    def test_rejects_repeated_vertex(self):
        vs = [self.vs[0]] + self.vs[:-1]
        with self.assertRaises(CheckError):
            checks.check_cycle(8, self.edges, vs, self.es)

    def test_rejects_repeated_edge(self):
        with self.assertRaises(CheckError):
            checks.check_cycle(8, self.edges, self.vs, [self.es[0]] + self.es[:-1])

    def test_rejects_short_cycle(self):
        with self.assertRaises(CheckError):
            checks.check_cycle(8, self.edges, self.vs[:-1], self.es[:-1])


class ProcessChecks(unittest.TestCase):
    def setUp(self):
        self.host = generators.complete(12, 3)
        self.edges = list(self.host.edges)
        self.proc = process.random_process(self.host, seed=5)
        self.tau2 = process.tau_min_degree(self.proc, 2)

    def test_accepts_order_and_tau2(self):
        checks.check_order(self.proc.sigma, len(self.edges))
        checks.check_tau2(12, self.edges, self.proc.sigma, self.tau2)

    def test_rejects_tau2_off_by_one(self):
        for wrong in (self.tau2 - 1, self.tau2 + 1):
            with self.assertRaises(CheckError):
                checks.check_tau2(12, self.edges, self.proc.sigma, wrong)

    def test_rejects_order_with_repeat_or_gap(self):
        sigma = list(self.proc.sigma)
        with self.assertRaises(CheckError):
            checks.check_order([sigma[1]] + sigma[1:], len(self.edges))
        with self.assertRaises(CheckError):
            checks.check_order(sigma[:-1], len(self.edges))

    def test_no_needs_a_disconnected_or_short_graph(self):
        full = [self.edges[e] for e in self.proc.sigma]
        self.assertEqual(checks.components(12, full), 1)
        with self.assertRaises(CheckError):
            checks.check_no(12, full)
        checks.check_no(12, list(generators.two_cliques(12, 3).edges))
        checks.check_no(12, full[:11])


class HostChecks(unittest.TestCase):
    def test_matching_host(self):
        edges = list(generators.two_cliques_matching(36, seed=4).edges)
        checks.check_matching_host(36, edges)
        with self.assertRaises(CheckError):
            checks.check_matching_host(36, list(generators.two_cliques(36, 3).edges))
        # the last two edges are matching triples; make the last one
        # share a vertex with the one before it
        last, other = edges[-1], edges[-2]
        moved = edges[:-1] + [(last[0], last[1], other[2])]
        with self.assertRaises(CheckError):
            checks.check_matching_host(36, moved)

    def test_complete_host(self):
        edges = list(generators.complete(9, 3).edges)
        checks.check_complete_host(9, 3, edges)
        with self.assertRaises(CheckError):
            checks.check_complete_host(9, 3, edges[:-1])
        with self.assertRaises(CheckError):
            checks.check_complete_host(9, 3, edges[:-1] + [edges[0]])


class WorkloadChecks(unittest.TestCase):
    """The checks as the runner applies them, on a real tau-trap trial
    and a real absorption run, each mutated once."""

    def _trial(self, want):
        host = generators.two_cliques_matching(36, seed=2)
        workload = TauTrap()
        for index in range(200):
            captured = {"proc": None, "decides": []}
            patches = Patches()
            workload.capture(patches, captured)
            try:
                record = workload.run(host, (index, 77))
            finally:
                patches.restore()
            if record.coincide is want:
                return workload, _ref(host), record, captured
        self.fail(f"no trial with coincide={want}")

    def test_yes_trial(self):
        workload, ref, record, captured = self._trial(True)
        self.assertEqual(workload.check(ref, record, captured)[0], engine.YES)
        for tau2 in (record.tau2 - 1, record.tau2 + 1):
            with self.assertRaises(CheckError):
                workload.check(ref, dataclasses.replace(record, tau2=tau2, tau_bh=tau2), captured)
        outcome = captured["decides"][-1]
        cert = outcome.certificate
        bad = dataclasses.replace(cert, vertices=(cert.vertices[1],) + cert.vertices[1:])
        captured["decides"][-1] = dataclasses.replace(outcome, certificate=bad)
        with self.assertRaises(CheckError):
            workload.check(ref, record, captured)

    def test_no_on_connected_prefix(self):
        workload, ref, record, captured = self._trial(None)  # connected, unknown
        workload.check(ref, record, captured)
        with self.assertRaises(CheckError):
            workload.check(ref, dataclasses.replace(record, coincide=False), captured)

    def test_absorb(self):
        host = generators.two_cliques_matching(36, seed=1)
        workload = AbsorbTrap()
        ref = _ref(host)
        outcome, trace = workload.run(host, 11)
        self.assertEqual(workload.check(ref, (outcome, trace), {})[0], engine.YES)
        with self.assertRaises(CheckError):
            workload.check(ref, (dataclasses.replace(outcome, verdict=engine.NO), trace), {})
        stranger = next(e for e in itertools.combinations(range(36), 3) if not host.has_edge(e))
        foreign = {"event": "absorb", "added": [list(stranger)]}
        with self.assertRaises(CheckError):
            workload.check(ref, (outcome, trace + [foreign]), {})


if __name__ == "__main__":
    unittest.main()
