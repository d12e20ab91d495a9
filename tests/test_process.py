import pytest

from bergeham.generators import binomial, complete, two_cliques
from bergeham.hypergraph import Hypergraph
from bergeham.process import (
    NoHitError,
    TrialConfig,
    hamiltonicity_probe,
    oracle_probe,
    predicate_probe,
    SubgraphProcess,
    random_process,
    records_to_csv,
    run_trials,
    summarize,
    tau_min_degree,
    tau_property,
)


class TestRandomProcess:
    def test_single_edge_identity(self):
        H = Hypergraph(3, 3, [(0, 1, 2)])
        assert random_process(H, seed=9).sigma == (0,)

    def test_deterministic(self):
        H = complete(8, 3)
        assert random_process(H, 5).sigma == random_process(H, 5).sigma
        assert random_process(H, 5).sigma != random_process(H, 6).sigma

    def test_sigma_is_permutation(self):
        H = complete(7, 3)
        sigma = random_process(H, 3).sigma
        assert sorted(sigma) == list(range(H.num_edges))

    def test_empty_host_rejected(self):
        with pytest.raises(ValueError):
            random_process(Hypergraph(4, 3, []), 0)

    def test_first_element_roughly_uniform(self):
        # frozen-seed multinomial check: every edge index appears as the
        # first arrival with frequency within 4 sigma of uniform
        H = complete(6, 3)
        N = H.num_edges
        trials = 10_000
        counts = [0] * N
        for seed in range(trials):
            counts[random_process(H, seed).sigma[0]] += 1
        mean = trials / N
        sigma = (trials * (1 / N) * (1 - 1 / N)) ** 0.5
        assert all(abs(c - mean) < 4 * sigma for c in counts)

    def test_prefix_keeps_arrival_order(self):
        H = complete(5, 3)
        proc = random_process(H, 2)
        g2 = proc.prefix(2)
        assert g2.num_edges == 2
        assert g2.edges[0] == H.edges[proc.sigma[0]]


class TestSubgraphProcess:
    def test_accepts_any_permutation(self):
        H = complete(5, 3)
        sigma = tuple(reversed(range(H.num_edges)))
        assert SubgraphProcess(H, sigma).num_steps == H.num_edges

    def test_accepts_empty_order_on_empty_host(self):
        assert SubgraphProcess(Hypergraph(4, 3, []), ()).num_steps == 0

    @pytest.mark.parametrize(
        "sigma",
        [
            (0, 2, 2, 3, 4),  # duplicate id, ends in range
            (0, 1, 2, 3, 5),  # out-of-range id
            (0, 1, 2, -1, 4),  # negative id
            (0, 1, 2, 3),  # too short
            (0, 1, 2, 3, 4, 5),  # too long
            (0, 1, 2, 3, 4, 4),  # too long, every id in range
            (),  # empty order on a nonempty host
        ],
    )
    def test_rejects_non_permutation(self, sigma):
        H = Hypergraph(6, 3, [(0, 1, 2), (1, 2, 3), (2, 3, 4), (3, 4, 5), (0, 4, 5)])
        with pytest.raises(ValueError):
            SubgraphProcess(H, sigma)


class TestTauMinDegree:
    def test_identity_order_on_complete_4(self):
        H = complete(4, 3)
        proc = random_process(H, 0)
        proc = proc.__class__(H, tuple(range(H.num_edges)))  # identity order
        assert tau_min_degree(proc, 2) == 3

    def test_k_zero_is_zero(self):
        H = complete(4, 3)
        assert tau_min_degree(random_process(H, 1), 0) == 0

    def test_single_edge_host(self):
        H = Hypergraph(3, 3, [(0, 1, 2)])
        assert tau_min_degree(random_process(H, 1), 1) == 1
        H2 = Hypergraph(4, 3, [(0, 1, 2)])
        with pytest.raises(NoHitError):
            tau_min_degree(random_process(H2, 1), 1)

    def test_matches_bruteforce(self):
        for seed in range(10):
            H = complete(7, 3)
            proc = random_process(H, seed)
            tau = tau_min_degree(proc, 2)
            assert proc.prefix(tau).min_degree() >= 2
            assert proc.prefix(tau - 1).min_degree() < 2


class TestTauProperty:
    def test_edge_count_predicate(self):
        H = complete(6, 3)
        proc = random_process(H, 4)
        probe = predicate_probe(lambda g: g.num_edges >= 5)
        assert tau_property(proc, probe, "binary").step == 5
        assert tau_property(proc, probe, "linear").step == 5

    def test_binary_equals_linear_for_hamiltonicity(self):
        H = complete(7, 3)
        probe = oracle_probe()
        for seed in range(3):
            proc = random_process(H, seed)
            b = tau_property(proc, probe, "binary")
            l = tau_property(proc, probe, "linear")
            assert b.conclusive and l.conclusive
            assert b.step == l.step

    def test_no_hit_raises(self):
        H = two_cliques(8, 3)
        proc = random_process(H, 1)
        with pytest.raises(NoHitError):
            tau_property(proc, oracle_probe(), "binary")

    def test_inconclusive_bracket(self):
        H = complete(6, 3)
        proc = random_process(H, 2)
        probe_exact = predicate_probe(lambda g: g.num_edges >= 7)

        def foggy(graph, t):
            verdict, prov = probe_exact(graph, t)
            if t in (5, 6, 7):
                return "unknown", "foggy"
            return verdict, prov

        res = tau_property(proc, foggy, "binary")
        assert not res.conclusive
        assert res.step is None
        lo, hi = res.bracket
        assert lo < 7 <= hi

    def test_trivial_property_hits_at_zero(self):
        H = complete(5, 3)
        proc = random_process(H, 0)
        probe = predicate_probe(lambda g: True)
        assert tau_property(proc, probe, "binary").step == 0
        assert tau_property(proc, probe, "linear").step == 0


class TestRunTrials:
    def test_tau_bh_at_least_tau2(self):
        H = complete(7, 3)
        config = TrialConfig(full_tau_bh=True, budgets=(5000,))
        records, summary = run_trials(H, 8, 77, config)
        for rec in records:
            assert rec.tau_bh is not None
            assert rec.tau_bh >= rec.tau2

    def test_deterministic_records(self):
        H = complete(10, 3)
        config = TrialConfig()
        a, sa = run_trials(H, 6, 123, config)
        b, sb = run_trials(H, 6, 123, config)
        assert [r.tau2 for r in a] == [r.tau2 for r in b]
        assert [r.coincide for r in a] == [r.coincide for r in b]
        assert sa == sb

    def test_worker_count_does_not_change_results(self):
        H = complete(10, 3)
        one, s1 = run_trials(H, 6, 55, TrialConfig(jobs=1))
        two, s2 = run_trials(H, 6, 55, TrialConfig(jobs=2))
        assert [(r.trial, r.seed, r.tau2, r.tau_bh, r.coincide) for r in one] == [
            (r.trial, r.seed, r.tau2, r.tau_bh, r.coincide) for r in two
        ]
        assert s1 == s2

    def test_summary_is_pure_function_of_records(self):
        H = complete(8, 3)
        records, summary = run_trials(H, 5, 9, TrialConfig())
        assert summarize(list(reversed(records)), 9) == summary

    def test_probe_off_skips_hamiltonicity(self):
        H = complete(8, 3)
        records, summary = run_trials(H, 3, 4, TrialConfig(probe=False))
        assert all(r.coincide is None and r.provenance == "none" for r in records)

    def test_csv_shape_and_determinism(self):
        H = complete(8, 3)
        records, _ = run_trials(H, 4, 11, TrialConfig())
        text = records_to_csv(records)
        lines = text.strip().split("\n")
        assert lines[0] == "trial,seed,tau2,tauBH,coincide,provenance,millis"
        assert len(lines) == 5
        assert records_to_csv(records) == text
        # timing column is blank unless requested
        assert all(line.endswith(",") for line in lines[1:])


class TestProbes:
    def test_hamiltonicity_probe_small_host_oracle_backstop(self):
        H = binomial(7, 3, 0.2, seed=5)
        probe = hamiltonicity_probe(budgets=(100,), seed=1)
        g = H
        verdict, provenance = probe(g, 0)
        assert verdict in ("yes", "no")

    def test_probe_depends_only_on_step(self):
        H = complete(7, 3)
        proc = random_process(H, 8)
        probe = hamiltonicity_probe(seed=3)
        g = proc.prefix(20)
        assert probe(g, 20) == probe(g, 20)
