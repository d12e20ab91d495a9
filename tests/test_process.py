import dataclasses

import pytest

from bergeham.engine import NO, UNKNOWN, YES
from bergeham.generators import binomial, complete, two_cliques, two_cliques_matching
from bergeham.hypergraph import Hypergraph
from bergeham.rng import SplitMix64
from bergeham.process import (
    NoHitError,
    Probe,
    TauSearchResult,
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


LAZY_HOSTS = {
    "complete9": complete(9, 3),
    "matching12": two_cliques_matching(12, seed=2),
    "binomial10": binomial(10, 3, 0.5, seed=4),
}


class TestLazyOrder:
    """The order is drawn only as far as it is read; reading it in any
    order of calls gives the same arrivals."""

    @pytest.mark.parametrize("name", sorted(LAZY_HOSTS))
    def test_tau2_matches_materialised_order(self, name):
        H = LAZY_HOSTS[name]
        for seed in range(20):
            proc = random_process(H, seed)
            tau2 = tau_min_degree(proc, 2)
            assert tau2 == tau_min_degree(SubgraphProcess(H, proc.sigma), 2)
            assert tau2 == tau_min_degree(random_process(H, seed), 2)

    @pytest.mark.parametrize("sigma_first", [False, True])
    def test_prefix_edges_are_sigma_prefix(self, sigma_first):
        H = LAZY_HOSTS["matching12"]
        N = H.num_edges
        for seed in range(10):
            for t in (0, 1, 2, 17, N // 2, N - 1, N):
                proc = random_process(H, seed)
                before = proc.sigma if sigma_first else None
                edges = proc.prefix(t).edges
                sigma = proc.sigma
                assert before is None or before == sigma
                assert sigma == random_process(H, seed).sigma
                assert list(edges) == [H.edges[e] for e in sigma[:t]]

    def test_prefixes_read_in_any_order_agree(self):
        H = LAZY_HOSTS["complete9"]
        sigma = random_process(H, 3).sigma
        proc = random_process(H, 3)
        for t in (40, 5, 41, 0, 84, 12):
            assert list(proc.prefix(t).edges) == [H.edges[e] for e in sigma[:t]]

    @pytest.mark.parametrize("name", sorted(LAZY_HOSTS))
    def test_sigma_is_permutation_after_partial_reads(self, name):
        H = LAZY_HOSTS[name]
        for seed in range(10):
            proc = random_process(H, seed)
            tau_min_degree(proc, 2)
            proc.prefix(seed)
            assert sorted(proc.sigma) == list(range(H.num_edges))
            assert isinstance(proc.sigma, tuple)


@pytest.fixture
def draws(monkeypatch):
    """The bound of every ``SplitMix64.below`` call, in call order."""
    log = []
    below = SplitMix64.below

    def logged_below(rng, bound):
        log.append(bound)
        return below(rng, bound)

    monkeypatch.setattr(SplitMix64, "below", logged_below)
    return log


class TestLazyDraws:
    def test_tau2_trial_draws_one_id_per_arrival_read(self, draws):
        H = complete(120, 3)
        N = H.num_edges
        for seed in range(3):
            draws.clear()
            proc = random_process(H, seed)
            tau2 = tau_min_degree(proc, 2)
            assert proc.prefix(tau2).num_edges == tau2
            proc.prefix(tau2 // 2)
            assert len(draws) == tau2 < N // 100
        assert len(proc.sigma) == N
        assert len(draws) == N

    def test_choose_draws_k_ids(self, draws):
        SplitMix64(1).choose(list(range(10_000)), 5)
        assert draws == [10_000, 9_999, 9_998, 9_997, 9_996]

    def test_permutation_first_items_are_choose(self):
        for seed in range(20):
            for n in (0, 1, 2, 9, 50):
                perm = list(SplitMix64(seed).permutation(n))
                assert sorted(perm) == list(range(n))
                assert SplitMix64(seed).choose(list(range(n)), n // 2) == perm[: n // 2]

    @pytest.mark.parametrize(
        "ids,steps",
        [
            ([0, 1, 1, 2, 3], 3),  # repeated id
            ([0, 5, 1, 2, 3], 2),  # id too large
            ([0, -1, 1, 2, 3], 2),  # negative id
            ([0, 1, 2], 4),  # order ends early
        ],
    )
    def test_lazy_order_rejects_bad_ids_when_read(self, ids, steps):
        H = Hypergraph(6, 3, [(0, 1, 2), (1, 2, 3), (2, 3, 4), (3, 4, 5), (0, 4, 5)])
        assert SubgraphProcess.lazy(H, iter(ids)).prefix(steps - 1).num_edges == steps - 1
        with pytest.raises(ValueError):
            SubgraphProcess.lazy(H, iter(ids)).prefix(steps)
        with pytest.raises(ValueError):
            list(SubgraphProcess.lazy(H, iter(ids)).arrivals())
        with pytest.raises(ValueError):
            SubgraphProcess.lazy(H, iter(ids)).sigma

    @pytest.mark.parametrize("ids", [[0, 1, 2, 3, 4, 4], [0, 1, 2, 3, 4, 0, 9]])
    def test_lazy_order_rejects_ids_past_the_last_edge(self, ids):
        H = Hypergraph(6, 3, [(0, 1, 2), (1, 2, 3), (2, 3, 4), (3, 4, 5), (0, 4, 5)])
        proc = SubgraphProcess.lazy(H, iter(ids))
        assert list(proc.arrivals()) == [0, 1, 2, 3, 4]
        assert proc.prefix(5).num_edges == 5
        with pytest.raises(ValueError):
            proc.sigma
        with pytest.raises(ValueError):
            SubgraphProcess.lazy(H, iter(ids)).sigma
        with pytest.raises(ValueError):
            SubgraphProcess(H, ids)

    def test_lazy_order_reads_no_further_than_asked(self):
        H = complete(5, 3)
        source = iter(range(H.num_edges))
        proc = SubgraphProcess.lazy(H, source)
        proc.prefix(3)
        assert next(source) == 3
        assert proc.prefix(3).edges == H.edges[:3]
        with pytest.raises(ValueError):
            proc.sigma  # id 3 was taken from the source, so it ends one short


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


def reference_tau_property(
    proc: SubgraphProcess, probe: Probe, strategy: str = "binary"
) -> TauSearchResult:
    """``tau_property`` as it was when each strategy kept its own bracket
    and returned its own results, kept verbatim as the reference for the
    probes it makes and the result it reads off them."""
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

    lo_no = None  # largest t with verified no
    hi_yes = N if final == YES else None

    if strategy == "binary":
        if final == YES:
            first = run(0)
            if first == YES:
                return TauSearchResult(0, True, (0, 0), tuple(log))
            if first == NO:
                lo_no = 0
            lo = 0
            hi = N
            while hi - lo > 1:
                mid = (lo + hi) // 2
                verdict = run(mid)
                if verdict == YES:
                    hi = mid
                    hi_yes = mid
                elif verdict == NO:
                    lo = mid
                    lo_no = mid
                else:
                    return TauSearchResult(None, False, (lo, hi), tuple(log))
            if lo_no == lo:
                return TauSearchResult(hi, True, (lo, hi), tuple(log))
            return TauSearchResult(None, False, (lo, hi), tuple(log))
        return TauSearchResult(None, False, (0, N), tuple(log))

    # linear scan; monotonicity reconciles any unknowns a later "no" covers
    for t in range(0, N):
        verdict = run(t)
        if verdict == YES:
            hi_yes = t
            break
        if verdict == NO:
            lo_no = t
    if hi_yes is not None and lo_no == hi_yes - 1:
        return TauSearchResult(hi_yes, True, (lo_no, hi_yes), tuple(log))
    if hi_yes == 0:
        return TauSearchResult(0, True, (0, 0), tuple(log))
    return TauSearchResult(
        None, False, (lo_no if lo_no is not None else 0, hi_yes), tuple(log)
    )


def monotone_probe(hit: int, unknown: set) -> Probe:
    """Yes from step ``hit`` on and no before it, but unknown at the steps
    in ``unknown``."""

    def probe(graph: Hypergraph, t: int):
        if t in unknown:
            return UNKNOWN, "foggy"
        return (YES if t >= hit else NO), "exact"

    return probe


EDGES = complete(10, 2).edges


def identity_process(n_steps: int) -> SubgraphProcess:
    return SubgraphProcess(Hypergraph(10, 2, EDGES[:n_steps]), range(n_steps))


class TestTauPropertyMatchesReference:
    """Both strategies probe the same steps as the reference and read the
    same result off them, except the one bracket the reference got wrong."""

    @pytest.mark.parametrize("strategy", ["binary", "linear"])
    def test_seeded_monotone_probes_with_unknowns(self, strategy):
        rng = SplitMix64(0x7A0)
        procs = [identity_process(n_steps) for n_steps in range(40)]
        for _ in range(3000):
            proc = procs[rng.below(len(procs))]
            N = proc.num_steps
            fog = rng.random() / 2
            unknown = {t for t in range(N + 1) if rng.random() < fog}
            probe = monotone_probe(rng.below(N + 2), unknown)  # N + 1: never
            try:
                want = reference_tau_property(proc, probe, strategy)
            except NoHitError:
                with pytest.raises(NoHitError):
                    tau_property(proc, probe, strategy)
                continue
            got = tau_property(proc, probe, strategy)
            if strategy == "binary" and N in unknown:
                assert want.bracket == (0, N) and got.bracket == (0, None)
                want = dataclasses.replace(want, bracket=(0, None))
            assert got == want

    def test_unknown_whole_host_leaves_the_bracket_open(self):
        """An unknown whole host ends the binary search at once. No yes is
        known, so the bracket has no upper end, as in a linear scan that
        meets no yes."""
        proc = identity_process(12)
        probe = monotone_probe(7, {12})
        assert tau_property(proc, probe, "binary") == TauSearchResult(
            None, False, (0, None), ((12, UNKNOWN, "foggy"),)
        )
        everywhere = monotone_probe(7, set(range(13)))
        assert tau_property(proc, everywhere, "linear").bracket == (0, None)


class TestRunTrials:
    def test_tau_bh_at_least_tau2(self):
        H = complete(7, 3)
        config = TrialConfig(full_tau_bh=True, budget=5000)
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

    def test_pool_never_larger_than_trials(self, monkeypatch):
        from bergeham import process

        pools = []

        class FakePool:
            """Runs the workers' initializer and map in this process."""

            def __init__(self, processes, initializer, initargs):
                pools.append(processes)
                initializer(*initargs)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, func, items):
                return [func(i) for i in items]

        class FakeContext:
            Pool = FakePool

        monkeypatch.setattr(
            process.multiprocessing, "get_context", lambda method: FakeContext
        )
        H = complete(8, 3)
        serial, summary = run_trials(H, 3, 21, TrialConfig(jobs=1))
        for jobs, started in ((2, 2), (3, 3), (8, 3), (64, 3)):
            records, pooled = run_trials(H, 3, 21, TrialConfig(jobs=jobs))
            assert pools.pop() == started
            assert records_to_csv(records) == records_to_csv(serial)
            assert pooled == summary
        run_trials(H, 1, 21, TrialConfig(jobs=8))
        assert pools == []

    @pytest.mark.parametrize("jobs", [0, -3])
    def test_jobs_below_one_rejected(self, jobs):
        with pytest.raises(ValueError, match="at least one job"):
            run_trials(complete(8, 3), 2, 1, TrialConfig(jobs=jobs))

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
        probe = hamiltonicity_probe(budget=100, seed=1)
        g = H
        verdict, provenance = probe(g, 0)
        assert verdict in ("yes", "no")

    def test_probe_depends_only_on_step(self):
        H = complete(7, 3)
        proc = random_process(H, 8)
        probe = hamiltonicity_probe(seed=3)
        g = proc.prefix(20)
        assert probe(g, 20) == probe(g, 20)
