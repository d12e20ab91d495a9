import math

import pytest

from bergeham.generators import binomial, complete, two_cliques
from bergeham.hypergraph import (
    NO_COUNTEREXAMPLE,
    VERIFIED,
    VIOLATED,
    CapacityError,
    CheckResult,
    Hypergraph,
)
from bergeham.rng import SplitMix64
from bergeham.thresholds import (
    _check_p7_exact,
    basic_thresholds,
    decay_bounds_report,
    decay_sum,
    default_property_d0,
    low_degree_vertices,
    property_report,
    regular_p0_closed_form,
    shifted_thresholds,
    solve_p0,
    threshold_report,
)


class TestBasicThresholds:
    def test_complete_60_values(self):
        H = complete(60, 3)
        bt = basic_thresholds(H, 0.3)
        assert H.num_edges == 34220
        assert bt.p1 == pytest.approx(math.log(60) / 3600, rel=1e-12)
        assert bt.m1_real == pytest.approx(34220 * math.log(60) / 3600, rel=1e-12)
        assert 38 <= bt.m1 <= 39

    def test_ratio_p2_over_p1(self):
        H = complete(20, 3)
        for eps in (0.1, 0.25, 0.5):
            bt = basic_thresholds(H, eps)
            assert bt.p2 / bt.p1 == pytest.approx(2.0 / eps, rel=1e-12)

    def test_eps_one_limit(self):
        H = complete(20, 3)
        bt = basic_thresholds(H, 0.999999)
        assert bt.m2_real == pytest.approx(2 * bt.m1_real, rel=1e-4)


class TestSolveP0:
    def test_regular_closed_form(self):
        for n in (30, 60):
            H = complete(n, 3)
            D = math.comb(n - 1, 2)
            assert solve_p0(H) == pytest.approx(
                regular_p0_closed_form(n, D), rel=1e-10
            )

    def test_residual_bound(self):
        H = complete(30, 3)
        p0 = solve_p0(H, tol=1e-9)
        assert abs(decay_sum(H, p0) - 1 / math.log(30)) <= 1e-9

    def test_isolated_vertex_no_root(self):
        H = Hypergraph(10, 3, [(0, 1, 2)])
        with pytest.raises(ValueError, match="degree 0"):
            solve_p0(H)

    def test_monotone_decreasing_sum(self):
        H = binomial(20, 3, 0.4, seed=1)
        vals = [decay_sum(H, p) for p in (0.0, 0.1, 0.3, 0.7, 1.0)]
        assert all(a > b for a, b in zip(vals, vals[1:]))


class TestShiftedThresholds:
    def test_zero_c_gamma_is_identity(self):
        H = complete(30, 3)
        p0 = solve_p0(H)
        st = shifted_thresholds(H, 0.3, c_gamma=0.0, p0=p0)
        assert st.gamma == 0.0
        assert st.p3 == p0 == st.p4

    def test_window_width(self):
        H = complete(60, 3)
        st = shifted_thresholds(H, 0.3, c_gamma=1.0)
        assert st.p4 - st.p3 == pytest.approx(2 * st.gamma / 60**2, rel=1e-9)

    def test_gamma_value_complete_60(self):
        H = complete(60, 3)
        st = shifted_thresholds(H, 0.3, c_gamma=1.0)
        assert st.gamma == pytest.approx(math.log(math.log(math.log(60))), rel=1e-12)
        assert st.gamma == pytest.approx(0.34331, abs=1e-5)

    def test_small_n_gamma_floors_at_zero(self):
        H = complete(10, 3)
        st = shifted_thresholds(H, 0.3, c_gamma=1.0)
        assert st.gamma == 0.0


class TestDecayBounds:
    def test_regular_host_tight_at_gamma_zero(self):
        # at the root with gamma=0, ln n * sum = 1 on both sides
        H = complete(60, 3)
        p0 = solve_p0(H)
        rep = decay_bounds_report(H, 0.3, p0, p0, 0.0)
        assert rep.lhs_p3 == pytest.approx(1.0, abs=1e-8)
        assert rep.lhs_p4 == pytest.approx(1.0, abs=1e-8)
        assert rep.rhs_L1 == 1.0 and rep.rhs_L2 == 1.0 and rep.rhs_L3 == 1.0

    def test_large_gamma_small_n_l3_fails_without_error(self):
        H = complete(12, 3)
        p0 = solve_p0(H)
        st = shifted_thresholds(H, 0.3, c_gamma=50.0, p0=p0)
        rep = decay_bounds_report(H, 0.3, st.p3, st.p4, 5.0)
        assert isinstance(rep.L3_ok, bool)

    def test_full_report_brackets_p0(self):
        rep = threshold_report(complete(30, 3), 0.3)
        assert rep.p3 <= rep.p0 <= rep.p4
        assert rep.m1 <= rep.m1_real
        assert rep.m2 >= rep.m2_real
        assert abs(rep.residual) <= 1e-9


def brute_force_p3(H, d0):
    small = set(low_degree_vertices(H, d0))
    for e in H.edges:
        if sum(1 for v in e if v in small) >= 2:
            return False
    closed = set(small)
    for v in small:
        for i in H.incidence[v]:
            closed.update(H.edges[i])
    for v in range(H.n):
        if v in small:
            continue
        hits = 0
        for i in H.incidence[v]:
            if any(u != v and u in closed for u in H.edges[i]):
                hits += 1
        if hits > 1:
            return False
    return True


class TestPropertyReport:
    def test_empty_graph_p1_ok_p2_violated(self):
        H = Hypergraph(8, 3, [])
        rep = property_report(H, 0.3, mode="exact")
        assert rep["P1"].status == "verified"
        assert rep["P2"].status == "violated"

    def test_complete_8_p7_verified(self):
        rep = property_report(complete(8, 3), 0.5, mode="exact")
        assert rep["P7"].status == "verified"

    def test_two_cliques_p7_violated_with_clique_witness(self):
        rep = property_report(two_cliques(8, 3), 0.5, mode="exact")
        assert rep["P7"].status == "violated"
        U, W = rep["P7"].witness
        assert sorted(U + W) == list(range(8))
        assert {len(U), len(W)} == {4}

    def test_p3_matches_bruteforce(self):
        for seed in range(10):
            H = binomial(10, 3, 0.12, seed=seed)
            d0 = 1.0  # force a nonempty low-degree set at desk scale
            rep = property_report(H, 0.3, mode="exact", d0=d0)
            assert (rep["P3"].status == "verified") == brute_force_p3(H, d0)

    def test_exact_guard(self):
        with pytest.raises(CapacityError):
            property_report(complete(16, 3), 0.3, mode="exact")

    def test_sampled_never_claims_verified_when_draws_exist(self):
        H = complete(10, 3)
        rep = property_report(H, 0.3, mode="sampled", trials=50, seed=2)
        for name in ("P4", "P5"):
            assert rep[name].status in ("no_counterexample", "violated")

    def test_sampled_vacuous_p6_is_verified(self):
        # u + w exceeds n: no admissible pair exists, deterministically
        H = complete(10, 3)
        rep = property_report(H, 0.2, mode="sampled", trials=10, seed=3)
        assert rep["P6"].status == "verified"

    def test_p4_exact_on_sparse_host(self):
        H = Hypergraph(8, 3, [(0, 1, 2), (3, 4, 5)])
        rep = property_report(H, 0.5, mode="exact")
        # only two edges: no U can collect more than 2 multi-hits
        assert rep["P4"].status == "verified"

    def test_p4_violation_found(self):
        # dense small host: U = any pair inside many shared edges
        H = complete(8, 3)
        rep = property_report(H, 0.5, mode="exact")
        assert rep["P4"].status == "violated"
        U = rep["P4"].witness
        count = sum(
            1 for e in H.edges if sum(1 for v in e if v in set(U)) >= 2
        )
        assert count > len(U) * math.log(8) ** 0.75

    @pytest.mark.parametrize("mode", ["exact", "sampled"])
    def test_one_vertex_host_refused(self, mode):
        with pytest.raises(ValueError, match="need n >= 2"):
            property_report(Hypergraph(1, 2, []), 0.3, mode=mode)

    @pytest.mark.parametrize("trials", [0, -3])
    def test_sampled_trials_below_one_refused(self, trials):
        H = complete(8, 3)
        with pytest.raises(ValueError, match="at least one trial"):
            property_report(H, 0.3, mode="sampled", trials=trials)
        exact = property_report(H, 0.3, mode="exact", trials=trials)
        assert exact == property_report(H, 0.3, mode="exact")

    def test_default_d0_tiny_at_desk_scale(self):
        assert default_property_d0(40, 0.1) < 1e-6


def reference_sample_p7(H, rng, eps, trials) -> CheckResult:
    """The sampled P7 check that ``property_report`` ran before P7 was
    decided exactly in both modes, kept verbatim as the reference that the
    exact check must never miss a violation of."""
    lo = eps * H.n / 6.0
    sizes = [s for s in range(1, H.n // 2 + 1) if s >= lo]
    if not sizes:
        return CheckResult(VERIFIED, observed=None, bound=None)  # vacuous
    vertices = list(range(H.n))
    for _ in range(trials):
        u_size = sizes[rng.below(len(sizes))]
        U = set(rng.choose(vertices, u_size))
        crossing = any(
            0 < sum(1 for v in e if v in U) < len(e) for e in H.edges
        )
        if not crossing:
            U_t = tuple(sorted(U))
            W_t = tuple(v for v in vertices if v not in U)
            return CheckResult(VIOLATED, witness=(U_t, W_t))
    return CheckResult(NO_COUNTEREXAMPLE, trials=trials)


def p7_hosts():
    """Seeded sparse binomial hosts (n from 10 to 30), two-clique hosts and
    edgeless hosts, each with the eps it is checked at."""
    rng = SplitMix64(7)
    for i in range(60):
        n = 10 + rng.below(21)
        degree = 0.5 + 2.5 * rng.random()  # expected vertex degree
        H = binomial(n, 3, degree / math.comb(n - 1, 2), seed=i)
        yield H, (0.1, 0.3, 0.6, 0.9)[i % 4]
    for n in (8, 10, 12, 20, 30):
        yield two_cliques(n, 3), 0.5
        yield Hypergraph(n, 3, []), 0.3


class TestP7AgainstSampler:
    def test_sampler_violations_are_exact_violations(self):
        found = 0
        for i, (H, eps) in enumerate(p7_hosts()):
            sampled = reference_sample_p7(H, SplitMix64(i), eps, 300)
            exact = _check_p7_exact(H, eps)
            if sampled.status == VIOLATED:
                found += 1
                assert exact.status == VIOLATED, (H, eps)
        assert found >= 20  # the scan exercises violations, not only passes

    def test_exact_witness_is_a_partition_without_crossing_edge(self):
        violated = 0
        for H, eps in p7_hosts():
            res = _check_p7_exact(H, eps)
            if res.status != VIOLATED:
                continue
            violated += 1
            U, W = res.witness
            assert sorted(U + W) == list(range(H.n))
            assert eps * H.n / 6.0 <= len(U) <= H.n / 2.0
            side = set(U)
            for e in H.edges:
                assert len({v in side for v in e}) == 1, (e, U)
        assert violated >= 20

    def test_sampled_report_decides_p7_exactly(self):
        for i, (H, eps) in enumerate(p7_hosts()):
            rep = property_report(H, eps, mode="sampled", trials=5, seed=i)
            assert rep["P7"] == _check_p7_exact(H, eps)
