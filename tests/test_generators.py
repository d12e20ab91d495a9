import math

import pytest

from bergeham.generators import (
    GenerationError,
    GenSpec,
    binomial,
    complete,
    degree_condition_random,
    two_cliques,
    two_cliques_matching,
)
from bergeham.hypergraph import check_codegree_condition
from bergeham.rng import derive_seed


class TestComplete:
    def test_counts(self):
        assert complete(4, 3).num_edges == 4
        assert complete(3, 3).num_edges == 1
        H = complete(6, 3)
        assert H.num_edges == 20
        assert all(H.degree(v) == 10 for v in range(6))

    def test_lexicographic_order(self):
        H = complete(4, 3)
        assert H.edges == ((0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3))

    def test_preconditions(self):
        with pytest.raises(ValueError):
            complete(2, 3)


class TestTwoCliques:
    def test_counts_and_disconnection(self):
        H = two_cliques(8, 3)
        assert H.num_edges == 8  # 2 * C(4,3)
        assert not H.is_connected

    def test_min_degree(self):
        assert two_cliques(12, 3).min_degree() == 10  # C(5,2)

    def test_tiny(self):
        assert two_cliques(6, 3).num_edges == 2

    def test_odd_n_rejected(self):
        with pytest.raises(ValueError):
            two_cliques(7, 3)


class TestTwoCliquesMatching:
    def test_structure(self):
        H = two_cliques_matching(12, seed=5)
        assert H.num_edges == 2 * math.comb(6, 3) + 4
        matching = H.edges[-4:]
        covered = [v for e in matching for v in e]
        assert sorted(covered) == list(range(12))  # disjoint and spanning
        for e in matching:
            sides = {v < 6 for v in e}
            assert sides == {True, False}  # each triple meets both halves
        assert H.is_connected

    def test_minus_matching_disconnected(self):
        H = two_cliques_matching(12, seed=5)
        base = H.subgraph(range(H.num_edges - 4))
        assert not base.is_connected

    def test_tiny(self):
        assert two_cliques_matching(6, seed=0).num_edges == 4

    def test_determinism_and_seed_sensitivity(self):
        a = two_cliques_matching(12, seed=9)
        b = two_cliques_matching(12, seed=9)
        c = two_cliques_matching(12, seed=10)
        assert a == b
        assert a != c

    def test_divisibility_rejected(self):
        with pytest.raises(ValueError):
            two_cliques_matching(8)

    def test_matching_distribution_is_uniform_at_n6(self):
        # n=6 admits exactly 9 valid crossing matchings; frozen-seed
        # frequencies must all sit within 4 sigma of uniform
        counts = {}
        trials = 1800
        for seed in range(trials):
            H = two_cliques_matching(6, seed=seed)
            key = frozenset(H.edges[-2:])
            counts[key] = counts.get(key, 0) + 1
        assert len(counts) == 9
        mean = trials / 9
        sigma = (trials * (1 / 9) * (8 / 9)) ** 0.5
        assert all(abs(c - mean) < 4 * sigma for c in counts.values())


class TestBinomial:
    def test_extremes(self):
        assert binomial(6, 3, 0.0, seed=1).num_edges == 0
        assert binomial(6, 3, 1.0, seed=1) == complete(6, 3)

    def test_determinism(self):
        assert binomial(10, 3, 0.5, seed=3) == binomial(10, 3, 0.5, seed=3)

    def test_edge_counts_concentrate(self):
        # frozen-seed statistical check: each count within 4 sigma of mean
        total = math.comb(30, 3)
        mean = total / 2
        sigma = math.sqrt(total * 0.25)
        for seed in range(100):
            m = binomial(30, 3, 0.5, seed=seed).num_edges
            assert abs(m - mean) < 4 * sigma


class TestDegreeConditionRandom:
    def test_post_verified(self):
        H = degree_condition_random(30, 3, 0.1, seed=4)
        assert check_codegree_condition(H, 0.1).status == "verified"

    def test_determinism(self):
        a = degree_condition_random(30, 3, 0.1, seed=11)
        b = degree_condition_random(30, 3, 0.1, seed=11)
        assert a == b

    def test_eps_precondition(self):
        with pytest.raises(ValueError):
            degree_condition_random(30, 3, 0.5, seed=1)

    def test_density_doubles_on_each_retry(self):
        # at n = 8, eps = 0.05, seed 4 the draws at p = 4 eps and 8 eps fail
        # the condition; the third, at 16 eps, passes and is returned
        p = 4 * 0.05
        for attempt in range(2):
            H = binomial(8, 3, p, seed=derive_seed(4, attempt))
            assert not check_codegree_condition(H, 0.05).ok
            p *= 2
        H = degree_condition_random(8, 3, 0.05, seed=4)
        assert H == binomial(8, 3, p, seed=derive_seed(4, 2))

    def test_retries_exhausted(self):
        with pytest.raises(GenerationError):
            degree_condition_random(30, 3, 0.1, seed=1, max_retries=0)


class TestGenSpec:
    def test_dispatch(self):
        assert GenSpec("complete", 5, 3).build() == complete(5, 3)
        assert GenSpec("binomial", 8, 3, p=0.4, seed=2).build() == binomial(
            8, 3, 0.4, seed=2
        )

    def test_missing_params(self):
        with pytest.raises(ValueError):
            GenSpec("binomial", 8, 3).build()
        with pytest.raises(ValueError):
            GenSpec("nonsense", 8, 3).build()
