import pytest

from bergeham.berge import verify_cycle, verify_path
from bergeham.generators import binomial, complete, two_cliques
from bergeham.hypergraph import CapacityError, Hypergraph
from bergeham.oracle import (
    OracleGuard,
    exact_hamiltonian,
    exact_is_booster,
    exact_longest_path,
)


def wheel_host():
    # edges {i, i+1, i+2} mod 5: a tight cyclic 3-graph
    return Hypergraph(5, 3, [tuple(sorted(((i, (i + 1) % 5, (i + 2) % 5)))) for i in range(5)])


class TestExactHamiltonian:
    def test_complete_4_yes(self):
        cert = exact_hamiltonian(complete(4, 3))
        assert cert is not None
        assert verify_cycle(complete(4, 3), cert)

    def test_two_cliques_no(self):
        assert exact_hamiltonian(two_cliques(8, 3)) is None

    def test_cyclic_host_yes(self):
        H = wheel_host()
        cert = exact_hamiltonian(H)
        assert cert is not None
        assert verify_cycle(H, cert)
        assert len(cert) == 5

    def test_too_few_edges_no(self):
        # a spanning cycle needs n distinct edges
        H = Hypergraph(4, 3, [(0, 1, 2), (0, 1, 3), (0, 2, 3)])
        assert exact_hamiltonian(H) is None

    def test_guard_rejects_big_hosts(self):
        with pytest.raises(CapacityError):
            exact_hamiltonian(complete(12, 3))
        with pytest.raises(CapacityError):
            exact_hamiltonian(complete(10, 3), OracleGuard(max_n=10, max_edges=100))


class TestExactLongestPath:
    def test_single_edge_gives_two_vertices(self):
        # three vertices need two distinct edges; one edge caps the path at 2
        H = Hypergraph(3, 3, [(0, 1, 2)])
        path = exact_longest_path(H)
        assert len(path) == 2

    def test_complete_5_spans(self):
        H = complete(5, 3)
        path = exact_longest_path(H)
        assert len(path) == 5
        assert verify_path(H, path)

    def test_empty_graph_single_vertex(self):
        assert len(exact_longest_path(Hypergraph(4, 3, []))) == 1

    def test_lexicographic_tie_break(self):
        H = complete(5, 3)
        path = exact_longest_path(H)
        # lexicographically first spanning sequence realizable with distinct edges
        assert path.vertices == (0, 1, 2, 3, 4)

    def test_monotone_under_edge_addition(self):
        for seed in range(10):
            H = binomial(7, 3, 0.18, seed=seed)
            base = len(exact_longest_path(H))
            for cand in [(0, 1, 2), (2, 3, 4), (4, 5, 6)]:
                if H.has_edge(cand):
                    continue
                bigger = Hypergraph(H.n, H.r, list(H.edges) + [cand])
                assert len(exact_longest_path(bigger)) >= base
                if exact_hamiltonian(H) is not None:
                    assert exact_hamiltonian(bigger) is not None


class TestHamiltonianVsLongestPath:
    def test_yes_implies_spanning_path(self):
        for seed in range(15):
            H = binomial(6, 3, 0.35, seed=seed)
            cert = exact_hamiltonian(H)
            if cert is not None:
                assert len(exact_longest_path(H)) == H.n


def _naive_assignment(pair_options, used, idx=0):
    if idx == len(pair_options):
        return True
    for e in pair_options[idx]:
        if e not in used:
            used.add(e)
            if _naive_assignment(pair_options, used, idx + 1):
                used.discard(e)
                return True
            used.discard(e)
    return False


def _naive_longest(H):
    """Lex-least maximum realizable sequence by scanning all permutations,
    longest length first; independent of the package matcher."""
    import itertools

    for L in range(H.n, 1, -1):
        for seq in itertools.permutations(range(H.n), L):
            opts = []
            ok = True
            for i in range(L - 1):
                cand = [e for e in H.incidence[seq[i]] if seq[i + 1] in H.edges[e]]
                if not cand:
                    ok = False
                    break
                opts.append(cand)
            if ok and _naive_assignment(opts, set()):
                return seq
    return (0,)


class TestAgainstNaiveEnumeration:
    def test_longest_path_and_tie_break(self):
        for seed in range(20):
            H = binomial(5 + seed % 2, 3, 0.35, seed=seed * 13)
            assert exact_longest_path(H).vertices == _naive_longest(H)


class TestExactIsBooster:
    def host_missing_closure(self):
        # chain of three edges: four pair-slots but three edges, so the
        # longest path stops at 4 vertices
        return Hypergraph(5, 3, [(0, 1, 2), (1, 2, 3), (2, 3, 4)])

    def test_closing_pair_is_booster(self):
        gamma = self.host_missing_closure()
        assert len(exact_longest_path(gamma)) == 4
        assert exact_is_booster(gamma, ((0, 3, 4), (0, 1, 4)))

    def test_useless_pair_is_not(self):
        # candidates inside a component that already has a spanning path
        # cannot lengthen anything; the isolated vertices stay unreachable
        gamma = Hypergraph(7, 3, list(wheel_host().edges))
        assert len(exact_longest_path(gamma)) == 5
        assert not exact_is_booster(gamma, ((0, 1, 3), (0, 2, 3)))

    def test_hamiltonian_host_rejected(self):
        H = wheel_host()
        with pytest.raises(ValueError, match="non-Hamiltonian"):
            exact_is_booster(H, ((0, 1, 3), (0, 2, 4)))

    def test_existing_edge_rejected(self):
        gamma = self.host_missing_closure()
        with pytest.raises(ValueError, match="already an edge"):
            exact_is_booster(gamma, ((0, 1, 2), (0, 1, 4)))

    @pytest.mark.parametrize("bad", [(0, 1), (0, 1, 1), (0, 1, 5), (-1, 0, 1)])
    def test_candidate_that_is_no_r_set_of_the_host_rejected(self, bad):
        gamma = self.host_missing_closure()
        with pytest.raises(ValueError, match="distinct vertices|out of range"):
            exact_is_booster(gamma, ((0, 1, 4), bad))

    def test_same_candidate_twice_rejected(self):
        gamma = self.host_missing_closure()
        with pytest.raises(ValueError, match="distinct"):
            exact_is_booster(gamma, ((0, 1, 4), (0, 1, 4)))
