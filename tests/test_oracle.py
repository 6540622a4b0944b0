from math import sqrt

import pytest
from hypothesis import given
from hypothesis import strategies as st

from degseq import (
    NonGraphicalError,
    OracleCapError,
    RandomSource,
    SimpleGraph,
    enumerate_graphs,
    exact_conditional_edge_prob,
    exact_edge_marginals,
    exact_subgraph_law,
    exact_uniform_sample,
)
from degseq.oracle import edge_counts, raw_scan_masks


class TestEnumerateGraphs:
    def test_perfect_matchings_of_k4(self):
        fam = enumerate_graphs((1, 1, 1, 1))
        assert len(fam) == 3
        for g in fam.members:
            assert g.degree_vector() == (1, 1, 1, 1)

    def test_four_cycles(self):
        fam = enumerate_graphs((2, 2, 2, 2))
        assert len(fam) == 3

    def test_five_cycles(self):
        # (5-1)!/2 labeled cycles on 5 vertices
        fam = enumerate_graphs((2, 2, 2, 2, 2))
        assert len(fam) == 12

    def test_members_distinct(self):
        fam = enumerate_graphs((2, 2, 2, 2, 2))
        assert len({g.edges for g in fam.members}) == 12

    def test_non_graphical_empty(self):
        assert len(enumerate_graphs((3, 3, 1, 1))) == 0

    def test_cap_enforced(self):
        with pytest.raises(OracleCapError):
            enumerate_graphs((1,) * 12, cap=10)

    def test_env_cap_override(self, monkeypatch):
        monkeypatch.setenv("DEGSEQ_ORACLE_CAP", "3")
        with pytest.raises(OracleCapError):
            enumerate_graphs((1, 1, 1, 1))

    @given(st.lists(st.integers(0, 3), min_size=2, max_size=5))
    def test_backtracking_agrees_with_raw_scan(self, raw):
        n = len(raw)
        d = tuple(min(x, n - 1) for x in raw)
        assert list(enumerate_graphs(d).masks) == sorted(raw_scan_masks(d))


class TestExactEdgeMarginals:
    def test_single_edge(self):
        assert exact_edge_marginals((1, 1))[(0, 1)] == 1.0

    def test_matchings(self):
        m = exact_edge_marginals((1, 1, 1, 1))
        for j in range(4):
            for k in range(j + 1, 4):
                assert m[(j, k)] == pytest.approx(1 / 3)

    def test_cycles(self):
        m = exact_edge_marginals((2, 2, 2, 2))
        assert m[(0, 3)] == pytest.approx(2 / 3)

    def test_non_graphical_raises(self):
        with pytest.raises(NonGraphicalError):
            exact_edge_marginals((3, 3, 1, 1))

    @given(st.lists(st.integers(0, 3), min_size=2, max_size=5))
    def test_row_sums_exact(self, raw):
        n = len(raw)
        d = tuple(min(x, n - 1) for x in raw)
        fam = enumerate_graphs(d)
        if not fam.masks:
            return
        counts = edge_counts(fam)
        from degseq.graphs import tri_index

        for j in range(n):
            row = sum(counts[tri_index(n, min(j, k), max(j, k))] for k in range(n) if k != j)
            assert row == len(fam) * d[j]


class TestExactConditional:
    def test_forced_complement(self):
        h = SimpleGraph.from_edges(4, [(0, 1)])
        assert exact_conditional_edge_prob((1, 1, 1, 1), h, (2, 3)) == 1.0

    def test_equals_marginal_when_unconditioned(self):
        m = exact_edge_marginals((2, 2, 2, 2))
        for jk in [(0, 1), (1, 3)]:
            p = exact_conditional_edge_prob((2, 2, 2, 2), SimpleGraph.empty(4), jk)
            assert p == pytest.approx(m[jk])

    def test_triangle_completion(self):
        h = SimpleGraph.from_edges(3, [(0, 1)])
        assert exact_conditional_edge_prob((2, 2, 2), h, (0, 2)) == 1.0

    def test_empty_conditioning_raises(self):
        h = SimpleGraph.from_edges(4, [(0, 1), (2, 3)])
        # no matching contains a third edge; conditioning on a non-member
        # superset is fine, but an unrealizable one must raise
        bad = SimpleGraph.from_edges(4, [(0, 1), (0, 2)])
        with pytest.raises(ValueError):
            exact_conditional_edge_prob((1, 1, 1, 1), bad, (1, 3))
        # a full member leaves no room, so conditioning is fine but the
        # candidate edge probability is 0
        assert exact_conditional_edge_prob((1, 1, 1, 1), h, (0, 2)) == 0.0

    def test_edge_already_present_raises(self):
        h = SimpleGraph.from_edges(4, [(0, 1)])
        with pytest.raises(ValueError):
            exact_conditional_edge_prob((1, 1, 1, 1), h, (0, 1))


class TestExactUniformSample:
    def test_singleton_support(self):
        rng = RandomSource(5)
        g = exact_uniform_sample((1, 1), rng)
        assert g.pairs() == [(0, 1)]

    def test_empty_graph(self):
        g = exact_uniform_sample((0, 0, 0), RandomSource(5))
        assert g.num_edges == 0

    def test_uniform_over_cycles(self):
        counts = {}
        rng = RandomSource(314)
        for _ in range(30_000):
            g = exact_uniform_sample((2, 2, 2, 2), rng)
            counts[g.edges] = counts.get(g.edges, 0) + 1
        assert len(counts) == 3
        for c in counts.values():
            assert abs(c - 10_000) < 500

    def test_non_graphical_raises(self):
        with pytest.raises(NonGraphicalError):
            exact_uniform_sample((3, 3, 1, 1), RandomSource(0))


class TestExactSubgraphLaw:
    def test_full_m_is_family_uniform(self):
        law = exact_subgraph_law((2, 2, 2, 2), 4)
        fam = enumerate_graphs((2, 2, 2, 2))
        assert set(law) == set(fam.members)
        for mass in law.values():
            assert mass == pytest.approx(1 / 3)

    def test_zero_m_point_mass(self):
        law = exact_subgraph_law((2, 2, 2, 2), 0)
        assert law == {SimpleGraph.empty(4): 1.0}

    def test_matchings_single_edge(self):
        law = exact_subgraph_law((1, 1, 1, 1), 1)
        assert len(law) == 6
        for mass in law.values():
            assert mass == pytest.approx(1 / 6)

    def test_cycles_two_edges(self):
        # 12 two-edge paths with mass 1/18 and 3 matchings with mass 1/9
        law = exact_subgraph_law((2, 2, 2, 2), 2)
        masses = sorted(law.values())
        assert len(law) == 15
        assert masses[:12] == pytest.approx([1 / 18] * 12)
        assert masses[12:] == pytest.approx([1 / 9] * 3)

    def test_out_of_range_m(self):
        with pytest.raises(ValueError):
            exact_subgraph_law((2, 2, 2, 2), 5)

    @given(st.sampled_from([(1, 1, 1, 1), (2, 2, 2, 2), (2, 2, 2), (2, 1, 1, 2)]))
    def test_masses_sum_to_one(self, d):
        for m in range(sum(d) // 2 + 1):
            law = exact_subgraph_law(d, m)
            assert abs(sum(law.values()) - 1.0) < 1e-12
