import tracemalloc
from itertools import combinations
from math import isnan, sqrt

import numpy as np
import pytest

from degseq import (
    RandomSource,
    SimpleGraph,
    chi_square_gof,
    compare_w_to_fcp,
    default_params,
    degree_concentration_check,
    empirical_marginals,
    enumerate_graphs,
    exact_edge_marginals,
    exact_uniform_sample,
    pairwise_covariance,
    pearson_chi_square,
    sample_gnw,
    subgraph_check,
)
from degseq.coupling import CouplingParams, lambda_matrix
from degseq.graphs import SymmetricProbMatrix
from degseq.samplers import AsymptoticKernel


class TestEmpiricalMarginals:
    def test_all_empty_against_zero_reference(self):
        samples = [SimpleGraph.empty(4) for _ in range(200)]
        report = empirical_marginals(samples, SymmetricProbMatrix.zeros(4))
        assert report.worst_abs_z == 0.0
        assert not report.exact_violations
        assert np.isnan(report.z).all()

    def test_exact_violation_detected(self):
        samples = [SimpleGraph.from_edges(3, [(0, 1)])] * 150
        report = empirical_marginals(samples, SymmetricProbMatrix.zeros(3))
        assert (0, 1) in report.exact_violations

    def test_z_formula(self):
        g1 = SimpleGraph.from_edges(2, [(0, 1)])
        g0 = SimpleGraph.empty(2)
        samples = [g1] * 60 + [g0] * 40
        report = empirical_marginals(samples, SymmetricProbMatrix.full(2, 0.5))
        expected = (0.6 - 0.5) / sqrt(0.25 / 100)
        assert report.z[0] == pytest.approx(expected)

    def test_arrays_match_a_per_pair_loop(self):
        # pairs 0 and 1 have references 0 and 1, so both are exact violations
        tri = np.array([0.0, 1.0, 0.4, 0.41, 0.3, 0.5, 0.6, 0.2, 0.45, 0.9])
        ref = SymmetricProbMatrix(5, tri)
        rng = RandomSource(605)
        samples = [sample_gnw(SymmetricProbMatrix.full(5, 0.4), rng) for _ in range(300)]
        report = empirical_marginals(samples, ref)
        worst, violations = 0.0, []
        for i, (j, k) in enumerate(combinations(range(5), 2)):
            f = sum(g.has_edge(j, k) for g in samples) / 300
            r = float(ref.tri[i])
            assert report.frequency[i] == f and report.reference[i] == r
            if r in (0.0, 1.0):
                assert isnan(report.z[i])
                if f != r:
                    violations.append((j, k))
            else:
                z = (f - r) / sqrt(r * (1.0 - r) / 300)
                assert report.z[i] == z
                worst = max(worst, abs(z))
        assert report.worst_abs_z == worst
        assert report.exact_violations == violations == [(0, 1), (0, 2)]

    def test_requires_100_runs(self):
        with pytest.raises(ValueError):
            empirical_marginals([SimpleGraph.empty(3)] * 99, SymmetricProbMatrix.zeros(3))

    def test_mixed_n_rejected(self):
        samples = [SimpleGraph.empty(3), SimpleGraph.empty(4)] * 60
        with pytest.raises(ValueError):
            empirical_marginals(samples, SymmetricProbMatrix.zeros(3))

    def test_memory_does_not_grow_with_runs_times_pairs(self):
        rng = RandomSource(607)
        w = SymmetricProbMatrix.full(60, 0.1)
        samples = [sample_gnw(w, rng) for _ in range(2000)]
        tracemalloc.start()
        try:
            report = empirical_marginals(samples, w)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert report.passed()
        # a runs x pairs float64 indicator matrix alone would take
        # 8 * 2000 * 1770 bytes (28 MB)
        assert peak < 4_000_000

    def test_worst_z_stable_under_doubling(self):
        # under the null the worst |z| tracks sqrt(log #edges), not n_runs
        w = SymmetricProbMatrix.full(6, 0.4)
        rng = RandomSource(606)
        small = [sample_gnw(w, rng) for _ in range(5000)]
        large = [sample_gnw(w, rng) for _ in range(10_000)]
        z_small = empirical_marginals(small, w).worst_abs_z
        z_large = empirical_marginals(large, w).worst_abs_z
        assert z_small < 4.5 and z_large < 4.5


class TestPearsonChiSquare:
    def test_point_mass(self):
        report = pearson_chi_square([500], [1.0])
        assert report.statistic == 0.0 and report.p_value == 1.0

    def test_uniform_fit(self):
        report = pearson_chi_square([3340, 3290, 3370], [1 / 3] * 3)
        assert report.p_value > 0.01

    def test_merges_small_expected(self):
        # last category expects 0.1 counts and must be pooled
        report = pearson_chi_square([995, 1004, 1], [0.4995, 0.4995, 0.001])
        assert report.categories == 2

    def test_matches_scipy(self):
        from scipy.stats import chisquare

        obs = [120, 95, 105, 80]
        probs = [0.3, 0.25, 0.25, 0.2]
        mine = pearson_chi_square(obs, probs)
        ref_stat, ref_p = chisquare(obs, [p * 400 for p in probs])
        assert mine.statistic == pytest.approx(ref_stat)
        assert mine.p_value == pytest.approx(ref_p)

    def test_rejects_bad_probabilities(self):
        with pytest.raises(ValueError):
            pearson_chi_square([1, 2], [0.5, 0.4])
        with pytest.raises(ValueError):
            pearson_chi_square([1, 2], [1.0, 0.0])


class TestChiSquareGof:
    def test_point_mass_law(self):
        g = SimpleGraph.from_edges(2, [(0, 1)])
        report = chi_square_gof([g] * 50, {g: 1.0})
        assert report.statistic == 0.0 and report.p_value == 1.0

    def test_out_of_support_sample_raises(self):
        fam = enumerate_graphs((2, 2, 2, 2))
        law = {g: 1 / 3 for g in fam.members}
        alien = SimpleGraph.from_edges(4, [(0, 1)])
        with pytest.raises(ValueError):
            chi_square_gof([alien], law)

    def test_correct_sampler_calibration(self):
        # p-values of a correct sampler against its exact law are uniform;
        # Kolmogorov-Smirnov over 200 meta-runs at the 1% critical value
        fam = enumerate_graphs((2, 2, 2, 2))
        law = {g: 1 / 3 for g in fam.members}
        rng = RandomSource(707)
        p_values = []
        for _ in range(200):
            samples = [exact_uniform_sample((2, 2, 2, 2), rng) for _ in range(3000)]
            p_values.append(chi_square_gof(samples, law).p_value)
        p_values.sort()
        n = len(p_values)
        ks = max(
            max(abs((i + 1) / n - p), abs(i / n - p)) for i, p in enumerate(p_values)
        )
        assert ks < 1.628 / sqrt(n)

    def test_biased_sampler_rejected(self):
        # doubling one category's weight must be caught decisively
        fam = enumerate_graphs((2, 2, 2, 2))
        members = fam.members
        law = {g: 1 / 3 for g in members}
        rng = RandomSource(708)
        biased = [0.5, 0.25, 0.25]
        samples = []
        for _ in range(30_000):
            u = rng.uniform()
            idx = 0 if u < biased[0] else (1 if u < 0.75 else 2)
            samples.append(members[idx])
        report = chi_square_gof(samples, law)
        assert report.p_value < 1e-6


class TestPairwiseCovariance:
    def test_independent_sampler_within_bands(self):
        w = SymmetricProbMatrix.full(4, 0.3)
        rng = RandomSource(808)
        samples = [sample_gnw(w, rng) for _ in range(20_000)]
        report = pairwise_covariance(samples)
        assert not report.violations

    def test_matching_edges_positively_correlated(self):
        # in the perfect-matching family, edges (0,1) and (2,3) co-occur:
        # exact covariance 1/3 - 1/9 = 2/9, far outside the null band
        rng = RandomSource(809)
        samples = [exact_uniform_sample((1, 1, 1, 1), rng) for _ in range(20_000)]
        report = pairwise_covariance(samples)
        flagged = {(a, b) for a, b, _, _ in report.violations}
        assert ((0, 1), (2, 3)) in flagged
        idx = report.edges.index((0, 1)), report.edges.index((2, 3))
        assert report.covariance[idx] == pytest.approx(2 / 9, abs=0.02)
        assert report.edges == list(combinations(range(4), 2))
        assert report.violations == [
            (report.edges[a], report.edges[b], report.covariance[a, b], report.band[a, b])
            for a, b in combinations(range(len(report.edges)), 2)
            if abs(report.covariance[a, b]) > report.band[a, b]
        ]

    def test_requires_enough_runs(self):
        with pytest.raises(ValueError):
            pairwise_covariance([SimpleGraph.empty(3)] * 100)


class TestSubgraphCheck:
    def test_empty_contained(self):
        g = SimpleGraph.from_edges(4, [(0, 1)])
        count, violations = subgraph_check([(SimpleGraph.empty(4), g)])
        assert count == 1 and not violations

    def test_self_contained(self):
        g = SimpleGraph.from_edges(4, [(0, 1), (2, 3)])
        count, violations = subgraph_check([(g, g)])
        assert count == 1 and not violations

    def test_violation_with_witness(self):
        lo = SimpleGraph.from_edges(3, [(0, 2)])
        hi = SimpleGraph.from_edges(3, [(0, 1)])
        count, violations = subgraph_check([(lo, hi)])
        assert count == 0
        assert violations == [(0, (0, 2))]


class TestDegreeConcentration:
    def test_boundary_checkpoints_have_zero_deviation(self):
        d = (2, 2, 2, 2)
        empty = SimpleGraph.empty(4)
        full = exact_uniform_sample(d, RandomSource(909))
        report = degree_concentration_check(d, [(0, empty), (4, full)], xi=0.2)
        for band in report.bands:
            assert band.violating_fraction == 0.0
            assert band.worst_rel_dev == 0.0

    @staticmethod
    def _partial_regular_graphs(n, deg, m, runs, seed):
        d = (deg,) * n
        checkpoints = []
        for s in range(runs):
            rng = RandomSource(seed, s)
            edges = set()
            kernel = AsymptoticKernel(d, edges, list(d))
            # one frame of m insertions draws what m single steps would
            assert kernel.insert_step(rng, count=m) is not None
            checkpoints.append((m, SimpleGraph(n, frozenset(edges))))
        return d, checkpoints

    def test_regular_2000_matches_binomial_tail(self):
        # independent oracle: per-vertex remaining degree is binomial-like,
        # so the xi=0.2 band at the halfway point excludes a predictable
        # ~12% of vertices
        from scipy.stats import binom

        n, deg, xi = 2000, 50, 0.2
        m = n * deg // 4  # half the edges: p_m = 0.5
        d, checkpoints = self._partial_regular_graphs(n, deg, m, 20, 910)
        report = degree_concentration_check(d, checkpoints, xi=xi)
        p_m = 0.5
        band = xi * p_m * deg
        lo = int(np.ceil(p_m * deg - band))       # smallest in-band value
        hi = int(np.floor(p_m * deg + band))      # largest in-band value
        tail = 1.0 - (binom.cdf(hi, deg, p_m) - binom.cdf(lo - 1, deg, p_m))
        mean_fraction = np.mean([b.violating_fraction for b in report.bands])
        assert abs(mean_fraction - tail) < 0.01

    def test_regular_2000_early_point_tightly_concentrated(self):
        # at p_m = 0.8 the xi=0.2 band spans ~2.8 sigma: violations are rare
        n, deg = 2000, 50
        m = n * deg // 10
        d, checkpoints = self._partial_regular_graphs(n, deg, m, 20, 912)
        report = degree_concentration_check(d, checkpoints, xi=0.2)
        worst_fraction = max((b.violating_fraction for b in report.bands), default=0.0)
        assert worst_fraction < 0.01


class TestCompareWToFcp:
    def test_zero_slack_regular_case(self):
        d = (50,) * 2000
        params = CouplingParams(
            xi=0.5, zeta=0.0, zeta_prime=0.0, lam=sum(d) / 2,
            big_lambda=lambda_matrix(d, 0.0),
        )
        report = compare_w_to_fcp(d, params)
        assert report.max_rel_error < 0.01

    def test_zeta_drives_first_order_error(self):
        d = (50,) * 2000
        params = CouplingParams(
            xi=0.5, zeta=0.2, zeta_prime=0.0, lam=sum(d) / 2,
            big_lambda=lambda_matrix(d, 0.2),
        )
        report = compare_w_to_fcp(d, params)
        assert report.max_rel_error == pytest.approx(0.2, abs=0.03)

    def test_small_triangle_driver(self):
        d = (2, 2, 2)
        params = CouplingParams(
            xi=0.5, zeta=0.0, zeta_prime=0.0, lam=3.0, big_lambda=lambda_matrix(d, 0.0)
        )
        report = compare_w_to_fcp(d, params)
        # lam*Lambda*Q = 3*(6/10)*(1/3) = 0.6 vs P = 0.4, transformed
        lhs = 1 - np.exp(-0.6)
        rhs = 1 - np.exp(-0.4)
        assert report.max_rel_error == pytest.approx(abs(lhs - rhs) / rhs, rel=1e-12)
        assert report.driver == pytest.approx(0.0 + 0.0 + 2 / 6)

    def test_default_schedule_within_driver_plus_slack(self):
        d = (50,) * 2000
        params = default_params(d)
        report = compare_w_to_fcp(d, params)
        assert report.max_rel_error < params.zeta + params.zeta_prime + 0.05


class TestExactReferenceAgainstOracle:
    def test_oracle_marginals_as_reference(self):
        d = (2, 2, 2, 2)
        ref = exact_edge_marginals(d)
        rng = RandomSource(911)
        samples = [exact_uniform_sample(d, rng) for _ in range(20_000)]
        report = empirical_marginals(samples, ref)
        assert report.worst_abs_z < 4.5
