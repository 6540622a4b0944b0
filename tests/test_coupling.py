import os
import subprocess
import sys
import tracemalloc
from math import expm1, sqrt
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import degseq
from degseq import (
    CouplingParams,
    EtaDenominatorMode,
    RandomSource,
    SeqSampleMode,
    SimpleGraph,
    default_params,
    enumerate_graphs,
    eta_denominator,
    f_c_transform,
    hadamard,
    ind_sample,
    lambda_matrix,
    q_matrix,
    rho,
    run_coupling,
)
from degseq.coupling import _auto_checkpoints
from degseq.deggen import regular_sequence
from degseq.graphs import ProductLambda, tri_index, tri_pairs
from degseq.stats import chi_square_gof, empirical_marginals

D4 = (2, 2, 2, 2)


def params_d4(zeta=0.1, zeta_prime=0.1):
    return default_params(D4, zeta=zeta, zeta_prime=zeta_prime)


class TestDefaultParams:
    def test_regular_2000_schedule(self):
        params = default_params((50,) * 2000)
        # top-degree mass 2500 over degree sum 1e5
        assert params.zeta_prime == pytest.approx(sqrt(2500 / 100000))
        assert params.zeta_prime == pytest.approx(0.15811388, abs=1e-8)

    def test_defining_identities_hold(self):
        for degrees in [(3, 2, 2, 2, 1), (4,) * 8, (2, 2, 2)]:
            params = default_params(degrees)
            total = sum(degrees)
            assert params.lam == pytest.approx((1 - params.zeta_prime) * total / 2, rel=1e-15)
            for j, k in tri_pairs(len(degrees)):
                expect = (1 - params.zeta) * total / (total + degrees[j] * degrees[k])
                assert params.big_lambda[(j, k)] == pytest.approx(expect, rel=1e-15)

    def test_small_n_warns(self):
        params = default_params((2, 2, 2))
        assert params.regime_warning
        assert 0 < params.zeta_prime < 1

    def test_zero_min_degree_rejected(self):
        with pytest.raises(ValueError):
            default_params((2, 2, 2, 0))

    def test_overrides_slot_in_before_derivation(self):
        params = default_params(D4, zeta=0.25, zeta_prime=0.5)
        assert params.lam == pytest.approx(0.5 * 8 / 2)
        assert params.big_lambda[(0, 1)] == pytest.approx(0.75 * 8 / 12)


@st.composite
def graphical_degrees(draw, max_n=30):
    """Degree vector of a random simple graph on 2..max_n vertices."""
    n = draw(st.integers(2, max_n))
    pairs = tri_pairs(n)
    present = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    deg = [0] * n
    for (j, k), on in zip(pairs, present):
        if on:
            deg[j] += 1
            deg[k] += 1
    return tuple(deg)


class TestProductLambda:
    @given(graphical_degrees(), st.floats(0.0, 1.0))
    @example((0, 0, 0), 0.25)  # ||d||_1 = 0
    @example((2, 2, 2), 1.0)
    def test_entries_equal_dense_bit_for_bit(self, degrees, zeta):
        n = len(degrees)
        vec = np.asarray(degrees, dtype=float)
        total = vec.sum()
        iu = np.triu_indices(n, k=1)
        # the dense construction the closed form replaced, as a reference
        if total <= 0:
            ref = np.zeros(len(iu[0]))
        else:
            ref = (1.0 - zeta) * total / (total + vec[iu[0]] * vec[iu[1]])
        dense = lambda_matrix(degrees, zeta)
        assert np.array_equal(dense.tri, ref)
        forms = [ProductLambda(degrees, zeta)]
        if zeta < 1.0 and min(degrees) >= 1:
            forms.append(default_params(degrees, zeta=zeta).big_lambda)
        for lam in forms:
            assert lam.n == n
            assert np.array_equal(lam.tri, dense.tri)
            for j, k in tri_pairs(n):
                expect = dense.tri[tri_index(n, j, k)]
                assert lam.entry(j, k) == expect
                assert lam[(k, j)] == expect
                assert dense.entry(j, k) == dense[(j, k)] == dense[(k, j)] == expect
            assert lam[(0, 0)] == dense[(0, 0)] == 0.0

    def test_entry_rejects_invalid_pair(self):
        lam = ProductLambda(D4, 0.1)
        for j, k in [(1, 0), (0, 4), (-1, 2)]:
            with pytest.raises(ValueError):
                lam.entry(j, k)
        with pytest.raises(ValueError):
            ProductLambda(D4, 1.5)

    def test_default_params_memory_is_linear(self):
        d = regular_sequence(4000, 69).degrees
        tracemalloc.start()
        try:
            params = default_params(d)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert params.big_lambda.n == 4000
        # the dense triangle alone would take 8 * 4000 * 3999 / 2 bytes (64 MB)
        assert peak < 4_000_000


class TestRho:
    def test_forced_edge_oracle(self):
        state = SimpleGraph.from_edges(4, [(0, 1)])
        assert rho((1, 1, 1, 1), state, (2, 3), SeqSampleMode.EXACT_ORACLE) == 1.0

    def test_oracle_empty_state(self):
        val = rho(D4, SimpleGraph.empty(4), (0, 1), SeqSampleMode.EXACT_ORACLE)
        assert val == pytest.approx(1 / 6)

    def test_asymptotic_empty_state(self):
        val = rho(D4, SimpleGraph.empty(4), (0, 1), SeqSampleMode.ASYMPTOTIC)
        assert val == pytest.approx(1 / 12)

    def test_rejects_present_edge(self):
        state = SimpleGraph.from_edges(4, [(0, 1)])
        with pytest.raises(ValueError):
            rho(D4, state, (0, 1), SeqSampleMode.ASYMPTOTIC)

    def test_rejects_zero_degree_endpoint(self):
        with pytest.raises(ValueError):
            rho((2, 2, 2, 0), SimpleGraph.empty(4), (0, 3), SeqSampleMode.ASYMPTOTIC)


def random_partial_state(degrees, seed):
    """A partial graph under d, built by the asymptotic kernel for realism."""
    from degseq.samplers import AsymptoticKernel

    rng = RandomSource(seed)
    edges = set()
    kernel = AsymptoticKernel(degrees, edges, list(degrees))
    steps = rng.below(sum(degrees) // 2)
    for _ in range(steps):
        if kernel.insert_step(rng) is None:
            break
    return SimpleGraph(len(degrees), frozenset(edges))


class TestEtaDenominator:
    def test_certified_bound_empty_state(self):
        b = eta_denominator(
            D4, SimpleGraph.empty(4), EtaDenominatorMode.CERTIFIED_BOUND, SeqSampleMode.ASYMPTOTIC
        )
        assert b == pytest.approx(1 / 8)

    def test_exact_max_empty_state_symmetric(self):
        b = eta_denominator(
            D4, SimpleGraph.empty(4), EtaDenominatorMode.EXACT_MAX, SeqSampleMode.ASYMPTOTIC
        )
        assert b == pytest.approx(1 / 12)
        # regular sequence, empty state: every pair ties at the maximum
        assert b == pytest.approx(rho(D4, SimpleGraph.empty(4), (1, 3), SeqSampleMode.ASYMPTOTIC))

    def test_certified_requires_asymptotic(self):
        with pytest.raises(ValueError):
            eta_denominator(
                D4,
                SimpleGraph.empty(4),
                EtaDenominatorMode.CERTIFIED_BOUND,
                SeqSampleMode.EXACT_ORACLE,
            )

    def test_no_eligible_pair_raises(self):
        saturated = SimpleGraph.from_edges(3, [(0, 1), (1, 2), (0, 2)])
        with pytest.raises(ValueError):
            eta_denominator(
                (2, 2, 2), saturated, EtaDenominatorMode.CERTIFIED_BOUND, SeqSampleMode.ASYMPTOTIC
            )

    @given(st.integers(0, 200))
    def test_exact_max_below_certified_bound(self, seed):
        degrees = (3, 3, 2, 2, 2, 2)
        state = random_partial_state(degrees, seed)
        t = [d - x for d, x in zip(degrees, state.degree_vector())]
        eligible = any(
            t[j] > 0 and t[k] > 0 and not state.has_edge(j, k) for j, k in tri_pairs(6)
        )
        if not eligible:
            return
        exact = eta_denominator(
            degrees, state, EtaDenominatorMode.EXACT_MAX, SeqSampleMode.ASYMPTOTIC
        )
        bound = eta_denominator(
            degrees, state, EtaDenominatorMode.CERTIFIED_BOUND, SeqSampleMode.ASYMPTOTIC
        )
        assert exact <= bound + 1e-15


class TestRunCoupling:
    def test_zero_acceptance_matrix(self):
        params = CouplingParams(
            xi=0.5, zeta=0.0, zeta_prime=0.1, lam=3.6, big_lambda=lambda_matrix(D4, 1.0)
        )
        for s in range(50):
            g_l, g, tr = run_coupling(
                D4, params, SeqSampleMode.EXACT_ORACLE, EtaDenominatorMode.EXACT_MAX,
                RandomSource(21, s),
            )
            assert g_l.num_edges == 0
            assert g.degree_vector() == D4
            assert not tr.fallback

    def test_containment_on_non_fallback(self):
        params = params_d4()
        for s in range(400):
            g_l, g, tr = run_coupling(
                D4, params, SeqSampleMode.EXACT_ORACLE, EtaDenominatorMode.EXACT_MAX,
                RandomSource(22, s),
            )
            if not tr.fallback:
                assert g_l.is_subgraph_of(g)

    def test_trace_partition_identity(self):
        params = params_d4()
        for s in range(300):
            _, g, tr = run_coupling(
                D4, params, SeqSampleMode.EXACT_ORACLE, EtaDenominatorMode.EXACT_MAX,
                RandomSource(23, s),
            )
            if tr.fallback:
                assert tr.fallback_step is not None
                assert tr.fallback_step <= tr.poisson_steps
                assert tr.steps_total == tr.fallback_step
            else:
                assert tr.steps_total == tr.poisson_steps
                assert (
                    tr.duplicate_hits
                    + tr.insertions_both
                    + tr.rejections_l_only
                    + tr.rejections_g
                    == tr.steps_total
                )
                assert tr.edges_at_step_end == tr.insertions_both + tr.rejections_l_only
                assert tr.edges_at_step_end + tr.completion_insertions == g.num_edges
            assert 0.0 <= tr.eta_min <= 1.0

    def test_p_m_checkpoints_recorded(self):
        params = params_d4()
        escaped = completed = 0
        for s in range(40):
            _, _, tr = run_coupling(
                D4, params, SeqSampleMode.EXACT_ORACLE, EtaDenominatorMode.EXACT_MAX,
                RandomSource(24, s),
            )
            # the loop records p_m at every scheduled step it completed; an
            # escape ends it at the escape step, which records nothing
            last = tr.fallback_step - 1 if tr.fallback else tr.poisson_steps
            expected = [m for m in _auto_checkpoints(tr.poisson_steps) if m <= last]
            assert [step for step, _ in tr.p_m_checkpoints] == expected
            assert all(0.0 <= p_m <= 1.0 for _, p_m in tr.p_m_checkpoints)
            escaped += tr.fallback
            completed += not tr.fallback and bool(expected)
        assert escaped and completed  # both branches were exercised

    def test_monotone_fallback_in_zeta(self):
        # larger zeta lowers the acceptance matrix, so a replayed stream can
        # only lose its escape, never gain one
        lo = params_d4(zeta=0.1)
        hi = params_d4(zeta=0.3)
        flips = 0
        for s in range(200):
            _, _, tr_lo = run_coupling(
                D4, lo, SeqSampleMode.EXACT_ORACLE, EtaDenominatorMode.EXACT_MAX,
                RandomSource(25, s),
            )
            _, _, tr_hi = run_coupling(
                D4, hi, SeqSampleMode.EXACT_ORACLE, EtaDenominatorMode.EXACT_MAX,
                RandomSource(25, s),
            )
            assert tr_hi.fallback <= tr_lo.fallback
            if tr_hi.fallback != tr_lo.fallback:
                flips += 1
        assert flips > 0  # the comparison is non-vacuous

    def test_certified_bound_requires_asymptotic(self):
        with pytest.raises(ValueError):
            run_coupling(
                D4, params_d4(), SeqSampleMode.EXACT_ORACLE,
                EtaDenominatorMode.CERTIFIED_BOUND, RandomSource(26),
            )

    def test_asymptotic_certified_small_n(self):
        params = params_d4(zeta=0.4)
        for s in range(200):
            g_l, g, tr = run_coupling(
                D4, params, SeqSampleMode.ASYMPTOTIC, EtaDenominatorMode.CERTIFIED_BOUND,
                RandomSource(27, s),
            )
            assert g.degree_vector() == D4
            if not tr.fallback:
                assert g_l.is_subgraph_of(g)

    def test_deterministic(self):
        params = params_d4()
        a = run_coupling(
            D4, params, SeqSampleMode.EXACT_ORACLE, EtaDenominatorMode.EXACT_MAX,
            RandomSource(28, 3),
        )
        b = run_coupling(
            D4, params, SeqSampleMode.EXACT_ORACLE, EtaDenominatorMode.EXACT_MAX,
            RandomSource(28, 3),
        )
        assert a[0] == b[0] and a[1] == b[1] and a[2] == b[2]

    def test_non_graphical_rejected(self):
        params = params_d4()
        with pytest.raises(Exception):
            run_coupling(
                (3, 3, 1, 1), params, SeqSampleMode.ASYMPTOTIC,
                EtaDenominatorMode.CERTIFIED_BOUND, RandomSource(29),
            )

    def test_oracle_cap_read_once_per_run(self, monkeypatch):
        calls = []

        def counting_cap():
            calls.append(1)
            return 10

        monkeypatch.setattr(degseq.oracle, "oracle_cap", counting_cap)
        monkeypatch.setattr(degseq.coupling, "oracle_cap", counting_cap)
        params = params_d4()
        escaped = 0
        for i in range(5):
            *_, tr = run_coupling(
                D4, params, SeqSampleMode.EXACT_ORACLE, EtaDenominatorMode.EXACT_MAX,
                RandomSource(5, i),
            )
            escaped += tr.fallback
        # escapes redraw G from the oracle, which must reuse the resolved cap
        assert escaped >= 1
        assert len(calls) == 5


class TestRunInvariants:
    def test_denominator_below_rho_raises_under_python_O(self):
        # the check must not be an assert, which python -O strips
        code = """
import sys
from degseq import EtaDenominatorMode, RandomSource, SeqSampleMode, default_params, run_coupling
from degseq.samplers import AsymptoticKernel, InvariantError

assert sys.flags.optimize == 1
exact = AsymptoticKernel.denominator
AsymptoticKernel.denominator = lambda self, mode: exact(self, mode) / 2
d = (2, 2, 2, 2)
try:
    run_coupling(d, default_params(d, zeta=0.1, zeta_prime=0.1), SeqSampleMode.ASYMPTOTIC,
                 EtaDenominatorMode.CERTIFIED_BOUND, RandomSource(0))
except InvariantError as exc:
    print("raised:", exc)
"""
        src = str(Path(degseq.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=src)
        out = subprocess.run(
            [sys.executable, "-O", "-c", code], env=env, capture_output=True, text=True, timeout=60
        )
        assert out.returncode == 0, out.stderr
        assert out.stdout.startswith("raised: eta = ")


class TestIndSample:
    def test_upper_degrees_exact(self):
        params = params_d4()
        for s in range(100):
            _, g = ind_sample(D4, params, RandomSource(31, s))
            assert g.degree_vector() == D4

    def test_containment_fails_sometimes(self):
        params = params_d4()
        broken = 0
        for s in range(1000):
            g_l, g = ind_sample(D4, params, RandomSource(32, s))
            if not g_l.is_subgraph_of(g):
                broken += 1
        assert broken > 0

    def test_lower_marginals_match_closed_form(self):
        params = params_d4()
        w_ref = f_c_transform(hadamard(params.big_lambda, q_matrix(D4)), params.lam)
        samples = [ind_sample(D4, params, RandomSource(33, s))[0] for s in range(100_000)]
        report = empirical_marginals(samples, w_ref)
        assert report.worst_abs_z < 3.0
        assert not report.exact_violations

    def test_large_n_uses_asymptotic_upper(self):
        degrees = (3,) * 20
        params = default_params(degrees)
        g_l, g = ind_sample(degrees, params, RandomSource(34))
        assert g.degree_vector() == degrees


class TestCouplingLawAtSmallSamples:
    def test_upper_law_uniform_smoke(self):
        # smaller-sample version of the full acceptance run
        params = params_d4()
        fam = enumerate_graphs(D4)
        law = {g: 1 / 3 for g in fam.members}
        uppers = [
            run_coupling(
                D4, params, SeqSampleMode.EXACT_ORACLE, EtaDenominatorMode.EXACT_MAX,
                RandomSource(35, s),
            )[1]
            for s in range(6000)
        ]
        assert chi_square_gof(uppers, law).p_value > 0.01

    def test_lower_marginal_includes_fallback(self):
        params = params_d4()
        w_ref = f_c_transform(hadamard(params.big_lambda, q_matrix(D4)), params.lam)
        lowers = [
            run_coupling(
                D4, params, SeqSampleMode.EXACT_ORACLE, EtaDenominatorMode.EXACT_MAX,
                RandomSource(36, s),
            )[0]
            for s in range(6000)
        ]
        report = empirical_marginals(lowers, w_ref)
        assert report.worst_abs_z < 4.5
