import dataclasses
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
    acceptance_matrix,
    chung_lu_matrix,
    hadamard,
    lower_law,
    p_matrix,
    q_matrix,
    rho,
    run_coupling,
    seq_approx_p,
)
from degseq.coupling import _auto_checkpoints, own_denominator
from degseq.deggen import regular_sequence
from degseq.graphs import DegreeSequence, SymmetricProbMatrix, tri_pairs
from degseq.samplers import DEAD_BASE_RESTARTS, DeadBaseError, make_kernel
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

    @pytest.mark.parametrize("knob", ["xi", "zeta", "zeta_prime", "c_mult"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_knob_raises(self, knob, value):
        # c_mult = nan gave zeta = min(1/2, nan) = 1/2, a silent success
        with pytest.raises(ValueError, match=f"{knob}=.* is not finite"):
            default_params((2, 2, 2, 2), **{knob: value})

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


def hexes(values) -> list[str]:
    return [float(x).hex() for x in values]


class TestPairLaw:
    @given(graphical_degrees(), st.floats(0.0, 1.0), st.floats(0.0, 1.0),
           st.floats(0.0, 50.0), st.integers(0, 2**32))
    @example((0, 0, 0), 0.25, 0.5, 3.0, 1)  # ||d||_1 = 0
    @example((2, 2, 2), 1.0, 1.0, 0.0, 2)
    @example((3, 1, 1, 1), 0.1, 0.54, 3.3, 3)  # a lone class whose Q_jj would exceed 1
    def test_entries_equal_dense_bit_for_bit(self, degrees, zeta, value, lam, seed):
        n = len(degrees)
        vec = np.asarray(degrees, dtype=float)
        total = vec.sum()
        j, k = np.triu_indices(n, k=1)
        prod = vec[j] * vec[k]
        per_pair = np.random.default_rng(seed).random(len(j))
        # the dense triangles every law was built from before it was held as
        # classes, as the reference
        with np.errstate(invalid="ignore"):
            p_ref = np.where(prod > 0, prod / (total + prod), 0.0)
        if total <= 0:
            lam_ref = np.zeros(len(j))
        else:
            lam_ref = (1.0 - zeta) * total / (total + prod)
        cases = [
            (p_matrix(degrees), p_ref),
            (f_c_transform(p_matrix(degrees), 1.0), -np.expm1(-1.0 * p_ref)),
            (acceptance_matrix(degrees, zeta), lam_ref),
            (SymmetricProbMatrix.full(n, 0.0), np.zeros(len(j))),
            (SymmetricProbMatrix.full(n, value), np.full(len(j), value)),
            (SymmetricProbMatrix(n, per_pair.copy()), per_pair),
        ]
        if zeta < 1.0 and min(degrees) >= 1:
            cases.append((default_params(degrees, zeta=zeta).big_lambda, lam_ref))
        if total > 0:
            cases.append((chung_lu_matrix(degrees), np.minimum(prod / total, 1.0)))
        if prod.sum() > 0:
            q_ref = prod / prod.sum()
            big_lambda = acceptance_matrix(degrees, zeta)
            cases += [
                (q_matrix(degrees), q_ref),
                (lower_law(degrees, big_lambda, lam), -np.expm1(-lam * (lam_ref * q_ref))),
                # two different partitions: C1's constant Lambda, per-pair data
                (hadamard(SymmetricProbMatrix.full(n, value), q_matrix(degrees)),
                 np.full(len(j), value) * q_ref),
                (hadamard(SymmetricProbMatrix(n, per_pair.copy()), q_matrix(degrees)),
                 per_pair * q_ref),
            ]
        for m, ref in cases:
            expect = hexes(ref)
            assert m.n == n
            assert hexes(m.tri) == expect
            assert hexes(m.entries(j, k)) == expect
            pairs = list(zip(j.tolist(), k.tolist()))
            assert hexes(m.entry(a, b) for a, b in pairs) == expect
            assert hexes(m[(a, b)] for a, b in pairs) == expect
            assert hexes(m[(b, a)] for a, b in pairs) == expect
            assert all(m[(v, v)] == 0.0 for v in range(n))

    def test_entry_rejects_invalid_pair(self):
        lam = acceptance_matrix(D4, 0.1)
        for j, k in [(1, 0), (0, 4), (-1, 2), (2, 2)]:
            with pytest.raises(ValueError):
                lam.entry(j, k)
        with pytest.raises(ValueError):
            acceptance_matrix(D4, 1.5)

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

    @pytest.mark.parametrize("law", ["q", "p", "lower-law"])
    def test_laws_memory_is_linear_until_tri_is_read(self, law):
        d = regular_sequence(4000, 69).degrees
        params = default_params(d)
        build = {"q": q_matrix, "p": p_matrix,
                 "lower-law": lambda d: lower_law(d, params.big_lambda, params.lam)}[law]
        tracemalloc.start()
        try:
            m = build(d)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert m.n == 4000
        assert peak < 4_000_000
        assert m.tri.shape == (4000 * 3999 // 2,)


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
    kernel = AsymptoticKernel(degrees)
    # one frame of `steps` insertions; a dead end keeps what it had inserted
    kernel.insert_step(rng, count=rng.below(sum(degrees) // 2))
    return SimpleGraph(len(degrees), frozenset(kernel.edges))


class TestEtaDenominator:
    def test_certified_bound_empty_state(self):
        b = eta_denominator(D4, SimpleGraph.empty(4), SeqSampleMode.ASYMPTOTIC)
        assert b == pytest.approx(1 / 8)

    def test_exact_max_empty_state_symmetric(self):
        # regular sequence, empty state: every pair ties at the maximum, which
        # is the exact kernel's denominator
        empty = SimpleGraph.empty(4)
        asymptotic = [rho(D4, empty, jk, SeqSampleMode.ASYMPTOTIC) for jk in tri_pairs(4)]
        exact = [rho(D4, empty, jk, SeqSampleMode.EXACT_ORACLE) for jk in tri_pairs(4)]
        assert min(asymptotic) == max(asymptotic) == pytest.approx(1 / 12)
        assert min(exact) == max(exact) == pytest.approx(1 / 6)
        assert eta_denominator(D4, empty, SeqSampleMode.EXACT_ORACLE) == max(exact)

    def test_certified_requires_asymptotic(self):
        with pytest.raises(ValueError, match="certified bound"):
            own_denominator(SeqSampleMode.EXACT_ORACLE, EtaDenominatorMode.CERTIFIED_BOUND)

    def test_exact_max_requires_exact(self):
        with pytest.raises(ValueError, match="exact max"):
            own_denominator(SeqSampleMode.ASYMPTOTIC, EtaDenominatorMode.EXACT_MAX)

    def test_each_mode_has_one_denominator(self):
        for mode, own in ((SeqSampleMode.EXACT_ORACLE, EtaDenominatorMode.EXACT_MAX),
                          (SeqSampleMode.ASYMPTOTIC, EtaDenominatorMode.CERTIFIED_BOUND)):
            assert own_denominator(mode) is own_denominator(mode, own) is own

    def test_no_eligible_pair_raises(self):
        saturated = SimpleGraph.from_edges(3, [(0, 1), (1, 2), (0, 2)])
        with pytest.raises(ValueError):
            eta_denominator((2, 2, 2), saturated, SeqSampleMode.ASYMPTOTIC)

    @given(st.integers(0, 200))
    def test_exact_max_below_certified_bound(self, seed):
        degrees = (3, 3, 2, 2, 2, 2)
        state = random_partial_state(degrees, seed)
        t = [d - x for d, x in zip(degrees, state.degree_vector())]
        eligible = any(
            t[j] > 0 and t[k] > 0 and not state.has_edge(j, k) for j, k in tri_pairs(6)
        )
        # the true maximum of rho over the non-edges, 0 exactly at a dead end
        exact = max((rho(degrees, state, jk, SeqSampleMode.ASYMPTOTIC)
                     for jk in tri_pairs(6) if not state.has_edge(*jk)), default=0.0)
        assert (exact > 0) == eligible
        if sum(t) == 0:
            return
        bound = eta_denominator(degrees, state, SeqSampleMode.ASYMPTOTIC)
        assert exact <= bound + 1e-15


class TestRunCoupling:
    def test_zero_acceptance_matrix(self):
        params = CouplingParams(
            xi=0.5, zeta=0.0, zeta_prime=0.1, lam=3.6, big_lambda=acceptance_matrix(D4, 1.0)
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
        # an escape ends neither graph's path, so the partition holds on every run
        params = params_d4()
        escaped = 0
        for s in range(300):
            _, g, tr = run_coupling(
                D4, params, SeqSampleMode.EXACT_ORACLE, EtaDenominatorMode.EXACT_MAX,
                RandomSource(23, s),
            )
            if tr.fallback:
                escaped += 1
                assert 1 <= tr.fallback_step <= tr.poisson_steps
            else:
                assert tr.fallback_step is None
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
        assert 0 < escaped < 300

    def test_p_m_checkpoints_recorded(self):
        params = params_d4()
        escaped = completed = 0
        for s in range(40):
            _, _, tr = run_coupling(
                D4, params, SeqSampleMode.EXACT_ORACLE, EtaDenominatorMode.EXACT_MAX,
                RandomSource(24, s),
            )
            # the loop runs every Poisson step, escape or not, and records p_m
            # at each scheduled one
            expected = sorted(_auto_checkpoints(tr.poisson_steps))
            assert [step for step, _ in tr.p_m_checkpoints] == expected
            assert all(0.0 <= p_m <= 1.0 for _, p_m in tr.p_m_checkpoints)
            escaped += tr.fallback and tr.fallback_step < tr.poisson_steps
            completed += not tr.fallback and bool(expected)
        assert escaped and completed  # both kinds of run were checked

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

    def test_exact_max_requires_exact(self):
        with pytest.raises(ValueError):
            run_coupling(
                D4, params_d4(), SeqSampleMode.ASYMPTOTIC,
                EtaDenominatorMode.EXACT_MAX, RandomSource(26),
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

    def test_lower_set_is_freed_before_the_completion(self):
        # a bound `l_edges.add` kept G_L's set alive through G's completion:
        # 216 traced bytes per edge of G here, against 182
        d = regular_sequence(1000, 48).degrees
        params = default_params(d)
        run_coupling(d, params, SeqSampleMode.ASYMPTOTIC, EtaDenominatorMode.CERTIFIED_BOUND,
                     RandomSource(40, 0))
        tracemalloc.start()
        try:
            _, g, _ = run_coupling(d, params, SeqSampleMode.ASYMPTOTIC,
                                   EtaDenominatorMode.CERTIFIED_BOUND, RandomSource(40, 1))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak / g.num_edges < 200, peak / g.num_edges


class TestRunInvariants:
    def test_denominator_below_rho_raises_under_python_O(self):
        # the check must not be an assert, which python -O strips
        code = """
import sys
from degseq import EtaDenominatorMode, RandomSource, SeqSampleMode, default_params, run_coupling
from degseq.samplers import AsymptoticKernel, InvariantError

assert sys.flags.optimize == 1
bound = AsymptoticKernel.denominator
AsymptoticKernel.denominator = lambda self: bound(self) / 2
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


class TestEscape:
    """An escape ends neither graph's path: G is completed from the loop's state."""

    def test_exact_escape_keeps_a_family_member(self):
        params = params_d4()
        members = set(enumerate_graphs(D4).members)
        escaped = 0
        for s in range(200):
            _, g, trace = run_coupling(
                D4, params, SeqSampleMode.EXACT_ORACLE, EtaDenominatorMode.EXACT_MAX,
                RandomSource(31, s),
            )
            if trace.fallback:
                escaped += 1
                assert g in members
                assert "approx_g" not in trace.to_json_dict()
        assert escaped > 0

    def test_large_n_escape_keeps_the_degrees(self):
        degrees = (3,) * 20
        params = default_params(degrees)
        escaped = 0
        for s in range(20):
            _, g, trace = run_coupling(
                degrees, params, SeqSampleMode.ASYMPTOTIC, EtaDenominatorMode.CERTIFIED_BOUND,
                RandomSource(34, s),
            )
            if trace.fallback:
                escaped += 1
                assert g.degree_vector() == degrees
        assert escaped > 0

    def test_escape_past_the_family_cap_keeps_the_degrees(self):
        # regular(10,3) is within the vertex cap, but its 11,180,820 members
        # are past the family cap; an asymptotic run never asks the oracle
        degrees = (3,) * 10
        params = default_params(degrees)
        escaped = 0
        for i in range(5):
            _, g, trace = run_coupling(
                degrees, params, SeqSampleMode.ASYMPTOTIC, EtaDenominatorMode.CERTIFIED_BOUND,
                RandomSource(1, i),
            )
            if trace.fallback:
                escaped += 1
                assert g.degree_vector() == degrees
        assert escaped > 0


class TestStreamIdentities:
    """Each graph's path read off the one candidate stream, seed by seed."""

    CASES = [
        (D4, SeqSampleMode.EXACT_ORACLE, EtaDenominatorMode.EXACT_MAX),
        ((3, 3, 2, 2, 2, 2, 1, 1), SeqSampleMode.EXACT_ORACLE, EtaDenominatorMode.EXACT_MAX),
        ((2,) * 6, SeqSampleMode.ASYMPTOTIC, EtaDenominatorMode.CERTIFIED_BOUND),
        ((3, 3, 2, 2, 2, 2, 1, 1), SeqSampleMode.ASYMPTOTIC, EtaDenominatorMode.CERTIFIED_BOUND),
    ]

    @pytest.mark.parametrize("d, mode, denom", CASES)
    def test_lower_graph_is_seq_approx_p(self, d, mode, denom):
        p = default_params(d, zeta=0.1, zeta_prime=0.1)
        escaped = 0
        for s in range(200):
            g_l, _, tr = run_coupling(d, p, mode, denom, RandomSource(37, s))
            assert g_l == seq_approx_p(d, p.lam, p.big_lambda, RandomSource(37, s))
            escaped += tr.fallback
        assert 0 < escaped < 200

    @pytest.mark.parametrize("d, mode, denom", CASES)
    def test_upper_graph_does_not_read_lambda(self, d, mode, denom):
        # with Lambda = 0 no step escapes, and G takes the same path either
        # way; a run still counts as escaped if its completion gives up
        p = default_params(d, zeta=0.1, zeta_prime=0.1)
        blind = dataclasses.replace(p, big_lambda=SymmetricProbMatrix.full(len(d), 0.0))
        escaped = 0
        for s in range(200):
            _, g, tr = run_coupling(d, p, mode, denom, RandomSource(38, s))
            _, g_blind, tr_blind = run_coupling(d, blind, mode, denom, RandomSource(38, s))
            assert g == g_blind
            assert tr.edges_at_step_end == tr_blind.edges_at_step_end
            assert tr.completion_restarts == tr_blind.completion_restarts
            assert not tr_blind.fallback or tr_blind.completion_restarts >= DEAD_BASE_RESTARTS
            escaped += tr.fallback
        assert 0 < escaped < 200


class TestDeadBase:
    def test_complete_gives_up_on_a_base_with_no_completion(self):
        # the triangle saturates 0, 1 and 2, and vertex 3 still needs two edges
        kernel = make_kernel(DegreeSequence.of(D4), SeqSampleMode.ASYMPTOTIC,
                             SimpleGraph.from_edges(4, [(0, 1), (0, 2), (1, 2)]))
        with pytest.raises(DeadBaseError) as raised:
            kernel.complete(RandomSource(39))
        assert raised.value.restarts == DEAD_BASE_RESTARTS
        assert kernel.t == [0, 0, 0, 2] and len(kernel.history) == 3

    def test_run_that_gives_up_counts_as_escaped(self):
        # replica 8 of `couple --degrees regular(4,2) --zeta 0.9 --zeta-prime
        # 0.1 --seed 1` ends its loop at the triangle {02, 03, 23} without
        # escaping; its G is completed from the empty graph instead
        p = default_params(D4, zeta=0.9, zeta_prime=0.1)
        _, g, tr = run_coupling(D4, p, SeqSampleMode.ASYMPTOTIC,
                                EtaDenominatorMode.CERTIFIED_BOUND, RandomSource(1, 8))
        assert tr.fallback and tr.fallback_step == tr.poisson_steps
        assert tr.completion_restarts >= DEAD_BASE_RESTARTS
        assert g.degree_vector() == D4
        assert tr.edges_at_step_end == tr.insertions_both + tr.rejections_l_only == 3
        assert tr.edges_at_step_end + tr.completion_insertions == g.num_edges


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
