import gc
import tracemalloc
from math import expm1, sqrt

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from degseq import (
    AliasTable,
    DegenerateSequenceError,
    DegreeSequence,
    NonGraphicalError,
    OracleCapError,
    RandomSource,
    SamplerDiagnostics,
    SeqSampleMode,
    SimpleGraph,
    f_c_transform,
    hadamard,
    eta_denominator,
    q_matrix,
    rho,
    sample_gnw,
    seq_approx_p,
    seq_sample_d,
)
from degseq.deggen import parse_generator_spec
from degseq.graphs import InvariantError, SymmetricProbMatrix, tri_pairs
from degseq.samplers import AsymptoticKernel, make_kernel
from degseq.stats import (
    THRESHOLDS,
    empirical_marginals,
    pairwise_covariance,
    pearson_chi_square,
)
from test_coupling import graphical_degrees

Z_BAND = 4.5


class TestSampleWeightedEdge:
    """`AliasTable(d).sample_pair`: the pair {j,k} with probability
    proportional to d_j d_k, the draw of every candidate step."""

    def test_single_pair(self):
        rng = RandomSource(1)
        assert all(AliasTable((1, 1)).sample_pair(rng) == (0, 1) for _ in range(20))

    def test_frequencies_match_pair_weights(self):
        # weights (2,1,1): pair probabilities 2/5, 2/5, 1/5
        rng = RandomSource(555)
        table = AliasTable((2, 1, 1))
        n_draws = 100_000
        counts = {(0, 1): 0, (0, 2): 0, (1, 2): 0}
        for _ in range(n_draws):
            counts[table.sample_pair(rng)] += 1
        for pair, prob in [((0, 1), 0.4), ((0, 2), 0.4), ((1, 2), 0.2)]:
            band = 3.0 * sqrt(prob * (1 - prob) / n_draws)
            assert abs(counts[pair] / n_draws - prob) < band

    def test_symmetric_case(self):
        rng = RandomSource(556)
        table = AliasTable((2, 2, 2))
        n_draws = 30_000
        counts = {}
        for _ in range(n_draws):
            e = table.sample_pair(rng)
            counts[e] = counts.get(e, 0) + 1
        for c in counts.values():
            assert abs(c / n_draws - 1 / 3) < 3.0 * sqrt((1 / 3) * (2 / 3) / n_draws)

    def test_zero_degree_vertex_never_drawn(self):
        rng = RandomSource(557)
        table = AliasTable((2, 2, 2, 0))
        for _ in range(2000):
            assert 3 not in table.sample_pair(rng)


class TestSampleGnw:
    def test_all_zero(self):
        g = sample_gnw(SymmetricProbMatrix.full(5, 0.0), RandomSource(2))
        assert g.num_edges == 0

    def test_all_one(self):
        g = sample_gnw(SymmetricProbMatrix.full(5, 1.0), RandomSource(2))
        assert g.num_edges == 10

    def test_edge_count_moments(self):
        # constant 0.3 on 20 vertices: expected count 57 over 190 pairs
        w = SymmetricProbMatrix.full(20, 0.3)
        rng = RandomSource(558)
        n_runs = 10_000
        total = sum(sample_gnw(w, rng).num_edges for _ in range(n_runs))
        band = 3.0 * sqrt(190 * 0.3 * 0.7 / n_runs)
        assert abs(total / n_runs - 57.0) < band

    def test_deterministic(self):
        w = SymmetricProbMatrix.full(6, 0.5)
        assert sample_gnw(w, RandomSource(9, 4)) == sample_gnw(w, RandomSource(9, 4))


class TestSeqApproxP:
    def test_zero_lambda(self):
        lam_m = SymmetricProbMatrix.full(3, 0.9)
        g = seq_approx_p((2, 2, 2), 0.0, lam_m, RandomSource(3))
        assert g.num_edges == 0

    def test_zero_acceptance(self):
        g = seq_approx_p((2, 2, 2), 5.0, SymmetricProbMatrix.full(3, 0.0), RandomSource(3))
        assert g.num_edges == 0

    @pytest.mark.parametrize("lam", [float("inf"), float("nan")])
    def test_non_finite_lambda_raises(self, lam):
        # inf was an OverflowError from the Poisson draw
        with pytest.raises(ValueError, match="lam must be finite"):
            seq_approx_p((2, 2, 2), lam, SymmetricProbMatrix.full(3, 0.5), RandomSource(3))

    def test_lambda_past_poisson_bound_names_lam(self):
        with pytest.raises(ValueError, match="^lam must be finite, >= 0 and at most"):
            seq_approx_p((2, 2, 2, 2), 1e300, SymmetricProbMatrix.full(4, 0.5), RandomSource(1))

    def test_degenerate_raises(self):
        # raised by the pair draw's guard, `AliasTable.require_pairs`, or by an
        # all-zero alias table
        for d in [(1, 0, 0), (0, 0, 0)]:
            with pytest.raises(DegenerateSequenceError, match="two positive weights"):
                seq_approx_p(d, 1.0, SymmetricProbMatrix.full(3, 0.0), RandomSource(3))

    def test_marginals_match_closed_form(self, approx_p_samples):
        # per-edge law 1 - exp(-lam * Lambda * Q) with lam=2.4, Lambda=0.54, Q=1/3
        w_ref = f_c_transform(
            hadamard(SymmetricProbMatrix.full(3, 0.54), q_matrix((2, 2, 2))), 2.4
        )
        assert w_ref[(0, 1)] == pytest.approx(-expm1(-0.432))
        report = empirical_marginals(approx_p_samples, w_ref)
        assert report.worst_abs_z < Z_BAND
        assert not report.exact_violations

    def test_pairwise_covariances_vanish(self, approx_p_samples):
        report = pairwise_covariance(approx_p_samples)
        assert not report.violations

    def test_matches_direct_gnw_sampler(self, approx_p_samples):
        # same closed-form law sampled directly; two-sample marginal bands
        w_ref = f_c_transform(
            hadamard(SymmetricProbMatrix.full(3, 0.54), q_matrix((2, 2, 2))), 2.4
        )
        rng = RandomSource(90211)
        n_direct = 100_000
        direct = [sample_gnw(w_ref, rng) for _ in range(n_direct)]
        f_direct = empirical_marginals(direct, w_ref).frequency
        f_seq = empirical_marginals(approx_p_samples, w_ref).frequency
        n_seq = len(approx_p_samples)
        for idx in range(3):
            p = w_ref.tri[idx]
            band = 3.0 * sqrt(p * (1 - p) * (1 / n_direct + 1 / n_seq))
            assert abs(f_direct[idx] - f_seq[idx]) < band

    def test_deterministic(self):
        lam_m = SymmetricProbMatrix.full(4, 0.5)
        a = seq_approx_p((2, 2, 2, 2), 3.0, lam_m, RandomSource(10, 2))
        b = seq_approx_p((2, 2, 2, 2), 3.0, lam_m, RandomSource(10, 2))
        assert a == b


class TestSeqSampleD:
    def test_single_edge_both_modes(self):
        for mode in SeqSampleMode:
            g, _ = seq_sample_d((1, 1), mode, RandomSource(4))
            assert g.pairs() == [(0, 1)]

    def test_non_graphical_raises(self):
        with pytest.raises(NonGraphicalError):
            seq_sample_d((3, 3, 1, 1), SeqSampleMode.ASYMPTOTIC, RandomSource(4))

    def test_oracle_cap(self):
        with pytest.raises(OracleCapError):
            seq_sample_d((1,) * 12, SeqSampleMode.EXACT_ORACLE, RandomSource(4))

    def test_exact_degrees_every_run(self):
        d = (3, 2, 2, 2, 1)
        for s in range(50):
            g, _ = seq_sample_d(d, SeqSampleMode.EXACT_ORACLE, RandomSource(11, s))
            assert g.degree_vector() == d

    def test_asymptotic_degrees_every_run_medium_n(self):
        d = (4,) * 30
        for s in range(10):
            g, _ = seq_sample_d(d, SeqSampleMode.ASYMPTOTIC, RandomSource(12, s))
            assert g.degree_vector() == d

    def test_checkpoints_are_nested_prefixes(self):
        g, snaps = seq_sample_d(
            (2, 2, 2, 2, 2),
            SeqSampleMode.EXACT_ORACLE,
            RandomSource(13),
            checkpoints=(0, 1, 3, 5),
        )
        assert [s.num_edges for s in snaps] == [0, 1, 3, 5]
        for a, b in zip(snaps, snaps[1:]):
            assert a.is_subgraph_of(b)
        assert snaps[-1] == g

    def test_checkpoint_snapshots_are_frozen(self):
        _, snaps = seq_sample_d(
            (2, 2, 2, 2), SeqSampleMode.ASYMPTOTIC, RandomSource(14), checkpoints=(1,)
        )
        assert isinstance(snaps[0], SimpleGraph)
        assert snaps[0].num_edges == 1

    def test_asymptotic_restart_on_dead_end(self):
        # (1,1,2): proposing the (0,1) edge first strands vertex 2, which
        # must be detected and restarted, never returned
        d = (1, 1, 2)
        diag = SamplerDiagnostics()
        for s in range(200):
            g, _ = seq_sample_d(d, SeqSampleMode.ASYMPTOTIC, RandomSource(15, s), diagnostics=diag)
            assert g.degree_vector() == d
        assert diag.restarts > 0

    @given(graphical_degrees(max_n=12), st.integers(0, 2**32 - 1))
    def test_asymptotic_meets_every_degree(self, degrees, seed):
        # dense small sequences rebuild the stub list and dead-end often
        g, _ = seq_sample_d(degrees, SeqSampleMode.ASYMPTOTIC, RandomSource(seed))
        assert g.degree_vector() == degrees

    def test_deterministic(self):
        a, _ = seq_sample_d((2, 2, 2, 2), SeqSampleMode.ASYMPTOTIC, RandomSource(16, 8))
        b, _ = seq_sample_d((2, 2, 2, 2), SeqSampleMode.ASYMPTOTIC, RandomSource(16, 8))
        assert a == b

    def test_bad_checkpoint_rejected(self):
        with pytest.raises(ValueError):
            seq_sample_d((1, 1), SeqSampleMode.ASYMPTOTIC, RandomSource(4), checkpoints=(2,))

    @pytest.mark.parametrize("bad", [1.7, 1.0, True, False, np.float64(1.0), np.bool_(True)])
    def test_non_integer_checkpoint_rejected(self, bad):
        # int() would truncate [1.7, True] to two 1-edge snapshots
        with pytest.raises(TypeError, match="integer"):
            seq_sample_d((2, 2, 2, 2), SeqSampleMode.EXACT_ORACLE, RandomSource(1),
                         checkpoints=[bad])

    def test_numpy_integer_checkpoints_accepted(self):
        _, snaps = seq_sample_d((2, 2, 2, 2), SeqSampleMode.EXACT_ORACLE, RandomSource(1),
                                checkpoints=[np.int64(1), np.uint8(3), 2])
        assert [s.num_edges for s in snaps] == [1, 3, 2]


class TestMakeKernel:
    """`make_kernel(d, mode, state)` reaches the state that inserting from the
    empty graph reaches, and the public queries read that kernel."""

    @given(graphical_degrees(max_n=6), st.sampled_from(list(SeqSampleMode)), st.data())
    @settings(deadline=None)
    def test_public_queries_read_the_inserted_kernel(self, degrees, mode, data):
        d = DegreeSequence.of(degrees)
        n = d.n
        # weights are defined for pairs of positive degree, the only candidates
        candidates = [(j, k) for j, k in tri_pairs(n) if d[j] >= 1 and d[k] >= 1]
        kernel = make_kernel(d, mode)
        for _ in range(data.draw(st.integers(0, d.total // 2))):
            open_pairs = [(j, k) for j, k in candidates
                          if j * n + k not in kernel.edges and kernel.weight(j, k) > 0]
            if not open_pairs:
                break
            kernel.insert(*data.draw(st.sampled_from(open_pairs)))
        h = SimpleGraph(n, kernel.edges)
        for j, k in candidates:
            if j * n + k not in kernel.edges:
                assert rho(d, h, (j, k), mode) == kernel.weight(j, k)
        want = kernel.denominator()
        if want > 0.0:
            assert eta_denominator(d, h, mode) == want
        else:
            with pytest.raises(ValueError, match="no eligible pair"):
                eta_denominator(d, h, mode)
        replayed = make_kernel(d, mode, h)
        assert replayed.edges == kernel.edges
        # the state's edges head the history, in ascending order
        assert replayed.history == sorted(kernel.edges)
        if mode is SeqSampleMode.ASYMPTOTIC:
            assert (replayed.t, replayed.tsum) == (kernel.t, kernel.tsum)
        else:
            assert replayed.gmask == kernel.gmask
            assert list(replayed.sub) == list(kernel.sub)

    def test_oversaturated_raises(self):
        h = SimpleGraph.from_edges(3, [(0, 1), (0, 2)])
        with pytest.raises(ValueError, match="vertex 0: partial degree 2 exceeds target 1"):
            make_kernel(DegreeSequence((1, 1, 1)), SeqSampleMode.ASYMPTOTIC, h)

    def test_state_outside_every_member_raises(self):
        # insert's InvariantError becomes the conditioning error
        h = SimpleGraph.from_edges(4, [(0, 1), (0, 2)])
        with pytest.raises(ValueError, match="conditioning event is empty"):
            make_kernel(DegreeSequence((1, 1, 1, 1)), SeqSampleMode.EXACT_ORACLE, h)

    @pytest.mark.parametrize("mode", list(SeqSampleMode))
    def test_wrong_n_raises(self, mode):
        with pytest.raises(ValueError, match="graph on 3 vertices vs sequence of length 4"):
            make_kernel(DegreeSequence((1, 1, 1, 1)), mode, SimpleGraph.empty(3))


class TestAsymptoticStepLaw:
    """The pair one `insert_step` accepts follows t_j t_k / (||t||_1 + t_j t_k)
    over the eligible non-edges, whatever the kernel's proposal structure."""

    D = (3, 3, 3, 3, 2, 2, 2, 2)
    DRAWS = 20_000

    def _state(self, fixed_inserts):
        # the first insert_step builds the proposal structure from t; the
        # fixed insertions after it lower t below what that structure saw
        kernel = AsymptoticKernel(self.D)
        kernel.insert_step(RandomSource(61))
        for _ in range(fixed_inserts):
            t = kernel.t
            j, k = next(
                (j, k)
                for j in range(len(t))
                for k in range(j + 1, len(t))
                if t[j] > 0 and t[k] > 0 and j * len(t) + k not in kernel.edges
            )
            kernel.insert(j, k)
        return kernel

    def _check(self, fixed_inserts, seed):
        base = self._state(fixed_inserts)
        n = len(self.D)
        deg = [0] * n
        for e in base.edges:
            j, k = divmod(e, n)
            deg[j] += 1
            deg[k] += 1
        t = [dh - gh for dh, gh in zip(self.D, deg)]
        assert base.t == t
        tsum = sum(t)
        law = {
            (j, k): t[j] * t[k] / (tsum + t[j] * t[k])
            for j in range(len(t))
            for k in range(j + 1, len(t))
            if t[j] > 0 and t[k] > 0 and j * n + k not in base.edges
        }
        norm = sum(law.values())
        pairs = sorted(law)
        index = {e: i for i, e in enumerate(pairs)}
        counts = [0] * len(pairs)
        # every draw starts from base's state: t, the edges and the history are
        # copied, and the stub list is shared read only
        base.stubs.setflags(write=False)
        for s in range(self.DRAWS):
            kernel = AsymptoticKernel(self.D)
            kernel.edges, kernel.t, kernel.tsum = set(base.edges), list(base.t), base.tsum
            kernel.history = list(base.history)
            kernel.stubs, kernel.t_r, kernel.tsum_r = base.stubs, base.t_r, base.tsum_r
            counts[index[divmod(kernel.insert_step(RandomSource(seed, s)), n)]] += 1
        report = pearson_chi_square(counts, [law[e] / norm for e in pairs])
        assert report.p_value > THRESHOLDS.p_min, report
        return tsum

    def test_law_while_thinning(self):
        # one fixed insertion after the build: ||t||_1 = 16 of 18 at the build
        assert self._check(1, 62) == 16

    def test_law_after_rebuild(self):
        # three fixed insertions: ||t||_1 = 12 of 18, so the step rebuilds
        assert self._check(3, 63) == 12


def test_stub_list_shares_vertex_ints():
    # 850k stubs are one int64 array (about 6.8 MB); a list with a fresh
    # int per stub, as np.repeat(...).tolist() makes, would add about 24 MB
    d = [85] * 10_000
    tracemalloc.start()
    try:
        AsymptoticKernel(d).insert_step(RandomSource(64))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 12 * 2**20, peak



def test_returned_graph_bytes_per_edge():
    # the 20000-edge graph of regular(2000, 20) kept about 131 bytes per edge
    # as a frozenset of (j, k) tuples, and keeps about 84 as one of int keys
    seq_sample_d([20] * 50, SeqSampleMode.ASYMPTOTIC, RandomSource(65))
    gc.collect()
    tracemalloc.start()
    try:
        g, _ = seq_sample_d([20] * 2000, SeqSampleMode.ASYMPTOTIC, RandomSource(66))
        gc.collect()
        kept, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert g.num_edges == 20_000
    assert kept / g.num_edges < 108, kept / g.num_edges


def test_returned_graph_keeps_int64_keys():
    # a sorted int64 key array is 8 bytes an edge; a frozenset of int keys
    # kept about 84
    seq_sample_d([20] * 50, SeqSampleMode.ASYMPTOTIC, RandomSource(65))
    gc.collect()
    tracemalloc.start()
    try:
        g, _ = seq_sample_d([20] * 2000, SeqSampleMode.ASYMPTOTIC, RandomSource(66))
        gc.collect()
        kept, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert g.num_edges == 20_000
    assert kept / g.num_edges <= 16, kept / g.num_edges


class TestAsymptoticKernelFrames:
    """The query-time heap, the one-frame completion and the open-pair scan
    change no number."""

    @given(graphical_degrees(), st.lists(st.booleans(), max_size=80), st.data())
    @settings(deadline=None)
    def test_heap_max_matches_full_scan(self, degrees, by_step, data):
        kernel = AsymptoticKernel(degrees)
        rng = RandomSource(data.draw(st.integers(0, 2**32 - 1)))
        n = len(degrees)
        for step in by_step:
            t = kernel.t
            weights = [kernel.weight(j, k) for j in range(n) for k in range(j + 1, n)
                       if j * n + k not in kernel.edges]
            # the true maximum, below the bound, and 0 exactly at a dead end
            top = max(weights, default=0.0)
            assert top <= kernel.denominator()
            assert kernel.eligible_pair_exists() == (top > 0)
            open_pairs = [
                (j, k)
                for j in range(n)
                for k in range(j + 1, n)
                if t[j] > 0 and t[k] > 0 and j * n + k not in kernel.edges
            ]
            if not open_pairs:
                break
            if step:
                if kernel.insert_step(rng) is None:
                    break
            else:
                kernel.insert(*data.draw(st.sampled_from(open_pairs)))
            tsum = sum(t)
            rmax = max((t[h] / degrees[h] for h in range(n) if degrees[h] >= 1), default=0.0)
            bound = kernel.denominator()
            assert bound == (rmax * rmax / tsum if tsum > 0 else 0.0)
            for j in range(n):
                for k in range(j + 1, n):
                    if j * n + k not in kernel.edges:
                        assert bound >= kernel.weight(j, k)

    def test_single_steps_replay_complete(self):
        # regular(16,5) at seed 1 completes without a restart; the golden
        # case sample-gnd-asymptotic-checkpoints covers two restarts
        d = [5] * 16
        stepped = AsymptoticKernel(d)
        rng_stepped = RandomSource(1)
        while stepped.insert_step(rng_stepped) is not None:
            pass
        framed = AsymptoticKernel(d)
        rng_framed = RandomSource(1)
        assert framed.complete(rng_framed) == 0
        assert stepped.history == framed.history
        assert stepped.edges == framed.edges
        assert stepped.t == framed.t == [0] * 16
        assert stepped.tsum == framed.tsum == 0
        assert rng_stepped.uniform() == rng_framed.uniform()

    def test_dead_end_refills_in_blocks(self):
        # at the triangle {02, 03, 23} of regular(4,2) only vertex 1 has
        # stubs left: 512 proposals of two draws each find the dead end.
        # Refills of 3 uniforms per owed insertion made 512 calls there
        class CountingSource(RandomSource):
            calls = 0

            def uniforms(self, k):
                self.calls += 1
                return super().uniforms(k)

        kernel = AsymptoticKernel([2, 2, 2, 2])
        for j, k in ((0, 2), (0, 3), (2, 3)):
            kernel.insert(j, k)
        rng = CountingSource(1)
        assert kernel.insert_step(rng) is None
        assert rng.calls <= 16
        # every draw a proposal read is spent, and only those
        assert rng.uniform() == RandomSource(1).uniforms(2 * 512 + 1)[-1]


class ScalarKernel(AsymptoticKernel):
    """The reference completion loop: one `rng.uniform()` per draw, read as
    it is used, from a stub list of Python ints.  `AsymptoticKernel` draws
    its uniforms in blocks and must replay this loop byte for byte."""

    def insert_step(self, rng, count=1):
        n, t, edges, uniform = self.n, self.t, self.edges, rng.uniform
        e = None
        for _ in range(count):
            if self.tsum < 2:
                return None
            if self.stubs is None or 4 * self.tsum < 3 * self.tsum_r:
                self.t_r = list(t)
                self.tsum_r = self.tsum
                self.stubs = [h for h, th in enumerate(t) for _ in range(th)]
            stubs, t_r, tsum, size = self.stubs, self.t_r, self.tsum, len(self.stubs)
            attempts = 0
            while True:
                attempts += 1
                if attempts > 512:
                    if not self.eligible_pair_exists():
                        return None
                    attempts = 0
                j = stubs[int(uniform() * size)]
                k = stubs[int(uniform() * size)]
                if j == k or not t[j] or not t[k]:
                    continue
                e = j * n + k if j < k else k * n + j
                if e in edges:
                    continue
                prod = t[j] * t[k]
                if uniform() * t_r[j] * t_r[k] * (tsum + prod) < prod * (tsum + 1):
                    break
            self.insert(j, k)
        return e


def complete_by_steps(kernel, rng):
    """`kernel.complete(rng)` with one `insert_step` call per insertion."""
    base_t, base_len = list(kernel.t), len(kernel.history)
    restarts = 0
    while kernel.tsum > 0:
        if kernel.insert_step(rng) is None:
            restarts += 1
            kernel.edges.difference_update(kernel.history[base_len:])
            kernel.t[:] = base_t
            kernel.tsum = sum(base_t)
            del kernel.history[base_len:]
            kernel.stubs = None
    return restarts


def completion_record(kernel_cls, degrees, rng, by_steps=False):
    """What a completion leaves: history, t, restarts and the next uniform."""
    kernel = kernel_cls(degrees)
    restarts = complete_by_steps(kernel, rng) if by_steps else kernel.complete(rng)
    return kernel.history, kernel.t, kernel.tsum, restarts, rng.uniform()


def require_same_completion(degrees, rng_of):
    """The block kernel, through `complete` and step by step, against the
    scalar reference; raises InvariantError (kept under `python -O`)."""
    reference = completion_record(ScalarKernel, degrees, rng_of())
    for by_steps in (False, True):
        got = completion_record(AsymptoticKernel, degrees, rng_of(), by_steps)
        if got != reference:
            raise InvariantError(f"{degrees}: block draws (by_steps={by_steps}) left the scalar stream")
    return reference[3]


class TestBlockDrawsReplayScalarLoop:
    """`insert_step`'s block draws make the scalar loop's decisions from the
    same uniforms: history, t, restarts and the next draw all agree."""

    @given(graphical_degrees(max_n=12), st.integers(0, 2**32 - 1))
    @settings(deadline=None)
    def test_small_sequences(self, degrees, seed):
        require_same_completion(degrees, lambda: RandomSource(seed))

    @pytest.mark.parametrize("degrees, seed, restarts", [
        ((1, 1, 2), 3, 3),
        ((5,) * 16, 8, 3),
        ((2, 2, 2, 2, 2, 2, 1, 1), 3, 1),
    ])
    def test_dead_ends(self, degrees, seed, restarts):
        # held draws survive each restart and are read first after it
        if require_same_completion(degrees, lambda: RandomSource(seed)) != restarts:
            raise InvariantError(f"{degrees} seed {seed}: expected {restarts} restarts")

    @pytest.mark.parametrize("spec", ["regular(400,20)", "powerlaw(600,2.5,3,60)"])
    def test_across_blocks_and_rebuilds(self, spec):
        # thousands of insertions: many refills, and rebuilds that remap a held tail
        d = list(parse_generator_spec(spec, 5).degrees)
        require_same_completion(d, lambda: RandomSource(5, 1))

    @given(graphical_degrees(max_n=12), st.integers(0, 2**32 - 1), st.integers(1, 40))
    @settings(deadline=None)
    @example((1, 1, 2), 25, 2)  # a dead end after the first insertion
    def test_full_call_reads_every_draw(self, degrees, seed, count):
        count = min(count, max(1, sum(degrees) // 2))
        kernel = AsymptoticKernel(degrees)
        reference = ScalarKernel(degrees)
        rng, rng_ref = RandomSource(seed), RandomSource(seed)
        e = kernel.insert_step(rng, count)
        if e != reference.insert_step(rng_ref, count) or kernel.history != reference.history:
            raise InvariantError("one call of count insertions left the scalar stream")
        # a full call and a dead end alike leave the rng where the scalar loop does
        if rng.uniform() != rng_ref.uniform():
            raise InvariantError(f"a call of {count} insertions left the rng elsewhere")

    @pytest.mark.parametrize("second", range(16))
    def test_dead_end_keeps_no_draw_for_another_rng(self, second):
        # (1, 1, 2) dead-ends at seed 25 once it inserts (0, 1); the restarted
        # kernel must then read the second rng alone, as a fresh kernel does.
        # With seed 2 it once returned edge 2, history [5, 2], for [2, 5]
        degrees = (1, 1, 2)
        kernel = AsymptoticKernel(degrees)
        if kernel.insert_step(RandomSource(25), count=2) is not None:
            raise InvariantError("(1, 1, 2) at seed 25 no longer dead-ends")
        kernel.edges.clear()
        kernel.t[:] = degrees
        kernel.tsum = sum(degrees)
        kernel.history.clear()
        kernel.stubs = None
        fresh = AsymptoticKernel(degrees)
        got = kernel.insert_step(RandomSource(second), count=2), kernel.history
        want = fresh.insert_step(RandomSource(second), count=2), fresh.history
        if got != want:
            raise InvariantError(f"after a dead end, seed {second} gave {got} for {want}")
