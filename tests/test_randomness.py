import importlib
import pkgutil
from math import exp, factorial, sqrt

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import degseq
from degseq import (
    AliasTable,
    DegenerateSequenceError,
    EtaDenominatorMode,
    RandomSource,
    SeqSampleMode,
    default_params,
    run_coupling,
    sample_poisson,
    seq_approx_p,
)
from degseq import randomness
from degseq.graphs import SymmetricProbMatrix, acceptance_matrix, tri_size
from degseq.randomness import CandidateStream, alias_table
from degseq.stats import pearson_chi_square

# sizes that end a block, cross one, and outgrow the largest; runs of single
# draws long enough to refill and grow the block
BLOCK_SIZES = [0, 1, 64, 8191, 8192, 8193, 20_000]
DRAW_RUNS = [1, 63, 64, 65, 300, 5000]
# candidate streams on both sides of the step-by-step/numpy split (64 steps)
# and of the 4096-step window
STREAM_COUNTS = [0, 1, 63, 64, 65, 4095, 4096, 4097, 10_000]
# weights whose pair draws redraw often: half the attempts for (1, 1)
STREAM_WEIGHTS = st.one_of(
    st.sampled_from([(1, 1), (5, 1, 1, 0), (1, 1, 0), (9, 1, 1)]),
    st.lists(st.integers(0, 9), min_size=2, max_size=12).filter(
        lambda w: sum(1 for x in w if x > 0) >= 2),
)


# seeds on both sides of 0, 2^32 and 2^64 and out to +-2^70; streams at the
# ends of a 1024-stream block and of the one- and two-word ranges, and past them
SEEDS = st.one_of(
    st.sampled_from([b + o for b in (0, 2**32, 2**64, -(2**32), -(2**64)) for o in (-1, 0, 1)]),
    st.integers(-(2**70), 2**70),
)
STREAMS = st.one_of(
    st.sampled_from([0, 1023, 1024, 2**32 - 1, 2**32, 2**64 - 1, 2**64]),
    st.integers(0, 2**66),
)


def degseq_caches() -> list:
    """Every functools cache at module level in the degseq package."""
    modules = [importlib.import_module(f"degseq.{m.name}")
               for m in pkgutil.iter_modules(degseq.__path__)]
    return [f for m in modules for f in vars(m).values() if hasattr(f, "cache_clear")]


class TestRandomSource:
    def test_replay_identical(self):
        a = RandomSource(123, 7)
        b = RandomSource(123, 7)
        assert [a.uniform() for _ in range(1000)] == [b.uniform() for _ in range(1000)]

    def test_streams_differ(self):
        a = RandomSource(123, 0)
        b = RandomSource(123, 1)
        assert [a.uniform() for _ in range(4)] != [b.uniform() for _ in range(4)]

    def test_block_draws_match_buffer_capacity(self):
        rng = RandomSource(9)
        big = rng.uniforms(10_000)
        assert big.shape == (10_000,)
        assert np.all((big >= 0.0) & (big < 1.0))

    @given(
        st.integers(0, 2**64 - 1),
        st.integers(0, 1000),
        st.lists(
            st.one_of(
                st.tuples(st.just("uniform"), st.sampled_from(DRAW_RUNS)),
                st.tuples(st.just("uniforms"), st.sampled_from(BLOCK_SIZES)),
                st.tuples(st.just("below"), st.integers(1, 10**6)),
            ),
            max_size=12,
        ),
    )
    @settings(max_examples=60, deadline=None)
    def test_any_interleaving_replays_one_generator_block(self, seed, stream, calls):
        # block boundaries and block growth must not show in the stream
        rng = RandomSource(seed, stream)
        got: list[float] = []
        below_at: list[tuple[int, int]] = []
        for name, arg in calls:
            if name == "uniform":
                got.extend(rng.uniform() for _ in range(arg))
            elif name == "uniforms":
                got.extend(rng.uniforms(arg).tolist())
            else:
                below_at.append((len(got), arg))
                got.append(rng.below(arg))
        ss = np.random.SeedSequence((seed, stream))
        ref = np.random.Generator(np.random.PCG64(ss)).random(len(got)).tolist()
        for i, n in below_at:
            ref[i] = int(ref[i] * n)
        assert got == ref

    @given(SEEDS, STREAMS)
    @settings(max_examples=200, deadline=None)
    def test_state_is_numpys_seed_sequence(self, seed, stream):
        # the seed words come from a block of streams, not from SeedSequence
        state = RandomSource(seed, stream)._gen.bit_generator.state
        ss = np.random.SeedSequence((seed & (2**64 - 1), stream))
        assert state == np.random.PCG64(ss).state

    @pytest.mark.parametrize("stream", [-1, -1024, -(2**64)])
    def test_negative_stream_raises(self, stream):
        with pytest.raises(ValueError):
            RandomSource(5, stream)

    def test_clearing_every_cache_mid_stream_changes_no_draw(self):
        caches = degseq_caches()
        assert randomness._stream_states in caches

        def draws(clear: bool) -> list[float]:
            out: list[float] = []
            for stream in (0, 1, 1023, 1024, 2**32, 2**64 - 1):
                rng = RandomSource(2**40 + 3, stream)
                out += [rng.uniform() for _ in range(100)]
                if clear:
                    for cache in caches:
                        cache.cache_clear()
                out += rng.uniforms(100).tolist()
                out += [RandomSource(2**40 + 3, stream).uniform()]
            return out

        assert draws(clear=True) == draws(clear=False)

    @given(st.integers(0, 2**32), st.sampled_from(BLOCK_SIZES + DRAW_RUNS),
           st.sampled_from(["uniform", "uniforms"]), st.sampled_from(["uniform", "uniforms"]),
           st.integers(0, 20_000), st.data())
    @settings(max_examples=60, deadline=None)
    def test_unread_draws_come_out_again(self, seed, taken, take, read, ahead, data):
        # draws taken either way, some put back, come out again in order from
        # either method; the stream then goes on as an untouched source's
        rng, ref = RandomSource(seed), RandomSource(seed)
        rng.uniforms(ahead)
        ref.uniforms(ahead)
        drawn = (rng.uniforms(taken).tolist() if take == "uniforms"
                 else [rng.uniform() for _ in range(taken)])
        back = data.draw(st.integers(0, taken))
        rng.unread(drawn[taken - back:] if take == "uniform" else np.array(drawn[taken - back:]))
        again = (rng.uniforms(taken).tolist() if read == "uniforms"
                 else [rng.uniform() for _ in range(taken)])
        assert drawn[:taken - back] + again == ref.uniforms(2 * taken - back).tolist()
        assert all(type(x) is float for x in again)
        assert [rng.uniform() for _ in range(100)] == [ref.uniform() for _ in range(100)]
        assert rng.uniforms(9000).tolist() == ref.uniforms(9000).tolist()

    def test_uniform_is_a_python_float(self):
        rng = RandomSource(5)
        assert type(rng.uniform()) is float
        assert all(type(rng.uniform()) is float for _ in range(10_000))

    def test_below_in_range(self):
        rng = RandomSource(4)
        draws = [rng.below(7) for _ in range(2000)]
        assert set(draws) == set(range(7))


class TestAliasTable:
    def test_rejects_bad_weights(self):
        with pytest.raises(ValueError):
            AliasTable([])
        with pytest.raises(DegenerateSequenceError):
            AliasTable([0.0, 0.0])
        with pytest.raises(ValueError):
            AliasTable([1.0, -0.5])

    @pytest.mark.parametrize("weights", [
        [float("nan"), 1.0],
        [1.0, float("nan")],
        [float("inf"), 1.0],
        [1.0, float("inf"), 2.0],
        [1e308, 1e308],
    ])
    def test_rejects_non_finite_weights(self, weights):
        # unchecked, NaN builds prob [0.0, 0.0] and draws index 0 for ever,
        # inf draws 0 and 1 half each; a sum past the largest double is inf
        with pytest.raises(ValueError, match="finite"):
            AliasTable(weights)

    def test_negative_infinite_weight_is_negative(self):
        with pytest.raises(ValueError, match="negative weight"):
            AliasTable([float("-inf"), 1.0])

    def test_integer_and_float_weights_build_one_table(self):
        ints, floats = AliasTable([3, 0, 1, 7]), AliasTable([3.0, 0.0, 1.0, 7.0])
        assert (ints.prob, ints.alias, ints.positive) == (floats.prob, floats.alias, floats.positive)

    @given(st.lists(st.integers(0, 20), min_size=1, max_size=12).filter(lambda w: sum(w) > 0))
    def test_table_encodes_exact_probabilities(self, weights):
        table = AliasTable(weights)
        total = sum(weights)

        def exact_probability(i):
            # P(sample() == i), read back from the table: slot i kept, plus
            # every other slot that aliases to i
            p = table.prob[i]
            for j in range(table.size):
                if table.alias[j] == i and j != i:
                    p += 1.0 - table.prob[j]
            return p / table.size

        for i, w in enumerate(weights):
            assert exact_probability(i) == pytest.approx(w / total, abs=1e-12)

    def test_zero_weight_never_sampled(self):
        table = AliasTable([3, 0, 1])
        rng = RandomSource(77)
        assert all(table.sample(rng) != 1 for _ in range(5000))

    def test_pair_draw_needs_two_positive_weights(self):
        # one positive weight: every attempt would draw j == k, for ever
        with pytest.raises(DegenerateSequenceError, match="two positive weights"):
            AliasTable((2, 0, 0)).sample_pair(RandomSource(1))


def stream_lambda(weights, kind, seed):
    """A Lambda on len(weights) vertices with entries in (0, 1): one class per
    distinct weight, or each vertex its own class."""
    n = len(weights)
    if kind == "classes":
        return acceptance_matrix([min(w, n - 1) for w in weights], 0.25)
    return SymmetricProbMatrix(n, np.random.default_rng(seed).random(tri_size(n)))


def scalar_steps(table, big_lambda, count, rng):
    """The reference draw of `count` candidate steps, one at a time."""
    steps = []
    for _ in range(count):
        j, k = table.sample_pair(rng)
        steps.append((j, k, big_lambda.entry(j, k), rng.uniform()))
    return steps


def bits(steps):
    return [(j, k, float(lam).hex(), u.hex()) for j, k, lam, u in steps]


def test_alias_table_built_once_per_sequence(monkeypatch):
    # run_coupling and seq_approx_p rebuilt the table on every call: 3-6 us
    # at n = 4, 2.9 ms at n = 10^4
    built = []
    monkeypatch.setattr(randomness, "AliasTable", lambda w: built.append(w) or AliasTable(w))
    randomness.alias_table.cache_clear()
    d = (3, 3, 2, 2, 2, 1, 1)
    for s in range(3):
        seq_approx_p(d, 5.0, SymmetricProbMatrix.full(7, 0.5), RandomSource(71, s))
        run_coupling(d, default_params(d), SeqSampleMode.ASYMPTOTIC,
                     EtaDenominatorMode.CERTIFIED_BOUND, RandomSource(72, s))
    assert built == [d]
    randomness.alias_table.cache_clear()


class TestCandidateStream:
    @given(STREAM_WEIGHTS, st.sampled_from(STREAM_COUNTS),
           st.sampled_from(["classes", "per-pair"]), st.integers(0, 2**32))
    @settings(max_examples=60, deadline=None)
    @example((1, 1), 10_000, "classes", 3)
    @example((5, 1, 1, 0), 4097, "per-pair", 4)
    @example((5, 1, 1, 0), 64, "classes", 5)
    def test_replays_the_scalar_draws(self, weights, count, kind, seed):
        table = AliasTable(weights)
        big_lambda = stream_lambda(weights, kind, seed)
        rng = RandomSource(seed, 1)
        ref = scalar_steps(table, big_lambda, count, rng)
        after = rng.uniform()

        rng = RandomSource(seed, 1)
        got = list(CandidateStream(table, big_lambda, count, rng))
        assert bits(got) == bits(ref)
        assert rng.uniform() == after

        # the whole stream with its coins alone
        rng = RandomSource(seed, 1)
        keys: set[int] = set()
        CandidateStream(table, big_lambda, count, rng).accept_rest(keys)
        n = len(weights)
        assert keys == {j * n + k for j, k, lam, u in ref if u < lam}
        assert rng.uniform() == after

    @pytest.mark.parametrize("count", [5, 100])
    def test_needs_two_positive_weights(self, count):
        with pytest.raises(DegenerateSequenceError, match="two positive weights"):
            CandidateStream(alias_table((2, 0, 0)), SymmetricProbMatrix.full(3, 0.5), count,
                            RandomSource(1))

    @given(STREAM_WEIGHTS, st.sampled_from(["classes", "per-pair"]), st.integers(0, 2**32))
    @settings(max_examples=30, deadline=None)
    def test_entries_match_entry_bit_for_bit(self, weights, kind, seed):
        big_lambda = stream_lambda(weights, kind, seed)
        j, k = np.triu_indices(len(weights), k=1)
        got = big_lambda.entries(j, k).tolist()
        assert [x.hex() for x in got] == [float(big_lambda.entry(a, b)).hex()
                                          for a, b in zip(j.tolist(), k.tolist())]


class TestSamplePoisson:
    def test_zero_mean(self):
        rng = RandomSource(0)
        assert all(sample_poisson(0.0, rng) == 0 for _ in range(10))

    def test_negative_mean_raises(self):
        with pytest.raises(ValueError):
            sample_poisson(-1.0, RandomSource(0))

    @pytest.mark.parametrize("mean", [float("inf"), float("nan")])
    def test_non_finite_mean_raises(self, mean):
        # inf was an OverflowError from the rejection branch
        with pytest.raises(ValueError, match="finite"):
            sample_poisson(mean, RandomSource(0))

    @pytest.mark.parametrize("mean", [9.3e18, 1e308])
    def test_mean_past_numpys_bound_raises(self, mean):
        # 1e308 was an OverflowError from lgamma, or a draw of about 1e308 steps
        with pytest.raises(ValueError, match="at most"):
            sample_poisson(mean, RandomSource(1))

    def test_mean_at_numpys_bound_draws(self):
        mean = randomness._POISSON_MEAN_MAX
        assert abs(sample_poisson(mean, RandomSource(1)) - mean) < 1e12

    def test_moments_small_mean(self):
        # inversion branch; 3-sigma bands around mean 4 over 1e6 draws
        rng = RandomSource(1001)
        draws = np.array([sample_poisson(4.0, rng) for _ in range(1_000_000)])
        assert abs(draws.mean() - 4.0) < 0.006
        assert abs(draws.var() - 4.0) < 0.02

    def test_moments_large_mean(self):
        # transformed-rejection branch; CLT band 3*sqrt(3000/1e6)
        rng = RandomSource(1002)
        draws = np.array([sample_poisson(3000.0, rng) for _ in range(1_000_000)])
        assert abs(draws.mean() - 3000.0) < 3.0 * sqrt(3000.0 / 1_000_000)

    @pytest.mark.parametrize("mean", [4.0, 45.0])
    def test_exact_pmf_chi_square(self, mean):
        # both branches against the exact law, tail lumped into one category
        rng = RandomSource(int(mean) + 5000)
        n = 30_000
        draws = [sample_poisson(mean, rng) for _ in range(n)]
        hi = int(mean + 8 * sqrt(mean))
        probs = [exp(-mean) * mean**k / factorial(k) for k in range(hi)]
        probs.append(1.0 - sum(probs))
        counts = [0] * (hi + 1)
        for x in draws:
            counts[min(x, hi)] += 1
        report = pearson_chi_square(counts, probs)
        assert report.p_value > 0.01

    def test_deterministic(self):
        a = [sample_poisson(11.5, RandomSource(3, 1)) for _ in range(50)]
        b = [sample_poisson(11.5, RandomSource(3, 1)) for _ in range(50)]
        assert a == b
