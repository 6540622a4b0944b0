"""Seeded randomness primitives shared by all samplers.

A RandomSource is a (seed, stream) pair over PCG64; identical pairs replay
identical draw sequences on every platform.  Its generator gets exactly the
state of `PCG64(SeedSequence((seed mod 2^64, stream)))`, but for a stream in
[0, 2^64) the seed words come from a cached block made for 1024 streams at
once (`_stream_states`, numpy's SeedSequence algorithm run elementwise);
other streams call SeedSequence itself.  Uniforms are served from a block of
Python floats, filled lazily: 64 on the first draw, then doubling up to
8192.  PCG64 doubles do not depend on how they are blocked, so the stream is
the same whatever the block sizes.  Hot loops call only `rng.uniform` (often
bound to a local) or the bulk `rng.uniforms(k)`, never the block itself, so a
subclass overriding both sees every draw.  A caller that reads ahead puts
back what it did not use with `rng.unread`; a subclass that counts what
those two hand out counts a put-back draw again.
"""
from __future__ import annotations

from functools import lru_cache
from math import exp, floor, isfinite, lgamma, log, sqrt
from typing import Iterator

import numpy as np
from numpy.random.bit_generator import ISeedSequence

from .graphs import DegenerateSequenceError

_FIRST_BLOCK = 64
_MAX_BLOCK = 8192
# candidate streams of at least _STREAM_BLOCK_MIN steps are parsed with numpy,
# at most _STREAM_WINDOW steps per pass; shorter ones are drawn step by step
_STREAM_BLOCK_MIN = 64
_STREAM_WINDOW = 4096
_MASK32 = 0xFFFFFFFF
_MASK64 = 0xFFFFFFFFFFFFFFFF
# numpy's bound on `Generator.poisson`'s mean, so that a draw fits an int64
_POISSON_MEAN_MAX = _MASK64 // 2 - sqrt(_MASK64 // 2) * 10
# streams whose seed words are derived together, in one `_stream_states` call
_STREAM_BLOCK = 1024
# numpy's SeedSequence: a pool of 4 words and its hash and mix constants
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715


def _hash_constants(init: int, mult: int, count: int) -> np.ndarray:
    """init, then count more constants, each the last times mult: a column."""
    out = [init]
    for _ in range(count):
        out.append(out[-1] * mult & _MASK32)
    return np.array(out, dtype=np.uint32)[:, None]


# hash i xors constant i and multiplies by constant i + 1: A hashes the 4
# pool words, then 3 words per cross-mixing source; B makes the 8 uint32
# words of the 4 uint64 outputs
_HASH_A = _hash_constants(_INIT_A, _MULT_A, 16)
_HASH_B = _hash_constants(_INIT_B, _MULT_B, 8)


def _hash(x: np.ndarray, constants: np.ndarray) -> np.ndarray:
    """numpy's SeedSequence hash of x with the given run of hash constants,
    one row per constant but the last; uint32 products wrap as in C."""
    x = (x ^ constants[:-1]) * constants[1:]
    x ^= x >> 16
    return x


@lru_cache(maxsize=64)
def _stream_states(seed: int, block: int) -> np.ndarray:
    """`SeedSequence((seed, s)).generate_state(4, np.uint64)` of every stream s
    in [1024 block, 1024 (block + 1)), one row per stream; seed and every s in
    [0, 2^64).

    numpy's algorithm run elementwise on uint32 arrays.  Its entropy is the
    seed's 32-bit words (one word for seeds below 2^32, 0 included), then the
    stream's low and high words; a high word of 0 hashes as the missing word
    it stands for.  That is at most 4 words, the pool's size, so the pool is
    hashed once and cross-mixed once, with no extra rounds.  A source's three
    mixes into the other words do not depend on one another, so each source
    is one pass over a 3-row array.
    """
    first = block * _STREAM_BLOCK
    seed_words = [seed & _MASK32] + ([seed >> 32] if seed >> 32 else [])
    pool = np.zeros((4, _STREAM_BLOCK), dtype=np.uint32)
    pool[: len(seed_words)] = np.array(seed_words, dtype=np.uint32)[:, None]
    pool[len(seed_words)] = np.arange(_STREAM_BLOCK, dtype=np.uint32) + np.uint32(first & _MASK32)
    pool[len(seed_words) + 1] = first >> 32  # a block never crosses 2^32
    pool = _hash(pool, _HASH_A[:5])
    for src in range(4):
        dst = [d for d in range(4) if d != src]
        hashed = _hash(pool[src], _HASH_A[4 + 3 * src : 8 + 3 * src])
        mixed = _MIX_MULT_L * pool[dst] - _MIX_MULT_R * hashed
        mixed ^= mixed >> 16
        pool[dst] = mixed
    words = np.ascontiguousarray(_hash(pool[[0, 1, 2, 3, 0, 1, 2, 3]], _HASH_B).T, dtype="<u4")
    words = words.view("<u8").astype(np.uint64)
    words.setflags(write=False)  # cached: every source of the block shares it
    return words


class _SeedWords(ISeedSequence):
    """Seed words already derived: PCG64 asks for its 4 uint64 words and gets them."""

    __slots__ = ("words",)

    def __init__(self, words: np.ndarray):
        self.words = words

    def generate_state(self, n_words, dtype=np.uint32):
        return self.words


class RandomSource:
    """Buffered uniform/integer source with reproducible (seed, stream) identity."""

    __slots__ = ("seed", "stream", "_gen", "_buf", "_pos")

    def __init__(self, seed: int, stream: int = 0):
        self.seed = int(seed)
        self.stream = int(stream)
        if 0 <= self.stream <= _MASK64:
            block, row = divmod(self.stream, _STREAM_BLOCK)
            ss = _SeedWords(_stream_states(self.seed & _MASK64, block)[row])
        else:  # numpy raises ValueError for a negative stream
            ss = np.random.SeedSequence((self.seed & _MASK64, self.stream))
        self._gen = np.random.Generator(np.random.PCG64(ss))
        self._buf: list[float] = []
        self._pos = 0

    def uniform(self) -> float:
        """One double in [0, 1)."""
        pos = self._pos
        self._pos = pos + 1
        try:
            return self._buf[pos]
        except IndexError:  # the block is used up: refill it
            size = min(max(2 * len(self._buf), _FIRST_BLOCK), _MAX_BLOCK)
            self._buf = self._gen.random(size).tolist()
            self._pos = 1
            return self._buf[0]

    def uniforms(self, k: int) -> np.ndarray:
        """k doubles in [0, 1): the rest of the block, then fresh draws."""
        pos = self._pos
        head = self._buf[pos : pos + k]
        self._pos = pos + len(head)
        if len(head) == k:
            return np.array(head, dtype=float)
        return np.concatenate([head, self._gen.random(k - len(head))])

    def unread(self, values) -> None:
        """Put back draws taken and not used, in the order they were drawn:
        the next `uniform()` or `uniforms(k)` returns them first."""
        self._buf = np.asarray(values, dtype=float).tolist() + self._buf[self._pos:]
        self._pos = 0

    def below(self, n: int) -> int:
        """Uniform integer in [0, n)."""
        return int(self.uniform() * n)


class AliasTable:
    """Vose alias method: O(n) build, O(1) weighted index sampling.

    Zero-weight entries are never returned.  See Walker (1977) and the
    formulation popularized by Vose (1991).
    """

    __slots__ = ("size", "prob", "alias", "positive")

    def __init__(self, weights):
        w = [float(x) for x in weights]
        n = len(w)
        if n == 0:
            raise ValueError("empty weight vector")
        if any(x < 0 for x in w):
            raise ValueError("negative weight")
        total = sum(w)
        # a NaN or infinite weight, or finite ones that overflow, make it NaN or inf
        if not isfinite(total):
            raise ValueError("weights must be finite, with a finite sum")
        if total <= 0:
            raise DegenerateSequenceError("all weights zero; pairs need two positive weights")
        self.size = n
        self.positive = n - w.count(0.0)
        scaled = [x * n / total for x in w]
        self.prob = [0.0] * n
        self.alias = [0] * n
        small = [i for i, p in enumerate(scaled) if p < 1.0]
        large = [i for i, p in enumerate(scaled) if p >= 1.0]
        while small and large:
            s = small.pop()
            g = large.pop()
            self.prob[s] = scaled[s]
            self.alias[s] = g
            scaled[g] = (scaled[g] + scaled[s]) - 1.0
            if scaled[g] < 1.0:
                small.append(g)
            else:
                large.append(g)
        for q in (large, small):
            for g in q:
                self.prob[g] = 1.0
                self.alias[g] = g

    def sample(self, rng: RandomSource) -> int:
        i = int(rng.uniform() * self.size)
        if rng.uniform() < self.prob[i]:
            return i
        return self.alias[i]

    def sample_pair(self, rng: RandomSource) -> tuple[int, int]:
        """Distinct indices (j, k), j < k, with probability exactly proportional
        to w_j w_k: two independent draws (each as `sample`), redrawn while
        equal.  Needs at least two positive weights: without them the first
        redraw raises DegenerateSequenceError."""
        uniform, size, prob, alias = rng.uniform, self.size, self.prob, self.alias
        while True:
            j = int(uniform() * size)
            if uniform() >= prob[j]:
                j = alias[j]
            k = int(uniform() * size)
            if uniform() >= prob[k]:
                k = alias[k]
            if j != k:
                return (j, k) if j < k else (k, j)
            self.require_pairs()

    def require_pairs(self) -> None:
        """Raise DegenerateSequenceError unless two indices can be drawn distinct:
        the one check, for every caller that draws pairs, of a degree sequence
        with fewer than two positive degrees."""
        if self.positive < 2:
            raise DegenerateSequenceError("pair draws need at least two positive weights")


@lru_cache(maxsize=8)
def alias_table(weights: tuple[float, ...]) -> AliasTable:
    """`AliasTable(weights)`, built once per distinct tuple of weights: a run
    draws from one degree sequence's table on every replica."""
    return AliasTable(weights)


class CandidateStream:
    """`count` candidate steps (j, k, Lambda_jk, u), byte for byte the draws of
    the step-by-step loop `j, k = table.sample_pair(rng)`, `big_lambda.entry(j,
    k)`, `rng.uniform()`.

    A stream is used once: iterating yields the steps one at a time, and
    `accept_rest` instead takes them with their coins alone.  A step's draws
    do not depend on what the caller does with earlier steps, so streams of
    at least 64 steps are parsed ahead with numpy, a window of at most 4096
    steps per pass; shorter ones, where numpy's cost per call would dominate,
    are drawn step by step.  A pass takes five uniforms per step it still
    owes and puts the draws after its last whole step back with `rng.unread`,
    so the rng is left where the step-by-step loop would leave it.
    `big_lambda` is a `graphs.SymmetricProbMatrix`, whose `entries(j, k)`
    equal its `entry(j, k)` bit for bit.
    """

    __slots__ = ("table", "big_lambda", "rng", "left", "_prob", "_alias")

    def __init__(self, table: AliasTable, big_lambda, count: int, rng: RandomSource):
        table.require_pairs()
        self.table, self.big_lambda, self.rng = table, big_lambda, rng
        self.left = count  # steps not yet drawn
        self._prob = None
        if count >= _STREAM_BLOCK_MIN:
            self._prob = np.array(table.prob)
            self._alias = np.array(table.alias, dtype=np.intp)

    def __iter__(self) -> Iterator[tuple[int, int, float, float]]:
        # the stream does not hold its iterator: no reference cycle outlives the loop
        return self._scalar_steps() if self._prob is None else self._block_steps()

    def accept_rest(self, edges: set[int]) -> None:
        """Add the key j*n + k of every step whose coin u is below Lambda_jk to
        `edges`; the stream is then used up."""
        n = self.big_lambda.n
        if self._prob is None:
            edges.update([j * n + k for j, k, lam, u in self._scalar_steps() if u < lam])
            return
        while self.left:
            j, k, lam, u = self._parse()
            edges.update((j * n + k)[u < lam].tolist())

    def _scalar_steps(self) -> Iterator[tuple[int, int, float, float]]:
        rng, sample_pair, entry = self.rng, self.table.sample_pair, self.big_lambda.entry
        uniform = rng.uniform
        while self.left:
            self.left -= 1
            j, k = sample_pair(rng)
            yield j, k, entry(j, k), uniform()

    def _block_steps(self) -> Iterator[tuple[int, int, float, float]]:
        while self.left:
            j, k, lam, u = self._parse()
            yield from zip(j.tolist(), k.tolist(), lam.tolist(), u.tolist())

    def _parse(self) -> tuple[np.ndarray, ...]:
        """The next steps, at most one window: (j, k, Lambda_jk, u) as arrays, j < k."""
        buf = self.rng.uniforms(5 * min(self.left, _STREAM_WINDOW))
        # x[p]: the index one alias draw makes from buf[p], buf[p + 1]
        idx = (buf[:-1] * self.table.size).astype(np.intp)
        x = np.where(buf[1:] >= self._prob[idx], self._alias[idx], idx)
        # an attempt at p draws j = x[p], k = x[p + 2] and a step's coin is
        # buf[p + 4]: accepted attempts advance 5, redrawn ones (j == k) 4.
        # Walk the attempts from 0, jumping from one redrawn attempt to the next
        starts, p = [], 0
        for q in np.flatnonzero(x[:-2] == x[2:]).tolist():
            if q >= p and (q - p) % 5 == 0:
                starts.append(np.arange(p, q, 5))
                p = q + 4
        end = p + 5 * ((len(buf) - p) // 5)
        starts.append(np.arange(p, end, 5))
        at = np.concatenate(starts)
        self.rng.unread(buf[end:])
        self.left -= len(at)
        j, k = x[at], x[at + 2]
        lo, hi = np.minimum(j, k), np.maximum(j, k)
        return lo, hi, self.big_lambda.entries(lo, hi), buf[at + 4]


def check_poisson_mean(mean: float, name: str = "mean") -> None:
    """Raise ValueError, naming the value `name`, unless `sample_poisson` takes this mean."""
    if not 0 <= mean <= _POISSON_MEAN_MAX:
        raise ValueError(f"{name} must be finite, >= 0 and at most {_POISSON_MEAN_MAX:.4g}, "
                         f"got {mean}")


def sample_poisson(mean: float, rng: RandomSource) -> int:
    """Exact Poisson draw.

    Uses product-of-uniforms inversion below mean 30 and Hormann's PTRS
    transformed-rejection method above; both sample the exact law, never a
    normal approximation.
    """
    check_poisson_mean(mean)
    if mean == 0:
        return 0
    if mean < 30.0:
        limit = exp(-mean)
        k = 0
        p = 1.0
        while True:
            p *= rng.uniform()
            if p <= limit:
                return k
            k += 1
    return _poisson_ptrs(mean, rng)


def _poisson_ptrs(lam: float, rng: RandomSource) -> int:
    # W. Hormann, "The transformed rejection method for generating Poisson
    # random variables" (1993), algorithm PTRS.
    b = 0.931 + 2.53 * sqrt(lam)
    a = -0.059 + 0.02483 * b
    inv_alpha = 1.1239 + 1.1328 / (b - 3.4)
    v_r = 0.9277 - 3.6224 / (b - 2.0)
    log_lam = log(lam)
    while True:
        u = rng.uniform() - 0.5
        v = rng.uniform()
        us = 0.5 - abs(u)
        k = floor((2.0 * a / us + b) * u + lam + 0.43)
        if us >= 0.07 and v <= v_r:
            return int(k)
        if k < 0 or (us < 0.013 and v > us):
            continue
        if log(v) + log(inv_alpha) - log(a / (us * us) + b) <= (
            k * log_lam - lam - lgamma(k + 1.0)
        ):
            return int(k)
