"""Seeded randomness primitives shared by all samplers.

A RandomSource is a (seed, stream) pair over PCG64; identical pairs replay
identical draw sequences on every platform.  Uniforms are served from a block
of Python floats, filled lazily: 64 on the first draw, then doubling up to
8192.  PCG64 doubles do not depend on how they are blocked, so the stream is
the same whatever the block sizes.  Hot loops bind `rng.uniform` to a local
but never read the block, so a subclass overriding `uniform` sees every draw.
"""
from __future__ import annotations

from math import exp, floor, lgamma, log, sqrt

import numpy as np

_FIRST_BLOCK = 64
_MAX_BLOCK = 8192


class RandomSource:
    """Buffered uniform/integer source with reproducible (seed, stream) identity."""

    __slots__ = ("seed", "stream", "_gen", "_buf", "_pos")

    def __init__(self, seed: int, stream: int = 0):
        self.seed = int(seed)
        self.stream = int(stream)
        ss = np.random.SeedSequence((self.seed & 0xFFFFFFFFFFFFFFFF, self.stream))
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

    def below(self, n: int) -> int:
        """Uniform integer in [0, n)."""
        return int(self.uniform() * n)


class AliasTable:
    """Vose alias method: O(n) build, O(1) weighted index sampling.

    Zero-weight entries are never returned.  See Walker (1977) and the
    formulation popularized by Vose (1991).
    """

    __slots__ = ("size", "prob", "alias")

    def __init__(self, weights):
        w = [float(x) for x in weights]
        n = len(w)
        if n == 0:
            raise ValueError("empty weight vector")
        if any(x < 0 for x in w):
            raise ValueError("negative weight")
        total = sum(w)
        if total <= 0:
            raise ValueError("all weights zero")
        self.size = n
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
        equal.  Needs at least two positive weights."""
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

    def exact_probability(self, i: int) -> float:
        """Reconstruct P(sample() == i) from the table itself (for validation)."""
        p = self.prob[i]
        for j in range(self.size):
            if self.alias[j] == i and j != i:
                p += 1.0 - self.prob[j]
        return p / self.size


def sample_poisson(mean: float, rng: RandomSource) -> int:
    """Exact Poisson draw.

    Uses product-of-uniforms inversion below mean 30 and Hormann's PTRS
    transformed-rejection method above; both sample the exact law, never a
    normal approximation.
    """
    if mean < 0:
        raise ValueError("mean must be >= 0")
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
