"""Degree-sequence generators for experiments.

Three families: exact regular sequences, i.i.d. truncated power-law draws,
and regular sequences with a fixed fraction of entries perturbed downward.
Every generator returns an even-sum sequence; when the raw sum is odd one
entry is decremented and the adjustment is reported so experiment metadata
can record it.
"""
from __future__ import annotations

import re
from dataclasses import dataclass

import numpy as np

from .graphs import DegreeSequence
from .randomness import RandomSource

_SPEC_RE = re.compile(r"^\s*([a-z-]+)\s*\(([^)]*)\)\s*$")
# the fewest and the most arguments each generator kind takes
_ARITY = {"regular": (2, 2), "powerlaw": (4, 4), "perturbed-regular": (3, 4)}


@dataclass(frozen=True)
class GeneratedSequence:
    degrees: DegreeSequence
    even_sum_adjusted: bool


def regular_sequence(n: int, d: int) -> GeneratedSequence:
    if not 0 <= d < n:
        raise ValueError(f"need 0 <= d < n, got d={d}, n={n}")
    degrees = [d] * n
    adjusted = _adjust_last_positive(degrees)
    return GeneratedSequence(DegreeSequence(tuple(degrees)), adjusted)


def powerlaw_sequence(
    n: int, exponent: float, d_min: int, d_max: int, rng: RandomSource
) -> GeneratedSequence:
    """i.i.d. draws from p(k) proportional to k^(-exponent) on [d_min, d_max]."""
    if not 1 < exponent < np.inf:
        raise ValueError(f"exponent must be a finite number above 1, got {exponent!r}")
    if not 1 <= d_min <= d_max < n:
        raise ValueError(f"need 1 <= d_min <= d_max < n, got [{d_min}, {d_max}], n={n}")
    support = np.arange(d_min, d_max + 1, dtype=float)
    weights = support ** (-exponent)
    if not weights.any():
        raise ValueError(f"exponent {exponent!r} puts every weight on [{d_min}, {d_max}] "
                         "below the smallest float")
    cdf = np.cumsum(weights / weights.sum())
    u = rng.uniforms(n)
    draws = d_min + np.searchsorted(cdf, u, side="right")
    degrees = [int(x) for x in np.minimum(draws, d_max)]
    adjusted = _adjust_last_positive(degrees)
    return GeneratedSequence(DegreeSequence(tuple(degrees)), adjusted)


def perturbed_regular_sequence(
    n: int, d: int, fraction: float, rng: RandomSource
) -> GeneratedSequence:
    """Regular sequence with exactly floor(fraction*n) entries pushed strictly below d.

    The even-sum fix stays inside the perturbed positions so the count of
    entries below d is preserved exactly.
    """
    if not 1 <= d < n:
        raise ValueError(f"need 1 <= d < n, got d={d}, n={n}")
    if not 0.0 <= fraction <= 1.0:
        raise ValueError("fraction must lie in [0, 1]")
    k = int(fraction * n)
    if k > 0 and d < 2:
        raise ValueError("cannot perturb below d=1")
    degrees = [d] * n
    positions = _sample_distinct(n, k, rng)
    for pos in positions:
        degrees[pos] = 1 + rng.below(d - 1)  # uniform in [1, d-1]
    adjusted = False
    if sum(degrees) % 2 != 0:
        adjusted = True
        target = None
        for pos in sorted(positions, reverse=True):
            if degrees[pos] >= 2:
                target = pos
                break
        if target is None:
            target = max(positions)  # all perturbed entries are 1; one drops to 0
        degrees[target] -= 1
    return GeneratedSequence(DegreeSequence(tuple(degrees)), adjusted)


def _sample_distinct(n: int, k: int, rng: RandomSource) -> list[int]:
    # partial Fisher-Yates over 0..n-1
    pool = list(range(n))
    for i in range(k):
        j = i + rng.below(n - i)
        pool[i], pool[j] = pool[j], pool[i]
    return pool[:k]


def _adjust_last_positive(degrees: list[int]) -> bool:
    if sum(degrees) % 2 == 0:
        return False
    for i in range(len(degrees) - 1, -1, -1):
        if degrees[i] > 0:
            degrees[i] -= 1
            return True
    raise ValueError("cannot even-adjust an all-zero sequence")


def parse_generator_spec(spec: str, seed: int) -> GeneratedSequence:
    """Parse 'regular(n,d)', 'powerlaw(n,exponent,d_min,d_max)', or
    'perturbed-regular(n,d,fraction[,seed])' into a sequence.

    The optional trailing seed in perturbed-regular overrides the ambient
    one so a perturbation pattern can be pinned independently of run seeds.
    """
    m = _SPEC_RE.match(spec)
    if not m:
        raise ValueError(f"unrecognized generator spec: {spec!r}")
    kind, raw_args = m.group(1), m.group(2)
    args = [a.strip() for a in raw_args.split(",")] if raw_args.strip() else []
    if kind not in _ARITY:
        raise ValueError(f"unknown generator kind: {kind!r}")
    lo, hi = _ARITY[kind]
    if not lo <= len(args) <= hi:
        takes = str(lo) if lo == hi else f"{lo} or {hi}"
        raise ValueError(f"{kind} takes {takes} arguments, got {len(args)} in {spec!r}")
    if kind == "regular":
        n, d = (int(a) for a in args)
        return regular_sequence(n, d)
    if kind == "powerlaw":
        n = int(args[0])
        exponent = float(args[1])
        d_min, d_max = int(args[2]), int(args[3])
        return powerlaw_sequence(n, exponent, d_min, d_max, RandomSource(seed, stream=0))
    n, d = int(args[0]), int(args[1])
    fraction = float(args[2])
    use_seed = int(args[3]) if len(args) > 3 else seed
    if not 0 <= use_seed < 2**64:
        raise ValueError(f"seed must be an integer in [0, 2^64), got {use_seed!r}")
    return perturbed_regular_sequence(n, d, fraction, RandomSource(use_seed, stream=0))
