"""Statistical verification engine for the samplers and the coupling.

Every threshold used by the verification suites lives in `THRESHOLDS` so the
false-alarm budget is auditable in one place.  All checks are deterministic
given fixed seeds upstream; nothing here draws randomness.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping, Sequence

import numpy as np

from .coupling import CouplingParams, lower_law
from .graphs import (
    DegreeSequence,
    Edge,
    SimpleGraph,
    SymmetricProbMatrix,
    degree_stats,
    p_matrix,
    key_to_tri,
    tri_to_key,
    tri_size,
)


@dataclass(frozen=True)
class VerifyThresholds:
    """Shared acceptance thresholds.

    p_min: goodness-of-fit tests must exceed this p-value; per-test false
        alarm rate is exactly p_min (1%) for a correct sampler.
    z_max: per-edge marginal z-scores must stay below this; a single
        two-sided Gaussian tail at 4.5 is ~6.8e-6, so even a union over a
        few hundred edges stays below 1e-3.
    sigma: covariance and moment bands use mean +- sigma * sd; at 3 sigma the
        per-quantity false-alarm rate is ~2.7e-3.
    Suites run with fixed seeds, so a pass/fail outcome is reproducible.
    """

    p_min: float = 0.01
    z_max: float = 4.5
    sigma: float = 3.0


THRESHOLDS = VerifyThresholds()

# edge keys counted per numpy call when counting marginals
_KEY_BLOCK = 1 << 16


def indicator_matrix(samples: Sequence[SimpleGraph]) -> np.ndarray:
    """(n_runs, n_pairs) 0/1 matrix of edge indicators."""
    if not samples:
        raise ValueError("no samples")
    n = samples[0].n
    if any(g.n != n for g in samples):
        raise ValueError("samples mix different vertex counts")
    sizes = [g.num_edges for g in samples]
    keys = np.concatenate([g.edges for g in samples])
    out = np.zeros((len(samples), tri_size(n)), dtype=np.float64)
    out[np.repeat(np.arange(len(samples)), sizes), key_to_tri(n, keys)] = 1.0
    return out


def _key_blocks(samples: Iterable[SimpleGraph]) -> Iterator[np.ndarray]:
    """The samples' edge keys, a few graphs' worth at a time: each block is
    cut once it holds `_KEY_BLOCK` keys, so no array grows with the run count."""
    block, size = [], 0
    for g in samples:
        block.append(g.edges)
        size += g.num_edges
        if size >= _KEY_BLOCK:
            yield np.concatenate(block)
            block, size = [], 0
    if block:
        yield np.concatenate(block)


def _pairs_at(n: int, idx: np.ndarray) -> list[Edge]:
    """The pairs (j, k) at flat indices `idx`."""
    return [divmod(key, n) for key in tri_to_key(n, idx).tolist()]


# ---------------------------------------------------------------------------
# Marginals
# ---------------------------------------------------------------------------


@dataclass
class MarginalReport:
    """Per-pair arrays in the flat storage order; z is NaN where the
    reference is 0 or 1."""

    frequency: np.ndarray
    reference: np.ndarray
    z: np.ndarray
    worst_abs_z: float
    n_runs: int
    exact_violations: list[Edge]

    def passed(self) -> bool:
        return not self.exact_violations and self.worst_abs_z < THRESHOLDS.z_max


def empirical_marginals(
    samples: Sequence[SimpleGraph], reference: SymmetricProbMatrix
) -> MarginalReport:
    """Per-edge frequencies with z-scores against a reference law.

    Edges whose reference probability is exactly 0 or 1 are checked for
    exact agreement instead of a z-score.
    """
    if len(samples) < 100:
        raise ValueError("need at least 100 runs for marginal z-scores")
    n = reference.n
    if any(g.n != n for g in samples):
        raise ValueError("samples must all have the reference's vertex count")
    n_runs = len(samples)
    counts = np.zeros(tri_size(n), dtype=np.int64)
    for block in _key_blocks(samples):
        np.add.at(counts, key_to_tri(n, block), 1)
    freq = counts / n_runs
    ref = reference.tri
    interior = (ref > 0.0) & (ref < 1.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        z = np.where(interior, (freq - ref) / np.sqrt(ref * (1.0 - ref) / n_runs), np.nan)
    worst = float(np.abs(z[interior]).max(initial=0.0))
    violations = _pairs_at(n, np.flatnonzero(~interior & (freq != ref)))
    return MarginalReport(freq, ref, z, worst, n_runs, violations)


# ---------------------------------------------------------------------------
# Goodness of fit
# ---------------------------------------------------------------------------


@dataclass
class GofReport:
    categories: int
    statistic: float
    p_value: float
    n_runs: int

    def passed(self) -> bool:
        return self.p_value > THRESHOLDS.p_min


def pearson_chi_square(observed: Sequence[int], probabilities: Sequence[float]) -> GofReport:
    """Pearson test of observed counts against category probabilities.

    Categories whose expected count falls below 5 are merged,
    smallest first, to keep the chi-square approximation valid.  The p-value
    comes from the regularized incomplete gamma function.
    """
    obs = [int(c) for c in observed]
    probs = [float(p) for p in probabilities]
    if len(obs) != len(probs):
        raise ValueError("length mismatch")
    if not all(0.0 < p < np.inf for p in probs):
        raise ValueError("category probabilities must be finite and positive")
    total_p = sum(probs)
    if abs(total_p - 1.0) > 1e-9:
        raise ValueError("probabilities must sum to 1")
    n = sum(obs)
    if n == 0 or min(obs) < 0:
        raise ValueError("counts must be non-negative with a positive total")
    if len(obs) == 1:
        # point-mass law: anything in support fits perfectly
        return GofReport(1, 0.0, 1.0, n)
    cells = sorted(zip(probs, obs))
    while len(cells) > 2 and cells[0][0] * n < 5.0:
        p0, o0 = cells.pop(0)
        p1, o1 = cells.pop(0)
        cells.append((p0 + p1, o0 + o1))
        cells.sort()
    stat = 0.0
    for p, o in cells:
        exp = p * n
        stat += (o - exp) ** 2 / exp
    dof = len(cells) - 1
    # imported here: scipy.special costs about 0.4 s and 18 MB, which no
    # sampler needs
    from scipy.special import gammaincc

    p_value = float(gammaincc(dof / 2.0, stat / 2.0))
    return GofReport(len(cells), stat, p_value, n)


def chi_square_gof(
    samples: Sequence[SimpleGraph], law: Mapping[SimpleGraph, float]
) -> GofReport:
    """Test sampled graphs against an exact reference law.

    A sample outside the support of the law is an error: it is itself a
    correctness failure of the sampler under test.
    """
    # edge keys sort as their (j, k) pairs do, so graphs order by their pair lists
    keys = sorted(law, key=lambda g: g.edges.tolist())
    index = {g: i for i, g in enumerate(keys)}
    counts = [0] * len(keys)
    for g in samples:
        i = index.get(g)
        if i is None or law[keys[i]] <= 0.0:
            raise ValueError(
                f"sample with edges {g.pairs()} lies outside the reference support"
            )
        counts[i] += 1
    return pearson_chi_square(counts, [law[g] for g in keys])


# ---------------------------------------------------------------------------
# Pairwise covariance (independence surrogate)
# ---------------------------------------------------------------------------


@dataclass
class CovarianceReport:
    edges: list[Edge]
    covariance: np.ndarray
    band: np.ndarray
    violations: list[tuple[Edge, Edge, float, float]]
    n_runs: int

    def passed(self) -> bool:
        return not self.violations


def pairwise_covariance(samples: Sequence[SimpleGraph]) -> CovarianceReport:
    """Empirical covariance of edge indicators for every pair of distinct edges.

    Bands are sigma * sqrt(p_e p_f (1-p_e)(1-p_f) / n): the null standard
    deviation of the empirical covariance under independent indicators.
    """
    if len(samples) < 10_000:
        raise ValueError("need at least 1e4 runs for covariance bands")
    x = indicator_matrix(samples)
    n_runs, n_pairs = x.shape
    p = x.mean(axis=0)
    cov = (x.T @ x) / n_runs - np.outer(p, p)
    var = p * (1.0 - p)
    band = THRESHOLDS.sigma * np.sqrt(np.outer(var, var) / n_runs)
    n = samples[0].n
    # upper-triangle positions come out row by row, so (a, b) ascend as pairs do
    a, b = np.nonzero(np.triu(np.abs(cov) > band, k=1))
    violations = list(zip(
        _pairs_at(n, a), _pairs_at(n, b), cov[a, b].tolist(), band[a, b].tolist()
    ))
    return CovarianceReport(_pairs_at(n, np.arange(n_pairs)), cov, band, violations, n_runs)


# ---------------------------------------------------------------------------
# Containment and concentration
# ---------------------------------------------------------------------------


def subgraph_check(
    pairs: Iterable[tuple[SimpleGraph, SimpleGraph]]
) -> tuple[int, list[tuple[int, Edge]]]:
    """Count pairs with first contained in second; list violations with a witness."""
    contained = 0
    violations: list[tuple[int, Edge]] = []
    for i, (lo, hi) in enumerate(pairs):
        if lo.n != hi.n:
            raise ValueError(f"pair {i}: vertex counts differ")
        if lo.is_subgraph_of(hi):
            contained += 1
        else:
            # the smallest key missing from hi is the smallest such (j, k) pair
            extra = np.setdiff1d(lo.edges, hi.edges, assume_unique=True)
            violations.append((i, divmod(int(extra[0]), lo.n)))
    return contained, violations


@dataclass
class CheckpointBand:
    m: int
    p_m: float
    violating_fraction: float
    worst_rel_dev: float


@dataclass
class ConcentrationReport:
    xi: float
    bands: list[CheckpointBand]


def degree_concentration_check(
    d: DegreeSequence | Sequence[int],
    checkpoints: Sequence[tuple[int, SimpleGraph]],
    xi: float,
) -> ConcentrationReport:
    """How often remaining degrees leave the band |t_j - p_m d_j| <= xi p_m d_j.

    A soft diagnostic: the underlying concentration statement carries
    unspecified constants, so callers choose their own tolerance on the
    violating fraction.
    """
    d = DegreeSequence.of(d)
    total = d.total
    target = np.array(d.degrees, dtype=np.int64)
    bands = []
    for m, g in checkpoints:
        if g.n != d.n:
            raise ValueError("checkpoint graph size mismatch")
        p_m = (total - 2 * m) / total if total else 0.0
        center = p_m * target
        # |t_j - p_m d_j|, with t_j = d_j - deg_j taken in integers
        dev = np.abs(target - np.array(g.degree_vector(), dtype=np.int64) - center)
        positive = center > 0
        worst = float(np.max(dev[positive] / center[positive], initial=0.0))
        violations = int(np.count_nonzero(dev > xi * center))
        bands.append(CheckpointBand(m, p_m, violations / d.n, worst))
    return ConcentrationReport(xi, bands)


# ---------------------------------------------------------------------------
# Closed-form law comparison
# ---------------------------------------------------------------------------


@dataclass
class WComparisonReport:
    max_rel_error: float
    mean_rel_error: float
    driver: float


def compare_w_to_fcp(
    d: DegreeSequence | Sequence[int], params: CouplingParams
) -> WComparisonReport:
    """Entrywise relative gap between the coupled lower law and 1 - exp(-P).

    Compares 1 - exp(-lam * Lambda_jk * Q_jk) against 1 - exp(-P_jk) over
    pairs with positive degree product, and reports the first-order driver
    zeta + zeta' + max_degree/||d||_1 alongside.
    """
    d = DegreeSequence.of(d)
    lhs = lower_law(d, params.big_lambda, params.lam).tri
    rhs = -np.expm1(-p_matrix(d).tri)
    mask = rhs > 0
    if not mask.any():
        raise ValueError("degenerate sequence: no positive-probability pair")
    rel = np.abs(lhs[mask] - rhs[mask]) / rhs[mask]
    stats = degree_stats(d)
    driver = params.zeta + params.zeta_prime + stats.max / stats.total
    return WComparisonReport(float(rel.max()), float(rel.mean()), float(driver))
