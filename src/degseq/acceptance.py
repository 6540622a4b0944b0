"""Fixed-seed acceptance battery.

Each criterion is a self-contained function returning a CriterionResult; the
battery is shared by the test suite and the `verify-suite` CLI command.  All
statistical bands use the shared thresholds and fixed seeds, so outcomes are
reproducible bit for bit.
"""
from __future__ import annotations

import time
from dataclasses import dataclass
from math import ceil, expm1, log, log10
from typing import Callable, Sequence

from .coupling import (
    EtaDenominatorMode,
    default_params,
    lower_law,
    run_coupling,
)
from .deggen import powerlaw_sequence, regular_sequence
from .graphs import (
    DegreeSequence,
    SymmetricProbMatrix,
    degree_stats,
    is_graphical,
    tri_index,
)
from .oracle import (
    edge_counts,
    enumerate_graphs,
    exact_subgraph_law,
    raw_scan_masks,
)
from .randomness import RandomSource
from .samplers import SeqSampleMode, seq_approx_p, seq_sample_d
from .stats import (
    THRESHOLDS,
    chi_square_gof,
    compare_w_to_fcp,
    empirical_marginals,
    pairwise_covariance,
    subgraph_check,
)


@dataclass
class CriterionResult:
    name: str
    passed: bool
    runtime_s: float
    details: str

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"{status}  {self.name}  [{self.runtime_s:.1f}s]  {self.details}"


def _timed(fn: Callable[[], tuple[bool, str]], name: str, budget_s: float) -> CriterionResult:
    start = time.perf_counter()
    passed, details = fn()
    elapsed = time.perf_counter() - start
    if elapsed >= budget_s:
        passed = False
        details += f"; runtime {elapsed:.1f}s exceeded budget {budget_s:.0f}s"
    return CriterionResult(name, passed, elapsed, details)


# -- C1: Poissonized sampler has the exact independent-edge law --------------

C1_SEED = 11_01
C1_RUNS = 200_000


def criterion_c1() -> CriterionResult:
    def body() -> tuple[bool, str]:
        # three mutually weighted vertices plus one isolated vertex: the three
        # live pairs share Q = 1/3 while pairs at the isolated vertex must
        # never appear; 6 edges give all 15 covariance pairs
        d = DegreeSequence((2, 2, 2, 0))
        lam = 2.4
        big_lambda = SymmetricProbMatrix.full(4, 0.54)
        samples = [
            seq_approx_p(d, lam, big_lambda, RandomSource(C1_SEED, s))
            for s in range(C1_RUNS)
        ]
        w_ref = lower_law(d, big_lambda, lam)
        marg = empirical_marginals(samples, w_ref)
        cov = pairwise_covariance(samples)
        ok = marg.passed() and cov.passed()
        live = -expm1(-lam * 0.54 / 3.0)
        return ok, (
            f"marginal ref {live:.5f}, worst |z|={marg.worst_abs_z:.2f} "
            f"(<{THRESHOLDS.z_max}), exact-zero violations={len(marg.exact_violations)}, "
            f"covariance violations={len(cov.violations)}/15"
        )

    return _timed(body, "C1 sequential independent-edge law", 30.0)


# -- C2: sequential degree-sequence sampler is exactly uniform ---------------

C2_SEED = 22_02
C2_RUNS = 30_000


def criterion_c2() -> CriterionResult:
    def body() -> tuple[bool, str]:
        bits = []
        for degrees in [(2, 2, 2, 2), (1, 1, 1, 1)]:
            fam = enumerate_graphs(degrees)
            law = {g: 1.0 / len(fam) for g in fam.members}
            samples = [
                seq_sample_d(degrees, SeqSampleMode.EXACT_ORACLE, RandomSource(C2_SEED, s))[0]
                for s in range(C2_RUNS)
            ]
            gof = chi_square_gof(samples, law)
            bits.append(f"{degrees}: p={gof.p_value:.4f}")
            if not gof.passed():
                return False, "; ".join(bits)
        return True, "; ".join(bits)

    return _timed(body, "C2 uniformity of the sequential degree sampler", 60.0)


# -- C3: partial graphs follow the exact m-edge subgraph law -----------------

C3_SEED = 33_03
C3_RUNS = 30_000


def criterion_c3() -> CriterionResult:
    def body() -> tuple[bool, str]:
        degrees = (2, 2, 2, 2)
        snaps_by_m: dict[int, list] = {1: [], 2: []}
        for s in range(C3_RUNS):
            _, snaps = seq_sample_d(
                degrees, SeqSampleMode.EXACT_ORACLE, RandomSource(C3_SEED, s), checkpoints=(1, 2)
            )
            snaps_by_m[1].append(snaps[0])
            snaps_by_m[2].append(snaps[1])
        bits = []
        ok = True
        for m in (1, 2):
            law = exact_subgraph_law(degrees, m)
            gof = chi_square_gof(snaps_by_m[m], law)
            bits.append(f"m={m}: p={gof.p_value:.4f} over {gof.categories} cats")
            ok = ok and gof.passed()
        return ok, "; ".join(bits)

    return _timed(body, "C3 exact m-edge checkpoint law", 60.0)


# -- C4: coupled pair keeps both laws and containment ------------------------

C4_SEED = 44_04
C4_RUNS = 30_000


def criterion_c4() -> CriterionResult:
    def body() -> tuple[bool, str]:
        degrees = (2, 2, 2, 2)
        params = default_params(degrees, zeta=0.1, zeta_prime=0.1)
        fam = enumerate_graphs(degrees)
        law = {g: 1.0 / len(fam) for g in fam.members}
        lowers, uppers, kept_pairs = [], [], []
        fallbacks = 0
        for s in range(C4_RUNS):
            g_l, g, tr = run_coupling(
                degrees,
                params,
                SeqSampleMode.EXACT_ORACLE,
                EtaDenominatorMode.EXACT_MAX,
                RandomSource(C4_SEED, s),
            )
            lowers.append(g_l)
            uppers.append(g)
            if tr.fallback:
                fallbacks += 1
            else:
                kept_pairs.append((g_l, g))
        w_ref = lower_law(degrees, params.big_lambda, params.lam)
        marg = empirical_marginals(lowers, w_ref)           # includes fallback runs
        gof = chi_square_gof(uppers, law)
        contained, violations = subgraph_check(kept_pairs)
        ok = marg.passed() and gof.passed() and not violations
        return ok, (
            f"(a) lower-law worst |z|={marg.worst_abs_z:.2f}; "
            f"(b) upper-law p={gof.p_value:.4f}; "
            f"(c) containment {contained}/{len(kept_pairs)} non-fallback runs, "
            f"{len(violations)} violations; fallback fraction {fallbacks / C4_RUNS:.3f}"
        )

    return _timed(body, "C4 coupled-pair laws and containment", 120.0)


# -- C5: fallback-rate trend at growing scale --------------------------------

C5_SEED = 55_05
C5_RUNS_PER_N = 20
C5_SIZES = (500, 1000, 2000)


def criterion_c5() -> CriterionResult:
    def body() -> tuple[bool, str]:
        fractions = []
        all_contained = True
        for n in C5_SIZES:
            deg = ceil(log(n) ** 2)
            gen = regular_sequence(n, deg)
            assert is_graphical(gen.degrees)
            params = default_params(gen.degrees)
            fb = 0
            pairs = []
            for run in range(C5_RUNS_PER_N):
                g_l, g, tr = run_coupling(
                    gen.degrees,
                    params,
                    SeqSampleMode.ASYMPTOTIC,
                    EtaDenominatorMode.CERTIFIED_BOUND,
                    RandomSource(C5_SEED + n, run),
                )
                if tr.fallback:
                    fb += 1
                else:
                    pairs.append((g_l, g))
            _, violations = subgraph_check(pairs)
            all_contained = all_contained and not violations
            fractions.append(fb / C5_RUNS_PER_N)
        non_increasing = all(a >= b for a, b in zip(fractions, fractions[1:]))
        ok = non_increasing and fractions[-1] <= 0.25 and all_contained
        return ok, (
            f"fallback fractions {dict(zip(C5_SIZES, fractions))}, "
            f"non-increasing={non_increasing}, last<=0.25={fractions[-1] <= 0.25}, "
            f"containment clean={all_contained}"
        )

    return _timed(body, "C5 fallback-rate trend over n", 600.0)


# -- C6: closed-form lower law tracks 1 - exp(-P) -----------------------------


def criterion_c6() -> CriterionResult:
    def body() -> tuple[bool, str]:
        gen = regular_sequence(2000, 50)
        params = default_params(gen.degrees)
        report = compare_w_to_fcp(gen.degrees, params)
        bound = params.zeta + params.zeta_prime + 0.05
        ok = report.max_rel_error < bound
        return ok, (
            f"max rel err {report.max_rel_error:.4f} < bound {bound:.4f} "
            f"(zeta={params.zeta:.3f}, zeta'={params.zeta_prime:.3f})"
        )

    return _timed(body, "C6 closed-form marginal closeness", 1.0)


# -- C7: the two enumerators agree; marginal row sums are exact ---------------


def criterion_c7() -> CriterionResult:
    def body() -> tuple[bool, str]:
        checked = graphical = 0
        for n in range(1, 7):
            top = min(3, n - 1)
            for degrees in _all_tuples(n, top):
                expected = sorted(raw_scan_masks(degrees))
                fam = enumerate_graphs(degrees)
                checked += 1
                if list(fam.masks) != expected:
                    return False, f"enumeration mismatch at {degrees}"
                if bool(expected) != is_graphical(degrees):
                    return False, f"graphicality mismatch at {degrees}"
                if expected:
                    graphical += 1
                    counts = edge_counts(fam)
                    for j in range(n):
                        row = sum(
                            counts[tri_index(n, min(j, k), max(j, k))]
                            for k in range(n)
                            if k != j
                        )
                        if row != len(fam) * degrees[j]:
                            return False, f"row-sum mismatch at {degrees}, vertex {j}"
        return True, f"{checked} sequences checked, {graphical} graphical, all consistent"

    return _timed(body, "C7 oracle self-consistency", 120.0)


def _all_tuples(n: int, top: int):
    if top < 0:
        yield (0,) * n
        return
    stack = [()]
    while stack:
        prefix = stack.pop()
        if len(prefix) == n:
            yield prefix
            continue
        for v in range(top, -1, -1):
            stack.append(prefix + (v,))


# -- C8: heavy-tailed smoke run ------------------------------------------------

C8_SEED = 88_08
C8_RUNS = 5


def criterion_c8() -> CriterionResult:
    def body() -> tuple[bool, str]:
        n = 1000
        d_min = ceil(log10(n)) * 3
        d_max = ceil(n ** 0.4)
        gen = powerlaw_sequence(n, 2.5, d_min, d_max, RandomSource(C8_SEED, 0))
        stats = degree_stats(gen.degrees)
        ratio = stats.top_sum / stats.total
        if not is_graphical(gen.degrees):
            return False, "generated sequence not graphical"
        if ratio >= 0.3:
            return False, f"top-degree mass ratio {ratio:.3f} >= 0.3"
        params = default_params(gen.degrees)
        fb = 0
        for run in range(C8_RUNS):
            g_l, g, tr = run_coupling(
                gen.degrees,
                params,
                SeqSampleMode.ASYMPTOTIC,
                EtaDenominatorMode.CERTIFIED_BOUND,
                RandomSource(C8_SEED, run + 1),
            )
            if g.degree_vector() != gen.degrees.degrees:
                return False, f"run {run}: output degrees do not match target"
            fb += tr.fallback
        return True, (
            f"support [{d_min},{d_max}], top-mass ratio {ratio:.3f} < 0.3, "
            f"{C8_RUNS} couplings completed, fallback fraction {fb / C8_RUNS:.2f} (reported only)"
        )

    return _timed(body, "C8 heavy-tail smoke", 300.0)


ALL_CRITERIA: Sequence[Callable[[], CriterionResult]] = (
    criterion_c1,
    criterion_c2,
    criterion_c3,
    criterion_c4,
    criterion_c5,
    criterion_c6,
    criterion_c7,
    criterion_c8,
)


def run_battery() -> list[CriterionResult]:
    """Run every criterion in order, printing each result line as it ends."""
    results = []
    for fn in ALL_CRITERIA:
        result = fn()
        print(result.line())
        results.append(result)
    return results
