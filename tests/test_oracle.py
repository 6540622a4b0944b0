from collections import Counter
from math import sqrt

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from degseq import (
    EtaDenominatorMode,
    NonGraphicalError,
    OracleCapError,
    RandomSource,
    SeqSampleMode,
    SimpleGraph,
    default_params,
    enumerate_graphs,
    exact_edge_marginals,
    exact_subgraph_law,
    exact_uniform_sample,
    rho,
    run_coupling,
    seq_sample_d,
)
from degseq import oracle
from degseq.cli import main
from degseq.graphs import DegreeSequence, InvariantError, key_to_tri, tri_pairs
from degseq.oracle import (
    OracleKernel,
    bit_counts,
    bit_rows,
    column_counts,
    edge_counts,
    graph_of_mask,
    mask_of_edges,
    raw_scan_masks,
    set_bits,
)
from degseq.samplers import make_kernel
from degseq.stats import THRESHOLDS, pearson_chi_square
from test_coupling import graphical_degrees
from test_golden import run_case


def exact_kernel(d, state) -> OracleKernel:
    """The exact kernel brought to the edge keys `state` by `make_kernel`."""
    return make_kernel(DegreeSequence.of(d), SeqSampleMode.EXACT_ORACLE, SimpleGraph(len(d), state))


def bin_positions(mask: int) -> list[int]:
    return [i for i, c in enumerate(reversed(bin(mask)[2:])) if c == "1"]


@given(st.integers(0, 2**200))
@example(0)
def test_set_bits_matches_bin(mask):
    assert set_bits(mask) == bin_positions(mask)


@given(st.lists(st.integers(0, 2**70)))
@example([])
@example([0, 0])
def test_bit_counts_matches_bin(masks):
    assert bit_counts(masks) == Counter(i for m in masks for i in bin_positions(m))


@given(st.sampled_from([0, 1, 36, 45, 55, 64]), st.sampled_from([0, 1, 3, 1024, 1025]),
       st.booleans(), st.randoms(use_true_random=False))
@settings(max_examples=60, deadline=None)
def test_bit_rows_match_per_bit_reference(width, rows, top, rnd):
    # every width fits one uint64 word, 64 fills it; 1025 rows cross the
    # seam between two bit matrices
    high = 1 << (width - 1) if top and width else 0
    masks = [rnd.getrandbits(width) | high for _ in range(rows)]
    chunks = list(bit_rows(masks, width))
    assert [len(c) for c in chunks] == [min(oracle.BIT_ROWS_CHUNK, rows - start)
                                        for start in range(0, rows, oracle.BIT_ROWS_CHUNK)]
    assert all(c.dtype == np.uint8 and c.shape[1] == width for c in chunks)
    got = [row.tolist() for c in chunks for row in c]
    assert got == [[(m >> i) & 1 for i in range(width)] for m in masks]


class TestOracleCapVariable:
    """The vertex cap is the constant `DEFAULT_CAP` and a run reads no
    environment, so setting `DEGSEQ_ORACLE_CAP` changes nothing."""

    @pytest.mark.parametrize("value", ["abc", "0", "12"])
    def test_is_ignored(self, monkeypatch, capsys, tmp_path, value):
        # an exact couple enumerates its family in set-up
        couple = ["couple", "--degrees", "regular(6,2)", "--mode", "exact", "--seed", "2",
                  "--runs", "4"]
        unset = run_case(couple, tmp_path / "unset")
        monkeypatch.setenv("DEGSEQ_ORACLE_CAP", value)
        assert run_case(couple, tmp_path / "set") == unset
        capsys.readouterr()
        assert main(["oracle", "--degrees", "regular(12,1)", "--out", str(tmp_path / "o")]) == 3
        err = capsys.readouterr().err
        assert err == "error: n=12 exceeds enumeration cap 10\n"


class TestEnumerateGraphs:
    def test_perfect_matchings_of_k4(self):
        fam = enumerate_graphs((1, 1, 1, 1))
        assert len(fam) == 3
        for g in fam.members:
            assert g.degree_vector() == (1, 1, 1, 1)

    def test_four_cycles(self):
        fam = enumerate_graphs((2, 2, 2, 2))
        assert len(fam) == 3

    def test_five_cycles(self):
        # (5-1)!/2 labeled cycles on 5 vertices
        fam = enumerate_graphs((2, 2, 2, 2, 2))
        assert len(fam) == 12

    def test_members_distinct(self):
        fam = enumerate_graphs((2, 2, 2, 2, 2))
        assert len({g.edges.tobytes() for g in fam.members}) == 12

    def test_non_graphical_empty(self):
        assert len(enumerate_graphs((3, 3, 1, 1))) == 0

    def test_cap_enforced(self):
        with pytest.raises(OracleCapError):
            enumerate_graphs((1,) * 12)

    def test_lowered_cap_refuses(self, monkeypatch):
        # the cap is read at each enumeration, so a family built before
        # is refused too
        enumerate_graphs((1, 1, 1, 1))
        monkeypatch.setattr(oracle, "DEFAULT_CAP", 3)
        with pytest.raises(OracleCapError, match="n=4 exceeds enumeration cap 3"):
            enumerate_graphs((1, 1, 1, 1))

    @given(st.lists(st.integers(0, 3), min_size=2, max_size=5))
    def test_elimination_agrees_with_raw_scan(self, raw):
        n = len(raw)
        d = tuple(min(x, n - 1) for x in raw)
        assert list(enumerate_graphs(d).masks) == sorted(raw_scan_masks(d))

    def test_raw_scan_table_built_once_and_read_only(self):
        raw_scan_masks((2, 2, 2, 2)).clear()
        assert raw_scan_masks((2, 2, 2, 2)) == list(enumerate_graphs((2, 2, 2, 2)).masks)
        masks, deg = oracle._subset_degrees(4)
        assert oracle._subset_degrees(4)[1] is deg
        assert not masks.flags.writeable and not deg.flags.writeable

    def test_family_cap_raised_from_the_count(self, monkeypatch):
        # regular(8,3) has 19355 members: the count alone must refuse it,
        # before the elimination builds a single mask
        monkeypatch.setattr(oracle, "DEFAULT_FAMILY_CAP", 1_000)
        monkeypatch.setattr(oracle, "_cached_family", oracle._cached_family.__wrapped__)
        monkeypatch.setattr(oracle, "_family_masks", refuse_masks)
        with pytest.raises(OracleCapError, match="family of 19355 graphs exceeds cap 1000"):
            enumerate_graphs((3,) * 8)

    def test_regular_10_3_refused_before_any_mask(self, monkeypatch):
        monkeypatch.setattr(oracle, "_family_masks", refuse_masks)
        with pytest.raises(OracleCapError, match="family of 11180820 graphs exceeds cap 5000000"):
            enumerate_graphs((3,) * 10)


    @pytest.mark.parametrize("cap", [1, 2, 3, 100])
    def test_no_family_past_a_small_cap(self, monkeypatch, cap):
        # skipping the count (when 2^(n choose 2) is within the cap) must
        # never let a family past it
        monkeypatch.setattr(oracle, "DEFAULT_FAMILY_CAP", cap)
        monkeypatch.setattr(oracle, "_cached_family", oracle._cached_family.__wrapped__)
        for d in [(1, 1), (2, 2, 2), (1, 1, 1, 1), (2, 2, 2, 2), (2,) * 5, (2,) * 6, (1,) * 8]:
            size = oracle.count_graphs(d)
            if size > cap:
                with pytest.raises(OracleCapError):
                    enumerate_graphs(d)
            else:
                assert len(enumerate_graphs(d)) == size


def refuse_masks(*args):
    raise InvariantError("a mask was built past the family cap")


def double_factorial(k: int) -> int:
    return 1 if k <= 1 else k * double_factorial(k - 2)


class TestCountGraphs:
    # OEIS A002829: labelled cubic graphs on n = 4, 6, 8, 10 vertices
    @pytest.mark.parametrize("n, size", [(4, 1), (6, 70), (8, 19_355), (10, 11_180_820)])
    def test_cubic(self, n, size):
        assert oracle.count_graphs((3,) * n) == size

    # OEIS A001205: labelled 2-regular graphs on n = 3 .. 10 vertices
    @pytest.mark.parametrize(
        "n, size", zip(range(3, 11), [1, 3, 12, 70, 465, 3_507, 30_016, 286_884]))
    def test_two_regular(self, n, size):
        assert oracle.count_graphs((2,) * n) == size

    @pytest.mark.parametrize("n", range(2, 31, 2))
    def test_perfect_matchings(self, n):
        assert oracle.count_graphs((1,) * n) == double_factorial(n - 1)

    def test_order_and_zeros_do_not_matter(self):
        count = oracle.count_graphs
        assert count((0, 1, 2, 3, 0, 2, 1, 1)) == count((3, 2, 2, 1, 1, 1)) == 15

    @pytest.mark.parametrize("d", [(1, 1, 1), (3, 3, 1, 1), (2, 2, 1), (4, 4, 4, 1, 1)])
    def test_non_graphical_counts_zero(self, d):
        assert oracle.count_graphs(d) == 0

    @given(st.lists(st.integers(0, 6), min_size=1, max_size=7))
    def test_equals_family_size(self, raw):
        n = len(raw)
        d = tuple(min(x, n - 1) for x in raw)
        assert oracle.count_graphs(d) == len(enumerate_graphs(d))


class TestFamilyOfManyChunks:
    """regular(9,2): 30016 members over 36 pairs, so masks use both halves
    of their uint64 word and the bit matrices span several chunks."""

    @pytest.fixture
    def family(self):
        return enumerate_graphs((2,) * 9)

    def test_members(self, family):
        assert len(family) == oracle.count_graphs((2,) * 9) == 30_016
        assert max(family.masks).bit_length() == 36
        assert list(family.masks) == sorted(set(family.masks))
        for mask in family.masks[::997]:
            assert graph_of_mask(9, mask).degree_vector() == (2,) * 9

    def test_pair_counts_match_bit_counts(self, family):
        chunk = oracle.BIT_ROWS_CHUNK
        assert len(family) > 2 * chunk
        sizes = [len(bits) for bits in bit_rows(family.masks, 36)]
        assert sizes == [chunk] * (len(family) // chunk) + [len(family) % chunk]
        assert dict(family.pair_counts) == bit_counts(family.masks)
        # every pair lies in 2/8 of the members
        assert set(family.pair_counts.values()) == {7504}


class TestExactEdgeMarginals:
    def test_single_edge(self):
        assert exact_edge_marginals((1, 1))[(0, 1)] == 1.0

    def test_matchings(self):
        m = exact_edge_marginals((1, 1, 1, 1))
        for j in range(4):
            for k in range(j + 1, 4):
                assert m[(j, k)] == pytest.approx(1 / 3)

    def test_cycles(self):
        m = exact_edge_marginals((2, 2, 2, 2))
        assert m[(0, 3)] == pytest.approx(2 / 3)

    def test_non_graphical_raises(self):
        with pytest.raises(NonGraphicalError):
            exact_edge_marginals((3, 3, 1, 1))

    @given(st.lists(st.integers(0, 3), min_size=2, max_size=5))
    def test_row_sums_exact(self, raw):
        n = len(raw)
        d = tuple(min(x, n - 1) for x in raw)
        fam = enumerate_graphs(d)
        if not fam.masks:
            return
        counts = edge_counts(fam)
        for j in range(n):
            row = sum(counts[key_to_tri(n, min(j, k) * n + max(j, k))] for k in range(n) if k != j)
            assert row == len(fam) * d[j]


class TestExactConditional:
    """`rho(d, h, jk, EXACT_ORACLE)`, the exact kernel's weight: the share of
    members containing h that also contain jk, over d_j d_k."""

    def test_forced_complement(self):
        h = SimpleGraph.from_edges(4, [(0, 1)])
        assert rho((1, 1, 1, 1), h, (2, 3), SeqSampleMode.EXACT_ORACLE) == 1.0

    def test_equals_marginal_when_unconditioned(self):
        m = exact_edge_marginals((2, 2, 2, 2))
        for jk in [(0, 1), (1, 3)]:
            p = rho((2, 2, 2, 2), SimpleGraph.empty(4), jk, SeqSampleMode.EXACT_ORACLE) * 4
            assert p == pytest.approx(m[jk])

    def test_triangle_completion(self):
        h = SimpleGraph.from_edges(3, [(0, 1)])
        assert rho((2, 2, 2), h, (0, 2), SeqSampleMode.EXACT_ORACLE) == 1 / 4

    def test_empty_conditioning_raises(self):
        h = SimpleGraph.from_edges(4, [(0, 1), (2, 3)])
        # no matching contains a third edge; conditioning on a non-member
        # superset is fine, but an unrealizable one must raise
        bad = SimpleGraph.from_edges(4, [(0, 1), (0, 2)])
        with pytest.raises(ValueError, match="conditioning event is empty"):
            rho((1, 1, 1, 1), bad, (1, 3), SeqSampleMode.EXACT_ORACLE)
        # a full member leaves no room, so conditioning is fine but the
        # candidate edge probability is 0
        assert rho((1, 1, 1, 1), h, (0, 2), SeqSampleMode.EXACT_ORACLE) == 0.0

    @given(graphical_degrees(max_n=6), st.data())
    def test_matches_filter_and_count(self, d, data):
        n = len(d)
        fam = enumerate_graphs(d)
        member = graph_of_mask(n, data.draw(st.sampled_from(fam.masks)))
        keys = member.edges.tolist()
        kept = data.draw(st.lists(st.booleans(), min_size=len(keys), max_size=len(keys)))
        h = SimpleGraph(n, frozenset(e for e, keep in zip(keys, kept) if keep))
        # rho is defined on non-edges between positive degrees
        non_edges = [(j, k) for j, k in tri_pairs(n) if not h.has_edge(j, k) and d[j] and d[k]]
        assume(non_edges)
        j, k = data.draw(st.sampled_from(non_edges))
        # a filter-and-count over the whole family, as a reference
        hmask, bit = mask_of_edges(n, h.edges), 1 << key_to_tri(n, j * n + k)
        sub = [m for m in fam.masks if m & hmask == hmask]
        hit = sum(1 for m in sub if m & bit)
        assert rho(d, h, (j, k), SeqSampleMode.EXACT_ORACLE) == hit / len(sub) / (d[j] * d[k])

    @pytest.mark.parametrize("d, state", [
        ((3,) * 8, [(0, 1)]),
        ((3,) * 8, [(0, 1), (2, 5)]),
        ((2,) * 9, [(3, 4)]),
        ((2,) * 9, [(0, 8), (1, 2)]),
    ])
    def test_large_sub_family_matches_filter_and_count(self, d, state):
        # one- and two-edge states leave thousands of members, which
        # `column_counts` counts
        n = len(d)
        h = SimpleGraph.from_edges(n, state)
        hmask = mask_of_edges(n, h.edges)
        sub = [m for m in enumerate_graphs(d).masks if m & hmask == hmask]
        assert len(sub) > oracle.BIT_COUNTS_MAX
        for j, k in tri_pairs(n):
            if not h.has_edge(j, k):
                bit = 1 << key_to_tri(n, j * n + k)
                hit = sum(1 for m in sub if m & bit)
                weight = rho(d, h, (j, k), SeqSampleMode.EXACT_ORACLE)
                assert weight == hit / len(sub) / (d[j] * d[k])

    def test_edge_already_present_raises(self):
        h = SimpleGraph.from_edges(4, [(0, 1)])
        with pytest.raises(ValueError, match="already present"):
            rho((1, 1, 1, 1), h, (0, 1), SeqSampleMode.EXACT_ORACLE)


class TestExactUniformSample:
    def test_singleton_support(self):
        rng = RandomSource(5)
        g = exact_uniform_sample((1, 1), rng)
        assert g.pairs() == [(0, 1)]

    def test_empty_graph(self):
        g = exact_uniform_sample((0, 0, 0), RandomSource(5))
        assert g.num_edges == 0

    def test_uniform_over_cycles(self):
        counts = {}
        rng = RandomSource(314)
        for _ in range(30_000):
            g = exact_uniform_sample((2, 2, 2, 2), rng)
            counts[g] = counts.get(g, 0) + 1
        assert len(counts) == 3
        for c in counts.values():
            assert abs(c - 10_000) < 500

    def test_non_graphical_raises(self):
        with pytest.raises(NonGraphicalError):
            exact_uniform_sample((3, 3, 1, 1), RandomSource(0))

    @pytest.mark.parametrize(
        "d, cap",
        [((3,) * 10, None), ((2, 2, 2, 2), 3), ((1,) * 12, None)],
        ids=["family-cap", "lowered-vertex-cap", "default-vertex-cap"],
    )
    def test_refuses_before_any_draw(self, monkeypatch, d, cap):
        # the escape redraw falls back to the asymptotic sampler on this
        # refusal, from the stream position the oracle was handed
        if cap is not None:
            monkeypatch.setattr(oracle, "DEFAULT_CAP", cap)
        rng = RandomSource(9)
        with pytest.raises(OracleCapError):
            exact_uniform_sample(d, rng)
        assert rng.uniform() == RandomSource(9).uniform()


class TestExactSubgraphLaw:
    def test_full_m_is_family_uniform(self):
        law = exact_subgraph_law((2, 2, 2, 2), 4)
        fam = enumerate_graphs((2, 2, 2, 2))
        assert set(law) == set(fam.members)
        for mass in law.values():
            assert mass == pytest.approx(1 / 3)

    def test_zero_m_point_mass(self):
        law = exact_subgraph_law((2, 2, 2, 2), 0)
        assert law == {SimpleGraph.empty(4): 1.0}

    def test_matchings_single_edge(self):
        law = exact_subgraph_law((1, 1, 1, 1), 1)
        assert len(law) == 6
        for mass in law.values():
            assert mass == pytest.approx(1 / 6)

    def test_cycles_two_edges(self):
        # 12 two-edge paths with mass 1/18 and 3 matchings with mass 1/9
        law = exact_subgraph_law((2, 2, 2, 2), 2)
        masses = sorted(law.values())
        assert len(law) == 15
        assert masses[:12] == pytest.approx([1 / 18] * 12)
        assert masses[12:] == pytest.approx([1 / 9] * 3)

    def test_out_of_range_m(self):
        with pytest.raises(ValueError):
            exact_subgraph_law((2, 2, 2, 2), 5)

    @given(st.sampled_from([(1, 1, 1, 1), (2, 2, 2, 2), (2, 2, 2), (2, 1, 1, 2)]))
    def test_masses_sum_to_one(self, d):
        for m in range(sum(d) // 2 + 1):
            law = exact_subgraph_law(d, m)
            assert abs(sum(law.values()) - 1.0) < 1e-12


class TestFamilyCountsOnce:
    def test_second_replica_recounts_no_whole_family(self, monkeypatch):
        # an exact replica starts at the empty state, whose counts are the
        # family's edge counts; a second replica must reuse them.  The
        # completion draws a member and counts nothing; the coupling's step
        # loop recounts the sub-family after each insertion, never the family.
        # Both counters are watched: large sub-families go to column_counts.
        d = (3,) * 8
        size = len(enumerate_graphs(d))
        params = default_params(d)
        seq_sample_d(d, SeqSampleMode.EXACT_ORACLE, RandomSource(9, 0))
        covered = []

        def watched(counter):
            def counting(masks, *args):
                masks = list(masks)
                covered.append(len(masks))
                return counter(masks, *args)
            return counting

        monkeypatch.setattr(oracle, "column_counts", watched(column_counts))
        monkeypatch.setattr(oracle, "bit_counts", watched(bit_counts))
        seq_sample_d(d, SeqSampleMode.EXACT_ORACLE, RandomSource(9, 1))
        assert covered == []
        _, _, trace = run_coupling(d, params, SeqSampleMode.EXACT_ORACLE,
                                   EtaDenominatorMode.EXACT_MAX, RandomSource(9, 2))
        assert trace.edges_at_step_end > 0
        assert covered and max(covered) < size

    def test_shared_counts_are_read_only_and_exact(self):
        # every exact kernel on the family starts from the same mapping
        d = (2,) * 7
        fam = enumerate_graphs(d)
        seq_sample_d(d, SeqSampleMode.EXACT_ORACLE, RandomSource(9, 0))
        with pytest.raises(TypeError):
            fam.pair_counts[0] = 0
        recount = [sum(m >> i & 1 for m in fam.masks) for i in range(len(tri_pairs(7)))]
        assert list(edge_counts(fam)) == recount


COUNTER_FAMILIES = [(3,) * 8, (2,) * 9, (2,) * 6, (3, 3, 2, 2, 2, 2, 1, 1)]


def cut_patches(d):
    """The cut at 0, so every non-empty state is counted by `column_counts`,
    then at the family's size, so every one is counted by `bit_counts`."""
    return [0, len(enumerate_graphs(d))]


class TestKernelCounters:
    @given(st.sampled_from(COUNTER_FAMILIES), st.data())
    @settings(max_examples=40, deadline=None)
    def test_candidate_counts_match_bin(self, d, data):
        n = len(d)
        fam = enumerate_graphs(d)
        keys = graph_of_mask(n, data.draw(st.sampled_from(fam.masks))).edges.tolist()
        kept = data.draw(st.lists(st.booleans(), min_size=len(keys), max_size=len(keys)))
        state = {e for e, keep in zip(keys, kept) if keep}
        gmask = mask_of_edges(n, state)
        want = Counter(i for m in fam.masks if m & gmask == gmask
                       for i in bin_positions(m ^ gmask))
        for cut in cut_patches(d):
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(oracle, "BIT_COUNTS_MAX", cut)
                assert exact_kernel(d, state).candidate_counts() == want

    @pytest.mark.parametrize("d", COUNTER_FAMILIES)
    def test_coupling_same_under_either_counter(self, monkeypatch, d):
        params = default_params(d)
        runs = []
        for cut in cut_patches(d):
            monkeypatch.setattr(oracle, "BIT_COUNTS_MAX", cut)
            runs.append([run_coupling(d, params, SeqSampleMode.EXACT_ORACLE,
                                      EtaDenominatorMode.EXACT_MAX, RandomSource(23, i))
                         for i in range(20)])
        assert runs[0] == runs[1]
        # the step loop inserted, so it recounted
        assert any(trace.edges_at_step_end > 0 for _, _, trace in runs[0])

    def test_passes_under_python_O(self, python_O_passed):
        # insert's InvariantError, both counters and the direct completion
        # are explicit code, which python -O keeps
        assert {f"test_oracle.py::{name}" for name in (
            "TestKernelCounters::test_candidate_counts_match_bin",
            "TestOracleCompletion::test_insert_outside_every_member_raises",
            "TestFamilyOfManyChunks::test_pair_counts_match_bit_counts",
            "TestOracleCompletion::test_complete_equals_inserting_one_at_a_time",
        )} <= python_O_passed, python_O_passed


def kernel_state(kernel) -> list:
    return [getattr(kernel, name) for name in type(kernel).__slots__]


class TestKernelPairOrder:
    @pytest.mark.parametrize("mode", list(SeqSampleMode))
    @pytest.mark.parametrize("d, start", [((2,) * 5, []), ((3, 3, 2, 2, 1, 1), [(0, 1)])])
    def test_either_order_gives_one_weight_and_one_state(self, mode, d, start):
        # (k, j) names the pair (j, k): at n = 5, insert(3, 1) must store
        # the key 8 of (1, 3), and weight(3, 1) read its slot, not (1, 4)'s
        d = DegreeSequence.of(d)
        n = d.n
        state = SimpleGraph.from_edges(n, start)
        for j, k in tri_pairs(n):
            if state.has_edge(j, k):
                continue
            fwd, back = make_kernel(d, mode, state), make_kernel(d, mode, state)
            assert fwd.weight(j, k) == back.weight(k, j)
            if fwd.weight(j, k) > 0:
                fwd.insert(j, k)
                back.insert(k, j)
                # the state's edges head the history, in ascending order
                assert fwd.history == back.history == state.edges.tolist() + [j * n + k]
                assert kernel_state(fwd) == kernel_state(back)


class TestOracleCompletion:
    def test_member_and_first_edge_uniform(self):
        # from one edge of regular(6,2), 28 of the 70 members remain, each
        # missing 5 edges: the completion is uniform over the 28 and its
        # first insertion uniform over the member's 5 missing edges
        d, n = (2,) * 6, 6
        fam = enumerate_graphs(d)
        start = {1}  # the edge (0, 1)
        gmask = mask_of_edges(n, start)
        sub = [m for m in fam.masks if m & gmask == gmask]
        assert len(sub) == 28
        members, firsts = [0] * len(sub), [0] * 5
        rng = RandomSource(71)
        for _ in range(5_600):
            kernel = exact_kernel(d, start)
            assert kernel.complete(rng) == 0
            mask = mask_of_edges(n, kernel.edges)
            members[sub.index(mask)] += 1
            missing = set_bits(mask ^ gmask)
            firsts[missing.index(key_to_tri(n, kernel.history[len(start)]))] += 1
        assert pearson_chi_square(members, [1 / 28] * 28).p_value > THRESHOLDS.p_min
        assert pearson_chi_square(firsts, [1 / 5] * 5).p_value > THRESHOLDS.p_min

    @pytest.mark.parametrize("d", [(2,) * 6, (1,) * 6, (3, 3, 2, 2, 1, 1), (3,) * 8])
    def test_seq_sample_d_draws_what_exact_uniform_sample_draws(self, d):
        # both begin with one below(|family|) draw on a fresh stream
        for i in range(5):
            g, _ = seq_sample_d(d, SeqSampleMode.EXACT_ORACLE, RandomSource(17, i))
            assert g == exact_uniform_sample(d, RandomSource(17, i))

    @given(graphical_degrees(max_n=6), st.data(), st.integers(0, 2**32 - 1))
    def test_completes_to_a_member_containing_the_state(self, d, data, seed):
        n = len(d)
        fam = enumerate_graphs(d)
        keys = graph_of_mask(n, data.draw(st.sampled_from(fam.masks))).edges.tolist()
        kept = data.draw(st.lists(st.booleans(), min_size=len(keys), max_size=len(keys)))
        state = {e for e, keep in zip(keys, kept) if keep}
        kernel = exact_kernel(d, state)
        assert kernel.complete(RandomSource(seed)) == 0
        assert mask_of_edges(n, kernel.edges) in fam.masks
        assert state <= kernel.edges
        assert kernel.history[:len(state)] == sorted(state)
        assert sorted(kernel.history) == sorted(kernel.edges)

    @given(graphical_degrees(max_n=6), st.data(), st.integers(0, 2**32 - 1))
    def test_complete_equals_inserting_one_at_a_time(self, d, data, seed):
        # complete takes the drawn member as its state at once; inserting
        # the same shuffled edges one at a time must reach the same state
        n = len(d)
        fam = enumerate_graphs(d)
        assert OracleKernel(fam).sub is fam.masks
        keys = graph_of_mask(n, data.draw(st.sampled_from(fam.masks))).edges.tolist()
        kept = data.draw(st.lists(st.booleans(), min_size=len(keys), max_size=len(keys)))
        state = {e for e, keep in zip(keys, kept) if keep}
        kernel, ref = exact_kernel(d, state), exact_kernel(d, state)
        kernel.candidate_counts()  # a cached count must not outlive complete
        assert kernel.complete(RandomSource(seed)) == 0
        for e in kernel.history[len(state):]:
            ref.insert(*divmod(e, n))
        assert kernel.edges == ref.edges
        assert kernel.history == ref.history
        assert kernel.gmask == ref.gmask
        assert list(kernel.sub) == list(ref.sub)
        assert kernel.candidate_counts() == ref.candidate_counts()

    def test_insert_outside_every_member_raises(self):
        # no perfect matching of K4 holds both (0, 1) and (0, 2)
        kernel = OracleKernel(enumerate_graphs((1, 1, 1, 1)))
        kernel.insert(0, 1)
        with pytest.raises(InvariantError, match="left the enumerated sub-family"):
            kernel.insert(0, 2)
