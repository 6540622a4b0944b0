import os
import pickle
import subprocess
import sys
import warnings
from itertools import combinations
from math import comb
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import degseq

from degseq import (
    DegenerateSequenceError,
    DegreeSequence,
    SimpleGraph,
    acceptance_matrix,
    chung_lu_matrix,
    degree_stats,
    f_c_transform,
    hadamard,
    is_graphical,
    p_matrix,
    q_matrix,
)
from degseq.graphs import (
    SymmetricProbMatrix,
    key_to_tri,
    tri_pairs,
    tri_size,
    tri_to_key,
)
from degseq.io import read_edge_list, write_edge_list
from degseq.oracle import graph_of_mask, mask_of_edges
from degseq.stats import subgraph_check


def brute_force_realizable(degrees):
    """Independent oracle: scan every graph on n vertices for a realization."""
    n = len(degrees)
    pairs = list(combinations(range(n), 2))
    for mask in range(1 << len(pairs)):
        deg = [0] * n
        for i, (j, k) in enumerate(pairs):
            if mask >> i & 1:
                deg[j] += 1
                deg[k] += 1
        if deg == list(degrees):
            return True
    return False


class TestDegreeSequence:
    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            DegreeSequence((1, -1))

    def test_rejects_degree_at_least_n(self):
        with pytest.raises(ValueError):
            DegreeSequence((2, 2))

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            DegreeSequence(())


class TestDegreeStats:
    def test_regular_triangle(self):
        assert degree_stats((2, 2, 2)) == (6, 2, 2, 4)

    def test_all_zero(self):
        assert degree_stats((0, 0, 0)) == (0, 0, 0, 0)

    def test_unsorted_input(self):
        # sorted copy is (3,2,2,2,1); top_sum adds the largest 3 entries
        assert degree_stats((3, 2, 2, 2, 1)) == (10, 3, 1, 7)
        assert degree_stats((1, 2, 3, 2, 2)) == (10, 3, 1, 7)

    @given(st.lists(st.integers(0, 4), min_size=1, max_size=5))
    def test_matches_direct_formula(self, raw):
        n = len(raw)
        raw = [min(x, n - 1) for x in raw]
        total, dmax, dmin, top = degree_stats(raw)
        ordered = sorted(raw, reverse=True)
        assert total == sum(raw)
        assert dmax == ordered[0]
        assert dmin == ordered[-1]
        assert top == sum(ordered[: ordered[0]])


class TestIsGraphical:
    def test_star(self):
        assert is_graphical((3, 1, 1, 1))

    def test_triangle(self):
        assert is_graphical((2, 2, 2))

    def test_inequality_failure(self):
        # largest two degrees need 6 slots; the other side offers only 4
        assert not is_graphical((3, 3, 1, 1))
        assert not brute_force_realizable((3, 3, 1, 1))

    def test_odd_sum(self):
        assert not is_graphical((1, 0, 0))

    @given(st.lists(st.integers(0, 4), min_size=1, max_size=5))
    def test_agrees_with_exhaustive_search(self, raw):
        n = len(raw)
        d = [min(x, n - 1) for x in raw]
        assert is_graphical(d) == brute_force_realizable(d)

    @given(st.one_of(
        # any degrees in [0, n - 1]: zeros, odd sums and failed inequalities
        st.integers(1, 60).flatmap(lambda n: st.lists(st.integers(0, n - 1), min_size=n, max_size=n)),
        # the degrees of a graph, so graphical ones with every shape of tail
        st.integers(2, 60).flatmap(lambda n: st.lists(
            st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=200,
        ).map(lambda pairs: graph_degrees(n, pairs))),
    ))
    @settings(max_examples=300, deadline=None)
    def test_agrees_with_textbook_statement(self, d):
        assert is_graphical(d) == textbook_erdos_gallai(d)


def graph_degrees(n, pairs):
    degrees = [0] * n
    for j, k in {frozenset(p) for p in pairs if p[0] != p[1]}:
        degrees[j] += 1
        degrees[k] += 1
    return degrees


def textbook_erdos_gallai(d):
    """Erdős–Gallai as stated: an even sum, and for every k the k largest
    degrees sum to at most k(k-1) + sum over the rest of min(d_i, k)."""
    d = sorted(d, reverse=True)
    return sum(d) % 2 == 0 and all(
        sum(d[:k]) <= k * (k - 1) + sum(min(x, k) for x in d[k:])
        for k in range(1, len(d) + 1)
    )


class TestSymmetricProbMatrix:
    @pytest.mark.parametrize("bad", [-0.1, 1.5, np.nan], ids=["negative", "above-1", "nan"])
    def test_rejects_entries_outside_unit_interval(self, bad):
        with pytest.raises(ValueError, match=r"entries must lie in \[0, 1\]"):
            SymmetricProbMatrix(3, np.array([0.0, 1.0, bad]))

    def test_accepts_bounds(self):
        assert SymmetricProbMatrix(3, np.array([0.0, 1.0, 0.5])).tri.max() == 1.0

    @pytest.mark.parametrize("m", [
        SymmetricProbMatrix.full(3, 0.0),
        acceptance_matrix((1, 1, 2), 0.1),
        SymmetricProbMatrix(3, np.array([0.1, 0.2, 0.3])),
    ], ids=["zeros", "classes", "per-pair"])
    def test_diagonal_outside_range_raises(self, m):
        # m[(j, j)] read 0.0 for any j, while m[(0, 5)] raised
        assert m[(2, 2)] == 0.0
        for v in (5, 3, -1):
            with pytest.raises(ValueError, match="invalid for n=3"):
                m[(v, v)]


class TestPMatrix:
    def test_regular_triangle(self):
        m = p_matrix((2, 2, 2))
        for j, k in tri_pairs(3):
            assert m[(j, k)] == pytest.approx(0.4)

    def test_single_pair(self):
        assert p_matrix((1, 1))[(0, 1)] == pytest.approx(1 / 3)

    def test_formula_only_no_graphicality_needed(self):
        m = p_matrix((3, 3, 1, 1))
        assert m[(0, 1)] == pytest.approx(9 / (8 + 9))

    def test_monotone_in_degree_product(self):
        # same degree sum, increasing products: entries must increase
        m = p_matrix((3, 2, 2, 1))
        assert m[(2, 3)] < m[(1, 2)] < m[(0, 1)]

    def test_zero_degree_row_is_zero(self):
        m = p_matrix((2, 2, 2, 0))
        assert m[(0, 3)] == 0.0 and m[(2, 3)] == 0.0


class TestQMatrix:
    def test_regular_triangle(self):
        m = q_matrix((2, 2, 2))
        for j, k in tri_pairs(3):
            assert m[(j, k)] == pytest.approx(1 / 3)

    def test_single_pair(self):
        assert q_matrix((1, 1))[(0, 1)] == 1.0

    def test_asymmetric(self):
        m = q_matrix((2, 1, 1))
        assert m[(0, 1)] == pytest.approx(2 / 5)
        assert m[(0, 2)] == pytest.approx(2 / 5)
        assert m[(1, 2)] == pytest.approx(1 / 5)

    def test_degenerate_raises(self):
        with pytest.raises(DegenerateSequenceError):
            q_matrix((2, 0, 0))

    def test_monotone_in_degree_product(self):
        m = q_matrix((3, 2, 2, 1))
        assert m[(2, 3)] < m[(1, 2)] < m[(0, 1)]

    @given(st.lists(st.integers(0, 5), min_size=2, max_size=6))
    def test_sums_to_one(self, raw):
        n = len(raw)
        d = [min(x, n - 1) for x in raw]
        if sum(1 for x in d if x > 0) < 2:
            return
        m = q_matrix(d)
        assert abs(m.tri.sum() - 1.0) < 1e-12


class TestChungLu:
    def test_regular(self):
        m = chung_lu_matrix((2, 2, 2))
        assert m[(0, 1)] == pytest.approx(4 / 6)

    def test_clamped(self):
        assert chung_lu_matrix((10.0, 10.0))[(0, 1)] == 1.0

    def test_quarter(self):
        m = chung_lu_matrix((1, 1, 1, 1))
        assert m[(2, 3)] == pytest.approx(0.25)

    def test_all_zero_raises(self):
        with pytest.raises(ValueError):
            chung_lu_matrix((0.0, 0.0))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_weight_raises_by_name(self, bad):
        # they ended in "entries must lie in [0, 1]", and inf in a RuntimeWarning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=f"weights must be finite and >= 0, got {bad}"):
                chung_lu_matrix((1.0, bad, 2.0))


class TestFcTransform:
    def test_zero_matrix_fixed(self):
        m = f_c_transform(SymmetricProbMatrix.full(4, 0.0), 3.7)
        assert m.tri.max() == 0.0

    def test_zero_scale(self):
        m = f_c_transform(SymmetricProbMatrix.full(4, 0.9), 0.0)
        assert m.tri.max() == 0.0

    def test_numeric_value_high_precision(self):
        mpmath = pytest.importorskip("mpmath")
        m = f_c_transform(SymmetricProbMatrix.full(3, 0.18), 2.4)
        expected = float(1 - mpmath.exp(mpmath.mpf("-0.432")))
        assert m[(0, 1)] == pytest.approx(expected, abs=1e-12)
        assert m[(0, 1)] == pytest.approx(0.3507906233, abs=1e-9)

    @given(st.floats(0.0, 1.0), st.floats(0.0, 50.0))
    def test_range_and_monotonicity_in_scale(self, entry, scale):
        m = SymmetricProbMatrix.full(3, entry)
        lo = f_c_transform(m, scale)
        hi = f_c_transform(m, scale + 1.0)
        # mathematically the value stays below 1 for finite scale, but once
        # exp(-scale*entry) drops under one ulp the double saturates at 1.0
        assert 0.0 <= lo[(0, 1)] <= 1.0
        if scale * entry <= 30.0:
            assert lo[(0, 1)] < 1.0
        assert lo[(0, 1)] <= hi[(0, 1)]

    def test_negative_scale_raises(self):
        with pytest.raises(ValueError):
            f_c_transform(SymmetricProbMatrix.full(3, 0.0), -0.1)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_scale_raises_by_name(self, bad):
        # they ended in "entries must lie in [0, 1]", and inf in a RuntimeWarning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=f"scale must be finite and >= 0, got {bad}"):
                f_c_transform(SymmetricProbMatrix.full(3, 0.5), bad)


class TestHadamard:
    def test_identity(self):
        a = q_matrix((2, 1, 1))
        ones = SymmetricProbMatrix.full(3, 1.0)
        assert np.allclose(hadamard(a, ones).tri, a.tri)

    def test_annihilator(self):
        a = q_matrix((2, 1, 1))
        assert hadamard(a, SymmetricProbMatrix.full(3, 0.0)).tri.max() == 0.0

    def test_scalar_product(self):
        a = SymmetricProbMatrix.full(3, 0.4)
        b = SymmetricProbMatrix.full(3, 1 / 3)
        assert hadamard(a, b)[(0, 1)] == pytest.approx(2 / 15)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            hadamard(SymmetricProbMatrix.full(3, 0.0), SymmetricProbMatrix.full(4, 0.0))


class TestSimpleGraph:
    def test_no_self_loops(self):
        with pytest.raises(ValueError):
            SimpleGraph.from_edges(3, [(1, 1)])

    def test_edge_normalization(self):
        g = SimpleGraph.from_edges(3, [(2, 0)])
        assert g.has_edge(0, 2) and g.has_edge(2, 0)

    def test_degree_vector(self):
        g = SimpleGraph.from_edges(4, [(0, 1), (1, 2)])
        assert g.degree_vector() == (1, 2, 1, 0)

    def test_tri_index_bijection(self):
        # the pair-to-slot map is one-to-one and onto the n(n-1)/2 slots
        n = 7
        seen = set()
        for j, k in tri_pairs(n):
            idx = key_to_tri(n, j * n + k)
            assert idx not in seen
            seen.add(idx)
        assert seen == set(range(comb(n, 2)))

    @pytest.mark.parametrize("n", [0, 1, 2, 3, 7, 12, 65, 300])
    def test_tri_keys_match_pairs(self, n):
        pair_keys = [j * n + k for j, k in tri_pairs(n)]
        keys = tri_to_key(n, np.arange(tri_size(n)))
        assert keys.tolist() == pair_keys
        assert key_to_tri(n, keys).tolist() == list(range(tri_size(n)))
        # Python-int keys, as the oracle passes them, map to the same slots
        assert [key_to_tri(n, key) for key in pair_keys] == list(range(tri_size(n)))
        # the order SymmetricProbMatrix.__init__ reads `tri` in
        rows, cols = np.triu_indices(n, 1)
        assert (rows * n + cols).tolist() == pair_keys


# (n, bad key): the n <= 64 and n > 64 validation paths, each with every kind of bad key
BAD_KEYS = [
    (n, key)
    for n in (5, 100)
    for key in (
        2 * n + 2,  # self-loop {2, 2}
        3 * n + 1,  # j = 3 > k = 1
        n * n,  # >= n^2
        n * n + n - 1,
        -1,  # negative
        -n - 1,
        2**80,  # beyond int64
        1.5,  # not an integer
        1.0,
        "1",
        None,
    )
]


class TestKeyValidation:
    @pytest.mark.parametrize("n,key", BAD_KEYS)
    def test_bad_key_rejected(self, n, key):
        with pytest.raises(ValueError):
            SimpleGraph(n, frozenset({key}))
        # among valid keys too
        with pytest.raises(ValueError):
            SimpleGraph(n, frozenset({n + 2, 2 * n + 3, key}))

    def test_any_key_rejected_without_vertices(self):
        for n in (0, 1):
            with pytest.raises(ValueError):
                SimpleGraph(n, frozenset({0}))

    def test_valid_keys_accepted(self):
        for n in (5, 100):
            g = SimpleGraph(n, frozenset({1, n - 1, (n - 2) * n + n - 1}))
            assert g.pairs() == [(0, 1), (0, n - 1), (n - 2, n - 1)]

    def test_rejected_under_python_O(self):
        # the checks must not be asserts, which python -O strips
        code = f"""
import sys
from degseq import SimpleGraph

assert sys.flags.optimize == 1
for n, key in {BAD_KEYS!r}:
    try:
        SimpleGraph(n, frozenset({{key}}))
    except ValueError:
        continue
    sys.exit(f"accepted key {{key!r}} for n={{n}}")
print("all rejected")
"""
        src = str(Path(degseq.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=src)
        out = subprocess.run(
            [sys.executable, "-O", "-c", code], env=env, capture_output=True, text=True, timeout=60
        )
        assert out.returncode == 0, out.stderr
        assert out.stdout == "all rejected\n"


@st.composite
def key_graphs(draw, max_n=12):
    n = draw(st.integers(2, max_n))
    pair = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(lambda p: p[0] != p[1])
    return n, draw(st.lists(pair, max_size=40))


class TestKeyRoundTrips:
    @given(key_graphs())
    def test_from_edges_and_pairs(self, case):
        n, raw = case
        g = SimpleGraph.from_edges(n, raw)
        assert g.pairs() == sorted({(min(p), max(p)) for p in raw})
        assert SimpleGraph.from_edges(n, g.pairs()) == g
        assert all(g.has_edge(k, j) for j, k in raw)

    @given(key_graphs())
    @settings(deadline=None)
    def test_edge_file(self, tmp_path_factory, case):
        g = SimpleGraph.from_edges(*case)
        path = tmp_path_factory.mktemp("keys") / "g.edges"
        write_edge_list(path, g)
        assert read_edge_list(path, g.n) == g

    @given(st.integers(2, 12).flatmap(
        lambda n: st.tuples(st.just(n), st.integers(0, 2 ** (n * (n - 1) // 2) - 1))))
    def test_mask(self, case):
        n, mask = case
        g = graph_of_mask(n, mask)
        assert mask_of_edges(n, g.edges) == mask
        assert g.num_edges == bin(mask).count("1")

    @given(key_graphs(), st.data())
    def test_witness_is_smallest_pair(self, case, data):
        n, raw = case
        lo = SimpleGraph.from_edges(n, raw)
        hi = SimpleGraph.from_edges(n, data.draw(st.lists(st.sampled_from(raw or [(0, 1)]))))
        extra = set(lo.pairs()) - set(hi.pairs())
        _, violations = subgraph_check([(lo, hi)])
        assert violations == ([(0, min(extra))] if extra else [])


# the forms a graph's keys arrive in: a set, a list with repeats, an int32 or
# int64 array, and an edge file
KEY_FORMS = ("set", "list", "int32", "int64", "file")


def keys_in_form(form, n, keys, path):
    """`SimpleGraph(n, keys)` built from `keys` (a list, repeats allowed) in `form`."""
    if form == "set":
        return SimpleGraph(n, set(keys))
    if form == "list":
        return SimpleGraph(n, keys)
    if form in ("int32", "int64"):
        return SimpleGraph(n, np.array(keys, dtype=form))
    # every other line names its edge the other way round
    path.write_text("".join(f"{j} {k}\n" if i % 2 else f"{k} {j}\n"
                            for i, (j, k) in enumerate(divmod(key, n) for key in keys)))
    return read_edge_list(path, n)


@st.composite
def key_lists(draw):
    """(n, keys, other keys): two key lists, repeats allowed, the second mostly
    drawn from the first; n on both sides of the small-n key table."""
    n = draw(st.integers(2, 12) | st.integers(65, 70))
    key = st.sampled_from([j * n + k for j, k in tri_pairs(n)])
    keys = draw(st.lists(key, max_size=30))
    other = draw(st.lists(st.sampled_from(keys) if keys else key, max_size=30))
    return n, keys, other + draw(st.lists(key, max_size=2))


def reference_degrees(n, ref):
    degrees = [0] * n
    for key in ref:
        degrees[key // n] += 1
        degrees[key % n] += 1
    return tuple(degrees)


class TestGraphMatchesFrozensetReference:
    """Every form of a key collection gives the graph a frozenset of the same
    keys describes, and it answers every query as the frozenset does."""

    @given(key_lists(), st.sampled_from(KEY_FORMS), st.sampled_from(KEY_FORMS))
    @settings(deadline=None)
    def test_queries_agree(self, tmp_path_factory, case, form, other_form):
        n, keys, other_keys = case
        path = tmp_path_factory.mktemp("forms") / "g.edges"
        g = keys_in_form(form, n, keys, path)
        h = keys_in_form(other_form, n, other_keys, path)
        ref, other_ref = frozenset(keys), frozenset(other_keys)
        assert g == SimpleGraph(n, ref) and hash(g) == hash(SimpleGraph(n, ref))
        assert pickle.loads(pickle.dumps(g)) == g
        assert g.edges.dtype == np.int64 and not g.edges.flags.writeable
        assert g.edges.tolist() == sorted(ref) and g.num_edges == len(ref)
        assert g.pairs() == sorted(divmod(key, n) for key in ref)
        assert g.degree_vector() == reference_degrees(n, ref)
        assert all(g.has_edge(k, j) == g.has_edge(j, k) == (j * n + k in ref)
                   for j, k in tri_pairs(n))
        mask = mask_of_edges(n, g.edges)
        assert type(mask) is int and mask == mask_of_edges(n, ref)
        assert (g == h) == (ref == other_ref)
        if ref == other_ref:
            assert hash(g) == hash(h)
        assert g.is_subgraph_of(h) == (ref <= other_ref)
        extra = ref - other_ref
        assert subgraph_check([(g, h)]) == (
            (0, [(0, divmod(min(extra), n))]) if extra else (1, []))

    @given(key_lists(), st.data())
    @settings(deadline=None)
    def test_bad_keys_raise_the_same_error(self, case, data):
        n, keys, _ = case
        bad = data.draw(st.sampled_from([
            -1, -n - 1, 2 * n + 2, 3 * n + 1, n * n, n * n + n - 1, 1.5, 1.0, "1", None,
        ]))
        if isinstance(bad, int):
            message = f"edge key {bad} is not j*n + k with 0 <= j < k < n={n}"
            forms = ("set", "list", "int32", "int64")
        else:
            message = f"edge keys must be integers in [0, {n}^2)"
            forms = ("set", "list")
        with pytest.raises(ValueError) as reference:
            SimpleGraph(n, frozenset(keys + [bad]))
        assert str(reference.value) == message
        for form in forms:
            with pytest.raises(ValueError) as raised:
                keys_in_form(form, n, keys + [bad], None)
            assert str(raised.value) == message, form
        if isinstance(bad, float):
            with pytest.raises(ValueError, match="must be integers"):
                SimpleGraph(n, np.array(keys + [bad]))

    def test_passes_under_python_O(self, python_O_passed):
        # the constructor's checks are explicit raises, which python -O keeps
        assert {f"test_graphs.py::TestGraphMatchesFrozensetReference::{name}"
                for name in ("test_queries_agree", "test_bad_keys_raise_the_same_error")
                } <= python_O_passed, python_O_passed
