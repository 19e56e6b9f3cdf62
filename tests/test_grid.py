import math
from fractions import Fraction

import numpy as np
import pytest

from torusqi.grid import (
    FullGridSpec,
    SparseGridSpec,
    combination_grid_words,
    combination_terms,
    full_grid_nodes,
    multi_indices_with_sum,
    sparse_grid_count_formula,
    sparse_grid_points,
)


# ---------------------------------------------------------------------------
# Full grids
# ---------------------------------------------------------------------------

def test_full_grid_1d():
    nodes = full_grid_nodes(FullGridSpec((4,)))
    np.testing.assert_allclose(
        nodes.ravel(), [0.0, math.pi / 2, math.pi, 3 * math.pi / 2], atol=1e-15
    )


def test_full_grid_2d():
    nodes = full_grid_nodes(FullGridSpec((2, 2)))
    assert nodes.shape == (4, 2)
    expected = [(0, 0), (0, math.pi), (math.pi, 0), (math.pi, math.pi)]
    np.testing.assert_allclose(nodes, expected, atol=1e-15)


def test_full_grid_lexicographic_entry():
    nodes = full_grid_nodes(FullGridSpec((3, 5)))
    assert nodes.shape == (15, 2)
    # node with index tuple (1, 2) sits at flat position 1*5 + 2
    np.testing.assert_allclose(
        nodes[1 * 5 + 2], [2 * math.pi / 3, 4 * math.pi / 5], atol=1e-15
    )


def test_full_grid_guards():
    with pytest.raises(ValueError):
        FullGridSpec((1,))
    with pytest.raises(ValueError):
        full_grid_nodes(FullGridSpec((2**14, 2**13)))


# ---------------------------------------------------------------------------
# Multi-index enumeration
# ---------------------------------------------------------------------------

def test_multi_indices_examples():
    assert multi_indices_with_sum(3, 2) == [(1, 2), (2, 1)]
    assert multi_indices_with_sum(4, 2) == [(1, 3), (2, 2), (3, 1)]
    assert multi_indices_with_sum(2, 3) == []


def test_multi_indices_stars_and_bars_count():
    for d in range(1, 5):
        for total in range(d, d + 7):
            got = multi_indices_with_sum(total, d)
            assert len(got) == math.comb(total - 1, d - 1)
            assert got == sorted(got)
            assert all(min(idx) >= 1 and sum(idx) == total for idx in got)


# ---------------------------------------------------------------------------
# Combination technique
# ---------------------------------------------------------------------------

def test_combination_terms_1d():
    terms = combination_terms(SparseGridSpec(3, 1))
    assert len(terms) == 1
    assert terms[0].coeff == 1
    assert terms[0].index == (3,)
    assert terms[0].grid.counts == (8,)


def test_combination_terms_2d_signs():
    terms = combination_terms(SparseGridSpec(3, 2))
    for t in terms:
        assert t.coeff == (-1 if sum(t.index) == 3 else 1)
        assert t.grid.counts == tuple(2**n for n in t.index)
    assert sorted(sum(t.index) for t in terms) == [3, 3, 4, 4, 4]


def test_combination_terms_3d_coeffs():
    terms = combination_terms(SparseGridSpec(2, 3))
    by_sum = {}
    for t in terms:
        by_sum.setdefault(sum(t.index), set()).add(t.coeff)
    # |n| = 2 level is infeasible (needs 3 parts >= 1), so omitted
    assert 2 not in by_sum
    assert by_sum[3] == {-2}
    assert by_sum[4] == {1}


def test_combination_coefficients_sum_to_one():
    for d in range(1, 5):
        for level in range(1, 6):
            terms = combination_terms(SparseGridSpec(level, d))
            if all(
                multi_indices_with_sum(level + j, d) for j in range(d)
            ):  # no empty levels
                assert sum(t.coeff for t in terms) == 1


# ---------------------------------------------------------------------------
# Position words and sparse grid points
# ---------------------------------------------------------------------------

def decode_words(words, level, d):
    """Per-dimension finest-grid indices of each word, in plain Python."""
    mask = 2**level - 1
    return [
        tuple((int(w) >> (level * (d - 1 - r))) & mask for r in range(d))
        for w in words
    ]


def test_sparse_points_1d_equals_full_grid():
    for level in (1, 3, 5):
        words = sparse_grid_points(SparseGridSpec(level, 1))
        assert words.dtype == np.int64
        assert words.tolist() == list(range(2**level))


def test_sparse_points_match_bruteforce_fraction_union():
    # oracle: the union of the finest-diagonal grids as exact fractions
    # j / 2^n of the period, with no words, shifts or numpy involved
    for d in range(1, 5):
        for level in range(1, 7):
            spec = SparseGridSpec(level, d)
            union = set()
            for index in multi_indices_with_sum(level + d - 1, d):
                stack = [()]
                for n in index:
                    axis = [Fraction(j, 2**n) for j in range(2**n)]
                    stack = [p + (x,) for p in stack for x in axis]
                union.update(stack)
            words = sparse_grid_points(spec)
            assert all(a < b for a, b in zip(words.tolist(), words.tolist()[1:]))
            decoded = [
                tuple(Fraction(j, 2**level) for j in node)
                for node in decode_words(words, level, d)
            ]
            assert decoded == sorted(union), (d, level)


def test_sparse_points_spot_counts():
    assert len(sparse_grid_points(SparseGridSpec(3, 2))) == 32
    assert len(sparse_grid_points(SparseGridSpec(2, 3))) == 32
    assert sparse_grid_count_formula(SparseGridSpec(3, 2)) == 32
    assert sparse_grid_count_formula(SparseGridSpec(2, 3)) == 32


def test_count_formula_matches_bruteforce_union():
    for d in range(1, 5):
        for level in range(1, 7):
            spec = SparseGridSpec(level, d)
            assert sparse_grid_count_formula(spec) == len(sparse_grid_points(spec))


def test_nesting_every_component_grid_is_contained():
    for d, level in [(2, 3), (2, 5), (3, 3), (4, 2)]:
        spec = SparseGridSpec(level, d)
        store = set(sparse_grid_points(spec).tolist())
        for term in combination_terms(spec):
            words = combination_grid_words(term.index, level)
            assert words.shape == term.grid.counts
            for node in np.ndindex(*term.grid.counts):
                # node j on the 2^n-point axis is finest index j 2^(level - n)
                fine = [j << (level - n) for j, n in zip(node, term.index)]
                word = int(words[node])
                assert decode_words([word], level, d) == [tuple(fine)]
                assert word in store


def test_sparse_grid_size_guard():
    with pytest.raises(ValueError, match="guard"):
        sparse_grid_points(SparseGridSpec(25, 1))
    with pytest.raises(ValueError, match="62 bits"):
        sparse_grid_points(SparseGridSpec(32, 2))
