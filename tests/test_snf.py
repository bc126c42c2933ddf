"""Tests for the exact Smith normal form and kernel extraction."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jfilt.snf import (
    identity_matrix,
    integer_rank,
    matmul,
    smith_normal_form,
    transpose,
)


def determinant_unimodular(m):
    """Exact determinant (Bareiss): the check, independent of the Smith form,
    that its transforms are unimodular."""
    n = len(m)
    if n == 0:
        return 1
    a = [list(map(int, row)) for row in m]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if a[i][k] != 0), None)
            if swap is None:
                return 0
            a[k], a[swap] = a[swap], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
            a[i][k] = 0
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


def diag_matrix(rows, cols, diagonal):
    d = [[0] * cols for _ in range(rows)]
    for i, e in enumerate(diagonal):
        d[i][i] = e
    return d


def check_decomposition(a):
    dec = smith_normal_form(a)
    rows, cols = dec.rows, dec.cols
    assert rows == len(a)
    assert cols == (len(a[0]) if a else 0)
    d = diag_matrix(rows, cols, dec.diagonal)
    assert matmul(matmul(dec.U, a), dec.V) == d
    assert abs(determinant_unimodular(dec.U)) == 1
    assert abs(determinant_unimodular(dec.V)) == 1
    for i in range(len(dec.diagonal) - 1):
        x, y = dec.diagonal[i], dec.diagonal[i + 1]
        assert x >= 0 and y >= 0
        if x == 0:
            assert y == 0
        else:
            assert y % x == 0
    return dec


def test_known_small_matrix():
    a = [[2, 4, 4], [-6, 6, 12], [10, 4, 16]]
    dec = check_decomposition(a)
    assert dec.diagonal == [2, 2, 156]


def test_rank_deficient_matrix_kernel():
    # second column is twice the first; third is their sum
    a = [[1, 2, 3], [2, 4, 6], [0, 0, 0]]
    dec = check_decomposition(a)
    assert dec.rank == 1
    basis = dec.kernel_basis()
    assert len(basis) == 2
    for vec in basis:
        assert all(sum(row[j] * vec[j] for j in range(3)) == 0 for row in a)


def test_kernel_saturation():
    # ker over Q is spanned by (1, -1); a saturated integer basis must hit
    # (1, -1) itself, not a multiple like (2, -2).
    a = [[2, 2]]
    dec = check_decomposition(a)
    basis = dec.kernel_basis()
    assert len(basis) == 1
    vec = basis[0]
    from math import gcd

    assert gcd(vec[0], vec[1]) == 1


def test_zero_and_identity():
    z = [[0, 0], [0, 0]]
    dec = check_decomposition(z)
    assert dec.rank == 0
    assert len(dec.kernel_basis()) == 2

    dec2 = check_decomposition(identity_matrix(3))
    assert dec2.diagonal == [1, 1, 1]
    assert dec2.kernel_basis() == []


def test_nonsquare_shapes():
    a = [[1, 2, 3, 4], [5, 6, 7, 8]]
    dec = check_decomposition(a)
    assert dec.rank == 2
    assert len(dec.kernel_basis()) == 2

    b = transpose(a)
    dec_b = check_decomposition(b)
    assert dec_b.rank == 2
    assert dec_b.kernel_basis() == []


def test_divisibility_chain_forced():
    # diag(2, 3) must become diag(1, 6)
    dec = check_decomposition([[2, 0], [0, 3]])
    assert dec.diagonal == [1, 6]


def test_integer_rank_matches_snf():
    rng = random.Random(7)
    for _ in range(25):
        rows = rng.randint(1, 6)
        cols = rng.randint(1, 6)
        a = [[rng.randint(-9, 9) for _ in range(cols)] for _ in range(rows)]
        assert integer_rank(a) == smith_normal_form(a).rank


@settings(max_examples=60, deadline=None)
@given(
    st.integers(1, 5),
    st.integers(1, 5),
    st.integers(0, 2**32 - 1),
)
def test_random_decompositions(rows, cols, seed):
    rng = random.Random(seed)
    a = [[rng.randint(-20, 20) for _ in range(cols)] for _ in range(rows)]
    dec = check_decomposition(a)
    # Every kernel vector annihilates, and the count matches the rank defect.
    basis = dec.kernel_basis()
    assert len(basis) == cols - dec.rank
    for vec in basis:
        for row in a:
            assert sum(row[j] * vec[j] for j in range(cols)) == 0


def test_determinant_values():
    assert determinant_unimodular([[3]]) == 3
    assert determinant_unimodular([[1, 2], [3, 4]]) == -2
    assert determinant_unimodular([[2, 0, 0], [0, 3, 0], [0, 0, 5]]) == 30
    assert determinant_unimodular([[1, 1], [1, 1]]) == 0


def test_ragged_matrix_rejected():
    with pytest.raises(ValueError):
        smith_normal_form([[1, 2], [3]])
