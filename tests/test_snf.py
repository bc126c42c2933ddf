"""Tests for the exact Smith normal form and kernel extraction."""

import hashlib
import json
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jfilt.brackets import bracket_matrix, dk_basis
from jfilt.snf import (
    identity_matrix,
    integer_rank,
    invariant_factors,
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


def rational_rank(matrix):
    """Rank over Q by Gaussian elimination over ``Fraction``: the reference,
    independent of the Smith form, for ``integer_rank``."""
    rows = [list(map(Fraction, row)) for row in matrix]
    if not rows:
        return 0
    cols = len(rows[0])
    rank = 0
    col = 0
    while rank < len(rows) and col < cols:
        pivot_row = None
        for i in range(rank, len(rows)):
            if rows[i][col] != 0:
                pivot_row = i
                break
        if pivot_row is None:
            col += 1
            continue
        rows[rank], rows[pivot_row] = rows[pivot_row], rows[rank]
        prow = rows[rank]
        pval = prow[col]
        for i in range(rank + 1, len(rows)):
            if rows[i][col] != 0:
                factor = rows[i][col] / pval
                rows[i] = [rows[i][j] - factor * prow[j] for j in range(cols)]
        rank += 1
        col += 1
    return rank


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


def _rank_families():
    """Three seeded families of small matrices: random entries in [-9, 9];
    tall rank-deficient ones, the shape of a tree span (many integer
    combinations of a few sparse +-1 rows); and every entry a multiple of 2
    or 3, so no step starts on a unit pivot and the row and column remainder
    swaps and the divisibility scan all run."""
    rng = random.Random(7)
    rand, tall, multiples = [], [], []
    for _ in range(60):
        rows = rng.randint(1, 7)
        cols = rng.randint(1, 7)
        rand.append([[rng.randint(-9, 9) for _ in range(cols)] for _ in range(rows)])
    for _ in range(20):
        cols = rng.randint(3, 12)
        gens = [[rng.choice((0, 0, 0, 1, -1)) for _ in range(cols)]
                for _ in range(rng.randint(1, cols))]
        tall.append([[sum(c * g[j] for c, g in zip(coeffs, gens)) for j in range(cols)]
                     for coeffs in ([rng.randint(-2, 2) for _ in gens] for _ in range(40))])
    for _ in range(40):
        rows = rng.randint(1, 6)
        cols = rng.randint(1, 6)
        multiples.append([[rng.choice((2, 3, 6)) * rng.randint(-5, 5) for _ in range(cols)]
                          for _ in range(rows)])
    return {"random": rand, "tall": tall, "multiples": multiples}


def test_integer_rank_matches_rational_elimination():
    families = _rank_families()
    for family in families.values():
        for a in family:
            assert integer_rank(a) == rational_rank(a)
    for a in families["multiples"]:
        check_decomposition(a)
    assert integer_rank([]) == rational_rank([]) == 0
    assert integer_rank(bracket_matrix(4, 2)) == rational_rank(bracket_matrix(4, 2)) == 60


def _digest(obj):
    return hashlib.sha256(json.dumps(obj, separators=(",", ":")).encode()).hexdigest()


# sha256 of the compact JSON of dk_basis coordinates and of the Smith form of
# bracket_matrix(4, 2).  kernel_lift_tuple and `jfilt dk basis` index this
# basis, so a faster Smith form must leave it exactly as it is.
DK_BASIS_DIGESTS = {
    (4, 1): "f81c0c4821fac2d5b2a6814f0720500cc56ea7a1c54fe0bf8480246c3ff23ee8",
    (5, 1): "b21b28a6cf0f881292173fa587dbaf9fb6843270bf6173e466b291f365a55a2b",
    (3, 2): "723f9d7002507ca87ad6dbaf25b9be7cd741fa8e15444b3597a1a2403da1d584",
    (4, 2): "541981ca7be8251ec69e3870f85add02b0545a9763b8931835daa22374482069",
    (3, 3): "5f6c3e7aa073f2511955ab7841b814b724a4a34dd616e66a964bc843c31982ae",
    (5, 2): "e52419d60bee650b656c03b556ab5bac395f03e643e006a870a373b303a829fa",
    (6, 1): "ab831f8522c92e56ac13b6416677b9b879b87fb96c630309b8ef5c4c24d75d82",
    (3, 4): "60b1ede6581e395dc3378eab9e3390e7bc6bf3a81700ce9e42d6e844b168c6c6",
    (4, 3): "4631140da97a5dc7486db1179445bc424152833a63f9962285b5eff64a1f480a",
}
BRACKET_4_2_SNF_DIGEST = (
    "80e803ace4db1602ad92c3deaf641a3ac67e584f4671a808a2c824324b2ee54b"
)


def test_kernel_basis_and_transforms_are_pinned():
    for (n, k), digest in DK_BASIS_DIGESTS.items():
        assert _digest([list(t.coords) for t in dk_basis(n, k)]) == digest, (n, k)
    dec = smith_normal_form(bracket_matrix(4, 2))
    assert _digest([dec.U, dec.V, dec.diagonal]) == BRACKET_4_2_SNF_DIGEST


# sha256 of the compact JSON of ``[U, V, diagonal]`` over each family of
# ``_rank_families``.  Bracket matrices almost always take unit pivots; these
# pin the pivot choice, the remainder swaps and the divisibility offender on
# the branches those matrices never take.
REPLAY_DIGESTS = {
    "random": "09b524287e886affba73d81b734a58b9de50f51f494e96e9894cfdf84a50b71d",
    "tall": "3b7de72eedff9fb79a268693fd070d3532a38f82da84f30d602e5bb396acb7f3",
    "multiples": "980edde815d433658719161a862d0674878e4ab130a1f0d28439cd0bf8e3f0aa",
}


def test_elimination_order_is_pinned_off_unit_pivots():
    for name, family in _rank_families().items():
        decs = [smith_normal_form(a) for a in family]
        assert _digest([[d.U, d.V, d.diagonal] for d in decs]) == REPLAY_DIGESTS[name], name
        # Without the transforms the same elimination gives the same diagonal.
        assert [invariant_factors(a) for a in family] == [d.diagonal for d in decs], name


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
