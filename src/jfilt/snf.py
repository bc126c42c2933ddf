"""Exact integer Smith normal form and kernel extraction.

Everything here works over the integers with plain Python ``int`` arithmetic
(arbitrary precision), so results are exact.  The central object is the
decomposition ``U @ A @ V == D`` with ``U`` and ``V`` unimodular and ``D``
diagonal with each diagonal entry dividing the next.  From ``V`` we read off
an integer basis of the kernel of ``A``; because ``V`` is unimodular the
resulting lattice is automatically saturated (primitive) in the ambient
lattice, which is exactly what the rank/basis routines downstream need.

Matrices are represented as lists of lists of ints (row major).  The sizes
seen in this package are modest (a few thousand rows at the upper end of the
test grid), so a straightforward pivoting strategy with minimal-absolute-value
pivot selection is fast enough and keeps intermediate entries small.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import List, Sequence

Matrix = List[List[int]]


def identity_matrix(n: int) -> Matrix:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def matmul(a: Sequence[Sequence[int]], b: Sequence[Sequence[int]]) -> Matrix:
    rows, inner, cols = len(a), len(b), len(b[0]) if b else 0
    out = [[0] * cols for _ in range(rows)]
    for i in range(rows):
        arow = a[i]
        orow = out[i]
        for t in range(inner):
            coeff = arow[t]
            if coeff == 0:
                continue
            brow = b[t]
            for j in range(cols):
                orow[j] += coeff * brow[j]
    return out


def transpose(a: Sequence[Sequence[int]]) -> Matrix:
    if not a:
        return []
    return [list(col) for col in zip(*a)]


@dataclass(frozen=True)
class SmithDecomposition:
    """Unimodular ``U``, ``V`` and diagonal entries with ``U A V = D``.

    ``diagonal`` lists the nonzero-or-zero diagonal of ``D`` out to
    ``min(rows, cols)``; entries are nonnegative and each divides the next.
    """

    rows: int
    cols: int
    U: Matrix
    V: Matrix
    diagonal: List[int]

    @property
    def rank(self) -> int:
        return sum(1 for d in self.diagonal if d != 0)

    def kernel_basis(self) -> Matrix:
        """Columns of ``V`` at zero diagonal positions: a saturated kernel basis.

        Returned as a list of column vectors (each of length ``cols``).
        """
        out = []
        for j in range(self.cols):
            d = self.diagonal[j] if j < len(self.diagonal) else 0
            if d == 0:
                out.append([self.V[i][j] for i in range(self.cols)])
        return out


def _swap_rows(m: Matrix, i: int, j: int) -> None:
    m[i], m[j] = m[j], m[i]


def _swap_cols(m: Matrix, i: int, j: int) -> None:
    for row in m:
        row[i], row[j] = row[j], row[i]


def _add_row(m: Matrix, src: int, dst: int, factor: int) -> None:
    srow, drow = m[src], m[dst]
    for j in range(len(drow)):
        drow[j] += factor * srow[j]


def _add_col(m: Matrix, src: int, dst: int, factor: int) -> None:
    for row in m:
        row[dst] += factor * row[src]


def smith_normal_form(matrix: Sequence[Sequence[int]]) -> SmithDecomposition:
    """Compute ``U A V = D`` with unimodular ``U``, ``V`` and SNF diagonal ``D``."""
    rows = len(matrix)
    cols = len(matrix[0]) if rows else 0
    work = [list(map(int, row)) for row in matrix]
    for row in work:
        if len(row) != cols:
            raise ValueError("ragged matrix")
    u = identity_matrix(rows)
    v = identity_matrix(cols)

    limit = min(rows, cols)
    for t in range(limit):
        # Find the entry of least nonzero absolute value in the trailing block.
        pivot = None
        best = None
        for i in range(t, rows):
            wrow = work[i]
            for j in range(t, cols):
                e = wrow[j]
                if e != 0 and (best is None or abs(e) < best):
                    best = abs(e)
                    pivot = (i, j)
                    if best == 1:
                        break
            if best == 1:
                break
        if pivot is None:
            break  # trailing block is zero
        pi, pj = pivot
        if pi != t:
            _swap_rows(work, pi, t)
            _swap_rows(u, pi, t)
        if pj != t:
            _swap_cols(work, pj, t)
            _swap_cols(v, pj, t)

        # Clear the pivot row and column; repeat because remainders can
        # reintroduce entries until the pivot divides everything it meets.
        while True:
            p = work[t][t]
            dirty = False
            for i in range(t + 1, rows):
                e = work[i][t]
                if e == 0:
                    continue
                q = e // p
                _add_row(work, t, i, -q)
                _add_row(u, t, i, -q)
                if work[i][t] != 0:
                    # remainder smaller than |p|: promote it to pivot
                    _swap_rows(work, i, t)
                    _swap_rows(u, i, t)
                    dirty = True
                    break
            if dirty:
                continue
            for j in range(t + 1, cols):
                e = work[t][j]
                if e == 0:
                    continue
                q = e // p
                _add_col(work, t, j, -q)
                _add_col(v, t, j, -q)
                if work[t][j] != 0:
                    _swap_cols(work, j, t)
                    _swap_cols(v, j, t)
                    dirty = True
                    break
            if dirty:
                continue
            # Row and column are clear.  Ensure the pivot divides the rest of
            # the block; if not, fold an offending row in and restart.
            p = work[t][t]
            offender = None
            for i in range(t + 1, rows):
                wrow = work[i]
                for j in range(t + 1, cols):
                    if wrow[j] % p != 0:
                        offender = i
                        break
                if offender is not None:
                    break
            if offender is None:
                break
            _add_row(work, offender, t, 1)
            _add_row(u, offender, t, 1)

    diagonal = [work[i][i] for i in range(limit)]
    # Normalise signs to nonnegative by flipping columns of V.
    for i, d in enumerate(diagonal):
        if d < 0:
            diagonal[i] = -d
            work[i][i] = -d
            for row in v:
                row[i] = -row[i]
    # Divisibility fixup: gcd/lcm adjustment for adjacent out-of-order pairs.
    changed = True
    while changed:
        changed = False
        for i in range(len(diagonal) - 1):
            a, b = diagonal[i], diagonal[i + 1]
            if a == 0 and b != 0:
                # zero must come last
                diagonal[i], diagonal[i + 1] = b, 0
                _swap_rows(u, i, i + 1)
                _swap_cols(v, i, i + 1)
                changed = True
            elif a != 0 and b % a != 0:
                g = math.gcd(a, b)
                l = a * b // g
                # 2x2 block [[a,0],[0,b]] -> [[g,0],[0,l]] via unimodular moves:
                # col_i += col_{i+1}; then standard clearing.  Rather than track
                # the elementary steps on the block, recompute them explicitly.
                # Bezout: s*a + t*b = g
                s, t = _bezout(a, b)
                # U' = [[s, t], [-b//g, a//g]], V' = [[1, -t*b//g], [1, s*a//g]]
                # satisfies U' diag(a,b) V' = diag(g,l).
                _apply_2x2(u, i, ((s, t), (-(b // g), a // g)), rows=True)
                _apply_2x2(v, i, ((1, -(t * b) // g), (1, (s * a) // g)), rows=False)
                diagonal[i], diagonal[i + 1] = g, l
                changed = True
    return SmithDecomposition(rows=rows, cols=cols, U=u, V=v, diagonal=diagonal)


def _bezout(a: int, b: int) -> tuple:
    """Return ``(s, t)`` with ``s*a + t*b == gcd(a, b)``."""
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r != 0:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    if old_r < 0:
        old_s, old_t = -old_s, -old_t
    return old_s, old_t


def _apply_2x2(m: Matrix, i: int, block, rows: bool) -> None:
    """Left-multiply rows (or right-multiply columns) ``i, i+1`` by ``block``."""
    (a, b), (c, d) = block
    if rows:
        ri = m[i]
        rj = m[i + 1]
        new_i = [a * ri[k] + b * rj[k] for k in range(len(ri))]
        new_j = [c * ri[k] + d * rj[k] for k in range(len(ri))]
        m[i], m[i + 1] = new_i, new_j
    else:
        for row in m:
            x, y = row[i], row[i + 1]
            row[i] = x * a + y * c
            row[i + 1] = x * b + y * d


def integer_rank(matrix: Sequence[Sequence[int]]) -> int:
    """Rank over the rationals, via fraction-free Gaussian elimination."""
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


def determinant_unimodular(m: Sequence[Sequence[int]]) -> int:
    """Exact determinant (Bareiss); used in tests to certify unimodularity."""
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
