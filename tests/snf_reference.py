"""Reference for ``jfilt.snf.eliminate``: the Smith elimination that finds
the rows holding each pivot column by testing every row below the pivot.

That is how the library eliminated before it kept an index of the rows that
hold each column.  The index must not change a single pivot choice,
remainder promotion or fold, so the tests compare the two on the diagonal,
``U`` and ``V`` entry for entry.  The reference also counts, in an
optional ``events`` counter, the branches a family of test matrices takes:
``fill`` (an entry created in a row), ``nonunit`` (a pivot that is not a
unit), ``unitrow`` (a +-1 pivot whose row holds other entries once its
column is clear, which the library clears in one pass), ``promote`` (a
remainder promoted to pivot) and ``fold`` (a row folded into a non-unit
pivot row).
"""

from __future__ import annotations

from collections import Counter
from typing import Dict, List, Optional, Tuple

Row = Dict[int, int]


def _sub(dst: Row, src: Row, q: int) -> None:
    """``dst -= q * src`` for a nonzero ``q``, dropping the entries that
    cancel."""
    for c, v in src.items():
        x = dst.get(c, 0) - q * v
        if x:
            dst[c] = x
        else:
            del dst[c]


def eliminate(
    rows: List[Row],
    cols: int,
    want_u: bool = False,
    want_v: bool = False,
    events: Optional[Counter] = None,
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
                    if events is not None:
                        events["fill"] += sum(1 for c in prow if c not in row)
                    _sub(row, prow, q)
                    if u is not None:
                        _sub(u[i], u[t], q)
                if ct in row:
                    # remainder smaller than |p|: promote it to pivot
                    if events is not None:
                        events["promote"] += 1
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
                    if events is not None and (p == 1 or p == -1):
                        events["unitrow"] += 1
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
                if events is not None:
                    events["nonunit"] += 1
                for i in range(t + 1, nrows):
                    if any(v % p for v in rows[i].values()):
                        if events is not None:
                            events["fold"] += 1
                            events["fill"] += sum(1 for c in rows[i] if c not in prow)
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
