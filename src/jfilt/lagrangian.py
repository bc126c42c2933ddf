"""The Lagrangian-side filtration, its obstruction tensor, and rank gaps.

``project_y`` (kill every x-letter) is a retraction of the full free group
onto the rank-``g`` subgroup generated by the y's.  An automorphism ``h``
sits at Lagrangian degree ``k`` when every ``project_y(h(x_i))`` has lower
central series weight at least ``k+1``; the leading classes assemble into
the tensor

    jl(h, k) = sum_i  y_i (x) [project_y(h(x_i))]_{k+1}

living in ``H' (x) L_{k+1}(H')`` with ``H'`` of rank ``g``.  Unlike the
full obstruction tensor in :mod:`jfilt.automorphisms`, this one needs no
boundary-stabilizer hypothesis, which buys a composition law with matrix
twists on both slots (``cocycle_check``) instead of plain additivity.

The rank side compares the contraction kernel over ``H'`` with the span
``r(g, k)`` contributed by pure-braid-like automorphisms supported on
proper sub-alphabets; the difference ("gap") has closed forms for small
``k`` which ``gap_table`` tabulates and cross-checks.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from .automorphisms import NilAut, compose
from .brackets import (
    TensorElement,
    bracket_map,
    dk_rank,
    map_tensor_first,
    map_tensor_second,
    tensor_from_components,
)
from .errors import InvariantError, PreconditionError
from .lie import tensor_to_lyndon, witt_dimension
from .snf import Matrix, identity_matrix, transpose
from .words import lcs_weight, magnus_expand, project_y

__all__ = [
    "LagrangianReport",
    "lagrangian_degree",
    "jl_element",
    "cocycle_check",
    "pure_braid_rank",
    "gap_closed_form",
    "gap_table",
]


@dataclass(frozen=True)
class LagrangianReport:
    """Outcome of a ``jl_element`` computation."""

    genus: int
    k: int
    value: TensorElement  # over the rank-g y-alphabet, Lie degree k+1
    in_hat: bool  # induced matrix on the y-span is the identity


def lagrangian_degree(h: NilAut) -> int:
    """Largest ``k`` such that every ``project_y(h(x_i))`` has weight at
    least ``k+1``, capped at ``h.level - 1`` (the deepest weight the working
    level can certify)."""
    g = h.genus
    return min(lcs_weight(project_y(h.images[i]), h.level) for i in range(g)) - 1


def _y_block(h: NilAut) -> Matrix:
    """Rows ``m``: exponent vector of the y-part of ``h(y_m)``."""
    g = h.genus
    ab = h.abelianization()
    return [row[g:] for row in ab[g:]]


def _x_block(h: NilAut) -> Matrix:
    """Rows ``i``: exponent vector of the x-part of ``h(x_i)``."""
    g = h.genus
    ab = h.abelianization()
    return [row[:g] for row in ab[:g]]


def jl_element(h: NilAut, k: int) -> LagrangianReport:
    """Degree-``k`` Lagrangian obstruction tensor of ``h``.

    Preconditions: ``k >= 1``, working level at least ``k+2`` (so the
    degree-``(k+1)`` classes are meaningful), and ``lagrangian_degree(h)``
    at least ``k``.
    """
    if k < 1:
        raise PreconditionError("jl_element: k must be at least 1")
    if h.level < k + 2:
        raise PreconditionError(
            "jl_element: level %d is below k+2 = %d" % (h.level, k + 2)
        )
    g = h.genus
    classes = {}
    for i in range(g):
        # One expansion at the working level serves both the degree check
        # (what lagrangian_degree reads) and the degree-(k+1) class (what
        # graded_class reads), since truncation keeps lower degrees as they are.
        series = magnus_expand(project_y(h.images[i]), h.level)
        low = series.lowest_positive_degree()
        if low is not None and low <= k:
            raise PreconditionError("jl_element: lagrangian degree is below k = %d" % k)
        classes[i] = tensor_to_lyndon(series.homogeneous(k + 1), g, k + 1)
    value = tensor_from_components(g, k, classes)
    in_hat = _y_block(h) == identity_matrix(g)
    if in_hat and h._aut0_known is True:
        # Kernel membership is a theorem for boundary-fixing elements with
        # trivial induced action; it can genuinely fail without the boundary
        # hypothesis (e.g. compose a conjugating family member with the
        # transvection x1 -> x1 x2), so the check only runs when the
        # boundary property is already established.
        if not bracket_map(value).is_zero:
            raise InvariantError("hat-type obstruction left the kernel")
    return LagrangianReport(g, k, value, in_hat)


def cocycle_check(h1: NilAut, h2: NilAut, k: int) -> bool:
    """Verify the twisted composition law of ``jl`` at degree ``k``:

        jl(h1 o h2) = B2^T . jl(h1)  +  (A1 acting on the Lie slot) jl(h2)

    where ``B2`` is the matrix of ``h2`` on the x-span and ``A1`` the matrix
    of ``h1`` on the y-span.  The first term redistributes the strand index
    through ``h2``'s x-letters; the second pushes ``h2``'s obstruction
    through the substitution ``y -> h1(y)``.
    """
    j1 = jl_element(h1, k).value
    j2 = jl_element(h2, k).value
    j12 = jl_element(compose(h1, h2), k).value
    predicted = map_tensor_first(transpose(_x_block(h2)), j1) + map_tensor_second(
        _y_block(h1), j2
    )
    return j12 == predicted


def pure_braid_rank(g: int, k: int) -> int:
    """``r(g, k) = sum_{j=1}^{g-1} witt_dimension(j, k+1)``: the rank of the
    degree-``k`` span realized by automorphisms supported on nested proper
    sub-alphabets."""
    if g < 1 or k < 1:
        raise PreconditionError("pure_braid_rank: need g >= 1 and k >= 1")
    return sum(witt_dimension(j, k + 1) for j in range(1, g))


def gap_closed_form(g: int, k: int) -> Optional[int]:
    """Closed form for ``dk_rank(g, k) - pure_braid_rank(g, k)`` at small
    ``k``; ``None`` when no closed form is on record."""
    if k == 1:
        return 0
    if k == 2:
        return (g**3 - g) // 6
    if k == 3:
        return (g**3 - g) * (g - 2) // 8
    return None


# Rows ``jfilt lagrangian gap-table`` accepts: each costs O(k) here, and the
# largest table allowed prints in a few seconds.
MAX_GAP_ROWS = 10**5


def gap_table(pairs: Sequence[Tuple[int, int]]) -> List[Dict[str, object]]:
    """One row per ``(g, k)``: kernel rank, braid-span rank, their gap, the
    closed form when known, and whether the two agree."""
    rows: List[Dict[str, object]] = []
    # k -> (g, pure_braid_rank(g, k)) of the last row at that k, so a run of
    # consecutive g adds one term per row instead of re-summing g terms.
    last: Dict[int, Tuple[int, int]] = {}
    for g, k in pairs:
        kernel = dk_rank(g, k)
        prev = last.get(k)
        if prev is not None and prev[0] == g - 1:
            braid = prev[1] + witt_dimension(g - 1, k + 1)
        else:
            braid = pure_braid_rank(g, k)
        last[k] = (g, braid)
        gap = kernel - braid
        closed = gap_closed_form(g, k)
        rows.append(
            {
                "g": g,
                "k": k,
                "kernel_rank": kernel,
                "braid_rank": braid,
                "gap": gap,
                "closed_form": closed,
                "match": None if closed is None else (gap == closed),
            }
        )
    return rows
