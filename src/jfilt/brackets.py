"""The bracket contraction on generator-tensor-Lie elements and its kernel.

An element of level ``k`` is a sum of simple tensors ``e_a (x) P`` where
``e_a`` is one of the ``n`` degree-one generators and ``P`` is a homogeneous
Lie element of degree ``k + 1`` over the same generators.  The bracket
contraction sends ``e_a (x) P`` to ``[e_a, P]`` in degree ``k + 2``; its
kernel is the lattice the rest of the package keeps landing in (tree images,
obstruction classes of automorphisms, string-link invariants), so this module
provides exact rank and basis computations for that kernel by two independent
routes:

* a closed-form count ``n * W(n, k+1) - W(n, k+2)`` using the graded
  dimensions ``W`` of the free Lie ring, valid because the contraction is
  surjective (left-normed brackets are in the image); and
* explicit integer linear algebra (Smith elimination).  The contraction
  keeps letter content, and an order-preserving map of letters sends Lyndon
  words to Lyndon words, so its matrix is block-diagonal by content, and the
  block of a content on ``l`` letters is that of its composition on the
  letters ``0..l-1``; ``_block_rows`` builds every block eliminated.  The
  rank route weights each partition's nullity by the number of contents of
  that shape.  The basis route eliminates the blocks of all compositions
  into ``l`` parts at once, for each ``l``, and pushes each kernel column of
  ``V`` along every order-preserving map of ``0..l-1`` into the generators.

An element stores only its nonzero coefficients, keyed by the pair
``(a, u)`` of a generator and a Lyndon word.  The generator-major index
``a * W(n, k+1) + (index of u)`` over the ordered Lyndon basis is only the
layout of the dense view ``TensorElement.coords``, of JSON, and of the
columns of ``bracket_matrix``.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from math import comb, factorial, perm
from typing import Dict, Iterator, List, Sequence, Tuple

from .errors import InvariantError, PreconditionError, ValidationError, payload_fields
from .lie import (
    Content,
    LieElement,
    Monomial,
    SparseElement,
    Words,
    _basis_index,
    _terms_index,
    hall_basis,
    lie_map,
    lyndon_bracket,
    lyndon_words_with_content,
    witt_content_dimension,
    witt_dimension,
)
from .snf import Matrix, Row, eliminate, is_identity_matrix

# Cells of each block eliminated and of each dense array returned, checked
# from the Witt counts before anything is built.  Blocks, per partition of
# k+2 (`_content_blocks`): content 1^7 at k = 5 has 720 x 840 = 604,800, and
# 1^8 at k = 6 has 29 million, so (8, 6) is refused.  Dense arrays:
# `bracket_matrix`, and the `coords` of a `dk_basis`, dk_rank(n, k) x
# n W(n, k+1): 336 x 1,890 at (6, 3) (7 MB from `jfilt dk basis 6 3`) and
# 2.7 million at (10, 2); (11, 2) and (8, 3) are refused.  Elimination keeps
# only nonzero entries, so the bound guards time and output size.
MAX_MATRIX_CELLS = 4 * 10**6


@dataclass(frozen=True, eq=False, repr=False)
class TensorElement(SparseElement):
    """Element of (rank-``n`` lattice) tensor (degree ``k+1`` Lie part):
    ``(a, u)`` -> nonzero coefficient of ``e_a (x) P_u``."""

    n: int
    level: int
    terms: Dict[Tuple[int, Monomial], int]

    def __post_init__(self):
        if self.level < 1:
            raise ValidationError("level must be at least 1")
        index = _terms_index(self.terms, self.n, self.level + 1)
        n = self.n
        try:
            for (a, u), c in self.terms.items():
                if not (c and 0 <= a < n and u in index):
                    break
            else:
                return
        except (TypeError, ValueError):
            pass
        raise ValidationError("terms hold a key outside the basis or a zero coefficient")

    def _shape(self) -> Tuple[int, int]:
        return self.n, self.level

    @property
    def coords(self) -> Tuple[int, ...]:
        """The dense view, generator-major (see the module docstring)."""
        words = hall_basis(self.n, self.level + 1).words
        return tuple(self.terms.get((a, u), 0) for a in range(self.n) for u in words)

    def component(self, a: int) -> LieElement:
        """The Lie part tensored with generator ``a``."""
        terms = {u: c for (b, u), c in self.terms.items() if b == a}
        return LieElement(self.n, self.level + 1, terms)


def tensor_from_components(n: int, level: int, parts: Dict[int, LieElement]) -> TensorElement:
    """Build an element from a map ``generator index -> Lie part``."""
    terms = {}
    for a, elem in parts.items():
        if not 0 <= a < n:
            raise ValidationError("generator index out of range")
        if elem.n != n or elem.degree != level + 1:
            raise ValidationError("Lie part has wrong rank or degree")
        for u, c in elem.terms.items():
            terms[a, u] = c
    return TensorElement(n, level, terms)


def _contract(terms: Dict[Tuple[int, Monomial], int]) -> Words:
    """The contraction of the element with ``terms``, as Lyndon word to
    nonzero coefficient: empty exactly when the element is in the kernel."""
    out: Words = {}
    for (a, u), c in terms.items():
        for x, d in lyndon_bracket((a,), u):
            val = out.get(x, 0) + c * d
            if val:
                out[x] = val
            else:
                del out[x]
    return out


def bracket_map(t: TensorElement) -> LieElement:
    """Contract ``e_a (x) P  ->  [e_a, P]``, landing in degree ``level + 2``."""
    return LieElement(t.n, t.level + 2, _contract(t.terms))


def _check_cells(what: str, n: int, k: int, rows: int, cols: int) -> None:
    """Refuse an array of ``rows x cols`` cells past ``MAX_MATRIX_CELLS``."""
    if rows * cols > MAX_MATRIX_CELLS:
        raise PreconditionError(
            "%s at (n, k) = (%d, %d) has %d cells, over the bound of %d"
            % (what, n, k, rows * cols, MAX_MATRIX_CELLS)
        )


def bracket_matrix(n: int, k: int) -> Matrix:
    """Dense matrix of the contraction, a view that nothing in the package
    eliminates: rows are indexed by the degree ``k+2`` Lyndon basis, columns
    by the generator-major pairs ``(a, u)`` with ``u`` in the degree ``k+1``
    basis.  Raises ``PreconditionError`` past ``MAX_MATRIX_CELLS`` cells."""
    if k < 1:
        raise ValidationError("level must be at least 1")
    cols = n * witt_dimension(n, k + 1)
    _check_cells("contraction matrix", n, k, witt_dimension(n, k + 2), cols)
    index = _basis_index(n, k + 2)
    matrix = [[0] * cols for _ in index]
    keys = ((a, u) for a in range(n) for u in hall_basis(n, k + 1).words)
    for col, (a, u) in enumerate(keys):
        for w, c in lyndon_bracket((a,), u):
            matrix[index[w]][col] = c
    return matrix


def _partitions(total: int, parts: int, largest: int) -> Iterator[Tuple[int, ...]]:
    """The partitions of ``total`` into at most ``parts`` parts of at most
    ``largest`` each, as non-increasing tuples."""
    if total == 0:
        yield ()
    elif parts:
        for first in range(min(total, largest), 0, -1):
            for rest in _partitions(total - first, parts - 1, first):
                yield (first,) + rest


def _content_blocks(n: int, k: int) -> List[Tuple[Content, int]]:
    """Each partition ``shape`` of ``k + 2`` into at most ``n`` parts, as the
    content of its block's rows on the letters ``0..len(shape)-1``, with the
    number of contents over ``n`` letters that permute to it.  Checked from
    the Witt counts alone: every block within ``MAX_MATRIX_CELLS`` cells
    (else ``PreconditionError``), and the weighted row and column counts
    equal to the whole matrix's (else ``InvariantError``)."""
    blocks = []
    rows_total = cols_total = 0
    for shape in _partitions(k + 2, n, k + 2):
        rows = witt_content_dimension(shape)
        cols = sum(witt_content_dimension(_less(shape, a)) for a in range(len(shape)))
        _check_cells("contraction block of content %r" % (shape,), n, k, rows, cols)
        weight = perm(n, len(shape))
        for part in set(shape):
            weight //= factorial(shape.count(part))
        rows_total += weight * rows
        cols_total += weight * cols
        blocks.append((shape, weight))
    if (rows_total, cols_total) != (witt_dimension(n, k + 2), n * witt_dimension(n, k + 1)):
        raise InvariantError("content blocks at (n, k) = (%d, %d) do not tile the matrix" % (n, k))
    return blocks


def _less(content: Content, a: int) -> Content:
    """``content`` with one fewer letter ``a``."""
    return content[:a] + (content[a] - 1,) + content[a + 1:]


def _block_rows(
    letters: int, k: int, contents: Sequence[Content]
) -> Tuple[List[Row], List[Tuple[int, Monomial]]]:
    """The contraction restricted to ``contents``, each of size ``k + 2`` on
    the letters ``0..letters-1``, as sparse rows (column index to nonzero
    entry) and the ``(a, u)`` key of each column.  Rows are the Lyndon words
    of each content in turn, in the basis order, and column ``j`` holds
    ``[e_a, P_u]`` for ``(a, u) = keys[j]``."""
    above = lyndon_words_with_content(letters, k + 2)
    below = lyndon_words_with_content(letters, k + 1)
    index = {w: i for i, w in enumerate(w for c in contents for w in above.get(c, ()))}
    keys = [(a, u) for c in contents for a in range(letters) for u in below.get(_less(c, a), ())]
    rows: List[Row] = [{} for _ in index]
    for col, (a, u) in enumerate(keys):
        for w, x in lyndon_bracket((a,), u):
            rows[index[w]][col] = x
    return rows, keys


def dk_rank(n: int, k: int, method: str = "formula") -> int:
    """Rank of the contraction kernel at level ``k`` over ``n`` generators.

    ``method="formula"`` uses the closed form ``n*W(n,k+1) - W(n,k+2)``.
    ``method="matrix"`` recomputes it by elimination, one block per
    partition of ``k+2`` into at most ``n`` parts, on the letters ``0..l-1``
    of its ``l`` parts, whose nullity counts once for each content of that
    shape.  The two methods agree because the contraction is onto (checked
    in the tests and the acceptance gate, never assumed by the matrix route).
    """
    if n < 1 or k < 1:
        raise ValidationError("need n >= 1 and k >= 1")
    if method == "formula":
        return n * witt_dimension(n, k + 1) - witt_dimension(n, k + 2)
    if method != "matrix":
        raise ValidationError("unknown method %r" % (method,))
    nullity = 0
    for shape, weight in _content_blocks(n, k):
        rows, keys = _block_rows(len(shape), k, [shape])
        diagonal = eliminate(rows, len(keys))[0]
        nullity += weight * (len(keys) - sum(1 for d in diagonal if d))
    return nullity


def dk_basis(n: int, k: int) -> List[TensorElement]:
    """Saturated integer basis of the contraction kernel at level ``k`` by
    the basis route of the module docstring, ordered by ``l``, then by letter
    set, then by kernel order; each vector is checked to contract to zero.
    A block or the ``coords`` past ``MAX_MATRIX_CELLS`` is refused before
    any is built."""
    rank = dk_rank(n, k)
    _check_cells("kernel basis", n, k, rank, n * witt_dimension(n, k + 1))
    _content_blocks(n, k)  # refuses a block past the bound
    out = []
    for letters in range(1, min(n, k + 2) + 1):
        contents = [c for c in lyndon_words_with_content(letters, k + 2) if min(c)]
        rows, keys = _block_rows(letters, k, contents)
        diagonal, _, vt = eliminate(rows, len(keys), want_v=True)
        kernel = vt[sum(1 for d in diagonal if d):]  # the zeros come last
        for to in combinations(range(n), letters):
            pushed = [(to[a], tuple([to[x] for x in u])) for a, u in keys]
            for col in kernel:
                terms = {pushed[i]: c for i, c in col.items()}
                if _contract(terms):
                    raise InvariantError("kernel basis vector fails the contraction")
                out.append(TensorElement(n, k, terms))
    if len(out) != rank:
        raise InvariantError("kernel basis at (n, k) = (%d, %d) is not of rank %d" % (n, k, rank))
    return out


def a1_dimensions(g: int) -> Tuple[int, int]:
    """Level-one kernel rank over ``2g`` generators, paired with the rank of
    the codomain it injects into for the classical comparison table:
    ``binom(2g,2) + 2g + 1``."""
    if g < 1:
        raise ValidationError("genus must be positive")
    return dk_rank(2 * g, 1), comb(2 * g, 2) + 2 * g + 1


def embed_tensor(t: TensorElement, n_target: int, shift: int) -> TensorElement:
    """Push a tensor element along the inclusion ``e_a -> e_(a+shift)``.
    Adding a constant to every letter maps Lyndon words to Lyndon words."""
    if shift < 0 or t.n + shift > n_target:
        raise ValidationError("embedding does not fit in the target rank")
    terms = {(a + shift, tuple(x + shift for x in u)): c for (a, u), c in t.terms.items()}
    return TensorElement(n_target, t.level, terms)


def map_tensor_first(matrix: Sequence[Sequence[int]], t: TensorElement) -> TensorElement:
    """Transform the generator factor by the transpose action of ``matrix``.

    ``matrix`` is the ``n x n`` integer matrix of a lattice map written on
    generators (row ``i`` lists the coordinates of the image of ``e_i``); the
    induced substitution on the first tensor factor sends the coefficient
    vector ``c_a`` to ``sum_a matrix[a][m] c_a`` at slot ``m``.  The
    identity returns ``t`` itself.
    """
    n = t.n
    if len(matrix) != n or any(len(row) != n for row in matrix):
        raise ValidationError("matrix shape does not match the tensor rank")
    if is_identity_matrix(matrix):
        return t
    out: Dict[Tuple[int, Monomial], int] = {}
    for (a, u), c in t.terms.items():
        for m, f in enumerate(matrix[a]):
            if f:
                out[m, u] = out.get((m, u), 0) + f * c
    return TensorElement(n, t.level, {key: c for key, c in out.items() if c})


def map_tensor_second(matrix: Sequence[Sequence[int]], t: TensorElement) -> TensorElement:
    """Transform the Lie factor by the ring map induced by ``matrix``.  The
    identity returns ``t`` itself."""
    if len(matrix) == t.n and is_identity_matrix(matrix):
        return t
    parts = {a: lie_map(matrix, t.component(a), t.n) for a in range(t.n)}
    return tensor_from_components(t.n, t.level, parts)


def tensor_to_json(t: TensorElement) -> dict:
    return {"n": t.n, "k": t.level, "coords": list(t.coords)}


def tensor_from_json(data: dict) -> TensorElement:
    """The one dense reader: ``coords`` is a list in the layout of
    ``TensorElement.coords``."""
    n, level, values = payload_fields(data, "tensor element", n=int, k=int, coords=list)
    if not all(type(c) is int for c in values):
        raise ValidationError("bad tensor element payload: coords must be integers")
    expected = n * witt_dimension(n, level + 1)
    if len(values) != expected:
        raise ValidationError(
            "coordinate length %d does not match n*W = %d" % (len(values), expected)
        )
    words = hall_basis(n, level + 1).words
    keys = ((a, u) for a in range(n) for u in words)
    return TensorElement(n, level, {key: c for key, c in zip(keys, values) if c})
