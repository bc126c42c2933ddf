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
* explicit integer linear algebra on the contraction matrix (Smith normal
  form), which also yields a saturated integer basis of the kernel.

Coordinates are generator-major: the coefficient of ``e_a (x) P_u`` lives at
index ``a * W(n, k+1) + (index of u)`` over the ordered Lyndon basis.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb
from typing import Dict, List, Sequence, Tuple

from .errors import InvariantError, PreconditionError, ValidationError
from .lie import (
    LieElement,
    Tensor,
    basis_expansion,
    embed_lie,
    hall_basis,
    lie_map,
    lie_to_tensor,
    lyndon_coords,
    tensor_bracket,
    witt_dimension,
)
from .snf import Matrix, Row, eliminate

# Cells of the largest contraction matrix built: (6, 3) has 2.9 million and
# its kernel basis takes about a second, (10, 2) has 8.2 million.  The matrix
# route keeps only nonzero entries, so the bound guards its time and the size
# of its output (a basis of about rank x columns entries), not a dense
# allocation; it is checked before anything is built.
MAX_MATRIX_CELLS = 4 * 10**6


@dataclass(frozen=True)
class TensorElement:
    """Element of (rank-``n`` lattice) tensor (degree ``k+1`` Lie part)."""

    n: int
    level: int
    coords: Tuple[int, ...]

    def __post_init__(self):
        if self.level < 1:
            raise ValidationError("level must be at least 1")
        expected = self.n * witt_dimension(self.n, self.level + 1)
        if len(self.coords) != expected:
            raise ValidationError(
                "coordinate length %d does not match n*W = %d" % (len(self.coords), expected)
            )

    @classmethod
    def zero(cls, n: int, level: int) -> "TensorElement":
        return cls(n, level, (0,) * (n * witt_dimension(n, level + 1)))

    @property
    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coords)

    def _check(self, other: "TensorElement"):
        if self.n != other.n or self.level != other.level:
            raise ValidationError("mixed ranks or levels")

    def __add__(self, other: "TensorElement") -> "TensorElement":
        self._check(other)
        return TensorElement(
            self.n, self.level, tuple(a + b for a, b in zip(self.coords, other.coords))
        )

    def __sub__(self, other: "TensorElement") -> "TensorElement":
        self._check(other)
        return TensorElement(
            self.n, self.level, tuple(a - b for a, b in zip(self.coords, other.coords))
        )

    def __neg__(self) -> "TensorElement":
        return self.scale(-1)

    def scale(self, c: int) -> "TensorElement":
        return TensorElement(self.n, self.level, tuple(c * a for a in self.coords))

    def component(self, a: int) -> LieElement:
        """The Lie part tensored with generator ``a``."""
        w = witt_dimension(self.n, self.level + 1)
        return LieElement(self.n, self.level + 1, self.coords[a * w : (a + 1) * w])

    def components(self) -> List[LieElement]:
        return [self.component(a) for a in range(self.n)]


def tensor_from_components(n: int, level: int, parts: Dict[int, LieElement]) -> TensorElement:
    """Build an element from a map ``generator index -> Lie part``."""
    w = witt_dimension(n, level + 1)
    coords = [0] * (n * w)
    for a, elem in parts.items():
        if not 0 <= a < n:
            raise ValidationError("generator index out of range")
        if elem.n != n or elem.degree != level + 1:
            raise ValidationError("Lie part has wrong rank or degree")
        for i, c in enumerate(elem.coords):
            coords[a * w + i] += c
    return TensorElement(n, level, tuple(coords))


def bracket_map(t: TensorElement) -> LieElement:
    """Contract ``e_a (x) P  ->  [e_a, P]``, landing in degree ``level + 2``."""
    out: Tensor = {}
    for a in range(t.n):
        part = t.component(a)
        if not part.is_zero:
            tensor_bracket({(a,): 1}, lie_to_tensor(part), out)
    # Built from validated Lie parts, so homogeneous over the n letters.
    return LieElement.from_sparse(t.n, t.level + 2, lyndon_coords(out, t.n, t.level + 2))


def _bracket_rows(n: int, k: int) -> Tuple[List[Row], int]:
    """The contraction matrix as sparse rows (column index to nonzero
    entry), and its column count.  Raises ``PreconditionError`` past
    ``MAX_MATRIX_CELLS`` cells, before anything is built."""
    if k < 1:
        raise ValidationError("level must be at least 1")
    rows = witt_dimension(n, k + 2)
    cells = n * witt_dimension(n, k + 1) * rows
    if cells > MAX_MATRIX_CELLS:
        raise PreconditionError(
            "contraction matrix at (n, k) = (%d, %d) has %d cells, over the bound of %d"
            % (n, k, cells, MAX_MATRIX_CELLS)
        )
    src = hall_basis(n, k + 1).words
    out: List[Row] = [{} for _ in range(rows)]
    for a in range(n):
        for j, u in enumerate(src):
            col = a * len(src) + j
            # Built from a basis expansion, so homogeneous over the n letters.
            image = lyndon_coords(tensor_bracket({(a,): 1}, basis_expansion(u)), n, k + 2)
            for r, c in image.items():
                out[r][col] = c
    return out, n * len(src)


def bracket_matrix(n: int, k: int) -> Matrix:
    """Matrix of the contraction in the ordered bases.

    Rows are indexed by the degree ``k+2`` Lyndon basis, columns by the
    generator-major pairs ``(a, u)`` with ``u`` in the degree ``k+1`` basis.
    Raises ``PreconditionError`` past ``MAX_MATRIX_CELLS`` cells.
    """
    rows, cols = _bracket_rows(n, k)
    matrix = [[0] * cols for _ in rows]
    for out, row in zip(matrix, rows):
        for c, x in row.items():
            out[c] = x
    return matrix


def dk_rank(n: int, k: int, method: str = "formula") -> int:
    """Rank of the contraction kernel at level ``k`` over ``n`` generators.

    ``method="formula"`` uses the closed form ``n*W(n,k+1) - W(n,k+2)``;
    ``method="matrix"`` recomputes it from the rank of the explicit matrix.
    The two agree because the contraction is onto (checked in the tests and
    the acceptance gate, never assumed by the matrix route).
    """
    if n < 1 or k < 1:
        raise ValidationError("need n >= 1 and k >= 1")
    if method == "formula":
        return n * witt_dimension(n, k + 1) - witt_dimension(n, k + 2)
    if method == "matrix":
        rows, cols = _bracket_rows(n, k)
        diagonal = eliminate(rows, cols)[0]
        return cols - sum(1 for d in diagonal if d)
    raise ValidationError("unknown method %r" % (method,))


def dk_basis(n: int, k: int) -> List[TensorElement]:
    """Saturated integer basis of the contraction kernel at level ``k``:
    the columns of the Smith form's ``V`` at zero diagonal places."""
    rows, cols = _bracket_rows(n, k)
    diagonal, _, vt = eliminate(rows, cols, want_v=True)
    diagonal += [0] * (cols - len(diagonal))
    out = []
    for d, col in zip(diagonal, vt):
        if d == 0:
            coords = [0] * cols
            for i, x in col.items():
                coords[i] = x
            out.append(TensorElement(n, k, tuple(coords)))
    for elem in out:
        if not bracket_map(elem).is_zero:
            raise InvariantError("kernel basis vector fails the contraction")
    return out


def a1_dimensions(g: int) -> Tuple[int, int]:
    """Level-one kernel rank over ``2g`` generators, paired with the rank of
    the codomain it injects into for the classical comparison table:
    ``binom(2g,2) + 2g + 1``."""
    if g < 1:
        raise ValidationError("genus must be positive")
    return dk_rank(2 * g, 1), comb(2 * g, 2) + 2 * g + 1


def embed_tensor(t: TensorElement, n_target: int, shift: int) -> TensorElement:
    """Push a tensor element along the inclusion ``e_a -> e_(a+shift)``."""
    parts: Dict[int, LieElement] = {}
    for a in range(t.n):
        comp = t.component(a)
        if comp.is_zero:
            continue
        parts[a + shift] = embed_lie(comp, n_target, shift)
    return tensor_from_components(n_target, t.level, parts)


def map_tensor_first(matrix: Sequence[Sequence[int]], t: TensorElement) -> TensorElement:
    """Transform the generator factor by the transpose action of ``matrix``.

    ``matrix`` is the ``n x n`` integer matrix of a lattice map written on
    generators (row ``i`` lists the coordinates of the image of ``e_i``); the
    induced substitution on the first tensor factor sends the coefficient
    vector ``c_a`` to ``sum_a matrix[a][m] c_a`` at slot ``m``.
    """
    n = t.n
    if len(matrix) != n or any(len(row) != n for row in matrix):
        raise ValidationError("matrix shape does not match the tensor rank")
    w = witt_dimension(n, t.level + 1)
    coords = [0] * (n * w)
    for a in range(n):
        block = t.coords[a * w : (a + 1) * w]
        if not any(block):
            continue
        for m in range(n):
            f = matrix[a][m]
            if f == 0:
                continue
            base = m * w
            for i, c in enumerate(block):
                if c:
                    coords[base + i] += f * c
    return TensorElement(n, t.level, tuple(coords))


def map_tensor_second(matrix: Sequence[Sequence[int]], t: TensorElement) -> TensorElement:
    """Transform the Lie factor by the ring map induced by ``matrix``."""
    parts: Dict[int, LieElement] = {}
    for a in range(t.n):
        comp = t.component(a)
        if comp.is_zero:
            continue
        parts[a] = lie_map(matrix, comp, t.n)
    return tensor_from_components(t.n, t.level, parts)


def tensor_to_json(t: TensorElement) -> dict:
    return {"n": t.n, "k": t.level, "coords": list(t.coords)}


def tensor_from_json(data: dict) -> TensorElement:
    try:
        return TensorElement(
            int(data["n"]), int(data["k"]), tuple(int(c) for c in data["coords"])
        )
    except (KeyError, TypeError) as exc:
        raise ValidationError("bad tensor element payload: %s" % (exc,))
