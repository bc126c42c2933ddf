"""Tensor-algebra references for the Lie brackets the library computes from
Lyndon structure constants.

Each function here expands its Lie inputs into the tensor algebra, brackets
there as ``xy - yx`` and reads the result back with the triangular
elimination of ``lyndon_coords``.  That is the route the library took before
it bracketed Lyndon words directly; the tests keep it as an independent
reference.  The dense helpers at the end build elements from, and read them
back to, generator-major coordinate tuples by index arithmetic, the layout
the elements stored before they kept only their nonzero terms.
"""

from __future__ import annotations

from jfilt.brackets import TensorElement
from jfilt.lie import (
    LieElement,
    Tensor,
    basis_expansion,
    hall_basis,
    tensor_bracket,
    tensor_to_lyndon,
    witt_dimension,
)
from jfilt.trees import TRIVALENT, UNIVALENT, ClasperGraph, validate


def lie_to_tensor(elem: LieElement) -> Tensor:
    out: Tensor = {}
    for w, coeff in elem.terms.items():
        for m, c in basis_expansion(w).items():
            val = out.get(m, 0) + coeff * c
            if val:
                out[m] = val
            elif m in out:
                del out[m]
    return out


def lyndon_of(u, v):
    """``[P_u, P_v]`` as a dict from Lyndon word to coefficient, through the
    tensor algebra."""
    n = max(u + v) + 1
    degree = len(u) + len(v)
    tensor = tensor_bracket(basis_expansion(u), basis_expansion(v))
    return dict(tensor_to_lyndon(tensor, n, degree).terms)


def lie_bracket(u: LieElement, v: LieElement) -> LieElement:
    tensor = tensor_bracket(lie_to_tensor(u), lie_to_tensor(v))
    return tensor_to_lyndon(tensor, u.n, u.degree + v.degree)


def lie_map(matrix, elem: LieElement, n_target: int) -> LieElement:
    """Substitute every letter of every monomial of the expansion by the
    matrix column of its generator, then read back."""
    out: Tensor = {}
    for m, c in lie_to_tensor(elem).items():
        stage: Tensor = {(): c}
        for letter in m:
            nxt: Tensor = {}
            for prefix, pc in stage.items():
                for i in range(n_target):
                    entry = matrix[i][letter]
                    if entry:
                        key = prefix + (i,)
                        nxt[key] = nxt.get(key, 0) + pc * entry
            stage = nxt
        for pm, pc in stage.items():
            out[pm] = out.get(pm, 0) + pc
    return tensor_to_lyndon({m: c for m, c in out.items() if c}, n_target, elem.degree)


def _evaluator(g: ClasperGraph):
    partner = {}
    for a, b in g.edges:
        partner[a] = b
        partner[b] = a
    arity = g.arity_map()
    cyc = g.cyclic_map()
    labels = g.label_map()

    def eval_from(h) -> Tensor:
        far = partner[h]
        vid = far[0]
        if arity[vid] == UNIVALENT:
            return {(a,): c for a, c in enumerate(labels[vid]) if c}
        order = cyc[vid]
        pos = order.index(far)
        return tensor_bracket(eval_from(order[(pos + 1) % 3]), eval_from(order[(pos + 2) % 3]))

    return lambda root: eval_from((root, 0))


def rooted_bracket(g: ClasperGraph, root: str) -> LieElement:
    degree = validate(g).degree
    return tensor_to_lyndon(_evaluator(g)(root), g.n, degree + 1)


def tree_to_dk(g: ClasperGraph) -> TensorElement:
    """Sum of ``label (x) rooted bracket`` over the leaves, with no kernel
    check."""
    k = sum(1 for _, a in g.vertices if a == TRIVALENT)
    w = witt_dimension(g.n, k + 1)
    coords = [0] * (g.n * w)
    evaluate = _evaluator(g)
    for vid, vec in g.label_map().items():
        elem = tensor_to_lyndon(evaluate(vid), g.n, k + 1)
        for a in range(g.n):
            for i, c in enumerate(dense_coords(elem)):
                coords[a * w + i] += vec[a] * c
    return tensor_from_coords(g.n, k, coords)


def lie_from_coords(n: int, degree: int, coords) -> LieElement:
    """The element with the given coordinates over the Lyndon basis."""
    words = hall_basis(n, degree).words
    assert len(coords) == len(words)
    return LieElement(n, degree, {w: c for w, c in zip(words, coords) if c})


def tensor_from_coords(n: int, level: int, coords) -> TensorElement:
    """The element whose coefficient of ``e_a (x) P_u`` sits at index
    ``a * W(n, level+1) + (index of u)``."""
    words = hall_basis(n, level + 1).words
    assert len(coords) == n * len(words)
    w = len(words)
    return TensorElement(n, level, {(i // w, words[i % w]): c for i, c in enumerate(coords) if c})


def dense_coords(elem) -> tuple:
    """The generator-major coordinates of a Lie or tensor element."""
    if isinstance(elem, LieElement):
        basis = hall_basis(elem.n, elem.degree)
        out = [0] * len(basis.words)
        for u, c in elem.terms.items():
            out[basis.index(u)] = c
        return tuple(out)
    basis = hall_basis(elem.n, elem.level + 1)
    w = len(basis.words)
    out = [0] * (elem.n * w)
    for (a, u), c in elem.terms.items():
        out[a * w + basis.index(u)] = c
    return tuple(out)
