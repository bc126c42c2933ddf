"""Tensor-algebra references for the Lie brackets the library computes from
Lyndon structure constants.

Each function here expands its Lie inputs into the tensor algebra, brackets
there as ``xy - yx`` and reads the result back with the triangular
elimination of ``lyndon_coords``.  That is the route the library took before
it bracketed Lyndon words directly; the tests keep it as an independent
reference.
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
    for coeff, w in zip(elem.coords, hall_basis(elem.n, elem.degree).words):
        if coeff == 0:
            continue
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
    elem = tensor_to_lyndon(tensor, n, degree)
    return {w: c for w, c in zip(hall_basis(n, degree).words, elem.coords) if c}


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
            for i, c in enumerate(elem.coords):
                coords[a * w + i] += vec[a] * c
    return TensorElement(g.n, k, tuple(coords))
