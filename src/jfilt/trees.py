"""Labeled unitrivalent graphs and their images in the bracket kernel.

A graph here has univalent vertices (leaves) carrying integer-vector labels
of rank ``n``, and trivalent vertices carrying a cyclic order of their three
half-edges.  Its degree k is the number of trivalent vertices; a tree of
degree k has k + 2 leaves.  For trees there is a classical evaluation:
rooting at a leaf turns the tree into a nested bracket (reading the two
non-entry branches at each trivalent vertex in cyclic order), and summing
``label (x) rooted bracket`` over all choices of root lands in D_k, the
kernel of the bracket contraction H (x) L_{k+1} -> L_{k+2}.  That landing is
checked on every call.  ``span_check`` certifies that these images fill D_k
at desk scale, using only the labelings of one caterpillar shape: the IHX
relation writes every tree as an integer sum of caterpillars, and AS turns
every change of cyclic order into a sign.  AS also means that only the
labelings with increasing labels on the leaves of each end vertex need
building; the others are zero or minus one of those.

Half-edges are written ``"vertexid.slot"`` in JSON and handled as
``(vertexid, slot)`` tuples internally.  The JSON schema:

    {"n": 3,
     "vertices": [{"id": "s", "arity": "trivalent"}, ...],
     "edges": [["s.0", "l0.0"], ...],
     "cyclic": {"s": ["s.0", "s.1", "s.2"]},
     "labels": {"l0": [1, 0, 0]}}
"""

from __future__ import annotations

import heapq
import random
from dataclasses import dataclass
from itertools import combinations, product
from typing import Callable, Dict, Iterable, Iterator, List, Mapping, Optional, Sequence, Tuple

from .brackets import TensorElement, bracket_map, dk_rank
from .errors import InvariantError, PreconditionError, ValidationError
from .lie import (
    LieElement,
    Tensor,
    lyndon_coords,
    tensor_bracket,
    tensor_to_lyndon,
    witt_dimension,
)
from .snf import integer_rank

Half = Tuple[str, int]

UNIVALENT = 1
TRIVALENT = 3
_ARITY_NAMES = {"univalent": UNIVALENT, "trivalent": TRIVALENT}


def parse_half(text: str) -> Half:
    head, _, tail = text.rpartition(".")
    if not head or not tail.isdigit():
        raise ValidationError("bad half-edge %r, expected 'vertexid.slot'" % (text,))
    return head, int(tail)


def render_half(half: Half) -> str:
    return "%s.%d" % half


@dataclass(frozen=True)
class ClasperGraph:
    n: int
    vertices: Tuple[Tuple[str, int], ...]  # (id, arity)
    edges: Tuple[Tuple[Half, Half], ...]
    cyclic: Tuple[Tuple[str, Tuple[Half, Half, Half]], ...]
    labels: Tuple[Tuple[str, Tuple[int, ...]], ...]

    def arity_map(self) -> Dict[str, int]:
        return dict(self.vertices)

    def cyclic_map(self) -> Dict[str, Tuple[Half, Half, Half]]:
        return dict(self.cyclic)

    def label_map(self) -> Dict[str, Tuple[int, ...]]:
        return dict(self.labels)


@dataclass(frozen=True)
class GraphInfo:
    degree: int
    betti1: int
    is_tree: bool
    connected: bool


def make_graph(
    n: int,
    vertices: Mapping[str, int],
    edges: Iterable[Tuple],
    labels: Mapping[str, Sequence[int]],
    cyclic: Optional[Mapping[str, Sequence]] = None,
) -> ClasperGraph:
    """Canonicalize pythonic inputs; cyclic orders default to slot order."""

    def to_half(h) -> Half:
        if isinstance(h, str):
            return parse_half(h)
        vid, slot = h
        return str(vid), int(slot)

    vtuple = tuple((str(vid), int(arity)) for vid, arity in vertices.items())
    etuple = tuple((to_half(a), to_half(b)) for a, b in edges)
    cyc = {}
    for vid, arity in vtuple:
        if arity != TRIVALENT:
            continue
        if cyclic is not None and vid in cyclic:
            cyc[vid] = tuple(to_half(h) for h in cyclic[vid])
        else:
            cyc[vid] = tuple((vid, s) for s in range(3))
    ltuple = tuple(
        (str(vid), tuple(int(c) for c in vec)) for vid, vec in sorted(labels.items())
    )
    return ClasperGraph(
        n=int(n),
        vertices=vtuple,
        edges=etuple,
        cyclic=tuple(sorted(cyc.items())),
        labels=ltuple,
    )


def clasper_from_json(data: dict) -> ClasperGraph:
    try:
        vertices = {v["id"]: _ARITY_NAMES.get(v["arity"], v["arity"]) for v in data["vertices"]}
        edges = [(a, b) for a, b in data["edges"]]
        labels = data.get("labels", {})
        cyclic = data.get("cyclic")
        if "n" in data:
            n = int(data["n"])
        elif labels:
            n = len(next(iter(labels.values())))
        else:
            n = 0
        return make_graph(n, vertices, edges, labels, cyclic)
    except ValidationError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise ValidationError("bad graph payload: %s" % (exc,))


def clasper_to_json(g: ClasperGraph) -> dict:
    arity_names = {UNIVALENT: "univalent", TRIVALENT: "trivalent"}
    return {
        "n": g.n,
        "vertices": [{"id": vid, "arity": arity_names[a]} for vid, a in g.vertices],
        "edges": [[render_half(a), render_half(b)] for a, b in g.edges],
        "cyclic": {vid: [render_half(h) for h in order] for vid, order in g.cyclic},
        "labels": {vid: list(vec) for vid, vec in g.labels},
    }


def validate(g: ClasperGraph) -> GraphInfo:
    """Structural checks, then (degree, first Betti number, is_tree)."""
    problems: List[str] = []
    arity = {}
    for vid, a in g.vertices:
        if vid in arity:
            problems.append("duplicate vertex id %r" % vid)
        if a not in (UNIVALENT, TRIVALENT):
            problems.append("arity mismatch: vertex %r has arity %r" % (vid, a))
        arity[vid] = a

    seen: Dict[Half, int] = {}
    for idx, (a, b) in enumerate(g.edges):
        for h in (a, b):
            vid, slot = h
            if vid not in arity:
                problems.append("edge %d uses unknown vertex %r" % (idx, vid))
            elif not 0 <= slot < arity[vid]:
                problems.append("arity mismatch: half-edge %s out of range" % render_half(h))
            if h in seen:
                problems.append("half-edge %s used twice" % render_half(h))
            seen[h] = idx
    for vid, a in g.vertices:
        for s in range(a):
            if (vid, s) not in seen:
                problems.append("half-edge %s is unpaired" % render_half((vid, s)))

    cyc = g.cyclic_map()
    for vid, a in g.vertices:
        if a != TRIVALENT:
            continue
        order = cyc.get(vid)
        if order is None:
            problems.append("missing cyclic order at %r" % vid)
        elif sorted(order) != [(vid, 0), (vid, 1), (vid, 2)]:
            problems.append("cyclic order at %r is not a permutation of its half-edges" % vid)

    labels = g.label_map()
    for vid, a in g.vertices:
        if a == UNIVALENT and vid not in labels:
            problems.append("missing label at %r" % vid)
    for vid, vec in g.labels:
        if vid not in arity or arity[vid] != UNIVALENT:
            problems.append("label on non-leaf vertex %r" % vid)
        elif len(vec) != g.n:
            problems.append("label at %r has length %d, expected %d" % (vid, len(vec), g.n))

    if problems:
        raise ValidationError("; ".join(problems))

    # connectivity over vertices via union-find
    parent = {vid: vid for vid, _ in g.vertices}

    def find(v):
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    for (va, _), (vb, _) in g.edges:
        ra, rb = find(va), find(vb)
        if ra != rb:
            parent[ra] = rb
    components = {find(vid) for vid, _ in g.vertices}
    ncomp = len(components) if g.vertices else 0

    comp_has_trivalent = {root: False for root in components}
    for vid, a in g.vertices:
        if a == TRIVALENT:
            comp_has_trivalent[find(vid)] = True
    if not all(comp_has_trivalent.values()) or not g.vertices:
        raise ValidationError("every component needs at least one trivalent vertex")

    betti1 = len(g.edges) - len(g.vertices) + ncomp
    degree = sum(1 for _, a in g.vertices if a == TRIVALENT)
    connected = ncomp == 1
    return GraphInfo(
        degree=degree, betti1=betti1, is_tree=connected and betti1 == 0, connected=connected
    )


def _edge_partner(g: ClasperGraph) -> Dict[Half, Half]:
    out: Dict[Half, Half] = {}
    for a, b in g.edges:
        out[a] = b
        out[b] = a
    return out


def _tree_evaluator(g: ClasperGraph) -> Callable[[str], Tensor]:
    """Rooted-bracket evaluation of a validated tree, on tensors.

    Entering a trivalent vertex through one half-edge, the remaining two in
    cyclic order give (first, second) and the value is their commutator; a
    leaf evaluates to its label vector as a degree-one tensor.
    """
    arity = g.arity_map()
    partner = _edge_partner(g)
    cyc = g.cyclic_map()
    labels = g.label_map()

    def eval_from(h: Half) -> Tensor:
        # value of the subtree on the far side of half-edge h
        far = partner[h]
        vid = far[0]
        if arity[vid] == UNIVALENT:
            return {(a,): c for a, c in enumerate(labels[vid]) if c}
        order = cyc[vid]
        pos = order.index(far)
        return tensor_bracket(eval_from(order[(pos + 1) % 3]), eval_from(order[(pos + 2) % 3]))

    return lambda root: eval_from((root, 0))


def _validate_tree(g: ClasperGraph, caller: str) -> GraphInfo:
    info = validate(g)
    if not info.is_tree:
        raise ValidationError("%s needs a tree" % caller)
    if g.n < 1:
        raise ValidationError("tree has no label rank")
    return info


def rooted_bracket(g: ClasperGraph, root: str) -> LieElement:
    """Evaluate the tree as a nested bracket from the given leaf (see
    ``_tree_evaluator``); the value lies in degree ``degree(g) + 1``."""
    info = _validate_tree(g, "rooted_bracket")
    if g.arity_map().get(root) != UNIVALENT:
        raise ValidationError("root %r is not a univalent vertex" % root)
    return tensor_to_lyndon(_tree_evaluator(g)(root), g.n, info.degree + 1)


def tree_to_dk(g: ClasperGraph) -> TensorElement:
    """Sum of ``label (x) rooted_bracket`` over all leaves; kernel membership
    is checked on the result."""
    k = _validate_tree(g, "tree_to_dk").degree
    evaluate = _tree_evaluator(g)
    w = witt_dimension(g.n, k + 1)
    coords = [0] * (g.n * w)
    for vid, vec in g.label_map().items():
        if all(c == 0 for c in vec):
            continue
        # Evaluated from a validated tree, so homogeneous over the n letters.
        elem = lyndon_coords(evaluate(vid), g.n, k + 1)
        for a in range(g.n):
            if vec[a] == 0:
                continue
            for i, c in elem.items():
                coords[a * w + i] += vec[a] * c
    out = TensorElement(g.n, k, tuple(coords))
    if not bracket_map(out).is_zero:
        raise InvariantError("tree image escaped the contraction kernel")
    return out


def _as_vector(n: int, label) -> Tuple[int, ...]:
    if isinstance(label, int):
        vec = [0] * n
        vec[label] = 1
        return tuple(vec)
    return tuple(int(c) for c in label)


def tripod(n: int, a, b, c) -> ClasperGraph:
    """Single trivalent vertex with three labeled leaves (cyclic order a,b,c).
    Public API, exported from ``jfilt``; nothing inside the package needs it."""
    return make_graph(
        n,
        {"s": TRIVALENT, "l0": UNIVALENT, "l1": UNIVALENT, "l2": UNIVALENT},
        [("s.0", "l0.0"), ("s.1", "l1.0"), ("s.2", "l2.0")],
        {"l0": _as_vector(n, a), "l1": _as_vector(n, b), "l2": _as_vector(n, c)},
    )


def h_tree(n: int, first_pair, second_pair) -> ClasperGraph:
    """Two trivalent vertices joined by an edge; leaves (a,b) at the first
    vertex and (c,d) at the second.  Rooted at the a-leaf the value is
    ``[b, [c, d]]``."""
    a, b = first_pair
    c, d = second_pair
    return make_graph(
        n,
        {
            "s": TRIVALENT,
            "t": TRIVALENT,
            "l0": UNIVALENT,
            "l1": UNIVALENT,
            "l2": UNIVALENT,
            "l3": UNIVALENT,
        },
        [("s.0", "l0.0"), ("s.1", "l1.0"), ("s.2", "t.0"), ("t.1", "l2.0"), ("t.2", "l3.0")],
        {
            "l0": _as_vector(n, a),
            "l1": _as_vector(n, b),
            "l2": _as_vector(n, c),
            "l3": _as_vector(n, d),
        },
    )


def flip_vertex(g: ClasperGraph, vid: str) -> ClasperGraph:
    """Swap the last two half-edges in the cyclic order at one trivalent
    vertex (reverses the local orientation)."""
    cyc = g.cyclic_map()
    if vid not in cyc:
        raise ValidationError("no cyclic order at %r" % vid)
    h0, h1, h2 = cyc[vid]
    cyc[vid] = (h0, h2, h1)
    return ClasperGraph(
        n=g.n,
        vertices=g.vertices,
        edges=g.edges,
        cyclic=tuple(sorted(cyc.items())),
        labels=g.labels,
    )


def _prufer_decode(seq: Sequence[int], k: int) -> List[Tuple[int, int]]:
    degree = [1] * k
    for s in seq:
        degree[s] += 1
    edges = []
    leaves = [i for i in range(k) if degree[i] == 1]
    heapq.heapify(leaves)
    for s in seq:
        leaf = heapq.heappop(leaves)
        edges.append((min(leaf, s), max(leaf, s)))
        degree[s] -= 1
        if degree[s] == 1:
            heapq.heappush(leaves, s)
    u = heapq.heappop(leaves)
    v = heapq.heappop(leaves)
    edges.append((min(u, v), max(u, v)))
    return edges


def assemble_unitrivalent(
    n: int,
    k: int,
    internal_edges: Sequence[Tuple[int, int]],
    leaf_labels: Sequence,
    flips: Sequence[bool] = (),
) -> ClasperGraph:
    """Build a graph from k trivalent vertices ``t0..t{k-1}``, an internal
    edge list (loops and multi-edges allowed), and labels for the leaves that
    fill the remaining slots (ordered by vertex, then slot)."""
    slots_used = {i: 0 for i in range(k)}
    edges = []
    for u, v in internal_edges:
        hu = ("t%d" % u, slots_used[u])
        slots_used[u] += 1
        hv = ("t%d" % v, slots_used[v])
        slots_used[v] += 1
        edges.append((hu, hv))
    vertices = {"t%d" % i: TRIVALENT for i in range(k)}
    labels = {}
    leaf_idx = 0
    for i in range(k):
        if slots_used[i] > 3:
            raise ValidationError("vertex t%d has more than three half-edges" % i)
        while slots_used[i] < 3:
            lid = "l%d" % leaf_idx
            vertices[lid] = UNIVALENT
            if leaf_idx >= len(leaf_labels):
                raise ValidationError("not enough leaf labels")
            labels[lid] = _as_vector(n, leaf_labels[leaf_idx])
            edges.append((("t%d" % i, slots_used[i]), (lid, 0)))
            slots_used[i] += 1
            leaf_idx += 1
    if leaf_idx != len(leaf_labels):
        raise ValidationError("too many leaf labels")
    g = make_graph(n, vertices, edges, labels)
    for i, flip in enumerate(flips):
        if flip:
            g = flip_vertex(g, "t%d" % i)
    return g


def _caterpillar_labelings(n: int, k: int) -> Iterator[Tuple[int, ...]]:
    """Basis labelings of the degree-k caterpillar, one per AS class that
    can be nonzero: the two leaves at each end vertex carry strictly
    increasing labels (all three at k = 1)."""
    if k == 1:
        return combinations(range(n), 3)
    ends = list(combinations(range(n), 2))
    return (
        head + middle + tail
        for head, middle, tail in product(ends, product(range(n), repeat=k - 2), ends)
    )


def span_check(n: int, k: int) -> Tuple[int, int]:
    """The rank over Q of the span of all degree-k tree images, and the rank
    of D_k, for labels of rank n.

    IHX is an integral relation that ``tree_to_dk`` respects, and it rewrites
    every tree as an integer sum of caterpillars (the path t0 - t1 - ... with
    leaves on both ends); AS turns a flip of any vertex into a sign.  So the
    basis labelings of the one caterpillar shape, without flips, span the
    same lattice over Z as every tree with every flip (Levine, "Labeled
    binary planar trees and quasi-Lie algebras", AGT 6, 2006).  AS also cuts
    those labelings down: swapping the labels of two leaves on one vertex
    flips that vertex, so the image changes sign, and is zero when the two
    labels are equal.  Only labelings with strictly increasing labels on the
    two leaves at each end vertex (on all three at k = 1) are built: C(n, 3)
    at k = 1 and C(n, 2)^2 n^(k-2) otherwise, instead of n^(k+2).  Each
    image left out is zero or minus one that is kept, so the lattice, up to
    the sign of its rows, is the same.
    """
    if not (1 <= k <= 6 and 1 <= n and n ** (k + 2) <= 4096):
        raise PreconditionError("span_check needs n >= 1, 1 <= k <= 6 and n^(k+2) <= 4096")
    # Images still repeat up to sign (144 labelings, 48 lines at (4, 3)), and
    # the rank's work grows with the row count: keep one row per line.
    caterpillar = [(i, i + 1) for i in range(k - 1)]
    rows = set()
    for labels in _caterpillar_labelings(n, k):
        coords = tree_to_dk(assemble_unitrivalent(n, k, caterpillar, labels)).coords
        lead = next((c for c in coords if c), 0)
        rows.add(coords if lead >= 0 else tuple(-c for c in coords))
    return integer_rank(sorted(rows)), dk_rank(n, k)


def random_labeled_tree(rng: random.Random, n: int, k: int) -> ClasperGraph:
    """Random degree-k tree with random integer-vector labels, for property
    tests (labels exercise multilinearity, not just basis vectors)."""
    while True:
        if k == 1:
            edges: List[Tuple[int, int]] = []
        elif k == 2:
            edges = [(0, 1)]
        else:
            seq = [rng.randrange(k) for _ in range(k - 2)]
            edges = _prufer_decode(seq, k)
        degree = [0] * k
        for u, v in edges:
            degree[u] += 1
            degree[v] += 1
        if k == 1 or max(degree) <= 3:
            break
    leaves = k + 2
    labels = [tuple(rng.randint(-3, 3) for _ in range(n)) for _ in range(leaves)]
    flips = [rng.random() < 0.5 for _ in range(k)]
    return assemble_unitrivalent(n, k, edges, labels, flips)
