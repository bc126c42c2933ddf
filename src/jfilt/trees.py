"""Labeled unitrivalent graphs and their images in the bracket kernel.

A graph here has univalent vertices (leaves) carrying integer-vector labels
of rank ``n``, and trivalent vertices carrying a cyclic order of their three
half-edges.  Its degree k is the number of trivalent vertices; a tree of
degree k has k + 2 leaves.  For trees there is a classical evaluation:
rooting at a leaf turns the tree into a nested bracket (reading the two
non-entry branches at each trivalent vertex in cyclic order), and summing
``label (x) rooted bracket`` over all choices of root lands in D_k, the
kernel of the bracket contraction H (x) L_{k+1} -> L_{k+2}.  That landing is
checked on every image.  A graph is validated once, when it is built; a
tree's shape is compiled once per call, and a labeling (leaf id -> label
vector) is bound for one evaluation of it.
``span_check`` certifies that these images fill D_k at desk scale, using
only the labelings of one caterpillar shape: the IHX relation writes every
tree as an integer sum of caterpillars, and AS turns every change of cyclic
order into a sign.  AS also means that only the labelings with increasing
labels on the leaves of each end vertex need evaluating; the others are
zero or minus one of those.

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
from dataclasses import dataclass, field, replace
from itertools import combinations, product
from typing import Callable, Dict, Iterable, Iterator, List, Mapping, Optional, Sequence, Tuple

from .brackets import TensorElement, bracket_map, dk_rank
from .errors import InvariantError, PreconditionError, ValidationError, excerpt, payload_fields
from .lie import LieElement, Words, bracket_words
from .snf import eliminate

Half = Tuple[str, int]

UNIVALENT = 1
TRIVALENT = 3
_ARITY_NAMES = {"univalent": UNIVALENT, "trivalent": TRIVALENT}

# Bound on n^(k+2), the number of basis labelings of the k + 2 leaves of a
# degree-k tree with labels of rank n, for ``tree_to_dk`` and
# ``rooted_bracket``.  A Hall basis is only words and a count, so the bases
# no longer dominate: the first random-labeled tree in a process takes
# 0.03-0.05 s at (n, k) = (4, 5) and (5, 4), 0.02 s at (3, 6) and 0.01 s
# at (2, 12) on a 2-vCPU Xeon.  Rank 1 counts as 2, so the bound also caps
# the depth of the evaluation.
MAX_TREE_TERMS = 2**14


def parse_half(text: str) -> Half:
    head, _, tail = text.rpartition(".")
    # str.isdigit alone passes digits such as "²" that int() refuses, and
    # slots too long for int(); a slot is 1 to 9 ASCII digits.
    if not head or not (tail.isascii() and tail.isdigit()) or len(tail) > 9:
        raise ValidationError("bad half-edge %s, expected 'vertexid.slot'" % (excerpt(text),))
    return head, int(tail)


def render_half(half: Half) -> str:
    return "%s.%d" % half


@dataclass(frozen=True)
class ClasperGraph:
    """Built checked: construction (and so ``replace``) runs ``validate``
    once and holds what it found as ``info``."""
    n: int
    vertices: Tuple[Tuple[str, int], ...]  # (id, arity)
    edges: Tuple[Tuple[Half, Half], ...]
    cyclic: Tuple[Tuple[str, Tuple[Half, Half, Half]], ...]
    labels: Tuple[Tuple[str, Tuple[int, ...]], ...]
    info: GraphInfo = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "info", validate(self))

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
    """Canonicalize pythonic inputs; cyclic orders default to slot order.
    Every order given is kept, so ``validate`` sees one at a vertex that is
    absent or not trivalent."""

    def to_half(h) -> Half:
        if isinstance(h, str):
            return parse_half(h)
        vid, slot = h
        return str(vid), int(slot)

    vtuple = tuple((str(vid), int(arity)) for vid, arity in vertices.items())
    etuple = tuple((to_half(a), to_half(b)) for a, b in edges)
    cyc = {str(vid): tuple(to_half(h) for h in order) for vid, order in (cyclic or {}).items()}
    for vid, arity in vtuple:
        if arity == TRIVALENT and vid not in cyc:
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


def _half_edges(value, count: int) -> bool:
    """Whether a JSON value is a list of ``count`` half-edge strings."""
    return isinstance(value, list) and len(value) == count and all(isinstance(h, str) for h in value)


def clasper_from_json(data: dict) -> ClasperGraph:
    """Read ``{"vertices", "edges"}`` with optional ``labels``, ``cyclic``
    and ``n``; ``n`` defaults to the length of a label.  Each vertex record,
    edge, cyclic order and label is type-checked, and a refusal names it."""
    vertices, edges = payload_fields(data, "graph", vertices=list, edges=list)
    optional = {key: kind for key, kind in (("n", int), ("labels", dict), ("cyclic", dict)) if key in data}
    payload_fields(data, "graph", **optional)
    labels = data.get("labels", {})
    cyclic = data.get("cyclic", {})
    arities = {}
    for i, v in enumerate(vertices):
        if not (isinstance(v, dict) and isinstance(v.get("id"), str) and "arity" in v):
            raise ValidationError(
                "bad graph payload: vertex %d must be an object with a string id and an arity" % i
            )
        if v["id"] in arities:
            raise ValidationError("bad graph payload: duplicate vertex id %s" % excerpt(v["id"]))
        arity = v["arity"]
        if isinstance(arity, str) and arity in _ARITY_NAMES:
            arity = _ARITY_NAMES[arity]
        elif not isinstance(arity, int) or isinstance(arity, bool):
            raise ValidationError(
                "bad graph payload: vertex %s has arity %s, expected 'univalent' or 'trivalent'"
                % (excerpt(v["id"]), excerpt(arity))
            )
        arities[v["id"]] = arity
    for i, e in enumerate(edges):
        if not _half_edges(e, 2):
            raise ValidationError("bad graph payload: edge %d must be a pair of half-edge strings" % i)
    for vid, order in cyclic.items():
        if not _half_edges(order, 3):
            raise ValidationError(
                "bad graph payload: cyclic order of %s must be a list of 3 half-edge strings" % excerpt(vid)
            )
    for vid, vec in labels.items():
        if not (isinstance(vec, list) and all(isinstance(c, int) and not isinstance(c, bool) for c in vec)):
            raise ValidationError("bad graph payload: label of %s must be a list of integers" % excerpt(vid))
    n = data["n"] if "n" in data else len(next(iter(labels.values()), ()))
    return make_graph(n, arities, edges, labels, cyclic)


def clasper_to_json(g: ClasperGraph) -> dict:
    arity_names = {UNIVALENT: "univalent", TRIVALENT: "trivalent"}
    return {
        "n": g.n,
        "vertices": [{"id": vid, "arity": arity_names[a]} for vid, a in g.vertices],
        "edges": [[render_half(a), render_half(b)] for a, b in g.edges],
        "cyclic": {vid: [render_half(h) for h in order] for vid, order in g.cyclic},
        "labels": {vid: list(vec) for vid, vec in g.labels},
    }


def _union_find(vertices: Iterable, edges: Iterable[Tuple]) -> Callable:
    """The root finder of the components of ``vertices`` joined by ``edges``."""
    parent = {v: v for v in vertices}

    def find(v):
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    for a, b in edges:
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[ra] = rb
    return find


def _quote_half(h: Half) -> str:
    """A half-edge as a refusal quotes it: bare, or cut by ``excerpt``."""
    text = render_half(h)
    quoted = excerpt(text)
    return text if quoted == repr(text) else quoted


def _refusal(problems: List[str]) -> ValidationError:
    """The first problems that fit in 120 characters, then a count of the
    rest, so that the refusal stays one short line."""
    shown = 1
    while shown < len(problems) and len("; ".join(problems[: shown + 1])) <= 120:
        shown += 1
    rest = len(problems) - shown
    return ValidationError("; ".join(problems[:shown]) + ("; and %d more" % rest if rest else ""))


def validate(g: ClasperGraph) -> GraphInfo:
    """Structural checks, then (degree, first Betti number, is_tree); every
    ``ClasperGraph`` runs it once, when it is built."""
    problems: List[str] = []
    arity = {}
    for vid, a in g.vertices:
        if vid in arity:
            problems.append("duplicate vertex id %s" % excerpt(vid))
        if a not in (UNIVALENT, TRIVALENT):
            problems.append("arity mismatch: vertex %s has arity %s" % (excerpt(vid), excerpt(a)))
        arity[vid] = a

    seen: Dict[Half, int] = {}
    for idx, (a, b) in enumerate(g.edges):
        for h in (a, b):
            vid, slot = h
            if vid not in arity:
                problems.append("edge %d uses unknown vertex %s" % (idx, excerpt(vid)))
            elif not 0 <= slot < arity[vid]:
                problems.append("arity mismatch: half-edge %s out of range" % _quote_half(h))
            if h in seen:
                problems.append("half-edge %s used twice" % _quote_half(h))
            seen[h] = idx
    for vid, a in g.vertices:
        for s in range(a):
            if (vid, s) not in seen:
                problems.append("half-edge %s is unpaired" % _quote_half((vid, s)))

    cyc = g.cyclic_map()
    for vid, a in g.vertices:
        if a != TRIVALENT:
            continue
        order = cyc.get(vid)
        if order is None:
            problems.append("missing cyclic order at %s" % excerpt(vid))
        elif sorted(order) != [(vid, 0), (vid, 1), (vid, 2)]:
            problems.append("cyclic order at %s is not a permutation of its half-edges" % excerpt(vid))
    for vid in cyc:
        if arity.get(vid) != TRIVALENT:
            problems.append("cyclic order at %s, which is not a trivalent vertex" % excerpt(vid))

    labels = g.label_map()
    for vid, a in g.vertices:
        if a == UNIVALENT and vid not in labels:
            problems.append("missing label at %s" % excerpt(vid))
    for vid, vec in g.labels:
        if vid not in arity or arity[vid] != UNIVALENT:
            problems.append("label on non-leaf vertex %s" % excerpt(vid))
        elif len(vec) != g.n:
            problems.append("label at %s has length %d, expected %d" % (excerpt(vid), len(vec), g.n))

    if problems:
        raise _refusal(problems)

    find = _union_find((vid for vid, _ in g.vertices), ((a[0], b[0]) for a, b in g.edges))
    components = {find(vid) for vid, _ in g.vertices}
    if not components or components != {find(vid) for vid, a in g.vertices if a == TRIVALENT}:
        raise ValidationError("every component needs at least one trivalent vertex")
    ncomp = len(components)

    betti1 = len(g.edges) - len(g.vertices) + ncomp
    degree = sum(1 for _, a in g.vertices if a == TRIVALENT)
    connected = ncomp == 1
    return GraphInfo(
        degree=degree, betti1=betti1, is_tree=connected and betti1 == 0, connected=connected
    )


def _tree_shape(g: ClasperGraph, caller: str) -> Tuple[int, Dict[Half, object]]:
    """A tree's degree, read off ``g.info``, and its step table, which maps
    each half-edge to what lies on its far side, a leaf id or the next two
    half-edges of a trivalent vertex in cyclic order.  It reads no labels."""
    info = g.info
    if not info.is_tree:
        raise ValidationError("%s needs a tree" % caller)
    if g.n < 1:
        raise ValidationError("tree has no label rank")
    if max(g.n, 2) ** (info.degree + 2) > MAX_TREE_TERMS:
        raise PreconditionError(
            "%s of a degree-%d tree with labels of rank %d exceeds n^(k+2) <= %d"
            % (caller, info.degree, g.n, MAX_TREE_TERMS)
        )
    cyc = g.cyclic_map()
    enter: Dict[Half, object] = {}
    for vid, a in g.vertices:
        if a == TRIVALENT:
            h0, h1, h2 = cyc[vid]
            enter[h0], enter[h1], enter[h2] = (h1, h2), (h2, h0), (h0, h1)
    steps: Dict[Half, object] = {}
    for a, b in g.edges:
        steps[a], steps[b] = enter.get(b, b[0]), enter.get(a, a[0])
    return info.degree, steps


def _rooted_words(steps: Mapping[Half, object], labels: Mapping[str, Sequence[int]], h: Half) -> Words:
    """Rooted-bracket value of the subtree on the far side of half-edge h, as
    a dict from Lyndon word to coefficient: a leaf gives its label vector on
    the degree-one words, a trivalent vertex the Lie bracket of the values
    behind its next two half-edges, in cyclic order."""
    step = steps[h]
    if isinstance(step, str):
        return {(a,): c for a, c in enumerate(labels[step]) if c}
    return bracket_words(_rooted_words(steps, labels, step[0]), _rooted_words(steps, labels, step[1]))


def _tree_image(
    n: int, k: int, steps: Mapping[Half, object], labels: Mapping[str, Sequence[int]]
) -> TensorElement:
    """Sum of ``label (x) rooted bracket`` over the leaves of a degree-k step
    table under one labeling; kernel membership is checked on the result."""
    # Lyndon word -> its coefficient on each generator, so that each word is
    # looked up once per leaf, not once per label entry.
    rows: Dict[Tuple[int, ...], List[int]] = {}
    for vid, vec in labels.items():
        label = [(a, x) for a, x in enumerate(vec) if x]
        if not label:
            continue
        for u, c in _rooted_words(steps, labels, (vid, 0)).items():
            row = rows.get(u)
            if row is None:
                row = rows[u] = [0] * n
            for a, x in label:
                row[a] += x * c
    terms = {(a, u): c for u, row in rows.items() for a, c in enumerate(row) if c}
    out = TensorElement(n, k, terms)
    if not bracket_map(out).is_zero:
        raise InvariantError("tree image escaped the contraction kernel")
    return out


def rooted_bracket(g: ClasperGraph, root: str) -> LieElement:
    """Evaluate the tree as a nested bracket from the given leaf (see
    ``_rooted_words``); the value lies in degree ``degree(g) + 1``."""
    k, steps = _tree_shape(g, "rooted_bracket")
    if g.arity_map().get(root) != UNIVALENT:
        raise ValidationError("root %r is not a univalent vertex" % root)
    return LieElement(g.n, k + 1, _rooted_words(steps, g.label_map(), (root, 0)))


def tree_to_dk(g: ClasperGraph) -> TensorElement:
    """Sum of ``label (x) rooted_bracket`` over all leaves.  The tree's shape
    is compiled once per call and its own labels are bound for the one
    evaluation; kernel membership is checked on the image."""
    k, steps = _tree_shape(g, "tree_to_dk")
    return _tree_image(g.n, k, steps, g.label_map())


def _as_vector(n: int, label) -> Tuple[int, ...]:
    if isinstance(label, int):
        vec = [0] * n
        vec[label] = 1
        return tuple(vec)
    return tuple(int(c) for c in label)


def tripod(n: int, a, b, c) -> ClasperGraph:
    """Single trivalent vertex ``t0`` with three labeled leaves (cyclic
    order a,b,c).  Public API, exported from ``jfilt``; nothing inside the
    package needs it."""
    return assemble_unitrivalent(n, 1, [], [a, b, c])


def h_tree(n: int, first_pair, second_pair) -> ClasperGraph:
    """Two trivalent vertices ``t0`` and ``t1`` joined by an edge; leaves
    (a,b) at the first vertex and (c,d) at the second.  Rooted at the
    a-leaf the value is ``[b, [c, d]]``."""
    return assemble_unitrivalent(n, 2, [(0, 1)], [*first_pair, *second_pair])


def flip_vertex(g: ClasperGraph, vid: str) -> ClasperGraph:
    """Swap the last two half-edges in the cyclic order at one trivalent
    vertex (reverses the local orientation)."""
    cyc = g.cyclic_map()
    if vid not in cyc:
        raise ValidationError("no cyclic order at %s" % excerpt(vid))
    h0, h1, h2 = cyc[vid]
    cyc[vid] = (h0, h2, h1)
    return replace(g, cyclic=tuple(sorted(cyc.items())))


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
    fill the remaining slots (ordered by vertex, then slot); a flip orders
    a vertex's slots (0, 2, 1)."""
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
    cyclic = {"t%d" % i: [("t%d" % i, s) for s in (0, 2, 1)] for i, flip in enumerate(flips) if flip}
    return make_graph(n, vertices, edges, labels, cyclic)


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


def _caterpillar_images(n: int, k: int) -> List[TensorElement]:
    """The nonzero images of the basis labelings of the degree-k caterpillar.
    They still repeat up to sign (144 labelings, 48 lines at (4, 3)), and the
    rank's work grows with the row count: one is kept per line, with a
    positive coefficient at its least key."""
    g = assemble_unitrivalent(n, k, [(i, i + 1) for i in range(k - 1)], [0] * (k + 2))
    steps = _tree_shape(g, "span_check")[1]
    leaves = [vid for vid, a in g.vertices if a == UNIVALENT]  # in the order of the labels
    units = [_as_vector(n, a) for a in range(n)]
    images: Dict[TensorElement, None] = {}
    for labels in _caterpillar_labelings(n, k):
        t = _tree_image(n, k, steps, {vid: units[a] for vid, a in zip(leaves, labels)})
        if t.terms:
            images[t if t.terms[min(t.terms)] > 0 else -t] = None
    return list(images)


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
    two leaves at each end vertex (on all three at k = 1) are evaluated:
    C(n, 3) at k = 1 and C(n, 2)^2 n^(k-2) otherwise, instead of n^(k+2).
    Each image left out is zero or minus one that is kept, so the lattice,
    up to the sign of its rows, is the same.

    The caterpillar is built and compiled once per call, each labeling is
    bound for one evaluation of it, and the kernel check runs on every image.
    """
    if not (1 <= k <= 6 and 1 <= n and n ** (k + 2) <= 4096):
        raise PreconditionError("span_check needs n >= 1, 1 <= k <= 6 and n^(k+2) <= 4096")
    columns: Dict[Tuple[int, Tuple[int, ...]], int] = {}
    rows = [{columns.setdefault(key, len(columns)): c for key, c in t.terms.items()}
            for t in _caterpillar_images(n, k)]
    return sum(1 for d in eliminate(rows, len(columns))[0] if d), dk_rank(n, k)


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
