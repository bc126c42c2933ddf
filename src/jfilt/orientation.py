"""Source-free orientations of unitrivalent graphs.

An orientation assigns each edge a direction, written as an ordered pair of
its two half-edges.  A valid orientation must

  (i)  point every edge that touches a univalent vertex toward that vertex
       ("leaf edges outward"), and
  (ii) leave no trivalent vertex with all of its arrows outgoing.

Such an orientation exists exactly when the connected graph has a cycle.
On a tree the leaf arrows are all forced and some trivalent vertex ends up
a source; with a cycle present, ``orient`` cuts every non-spanning-tree
edge into a pair of directed stubs — one of the two always points inward —
and floods the spanning tree away from one inward stub, so every vertex
picks up an incoming arrow along the way.  The verifier re-checks (i) and
(ii) independently before anything is returned.

``count_valid_orientations`` counts by inclusion–exclusion over the sets S
of trivalent vertices forced to be sources.  Leaf edges are forced by (i).
(A leaf–leaf edge, a strut, would admit no direction, but no graph holds
one: it is a component with no trivalent vertex.)  Let N(S) count the
orientations that satisfy (i) and make every vertex of S a source.  An
internal edge with both ends in S, or a loop at a vertex of S, cannot leave
both ends without an incoming arrow, so N(S) = 0; an internal edge with one
end in S is forced away from it; every other internal edge is free, and
N(S) = 2^(free edges).  The count is Σ_S (−1)^|S| N(S).  It builds no
spanning tree and no flood and never calls the verifier, so it shares no
step with ``orient``, and the census compares three independent tests.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Tuple

from .errors import InvariantError, NotOrientable, PreconditionError, ValidationError
from .trees import (
    TRIVALENT,
    UNIVALENT,
    ClasperGraph,
    Half,
    _union_find,
    assemble_unitrivalent,
    render_half,
)

# edge index -> (tail half, head half)
Orientation = Dict[int, Tuple[Half, Half]]

# The most edges ``count_valid_orientations`` accepts; a connected graph
# within it has at most 10 trivalent vertices, so at most 2^10 source sets.
MAX_COUNT_EDGES = 16

# The most trivalent vertices ``census`` enumerates.  On a 2-vCPU host size 6
# takes about 20 s; size 7 adds 1.25 million graphs and takes about 9 minutes.
MAX_CENSUS_TRIVALENT = 6

__all__ = [
    "Orientation",
    "orient",
    "verify_orientation",
    "count_valid_orientations",
    "orientation_to_json",
    "oriented_dot",
    "enumerate_unitrivalent",
    "census",
]


def _adjacency(g: ClasperGraph) -> Dict[str, List[int]]:
    out: Dict[str, List[int]] = {vid: [] for vid, _ in g.vertices}
    for idx, (a, b) in enumerate(g.edges):
        out[a[0]].append(idx)
        if b[0] != a[0]:
            out[b[0]].append(idx)
    return out


def orient(g: ClasperGraph) -> Orientation:
    """A deterministic valid orientation, or ``NotOrientable`` on a tree.

    Spanning tree by breadth-first search from the lexicographically least
    vertex id; each non-tree edge is directed from its lesser half-edge to
    its greater; the flood starts at the head of the least such inward stub.
    """
    if not g.info.connected:
        raise ValidationError("graph must be connected")
    if g.info.is_tree:
        raise NotOrientable("tree: not orientable")

    adjacency = _adjacency(g)
    root = min(vid for vid, _ in g.vertices)
    tree_edges = set()
    seen = {root}
    queue = [root]
    while queue:
        v = queue.pop(0)
        for idx in adjacency[v]:
            a, b = g.edges[idx]
            other = b[0] if a[0] == v else a[0]
            if other not in seen:
                seen.add(other)
                tree_edges.add(idx)
                queue.append(other)

    orientation: Orientation = {}
    inward: List[Tuple[Half, int]] = []
    for idx, (a, b) in enumerate(g.edges):
        if idx in tree_edges:
            continue
        lo, hi = (a, b) if a <= b else (b, a)
        orientation[idx] = (lo, hi)
        inward.append((hi, idx))
    # Cutting a directed non-tree edge leaves an outward stub at its tail
    # and an inward stub at its head; the least head seeds the flood.
    head, _ = min(inward)
    start = head[0]

    queue = [start]
    while queue:
        v = queue.pop(0)
        for idx in adjacency[v]:
            if idx not in tree_edges or idx in orientation:
                continue
            a, b = g.edges[idx]
            tail, head_half = (a, b) if a[0] == v else (b, a)
            orientation[idx] = (tail, head_half)
            queue.append(head_half[0])

    problems = verify_orientation(g, orientation)
    if problems:
        raise InvariantError("; ".join(problems))
    return orientation


def verify_orientation(g: ClasperGraph, orientation: Orientation) -> List[str]:
    """Independent re-check of (i) and (ii); returns problems, empty if valid."""
    problems: List[str] = []
    if sorted(orientation) != list(range(len(g.edges))):
        problems.append("orientation must direct every edge exactly once")
        return problems
    arity = g.arity_map()
    incoming = {vid: 0 for vid, _ in g.vertices}
    for idx, (tail, head) in orientation.items():
        a, b = g.edges[idx]
        if (tail, head) not in ((a, b), (b, a)):
            problems.append("edge %d directed between foreign half-edges" % idx)
            continue
        incoming[head[0]] += 1
        if arity[tail[0]] == UNIVALENT:
            problems.append("leaf edge %d points away from its leaf" % idx)
    for vid, a in g.vertices:
        if a == TRIVALENT and incoming[vid] == 0:
            problems.append("trivalent vertex %r is a source" % vid)
    return problems


def count_valid_orientations(g: ClasperGraph) -> int:
    """The number of valid orientations, Σ_S (−1)^|S| N(S) over the sets S
    of trivalent vertices forced to be sources (see the module docstring).

    Takes O(2^t E) steps for t trivalent vertices and E edges.
    """
    if not g.info.connected:
        raise ValidationError("graph must be connected")
    n_edges = len(g.edges)
    if n_edges > MAX_COUNT_EDGES:
        raise PreconditionError(
            "count_valid_orientations: %d edges exceeds the bound of %d"
            % (n_edges, MAX_COUNT_EDGES)
        )
    arity = g.arity_map()
    bit = {vid: 1 << i for i, vid in enumerate(v for v, a in g.vertices if a == TRIVALENT)}
    # Each internal edge as the bit set of its ends; a loop has one bit.
    internal = [
        bit[va] | bit[vb]
        for (va, _), (vb, _) in g.edges
        if arity[va] == TRIVALENT and arity[vb] == TRIVALENT
    ]
    count = 0
    for sources in range(1 << len(bit)):
        free = 0
        for ends in internal:
            hit = ends & sources
            if hit == ends:
                break  # both ends sources, or a loop at a source: N(S) = 0
            if not hit:
                free += 1
        else:
            count += -(1 << free) if sources.bit_count() & 1 else 1 << free
    return count


def orientation_to_json(orientation: Orientation) -> Dict[str, str]:
    return {
        str(idx): "%s->%s" % (render_half(tail), render_half(head))
        for idx, (tail, head) in sorted(orientation.items())
    }


def oriented_dot(g: ClasperGraph, orientation: Orientation) -> str:
    lines = ["digraph clasper {"]
    for vid, a in g.vertices:
        shape = "point" if a == TRIVALENT else "circle"
        lines.append('  "%s" [shape=%s];' % (vid, shape))
    for idx in sorted(orientation):
        tail, head = orientation[idx]
        lines.append(
            '  "%s" -> "%s" [label="e%d", taillabel="%d", headlabel="%d"];'
            % (tail[0], head[0], idx, tail[1], head[1])
        )
    lines.append("}")
    return "\n".join(lines)


def enumerate_unitrivalent(max_trivalent: int) -> Iterator[ClasperGraph]:
    """Every connected unitrivalent multigraph with 1..max_trivalent labeled
    trivalent vertices: all loop/multi-edge patterns with internal degree at
    most 3, remaining slots filled by leaves (dummy labels over n=1)."""
    if max_trivalent < 1:
        raise PreconditionError("enumerate_unitrivalent: need max_trivalent >= 1")
    for t in range(1, max_trivalent + 1):
        pairs = [(i, j) for i in range(t) for j in range(i, t)]
        deg = [0] * t

        def rec(i: int, out: Dict[Tuple[int, int], int]) -> Iterator[Dict]:
            if i == len(pairs):
                yield dict(out)
                return
            a, b = pairs[i]
            if a == b:
                limit = 1 if deg[a] + 2 <= 3 else 0
            else:
                limit = min(3 - deg[a], 3 - deg[b])
            for m in range(limit + 1):
                bump = 2 * m if a == b else m
                deg[a] += bump
                if a != b:
                    deg[b] += m
                out[(a, b)] = m
                yield from rec(i + 1, out)
                deg[a] -= bump
                if a != b:
                    deg[b] -= m
            del out[(a, b)]

        for mults in rec(0, {}):
            find = _union_find(range(t), (pair for pair, m in mults.items() if m))
            if len({find(v) for v in range(t)}) == 1:
                edges = [pair for pair in sorted(mults) for _ in range(mults[pair])]
                yield assemble_unitrivalent(1, t, edges, [0] * (3 * t - 2 * len(edges)))


def census(max_trivalent: int) -> Tuple[List[Dict[str, int]], List[int]]:
    """Orientability of every connected unitrivalent multigraph with at most
    ``max_trivalent`` trivalent vertices.

    Returns one row per trivalent size (``trivalent``, ``orientable``,
    ``not_orientable``) and the trivalent sizes of the graphs on which
    ``orient`` succeeding, a cycle and a positive count do not all agree;
    that list is empty when the criterion holds.

    The census computes only the cycle test itself: each graph is
    enumerated connected, so it has a cycle exactly when E >= V, a test that
    shares no step with ``orient`` (which verifies its answer before it
    returns) or with the count.  Each graph was validated when it was built,
    so the census, ``orient`` and the count read its facts, not re-check it.
    """
    if max_trivalent > MAX_CENSUS_TRIVALENT:
        raise PreconditionError(
            "census: %d trivalent vertices is past the census bound of %d"
            % (max_trivalent, MAX_CENSUS_TRIVALENT)
        )
    rows: Dict[int, Dict[str, int]] = {}
    mismatches: List[int] = []
    for g in enumerate_unitrivalent(max_trivalent):
        size = g.info.degree
        try:
            orient(g)
            succeeded = True
        except NotOrientable:
            succeeded = False
        cyclic = len(g.edges) >= len(g.vertices)
        if not succeeded == cyclic == (count_valid_orientations(g) > 0):
            mismatches.append(size)
        row = rows.setdefault(size, {"trivalent": size, "orientable": 0, "not_orientable": 0})
        row["orientable" if succeeded else "not_orientable"] += 1
    return [rows[t] for t in sorted(rows)], mismatches
