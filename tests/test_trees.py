"""Tests for labeled unitrivalent graphs and their kernel images."""

import json
import random
from itertools import product

import pytest

from jfilt.brackets import bracket_map, dk_basis
from jfilt.errors import InvariantError, PreconditionError, ValidationError
from jfilt.lie import LieElement, generator_element, hall_basis, lie_bracket
from jfilt.snf import smith_normal_form
from jfilt.trees import (
    ClasperGraph,
    assemble_unitrivalent,
    clasper_from_json,
    clasper_to_json,
    flip_vertex,
    h_tree,
    make_graph,
    random_labeled_tree,
    rooted_bracket,
    span_check,
    tree_to_dk,
    tripod,
    _caterpillar_labelings,
    _prufer_decode,
    validate,
)


def internal_trees(k):
    """All labeled trees on k vertices with maximum degree 3, as edge lists:
    the shapes of every degree-k tree, the reference for ``span_check``."""
    if k == 1:
        return [[]]
    if k == 2:
        return [[(0, 1)]]
    out = []
    for seq in product(range(k), repeat=k - 2):
        edges = _prufer_decode(seq, k)
        degree = [0] * k
        for u, v in edges:
            degree[u] += 1
            degree[v] += 1
        if max(degree) <= 3:
            out.append(edges)
    return out


def theta_graph():
    return make_graph(
        0,
        {"a": 3, "b": 3},
        [("a.0", "b.0"), ("a.1", "b.1"), ("a.2", "b.2")],
        {},
    )


def test_validate_tripod():
    info = validate(tripod(3, 0, 1, 2))
    assert (info.degree, info.betti1, info.is_tree) == (1, 0, True)


def test_validate_theta():
    info = validate(theta_graph())
    assert (info.degree, info.betti1, info.is_tree) == (2, 2, False)
    assert info.connected


def test_validate_two_vertex_tree():
    info = validate(h_tree(4, (0, 2), (3, 2)))
    assert (info.degree, info.betti1, info.is_tree) == (2, 0, True)


def test_validate_loop_graph():
    g = make_graph(1, {"t": 3, "l": 1}, [("t.0", "t.1"), ("t.2", "l.0")], {"l": [1]})
    info = validate(g)
    assert (info.degree, info.betti1, info.is_tree) == (1, 1, False)


def test_validate_error_messages():
    with pytest.raises(ValidationError, match="missing label"):
        validate(
            make_graph(2, {"t": 3, "l0": 1, "l1": 1, "l2": 1},
                       [("t.0", "l0.0"), ("t.1", "l1.0"), ("t.2", "l2.0")],
                       {"l0": [1, 0], "l1": [0, 1]})
        )
    with pytest.raises(ValidationError, match="missing cyclic order"):
        g = tripod(2, 0, 1, 0)
        validate(ClasperGraph(g.n, g.vertices, g.edges, (), g.labels))
    with pytest.raises(ValidationError, match="unpaired"):
        validate(make_graph(1, {"t": 3, "l": 1}, [("t.0", "l.0")], {"l": [1]}))
    with pytest.raises(ValidationError, match="arity mismatch"):
        validate(make_graph(1, {"t": 3, "l": 1},
                            [("t.0", "t.1"), ("t.5", "l.0")], {"l": [1]}))
    with pytest.raises(ValidationError, match="trivalent"):
        validate(make_graph(1, {"l0": 1, "l1": 1}, [("l0.0", "l1.0")],
                            {"l0": [1], "l1": [1]}))
    with pytest.raises(ValidationError, match="length"):
        validate(tripod(2, (1, 0, 0), (0, 1), (0, 1)))


def test_rooted_bracket_tripod():
    n = 3
    g = tripod(n, 0, 1, 2)
    e = [generator_element(n, i) for i in range(n)]
    assert rooted_bracket(g, "l0") == lie_bracket(e[1], e[2])
    assert rooted_bracket(g, "l1") == lie_bracket(e[2], e[0])
    assert rooted_bracket(g, "l2") == lie_bracket(e[0], e[1])


def test_rooted_bracket_calibration_tree():
    # two-vertex tree with labels (a1, a3 | a4, a3): value at the a1-root is
    # [a3, [a4, a3]] (0-based generators e2, e3, e2 over rank 4)
    g = h_tree(4, (0, 2), (3, 2))
    e2 = generator_element(4, 2)
    e3 = generator_element(4, 3)
    value = rooted_bracket(g, "l0")
    assert value == lie_bracket(e2, lie_bracket(e3, e2))
    # in Hall coordinates: minus the basis word (2, 2, 3)
    words = hall_basis(4, 3).words
    expected = [0] * len(words)
    expected[words.index((2, 2, 3))] = -1
    assert value == LieElement(4, 3, tuple(expected))


def test_rooted_bracket_rejects_bad_input():
    with pytest.raises(ValidationError, match="tree"):
        rooted_bracket(theta_graph(), "a")
    with pytest.raises(ValidationError, match="univalent"):
        rooted_bracket(tripod(2, 0, 1, 1), "s")


def test_tree_to_dk_tripod_formula():
    n = 3
    e = [generator_element(n, i) for i in range(n)]
    t = tree_to_dk(tripod(n, 0, 1, 2))
    assert t.component(0) == lie_bracket(e[1], e[2])
    assert t.component(1) == lie_bracket(e[2], e[0])
    assert t.component(2) == lie_bracket(e[0], e[1])
    assert bracket_map(t).is_zero


def test_tripod_generates_rank_one_kernel():
    t = tree_to_dk(tripod(3, 0, 1, 2))
    basis = dk_basis(3, 1)
    assert len(basis) == 1
    vec = basis[0].coords
    ratios = {c // v for c, v in zip(t.coords, vec) if v != 0}
    assert ratios in ({1}, {-1})


def test_zero_label_kills_tree():
    t = tree_to_dk(tripod(3, (0, 0, 0), 1, 2))
    assert t.is_zero


def test_label_multilinearity():
    n = 3
    s = tree_to_dk(tripod(n, (1, 2, -1), 1, 2))
    a = tree_to_dk(tripod(n, (1, 0, 0), 1, 2))
    b = tree_to_dk(tripod(n, (0, 2, 0), 1, 2))
    c = tree_to_dk(tripod(n, (0, 0, -1), 1, 2))
    assert s == a + b + c


def test_antisymmetry_flip():
    g = h_tree(3, (0, 1), (2, 1))
    for vid in ("s", "t"):
        flipped = flip_vertex(g, vid)
        assert rooted_bracket(flipped, "l0") == -rooted_bracket(g, "l0")
        assert tree_to_dk(flipped) == -tree_to_dk(g)
    double = flip_vertex(flip_vertex(g, "s"), "t")
    assert tree_to_dk(double) == tree_to_dk(g)


def test_ihx_exhaustive_degree_two():
    # I - H + X = 0 for the three pairings of (a,b,c,d), all basis labels, n <= 3
    for n in (2, 3):
        for a in range(n):
            for b in range(n):
                for c in range(n):
                    for d in range(n):
                        i_img = tree_to_dk(h_tree(n, (a, b), (c, d)))
                        h_img = tree_to_dk(h_tree(n, (a, c), (b, d)))
                        x_img = tree_to_dk(h_tree(n, (a, d), (b, c)))
                        assert (i_img - h_img + x_img).is_zero


def test_span_check_values():
    assert span_check(2, 1) == (0, 0)
    assert span_check(3, 1) == (1, 1)
    assert span_check(4, 1) == (4, 4)
    assert span_check(3, 2) == (6, 6)
    assert span_check(4, 2) == (20, 20)
    assert span_check(3, 3) == (6, 6)
    assert span_check(4, 3) == (36, 36)


def test_span_check_bounds():
    # Each pair just past the bound: k <= 6 and n^(k+2) <= 4096.
    for n, k in [(0, 1), (17, 1), (9, 2), (6, 3), (5, 4), (4, 5), (3, 6), (2, 7)]:
        with pytest.raises(PreconditionError):
            span_check(n, k)
    # k is checked before n^(k+2) is formed.
    with pytest.raises(PreconditionError):
        span_check(2, 10**9)


def test_span_check_runs_the_kernel_check(monkeypatch):
    monkeypatch.setattr("jfilt.trees.bracket_map", lambda t: generator_element(t.n, 0))
    with pytest.raises(InvariantError):
        span_check(3, 2)


def test_tree_to_dk_runs_its_own_kernel_check(monkeypatch):
    # Criterion 10's 500-tree loop relies on this check alone.
    monkeypatch.setattr("jfilt.trees.bracket_map", lambda t: generator_element(t.n, 0))
    with pytest.raises(InvariantError, match="escaped the contraction kernel"):
        tree_to_dk(tripod(3, 0, 1, 2))


def test_internal_tree_enumeration():
    assert internal_trees(1) == [[]]
    assert internal_trees(2) == [[(0, 1)]]
    assert len(internal_trees(3)) == 3
    # Cayley: 16 labeled trees on 4 vertices; all have max degree <= 3
    assert len(internal_trees(4)) == 16


def _image_rows(graphs):
    """Sign-normalised nonzero images, one per line."""
    rows = set()
    for g in graphs:
        coords = tree_to_dk(g).coords
        lead = next((c for c in coords if c), 0)
        if lead:
            rows.add(coords if lead > 0 else tuple(-c for c in coords))
    return rows


def _divisors(rows):
    """Nonzero Smith divisors of a set of rows."""
    return [d for d in smith_normal_form(sorted(rows)).diagonal if d]


# Non-unit divisors: (Z/2)^W(n, 2) at k = 2, none at odd k.  The all-trees
# walk is left out at (4, 3), where it builds 24,576 trees (about 7 s); the
# full caterpillar walk stays the reference there.
@pytest.mark.parametrize(
    "n, k, torsion",
    [pytest.param(n, k, [2] * (n * (n - 1) // 2) if k == 2 else [], id="n%d-k%d" % (n, k))
     for n in range(1, 5) for k in range(1, 4)],
)
def test_caterpillars_span_the_all_trees_lattice(n, k, torsion):
    caterpillar = [(i, i + 1) for i in range(k - 1)]
    every_caterpillar = _image_rows(
        assemble_unitrivalent(n, k, caterpillar, labels)
        for labels in product(range(n), repeat=k + 2)
    )
    reduced = _image_rows(
        assemble_unitrivalent(n, k, caterpillar, labels)
        for labels in _caterpillar_labelings(n, k)
    )
    assert reduced == every_caterpillar
    divisors = _divisors(every_caterpillar)
    assert _divisors(reduced) == divisors
    if (n, k) != (4, 3):
        every_tree = _image_rows(
            assemble_unitrivalent(n, k, edges, labels, flips)
            for edges in internal_trees(k)
            for labels in product(range(n), repeat=k + 2)
            for flips in product((False, True), repeat=k)
        )
        assert _divisors(every_tree) == divisors
    assert [d for d in divisors if d != 1] == torsion
    assert span_check(n, k) == (len(divisors), len(divisors))


def test_assemble_round_trip_shape():
    g = assemble_unitrivalent(2, 3, [(0, 1), (1, 2)], [0, 1, 0, 1, 0])
    info = validate(g)
    assert (info.degree, info.betti1, info.is_tree) == (3, 0, True)
    assert sum(1 for _, a in g.vertices if a == 1) == 5


def test_random_trees_land_in_kernel():
    rng = random.Random(11)
    for _ in range(40):
        n = rng.randint(2, 4)
        k = rng.randint(1, 4)
        g = random_labeled_tree(rng, n, k)
        t = tree_to_dk(g)  # kernel membership asserted inside
        assert t.level == k


def test_json_round_trip():
    g = h_tree(3, (0, 1), (2, 1))
    data = clasper_to_json(g)
    text = json.dumps(data, sort_keys=True)
    back = clasper_from_json(json.loads(text))
    assert back == g
    assert rooted_bracket(back, "l0") == rooted_bracket(g, "l0")


def test_json_external_document_shape_parses():
    data = {
        "n": 2,
        "vertices": [
            {"id": "s", "arity": "trivalent"},
            {"id": "u", "arity": "univalent"},
            {"id": "v", "arity": "univalent"},
            {"id": "w", "arity": "univalent"},
        ],
        "edges": [["s.0", "u.0"], ["s.1", "v.0"], ["s.2", "w.0"]],
        "cyclic": {"s": ["s.0", "s.2", "s.1"]},
        "labels": {"u": [1, 0], "v": [0, 1], "w": [1, 1]},
    }
    g = clasper_from_json(data)
    info = validate(g)
    assert info.is_tree
    # the explicit cyclic order (s.0, s.2, s.1) flips the default tripod
    default = tripod(2, (1, 0), (0, 1), (1, 1))
    assert rooted_bracket(g, "u") == -rooted_bracket(default, "l0")


def test_json_bad_payload():
    with pytest.raises(ValidationError):
        clasper_from_json({"vertices": "nope"})
    with pytest.raises(ValidationError):
        clasper_from_json({"vertices": [{"id": "a", "arity": "trivalent"}], "edges": [["a0", "a.1"]]})
