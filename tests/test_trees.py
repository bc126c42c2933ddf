"""Tests for labeled unitrivalent graphs and their kernel images."""

import json
import random
import re
from dataclasses import replace
from itertools import product

import pytest

from jfilt.brackets import bracket_map, dk_basis
from jfilt.errors import InvariantError, PreconditionError, ValidationError
from jfilt.lie import generator_element, hall_basis, lie_bracket
from jfilt.snf import smith_normal_form
from jfilt.trees import (
    MAX_TREE_TERMS,
    ClasperGraph,
    assemble_unitrivalent,
    clasper_from_json,
    clasper_to_json,
    flip_vertex,
    h_tree,
    make_graph,
    parse_half,
    random_labeled_tree,
    rooted_bracket,
    span_check,
    tree_to_dk,
    tripod,
    _as_vector,
    _caterpillar_images,
    _caterpillar_labelings,
    _prufer_decode,
    _tree_image,
    _tree_shape,
    validate,
)

import tensor_reference
from tensor_reference import lie_from_coords


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


_TRIPOD = tripod(2, (1, 0), (0, 1), (1, 1))
_S = (("t0", 0), ("t0", 1), ("t0", 2))


@pytest.mark.parametrize("fields, message", [
    ({"vertices": _TRIPOD.vertices + (("l0", 1),)}, "duplicate vertex id 'l0'"),
    ({"vertices": (("t0", 3), ("l0", 1), ("l1", 1), ("l2", 2))}, "vertex 'l2' has arity 2"),
    ({"edges": _TRIPOD.edges + ((("l0", 0), ("w", 0)),)}, "edge 3 uses unknown vertex 'w'"),
    ({"edges": ((_S[0], ("l0", 0)), (_S[1], ("l0", 0)), (_S[2], ("l2", 0)))},
     "half-edge l0.0 used twice"),
    ({"cyclic": (("t0", (_S[0], _S[1], _S[1])),)},
     "cyclic order at 't0' is not a permutation of its half-edges"),
    ({"cyclic": _TRIPOD.cyclic + (("l0", (("l0", 0), ("l0", 1), ("l0", 2))),)},
     "cyclic order at 'l0', which is not a trivalent vertex"),
    ({"cyclic": _TRIPOD.cyclic + (("t", (_S[0], _S[2], _S[1])),)},
     "cyclic order at 't', which is not a trivalent vertex"),
    ({"labels": _TRIPOD.labels + (("t0", (1, 0)),)}, "label on non-leaf vertex 't0'"),
])
def test_validate_refuses_malformed_graphs(fields, message):
    with pytest.raises(ValidationError) as info:
        validate(replace(_TRIPOD, **fields))
    assert message in str(info.value)


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
    assert value == lie_from_coords(4, 3, expected)


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
    for vid in ("t0", "t1"):
        flipped = flip_vertex(g, vid)
        assert rooted_bracket(flipped, "l0") == -rooted_bracket(g, "l0")
        assert tree_to_dk(flipped) == -tree_to_dk(g)
    double = flip_vertex(flip_vertex(g, "t0"), "t1")
    assert tree_to_dk(double) == tree_to_dk(g)


def hand_built_tripod(n, a, b, c):
    """The tripod as it was built by hand, with trivalent vertex ``s``."""
    return make_graph(
        n,
        {"s": 3, "l0": 1, "l1": 1, "l2": 1},
        [("s.0", "l0.0"), ("s.1", "l1.0"), ("s.2", "l2.0")],
        {"l0": _as_vector(n, a), "l1": _as_vector(n, b), "l2": _as_vector(n, c)},
    )


def hand_built_h_tree(n, first_pair, second_pair):
    """The H-tree as it was built by hand, with trivalent vertices ``s``, ``t``."""
    a, b = first_pair
    c, d = second_pair
    return make_graph(
        n,
        {"s": 3, "t": 3, "l0": 1, "l1": 1, "l2": 1, "l3": 1},
        [("s.0", "l0.0"), ("s.1", "l1.0"), ("s.2", "t.0"), ("t.1", "l2.0"), ("t.2", "l3.0")],
        {"l0": _as_vector(n, a), "l1": _as_vector(n, b), "l2": _as_vector(n, c), "l3": _as_vector(n, d)},
    )


@pytest.mark.parametrize("seed", range(4))
def test_assembled_tripod_and_h_tree_evaluate_as_the_hand_built_ones(seed):
    # The assembler names the trivalent vertices t0, t1 and orders their
    # slots differently, but every cyclic order is the same.
    rng = random.Random(seed)
    n = 3 + seed % 2
    a, b, c, d = [tuple(rng.randint(-3, 3) for _ in range(n)) for _ in range(4)]
    for built, reference in [
        (tripod(n, a, b, c), hand_built_tripod(n, a, b, c)),
        (h_tree(n, (a, b), (c, d)), hand_built_h_tree(n, (a, b), (c, d))),
    ]:
        assert not tree_to_dk(reference).is_zero
        assert tree_to_dk(built) == tree_to_dk(reference)
        assert rooted_bracket(built, "l0") == rooted_bracket(reference, "l0")


@pytest.mark.parametrize("build, message", [
    (lambda: assemble_unitrivalent(1, 1, [(0, 0), (0, 0)], []), "vertex t0 has more than three half-edges"),
    (lambda: assemble_unitrivalent(1, 2, [(0, 1)], [0, 0, 0]), "not enough leaf labels"),
    (lambda: assemble_unitrivalent(1, 1, [], [0, 0, 0, 0]), "too many leaf labels"),
    (lambda: flip_vertex(tripod(1, 0, 0, 0), "l0"), "no cyclic order at 'l0'"),
    (lambda: tree_to_dk(tripod(0, (), (), ())), "tree has no label rank"),
])
def test_builders_and_evaluators_refuse_bad_requests(build, message):
    with pytest.raises(ValidationError, match="^%s$" % re.escape(message)):
        build()


def test_validate_quotes_a_long_half_edge_in_one_short_line():
    with pytest.raises(ValidationError) as info:
        make_graph(1, {"t" * 5000: 3}, [], {})
    assert str(info.value) == "half-edge '%s... (5002 characters) is unpaired; and 2 more" % ("t" * 39)


def test_a_graph_is_checked_once_when_built(monkeypatch):
    calls = []
    monkeypatch.setattr("jfilt.trees.validate", lambda g: calls.append(g) or validate(g))
    g = random_labeled_tree(random.Random(2), 3, 3)
    assert calls == [g]
    tree_to_dk(g)
    rooted_bracket(g, "l0")
    assert calls == [g] and g.info == validate(g)
    assert flip_vertex(g, "t0").info == g.info and len(calls) == 2


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


@pytest.mark.parametrize("n, k", [(n, k) for n in range(1, 5) for k in range(1, 4)])
def test_span_check_images_are_the_caterpillar_graph_images(n, k):
    # span_check evaluates labelings on one compiled shape; each image must
    # be the one tree_to_dk gives the graph of that labeling.
    caterpillar = [(i, i + 1) for i in range(k - 1)]
    expected = set()
    for labels in _caterpillar_labelings(n, k):
        t = tree_to_dk(assemble_unitrivalent(n, k, caterpillar, labels))
        if t.terms:
            expected.add(t if t.terms[min(t.terms)] > 0 else -t)
    images = _caterpillar_images(n, k)
    assert len(images) == len(expected)
    assert set(images) == expected


def test_one_shape_evaluates_each_labeling_afresh():
    rng = random.Random(7)
    for n, k in [(2, 1), (3, 2), (4, 3), (2, 4)]:
        g = random_labeled_tree(rng, n, k)
        degree, steps = _tree_shape(g, "tree_to_dk")
        assert degree == k
        leaves = [vid for vid, arity in g.vertices if arity == 1]
        # The first labeling has a zero label, which evaluation skips, and the
        # second has none: each evaluation must read its own labels only.
        first = [(0,) * n] + [tuple(rng.randint(-3, 3) for _ in range(n)) for _ in leaves[1:]]
        second = [tuple(rng.randint(-3, 3) for _ in range(n)) for _ in leaves]
        for labels in (first, second, first):
            fresh = ClasperGraph(g.n, g.vertices, g.edges, g.cyclic, tuple(sorted(zip(leaves, labels))))
            assert _tree_image(n, k, steps, dict(zip(leaves, labels))) == tree_to_dk(fresh)


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


@pytest.mark.parametrize("n, k", [(n, k) for n in (2, 3, 4) for k in (1, 2, 3)])
def test_tree_images_match_the_tensor_evaluator(n, k):
    # The (n, k) shapes of the benchmark's trees workload.
    rng = random.Random(100 * n + k)
    for _ in range(4):
        g = random_labeled_tree(rng, n, k)
        assert tree_to_dk(g) == tensor_reference.tree_to_dk(g)
        for vid, arity in g.vertices:
            if arity == 1:
                assert rooted_bracket(g, vid) == tensor_reference.rooted_bracket(g, vid)


def test_tree_evaluation_refuses_past_the_term_bound():
    rng = random.Random(3)
    deep = assemble_unitrivalent(1, 100, [(i, i + 1) for i in range(99)], [0] * 102)
    for g in [random_labeled_tree(rng, n, k) for n, k in ((3, 7), (2, 13), (3, 14))] + [deep]:
        for call in (lambda: tree_to_dk(g), lambda: rooted_bracket(g, "l0")):
            with pytest.raises(PreconditionError, match="exceeds n\\^\\(k\\+2\\)"):
                call()
    assert 4 ** (5 + 2) == MAX_TREE_TERMS
    assert tree_to_dk(random_labeled_tree(rng, 4, 5)).level == 5


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
    for labels in (1, "a", [], None, True):
        with pytest.raises(ValidationError, match="labels must be an object"):
            clasper_from_json({"vertices": [{"id": "u", "arity": "univalent"}], "edges": [],
                               "labels": labels})


@pytest.mark.parametrize("data, message", [
    ({"vertices": ["u"], "edges": []}, "vertex 0 must be an object with a string id and an arity"),
    ({"vertices": [{"id": 1, "arity": "univalent"}], "edges": []},
     "vertex 0 must be an object with a string id and an arity"),
    ({"vertices": [{"id": "u", "arity": "3"}], "edges": []},
     "vertex 'u' has arity '3', expected 'univalent' or 'trivalent'"),
    ({"vertices": [{"id": "u", "arity": "univalent"}], "edges": [1]},
     "edge 0 must be a pair of half-edge strings"),
    ({"vertices": [{"id": "u", "arity": "univalent"}], "edges": [["u.0", "u.0", "u.0"]]},
     "edge 0 must be a pair of half-edge strings"),
    ({"vertices": [{"id": "s", "arity": "trivalent"}], "edges": [], "cyclic": {"s": ["s.0", "s.1"]}},
     "cyclic order of 's' must be a list of 3 half-edge strings"),
    ({"vertices": [{"id": "s", "arity": "trivalent"}], "edges": [], "cyclic": None},
     "cyclic must be an object"),
    ({"vertices": [{"id": "u", "arity": "univalent"}, {"id": "s", "arity": "trivalent"},
                   {"id": "u", "arity": "trivalent"}], "edges": []},
     "duplicate vertex id 'u'"),
    ({"vertices": [{"id": "u", "arity": "univalent"}], "edges": [], "labels": {"u": [1.9, 0, 0]}},
     "label of 'u' must be a list of integers"),
    ({"vertices": [{"id": "u", "arity": "univalent"}], "edges": [], "labels": {"u": ["2", 0, 0]}},
     "label of 'u' must be a list of integers"),
    ({"vertices": [{"id": "u", "arity": "univalent"}], "edges": [], "labels": {"u": [True, 0]}},
     "label of 'u' must be a list of integers"),
    ({"vertices": [{"id": "u", "arity": "univalent"}], "edges": [], "labels": {"u": "12"}},
     "label of 'u' must be a list of integers"),
])
def test_json_rejects_malformed_records(data, message):
    with pytest.raises(ValidationError, match="^bad graph payload: ") as info:
        clasper_from_json(data)
    assert message in str(info.value)


_TRIPOD_DOCUMENT = {
    "vertices": [{"id": "s", "arity": "trivalent"}, {"id": "a", "arity": "univalent"},
                 {"id": "b", "arity": "univalent"}, {"id": "c", "arity": "univalent"}],
    "edges": [["s.0", "a.0"], ["s.1", "b.0"], ["s.2", "c.0"]],
    "labels": {"a": [1, 0], "b": [0, 1], "c": [1, 1]},
}


@pytest.mark.parametrize("fields, message", [
    ({"cyclic": {"t": ["s.0", "s.2", "s.1"], "a": ["a.0", "a.1", "a.2"]}},
     "cyclic order at 'a', which is not a trivalent vertex; "
     "cyclic order at 't', which is not a trivalent vertex"),
    ({"edges": [["s.\u00b2", "a.0"], ["s.1", "b.0"], ["s.2", "c.0"]]},
     "bad half-edge 's.\u00b2', expected 'vertexid.slot'"),
    ({"edges": [["s." + "0" * 5000, "a.0"], ["s.1", "b.0"], ["s.2", "c.0"]]},
     "bad half-edge 's.000"),
])
def test_json_graphs_the_checks_refuse_by_their_own_messages(fields, message):
    # Refusals past the record checks: a half-edge text parse_half refuses,
    # or a cyclic order at a vertex that is absent or not trivalent.
    with pytest.raises(ValidationError) as info:
        validate(clasper_from_json(dict(_TRIPOD_DOCUMENT, **fields)))
    assert str(info.value).startswith(message)
    assert "invalid literal" not in str(info.value)


def test_parse_half_reads_short_ascii_slots():
    assert parse_half("s.2") == ("s", 2)
    assert parse_half("a.b.0") == ("a.b", 0)
    assert parse_half("s." + "9" * 9) == ("s", 999999999)
    for text in ("s.", ".0", "s.²", "s.٣", "s.+1", "s. 1", "s." + "1" * 10):
        with pytest.raises(ValidationError, match="^bad half-edge "):
            parse_half(text)


@pytest.mark.parametrize("payload", [[1, 2], "g", 3, None])
def test_json_rejects_a_payload_that_is_not_an_object(payload):
    with pytest.raises(ValidationError, match="^bad graph payload: expected a JSON object$"):
        clasper_from_json(payload)


@pytest.mark.parametrize("n", [2.5, 3.0, True, "3", None])
def test_json_rejects_n_that_is_not_an_integer(n):
    data = dict(clasper_to_json(h_tree(3, (0, 1), (2, 1))), n=n)
    with pytest.raises(ValidationError, match="^bad graph payload: n must be an integer$"):
        clasper_from_json(data)
