"""Tests for source-free graph orientations."""

import pytest

import jfilt.orientation
import jfilt.trees
from jfilt.errors import NotOrientable, PreconditionError, ValidationError
from jfilt.orientation import (
    census,
    count_valid_orientations,
    enumerate_unitrivalent,
    orient,
    orientation_to_json,
    oriented_dot,
    verify_orientation,
)
from jfilt.trees import TRIVALENT, UNIVALENT, h_tree, make_graph, tripod, validate
from orientation_reference import brute_force_count


def theta():
    return make_graph(
        0, {"a": 3, "b": 3}, [("a.0", "b.0"), ("a.1", "b.1"), ("a.2", "b.2")], {}
    )


def loop_leaf():
    return make_graph(
        1, {"v": 3, "l": 1}, [("v.0", "v.1"), ("v.2", "l.0")], {"l": (1,)}
    )


def strut():
    return make_graph(1, {"l": 1, "m": 1}, [("l.0", "m.0")], {"l": (1,), "m": (1,)})


def trivalent_cycle(size):
    """A cycle of ``size`` trivalent vertices, one leaf hanging off each."""
    vertices = {}
    edges = []
    labels = {}
    for i in range(size):
        vertices["c%d" % i] = TRIVALENT
        vertices["p%d" % i] = UNIVALENT
        labels["p%d" % i] = (1,)
        edges.append(("c%d.0" % i, "c%d.1" % ((i + 1) % size)))
        edges.append(("c%d.2" % i, "p%d.0" % i))
    return make_graph(1, vertices, edges, labels)


# ---------------------------------------------------------------------------
# Trees are rejected, cycles are oriented


def test_tripod_not_orientable():
    with pytest.raises(NotOrientable, match="tree: not orientable"):
        orient(tripod(1, (1,), (1,), (1,)))
    assert count_valid_orientations(tripod(1, (1,), (1,), (1,))) == 0


def test_h_tree_not_orientable():
    g = h_tree(2, (0, 1), (0, 1))
    with pytest.raises(NotOrientable):
        orient(g)
    assert count_valid_orientations(g) == 0


def test_theta_orients_and_counts_six():
    g = theta()
    o = orient(g)
    assert verify_orientation(g, o) == []
    assert count_valid_orientations(g) == 6


def test_loop_leaf_orients_and_counts_two():
    g = loop_leaf()
    o = orient(g)
    assert verify_orientation(g, o) == []
    # Leaf edge forced outward; the loop works in either direction.
    assert count_valid_orientations(g) == 2


def test_cycle_with_pendants():
    g = trivalent_cycle(4)
    o = orient(g)
    assert verify_orientation(g, o) == []
    assert count_valid_orientations(g) > 0


def test_orient_is_deterministic():
    a = orient(theta())
    b = orient(theta())
    assert a == b
    assert orientation_to_json(a) == orientation_to_json(b)


# ---------------------------------------------------------------------------
# Validation and preconditions


def test_disconnected_rejected():
    g = make_graph(
        1,
        {"v": 3, "l": 1, "w": 3, "m": 1},
        [("v.0", "v.1"), ("v.2", "l.0"), ("w.0", "w.1"), ("w.2", "m.0")],
        {"l": (1,), "m": (1,)},
    )
    with pytest.raises(ValidationError, match="connected"):
        orient(g)
    with pytest.raises(ValidationError, match="connected"):
        count_valid_orientations(g)


def test_count_bound():
    with pytest.raises(PreconditionError, match="16"):
        count_valid_orientations(trivalent_cycle(10))  # 20 edges


def test_enumerate_needs_positive_bound():
    with pytest.raises(PreconditionError):
        list(enumerate_unitrivalent(0))


# ---------------------------------------------------------------------------
# The independent verifier


def test_verifier_flags_incomplete():
    g = theta()
    o = orient(g)
    del o[1]
    assert verify_orientation(g, o) == ["orientation must direct every edge exactly once"]


def test_verifier_flags_inward_leaf():
    g = loop_leaf()
    o = orient(g)
    o[1] = (o[1][1], o[1][0])  # point the leaf edge inward
    assert any("away from its leaf" in p for p in verify_orientation(g, o))


def test_verifier_flags_source():
    # Direct every theta edge a -> b: vertex a has no incoming arrow.
    g = theta()
    o = {idx: (a, b) for idx, (a, b) in enumerate(g.edges)}
    assert any("source" in p for p in verify_orientation(g, o))


def test_verifier_flags_foreign_halves():
    g = theta()
    o = orient(g)
    o[0] = (("a", 0), ("b", 1))  # halves from two different edges
    assert any("foreign" in p for p in verify_orientation(g, o))


# ---------------------------------------------------------------------------
# Exhaustive enumeration


def test_enumeration_counts():
    assert len(list(enumerate_unitrivalent(1))) == 2
    assert len(list(enumerate_unitrivalent(2))) == 8
    assert len(list(enumerate_unitrivalent(3))) == 36


def test_enumerated_graphs_validate():
    for g in enumerate_unitrivalent(3):
        info = validate(g)
        assert info.connected
        assert info.degree >= 1


def test_orientable_iff_cycle_iff_positive_count():
    for g in enumerate_unitrivalent(3):
        info = validate(g)
        count = count_valid_orientations(g)
        try:
            o = orient(g)
            succeeded = verify_orientation(g, o) == []
        except NotOrientable:
            succeeded = False
        assert succeeded == (info.betti1 >= 1) == (count > 0)


def test_count_matches_the_brute_force_reference():
    graphs = list(enumerate_unitrivalent(4))
    assert len(graphs) == 300
    for g in graphs + [theta(), loop_leaf(), trivalent_cycle(3)]:
        assert count_valid_orientations(g) == brute_force_count(g), g
    # A strut cannot point into both leaves; no graph can hold one, since
    # building it refuses a component without a trivalent vertex.
    with pytest.raises(ValidationError, match="trivalent vertex"):
        strut()


def test_count_does_not_verify_orientations(monkeypatch):
    def refuse(g, orientation):
        raise AssertionError("count_valid_orientations called verify_orientation")

    monkeypatch.setattr(jfilt.orientation, "verify_orientation", refuse)
    assert count_valid_orientations(theta()) == 6


def test_census_verifies_each_orientable_graph_once(monkeypatch):
    calls = []
    original = jfilt.orientation.verify_orientation

    def counted(g, orientation):
        calls.append(g)
        return original(g, orientation)

    monkeypatch.setattr(jfilt.orientation, "verify_orientation", counted)
    rows, mismatches = census(3)
    assert mismatches == []
    assert [(r["trivalent"], r["orientable"], r["not_orientable"]) for r in rows] == [
        (1, 1, 1),
        (2, 5, 1),
        (3, 25, 3),
    ]
    assert len(calls) == sum(r["orientable"] for r in rows) == 31


def test_census_checks_each_graph_once_when_it_is_built(monkeypatch):
    calls = []
    monkeypatch.setattr(jfilt.trees, "validate", lambda g: calls.append(g) or validate(g))
    rows, _ = census(3)
    assert len(calls) == sum(r["orientable"] + r["not_orientable"] for r in rows) == 36


# ---------------------------------------------------------------------------
# Output formats


def test_orientation_json_shape():
    o = orient(theta())
    d = orientation_to_json(o)
    assert sorted(d) == ["0", "1", "2"]
    assert all("->" in v and "." in v for v in d.values())


def test_oriented_dot():
    g = loop_leaf()
    text = oriented_dot(g, orient(g))
    assert text.startswith("digraph")
    assert '"v" -> "l"' in text
