"""End-to-end checks of the command-line driver: exit codes, JSON/CSV
rendering, flag placement, the degree cap, and round-tripping of emitted
documents through the library parsers."""

import json
import os
import random
import re
import resource
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import jfilt.brackets
import jfilt.cli
import jfilt.lagrangian
import jfilt.orientation
from jfilt.acceptance import CriterionResult
from jfilt.automorphisms import (
    aut_from_json,
    aut_to_json,
    compose,
    framing_tuple,
    full_twist_tuple,
    invert_aut,
    is_identity,
    johnson_element,
    kernel_lift_tuple,
    milnor_compose,
    phi_hat,
    psi_hat,
    reduce_level,
    tuple_from_json,
    tuple_to_json,
    tuples_equal,
    X_ONLY,
    Y_ONLY,
)
from jfilt.brackets import dk_basis, dk_rank, tensor_from_json, tensor_to_json
from jfilt.cli import _build_parser, run
from jfilt.errors import ValidationError, excerpt
from jfilt.lagrangian import jl_element
from jfilt.lie import witt_dimension
from jfilt.trees import clasper_to_json, make_graph, random_labeled_tree, tree_to_dk
from jfilt.words import project_y


def invoke(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_json(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload, indent=2, sort_keys=True))
    return str(path)


def tripod_payload():
    g = make_graph(
        1,
        {"t0": 3, "l0": 1, "l1": 1, "l2": 1},
        [(("t0", 0), ("l0", 0)), (("t0", 1), ("l1", 0)), (("t0", 2), ("l2", 0))],
        {"l0": (1,), "l1": (1,), "l2": (1,)},
    )
    return clasper_to_json(g)


def theta_payload():
    g = make_graph(
        1,
        {"a": 3, "b": 3},
        [(("a", 0), ("b", 0)), (("a", 1), ("b", 1)), (("a", 2), ("b", 2))],
        {},
    )
    return clasper_to_json(g)


def h_tree_payload():
    g = make_graph(
        4,
        {"t0": 3, "t1": 3, "l0": 1, "l1": 1, "l2": 1, "l3": 1},
        [
            (("t0", 0), ("l0", 0)),
            (("t0", 1), ("l1", 0)),
            (("t0", 2), ("t1", 0)),
            (("t1", 1), ("l2", 0)),
            (("t1", 2), ("l3", 0)),
        ],
        {
            "l0": (1, 0, 0, 0),
            "l1": (0, 0, 1, 0),
            "l2": (0, 1, 0, 0),
            "l3": (0, 0, 0, 1),
        },
    )
    return g


def kernel_aut():
    return phi_hat(kernel_lift_tuple(3, 1, [1]))


def test_witt_prints_bare_number(capsys):
    code, out, _ = invoke(capsys, "witt", "4", "3")
    assert code == 0
    assert out.strip() == "20"


def test_degree_cap_default_and_override(capsys, monkeypatch):
    code, _, err = invoke(capsys, "witt", "4", "9")
    assert code == 3
    assert "JFILT_MAX_DEGREE" in err
    monkeypatch.setenv("JFILT_MAX_DEGREE", "4")
    code, _, err = invoke(capsys, "witt", "4", "5")
    assert code == 3
    assert "exceeds JFILT_MAX_DEGREE = 4" in err
    monkeypatch.setenv("JFILT_MAX_DEGREE", "12")
    code, out, _ = invoke(capsys, "witt", "4", "9")
    assert code == 0
    assert out.strip() == str(witt_dimension(4, 9)) == "29120"


def test_parser_is_built_once_and_reads_the_cap_per_call(capsys, monkeypatch):
    def rebuilt():
        raise AssertionError("run rebuilt the parser")

    monkeypatch.setattr(jfilt.cli, "_build_parser", rebuilt)
    for cap, code in (("4", 3), ("5", 0), ("4", 3)):
        monkeypatch.setenv("JFILT_MAX_DEGREE", cap)
        assert invoke(capsys, "witt", "4", "5")[0] == code
    # Flags of one call do not leak into the next.
    assert invoke(capsys, "dk", "rank", "4", "2", "--csv")[1].startswith("k,2")
    code, out, _ = invoke(capsys, "dk", "rank", "4", "2")
    assert code == 0 and json.loads(out)["rank"] == dk_rank(4, 2)


def test_dk_rank_json_and_flag_positions(capsys):
    code, out, _ = invoke(capsys, "dk", "rank", "4", "2")
    assert code == 0
    payload = json.loads(out)
    assert payload == {"n": 4, "k": 2, "rank": dk_rank(4, 2)}
    # canonical key order in the raw text
    assert out.index('"k"') < out.index('"n"') < out.index('"rank"')
    code, before, _ = invoke(capsys, "--csv", "dk", "rank", "4", "2")
    assert code == 0
    code, after, _ = invoke(capsys, "dk", "rank", "4", "2", "--csv")
    assert code == 0
    assert before == after
    assert "rank,20" in after


def test_dk_basis_round_trips(capsys):
    code, out, _ = invoke(capsys, "dk", "basis", "3", "2")
    assert code == 0
    payload = json.loads(out)
    parsed = [tensor_from_json(b) for b in payload["basis"]]
    assert parsed == dk_basis(3, 2)
    assert payload["rank"] == len(parsed) == dk_rank(3, 2)


def test_a1_dimensions(capsys):
    code, out, _ = invoke(capsys, "a1", "2")
    assert code == 0
    assert json.loads(out) == {"g": 2, "dimensions": [4, 11]}


def test_tree_image_matches_library(capsys, tmp_path):
    g = h_tree_payload()
    path = write_json(tmp_path, "h.json", clasper_to_json(g))
    code, out, _ = invoke(capsys, "tree", "image", path)
    assert code == 0
    assert json.loads(out) == tensor_to_json(tree_to_dk(g))


def test_tree_span(capsys):
    code, out, _ = invoke(capsys, "tree", "span", "4", "2")
    assert code == 0
    payload = json.loads(out)
    assert payload["equal"] is True
    assert payload["span_rank"] == payload["kernel_rank"] == dk_rank(4, 2)


def test_aut_compose_and_invert(capsys, tmp_path):
    h = kernel_aut()
    path = write_json(tmp_path, "h.json", aut_to_json(h))
    code, out, _ = invoke(capsys, "aut", "compose", path, path)
    assert code == 0
    assert aut_from_json(json.loads(out)) == compose(h, h)
    code, out, _ = invoke(capsys, "aut", "invert", path)
    assert code == 0
    assert is_identity(compose(h, aut_from_json(json.loads(out))))


def test_aut_check_aut0_and_degree(capsys, tmp_path):
    path = write_json(tmp_path, "h.json", aut_to_json(kernel_aut()))
    code, out, _ = invoke(capsys, "aut", "check-aut0", path)
    assert code == 0
    assert json.loads(out) == {"check_aut0": True}
    code, out, _ = invoke(capsys, "aut", "degree", path)
    assert code == 0
    assert json.loads(out) == {"filtration_degree": 1}


def test_non_unimodular_automorphism_exits_2(capsys, tmp_path):
    # x1 -> x1^2 doubles the determinant: the Smith check where input enters
    # refuses it before any query.
    path = write_json(tmp_path, "h.json", {"g": 1, "q": 3, "images": {"x1": "x1^2", "y1": "y1"}})
    code, out, err = invoke(capsys, "aut", "degree", path)
    assert code == 2 and out == ""
    assert "not invertible over the integers" in err


def test_image_keys_that_name_no_generator_exit_2(capsys, tmp_path):
    # Declared genus 1, with the images of a genus-2 automorphism.
    path = write_json(tmp_path, "h.json", {"g": 1, "q": 3, "images": {
        "x1": "x1 [x1,y1]", "y1": "y1", "x2": "x2 [x1,y2]", "y2": "y2"}})
    for argv in (["aut", "degree", path], ["aut", "compose", path, path]):
        code, out, err = invoke(capsys, *argv)
        assert code == 2 and out == ""
        assert "image key 'x2' names no generator of genus 1" in err


def test_an_automorphism_file_that_is_not_an_object_exits_2(capsys, tmp_path):
    path = write_json(tmp_path, "h.json", [1, 2])
    code, out, err = invoke(capsys, "aut", "degree", path)
    assert code == 2 and out == ""
    assert "expected a JSON object" in err and "list indices" not in err


# Each reader's commands, with the kind its refusals name.
READER_COMMANDS = {
    "tuple": (("stringlink", "phi"), ("stringlink", "psi"), ("stringlink", "compose")),
    "graph": (("tree", "image"), ("graph", "orient"), ("graph", "count")),
    "automorphism": (("aut", "degree"), ("aut", "compose")),
}


def _refusals(capsys, tmp_path, kind, payload):
    """The stderr of each command that reads ``payload`` as a ``kind``
    document, after checking that each exits 2 with the reader's message."""
    path = write_json(tmp_path, "bad.json", payload)
    errs = []
    for command in READER_COMMANDS[kind]:
        files = (path, path) if command[1] == "compose" else (path,)
        code, out, err = invoke(capsys, *command, *files)
        assert code == 2 and out == "", (command, payload, err)
        assert err.startswith("error: bad %s payload: " % kind), (command, payload, err)
        assert "list indices" not in err
        errs.append(err)
    return errs


@pytest.mark.parametrize("kind", sorted(READER_COMMANDS))
@pytest.mark.parametrize("payload", [[1, 2], "g", 3, None])
def test_a_file_that_is_not_an_object_exits_2(capsys, tmp_path, kind, payload):
    for err in _refusals(capsys, tmp_path, kind, payload):
        assert err == "error: bad %s payload: expected a JSON object\n" % kind


@pytest.mark.parametrize("entries", ["  ", "y1", {"y1": 1}, None])
def test_tuple_entries_that_are_not_a_list_exit_2(capsys, tmp_path, entries):
    for err in _refusals(capsys, tmp_path, "tuple", {"g": 2, "q": 3, "entries": entries}):
        assert "entries must be a list" in err


@pytest.mark.parametrize("bad", [True, False, 1.9, 2.0, "2", None, [2]])
def test_integer_fields_that_are_not_json_integers_exit_2(capsys, tmp_path, bad):
    cases = [
        ("tuple", tuple_to_json(framing_tuple(2, 3, [1, 0])), ("g", "q")),
        ("automorphism", aut_to_json(kernel_aut()), ("g", "q")),
        ("graph", theta_payload(), ("n",)),
    ]
    for kind, good, fields in cases:
        for field in fields:
            for err in _refusals(capsys, tmp_path, kind, dict(good, **{field: bad})):
                assert "%s must be an integer" % field in err


@pytest.mark.parametrize("field, value, message", [
    ("vertices", ["u"], "vertex 0 must be an object with a string id and an arity"),
    ("vertices", [{"id": "a", "arity": [3]}], "vertex 'a' has arity [3], expected"),
    ("edges", [1], "edge 0 must be a pair of half-edge strings"),
    ("edges", [["a.0", "b.0"], ["a.1"]], "edge 1 must be a pair of half-edge strings"),
    ("cyclic", {"a": "a.0"}, "cyclic order of 'a' must be a list of 3 half-edge strings"),
    ("vertices", [{"id": "a", "arity": "trivalent"}, {"id": "b", "arity": "trivalent"},
                  {"id": "a", "arity": "univalent"}], "duplicate vertex id 'a'"),
])
def test_malformed_graph_records_exit_2(capsys, tmp_path, field, value, message):
    for err in _refusals(capsys, tmp_path, "graph", dict(theta_payload(), **{field: value})):
        assert message in err
        assert "string indices" not in err and "cannot unpack" not in err


def test_missing_fields_exit_2(capsys, tmp_path):
    cases = [
        ("tuple", tuple_to_json(framing_tuple(2, 3, [1, 0]))),
        ("automorphism", aut_to_json(kernel_aut())),
        ("graph", theta_payload()),
    ]
    for kind, good in cases:
        for field in ("g", "q", "entries", "images", "vertices", "edges"):
            if field in good:
                bad = {key: value for key, value in good.items() if key != field}
                for err in _refusals(capsys, tmp_path, kind, bad):
                    assert "missing field %r" % field in err


@pytest.mark.parametrize("level", ["1", "0", "-3"])
def test_level_below_2_exits_2(capsys, tmp_path, level):
    path = write_json(tmp_path, "h.json", aut_to_json(kernel_aut()))
    for argv in (["aut", "degree", path], ["aut", "compose", path, path]):
        code, out, err = invoke(capsys, *argv, "--level", level)
        assert code == 2 and out == ""
        assert "level must be at least 2" in err


def test_aut_johnson_default_k(capsys, tmp_path):
    h = kernel_aut()
    path = write_json(tmp_path, "h.json", aut_to_json(h))
    code, out, _ = invoke(capsys, "aut", "johnson", path)
    assert code == 0
    payload = json.loads(out)
    assert payload["k"] == 1
    assert payload["tensor"] == tensor_to_json(johnson_element(h, 1))


def test_johnson_on_homologically_visible_element_exits_3(capsys, tmp_path):
    h = phi_hat(framing_tuple(2, 3, [1, 0], Y_ONLY))
    path = write_json(tmp_path, "h.json", aut_to_json(h))
    code, _, err = invoke(capsys, "aut", "johnson", path, "--k", "1")
    assert code == 3
    assert "filtration_degree" in err


def test_stringlink_phi_psi(capsys, tmp_path):
    t = framing_tuple(2, 3, [1, 0], Y_ONLY)
    path = write_json(tmp_path, "t.json", tuple_to_json(t))
    code, out, _ = invoke(capsys, "stringlink", "phi", path)
    assert code == 0
    assert aut_from_json(json.loads(out)) == phi_hat(t)
    s = full_twist_tuple(2, 3, 1, X_ONLY)
    path = write_json(tmp_path, "s.json", tuple_to_json(s))
    code, out, _ = invoke(capsys, "stringlink", "psi", path)
    assert code == 0
    assert aut_from_json(json.loads(out)) == psi_hat(s)


def test_stringlink_compose(capsys, tmp_path):
    a = framing_tuple(2, 3, [1, 0], Y_ONLY)
    b = framing_tuple(2, 3, [0, 1], Y_ONLY)
    pa = write_json(tmp_path, "a.json", tuple_to_json(a))
    pb = write_json(tmp_path, "b.json", tuple_to_json(b))
    code, out, _ = invoke(capsys, "stringlink", "compose", pa, pb)
    assert code == 0
    assert tuples_equal(tuple_from_json(json.loads(out)), milnor_compose(a, b))


def test_stringlink_extract_inverts_phi(capsys, tmp_path):
    t = kernel_lift_tuple(3, 1, [1])
    path = write_json(tmp_path, "h.json", aut_to_json(phi_hat(t)))
    code, out, _ = invoke(capsys, "stringlink", "extract", path, "--k", "1")
    assert code == 0
    got = tuple_from_json(json.loads(out))
    assert got.level == 2
    assert got.entries == t.entries


def test_stringlink_extract_needs_k_at_least_1(capsys, tmp_path):
    path = write_json(tmp_path, "h.json", aut_to_json(phi_hat(kernel_lift_tuple(3, 1, [1]))))
    for k in ("0", "-1"):
        code, _, err = invoke(capsys, "stringlink", "extract", path, "--k", k)
        assert code == 3, (k, err)
        assert "k must be at least 1" in err


def test_lagrangian_jl_and_degree(capsys, tmp_path):
    h = kernel_aut()
    path = write_json(tmp_path, "h.json", aut_to_json(h))
    code, out, _ = invoke(capsys, "lagrangian", "jl", path)
    assert code == 0
    payload = json.loads(out)
    report = jl_element(h, 1)
    assert payload["k"] == 1
    assert payload["in_hat"] is True
    assert payload["value"] == tensor_to_json(report.value)
    code, out, _ = invoke(capsys, "lagrangian", "degree", path)
    assert code == 0
    assert json.loads(out) == {"lagrangian_degree": 1}


def test_lagrangian_jl_expands_each_projected_word_once(capsys, tmp_path, monkeypatch):
    # The default k reads the Lagrangian degree at the level, and jl reads
    # the same projections again at k + 2 = level.
    f = phi_hat(kernel_lift_tuple(2, 2, [1]))
    path = write_json(tmp_path, "h.json", aut_to_json(compose(f, f)))
    expanded = []
    real = jfilt.automorphisms.magnus_expand
    monkeypatch.setattr(jfilt.automorphisms, "magnus_expand",
                        lambda w, q: expanded.append((w.letters, q)) or real(w, q))
    code, out, _ = invoke(capsys, "lagrangian", "jl", path)
    assert code == 0
    assert json.loads(out)["k"] == 2
    projected = [project_y(w).letters for w in compose(f, f).images[:2]]
    assert sorted(expanded) == sorted((letters, 4) for letters in projected)


def test_lagrangian_cocycle(capsys, tmp_path):
    path = write_json(tmp_path, "h.json", aut_to_json(kernel_aut()))
    code, out, _ = invoke(capsys, "lagrangian", "cocycle", path, path, "--k", "1")
    assert code == 0
    assert json.loads(out) == {"k": 1, "holds": True}


def test_gap_table_csv(capsys):
    code, out, _ = invoke(
        capsys, "lagrangian", "gap-table", "--gmax", "4", "--kmax", "2", "--csv"
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "g,k,kernel_rank,braid_rank,gap,closed_form,match"
    assert "3,2,6,2,4,4,true" in lines
    assert len(lines) == 1 + 3 * 2


def test_gap_table_csv_leaves_an_unknown_closed_form_empty(capsys):
    # k = 4 has no closed form, so its closed_form and match cells are empty.
    code, out, _ = invoke(capsys, "--csv", "lagrangian", "gap-table", "--kmax", "4")
    assert code == 0
    assert out.splitlines()[0] == "g,k,kernel_rank,braid_rank,gap,closed_form,match"
    assert out.splitlines()[9:] == [
        "2,3,0,0,0,0,true", "3,3,6,3,3,3,true", "4,3,36,21,15,15,true", "5,3,126,81,45,45,true",
        "2,4,3,0,3,,", "3,4,28,6,22,,", "4,4,146,54,92,,", "5,4,540,258,282,,",
    ]


def test_graph_orient_csv_quotes_the_dot_cell(capsys, tmp_path):
    code, out, _ = invoke(capsys, "--csv", "graph", "orient", write_json(tmp_path, "theta.json", theta_payload()))
    assert code == 0
    assert out == "\n".join([
        'dot,"digraph clasper {',
        '  ""a"" [shape=point];',
        '  ""b"" [shape=point];',
        '  ""b"" -> ""a"" [label=""e0"", taillabel=""0"", headlabel=""0""];',
        '  ""a"" -> ""b"" [label=""e1"", taillabel=""1"", headlabel=""1""];',
        '  ""a"" -> ""b"" [label=""e2"", taillabel=""2"", headlabel=""2""];',
        '}"',
        'orientation,"{""0"": ""b.0->a.0"", ""1"": ""a.1->b.1"", ""2"": ""a.2->b.2""}"',
        "",
    ])


def test_witt_csv_prints_bare_number(capsys):
    assert invoke(capsys, "--csv", "witt", "4", "3") == (0, "20\n", "")


def test_gap_table_json(capsys):
    code, out, _ = invoke(capsys, "lagrangian", "gap-table", "--gmax", "3", "--kmax", "1")
    assert code == 0
    rows = json.loads(out)
    assert [r["g"] for r in rows] == [2, 3]
    assert all(r["match"] for r in rows)


def test_gap_table_exits_1_when_a_closed_form_disagrees(capsys, monkeypatch):
    monkeypatch.setattr(jfilt.lagrangian, "gap_closed_form", lambda g, k: -1)
    code, out, err = invoke(capsys, "lagrangian", "gap-table", "--gmax", "3", "--kmax", "1")
    assert code == 1
    assert [r["match"] for r in json.loads(out)] == [False, False]
    assert "2 rows disagree" in err


def test_graph_census(capsys, tmp_path, monkeypatch):
    code, out, _ = invoke(capsys, "graph", "census", "--tmax", "5")
    assert code == 0
    assert json.loads(out) == [
        {"trivalent": 1, "orientable": 1, "not_orientable": 1},
        {"trivalent": 2, "orientable": 5, "not_orientable": 1},
        {"trivalent": 3, "orientable": 25, "not_orientable": 3},
        {"trivalent": 4, "orientable": 248, "not_orientable": 16},
        {"trivalent": 5, "orientable": 3232, "not_orientable": 120},
    ]
    code, out, _ = invoke(capsys, "graph", "census", "--tmax", "2", "--csv")
    assert code == 0
    assert out.splitlines() == ["trivalent,orientable,not_orientable", "1,1,1", "2,5,1"]
    path = write_json(tmp_path, "theta.json", theta_payload())
    assert invoke(capsys, "graph", "census", path)[0] == 2
    assert invoke(capsys, "graph", "orient")[0] == 2
    monkeypatch.setattr(jfilt.orientation, "count_valid_orientations", lambda g: 0)
    code, _, err = invoke(capsys, "graph", "census", "--tmax", "2")
    assert code == 1
    assert "6 graphs disagree" in err  # the orientable ones


def test_graph_census_past_the_brute_force_bound_exits_3_at_once(capsys):
    # Size 7 stays within the count's 16 edges but has 1.25 million graphs.
    start = time.perf_counter()
    code, out, err = invoke(capsys, "graph", "census", "--tmax", "7")
    assert code == 3
    assert out == ""
    assert "census bound of 6" in err
    assert time.perf_counter() - start < 1.0


def test_dk_basis_past_the_matrix_cell_bound_exits_3_at_once(capsys, monkeypatch):
    # (11, 2) is the smallest k = 2 pair whose basis coordinates pass the
    # bound; its rank still prints.  No block is built before the refusal.
    built = []
    original = jfilt.brackets._block_rows

    def spy(*args):
        built.append(args)
        return original(*args)

    monkeypatch.setattr(jfilt.brackets, "_block_rows", spy)
    for n, k in (("11", "2"), ("8", "3"), ("40", "2")):
        start = time.perf_counter()
        code, out, err = invoke(capsys, "dk", "basis", n, k)
        assert code == 3, (n, k)
        assert out == ""
        assert "over the bound" in err and "Traceback" not in err
        assert time.perf_counter() - start < 1.0
    assert built == []
    code, out, _ = invoke(capsys, "dk", "rank", "11", "2")
    assert code == 0
    code, out, _ = invoke(capsys, "dk", "basis", "10", "2")
    assert code == 0
    assert json.loads(out)["rank"] == 825


def test_graph_orient_theta(capsys, tmp_path):
    path = write_json(tmp_path, "theta.json", theta_payload())
    code, out, _ = invoke(capsys, "graph", "orient", path)
    assert code == 0
    payload = json.loads(out)
    assert sorted(payload["orientation"]) == ["0", "1", "2"]
    assert payload["dot"].startswith("digraph")


def test_graph_orient_tree_exits_2(capsys, tmp_path):
    path = write_json(tmp_path, "tripod.json", tripod_payload())
    code, _, err = invoke(capsys, "graph", "orient", path)
    assert code == 2
    assert "tree: not orientable" in err


def test_graph_count(capsys, tmp_path):
    path = write_json(tmp_path, "theta.json", theta_payload())
    code, out, _ = invoke(capsys, "graph", "count", path)
    assert code == 0
    assert json.loads(out) == {"count": 6}


def test_malformed_and_missing_input_exit_2(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("not json")
    code, _, err = invoke(capsys, "aut", "invert", str(bad))
    assert code == 2
    assert "malformed JSON" in err
    code, _, err = invoke(capsys, "aut", "invert", str(tmp_path / "missing.json"))
    assert code == 2
    assert "cannot read" in err
    code, _, err = invoke(capsys, "witt", "2", "3", "--out", str(tmp_path / "missing" / "x.json"))
    assert code == 2
    assert "cannot write" in err
    for n, k, bad in (("2", "abc", "k"), ("x", "2", "n"), ("2", "1e3", "k")):
        code, _, err = invoke(capsys, "tree", "span", n, k)
        assert code == 2, (n, k, err)
        assert "argument %s: invalid int value: %r" % (bad, n if bad == "n" else k) in err
    for n, k in (("0", "2"), ("3", "0")):
        code, out, err = invoke(capsys, "dk", "basis", n, k)
        assert code == 2 and out == "", (n, k, err)
        assert "need n >= 1 and k >= 1" in err
    # Graph files whose labels are not an object.
    for labels in (1, "a", [], None, True):
        path = write_json(tmp_path, "labels.json", dict(theta_payload(), labels=labels))
        for command in (("tree", "image"), ("graph", "orient"), ("graph", "count")):
            code, _, err = invoke(capsys, *command, path)
            assert code == 2, (labels, command, err)
            assert "labels must be an object" in err
    # JSON nested past the decoder's recursion limit, bytes that are not
    # UTF-8, and an integer with more digits than int() converts.
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100000 + "]" * 100000)
    undecodable = tmp_path / "undecodable.json"
    undecodable.write_bytes(b"\xff\xfe\x80{")
    long_int = tmp_path / "long_int.json"
    long_int.write_text('{"g": %s}' % ("1" * 5000))
    for path in (deep, undecodable, long_int):
        for command in (("aut", "degree"), ("graph", "orient")):
            code, _, err = invoke(capsys, *command, str(path))
            assert code == 2, (path, command, err)
            assert "malformed JSON" in err
    # Numbers past float range read as infinity, which no count accepts.
    def huge(payload, field):
        path = tmp_path / ("huge_%s.json" % field)
        path.write_text(json.dumps(dict(payload, **{field: "HUGE"})).replace('"HUGE"', "1e400"))
        return str(path)

    path = huge(theta_payload(), "n")
    for command in (("tree", "image"), ("graph", "orient"), ("graph", "count")):
        code, _, err = invoke(capsys, *command, path)
        assert code == 2, (command, err)
        assert "bad graph payload" in err
    framing = tuple_to_json(framing_tuple(1, 3, [1]))
    ok = write_json(tmp_path, "ok.json", framing)
    for field in ("g", "q"):
        path = huge(framing, field)
        for argv in (("phi", path), ("psi", path), ("compose", path, ok)):
            code, _, err = invoke(capsys, "stringlink", *argv)
            assert code == 2, (field, argv, err)
            assert "bad tuple payload" in err
    # A word nested past MAX_WORD_NESTING; 495 groups used to overflow the
    # recursion of the old parser and now parse.
    for depth, expected in ((495, 0), (2000, 2), (100000, 2)):
        image = "(" * depth + "x1" + ")" * depth
        path = write_json(tmp_path, "nested.json", {"g": 1, "q": 3, "images": {"x1": image, "y1": "y1"}})
        code, _, err = invoke(capsys, "aut", "degree", path)
        assert code == expected, (depth, err)
        assert expected == 0 or "more than 500 deep" in err


# Pieces of word strings, most of them malformed on their own.
WORD_PIECES = ["x1", "x2", "y1", "y2", "x0", "y3", "x01", "z1", "x", "^", "^2", "^-1", "^-",
               "^99999999", "^" + "9" * 5000, "[", "]", "(", ")", ",", " ", "\t", "$"]
# Words of weight at least 2, so that z -> z w is an automorphism.
DEEP_WORDS = ["[x1,y1]", "[y1,x1]^2", "[x1,[x1,y1]]", "[x2,y2]^-1", "(x1 y1 x1^-1 y1^-1)^3", "[x1,y1]^99999999"]
junk = st.one_of(
    st.none(), st.booleans(), st.integers(), st.floats(), st.text(max_size=6),
    st.lists(st.integers(0, 2), max_size=2),
)
word_texts = st.one_of(
    st.lists(st.sampled_from(WORD_PIECES), max_size=12).map("".join),
    st.lists(st.sampled_from(DEEP_WORDS), max_size=2).map(" ".join),
    st.text(max_size=12),
)


@st.composite
def aut_documents(draw):
    """Automorphism JSON with some images near the identity and some
    malformed, and now and then a spoiled field or no JSON at all."""
    g = draw(st.integers(1, 2))
    names = ["x%d" % i for i in range(1, g + 1)] + ["y%d" % i for i in range(1, g + 1)]
    images = {}
    for name in names:
        if draw(st.integers(0, 3)):
            images[name] = "%s %s" % (name, draw(st.sampled_from(["", *DEEP_WORDS])))
        else:
            images[name] = draw(word_texts)
    doc = {"g": g, "q": draw(st.integers(2, 4)), "images": images}
    spoiled = draw(st.sampled_from([None] * 6 + ["g", "q", "images", "x1", "document"]))
    if spoiled == "document":
        return draw(st.one_of(st.text(max_size=20), junk.map(json.dumps)))
    if spoiled == "x1":
        images[spoiled] = draw(junk)
    elif spoiled:
        doc[spoiled] = draw(junk)
    return json.dumps(doc)


commands = st.sampled_from([
    ("aut", "compose"), ("aut", "invert"), ("aut", "check-aut0"), ("aut", "degree"),
    ("aut", "johnson"), ("lagrangian", "degree"), ("lagrangian", "jl"),
])


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(commands, aut_documents(), aut_documents())
def test_malformed_automorphisms_exit_cleanly_in_bounded_time(capsys, tmp_path, command, first, second):
    paths = [tmp_path / "first.json", tmp_path / "second.json"]
    paths[0].write_text(first)
    paths[1].write_text(second)
    files = [str(p) for p in paths] if command[1] == "compose" else [str(paths[0])]
    start = time.perf_counter()
    code = run([*command, *files])
    elapsed = time.perf_counter() - start
    err = capsys.readouterr().err
    assert code in (0, 2, 3), err
    assert "Traceback" not in err
    assert elapsed < 5.0


def run_in_one_gib(*argv):
    """Run the CLI in a child whose address space is capped at 1 GiB, so that
    building a huge word fails there rather than taking the host's memory.
    Returns the finished process and its wall time in seconds."""
    src = os.path.dirname(os.path.dirname(jfilt.__file__))
    limit = 1 << 30
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "jfilt.cli", *argv],
        env=dict(os.environ, PYTHONPATH=src),
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (limit, limit)),
        capture_output=True,
        text=True,
        timeout=60,
    )
    return proc, time.perf_counter() - start


def test_hostile_power_exits_2_quickly_without_building_it(tmp_path):
    # 20 bytes asking for 2 * 10^8 letters.
    payload = {"g": 1, "q": 3, "images": {"x1": "(x1 y1)^100000000", "y1": "y1"}}
    proc, elapsed = run_in_one_gib("aut", "degree", write_json(tmp_path, "hostile.json", payload))
    assert proc.returncode == 2, proc.stderr
    assert "would exceed" in proc.stderr
    assert "Traceback" not in proc.stderr
    assert elapsed < 1.0


def test_hostile_exponent_in_compose_exits_2_without_building_it(tmp_path):
    # x1 -> x1 y1 applied to y1 x1^100000000 asks for 2 * 10^8 letters.
    first = write_json(tmp_path, "a.json", {"g": 1, "q": 3, "images": {"x1": "x1 y1", "y1": "y1"}})
    second = write_json(
        tmp_path, "b.json", {"g": 1, "q": 3, "images": {"x1": "x1", "y1": "y1 x1^100000000"}}
    )
    proc, elapsed = run_in_one_gib("aut", "compose", first, second)
    assert proc.returncode == 2, proc.stderr
    assert "would exceed" in proc.stderr
    assert "Traceback" not in proc.stderr
    assert elapsed < 1.0


def test_gap_table_with_a_huge_gmax_ends_in_bounded_time():
    # 13 bytes of arguments.  Summing each row's braid rank afresh made this
    # quadratic in gmax; it ran past 30 s.
    proc, elapsed = run_in_one_gib("lagrangian", "gap-table", "--gmax", "200000", "--kmax", "1")
    assert proc.returncode in (0, 3), proc.stderr
    assert "Traceback" not in proc.stderr
    assert elapsed < 10.0


def test_oversized_tree_image_exits_3_before_evaluating(tmp_path, monkeypatch):
    # A random-labeled tree of degree 14 with labels of rank 3 (2,448 bytes as
    # compact JSON), whose evaluation ran past 20 s.  The default degree cap
    # refuses it, and with the cap raised, n^(k+2) = 3^16 is over the bound.
    path = write_json(tmp_path, "big.json", clasper_to_json(random_labeled_tree(random.Random(1), 3, 14)))
    for cap, message in (("8", "JFILT_MAX_DEGREE"), ("20", "n^(k+2)")):
        monkeypatch.setenv("JFILT_MAX_DEGREE", cap)
        proc, elapsed = run_in_one_gib("tree", "image", path)
        assert proc.returncode == 3, proc.stderr
        assert message in proc.stderr
        assert "Traceback" not in proc.stderr
        assert elapsed < 10.0


def test_chained_compose_exits_2_before_building_the_product(tmp_path):
    # Each factor multiplies the image of x1 by about 100: three copies ask
    # for 2 * 10^6 letters and four for about 2 * 10^8.
    path = write_json(
        tmp_path, "a.json", {"g": 1, "q": 3, "images": {"x1": "x1 [x1,y1]^50", "y1": "y1"}}
    )
    for copies in (3, 4):
        proc, elapsed = run_in_one_gib("aut", "compose", *[path] * copies)
        assert proc.returncode == 2, proc.stderr
        assert "would exceed" in proc.stderr
        assert "Traceback" not in proc.stderr
        assert elapsed < 1.0


def test_cocycle_of_a_product_past_the_word_cap_builds_no_product_words(tmp_path):
    # The product's x1 image would have about 2 * 10^6 letters.  The cocycle
    # reads the product's series only, so it answers; rendering the product
    # still meets the cap.
    path = write_json(
        tmp_path, "a.json", {"g": 1, "q": 3, "images": {"x1": "x1 [x1,y1]^500", "y1": "y1"}}
    )
    proc, elapsed = run_in_one_gib("lagrangian", "cocycle", path, path)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == {"k": 1, "holds": True}
    assert elapsed < 1.0
    proc, _ = run_in_one_gib("aut", "compose", path, path)
    assert proc.returncode == 2, proc.stderr
    assert "would exceed" in proc.stderr
    assert "Traceback" not in proc.stderr


def hostile_series_payload():
    """Genus 4, level 8: images x_i [u, v] with u and v 20 random letters
    long, y_i fixed.  Below degree 8 the series of one such image can hold
    over a million terms; before the term cap such a file ran about 30 s at
    1.2 GB."""
    rng = random.Random(1)
    names = ["x%d" % i for i in range(1, 5)] + ["y%d" % i for i in range(1, 5)]

    def letters():
        return " ".join(rng.choice(names) + rng.choice(("", "^-1")) for _ in range(20))

    images = {"x%d" % i: "x%d [%s, %s]" % (i, letters(), letters()) for i in range(1, 5)}
    images.update({"y%d" % i: "y%d" % i for i in range(1, 5)})
    return {"g": 4, "q": 8, "images": images}


def test_a_series_past_the_term_cap_exits_3_without_a_traceback(tmp_path):
    path = write_json(tmp_path, "hostile.json", hostile_series_payload())
    for command in ("aut degree", "aut check-aut0", "aut johnson"):
        proc, elapsed = run_in_one_gib(*command.split(), path)
        assert proc.returncode == 3, (command, proc.stderr)
        assert "would exceed 200000 terms" in proc.stderr
        assert "Traceback" not in proc.stderr
        assert elapsed < 10.0


def test_conjugation_power_in_stringlink_compose_stays_one_letter(tmp_path):
    # The conjugation action sends y1^100000000 to (y2^-1 y1 y2)^100000000,
    # which is y2^-1 y1^100000000 y2: three letters, not 3 * 10^8.
    first = write_json(tmp_path, "a.json", {"g": 2, "q": 3, "kind": "y", "entries": ["y2", "y1"]})
    second = write_json(
        tmp_path, "b.json", {"g": 2, "q": 3, "kind": "y", "entries": ["y1^100000000", ""]}
    )
    proc, elapsed = run_in_one_gib("stringlink", "compose", first, second)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["entries"] == ["y1^100000000 y2", "y1"]
    assert elapsed < 1.0


def test_selftest_checks_survive_optimized_mode():
    src = os.path.dirname(os.path.dirname(jfilt.__file__))
    proc = subprocess.run(
        [sys.executable, "-O", "-m", "jfilt.cli", "selftest"],
        env=dict(os.environ, PYTHONPATH=src),
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    lines = [l for l in proc.stdout.splitlines() if l.startswith("CRITERION")]
    assert len(lines) == 10
    assert all(" PASS " in l for l in lines)


def test_failed_invariant_exits_4_without_traceback(capsys, monkeypatch):
    def broken(terms):
        return {(0, 0, 1): 1}

    # ``dk_basis`` checks each kernel vector through the sparse contraction.
    monkeypatch.setattr(jfilt.brackets, "_contract", broken)
    code, out, err = invoke(capsys, "dk", "basis", "3", "1")
    assert code == 4
    assert out == ""
    assert "kernel basis vector fails the contraction" in err
    assert "Traceback" not in err


def test_readme_cli_block_parses():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    assert "scripts/" not in readme
    block = readme.split("## CLI", 1)[1].split("```sh", 1)[1].split("```", 1)[0]
    parser = _build_parser()
    commands = []
    for line in block.splitlines():
        argv = re.sub(r"\[[^\]]*\]", "", line.split("#", 1)[0]).split()
        if argv and argv[0] == "jfilt":
            commands.append(argv)
    assert len(commands) >= 20
    for argv in commands:
        try:
            parser.parse_args(argv[1:])
        except ValidationError:
            pytest.fail("README line does not parse: %s" % " ".join(argv))


# Each action: the positionals of a call it accepts, a flag it does not read,
# and a call with a non-integer where it declares an integer (None if it
# declares none).  "F.json" is never created: the parser refuses first, and
# a call it let through would end in "cannot read".
ACTIONS = [
    ("witt", ["4", "3"], ["--seed", "1"], ["4", "x"]),
    ("dk rank", ["4", "2"], ["--level", "3"], ["x", "2"]),
    ("dk basis", ["4", "2"], ["--k", "1"], ["4", "2.0"]),
    ("a1", ["2"], ["--level", "3"], ["x"]),
    ("tree image", ["F.json"], ["--level", "3"], None),
    ("tree span", ["4", "2"], ["--seed", "1"], ["2", "abc"]),
    ("aut compose", ["F.json", "F.json"], ["--k", "1"], ["F.json", "F.json", "--level", "x"]),
    ("aut invert", ["F.json"], ["--k", "1"], ["F.json", "--level", "x"]),
    ("aut check-aut0", ["F.json"], ["--k", "1"], ["F.json", "--level", "x"]),
    ("aut degree", ["F.json"], ["--k", "1"], ["F.json", "--level", "x"]),
    ("aut johnson", ["F.json"], ["--seed", "1"], ["F.json", "--k", "x"]),
    ("stringlink phi", ["F.json"], ["--k", "1"], ["F.json", "--level", "x"]),
    ("stringlink psi", ["F.json"], ["--k", "1"], ["F.json", "--level", "x"]),
    ("stringlink compose", ["F.json", "F.json"], ["--level", "3"], None),
    ("stringlink extract", ["F.json"], ["--tmax", "1"], ["F.json", "--k", "x"]),
    ("lagrangian jl", ["F.json"], ["--gmax", "3"], ["F.json", "--k", "2.5"]),
    ("lagrangian degree", ["F.json"], ["--k", "1"], ["F.json", "--level", "x"]),
    ("lagrangian cocycle", ["F.json", "F.json"], ["--kmax", "1"], ["F.json", "F.json", "--k", "x"]),
    ("lagrangian gap-table", [], ["--level", "3"], ["--gmax", "x"]),
    ("graph orient", ["F.json"], ["--tmax", "4"], None),
    ("graph count", ["F.json"], ["--level", "3"], None),
    ("graph census", [], ["--seed", "1"], ["--tmax", "x"]),
    ("selftest", [], ["--csv"], ["--seed", "x"]),
]


def _malformed_command_lines():
    for action, positionals, stray, non_integer in ACTIONS:
        argv = action.split()
        if positionals:
            yield pytest.param(argv + positionals[:-1], id="%s-missing" % action)
        if action != "aut compose":  # which takes any number of files past two
            yield pytest.param(argv + positionals + ["F.json"], id="%s-extra" % action)
        yield pytest.param(argv + positionals + stray, id="%s-stray-flag" % action)
        if non_integer:
            yield pytest.param(argv + non_integer, id="%s-non-integer" % action)


@pytest.mark.parametrize("argv", _malformed_command_lines())
def test_malformed_command_lines_exit_2_with_one_error_line(capsys, argv):
    code, out, err = invoke(capsys, *argv)
    assert code == 2 and out == "", (argv, err)
    assert err.startswith("error: jfilt") and err.count("\n") == 1, (argv, err)
    assert "Traceback" not in err and "usage:" not in err


def test_only_csv_and_out_go_before_the_command(capsys, tmp_path):
    path = write_json(tmp_path, "h.json", aut_to_json(kernel_aut()))
    target = tmp_path / "out.json"
    code, out, _ = invoke(capsys, "--csv", "--out", str(target), "aut", "degree", path)
    assert (code, out, target.read_text()) == (0, "", "filtration_degree,1\n")
    for flag in (["--level", "3"], ["--k", "1"], ["--seed", "1"]):
        code, out, err = invoke(capsys, *flag, "aut", "johnson", path)
        assert code == 2 and out == "" and err.startswith("error: jfilt: "), (flag, err)
    with pytest.raises(SystemExit) as info:
        run(["aut", "invert", "--help"])
    assert info.value.code == 0
    assert "--level" in capsys.readouterr().out


@pytest.mark.parametrize("argv, message", [
    (["--level", "3", "aut", "invert", "F.json"],
     "jfilt: flag --level before the command: flags other than --csv and --out go after the action"),
    (["--out", "x.json", "--k=1", "aut", "johnson", "F.json"], "jfilt: flag --k before the command"),
    (["--bogus", "witt", "4", "3"], "jfilt: flag --bogus before the command"),
])
def test_a_flag_before_the_command_is_named(capsys, argv, message):
    code, out, err = invoke(capsys, *argv)
    assert code == 2 and out == ""
    assert err.startswith("error: " + message) and err.count("\n") == 1, err


@pytest.mark.parametrize("argv, message", [
    (["aut", "invert", "F.json", "--k", "2"], "jfilt aut invert: unrecognized arguments: --k 2"),
    (["witt", "4", "3", "5"], "jfilt witt: unrecognized arguments: 5"),
    (["selftest", "--csv"], "jfilt selftest: unrecognized arguments: --csv"),
])
def test_a_flag_the_action_never_reads_names_the_action(capsys, argv, message):
    code, out, err = invoke(capsys, *argv)
    assert (code, out, err) == (2, "", "error: %s\n" % message)


def test_top_level_flags_keep_their_prefixes_and_values(capsys):
    # ``--cs`` is argparse's prefix of ``--csv``, and the value of ``--out``
    # may look like a command: neither is taken for a misplaced flag.
    code, _, err = invoke(capsys, "--cs", "witt", "x", "3")
    assert code == 2 and err == "error: jfilt witt: argument n: invalid int value: 'x'\n"
    code, _, err = invoke(capsys, "--out", "witt", "witt", "4", "x")
    assert code == 2 and err == "error: jfilt witt: argument k: invalid int value: 'x'\n"


@pytest.mark.parametrize("argv, document, message", [
    (["aut", "degree"], {"g": 1, "q": 3, "images": {"x1": "x" + "1" * 5000, "y1": "y1"}},
     "generator 'x111"),
    (["aut", "degree"], {"g": 1, "q": 3, "images": {"x1": "x" + "1" * 400, "y1": "y1"}},
     "generator 'x111"),
    (["aut", "degree"], {"g": 1, "q": 3, "images": {"x" + "1" * 5000: "x1", "x1": "x1", "y1": "y1"}},
     "image key 'x111"),
    (["stringlink", "phi"], {"g": 2, "q": 3, "kind": "y", "entries": ["y" + "1" * 5000, "y1"]},
     "generator 'y111"),
    (["tree", "image"], dict(theta_payload(), edges=[["a." + "1" * 5000, "b.0"]]),
     "bad half-edge 'a.111"),
    (["tree", "image"], dict(theta_payload(), vertices=[{"id": "v" * 5000, "arity": "bivalent"}]),
     "bad graph payload: vertex 'vvv"),
    (["tree", "image"], {"vertices": [{"id": "v" * 5000, "arity": 2}], "edges": []},
     "arity mismatch: vertex 'vvv"),
])
def test_refusals_quote_long_input_in_one_short_line(capsys, tmp_path, argv, document, message):
    # These refusals used to copy the whole text to stderr (up to 5,091
    # bytes), and the 5,000-digit generators ended in int()'s traceback.
    code, out, err = invoke(capsys, *argv, write_json(tmp_path, "long.json", document))
    assert code == 2 and out == ""
    assert err.startswith("error: ") and message in err and " characters)" in err
    assert len(err) < 200 and err.count("\n") == 1


def test_a_graph_with_many_problems_is_refused_in_one_short_line(capsys, tmp_path):
    # 2,000 bare leaves: each is unpaired and unlabeled, 4,000 problems that
    # used to fill a 111,786-byte line.
    leaves = {"vertices": [{"id": "l%d" % i, "arity": "univalent"} for i in range(2000)], "edges": []}
    code, out, err = invoke(capsys, "graph", "orient", write_json(tmp_path, "leaves.json", leaves))
    assert code == 2 and out == ""
    assert err.startswith("error: half-edge l0.0 is unpaired; half-edge l1.0 is unpaired; ")
    assert err.endswith("; and 3996 more\n") and len(err) < 200


def test_a_reader_that_closes_stdout_early_gets_no_traceback():
    # As ``jfilt dk basis 6 2 | head -c 10``: the 492 kB document overflows
    # the pipe, so a write fails after the reader has gone.
    src = os.path.dirname(os.path.dirname(jfilt.__file__))
    proc = subprocess.Popen(
        [sys.executable, "-m", "jfilt.cli", "dk", "basis", "6", "2"],
        env=dict(os.environ, PYTHONPATH=src),
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
    )
    assert proc.stdout.read(10) == b'{\n  "basis'
    proc.stdout.close()
    _, err = proc.communicate(timeout=60)
    assert proc.returncode == 1
    assert b"Traceback" not in err and err == b""


def test_excerpt_keeps_short_values_whole():
    assert excerpt("x2") == "'x2'" and excerpt([3]) == "[3]"
    assert excerpt("a" * 41) == "'" + "a" * 39 + "... (41 characters)"
    assert excerpt(list(range(100))).endswith("... (390 characters)")


def test_stringlink_commands_cap_the_level_of_every_tuple(capsys, tmp_path):
    path = write_json(tmp_path, "t40.json", {"g": 1, "q": 40, "kind": "y", "entries": ["y1"]})
    for argv in (["phi", path], ["psi", path], ["compose", path, path]):
        code, out, err = invoke(capsys, "stringlink", *argv)
        assert code == 3 and out == "", (argv, err)
        assert err == "precondition violated: level = 40 exceeds JFILT_MAX_DEGREE = 8\n"


def test_out_flag_writes_file(capsys, tmp_path):
    target = tmp_path / "rank.json"
    code, out, _ = invoke(capsys, "dk", "rank", "4", "2", "--out", str(target))
    assert code == 0
    assert out == ""
    assert json.loads(target.read_text()) == {"n": 4, "k": 2, "rank": 20}


def test_level_flag_reduces_before_acting(capsys, tmp_path):
    t = kernel_lift_tuple(2, 2, [1])  # level 4
    h = phi_hat(t)
    path = write_json(tmp_path, "h.json", aut_to_json(h))
    code, out, _ = invoke(capsys, "aut", "invert", path, "--level", "3")
    assert code == 0
    got = aut_from_json(json.loads(out))
    assert got.level == 3
    assert got == invert_aut(reduce_level(h, 3))


def test_selftest_writes_out(capsys, tmp_path, monkeypatch):
    results = [CriterionResult(1, "one", True, "fine", 0.5), CriterionResult(2, "two", False, "broken", 0.25)]
    monkeypatch.setattr(jfilt.cli, "run_all", lambda seed: results)
    path = tmp_path / "selftest.txt"
    code, out, err = invoke(capsys, "selftest", "--out", str(path))
    assert (code, out, err) == (1, "", "error: 1 of 2 criteria failed\n")
    assert path.read_text(encoding="utf-8") == (
        "CRITERION  1 PASS (0.50s): one — fine\n"
        "CRITERION  2 FAIL (0.25s): two — broken\n"
    )
    code, out, _ = invoke(capsys, "selftest")
    assert (code, out) == (1, path.read_text(encoding="utf-8"))
    code, _, err = invoke(capsys, "selftest", "--out", str(tmp_path / "missing" / "x.txt"))
    assert code == 2
    assert "cannot write" in err


def test_selftest_exits_zero(capsys):
    code, out, _ = invoke(capsys, "selftest")
    assert code == 0
    lines = [l for l in out.splitlines() if l.startswith("CRITERION")]
    assert len(lines) == 10
    assert all("PASS" in l for l in lines)
