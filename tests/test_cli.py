"""End-to-end checks of the command-line driver: exit codes, JSON/CSV
rendering, flag placement, the degree cap, and round-tripping of emitted
documents through the library parsers."""

import json
import os
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
from jfilt.lagrangian import jl_element
from jfilt.lie import LieElement, witt_dimension
from jfilt.trees import clasper_to_json, make_graph, tree_to_dk


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
    code, out, _ = invoke(capsys, "graph", "census", "--tmax", "3")
    assert code == 0
    assert json.loads(out) == [
        {"trivalent": 1, "orientable": 1, "not_orientable": 1},
        {"trivalent": 2, "orientable": 5, "not_orientable": 1},
        {"trivalent": 3, "orientable": 25, "not_orientable": 3},
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
    # Trees with 8 trivalent vertices have 17 edges, one past the bound.
    start = time.perf_counter()
    code, out, err = invoke(capsys, "graph", "census", "--tmax", "8")
    assert code == 3
    assert out == ""
    assert "up to 17 edges" in err
    assert time.perf_counter() - start < 1.0


def test_dk_basis_past_the_matrix_cell_bound_exits_3_at_once(capsys):
    # (10, 2) is the smallest k = 2 pair over the bound; its rank still prints.
    start = time.perf_counter()
    code, out, err = invoke(capsys, "dk", "basis", "10", "2")
    assert code == 3
    assert out == ""
    assert "over the bound" in err and "Traceback" not in err
    assert time.perf_counter() - start < 1.0
    code, out, _ = invoke(capsys, "dk", "rank", "10", "2")
    assert code == 0


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
    def broken(t):
        coords = [0] * witt_dimension(t.n, t.level + 2)
        coords[0] = 1
        return LieElement(t.n, t.level + 2, tuple(coords))

    monkeypatch.setattr(jfilt.brackets, "bracket_map", broken)
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
        except SystemExit:
            pytest.fail("README line does not parse: %s" % " ".join(argv))


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


def test_selftest_exits_zero(capsys):
    code, out, _ = invoke(capsys, "selftest")
    assert code == 0
    lines = [l for l in out.splitlines() if l.startswith("CRITERION")]
    assert len(lines) == 10
    assert all("PASS" in l for l in lines)
