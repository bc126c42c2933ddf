"""Tests for the Lagrangian filtration, obstruction tensor, and rank gaps."""

import random
from types import SimpleNamespace

import pytest

import jfilt.automorphisms
from jfilt.automorphisms import (
    NilAut,
    compose,
    filtration_degree,
    framing_tuple,
    identity_aut,
    johnson_element,
    kernel_lift_tuple,
    phi_hat,
    psi_hat,
    random_kernel_tuple,
)
from jfilt.brackets import bracket_map, embed_tensor, tensor_from_components
from jfilt.errors import InvariantError, PreconditionError, ValidationError
from jfilt.lagrangian import (
    cocycle_check,
    gap_closed_form,
    gap_table,
    jl_element,
    lagrangian_degree,
    pure_braid_rank,
)
from jfilt.lie import graded_class
from jfilt.words import FULL, X_ONLY, Alphabet, GroupWord, commutator, generator


def helper_auts(level=4):
    """Genus-2 automorphisms with interesting induced matrices but zero
    Lagrangian obstruction (their x-images carry no y-letters at all)."""
    ab = Alphabet(2, FULL)
    x1, x2, y1, y2 = (generator(ab, i) for i in range(4))
    trans = NilAut(ab, level, [x1 * x2, x2, y1, y2])
    yswap = NilAut(ab, level, [x1, x2, y2, y1])
    xyswap = NilAut(ab, level, [x2, x1, y2, y1])
    return trans, yswap, xyswap


# ---------------------------------------------------------------------------
# Degree


def test_degree_identity_caps():
    assert lagrangian_degree(identity_aut(2, 4)) == 3
    assert lagrangian_degree(identity_aut(3, 3)) == 2


def test_degree_psi_hat_caps():
    p = psi_hat(framing_tuple(2, 4, [1, 1], X_ONLY))
    assert lagrangian_degree(p) == 3


def test_degree_phi_hat_is_tuple_depth():
    assert lagrangian_degree(phi_hat(kernel_lift_tuple(3, 1, [1]))) == 1
    assert lagrangian_degree(phi_hat(kernel_lift_tuple(2, 2, [1]))) == 2


def test_degree_shallow_image():
    ab = Alphabet(1, FULL)
    x1, y1 = generator(ab, 0), generator(ab, 1)
    h = NilAut(ab, 3, [x1 * y1, y1])
    assert lagrangian_degree(h) == 0


# ---------------------------------------------------------------------------
# Obstruction tensor


def test_jl_identity_zero_and_hat():
    r = jl_element(identity_aut(2, 4), 2)
    assert r.value.is_zero and r.in_hat
    assert r.genus == 2 and r.k == 2


def test_jl_phi_hat_matches_tuple_classes():
    rng = random.Random(3)
    for g, k in [(3, 1), (2, 2)]:
        t = random_kernel_tuple(rng, g, k)
        h = phi_hat(t)
        r = jl_element(h, k)
        expected = tensor_from_components(
            g, k, {i: graded_class(t.entries[i], k + 1) for i in range(g)}
        )
        assert r.value == expected
        assert r.in_hat
        # The full-alphabet obstruction is this one, embedded into the y-slots.
        assert johnson_element(h, k) == embed_tensor(r.value, 2 * g, g)


def test_jl_psi_hat_vanishes_at_every_degree():
    p = psi_hat(framing_tuple(2, 4, [2, -1], X_ONLY))
    for k in (1, 2):
        r = jl_element(p, k)
        assert r.value.is_zero and r.in_hat


def test_jl_zero_iff_degree_exceeds_k():
    deep = phi_hat(kernel_lift_tuple(2, 2, [1]))  # entries of weight 3
    assert lagrangian_degree(deep) == 2
    assert jl_element(deep, 1).value.is_zero
    shallow = phi_hat(kernel_lift_tuple(3, 1, [1]))
    assert lagrangian_degree(shallow) == 1
    assert not jl_element(shallow, 1).value.is_zero


def test_jl_preconditions():
    h = phi_hat(kernel_lift_tuple(3, 1, [1]))
    with pytest.raises(PreconditionError, match="k must be"):
        jl_element(h, 0)
    with pytest.raises(PreconditionError, match="below k\\+2"):
        jl_element(h, 2)  # level 3 cannot certify degree-3 classes
    ab = Alphabet(1, FULL)
    x1, y1 = generator(ab, 0), generator(ab, 1)
    shallow = NilAut(ab, 3, [x1 * y1, y1])
    with pytest.raises(PreconditionError, match="^jl_element: lagrangian degree is below k = 1$"):
        jl_element(shallow, 1)


def test_jl_in_hat_tracks_y_matrix():
    trans, yswap, _ = helper_auts()
    assert jl_element(trans, 2).in_hat  # y-span untouched
    assert not jl_element(yswap, 2).in_hat


def test_hat_matrix_alone_does_not_force_kernel_membership():
    # Two witnesses that the kernel-membership theorem really needs the
    # boundary hypothesis, not just a trivial induced y-action.
    trans, _, _ = helper_auts()
    f = phi_hat(kernel_lift_tuple(2, 2, [1]))
    r = jl_element(compose(f, trans), 2)
    assert r.in_hat and not bracket_map(r.value).is_zero

    ab = Alphabet(2, FULL)
    x1, x2, y1, y2 = (generator(ab, i) for i in range(4))
    weird = NilAut(ab, 4, [x1 * commutator(y1, y2), x2, y1, y2])
    rw = jl_element(weird, 1)
    assert rw.in_hat and not bracket_map(rw.value).is_zero


# ---------------------------------------------------------------------------
# Composition law


def test_cocycle_identity_factor():
    f = phi_hat(kernel_lift_tuple(3, 1, [1]))
    e = identity_aut(3, 3)
    assert cocycle_check(f, e, 1)
    assert cocycle_check(e, f, 1)


def test_cocycle_reduces_to_additivity_on_hat_pairs():
    rng = random.Random(5)
    a = phi_hat(random_kernel_tuple(rng, 2, 2))
    b = phi_hat(random_kernel_tuple(rng, 2, 2))
    assert cocycle_check(a, b, 2)
    lhs = jl_element(compose(a, b), 2).value
    assert lhs == jl_element(a, 2).value + jl_element(b, 2).value


def test_cocycle_with_matrix_twists():
    trans, yswap, xyswap = helper_auts()
    rng = random.Random(41)
    f1 = phi_hat(random_kernel_tuple(rng, 2, 2))
    f2 = phi_hat(random_kernel_tuple(rng, 2, 2))
    for h1, h2 in [
        (trans, f2),
        (f1, trans),
        (yswap, f2),
        (f1, yswap),
        (xyswap, f1),
        (compose(f1, trans), compose(yswap, f2)),
        (compose(trans, f1), compose(f2, xyswap)),
    ]:
        assert cocycle_check(h1, h2, 2)


def test_cocycle_mixing_both_families():
    rng = random.Random(11)
    f = phi_hat(random_kernel_tuple(rng, 2, 2))
    p = psi_hat(framing_tuple(2, 4, [1, -1], X_ONLY))
    assert cocycle_check(f, p, 2)
    assert cocycle_check(p, f, 2)
    assert cocycle_check(compose(p, f), compose(f, p), 2)


# ---------------------------------------------------------------------------
# Rank gaps


def test_pure_braid_rank_values():
    assert [pure_braid_rank(g, 1) for g in range(2, 6)] == [0, 1, 4, 10]
    assert pure_braid_rank(2, 2) == 0
    assert pure_braid_rank(3, 2) == 2
    assert pure_braid_rank(4, 2) == 10
    assert pure_braid_rank(5, 2) == 30
    assert pure_braid_rank(3, 3) == 3
    assert pure_braid_rank(4, 3) == 21
    with pytest.raises(PreconditionError):
        pure_braid_rank(0, 1)
    with pytest.raises(PreconditionError):
        pure_braid_rank(2, 0)


def test_gap_closed_forms():
    assert gap_closed_form(5, 1) == 0
    assert [gap_closed_form(g, 2) for g in range(2, 6)] == [1, 4, 10, 20]
    assert [gap_closed_form(g, 3) for g in range(2, 5)] == [0, 3, 15]
    assert gap_closed_form(3, 4) is None


def test_gap_table_matches_closed_forms():
    rows = gap_table([(g, 2) for g in range(2, 6)] + [(g, 3) for g in range(2, 5)])
    for row in rows:
        assert row["gap"] == row["closed_form"]
        assert row["match"] is True


def test_gap_table_k1_vanishes():
    for row in gap_table([(g, 1) for g in range(2, 9)]):
        assert row["gap"] == 0 and row["match"] is True


def test_gap_table_unknown_closed_form():
    (row,) = gap_table([(2, 4)])
    assert row["closed_form"] is None and row["match"] is None
    assert row["gap"] == row["kernel_rank"] - row["braid_rank"]


def test_chain_queries_agree_with_the_bare_words(monkeypatch):
    # The product's series is the second factor's with the first factor's
    # substituted, so its long words are never expanded, and every query
    # agrees with the bare words.
    factors = [phi_hat(random_kernel_tuple(random.Random(5), 2, 2)) for _ in range(2)]
    h = compose(*factors)
    ab = h.alphabet
    bare = NilAut(ab, h.level, [GroupWord(ab, w.letters) for w in h.images])
    bare._aut0_known = True
    expanded = []
    real = jfilt.automorphisms.magnus_expand
    monkeypatch.setattr(jfilt.automorphisms, "magnus_expand", lambda w, q: expanded.append(w) or real(w, q))
    assert filtration_degree(h) == filtration_degree(bare) == 2
    assert not any(w is v for w in expanded for v in h.images)
    assert any(w is v for w in expanded for v in factors[0].images)
    assert johnson_element(h, 2) == johnson_element(bare, 2)
    assert lagrangian_degree(h) == lagrangian_degree(bare) == 2
    assert jl_element(h, 2) == jl_element(bare, 2)


def test_gap_table_running_sum_matches_pure_braid_rank():
    # Runs of consecutive g at one k reuse the previous row's sum; gaps,
    # repeats and interleaved k start afresh.
    pairs = [(2, 1), (3, 1), (4, 1), (3, 2), (4, 2), (7, 1), (8, 1), (8, 1), (5, 2), (1, 3)]
    rows = gap_table(pairs)
    assert [row["braid_rank"] for row in rows] == [pure_braid_rank(g, k) for g, k in pairs]


def test_both_cocycle_orders_project_each_automorphism_once(monkeypatch):
    # cocycle_check(h1, h2) and cocycle_check(h2, h1) need jl of h1, h2 and
    # the two products: four projections, each held after its first use.
    h1 = phi_hat(kernel_lift_tuple(2, 2, [1]))
    h2 = psi_hat(framing_tuple(2, 4, [1, -1], X_ONLY))
    projected = []
    real = NilAut.projected_series
    monkeypatch.setattr(NilAut, "projected_series",
                        lambda h, cutoff: projected.append((h, cutoff)) or real(h, cutoff))
    assert cocycle_check(h1, h2, 2) and cocycle_check(h2, h1, 2)
    assert [cutoff for _, cutoff in projected] == [4] * 4
    assert len({id(h) for h, _ in projected}) == 4
    assert {id(h1), id(h2)} <= {id(h) for h, _ in projected}


def test_cocycle_check_expands_no_projected_word(monkeypatch):
    # The product's projection fills both operands' series first; theirs
    # are then read from those series.
    h1 = phi_hat(kernel_lift_tuple(2, 2, [1]))
    h2 = psi_hat(framing_tuple(2, 4, [1, -1], X_ONLY))
    expanded = []
    real = jfilt.automorphisms.magnus_expand
    monkeypatch.setattr(jfilt.automorphisms, "magnus_expand", lambda w, q: expanded.append(w) or real(w, q))
    assert cocycle_check(h1, h2, 2) and cocycle_check(h2, h1, 2)
    assert all(w.alphabet == h1.alphabet for w in expanded)
    assert len(expanded) == 8  # each operand's own words, once


def test_cocycle_of_operands_at_two_levels_reports_their_preconditions_first():
    f = phi_hat(kernel_lift_tuple(2, 2, [1]))  # level 4
    low = identity_aut(2, 3)
    with pytest.raises(PreconditionError, match="level 3 is below"):
        cocycle_check(low, f, 2)
    with pytest.raises(PreconditionError, match="level 3 is below"):
        cocycle_check(f, low, 2)
    with pytest.raises(ValidationError, match="level mismatch"):
        cocycle_check(f, identity_aut(2, 5), 2)


def test_a_held_jl_element_is_still_checked_against_the_kernel(monkeypatch):
    h = phi_hat(kernel_lift_tuple(2, 2, [1]))
    h._aut0_known = None
    first = jl_element(h, 2)
    assert first.in_hat
    checked = []
    real = jfilt.lagrangian.bracket_map
    monkeypatch.setattr(jfilt.lagrangian, "bracket_map", lambda t: checked.append(t) or real(t))
    assert jl_element(h, 2) == first
    assert checked == []
    # The boundary property settled after the value was held: the check runs.
    h._aut0_known = True
    assert jl_element(h, 2) == first
    assert checked == [first.value]
    monkeypatch.setattr(jfilt.lagrangian, "bracket_map", lambda t: SimpleNamespace(is_zero=False))
    with pytest.raises(InvariantError, match="left the kernel"):
        jl_element(h, 2)
