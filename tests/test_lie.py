"""Free Lie algebra tests: Witt ranks, Lyndon rewriting, graded classes."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import jfilt.lie
from jfilt.errors import InvariantError, PreconditionError, ValidationError
from jfilt.lie import (
    LieElement,
    basis_expansion,
    generator_element,
    graded_class,
    group_bracketing,
    hall_basis,
    lie_bracket,
    bracket_words,
    lie_map,
    lift_lie_element,
    lyndon_bracket,
    lyndon_coords,
    lyndon_words,
    lyndon_words_with_content,
    standard_factorization,
    tensor_bracket,
    tensor_to_lyndon,
    witt_content_dimension,
    witt_dimension,
)
from jfilt.words import Alphabet, GroupWord, commutator, generator

import tensor_reference
from tensor_reference import lie_from_coords, lie_to_tensor

Y2 = Alphabet(2, "y")
Y3 = Alphabet(3, "y")


def test_witt_dimension_frozen_values():
    assert witt_dimension(2, 1) == 2
    assert witt_dimension(2, 2) == 1
    assert witt_dimension(4, 3) == 20


def test_witt_dimension_matches_lyndon_enumeration():
    # Two independent routes: the divisor sum and the Duval generator.
    for n in range(1, 5):
        for k in range(1, 7):
            assert witt_dimension(n, k) == len(lyndon_words(n, k))


def test_lyndon_words_sorted_and_lyndon():
    for n, k in ((2, 4), (3, 3)):
        ws = lyndon_words(n, k)
        assert list(ws) == sorted(ws)
        for w in ws:
            assert all(w < w[i:] + w[:i] for i in range(1, len(w)))


def _contents(n, d):
    # Every tuple of n nonnegative multiplicities summing to d.
    if n == 1:
        yield (d,)
        return
    for first in range(d + 1):
        for rest in _contents(n - 1, d - first):
            yield (first,) + rest


def test_witt_content_dimension_frozen_values():
    # 001; 0011 (0101 is periodic); 012 and 021; no Lyndon word a^3.
    assert witt_content_dimension((2, 1)) == 1
    assert witt_content_dimension((2, 2)) == 1
    assert witt_content_dimension((1, 1, 1)) == 2
    assert witt_content_dimension((3,)) == 0
    assert witt_content_dimension((1, 0)) == 1
    for bad in ((), (0, 0), (-1, 2)):
        with pytest.raises(ValidationError):
            witt_content_dimension(bad)


def test_lyndon_words_with_content_match_the_multigraded_witt_formula():
    # Two independent routes, content by content: the Duval generator
    # grouped by content, and the multigraded divisor sum.
    for n in range(1, 5):
        for d in range(1, 8):
            groups = lyndon_words_with_content(n, d)
            for content in _contents(n, d):
                assert len(groups.get(content, ())) == witt_content_dimension(content), (n, content)
            assert sorted(w for words in groups.values() for w in words) == list(lyndon_words(n, d))
            for content, words in groups.items():
                assert list(words) == sorted(words)
                assert all(tuple(map(w.count, range(n))) == content for w in words)


def test_lyndon_words_with_content_checks_each_count(monkeypatch):
    monkeypatch.setattr(jfilt.lie, "witt_content_dimension", lambda content: 0)
    lyndon_words_with_content.cache_clear()
    try:
        with pytest.raises(InvariantError, match="content"):
            lyndon_words_with_content(2, 3)
    finally:
        lyndon_words_with_content.cache_clear()


def test_standard_factorization_examples():
    assert standard_factorization((0, 0, 1)) == ((0,), (0, 1))
    assert standard_factorization((0, 1, 1)) == ((0, 1), (1,))
    assert standard_factorization((0, 0, 1, 0, 1, 1)) == ((0,), (0, 1, 0, 1, 1))


def test_basis_expansion_triangular():
    for n, k in ((2, 3), (2, 4), (3, 3)):
        for w in lyndon_words(n, k):
            exp = basis_expansion(w)
            assert exp[w] == 1
            assert all(m >= w for m in exp)


@pytest.fixture
def fresh_lie_caches():
    caches = (jfilt.lie._expand, jfilt.lie.hall_basis, jfilt.lie._basis_index, lyndon_words)
    for f in caches:
        f.cache_clear()
    yield
    for f in caches:
        f.cache_clear()


def test_expansion_checks_unitriangularity_as_it_is_built(fresh_lie_caches, monkeypatch):
    original = jfilt.lie.tensor_bracket

    def skewed(left, right):
        # Adds (0, 0), which sorts before every Lyndon word of length 2.
        out = original(left, right)
        out[(0, 0)] = out.get((0, 0), 0) + 1
        return out

    monkeypatch.setattr(jfilt.lie, "tensor_bracket", skewed)
    with pytest.raises(InvariantError, match="unitriangular"):
        basis_expansion((0, 1))


def test_hall_basis_builds_no_tensor_expansion(fresh_lie_caches):
    basis = hall_basis(2, 12)
    assert len(basis.words) == witt_dimension(2, 12) == 335
    assert jfilt.lie._expand.cache_info().currsize == 0


def test_nested_bracket_hits_basis_vector():
    y1 = generator_element(2, 0)
    y2 = generator_element(2, 1)
    elem = lie_bracket(y1, lie_bracket(y1, y2))
    basis = hall_basis(2, 3)
    assert basis.words == ((0, 0, 1), (0, 1, 1))
    assert elem.coords == (1, 0)
    left = lie_bracket(lie_bracket(y1, y2), y2)
    assert left.coords == (0, 1)


def small_lie(n, degree):
    dim = witt_dimension(n, degree)
    return st.tuples(*([st.integers(-2, 2)] * dim)).map(lambda t: lie_from_coords(n, degree, t))


@settings(max_examples=30, deadline=None)
@given(small_lie(2, 2), small_lie(2, 1))
def test_bracket_antisymmetry(u, v):
    assert lie_bracket(u, v).coords == tuple(-c for c in lie_bracket(v, u).coords)


@settings(max_examples=20, deadline=None)
@given(small_lie(2, 1), small_lie(2, 1), small_lie(2, 2))
def test_jacobi_identity(a, b, c):
    total = (
        lie_bracket(a, lie_bracket(b, c))
        + lie_bracket(b, lie_bracket(c, a))
        + lie_bracket(c, lie_bracket(a, b))
    )
    assert total.is_zero


def test_self_bracket_vanishes():
    rng = random.Random(1)
    for _ in range(10):
        coords = tuple(rng.randrange(-3, 4) for _ in range(witt_dimension(3, 2)))
        u = lie_from_coords(3, 2, coords)
        assert lie_bracket(u, u).is_zero


def _dense_tensor_to_lyndon(tensor, n, degree):
    """Reference read-back: the triangular elimination walking every Lyndon
    word of the degree in order, whether the tensor holds it or not."""
    work = {m: c for m, c in tensor.items() if c != 0}
    coords = []
    for w in hall_basis(n, degree).words:
        c = work.get(w, 0)
        coords.append(c)
        if c:
            for m, cm in basis_expansion(w).items():
                val = work.get(m, 0) - c * cm
                if val:
                    work[m] = val
                elif m in work:
                    del work[m]
    if work:
        raise ValidationError("tensor is not a Lie element")
    return lie_from_coords(n, degree, coords)


def _add_into(out, tensor, scale=1):
    for m, c in tensor.items():
        out[m] = out.get(m, 0) + scale * c
    return out


@st.composite
def lie_combinations(draw, min_n=1, min_degree=1):
    """(n, degree, tensor, terms): a random integer combination of basis
    expansions at n <= 4 and degree <= 6, with the Lyndon words and nonzero
    coefficients it was built from."""
    n = draw(st.integers(min_n, 4))
    # One letter spans nothing above degree one.
    degree = draw(st.integers(min_degree, 6 if n > 1 else 1))
    words = hall_basis(n, degree).words
    picks = draw(
        st.dictionaries(st.integers(0, len(words) - 1), st.integers(-3, 3), max_size=6)
    )
    tensor = {}
    for i, c in picks.items():
        _add_into(tensor, basis_expansion(words[i]), c)
    return n, degree, tensor, {words[i]: c for i, c in picks.items() if c}


@settings(max_examples=150, deadline=None)
@given(lie_combinations())
def test_sparse_read_back_matches_dense_elimination(case):
    n, degree, tensor, picked = case
    assert lyndon_coords(tensor, n, degree) == picked
    assert tensor_to_lyndon(tensor, n, degree) == _dense_tensor_to_lyndon(tensor, n, degree)


@settings(max_examples=100, deadline=None)
@given(lie_combinations(min_n=2, min_degree=2), st.integers(0, 10**6), st.integers(1, 5))
def test_non_lie_monomial_is_rejected_like_the_dense_elimination(case, seed, c):
    # A nontrivial rotation of a Lyndon word is not a Lyndon word, and no
    # single monomial of degree >= 2 is a Lie element, so adding one leaves
    # the Lie span.
    n, degree, tensor, _ = case
    rng = random.Random(seed)
    w = rng.choice(hall_basis(n, degree).words)
    shift = rng.randrange(1, degree)
    bad = _add_into(dict(tensor), {w[shift:] + w[:shift]: c})
    message = "tensor is not a Lie element"
    for read_back in (tensor_to_lyndon, lyndon_coords, _dense_tensor_to_lyndon):
        with pytest.raises(ValidationError, match=message):
            read_back(bad, n, degree)


def test_tensor_to_lyndon_rejects_non_lie_tensor():
    for tensor in ({(0, 1): 1}, {(1, 0): 1}, {(0, 1): 1, (1, 0): 1}, {(1, 0, 0): 2}):
        n, degree = 2, len(next(iter(tensor)))
        for read_back in (tensor_to_lyndon, lyndon_coords, _dense_tensor_to_lyndon):
            with pytest.raises(ValidationError, match="tensor is not a Lie element"):
                read_back(tensor, n, degree)


def test_tensor_to_lyndon_rejects_inhomogeneous_or_out_of_range_monomials():
    lie = basis_expansion((0, 1))
    message = "tensor monomials must be homogeneous over the n letters"
    for extra in ({(0,): 1}, {(0, 1, 1): -1}, {(0, 2): 1}, {(-1, 0): 1}):
        with pytest.raises(ValidationError, match=message):
            tensor_to_lyndon(_add_into(dict(lie), extra), 2, 2)
    # Zero coefficients are not monomials of the tensor.
    assert tensor_to_lyndon(_add_into(dict(lie), {(0, 2): 0}), 2, 2).coords == (1,)


def test_graded_class_of_commutator_words():
    y1 = generator(Y2, 0)
    y2 = generator(Y2, 1)
    assert graded_class(commutator(y1, y2), 2).coords == (1,)
    w = commutator(commutator(y1, y2), y2)
    assert graded_class(w, 3).coords == (0, 1)


def test_graded_class_low_weight_raises():
    y1 = generator(Y2, 0)
    with pytest.raises(PreconditionError, match="^graded_class: word weight is below k = 2$"):
        graded_class(y1, 2)


def test_graded_class_in_degree_one_is_the_abelianization():
    rng = random.Random(5)
    for ab in (Y2, Y3, Alphabet(2)):
        for _ in range(20):
            w = GroupWord(ab, tuple((rng.randrange(ab.size), rng.choice((-2, -1, 1, 3)))
                                    for _ in range(rng.randrange(12))))
            expected = {(i,): c for i, c in enumerate(w.abelianization()) if c}
            assert graded_class(w, 1) == LieElement(ab.size, 1, expected)


def test_graded_class_kills_deeper_words():
    y1 = generator(Y2, 0)
    y2 = generator(Y2, 1)
    deep = commutator(commutator(y1, y2), y2)
    # weight-3 words vanish in degree 2 of the graded quotient
    assert graded_class(deep, 2).is_zero
    assert not graded_class(deep, 3).is_zero
    assert graded_class(GroupWord(Y2), 3).is_zero


def test_graded_class_is_additive_on_high_weight_words():
    rng = random.Random(2)
    y = [generator(Y3, i) for i in range(3)]
    for _ in range(15):
        a, b, c, d = (y[rng.randrange(3)] for _ in range(4))
        u = commutator(a, b)
        v = commutator(c, d)
        lhs = graded_class(u * v, 2)
        assert lhs == graded_class(u, 2) + graded_class(v, 2)


def test_group_bracketing_realizes_basis():
    for n, k in ((2, 2), (2, 3), (3, 3), (2, 4)):
        ab = Alphabet(n, "y")
        for i, w in enumerate(hall_basis(n, k).words):
            cls = graded_class(group_bracketing(w, ab), k)
            expected = [0] * witt_dimension(n, k)
            expected[i] = 1
            assert cls.coords == tuple(expected)


def test_lift_lie_element_round_trip():
    rng = random.Random(3)
    for n, k in ((2, 2), (3, 2), (2, 3)):
        ab = Alphabet(n, "y")
        for _ in range(5):
            coords = tuple(rng.randrange(-2, 3) for _ in range(witt_dimension(n, k)))
            elem = lie_from_coords(n, k, coords)
            assert graded_class(lift_lie_element(elem, ab), k) == elem


def test_commutator_words_match_lie_brackets():
    # The graded class of a group commutator is the bracket of the classes.
    rng = random.Random(4)
    y = [generator(Y3, i) for i in range(3)]
    for _ in range(10):
        u = commutator(y[rng.randrange(3)], y[rng.randrange(3)])
        v = y[rng.randrange(3)]
        lhs = graded_class(commutator(u, v), 3)
        rhs = lie_bracket(graded_class(u, 2), graded_class(v, 1))
        assert lhs == rhs


def _dynkin_image(tensor):
    """Left-normed bracketing on the tensor algebra.  On a homogeneous Lie
    element of degree k it is multiplication by k (Dynkin-Specht-Wever), an
    independent check that basis expansions are Lie elements."""
    out = {}
    for m, c in tensor.items():
        part = {(m[0],): 1}
        for letter in m[1:]:
            part = tensor_bracket(part, {(letter,): 1})
        _add_into(out, part, c)
    return {m: c for m, c in out.items() if c}


def test_dynkin_projector_scales_lie_elements():
    rng = random.Random(5)
    for n, k in ((2, 3), (3, 2), (2, 4)):
        coords = tuple(rng.randrange(-2, 3) for _ in range(witt_dimension(n, k)))
        elem = lie_from_coords(n, k, coords)
        tensor = lie_to_tensor(elem)
        image = _dynkin_image(tensor)
        scaled = {m: k * c for m, c in tensor.items() if c}
        assert image == scaled


def test_lie_map_identity_and_swap():
    elem = lie_bracket(generator_element(2, 0), generator_element(2, 1))
    ident = ((1, 0), (0, 1))
    assert lie_map(ident, elem, 2) == elem
    swap = ((0, 1), (1, 0))
    assert lie_map(swap, elem, 2) == -elem


def _lyndon_pairs(n, max_degree):
    words = [w for d in range(1, max_degree) for w in lyndon_words(n, d)]
    return [(u, v) for u in words for v in words if len(u) + len(v) <= max_degree]


@pytest.mark.parametrize("n, max_degree", [(1, 6), (2, 6), (3, 6), (4, 5)])
def test_lyndon_bracket_matches_the_tensor_reference(n, max_degree):
    pairs = _lyndon_pairs(n, max_degree)
    for u, v in pairs:
        got = lyndon_bracket(u, v)
        assert list(got) == sorted(got)
        assert all(c for _, c in got)
        assert dict(got) == tensor_reference.lyndon_of(u, v), (u, v)
    if n > 1:
        # The u'' >= v shortcut and the Jacobi rewrite are both reached.
        rights = [standard_factorization(u)[1] >= v for u, v in pairs if 1 < len(u) and u < v]
        assert any(rights) and not all(rights)


def test_lyndon_bracket_is_antisymmetric():
    for u, v in _lyndon_pairs(3, 6):
        assert lyndon_bracket(v, u) == tuple((w, -c) for w, c in lyndon_bracket(u, v))
        if u == v:
            assert lyndon_bracket(u, v) == ()


def _seeded_lie(rng, n, degree):
    return lie_from_coords(n, degree, [rng.randint(-2, 2) for _ in range(witt_dimension(n, degree))])


def test_bracket_words_satisfies_jacobi_on_seeded_elements():
    rng = random.Random(12)
    for _ in range(40):
        n = rng.randint(2, 4)
        da, db, dc = (rng.randint(1, 2) for _ in range(3))
        a, b, c = (_seeded_lie(rng, n, d).terms for d in (da, db, dc))
        total = {}
        for x, y, z in ((a, b, c), (b, c, a), (c, a, b)):
            for w, cw in bracket_words(x, bracket_words(y, z)).items():
                total[w] = total.get(w, 0) + cw
        assert not any(total.values())
        assert bracket_words(a, b) == {w: -c for w, c in bracket_words(b, a).items()}


def test_lie_bracket_matches_the_tensor_reference():
    rng = random.Random(13)
    for _ in range(60):
        n = rng.randint(1, 4)
        u = _seeded_lie(rng, n, rng.randint(1, 3))
        v = _seeded_lie(rng, n, rng.randint(1, 3))
        assert lie_bracket(u, v) == tensor_reference.lie_bracket(u, v)


def test_lie_map_matches_the_tensor_reference():
    rng = random.Random(14)
    for _ in range(60):
        n = rng.randint(1, 3)
        n_target = rng.randint(1, 4)
        elem = _seeded_lie(rng, n, rng.randint(1, 4 if n < 3 else 3))
        matrix = [[rng.choice((0, 0, 1, -1, 2)) for _ in range(n)] for _ in range(n_target)]
        assert lie_map(matrix, elem, n_target) == tensor_reference.lie_map(matrix, elem, n_target)
