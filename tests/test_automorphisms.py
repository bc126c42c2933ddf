"""Tests for nilpotent-quotient automorphisms and longitude tuples."""

import functools
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import jfilt.automorphisms
import jfilt.brackets
import jfilt.snf
import jfilt.words

from jfilt.automorphisms import (
    LongitudeTuple,
    NilAut,
    aut_from_json,
    aut_to_json,
    check_aut0,
    compose,
    conjugation_action,
    extract_longitudes,
    filtration_degree,
    framing_tuple,
    full_twist_tuple,
    identity_aut,
    invert_aut,
    is_identity,
    johnson_element,
    kernel_lift_tuple,
    milnor_compose,
    phi_hat,
    psi_hat,
    random_kernel_tuple,
    reduce_level,
    strand_product,
    symplectic_matrix,
    trivial_tuple,
    tuple_from_json,
    tuple_to_json,
    tuples_equal,
    validate_tuple,
)
from jfilt.automorphisms import _letter_series
from jfilt.brackets import bracket_map, dk_basis, dk_rank, embed_tensor, tensor_from_components
from jfilt.errors import PreconditionError, ValidationError
from jfilt.lagrangian import cocycle_check, jl_element, lagrangian_degree
from jfilt.lie import graded_class
from jfilt.snf import identity_matrix, matmul
from jfilt.words import (
    FULL,
    X_ONLY,
    Y_ONLY,
    Alphabet,
    GroupWord,
    commutator,
    generator,
    magnus_expand,
    nilpotent_equal,
    omega,
    project_y,
    render_word,
    substitute,
)


def transvection(q):
    """x1 -> x1 y1, y1 -> y1 at genus 1, working level q."""
    ab = Alphabet(1, FULL)
    x1, y1 = generator(ab, 0), generator(ab, 1)
    return NilAut(ab, q, [x1 * y1, y1])


def fresh_copy(h):
    """Same images, no cached flags: forces honest recomputation."""
    return NilAut(h.alphabet, h.level, h.images)


# ---------------------------------------------------------------------------
# NilAut basics


def test_constructor_validation():
    ab = Alphabet(2, FULL)
    xs = [generator(ab, i) for i in range(4)]
    with pytest.raises(ValidationError):
        NilAut(Alphabet(2, Y_ONLY), 3, [generator(Alphabet(2, Y_ONLY), i) for i in range(2)])
    with pytest.raises(ValidationError):
        NilAut(ab, 1, xs)  # level must be at least 2
    with pytest.raises(ValidationError):
        NilAut(ab, 3, xs[:3])  # one image per generator
    with pytest.raises(ValidationError):
        NilAut(ab, 3, [xs[0], xs[0], xs[2], xs[3]])  # determinant 0
    # Constructions that take a level from their caller check it too.
    with pytest.raises(ValidationError):
        identity_aut(2, 1)
    with pytest.raises(ValidationError):
        reduce_level(NilAut(ab, 3, xs), 1)


def elementary_product(size, ops):
    """Identity transformed by row operations: add c times row j to row i,
    swap rows i and j, or negate row i."""
    m = identity_matrix(size)
    for kind, i, j, c in ops:
        i, j = i % size, j % size
        if kind == 0 and i != j:
            m[i] = [a + c * b for a, b in zip(m[i], m[j])]
        elif kind == 1:
            m[i], m[j] = m[j], m[i]
        elif kind == 2:
            m[i] = [-a for a in m[i]]
    return m


def aut_with_abelianization(m, q):
    ab = Alphabet(len(m) // 2, FULL)
    images = [GroupWord(ab, tuple((j, e) for j, e in enumerate(row) if e)) for row in m]
    return NilAut(ab, q, images)


@settings(max_examples=40, deadline=None)
@given(
    st.integers(1, 3),
    st.integers(2, 3),
    st.lists(
        st.tuples(st.integers(0, 2), st.integers(0, 5), st.integers(0, 5), st.integers(-3, 3)),
        max_size=10,
    ),
)
def test_unimodular_abelianizations_build_and_invert(g, q, ops):
    m = elementary_product(2 * g, ops)
    h = aut_with_abelianization(m, q)
    inverse = invert_aut(h)
    ident = identity_matrix(2 * g)
    assert matmul(inverse.abelianization(), h.abelianization()) == ident
    assert matmul(h.abelianization(), inverse.abelianization()) == ident
    doubled = [[2 * e for e in m[0]]] + m[1:]
    with pytest.raises(ValidationError):
        aut_with_abelianization(doubled, q)
    zeroed = [[0] * (2 * g)] + m[1:]
    with pytest.raises(ValidationError):
        aut_with_abelianization(zeroed, q)


def test_apply_is_substitution():
    h = transvection(3)
    ab = h.alphabet
    x1, y1 = generator(ab, 0), generator(ab, 1)
    w = x1 * y1 * x1.inverse()

    def apply(u):
        return substitute(u, h.images)

    assert apply(w) == apply(x1) * apply(y1) * apply(x1).inverse()
    assert apply(x1.inverse()) == apply(x1).inverse()
    assert apply(GroupWord(ab)).is_empty


def test_apply_matches_repeated_images_and_is_capped(monkeypatch):
    def repeated(h, w):
        # The letters of every image repeated |exp| times, reduced once.
        letters = []
        for gen, exp in w.letters:
            image = h.images[gen] if exp > 0 else h.images[gen].inverse()
            letters.extend(image.letters * abs(exp))
        return GroupWord(h.alphabet, tuple(letters))

    rng = random.Random(11)
    ab = Alphabet(2, FULL)
    gens = [generator(ab, i) for i in range(4)]
    for _ in range(40):
        images = list(gens)
        for _ in range(3):
            i, j = rng.sample(range(4), 2)
            # Conjugating or multiplying one image by another stays invertible,
            # and conjugation builds images that cancel cyclically.
            images[i] = (images[j] * images[i] if rng.random() < 0.5
                         else images[j] * images[i] * images[j].inverse())
        h = NilAut(ab, 3, images)
        w = GroupWord(ab, tuple((rng.randrange(4), rng.choice((-3, -2, -1, 1, 2, 3)))
                                for _ in range(rng.randint(0, 6))))
        assert substitute(w, h.images).letters == repeated(h, w).letters

    monkeypatch.setattr(jfilt.words, "MAX_WORD_LETTERS", 100)
    x1, y1 = gens[0], gens[2]
    h = NilAut(ab, 3, [x1 * y1] + gens[1:])  # x1 -> x1 y1
    assert len(substitute(x1 ** 50, h.images).letters) == 100
    # Letters already built count against the cap.
    for refused in (x1 ** 51, x1 ** -51, y1 * x1 ** 50):
        with pytest.raises(ValidationError):
            substitute(refused, h.images)
    # A conjugate of one letter adds one letter for any exponent.
    conj = NilAut(ab, 3, [y1 * x1 * y1.inverse()] + gens[1:])
    assert len(substitute(x1 ** 10**15, conj.images).letters) == 3


def test_semantic_equality_ignores_deep_commutators():
    ab = Alphabet(1, FULL)
    x1, y1 = generator(ab, 0), generator(ab, 1)
    deep = commutator(y1, x1)  # weight 2
    a = NilAut(ab, 2, [x1 * deep, y1])
    b = NilAut(ab, 2, [x1, y1])
    assert a == b
    c = NilAut(ab, 3, [x1 * deep, y1])
    d = NilAut(ab, 3, [x1, y1])
    assert c != d


def test_abelianization_matrix():
    h = transvection(3)
    assert h.abelianization() == [[1, 1], [0, 1]]
    assert identity_aut(2, 3).abelianization() == [
        [1, 0, 0, 0],
        [0, 1, 0, 0],
        [0, 0, 1, 0],
        [0, 0, 0, 1],
    ]


# ---------------------------------------------------------------------------
# Group structure: identity, composition, inversion, level reduction


def test_identity_is_neutral():
    h = transvection(4)
    e = identity_aut(1, 4)
    assert compose(h, e) == h
    assert compose(e, h) == h
    assert is_identity(e)
    assert not is_identity(h)


def test_compose_level_and_alphabet_must_match():
    with pytest.raises(ValidationError):
        compose(transvection(3), transvection(4))
    with pytest.raises(ValidationError):
        compose(transvection(3), identity_aut(2, 3))


def test_invert_transvection():
    h = transvection(4)
    g = invert_aut(h)
    ab = h.alphabet
    x1, y1 = generator(ab, 0), generator(ab, 1)
    assert g == NilAut(ab, 4, [x1 * y1.inverse(), y1])
    assert compose(h, g) == identity_aut(1, 4)
    assert compose(g, h) == identity_aut(1, 4)


def test_invert_deep_element():
    t = kernel_lift_tuple(3, 2, [1, 0, -1, 0, 0, 1])
    h = phi_hat(t)
    g = invert_aut(h)
    e = identity_aut(3, h.level)
    assert compose(h, g) == e
    assert compose(g, h) == e


def test_invert_random_products():
    rng = random.Random(11)
    for _ in range(5):
        a = phi_hat(random_kernel_tuple(rng, 2, 1, noise=False), 3)
        b = phi_hat(random_kernel_tuple(rng, 2, 1, noise=False), 3)
        h = compose(a, b)
        assert compose(h, invert_aut(h)) == identity_aut(2, 3)


def test_a_chain_of_3000_compositions_is_queried_without_recursion(monkeypatch):
    # The chain's series is substituted into the series one composition
    # before it, 3000 deep; it is filled from a stack, not by recursion.
    t = framing_tuple(2, 4, [1, -1])
    h = NilAut(Alphabet(2, FULL), 4, phi_hat(t).images)  # no recorded check_aut0
    chain = functools.reduce(compose, [h] * 3000)
    expected = phi_hat(framing_tuple(2, 4, [3000, -3000]))
    expanded = []
    real = jfilt.automorphisms.magnus_expand
    monkeypatch.setattr(jfilt.automorphisms, "magnus_expand", lambda w, q: expanded.append(w) or real(w, q))
    assert chain == expected
    assert [w.letters for w in chain.images] == [w.letters for w in expected.images]
    assert check_aut0(chain)
    # Only h's images were expanded; the chain's series came by substitution.
    assert expanded and not any(w is v for w in expanded for v in chain.images)
    assert any(w is v for w in expanded for v in h.images)
    assert filtration_degree(chain) == filtration_degree(expected) == 0


def test_compose_builds_no_words_until_images_is_read(monkeypatch):
    h1 = phi_hat(random_kernel_tuple(random.Random(3), 2, 2))
    h2 = psi_hat(full_twist_tuple(2, 4, 1, X_ONLY))
    eager = [substitute(w, h1.images) for w in h2.images]
    substituted = []
    real = jfilt.automorphisms.substitute
    monkeypatch.setattr(jfilt.automorphisms, "substitute", lambda w, images: substituted.append(w) or real(w, images))
    h = compose(h1, h2)
    check_aut0(h), filtration_degree(h), jl_element(h, 2)
    assert lagrangian_degree(h) == 2
    assert h != identity_aut(2, 4) and compose(h, h) != h
    assert substituted == []
    words = h.images
    assert substituted == list(h2.images)
    assert [w.letters for w in words] == [w.letters for w in eager]
    assert h.images is words  # built once


def test_a_chain_of_2000_compositions_reads_its_words_without_recursion():
    # Each product's words are outer's applied to inner's, and the operands'
    # words are built first from a stack, 2000 deep, not by recursion.
    chain = functools.reduce(compose, [transvection(3)] * 2000)
    assert [w.letters for w in chain.images] == [((0, 1), (1, 2000)), ((1, 1),)]


def _mixed_products(g, k):
    """phi_hat o psi_hat and psi_hat o phi_hat of seeded tuples at (g, k)."""
    a = phi_hat(random_kernel_tuple(random.Random(10 * g + k), g, k))
    b = psi_hat(full_twist_tuple(g, k + 2, 1, X_ONLY))
    return [(a, b), (b, a)]


@pytest.mark.parametrize("g, k", [(g, k) for g in (1, 2, 3) for k in (1, 2)])
def test_projected_series_of_an_unfilled_product_agrees_with_both_other_routes(g, k):
    for outer, inner in _mixed_products(g, k):
        h = compose(outer, inner)
        filled = compose(outer, inner)
        filled.series()
        bare = NilAut(h.alphabet, h.level, h.images)
        for cutoff in range(2, h.level + 1):
            substituted = h.projected_series(cutoff)
            assert h._series is None  # substituted, never filled
            assert substituted == filled.projected_series(cutoff) == bare.projected_series(cutoff)
        assert bare._series is None  # the projected words were expanded


@pytest.mark.parametrize("g, k", [(g, k) for g in (1, 2, 3) for k in (1, 2)])
def test_inverse_series_from_corrections_matches_its_words(g, k):
    # The corrections' series come from the error series, not their words.
    # Above genus 1 the k = 2 products' inverses have words past the letter
    # cap: they are still found from series, and refused only when read.
    a, b = _mixed_products(g, k)[0]
    for h in [a, b, compose(a, b), compose(b, a)]:
        inv = invert_aut(h)
        assert compose(h, inv) == compose(inv, h) == identity_aut(g, h.level)
        if g > 1 and k == 2 and h not in (a, b):
            with pytest.raises(ValidationError, match="would exceed"):
                inv.images
        else:
            assert inv.series() == tuple(magnus_expand(w, h.level) for w in inv.images)


@pytest.mark.parametrize("g", [1, 2, 3])
def test_identity_and_inverse_letters_hold_their_series(g):
    ab = Alphabet(g, FULL)
    for q in range(2, 7):
        e = identity_aut(g, q)
        assert e._series is not None
        assert e.series() == tuple(magnus_expand(w, q) for w in e.images)
        z = [generator(ab, i) for i in range(ab.size)]
        assert _letter_series(ab, q, 1) == tuple(magnus_expand(w, q) for w in z)
        assert _letter_series(ab, q, -1) == tuple(magnus_expand(w.inverse(), q) for w in z)


def test_inverting_an_ia_automorphism_expands_only_its_own_words(monkeypatch):
    # The identity start, the identity's series and M(z^-1) are held, so the
    # only expansions are of h's own images, none of one letter or none.
    h = phi_hat(kernel_lift_tuple(2, 2, [1]))
    assert h.abelianization() == identity_matrix(4)
    assert all(len(w.letters) > 1 for w in h.images)
    expanded = []
    real = jfilt.automorphisms.magnus_expand
    monkeypatch.setattr(jfilt.automorphisms, "magnus_expand", lambda w, q: expanded.append(w) or real(w, q))
    inv = invert_aut(h)
    assert compose(h, inv) == compose(inv, h) == identity_aut(2, h.level)
    assert expanded and all(any(w is v for v in h.images) for w in expanded)
    del expanded[:]
    assert compose(h, invert_aut(h)) == identity_aut(2, h.level)
    assert expanded == []  # h's series is held now


def test_inverting_the_identity_returns_the_identity():
    for h in (identity_aut(2, 4), NilAut(Alphabet(2, FULL), 4, identity_aut(2, 4).images)):
        inv = invert_aut(h)
        assert [w.letters for w in inv.images] == [w.letters for w in h.images]
        assert inv == identity_aut(2, 4)


def test_invert_builds_no_words_until_images_is_read(monkeypatch):
    # Not IA, so the start is a lift of the inverse matrix, and the errors
    # and the inverse are compositions whose words are substitutions.
    h = compose(phi_hat(random_kernel_tuple(random.Random(3), 2, 1)), psi_hat(full_twist_tuple(2, 3, 1, X_ONLY)))
    substituted = []
    real = jfilt.automorphisms.substitute
    monkeypatch.setattr(jfilt.automorphisms, "substitute", lambda w, images: substituted.append(w) or real(w, images))
    inv = invert_aut(h)
    check_aut0(inv), filtration_degree(inv), jl_element(inv, 1)
    assert compose(h, inv) == compose(inv, h) == identity_aut(2, h.level)
    assert substituted == []
    words = inv.images
    assert substituted
    assert inv.images is words  # built once
    assert inv.series() == tuple(magnus_expand(w, h.level) for w in words)


def test_inverting_a_chain_of_8_compositions_is_answered_from_series():
    # Its inverse's words would pass the letter cap; its series do not.
    f = phi_hat(random_kernel_tuple(random.Random(5), 2, 2))
    h = functools.reduce(compose, [f] * 8)
    inv = invert_aut(h)
    e = identity_aut(2, h.level)
    assert compose(h, inv) == e and compose(inv, h) == e
    assert inv == functools.reduce(compose, [invert_aut(f)] * 8)
    with pytest.raises(ValidationError, match="would exceed"):
        inv.images


def count_matrix_work(monkeypatch):
    """Count the Smith eliminations, the automorphisms' matrix products and
    the Lie substitutions of the tensor actions from here on."""
    calls = {"eliminate": 0, "matmul": 0, "lie_map": 0}
    for module, name in ((jfilt.snf, "eliminate"), (jfilt.automorphisms, "matmul"), (jfilt.brackets, "lie_map")):
        def counted(*args, _real=getattr(module, name), _name=name, **kwargs):
            calls[_name] += 1
            return _real(*args, **kwargs)
        monkeypatch.setattr(module, name, counted)
    return calls


def ia_pair(g, k):
    rng = random.Random(10 * g + k)
    return phi_hat(random_kernel_tuple(rng, g, k)), phi_hat(random_kernel_tuple(rng, g, k))


@pytest.mark.parametrize("g,k", [(2, 1), (2, 2), (3, 1)])
def test_ia_automorphisms_need_no_matrix_work(monkeypatch, g, k):
    calls = count_matrix_work(monkeypatch)
    a, b = ia_pair(g, k)
    c = compose(a, b)
    inv = invert_aut(c)
    e = identity_aut(g, c.level)
    assert compose(c, inv) == e and compose(inv, c) == e
    assert cocycle_check(a, b, k) and cocycle_check(b, a, k)
    assert c.abelianization() == inv.abelianization() == identity_matrix(2 * g)
    assert calls == {"eliminate": 0, "matmul": 0, "lie_map": 0}


def test_matrices_other_than_the_identity_take_the_matrix_path(monkeypatch):
    calls = count_matrix_work(monkeypatch)
    framed = psi_hat(framing_tuple(2, 4, [1, -1], X_ONLY))
    assert calls["eliminate"] == 1  # the constructor's Smith check
    ab = Alphabet(2, FULL)
    x1, x2, y1, y2 = (generator(ab, i) for i in range(4))
    t = NilAut(ab, 4, [x1 * x2, x2, y1, y2])  # the transvection x1 -> x1 x2
    assert calls["eliminate"] == 2
    inv = invert_aut(t)
    assert calls["eliminate"] == 3  # its Smith form
    assert compose(t, inv) == identity_aut(2, 4)
    assert calls["matmul"] > 0
    matmuls = calls["matmul"]
    assert compose(t, framed).abelianization() == matmul(framed.abelianization(), t.abelianization())
    assert calls["matmul"] == matmuls + 1
    with pytest.raises(ValidationError, match="not invertible"):
        NilAut(ab, 4, [x1 ** 2, x2, y1, y2])
    assert calls["eliminate"] == 4


def early_return_outcomes():
    """What compose, invert_aut, identity_aut and the tensor actions of
    cocycle_check give on IA and non-IA automorphisms."""
    out = []
    for g, k in ((2, 1), (2, 2), (3, 1)):
        ia, other = ia_pair(g, k)
        framed = psi_hat(framing_tuple(g, k + 2, [(-1) ** i for i in range(g)], X_ONLY))
        twisted = psi_hat(full_twist_tuple(g, k + 2, 1, X_ONLY))
        hs = (ia, other, framed, twisted, compose(ia, framed))
        for a in hs:
            inv = invert_aut(a)
            out.append((inv.abelianization(), inv.series(), [w.letters for w in inv.images]))
            for b in hs:
                c = compose(a, b)
                out.append((c.abelianization(), c.series()))
                j = jl_element(b, k).value
                for side in (slice(0, g), slice(g, 2 * g)):
                    block = [row[side] for row in a.abelianization()[side]]
                    out.append((jfilt.brackets.map_tensor_first(block, j),
                                jfilt.brackets.map_tensor_second(block, j)))
        e = identity_aut(g, k + 2)
        out.append((e.abelianization(), e.series(), [w.letters for w in e.images]))
    return out


def test_early_returns_give_what_the_general_path_gives(monkeypatch):
    fast = early_return_outcomes()
    for module in (jfilt.automorphisms, jfilt.brackets):
        monkeypatch.setattr(module, "is_identity_matrix", lambda matrix: False)
    jfilt.automorphisms._identity_parts.cache_clear()
    jfilt.automorphisms._letter_series.cache_clear()
    slow = early_return_outcomes()
    assert len(fast) == len(slow)
    for a, b in zip(fast, slow):
        assert a == b


def test_each_identity_is_a_fresh_automorphism_over_shared_parts():
    a, b = identity_aut(2, 4), identity_aut(2, 4)
    assert a is not b and a._jl is not b._jl
    assert a.images is b.images and a.series() is b.series()
    jl_element(a, 1)
    assert a._jl and not b._jl
    ab = Alphabet(2, FULL)
    built = NilAut(ab, 4, [generator(ab, i) for i in range(4)])
    assert a == built and a.abelianization() == built.abelianization()
    assert identity_aut(2, 3).series() != a.series()


def test_reduce_level_commutes_with_compose():
    rng = random.Random(5)
    a = phi_hat(random_kernel_tuple(rng, 3, 2, noise=False))
    b = phi_hat(random_kernel_tuple(rng, 3, 2, noise=False))
    left = reduce_level(compose(a, b), 3)
    right = compose(reduce_level(a, 3), reduce_level(b, 3))
    assert left == right
    with pytest.raises(ValidationError):
        reduce_level(a, 5)  # can only go down


def test_reduce_level_expands_its_own_words_at_the_lower_level(monkeypatch):
    f = phi_hat(kernel_lift_tuple(2, 2, [1]))
    h = aut_from_json(aut_to_json(compose(f, f)))  # built from words, level 4
    ab, q = h.alphabet, 3
    calls = []
    original = jfilt.automorphisms.magnus_expand

    def recording(w, cutoff):
        calls.append((w, cutoff))
        return original(w, cutoff)

    monkeypatch.setattr(jfilt.automorphisms, "magnus_expand", recording)
    reduced = reduce_level(h, q)
    degree = filtration_degree(reduced)
    assert calls == [(w, q) for w in h.images]
    del calls[:]
    reduced = reduce_level(h, q)
    lagrangian = lagrangian_degree(reduced), jl_element(reduced, 1)
    # Both queries read one expansion of each projected word.
    projected = [project_y(w) for w in h.images[:ab.genus]]
    assert calls == [(w, q) for w in projected]
    plain = NilAut(ab, q, h.images)
    assert degree == filtration_degree(plain)
    assert lagrangian == (lagrangian_degree(plain), jl_element(plain, 1))
    assert reduced == plain


def test_filtration_degree_consistency_under_reduction():
    t = kernel_lift_tuple(3, 2, [1, 0, -1, 0, 0, 1])
    h = phi_hat(t)
    assert filtration_degree(h) == 2
    for qp in (2, 3, 4):
        assert filtration_degree(reduce_level(h, qp)) == min(2, qp - 1)


# ---------------------------------------------------------------------------
# Boundary stabilizer and symplectic framing


def test_check_aut0_identity_and_transvection():
    assert check_aut0(identity_aut(2, 3))
    assert check_aut0(transvection(3))


def test_check_aut0_rejects_generator_swap():
    ab = Alphabet(2, FULL)
    x1, x2, y1, y2 = (generator(ab, i) for i in range(4))
    swap = NilAut(ab, 3, [x2, x1, y2, y1])
    assert not check_aut0(swap)


def test_phi_hat_boundary_check_recomputed_honestly():
    # The constructor caches the flag; recompute from scratch on bare copies.
    rng = random.Random(2)
    for g, k in [(3, 1), (2, 2)]:
        h = phi_hat(random_kernel_tuple(rng, g, k))
        assert check_aut0(fresh_copy(h))


def test_psi_hat_framing_is_symplectic_but_not_boundary_fixing():
    # Frozen counterexample: the (1,1)-framing at genus 2, level 3 yields a
    # symplectic automorphism that moves the boundary word's class.
    p = psi_hat(framing_tuple(2, 3, [1, 1], X_ONLY))
    matrix, ok = symplectic_matrix(p)
    assert ok
    assert not check_aut0(fresh_copy(p))


def test_check_aut0_rejects_a_mirrored_product():
    # A full twist pushed onto the x-side moves the boundary class at level
    # 3, and composing with a boundary-fixing factor cannot repair that.
    h = compose(phi_hat(full_twist_tuple(2, 3, 1)), psi_hat(full_twist_tuple(2, 3, 1, X_ONLY)))
    assert h._aut0_known is None
    w = omega(2)
    assert not nilpotent_equal(substitute(w, h.images), w, 4)  # the word route
    assert not check_aut0(h)
    with pytest.raises(PreconditionError, match="check_aut0 fails"):
        johnson_element(h, 1)


def _factor(g, k, family, kind, seed):
    """phi_hat of a y-tuple or psi_hat of an x-tuple at level k+2: a full
    twist, or the kernel lift of one basis element with sign +-1."""
    rng = random.Random(seed)
    side = Y_ONLY if family == "phi" else X_ONLY
    if kind == "twist":
        t = full_twist_tuple(g, k + 2, rng.choice((-1, 1)), side)
    else:
        coeffs = [0] * dk_rank(g, k)
        if coeffs:
            coeffs[rng.randrange(len(coeffs))] = rng.choice((-1, 1))
        t = kernel_lift_tuple(g, k, coeffs, side)
    return (phi_hat if family == "phi" else psi_hat)(t)


def _outcome(query, h, k):
    try:
        return query(h, k)
    except PreconditionError:
        return PreconditionError


factor_specs = st.tuples(
    st.sampled_from(["phi", "psi"]), st.sampled_from(["kernel", "twist"]), st.integers(0, 99)
)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 2), st.integers(1, 2), st.lists(factor_specs, min_size=1, max_size=3))
@example(2, 1, [("psi", "twist", 18)])  # check_aut0 is False
@example(2, 2, [("phi", "kernel", 82), ("phi", "kernel", 36)])  # True, 872 letters
def test_series_queries_agree_with_the_bare_words(g, k, specs):
    factors = [_factor(g, k, *spec) for spec in specs]
    h = functools.reduce(compose, factors)
    ab = h.alphabet
    bare = NilAut(ab, h.level, [GroupWord(ab, w.letters) for w in h.images])
    assert bare._aut0_known is None
    # Lagrangian queries first, while the bare copy holds no series and
    # expands its projected words: this compares the two routes of
    # ``projected_series``, and the check after the loop keeps it so.
    assert lagrangian_degree(h) == lagrangian_degree(bare)
    for j in range(1, h.level - 1):
        assert _outcome(jl_element, h, j) == _outcome(jl_element, bare, j)
    assert bare._series is None
    assert h == bare
    for other in (factors[0], identity_aut(g, h.level)):
        assert (h == other) == (bare == other)
    assert filtration_degree(h) == filtration_degree(bare)
    h._aut0_known = None  # answer from the substituted series
    w = omega(g)
    assert check_aut0(h) == check_aut0(bare) == nilpotent_equal(substitute(w, bare.images), w, h.level + 1)
    for j in range(1, h.level - 1):
        assert _outcome(johnson_element, h, j) == _outcome(johnson_element, bare, j)


def test_symplectic_matrix_values():
    m, ok = symplectic_matrix(transvection(3))
    assert ok and m == [[1, 1], [0, 1]]
    m, ok = symplectic_matrix(identity_aut(2, 3))
    assert ok and m == [[1 if i == j else 0 for j in range(4)] for i in range(4)]


def test_symplectic_matrix_detects_failure():
    ab = Alphabet(2, FULL)
    x1, x2, y1, y2 = (generator(ab, i) for i in range(4))
    h = NilAut(ab, 3, [x1, x2, y1, x1 * y2])  # unimodular, pairing broken
    _, ok = symplectic_matrix(h)
    assert not ok


def test_kernel_lifts_share_one_elimination_per_pair(monkeypatch):
    calls = []
    original = jfilt.automorphisms.dk_basis

    def counted(g, k):
        calls.append((g, k))
        return original(g, k)

    monkeypatch.setattr(jfilt.automorphisms, "dk_basis", counted)
    jfilt.automorphisms._kernel_basis.cache_clear()
    try:
        lifts = [kernel_lift_tuple(3, 2, [c, 0, -1, 0, 0, 1]) for c in range(-10, 10)]
    finally:
        jfilt.automorphisms._kernel_basis.cache_clear()
    assert calls == [(3, 2)]
    assert lifts[11] == kernel_lift_tuple(3, 2, [1, 0, -1, 0, 0, 1])
    assert len({t.entries for t in lifts}) == 20


def test_filtration_degree_examples():
    assert filtration_degree(identity_aut(2, 4)) == 3  # saturates at level - 1
    assert filtration_degree(transvection(3)) == 0
    t = kernel_lift_tuple(3, 1, [1])
    assert filtration_degree(phi_hat(t)) == 1


# ---------------------------------------------------------------------------
# Obstruction tensor


def test_johnson_of_identity_is_zero():
    j = johnson_element(identity_aut(2, 4), 2)
    assert j.is_zero
    assert johnson_element(identity_aut(2, 3), 1).is_zero


def test_johnson_of_phi_hat_matches_tuple_classes():
    # Frozen sign convention: johnson(phi_hat(lam)) = +sum_i y_i (x) [lam_i].
    rng = random.Random(9)
    for g, k in [(3, 1), (2, 2), (3, 2)]:
        t = random_kernel_tuple(rng, g, k)
        h = phi_hat(t)
        j = johnson_element(h, k)
        classes = {i: graded_class(t.entries[i], k + 1) for i in range(g)}
        expected = embed_tensor(tensor_from_components(g, k, classes), 2 * g, g)
        assert j == expected


def test_johnson_tripod_hits_kernel_basis():
    t = kernel_lift_tuple(3, 1, [1])
    j = johnson_element(phi_hat(t), 1)
    expected = embed_tensor(dk_basis(3, 1)[0], 6, 3)
    assert j == expected


def test_johnson_additivity_under_composition():
    lam = kernel_lift_tuple(3, 1, [2])
    mu = kernel_lift_tuple(3, 1, [-1])
    h1, h2 = phi_hat(lam), phi_hat(mu)
    j = johnson_element(compose(h1, h2), 1)
    assert j == johnson_element(h1, 1) + johnson_element(h2, 1)


def test_johnson_lands_in_contraction_kernel():
    rng = random.Random(4)
    for g, k in [(2, 1), (3, 1), (2, 2)]:
        j = johnson_element(phi_hat(random_kernel_tuple(rng, g, k)), k)
        assert bracket_map(j).is_zero


def test_johnson_preconditions():
    t = kernel_lift_tuple(3, 2, [1, 0, -1, 0, 0, 1])
    h = phi_hat(t)
    with pytest.raises(PreconditionError, match="k must be at least 1"):
        johnson_element(h, 0)
    with pytest.raises(PreconditionError, match="below k"):
        johnson_element(reduce_level(h, 3), 2)
    with pytest.raises(PreconditionError, match="^johnson_element: filtration_degree is below k = 1$"):
        johnson_element(transvection(3), 1)
    p = psi_hat(framing_tuple(2, 3, [1, 1], X_ONLY))
    with pytest.raises(PreconditionError, match="check_aut0 fails"):
        johnson_element(p, 1)


# ---------------------------------------------------------------------------
# Longitude tuples


def test_tuple_validation():
    ab = Alphabet(2, Y_ONLY)
    w = generator(ab, 0)
    with pytest.raises(ValidationError):
        LongitudeTuple(2, 1, Y_ONLY, (w, w))  # level too small
    with pytest.raises(ValidationError):
        LongitudeTuple(2, 3, Y_ONLY, (w,))  # wrong arity
    with pytest.raises(ValidationError):
        LongitudeTuple(2, 3, X_ONLY, (w, w))  # kind mismatch
    with pytest.raises(ValidationError):
        LongitudeTuple(2, 3, "z", (w, w))  # unknown kind


def test_product_condition_examples():
    assert validate_tuple(trivial_tuple(2, 3))
    assert validate_tuple(framing_tuple(2, 4, [3, -1]))
    assert validate_tuple(full_twist_tuple(2, 4, 2))
    ab = Alphabet(2, Y_ONLY)
    bad = LongitudeTuple(2, 2, Y_ONLY, (generator(ab, 1), GroupWord(ab)))
    assert not validate_tuple(bad)


def test_framing_and_twist_tuples_are_validated_without_expansion(monkeypatch):
    # Their conjugation action fixes the strand product as a reduced word.
    expanded = []
    real = jfilt.words.magnus_expand
    monkeypatch.setattr(jfilt.words, "magnus_expand", lambda w, q: expanded.append(w) or real(w, q))
    for kind in (Y_ONLY, X_ONLY):
        for g in (1, 2, 3):
            assert validate_tuple(framing_tuple(g, 4, [2, -1, 3][:g], kind))
            assert validate_tuple(full_twist_tuple(g, 4, -2, kind))
    assert expanded == []
    assert not validate_tuple(LongitudeTuple(2, 3, Y_ONLY, (generator(Alphabet(2, Y_ONLY), 1), GroupWord(Alphabet(2, Y_ONLY)))))
    assert expanded


def test_conjugation_action_and_strand_product():
    t = kernel_lift_tuple(3, 1, [1])
    ab = t.alphabet
    prod = strand_product(t)
    assert render_word(prod) == "y1 y2 y3"
    y1 = generator(ab, 0)
    moved = conjugation_action(t, y1)
    assert moved == t.entries[0].inverse() * y1 * t.entries[0]


def test_milnor_compose_group_laws():
    rng = random.Random(13)
    e = trivial_tuple(3, 3)
    a = random_kernel_tuple(rng, 3, 1)
    b = random_kernel_tuple(rng, 3, 1)
    c = random_kernel_tuple(rng, 3, 1)
    assert tuples_equal(milnor_compose(a, e), a)
    assert tuples_equal(milnor_compose(e, a), a)
    left = milnor_compose(milnor_compose(a, b), c)
    right = milnor_compose(a, milnor_compose(b, c))
    assert all(u == v for u, v in zip(left.entries, right.entries))


def test_phi_hat_is_homomorphism_for_milnor_product():
    rng = random.Random(17)
    for g, k in [(2, 2), (3, 1)]:
        lam = random_kernel_tuple(rng, g, k)
        mu = random_kernel_tuple(rng, g, k)
        lhs = phi_hat(milnor_compose(lam, mu))
        rhs = compose(phi_hat(lam), phi_hat(mu))
        assert all(u == v for u, v in zip(lhs.images, rhs.images))


def test_phi_hat_images_shape():
    t = kernel_lift_tuple(3, 1, [1])
    h = phi_hat(t)
    ab = h.alphabet
    for i in range(3):
        lam = t.entries[i]
        emb = GroupWord(ab, tuple((j + 3, e) for j, e in lam.letters))
        assert h.images[i] == generator(ab, i) * emb
        assert h.images[3 + i] == emb.inverse() * generator(ab, 3 + i) * emb


def test_phi_hat_rejects_invalid_tuple():
    ab = Alphabet(2, Y_ONLY)
    bad = LongitudeTuple(2, 2, Y_ONLY, (generator(ab, 1), GroupWord(ab)))
    with pytest.raises(ValidationError, match="product condition"):
        phi_hat(bad)


def test_psi_hat_images_shape():
    t = framing_tuple(2, 3, [1, 0], X_ONLY)
    p = psi_hat(t)
    ab = p.alphabet
    x1, x2, y1, y2 = (generator(ab, i) for i in range(4))
    assert p.images[0] == x1
    assert p.images[1] == x2
    assert p.images[2] == x1 * y1
    assert p.images[3] == y2


def test_extract_longitudes_inverts_phi_hat():
    rng = random.Random(21)
    for g, k in [(3, 1), (2, 2)]:
        t = random_kernel_tuple(rng, g, k)
        h = phi_hat(t)
        ext = extract_longitudes(h, k)
        assert ext.level == k + 1
        assert tuples_equal(ext, LongitudeTuple(g, k + 1, Y_ONLY, t.entries))
        # For these images the recovery is exact, not only up to level.
        assert all(u == v for u, v in zip(ext.entries, t.entries))


def test_extract_longitudes_kills_psi_hat():
    p = psi_hat(framing_tuple(2, 3, [1, 1], X_ONLY))
    ext = extract_longitudes(p, 1)
    assert tuples_equal(ext, trivial_tuple(2, 2))


def test_extract_longitudes_level_precondition():
    h = phi_hat(kernel_lift_tuple(3, 1, [1]))  # level 3
    with pytest.raises(PreconditionError, match="level"):
        extract_longitudes(h, 3)
    for k in (0, -1):
        with pytest.raises(PreconditionError, match="k must be at least 1"):
            extract_longitudes(h, k)


def test_kernel_lift_tuples_are_valid():
    rng = random.Random(23)
    for g, k in [(2, 1), (2, 2), (3, 1), (3, 2)]:
        t = random_kernel_tuple(rng, g, k)
        assert t.level == k + 2
        assert validate_tuple(t)
    with pytest.raises(ValidationError):
        kernel_lift_tuple(3, 1, [1, 2])  # one coefficient per basis element


def test_noise_does_not_change_johnson():
    rng = random.Random(29)
    coeffs = [1, -1, 0, 2, 0, 0]
    quiet = kernel_lift_tuple(3, 2, coeffs)
    noisy = random_kernel_tuple(random.Random(31), 3, 2)
    j_quiet = johnson_element(phi_hat(quiet), 2)
    # Rebuild the noisy tuple's own quiet core for comparison instead: noise
    # preserves each entry's degree-(k+1) class, so johnson only sees the core.
    rng2 = random.Random(37)
    core = random_kernel_tuple(rng2, 3, 2, noise=False)
    rng3 = random.Random(37)
    dressed = random_kernel_tuple(rng3, 3, 2, noise=True)
    assert johnson_element(phi_hat(core), 2) == johnson_element(phi_hat(dressed), 2)
    assert not j_quiet.is_zero


# ---------------------------------------------------------------------------
# Serialization


def test_aut_json_round_trip():
    h = phi_hat(kernel_lift_tuple(3, 1, [1]))
    d = aut_to_json(h)
    assert d["g"] == 3 and d["q"] == 3
    assert sorted(d["images"]) == ["x1", "x2", "x3", "y1", "y2", "y3"]
    assert aut_from_json(d) == h


def test_tuple_json_round_trip():
    t = kernel_lift_tuple(2, 2, [1])
    d = tuple_to_json(t)
    assert d["g"] == 2 and d["q"] == 4 and d["kind"] == "y"
    back = tuple_from_json(d)
    assert tuples_equal(back, t)
    assert all(u == v for u, v in zip(back.entries, t.entries))


@pytest.mark.parametrize("key", ["x2", "y2", "x01", "z1", "x0"])
def test_aut_json_rejects_a_key_that_names_no_generator(key):
    d = aut_to_json(transvection(3))
    d["images"][key] = "x1"
    with pytest.raises(ValidationError, match="image key '%s' names no generator of genus 1" % key):
        aut_from_json(d)


@pytest.mark.parametrize("payload", [[1, 2], "g", 3, None])
def test_aut_json_rejects_a_payload_that_is_not_an_object(payload):
    with pytest.raises(ValidationError, match="^bad automorphism payload: expected a JSON object$"):
        aut_from_json(payload)


@pytest.mark.parametrize("payload", [[1, 2], "g", 3, None])
def test_tuple_json_rejects_a_payload_that_is_not_an_object(payload):
    with pytest.raises(ValidationError, match="^bad tuple payload: expected a JSON object$"):
        tuple_from_json(payload)


@pytest.mark.parametrize("entries", ["  ", "y1 y2", {"y1": 1}, None])
def test_tuple_json_rejects_entries_that_are_not_a_list(entries):
    # A string used to be read one character per entry, an object one key
    # per entry.
    with pytest.raises(ValidationError, match="^bad tuple payload: entries must be a list$"):
        tuple_from_json({"g": 2, "q": 3, "entries": entries})
    with pytest.raises(ValidationError, match="need one entry per strand"):
        tuple_from_json({"g": 2, "q": 3, "entries": ["y1"]})


@pytest.mark.parametrize("field", ["g", "q"])
@pytest.mark.parametrize("value", [True, False, 1.9, 3.0, "1", None, [1]])
def test_json_readers_reject_integer_fields_that_are_not_integers(field, value):
    for reader, good, kind in (
        (aut_from_json, aut_to_json(transvection(3)), "automorphism"),
        (tuple_from_json, tuple_to_json(framing_tuple(1, 3, [1])), "tuple"),
    ):
        with pytest.raises(ValidationError, match="^bad %s payload: %s must be an integer$" % (kind, field)):
            reader(dict(good, **{field: value}))


def test_aut_json_rejects_missing_image():
    h = transvection(3)
    d = aut_to_json(h)
    del d["images"]["y1"]
    with pytest.raises(ValidationError):
        aut_from_json(d)
