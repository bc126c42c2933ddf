"""Free group words, Magnus expansion, weight and equality tests."""

from __future__ import annotations

import math
import operator
import random
import time
from functools import reduce

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from jfilt import words
from jfilt.automorphisms import compose, kernel_lift_tuple, phi_hat
from jfilt.errors import PreconditionError, ValidationError
from jfilt.words import (
    Alphabet,
    GroupWord,
    TruncatedSeries,
    commutator,
    embed_word,
    generator,
    lcs_weight,
    magnus_expand,
    nilpotent_equal,
    omega,
    parse_word,
    project_y,
    render_word,
    word,
)

FULL1 = Alphabet(1)
FULL2 = Alphabet(2)
Y3 = Alphabet(3, "y")


def words_over(alphabet, max_len=6, max_exp=2):
    letter = st.tuples(
        st.integers(0, alphabet.size - 1),
        st.integers(-max_exp, max_exp).filter(lambda e: e != 0),
    )
    return st.lists(letter, max_size=max_len).map(lambda ls: GroupWord(alphabet, tuple(ls)))


def cancelling_words(alphabet):
    """Words u v u^-1 w, whose letters cancel when the pieces are joined."""
    piece = st.lists(
        st.tuples(st.integers(0, alphabet.size - 1), st.integers(-3, 3)), max_size=5
    ).map(lambda ls: GroupWord(alphabet, tuple(ls)))
    return st.tuples(piece, piece, piece).map(lambda t: t[0] * t[1] * t[0].inverse() * t[2])


def test_reduction_cancels_adjacent_letters():
    w = word(FULL1, (0, 1), (0, -1))
    assert w.is_empty
    w = word(FULL1, (0, 2), (1, 1), (1, -1), (0, -1))
    assert w.letters == ((0, 1),)


def test_reduction_is_idempotent_and_merges():
    w = word(FULL2, (0, 1), (0, 1), (3, -2))
    assert w.letters == ((0, 2), (3, -2))
    assert GroupWord(FULL2, w.letters) == w


def test_commutator_magnus_q3():
    x1 = generator(FULL1, 0)
    y1 = generator(FULL1, 1)
    series = magnus_expand(commutator(x1, y1), 3)
    assert series.terms == {(): 1, (0, 1): 1, (1, 0): -1}


def test_omega_genus1_word_and_expansion():
    w = omega(1)
    # (y1)^-1 x1 y1 x1^-1
    assert w.letters == ((1, -1), (0, 1), (1, 1), (0, -1))
    series = magnus_expand(w, 3)
    assert series.terms == {(): 1, (0, 1): 1, (1, 0): -1}
    assert series.lowest_positive_degree() == 2
    assert render_word(omega(2)) == "y2^-1 y1^-1 x1 y1 x1^-1 x2 y2 x2^-1"


def test_omega_exponent_sums_vanish():
    for g in (1, 2, 3):
        assert omega(g).abelianization() == (0,) * (2 * g)


def test_lcs_weight_examples():
    x1 = generator(FULL1, 0)
    y1 = generator(FULL1, 1)
    c = commutator(x1, y1)
    assert lcs_weight(x1, 5) == 1
    assert lcs_weight(c, 5) == 2
    assert lcs_weight(commutator(c, y1), 5) == 3
    assert lcs_weight(GroupWord(FULL1), 5) == 5


def test_lcs_weight_basic_commutator_ladder():
    # Left-normed [..[[x1,y1],y1]..,y1] has weight exactly its depth.
    x1 = generator(FULL1, 0)
    y1 = generator(FULL1, 1)
    w = x1
    for depth in range(2, 6):
        w = commutator(w, y1)
        assert lcs_weight(w, 6) == depth


def test_nilpotent_equal_detects_abelian_and_deeper_levels():
    x1 = generator(FULL1, 0)
    y1 = generator(FULL1, 1)
    assert nilpotent_equal(x1 * y1, y1 * x1, 2)
    assert not nilpotent_equal(x1 * y1, y1 * x1, 3)


def test_nilpotent_equal_of_equal_words_expands_nothing(monkeypatch):
    expanded = []
    real = words.magnus_expand
    monkeypatch.setattr(words, "magnus_expand", lambda w, q: expanded.append(w) or real(w, q))
    x1, y1 = generator(FULL1, 0), generator(FULL1, 1)
    u = commutator(x1, y1) ** 3 * x1
    assert nilpotent_equal(u, parse_word("[x1, y1]^3 x1", FULL1), 5)
    assert nilpotent_equal(GroupWord(FULL1), x1 * x1.inverse(), 5)
    assert expanded == []
    # Words in different classes are both expanded and told apart.
    deeper = u * commutator(commutator(x1, y1), y1)
    assert not nilpotent_equal(u, deeper, 4)
    assert expanded == [u, deeper]
    assert nilpotent_equal(u, deeper, 3)
    with pytest.raises(PreconditionError):
        nilpotent_equal(u, u, 1)


def test_magnus_constant_term_is_one():
    for w in (GroupWord(FULL2), omega(2), generator(FULL2, 1) ** -3):
        assert magnus_expand(w, 4).terms[()] == 1


def test_magnus_rejects_small_cutoff():
    with pytest.raises(PreconditionError):
        magnus_expand(generator(FULL1, 0), 1)
    with pytest.raises(PreconditionError):
        lcs_weight(generator(FULL1, 0), 1)


def test_alphabet_mismatch_raises():
    with pytest.raises(ValidationError):
        generator(FULL1, 0) * generator(FULL2, 0)


def test_alphabet_index_refuses_long_numbers_before_converting_them():
    # 5,000 digits are past what int() converts: the index used to raise
    # int()'s ValueError, which the CLI printed as a traceback.
    for name in ("x" + "1" * 5000, "y" + "1" * 5000, "x" + "0" * 5000, "x10", "x0"):
        with pytest.raises(ValidationError, match="out of range for genus 2") as info:
            FULL2.index(name)
        assert len(str(info.value)) < 100
    assert FULL2.index("x" + "0" * 5000 + "2") == FULL2.index("x2") == 1
    assert Alphabet(12).index("y12") == 23


@settings(max_examples=60, deadline=None)
@given(words_over(FULL2), words_over(FULL2))
def test_magnus_is_a_homomorphism(u, v):
    q = 4
    assert magnus_expand(u * v, q) == magnus_expand(u, q) * magnus_expand(v, q)


@settings(max_examples=40, deadline=None)
@given(words_over(FULL2))
def test_inverse_cancels_under_magnus(u):
    assert magnus_expand(u * u.inverse(), 4).terms == {(): 1}
    assert u.inverse().inverse() == u


@settings(max_examples=80, deadline=None)
@given(st.one_of(words_over(FULL1, max_len=4), cancelling_words(FULL1)), st.integers(-4, 4))
def test_power_matches_repeated_product(u, n):
    expected = GroupWord(FULL1)
    step = u if n >= 0 else u.inverse()
    for _ in range(abs(n)):
        expected = expected * step
    assert u ** n == expected


def reduced_words(alphabet):
    return st.one_of(words_over(alphabet, max_len=8, max_exp=3), cancelling_words(alphabet))


def _plain(*pieces):
    """The reduced letters of the plain concatenation of ``pieces``."""
    return words._reduce_letters(letter for piece in pieces for letter in piece)


@settings(max_examples=150, deadline=None)
@given(reduced_words(FULL2), reduced_words(FULL2), st.integers(-4, 4))
def test_seam_joins_equal_the_reduced_concatenation(u, v, n):
    assert (u * v).letters == _plain(u.letters, v.letters)
    assert u.inverse().letters == _plain(words._inverse_letters(u.letters))
    step = u.letters if n >= 0 else words._inverse_letters(u.letters)
    assert (u ** n).letters == _plain(*[step] * abs(n))


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 2).flatmap(lambda g: st.tuples(
    reduced_words(Alphabet(g)), st.lists(reduced_words(Alphabet(g)), min_size=2 * g, max_size=2 * g))))
def test_substitution_equals_the_reduced_concatenation(case):
    w, images = case
    pieces = []
    for gen, exp in w.letters:
        image = images[gen].letters
        pieces += [image if exp > 0 else words._inverse_letters(image)] * abs(exp)
    assert words.substitute(w, images).letters == _plain(*pieces)


def test_substitution_needs_images_over_the_word_alphabet():
    w = parse_word("x1 y1", FULL1)
    images = [generator(FULL1, 0), generator(FULL1, 1)]
    assert words.substitute(w, images) == w
    for wrong in ([generator(FULL2, 0), generator(FULL2, 2)], [generator(FULL1, 0)]):
        with pytest.raises(ValidationError):
            words.substitute(w, wrong)


def test_power_examples():
    x1 = generator(FULL1, 0)
    y1 = generator(FULL1, 1)
    assert (x1 * y1 * x1.inverse()) ** -3 == word(FULL1, (0, 1), (1, -3), (0, -1))
    assert parse_word("(x1 y1 x1^-1)^-3", FULL1) == word(FULL1, (0, 1), (1, -3), (0, -1))
    assert (x1 ** 2 * y1 * x1 ** -1) ** 2 == word(FULL1, (0, 2), (1, 1), (0, 1), (1, 1), (0, -1))
    assert (x1 * y1) ** 0 == GroupWord(FULL1)
    assert GroupWord(FULL1) ** -5 == GroupWord(FULL1)
    assert x1 ** -7 == word(FULL1, (0, -7))
    # A power whose base is one letter up to conjugation is built in one
    # step, however large the exponent.
    assert (x1 * y1 * x1.inverse()) ** 10**15 == word(FULL1, (0, 1), (1, 10**15), (0, -1))
    for bad in (1.5, 0.5, 2.0):
        with pytest.raises(ValidationError, match="exponent must be an integer"):
            (x1 * y1) ** bad
        with pytest.raises(ValidationError, match="exponent must be an integer"):
            x1 ** bad


def _reference_magnus(w, q):
    """The definition: the product over the letters z^e of w of the series
    (1 + Z)^e, folded under TruncatedSeries multiplication."""
    series = TruncatedSeries(w.alphabet, q, {(): 1})
    for gen, exp in w.letters:
        terms = {}
        for j in range(q):
            if exp >= 0:
                coeff = math.comb(exp, j) if j <= exp else 0
            else:
                coeff = (-1) ** j * math.comb(-exp + j - 1, j)
            terms[(gen,) * j] = coeff
        series = series * TruncatedSeries(w.alphabet, q, terms)
    return series


@settings(max_examples=150, deadline=None)
@given(st.one_of(cancelling_words(FULL1), cancelling_words(FULL2)), st.integers(2, 5))
def test_magnus_matches_the_per_letter_product(w, q):
    series = magnus_expand(w, q)
    assert series.terms == _reference_magnus(w, q).terms
    assert all(c != 0 and len(m) < q for m, c in series.terms.items())


@st.composite
def long_words(draw):
    """Words of 40 to 80 letters at genus 1 to 3, so that prefixes fill every
    degree: mostly runs of unit letters, with powers up to 7 and 1000 of
    either sign among them."""
    ab = Alphabet(draw(st.integers(1, 3)))
    unit = st.sampled_from((1, -1))
    power = st.integers(2, 7).flatmap(lambda e: st.sampled_from((e, -e)))
    exponent = st.one_of(unit, unit, unit, power, st.sampled_from((1000, -1000)))
    letter = st.tuples(st.integers(0, ab.size - 1), exponent)
    return GroupWord(ab, tuple(draw(st.lists(letter, min_size=40, max_size=80))))


def _seeded_long_word(seed, g, n):
    """A reduced word of n letters, no two neighbours on one generator."""
    rng = random.Random(seed)
    exponents = (1, -1) * 3 + (2, -3, 5, -7, 1000, -1000)
    letters = [(0, 1)]
    while len(letters) < n:
        gen = rng.randrange(2 * g)
        if gen != letters[-1][0]:
            letters.append((gen, rng.choice(exponents)))
    return GroupWord(Alphabet(g), tuple(letters))


@settings(max_examples=40, deadline=None)
@given(long_words(), st.integers(2, 6))
@example(_seeded_long_word(3, 3, 80), 6)
def test_magnus_of_long_words_matches_the_per_letter_product(w, q):
    assert magnus_expand(w, q).terms == _reference_magnus(w, q).terms


def test_magnus_at_cutoff_2_is_the_abelianization():
    # At q = 2 the trie is its root alone, whose children are the degree-1
    # coefficients.
    ab = Alphabet(3)
    w = parse_word("x1 y2^-3 x1^-1 x3^1000 [x2, y3] y2 y1^-1 x3^-999", ab)
    expected = {(): 1}
    expected.update({(i,): e for i, e in enumerate(w.abelianization()) if e})
    assert magnus_expand(w, 2).terms == expected == _reference_magnus(w, 2).terms
    assert magnus_expand(GroupWord(ab), 2).terms == {(): 1}


def test_magnus_of_the_largest_benchmark_product_collapses_to_few_terms():
    # The 869-letter (2, 2) product of two conjugating factors: each image's
    # long word expands to 2 to 5 terms below degree 4.
    f = phi_hat(kernel_lift_tuple(2, 2, [1]))
    h = compose(f, f)
    assert sum(len(w.letters) for w in h.images) == 869
    for w, held in zip(h.images, h.series()):
        series = magnus_expand(w, 4)
        assert series == _reference_magnus(w, 4) == held
        assert 2 <= len(series.terms) <= 5


def test_magnus_raises_just_past_the_term_cap(monkeypatch):
    # With positive exponents every coefficient is positive, so the trie
    # holds exactly the terms of the result, the constant term included.
    w = parse_word("x1 y1 x2 y2 x1 y2^3", Alphabet(2))
    expected = _reference_magnus(w, 4)
    cap = len(expected.terms)
    monkeypatch.setattr(words, "MAX_SERIES_TERMS", cap)
    assert magnus_expand(w, 4) == expected
    monkeypatch.setattr(words, "MAX_SERIES_TERMS", cap - 1)
    with pytest.raises(PreconditionError, match="would exceed %d terms" % (cap - 1)):
        magnus_expand(w, 4)


def test_substitution_raises_just_past_the_term_cap(monkeypatch):
    # M(x1) with X1 -> M(x1 y1) - 1 below degree 3: the memo holds the empty
    # prefix (1 term) and X1's value X1 + Y1 + X1Y1 (3 terms), and the result
    # M(x1 y1) holds 4, so 8 terms in all.
    ab = Alphabet(1)
    images = [magnus_expand(parse_word("x1 y1", ab), 3), magnus_expand(parse_word("y1", ab), 3)]
    series = [magnus_expand(parse_word("x1", ab), 3)]
    monkeypatch.setattr(words, "MAX_SERIES_TERMS", 8)
    assert words.substitute_series(series, images, 3) == (images[0],)
    monkeypatch.setattr(words, "MAX_SERIES_TERMS", 7)
    with pytest.raises(PreconditionError, match=r"would exceed 7 terms \(8 built\)"):
        words.substitute_series(series, images, 3)
    # Refused as X1's value is built, before the result.
    monkeypatch.setattr(words, "MAX_SERIES_TERMS", 3)
    with pytest.raises(PreconditionError, match=r"would exceed 3 terms \(4 built\)"):
        words.substitute_series(series, images, 3)


def substitutions():
    """(w, images) at genus 1 to 3.  Images are random words, some of them
    substituted words themselves; or w is omega and the images are those of
    phi_hat for random y-words, so that h(omega) cancels down to fewer
    letters than its images hold."""

    @st.composite
    def draw(draw):
        ab = Alphabet(draw(st.integers(1, 3)))
        short = words_over(ab, max_len=4, max_exp=3)
        if draw(st.booleans()):
            lams = [embed_word(project_y(draw(short)), ab) for _ in range(ab.genus)]
            gens = [generator(ab, i) for i in range(ab.size)]
            images = [gens[i] * lams[i] for i in range(ab.genus)]
            images += [lams[i].inverse() * gens[ab.genus + i] * lams[i] for i in range(ab.genus)]
            return omega(ab.genus), images
        images = []
        for _ in range(ab.size):
            image = draw(short)
            if draw(st.booleans()):
                image = words.substitute(image, [draw(short) for _ in range(ab.size)])
            images.append(image)
        return draw(words_over(ab, max_len=12, max_exp=3)), images

    return draw()


def _through_images(w, images, q):
    """M(w) with Z_j replaced by M(images[j]) - 1."""
    expanded = [magnus_expand(image, q) for image in images]
    return words.substitute_series([magnus_expand(w, q)], expanded, q)[0]


@settings(max_examples=80, deadline=None)
@given(substitutions(), st.integers(2, 5))
def test_expansion_through_images_matches_the_letters(case, q):
    w, images = case
    built = words.substitute(w, images)
    assert magnus_expand(built, q) == magnus_expand(GroupWord(built.alphabet, built.letters), q)
    assert _through_images(w, images, q) == magnus_expand(built, q)


def test_series_substitution_matches_the_substituted_word():
    ab = Alphabet(2)
    x1, x2, y1, y2 = (generator(ab, i) for i in range(4))
    images = [x1 * y1, x2 * y2 * x1, y1, y2]
    w = parse_word("(x1 x2)^5 x1^-3", ab)
    built = words.substitute(w, images)
    assert magnus_expand(built, 4) == magnus_expand(GroupWord(ab, built.letters), 4)
    assert _through_images(w, images, 4) == magnus_expand(built, 4)
    # Powers of the images: M(w) holds binomial coefficients of 1000 and 999.
    w = parse_word("x1^1000 x2^-999", ab)
    built = words.substitute(w, images)
    assert magnus_expand(built, 4) == magnus_expand(GroupWord(ab, built.letters), 4)
    assert _through_images(w, images, 4) == magnus_expand(built, 4)
    # phi_hat of the full twist (y1 y2, y1 y2) fixes each x_i y_i x_i^-1 and
    # y1 y2, so h(omega) cancels to 8 letters against 14 in the images; the
    # substitution agrees with the cancelled word.
    lam = y1 * y2
    images = [x1 * lam, x2 * lam, lam.inverse() * y1 * lam, lam.inverse() * y2 * lam]
    built = words.substitute(omega(2), images)
    assert len(built.letters) == 8
    assert magnus_expand(built, 4) == magnus_expand(GroupWord(ab, built.letters), 4)
    assert _through_images(omega(2), images, 4) == magnus_expand(built, 4)


def test_expansion_returns_a_new_series_every_call():
    ab = Alphabet(2)
    images = [parse_word(t, ab) for t in ("x1 y1", "x2 y2 x1", "y1", "y2")]
    built = words.substitute(parse_word("(x1 x2)^5", ab), images)
    for w in (built, images[0]):
        first = magnus_expand(w, 4)
        expected = dict(first.terms)
        first.terms[()] = 7
        first.terms.pop((0,), None)
        first.terms[(3, 3, 3)] = 5
        assert magnus_expand(w, 4).terms == expected


def word_expressions(alphabet):
    """Pairs (text, word) of nested commutators, powers and products, the
    word built with *, ** and commutator."""
    leaf = st.integers(0, alphabet.size - 1).map(
        lambda i: (alphabet.name(i), generator(alphabet, i))
    )

    def extend(inner):
        return st.one_of(
            st.tuples(inner, inner).map(
                lambda p: ("[%s,%s]" % (p[0][0], p[1][0]), commutator(p[0][1], p[1][1]))
            ),
            st.tuples(inner, st.integers(-3, 3)).map(
                lambda p: ("(%s)^%d" % (p[0][0], p[1]), p[0][1] ** p[1])
            ),
            st.lists(inner, min_size=1, max_size=3).map(
                lambda ps: (" ".join(t for t, _ in ps), reduce(operator.mul, [w for _, w in ps]))
            ),
        )

    return st.recursive(leaf, extend, max_leaves=8)


@settings(max_examples=100, deadline=None)
@given(word_expressions(FULL2))
def test_parse_matches_the_built_word(expr):
    text, expected = expr
    assert parse_word(text, FULL2) == expected


@settings(max_examples=60, deadline=None)
@given(st.one_of(words_over(FULL2, max_len=12, max_exp=4), cancelling_words(FULL2)))
def test_parse_inverts_render(w):
    assert parse_word(render_word(w), FULL2) == w


def _timed(fn, *args):
    start = time.perf_counter()
    result = fn(*args)
    return result, time.perf_counter() - start


def test_long_words_parse_in_bounded_time():
    # Both inputs took seconds to minutes while parsing was quadratic in the
    # letters; the bound leaves a wide margin for a slow host.
    ab = Alphabet(3)
    w, seconds = _timed(parse_word, "(x1 y1)^4000", ab)
    assert w.letters == ((0, 1), (3, 1)) * 4000
    assert seconds < 2.0
    rng = random.Random(0)
    letters = [(0, 1)]
    while len(letters) < 40000:
        gen = rng.randrange(ab.size)
        if gen != letters[-1][0]:
            letters.append((gen, rng.choice((-2, -1, 1, 2))))
    long_word = GroupWord(ab, tuple(letters))
    assert len(long_word.letters) == 40000
    parsed, seconds = _timed(parse_word, render_word(long_word), ab)
    assert parsed == long_word
    assert seconds < 2.0


def _random_nested_commutator(rng, alphabet, depth):
    if depth == 1:
        return generator(alphabet, rng.randrange(alphabet.size))
    split = rng.randrange(1, depth)
    return commutator(
        _random_nested_commutator(rng, alphabet, split),
        _random_nested_commutator(rng, alphabet, depth - split),
    )


def test_nested_commutators_respect_depth_bound():
    import random

    rng = random.Random(0)
    qmax = 6
    for _ in range(40):
        depth = rng.randrange(2, 6)
        w = _random_nested_commutator(rng, FULL1, depth)
        weight = lcs_weight(w, qmax)
        assert weight >= depth
        for q in range(2, qmax + 1):
            assert nilpotent_equal(w, GroupWord(FULL1), q) == (weight >= q)


def test_parse_and_render_round_trip():
    ab = Alphabet(3)
    w = parse_word("[x1,y1]^-2 y3", ab)
    x1 = generator(ab, 0)
    y1 = generator(ab, 3)
    y3 = generator(ab, 5)
    assert w == commutator(x1, y1) ** -2 * y3
    assert parse_word(render_word(w), ab) == w
    assert parse_word("", ab).is_empty
    assert parse_word("(x1 y2)^2", ab) == (generator(ab, 0) * generator(ab, 4)) ** 2


# Each malformed text and the message the parser gives for it.
MALFORMED = {
    "x0": "generator 'x0' out of range for genus 2",
    "z1": "unexpected input at 'z1'",
    "[x1 y1]": "unexpected token ']'",
    "x1^": "unexpected input at '^'",
    "(x1": "unbalanced parenthesis",
    "x9": "generator 'x9' out of range for genus 2",
    "x1]": "unexpected token ']'",
    "x1^" + "9" * 5000: "exponent with 5000 digits is too long",
    "(x1 y1)^-" + "9" * 5000: "exponent with 5001 digits is too long",
    "x1^2^3": "unexpected token '^3'",
    "x1 ^2 ^3": "unexpected token '^3'",
    "^2": "unexpected token '^2'",
    ",": "unexpected token ','",
    "x1 ) x9": "unexpected token ')'",
    "(x1 x9": "generator 'x9' out of range for genus 2",
    "[x1": "commutator is missing a comma",
    "[x1,y1": "commutator is missing a closing bracket",
    "x1^-": "unexpected input at '^-'",
    "x1 ^ 2": "unexpected input at '^ 2'",
    "x1 $ y1 x2 y2 x1  ": "unexpected input at '$ y1 x2 y2 x'",
    "x": "unexpected input at 'x'",
    "([x1,y1)": "unexpected token ')'",
    "[(x1,y1)]": "unexpected token ','",
    "((x1)": "unbalanced parenthesis",
    "[x1,[y1,x2]": "commutator is missing a closing bracket",
    "[[x1": "commutator is missing a comma",
}


def test_parse_rejects_malformed_input():
    for text, message in MALFORMED.items():
        with pytest.raises(ValidationError) as caught:
            parse_word(text, FULL2)
        assert str(caught.value) == message
    with pytest.raises(ValidationError, match="^generator 'y1' not in this alphabet$"):
        parse_word("x1 y1", Alphabet(2, "x"))
    # Names resolve as Alphabet.index reads them, and white space is free.
    assert parse_word(" x01\ty1 ^2\n", FULL2) == word(FULL2, (0, 1), (2, 2))


def test_parse_bounds_nesting():
    assert words.MAX_WORD_NESTING == 500
    assert parse_word("(" * 500 + "x1" + ")" * 500, FULL2) == generator(FULL2, 0)
    x1, y1 = generator(FULL2, 0), generator(FULL2, 2)
    assert parse_word("(" * 499 + "[x1,y1]" + ")" * 499, FULL2) == commutator(x1, y1)
    for text in ("(" * 501 + "x1" + ")" * 501, "(" * 500 + "[x1,y1]" + ")" * 500):
        with pytest.raises(ValidationError, match="^word nests groups more than 500 deep$"):
            parse_word(text, FULL2)
    # Deeper nesting is refused at the first group past the bound, however
    # long the text.
    start = time.perf_counter()
    with pytest.raises(ValidationError, match="more than 500 deep"):
        parse_word("(" * 100000 + "x1" + ")" * 100000, FULL2)
    assert time.perf_counter() - start < 1.0


def test_parse_resolves_names_at_any_genus():
    # Names are resolved one by one as they occur, so a huge genus costs
    # nothing up front.
    w, seconds = _timed(parse_word, "x1 y1000000000^-2", Alphabet(10**9))
    assert w.letters == ((0, 1), (2 * 10**9 - 1, -2))
    assert seconds < 1.0


def test_parse_scans_trailing_white_space_once():
    _, seconds = _timed(parse_word, "x1" + " " * 200000, FULL2)
    assert seconds < 1.0
    with pytest.raises(ValidationError, match="unexpected input at '\\$'"):
        parse_word(" " * 200000 + "$" + " " * 200000, FULL2)


def test_power_and_commutator_growth_is_capped(monkeypatch):
    monkeypatch.setattr(words, "MAX_WORD_LETTERS", 100)
    assert len(parse_word("(x1 y1)^50", FULL2).letters) == 100
    # A power of a conjugate of one letter adds one letter for any exponent.
    assert len(parse_word("(x1 y1 x1^-1)^%d x2^%d" % (10**15, 10**15), FULL2).letters) == 4
    # The letters of a closed group count once, not once per nesting level.
    assert len(parse_word("((x1 y1)^30 x2) (x1 y2)^19", FULL2).letters) == 99
    nested = "[x1,y1]"
    for _ in range(4):
        nested = "[%s,x2]" % nested
    parse_word(nested, FULL2)  # builds 4, 10, 22, 46 and 94 letters
    x1, y1 = generator(FULL2, 0), generator(FULL2, 2)
    for refused in (
        lambda: parse_word("(x1 y1)^51", FULL2),
        lambda: parse_word("(x1 y1)^-51", FULL2),
        lambda: parse_word("(x1 y1)^30 (x1 y1)^21", FULL2),
        lambda: parse_word("((x1 y1)^30 x2) (x1 y2)^20", FULL2),
        lambda: parse_word("[%s,x2]" % nested, FULL2),
        lambda: (x1 * y1) ** 51,
    ):
        with pytest.raises(ValidationError):
            refused()
    # The left operand of an open commutator counts while the right is built.
    with pytest.raises(ValidationError, match="60 built, 60 more"):
        parse_word("[(x1 y1)^30, (x1 y2)^30 x2]", FULL2)
    # Every letter held around the group being built counts, as written:
    # x2^0 counts in the third.
    for text, message in (
        ("x1 y1 x2 (x1 y1)^49", "(3 built, 98 more requested)"),
        ("x1 [y1 x2, (x1 y1)^30]", "(1 built, 124 more requested)"),
        ("(x1 x2^0 [y1, x2 (x1 y2)^24])^2", "(2 built, 100 more requested)"),
    ):
        with pytest.raises(ValidationError) as caught:
            parse_word(text, FULL2)
        assert str(caught.value) == "word would exceed 100 letters " + message
    # A group raised to the power 0 leaves no letter behind to count.
    assert len(parse_word("(x1)^0 (x1 y1)^50", FULL2).letters) == 100


def test_plain_substitution_is_capped(monkeypatch):
    monkeypatch.setattr(words, "MAX_WORD_LETTERS", 100)
    gens = [generator(FULL2, i) for i in range(4)]
    images = [parse_word("(x1 y1)^5", FULL2)] + gens[1:]  # x1 -> 10 letters
    # Nine copies of each image with exponent +-1: 9 * 10 + 9 letters.
    for text in ("(x1 x2)^9", "(x1^-1 x2)^9"):
        assert len(words.substitute(parse_word(text, FULL2), images).letters) == 99
    for text in ("(x1 x2)^9 x1", "(x1^-1 x2)^9 x1^-1"):
        with pytest.raises(ValidationError, match="99 built, 10 more"):
            words.substitute(parse_word(text, FULL2), images)


def test_projection_and_embedding():
    ab = Alphabet(2)
    w = parse_word("x1 y1 x2^-1 y2^3", ab)
    p = project_y(w)
    assert p.alphabet == Alphabet(2, "y")
    assert render_word(p) == "y1 y2^3"
    back = embed_word(p, ab)
    assert render_word(back) == "y1 y2^3"
    xw = parse_word("x1 x2^-2", Alphabet(2, "x"))
    assert render_word(embed_word(xw, ab)) == "x1 x2^-2"
    assert embed_word(w, ab) == w
    with pytest.raises(ValidationError, match="full alphabet of the same genus"):
        embed_word(w, Alphabet(1))
