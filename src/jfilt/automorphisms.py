"""Automorphisms of free nilpotent quotients and longitude-tuple machinery.

A ``NilAut`` stores exact generator images over the full rank-``2g`` alphabet
and a working level ``q``: two automorphisms are the same element of the
class-``(q-1)`` nilpotent quotient when their images agree after Magnus
truncation at degree ``q``.  On top of that sit:

* the boundary-word stabilizer test ``check_aut0`` (the automorphism fixes
  the class of ``omega(g)`` one level deeper than its own level);
* the filtration degree (how deep ``h(z) z^-1`` sits in the lower central
  series, uniformly over the generators);
* extraction of the degree-``k`` obstruction tensor ``johnson_element``;
* the two families of automorphisms built from longitude tuples —
  ``phi_hat`` (conjugating the y-generators, pushing tuples onto the
  x-generators) and ``psi_hat`` (the x/y-mirrored family) — together with
  the tuple product ``milnor_compose`` and the left inverse
  ``extract_longitudes``.

The composition convention is fixed once, here: ``compose(h1, h2)`` is the
map ``z -> h1(h2(z))``.  All derived formulas (tuple products, the cocycle
law in the Lagrangian module) are calibrated against this constant.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Dict, List, Optional, Sequence, Tuple

from .brackets import TensorElement, bracket_map, dk_basis, dk_rank, tensor_from_components
from .errors import InvariantError, PreconditionError, ValidationError, excerpt, payload_fields
from .lie import LieElement, _leading_class, hall_basis, lift_lie_element
from .snf import (
    Matrix,
    identity_matrix,
    invariant_factors,
    is_identity_matrix,
    matmul,
    smith_normal_form,
    transpose,
)
from .words import (
    FULL,
    X_ONLY,
    Y_ONLY,
    Alphabet,
    GroupWord,
    TruncatedSeries,
    embed_word,
    generator,
    magnus_expand,
    nilpotent_equal,
    omega,
    parse_word,
    project_y,
    render_word,
    substitute,
    substitute_series,
)

class NilAut:
    """Automorphism of the free class-``(q-1)`` nilpotent quotient, genus g.

    Queries read the Magnus series M(h(z_i)) below degree q, filled once
    when first needed.  The identity holds 1 + Z_i from the start, a
    composition substitutes its operands' series, an inverse's corrections
    are given theirs, and every other automorphism, a level reduction
    included, expands its own image words.  The words serve I/O: a
    composition or a correction builds them only when ``images`` is read."""

    def __init__(self, alphabet: Alphabet, level: int, images: Sequence[GroupWord]):
        if alphabet.kind != FULL:
            raise ValidationError("automorphisms live on the full alphabet")
        if level < 2:
            raise ValidationError("level must be at least 2")
        if len(images) != alphabet.size:
            raise ValidationError("need one image per generator")
        for w in images:
            if w.alphabet != alphabet:
                raise ValidationError("image over the wrong alphabet")
        images = tuple(images)
        matrix = [list(w.abelianization()) for w in images]
        if not is_identity_matrix(matrix) and invariant_factors(matrix) != [1] * len(matrix):
            raise ValidationError("abelianization is not invertible over the integers")
        self._hold(alphabet, int(level), images, matrix, None)

    def _hold(self, alphabet: Alphabet, level: int, images: Optional[Tuple[GroupWord, ...]],
              matrix: Matrix, fill) -> "NilAut":
        self.alphabet = alphabet
        self.level = level
        self._images = images
        self._abelianization = matrix
        # Memo for check_aut0 at this level; populated by constructions that
        # have already established the answer by an exactly equivalent test.
        self._aut0_known: Optional[bool] = None
        self._series: Optional[Tuple[TruncatedSeries, ...]] = None
        # The terms of M(project_y(h(x_i))) below the level, for one built
        # from words with no series when first projected.
        self._projected: Optional[List[Dict[Tuple[int, ...], int]]] = None
        # k -> (jl tensor, in_hat), filled by lagrangian.jl_element.
        self._jl: Dict[int, tuple] = {}
        # (recipes, operands) of one built from others: recipes maps each of
        # ``_images`` and ``_series`` that it was not given to a function of
        # the operands, called once they hold theirs.  None for one built
        # from words; dropped once both are held.
        self._fill = fill
        return self

    @property
    def genus(self) -> int:
        return self.alphabet.genus

    def abelianization(self) -> Matrix:
        """Rows are the exponent vectors of the generator images."""
        return [list(row) for row in self._abelianization]

    def _walk(self, attr: str):
        """Fill ``attr`` (``_images`` or ``_series``) by its recipe,
        operands first, from an explicit stack, so a long chain of
        compositions does not recurse.  A missing series of one built from
        words expands them."""
        stack = [self]
        while stack:
            h = stack[-1]
            if getattr(h, attr) is None and h._fill is not None:
                recipes, operands = h._fill
                empty = [u for u in operands if getattr(u, attr) is None]
                if empty:
                    stack.extend(empty)
                    continue
                setattr(h, attr, recipes[attr](*operands))
                if h._images is not None and h._series is not None:
                    h._fill = None
            elif getattr(h, attr) is None:
                h._series = tuple(magnus_expand(w, h.level) for w in h._images)
            stack.pop()
        return getattr(self, attr)

    @property
    def images(self) -> Tuple[GroupWord, ...]:
        """The generator images as words.  A composition's or a correction's
        are built on the first read, each capped at MAX_WORD_LETTERS as it is
        built."""
        return self._walk("_images")

    def series(self) -> Tuple[TruncatedSeries, ...]:
        """M(h(z_i)) below degree ``level``, one per generator."""
        return self._walk("_series")

    def projected_series(self, cutoff: int) -> List[Dict[Tuple[int, ...], int]]:
        """The terms of M(project_y(h(x_i))) below ``cutoff`` (at most the
        level) for i < g, over the y-alphabet.  One built from words with no
        series yet expands its projected words once, at its level, and
        truncates them for every cutoff; otherwise this is pi of the series,
        pi killing every X-variable.  As pi is a ring homomorphism,
        pi(T(S)) = T(pi S) for a substitution T, so a composition with no
        series yet substitutes pi of its outer operand's series into its
        inner's x-series instead."""
        g = self.genus
        if self._projected is None and self._series is None and self._fill is None:
            self._projected = [magnus_expand(project_y(w), self.level).terms for w in self._images[:g]]
        if self._projected is not None:
            return [{m: c for m, c in t.items() if len(m) < cutoff} for t in self._projected]
        if self._series is None:
            inner, outer = self._fill[1]
            xs = [TruncatedSeries(self.alphabet, cutoff, s.terms) for s in inner.series()[:g]]
            return [s.terms for s in substitute_series(xs, _killed(outer.series(), cutoff), cutoff)]
        return [s.terms for s in _killed(self.series()[:g], cutoff)]

    def __eq__(self, other) -> bool:
        if not isinstance(other, NilAut):
            return NotImplemented
        if self.alphabet != other.alphabet or self.level != other.level:
            return False
        return self.series() == other.series()

    __hash__ = None  # semantic equality is coarser than the stored words

    def __repr__(self) -> str:
        return "NilAut(g=%d, q=%d)" % (self.genus, self.level)


# The recipes of a composition (inner, outer): its words are outer's applied
# to inner's, its series is inner's with outer's substituted.
_PRODUCT = {
    "_images": lambda inner, outer: tuple(substitute(w, outer._images) for w in inner._images),
    "_series": lambda inner, outer: substitute_series(inner._series, outer._series, inner.level),
}


@lru_cache(maxsize=None)
def _letter_series(alphabet: Alphabet, q: int, e: int) -> Tuple[TruncatedSeries, ...]:
    """M(z_i^e) below degree ``q`` for each generator z_i, with e = 1 or
    -1: 1 + Z_i, or the sum of (-Z_i)^j over j < q.  Built once per
    (alphabet, q, e) and shared: no caller changes a series."""
    degrees = range(2) if e == 1 else range(q)
    return tuple(TruncatedSeries(alphabet, q, {(i,) * j: e**j for j in degrees})
                 for i in range(alphabet.size))


def _killed(series: Sequence[TruncatedSeries], cutoff: int) -> List[TruncatedSeries]:
    """pi of each full-alphabet series below ``cutoff``, over the y-alphabet,
    pi killing every X-variable."""
    g = series[0].alphabet.genus
    ya = Alphabet(g, Y_ONLY)
    return [TruncatedSeries(ya, cutoff, {tuple([j - g for j in m]): c for m, c in s.terms.items()
                                         if not m or min(m) >= g}) for s in series]


def _built(alphabet: Alphabet, level: int, images: Optional[Tuple[GroupWord, ...]], matrix: Matrix,
           fill: Optional[tuple] = None) -> NilAut:
    """An automorphism made from checked ones (a composition, level reduction or
    inverse), whose abelianization ``matrix`` is unimodular by construction,
    so it is not checked again.  The level is: ``reduce_level`` and
    ``identity_aut`` take it from their caller."""
    if level < 2:
        raise ValidationError("level must be at least 2")
    return object.__new__(NilAut)._hold(alphabet, level, images, matrix, fill)


@lru_cache(maxsize=None)
def _identity_parts(alphabet: Alphabet) -> Tuple[Tuple[GroupWord, ...], Matrix]:
    """The identity's generator words and matrix, built once per alphabet
    and shared: no caller changes them."""
    return tuple(generator(alphabet, i) for i in range(alphabet.size)), identity_matrix(alphabet.size)


def identity_aut(g: int, q: int) -> NilAut:
    """The identity at level ``q``.  It holds its series 1 + Z_i from the
    start, so its generator words are never expanded.  Each call hands out
    a fresh automorphism, whose memos are its own, over shared parts."""
    ab = Alphabet(g, FULL)
    h = _built(ab, q, *_identity_parts(ab))
    h._series = _letter_series(ab, q, 1)
    h._aut0_known = True
    return h


def is_identity(h: NilAut) -> bool:
    """Whether ``h`` is the identity at its own level.  Public API, exported
    from ``jfilt``; nothing inside the package needs it."""
    return h == identity_aut(h.genus, h.level)


def compose(h1: NilAut, h2: NilAut) -> NilAut:
    """``z -> h1(h2(z))``: h1 applies last, an order every formula
    downstream assumes.  It records its operands and builds no words: its
    series is h2's with Z_j replaced by M(h1(z_j)) - 1, and its words, built
    when ``images`` is first read, are h1 applied to h2's.  Its matrix is
    the product of theirs, or the other's where one is the identity."""
    if h1.alphabet != h2.alphabet:
        raise ValidationError("alphabet mismatch")
    if h1.level != h2.level:
        raise ValidationError("level mismatch")
    a, b = h2._abelianization, h1._abelianization
    matrix = b if is_identity_matrix(a) else a if is_identity_matrix(b) else matmul(a, b)
    out = _built(h1.alphabet, h1.level, None, matrix, (_PRODUCT, (h2, h1)))
    if h1._aut0_known is True and h2._aut0_known is True:
        # The boundary stabilizer is closed under composition.
        out._aut0_known = True
    return out


def reduce_level(h: NilAut, q: int) -> NilAut:
    """``h`` at the lower level ``q``.  Like one built from words, it
    expands its own words, here at ``q``, when first asked."""
    if q > h.level:
        raise ValidationError("cannot raise the level")
    out = _built(h.alphabet, q, h.images, h._abelianization)
    if h._aut0_known is True:
        # Stabilizing the boundary class mod F_{level+1} implies the same
        # one level down: truncation of an equality stays an equality.
        out._aut0_known = True
    return out


def invert_aut(h: NilAut) -> NilAut:
    """Two-sided inverse at ``h``'s level.

    Start from any lift of the inverse abelianization, then repeatedly absorb
    the error: if ``(h o g)(z) = z * w_z`` with every ``w_z`` of weight >= m,
    composing ``g`` with ``z -> z * w_z^-1`` raises the agreement level,
    because corrections supported in weight >= m move words only by
    weight >= m+1 terms.  At most ``level`` rounds are needed.

    An IA ``h`` starts from the identity, with which no round composes,
    and needs no Smith form of its identity matrix.  Each round works on
    series: a correction is given its series, and builds its words from the
    error's only when the inverse's ``images`` is read, so an inverse past
    MAX_WORD_LETTERS is found, and refused there.
    """
    ab, q = h.alphabet, h.level
    ident = identity_aut(h.genus, q)
    if is_identity_matrix(h._abelianization):
        g = ident
    else:
        dec = smith_normal_form(h._abelianization)
        inverse_matrix = matmul(dec.V, dec.U)  # U A V = I, so A^-1 = V U
        g = _built(ab, q, tuple(GroupWord(ab, tuple((j, e) for j, e in enumerate(row) if e))
                                for row in inverse_matrix), inverse_matrix)
    inverses = _letter_series(ab, q, -1)
    # A correction's words z w_z^-1 z, from its error's words z w_z.
    words = {"_images": lambda err: tuple(z * w.inverse() * z for z, w in zip(ident.images, err._images))}
    for _ in range(q):
        err = h if g is ident else compose(h, g)
        if err == ident:
            break
        # z * w_z^-1 with w_z = z^-1 err(z).  err is the identity on homology
        # (A(h o g) = A^-1 A), so the correction is too.  Its series is
        # (1 + Z) M(err(z))^-1 (1 + Z), and M(err(z))^-1 is M(z^-1) with err's
        # series substituted.
        corr = _built(ab, q, None, ident._abelianization, (words, (err,)))
        corr._series = tuple(z * w * z for z, w in zip(ident.series(),
                                                       substitute_series(inverses, err.series(), q)))
        g = corr if g is ident else compose(g, corr)
    else:
        raise InvariantError("inverse iteration failed to converge")
    if h._aut0_known is True:
        # The boundary stabilizer is closed under inversion.
        g._aut0_known = True
    return g


def check_aut0(h: NilAut) -> bool:
    """Does ``h`` fix the boundary word one level deeper than its own level?

    It substitutes the held series M(h(z_j)), known below degree q, into
    M(omega) below degree q+1.  That is M(h~(omega)) below q+1 for any lift
    h~ of h one level up: a lift changes each M(h(z_j)) by some E_j of
    degree >= q, and to first order the product M(h~(omega)) of the letters'
    factors moves by the sum of the E_j weighted by the exponent sums of z_j
    in omega, which are all 0; every other change has degree >= q+1.
    """
    if h._aut0_known is None:
        q = h.level
        boundary = magnus_expand(omega(h.genus), q + 1)
        h._aut0_known = substitute_series([boundary], h.series(), q + 1)[0] == boundary
    return h._aut0_known


def symplectic_form(g: int) -> Matrix:
    j = [[0] * (2 * g) for _ in range(2 * g)]
    for i in range(g):
        j[i][g + i] = 1
        j[g + i][i] = -1
    return j


def symplectic_matrix(h: NilAut) -> Tuple[Matrix, bool]:
    """The abelianization matrix and whether it preserves the standard
    alternating form (rows are images: the check is ``M J M^T = J``)."""
    m = h._abelianization
    j = symplectic_form(h.genus)
    ok = matmul(matmul(m, j), transpose(m)) == j
    return h.abelianization(), ok


def _displacements(h: NilAut) -> List[Dict[Tuple[int, ...], int]]:
    """The terms of M(h(z_i)) - (1 + Z_i) below degree ``level``.  Their
    lowest-degree part is that of the displacement M(h(z_i) z_i^-1) - 1,
    which is (M(h(z_i)) - 1 - Z_i)(1 + Z_i)^-1."""
    out = []
    for i, s in enumerate(h.series()):
        terms = dict(s.terms)
        del terms[()]
        c = terms.pop((i,), 0) - 1
        if c:
            terms[(i,)] = c
        out.append(terms)
    return out


def filtration_degree(h: NilAut) -> int:
    """Largest ``k <= level-1`` with ``h = id`` on the class-``k`` quotient."""
    low = min((len(m) for terms in _displacements(h) for m in terms), default=h.level)
    return low - 1


def johnson_element(h: NilAut, k: int) -> TensorElement:
    """Degree-``k`` obstruction tensor of an automorphism that is trivial on
    the class-``k`` quotient and fixes the boundary word.

    The generator displacements ``d(z) = class of h(z)z^-1 in degree k+1``
    are paired into a tensor by the alternating form (<x_i, y_i> = +1); the
    global sign is frozen so that the x-pushing family ``phi_hat`` maps a
    tuple straight to ``sum_i y_i (x) [lambda_i]``.  The result is checked
    to lie in the contraction kernel (``InvariantError`` otherwise).
    """
    if k < 1:
        raise PreconditionError("johnson_element: k must be at least 1")
    if h.level < k + 2:
        raise PreconditionError("johnson_element: level %d is below k+2 = %d" % (h.level, k + 2))
    if not check_aut0(h):
        raise PreconditionError("johnson_element: check_aut0 fails")
    g = h.genus
    n = 2 * g
    below = "johnson_element: filtration_degree is below k = %d" % k
    displacements = [_leading_class(terms, n, k + 1, below) for terms in _displacements(h)]
    parts: Dict[int, LieElement] = {}
    for i in range(g):
        parts[g + i] = displacements[i]  # y_i (x) d(x_i)
        parts[i] = -displacements[g + i]  # - x_i (x) d(y_i)
    out = tensor_from_components(n, k, parts)
    if not bracket_map(out).is_zero:
        raise InvariantError("obstruction tensor escaped the contraction kernel")
    return out


# ---------------------------------------------------------------------------
# Longitude tuples


_TUPLE_KINDS = {Y_ONLY: Y_ONLY, X_ONLY: X_ONLY}


@dataclass(frozen=True)
class LongitudeTuple:
    """Tuple (lambda_1, ..., lambda_g) over the one-letter alphabet of its
    kind, considered at a nilpotency level: entries matter modulo weight
    ``level`` (the defining conditions below are well defined on classes)."""

    genus: int
    level: int
    kind: str
    entries: Tuple[GroupWord, ...]

    def __post_init__(self):
        if self.kind not in _TUPLE_KINDS:
            raise ValidationError("tuple kind must be 'y' or 'x'")
        if self.level < 2:
            raise ValidationError("tuple level must be at least 2")
        if len(self.entries) != self.genus:
            raise ValidationError("need one entry per strand")
        ab = Alphabet(self.genus, self.kind)
        for w in self.entries:
            if w.alphabet != ab:
                raise ValidationError("entry over the wrong alphabet")

    @property
    def alphabet(self) -> Alphabet:
        return Alphabet(self.genus, self.kind)


def trivial_tuple(g: int, q: int, kind: str = Y_ONLY) -> LongitudeTuple:
    """The tuple whose every entry is the empty word.  Public API, exported
    from ``jfilt``; nothing inside the package needs it."""
    ab = Alphabet(g, kind)
    return LongitudeTuple(g, q, kind, tuple(GroupWord(ab) for _ in range(g)))


def tuples_equal(a: LongitudeTuple, b: LongitudeTuple) -> bool:
    if (a.genus, a.level, a.kind) != (b.genus, b.level, b.kind):
        return False
    return all(nilpotent_equal(u, v, a.level) for u, v in zip(a.entries, b.entries))


def conjugation_action(t: LongitudeTuple, w: GroupWord) -> GroupWord:
    """The substitution ``z_i -> lambda_i^-1 z_i lambda_i`` applied to ``w``."""
    if w.alphabet != t.alphabet:
        raise ValidationError("word over the wrong alphabet")
    ab = t.alphabet
    images = [lam.inverse() * generator(ab, i) * lam for i, lam in enumerate(t.entries)]
    return substitute(w, images)


def strand_product(t: LongitudeTuple) -> GroupWord:
    """z_1 z_2 ... z_g over the tuple's alphabet."""
    ab = t.alphabet
    return GroupWord(ab, tuple((i, 1) for i in range(t.genus)))


def validate_tuple(t: LongitudeTuple, level: Optional[int] = None) -> bool:
    """The product condition: the conjugation action fixes ``z_1...z_g`` one
    level deeper than the tuple's level (condition (ii); condition (i) —
    trivial abelianization — is automatic for conjugation images)."""
    q = t.level if level is None else level
    prod = strand_product(t)
    return nilpotent_equal(conjugation_action(t, prod), prod, q + 1)


def milnor_compose(a: LongitudeTuple, b: LongitudeTuple) -> LongitudeTuple:
    """Product tuple: (ab)_i = a_i * (conjugation action of a applied to b_i)."""
    if (a.genus, a.level, a.kind) != (b.genus, b.level, b.kind):
        raise ValidationError("tuple mismatch")
    entries = tuple(
        a.entries[i] * conjugation_action(a, b.entries[i]) for i in range(a.genus)
    )
    return LongitudeTuple(a.genus, a.level, a.kind, entries)


def _checked_entries(t: LongitudeTuple, q: Optional[int], kind: str,
                     wrong_kind: str) -> Tuple[int, Alphabet, List[GroupWord]]:
    """What ``phi_hat`` and ``psi_hat`` check first: the tuple's kind, then
    the product condition at the output level ``q`` (the tuple's level by
    default).  Returns that level, the full alphabet and the entries
    embedded in it."""
    if t.kind != kind:
        raise ValidationError(wrong_kind)
    q = t.level if q is None else q
    if not validate_tuple(t, q):
        raise ValidationError("tuple fails the product condition at level %d" % q)
    full = Alphabet(t.genus, FULL)
    return q, full, [embed_word(w, full) for w in t.entries]


def phi_hat(t: LongitudeTuple, q: Optional[int] = None) -> NilAut:
    """x-pushing automorphism of a y-kind tuple:
    ``x_i -> x_i lambda_i``, ``y_i -> lambda_i^-1 y_i lambda_i``.

    Requires the product condition at the output level; the boundary-word
    check is then equivalent (the phi-image fixes each ``x_i y_i x_i^-1``
    exactly, so only the ``(y_1...y_g)^-1`` head moves), and is recorded.
    """
    q, full, lams = _checked_entries(t, q, Y_ONLY, "phi_hat needs a y-kind tuple")
    g = t.genus
    images = [generator(full, i) * lams[i] for i in range(g)]
    images += [lams[i].inverse() * generator(full, g + i) * lams[i] for i in range(g)]
    h = NilAut(full, q, images)
    # The boundary-word condition is *exactly* the product condition already
    # verified: the phi-image fixes each x_i y_i x_i^-1 by free reduction, so
    # h(omega) omega^-1-conjugacy reduces to the strand-product comparison,
    # and pure-y words have the same weight over either alphabet.  Tests
    # recompute this honestly on cache-free copies.
    h._aut0_known = True
    return h


def psi_hat(t: LongitudeTuple, q: Optional[int] = None) -> NilAut:
    """Mirror family of an x-kind tuple:
    ``x_i -> mu_i^-1 x_i mu_i``, ``y_i -> mu_i y_i``.

    Requires the product condition on the x-side at the output level, and
    certifies that the induced map on homology preserves the alternating
    form (the x-side product condition forces a symmetric framing block).
    Unlike ``phi_hat``, the result does NOT fix the boundary word beyond
    level 2 in general, so no boundary-word assertion is made here.
    """
    q, full, mus = _checked_entries(t, q, X_ONLY, "psi_hat needs an x-kind tuple")
    g = t.genus
    images = [mus[i].inverse() * generator(full, i) * mus[i] for i in range(g)]
    images += [mus[i] * generator(full, g + i) for i in range(g)]
    h = NilAut(full, q, images)
    _, symplectic_ok = symplectic_matrix(h)
    if not symplectic_ok:
        raise InvariantError("valid x-kind tuple produced a non-symplectic framing")
    return h


def extract_longitudes(h: NilAut, k: int) -> LongitudeTuple:
    """Read the y-projection of each ``h(x_i)`` as a tuple at level ``k+1``."""
    if k < 1:
        raise PreconditionError("extract_longitudes: k must be at least 1")
    if h.level < k + 1:
        raise PreconditionError("extract_longitudes: level below k+1")
    entries = tuple(project_y(h.images[i]) for i in range(h.genus))
    return LongitudeTuple(h.genus, k + 1, Y_ONLY, entries)


# ---------------------------------------------------------------------------
# JSON


def aut_to_json(h: NilAut) -> dict:
    return {
        "g": h.genus,
        "q": h.level,
        "images": {
            h.alphabet.name(i): render_word(h.images[i]) for i in range(h.alphabet.size)
        },
    }


def aut_from_json(data: dict) -> NilAut:
    """Read ``{"g", "q", "images"}``; ``images`` must name each generator of
    genus g once and nothing else."""
    g, q, raw = payload_fields(data, "automorphism", g=int, q=int, images=dict)
    ab = Alphabet(g, FULL)
    for key in raw:
        try:
            known = ab.name(ab.index(key)) == key
        except (TypeError, ValidationError):
            known = False
        if not known:
            raise ValidationError("image key %s names no generator of genus %d" % (excerpt(key), g))
    images = []
    for i in range(ab.size):
        name = ab.name(i)
        if name not in raw:
            raise ValidationError("missing image for %s" % name)
        images.append(parse_word(raw[name], ab))
    return NilAut(ab, q, images)


def tuple_to_json(t: LongitudeTuple) -> dict:
    return {
        "g": t.genus,
        "q": t.level,
        "kind": t.kind,
        "entries": [render_word(w) for w in t.entries],
    }


def tuple_from_json(data: dict) -> LongitudeTuple:
    """Read ``{"g", "q", "entries"}`` and an optional ``kind``;
    ``LongitudeTuple`` checks that there is one entry per strand."""
    g, q, raw = payload_fields(data, "tuple", g=int, q=int, entries=list)
    kind = data.get("kind", Y_ONLY)
    ab = Alphabet(g, kind)
    return LongitudeTuple(g, q, kind, tuple(parse_word(text, ab) for text in raw))


# ---------------------------------------------------------------------------
# Tuple constructions used by tests and the command-line driver


def framing_tuple(g: int, q: int, exponents: Sequence[int], kind: str = Y_ONLY) -> LongitudeTuple:
    """Entries ``z_i^(m_i)``: the conjugation action is trivial, so the tuple
    is valid at every level."""
    ab = Alphabet(g, kind)
    entries = tuple(GroupWord(ab, ((i, exponents[i]),)) if exponents[i] else GroupWord(ab) for i in range(g))
    return LongitudeTuple(g, q, kind, entries)


def full_twist_tuple(g: int, q: int, power: int, kind: str = Y_ONLY) -> LongitudeTuple:
    """All entries ``(z_1...z_g)^power``; fixes the strand product exactly."""
    ab = Alphabet(g, kind)
    base = GroupWord(ab, tuple((i, 1) for i in range(g))) ** power
    return LongitudeTuple(g, q, kind, tuple(base for _ in range(g)))


@lru_cache(maxsize=None)
def _kernel_basis(g: int, k: int) -> Tuple[TensorElement, ...]:
    # One ``dk_basis`` call per (g, k) serves every lift; ``dk_basis`` stays uncached.
    return tuple(dk_basis(g, k))


def kernel_lift_tuple(
    g: int,
    k: int,
    coefficients: Sequence[int],
    kind: str = Y_ONLY,
) -> LongitudeTuple:
    """Tuple with entries of weight ``k+1`` realizing a contraction-kernel
    class: pick an integer combination of the level-``k`` kernel basis and
    lift each strand's Lie component to a commutator word.

    Such tuples satisfy the product condition at level ``k+2`` exactly
    because the obstruction of the product condition in degree ``k+2`` is the
    image of ``sum_i z_i (x) [entry_i]`` under the bracket contraction, which
    vanishes by construction.
    """
    basis = _kernel_basis(g, k)
    if len(coefficients) != len(basis):
        raise ValidationError("need one coefficient per kernel basis element")
    elem = TensorElement(g, k, {})
    for c, b in zip(coefficients, basis):
        if c:
            elem = elem + b.scale(c)
    ab = Alphabet(g, kind)
    entries = tuple(lift_lie_element(elem.component(i), ab) for i in range(g))
    return LongitudeTuple(g, k + 2, kind, entries)


def random_kernel_tuple(rng, g: int, k: int, kind: str = Y_ONLY, noise: bool = True) -> LongitudeTuple:
    """Seeded random valid tuple with entries in weight ``k+1``, optionally
    multiplied by weight-``k+2`` commutator noise (which changes neither the
    validity level nor the degree-``k+1`` classes)."""
    coeffs = [rng.randint(-2, 2) for _ in range(dk_rank(g, k))]
    t = kernel_lift_tuple(g, k, coeffs, kind)
    if not noise:
        return t
    ab = t.alphabet
    deep = hall_basis(g, k + 2).words
    entries = []
    for w in t.entries:
        extra = GroupWord(ab)
        if deep and rng.random() < 0.5:
            sign = rng.choice((-1, 1))  # drawn before the word, as always
            elem = LieElement(g, k + 2, {deep[rng.randrange(len(deep))]: sign})
            extra = lift_lie_element(elem, ab)
        entries.append(w * extra)
    return LongitudeTuple(t.genus, t.level, t.kind, tuple(entries))
