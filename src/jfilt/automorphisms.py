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
from typing import Dict, List, Optional, Sequence, Tuple

from .brackets import TensorElement, bracket_map, tensor_from_components
from .errors import InvariantError, PreconditionError, ValidationError
from .lie import LieElement, tensor_to_lyndon
from .snf import Matrix, invariant_factors, matmul, smith_normal_form, transpose
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
)

class NilAut:
    """Automorphism of the free class-``(q-1)`` nilpotent quotient, genus g."""

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
        self.alphabet = alphabet
        self.level = int(level)
        self.images = tuple(images)
        matrix = [list(w.abelianization()) for w in self.images]
        if invariant_factors(matrix) != [1] * len(matrix):
            raise ValidationError("abelianization is not invertible over the integers")
        self._abelianization = matrix
        # Memo for check_aut0 at this level; populated by constructions that
        # have already established the answer by an exactly equivalent test.
        self._aut0_known: Optional[bool] = None

    @property
    def genus(self) -> int:
        return self.alphabet.genus

    def abelianization(self) -> Matrix:
        """Rows are the exponent vectors of the generator images."""
        return [list(row) for row in self._abelianization]

    def apply(self, w: GroupWord) -> GroupWord:
        if w.alphabet != self.alphabet:
            raise ValidationError("word over the wrong alphabet")
        return substitute(w, self.images)

    def __eq__(self, other) -> bool:
        if not isinstance(other, NilAut):
            return NotImplemented
        if self.alphabet != other.alphabet or self.level != other.level:
            return False
        return all(
            nilpotent_equal(a, b, self.level) for a, b in zip(self.images, other.images)
        )

    __hash__ = None  # semantic equality is coarser than the stored words

    def __repr__(self) -> str:
        return "NilAut(g=%d, q=%d)" % (self.genus, self.level)


def identity_aut(g: int, q: int) -> NilAut:
    ab = Alphabet(g, FULL)
    h = NilAut(ab, q, [generator(ab, i) for i in range(ab.size)])
    h._aut0_known = True
    return h


def is_identity(h: NilAut) -> bool:
    """Whether ``h`` is the identity at its own level.  Public API, exported
    from ``jfilt``; nothing inside the package needs it."""
    return h == identity_aut(h.genus, h.level)


def compose(h1: NilAut, h2: NilAut) -> NilAut:
    """``z -> h1(h2(z))``: h1 applies last, an order every formula
    downstream assumes."""
    if h1.alphabet != h2.alphabet:
        raise ValidationError("alphabet mismatch")
    if h1.level != h2.level:
        raise ValidationError("level mismatch")
    out = NilAut(h1.alphabet, h1.level, [h1.apply(w) for w in h2.images])
    if h1._aut0_known is True and h2._aut0_known is True:
        # The boundary stabilizer is closed under composition.
        out._aut0_known = True
    return out


def reduce_level(h: NilAut, q: int) -> NilAut:
    if q > h.level:
        raise ValidationError("cannot raise the level")
    out = NilAut(h.alphabet, q, h.images)
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
    """
    ab = h.alphabet
    dec = smith_normal_form(h._abelianization)
    inverse_matrix = matmul(dec.V, dec.U)  # U A V = I, so A^-1 = V U
    images = []
    for i in range(ab.size):
        letters = []
        for j, e in enumerate(inverse_matrix[i]):
            if e:
                letters.append((j, e))
        images.append(GroupWord(ab, tuple(letters)))
    g = NilAut(ab, h.level, images)
    ident = identity_aut(h.genus, h.level)
    for _ in range(h.level):
        err = compose(h, g)
        if err == ident:
            break
        corr_images = []
        for i in range(ab.size):
            z = generator(ab, i)
            w_z = z.inverse() * err.images[i]
            corr_images.append(z * w_z.inverse())
        g = compose(g, NilAut(ab, h.level, corr_images))
    else:
        raise InvariantError("inverse iteration failed to converge")
    if h._aut0_known is True:
        # The boundary stabilizer is closed under inversion.
        g._aut0_known = True
    return g


def check_aut0(h: NilAut) -> bool:
    """Does ``h`` fix the boundary word one level deeper than its own level?

    The answer is independent of the choice of generator-image lifts because
    every generator has total exponent zero in the boundary word, so changing
    images by weight-``q`` words moves ``h(omega)`` by weight ``q+1`` only.
    """
    if h._aut0_known is None:
        w = omega(h.genus)
        h._aut0_known = nilpotent_equal(h.apply(w), w, h.level + 1)
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


def _displacement(h: NilAut, i: int, q: int) -> TruncatedSeries:
    """The expansion of ``h(z_i) z_i^-1`` truncated below degree ``q``, as the
    product of the two expansions, so ``h(z_i)`` keeps its substitution
    record and the product word is never built."""
    return magnus_expand(h.images[i], q) * magnus_expand(generator(h.alphabet, i).inverse(), q)


def filtration_degree(h: NilAut) -> int:
    """Largest ``k <= level-1`` with ``h = id`` on the class-``k`` quotient."""
    best = h.level - 1
    for i in range(h.alphabet.size):
        low = _displacement(h, i, h.level).lowest_positive_degree()
        if low is not None:
            best = min(best, low - 1)
        if best == 0:
            break
    return best


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
    displacements: List[LieElement] = []
    for i in range(n):
        series = _displacement(h, i, k + 2)
        low = series.lowest_positive_degree()
        if low is not None and low <= k:
            raise PreconditionError(
                "johnson_element: filtration_degree is below k = %d" % k
            )
        displacements.append(tensor_to_lyndon(series.homogeneous(k + 1), n, k + 1))
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


def phi_hat(t: LongitudeTuple, q: Optional[int] = None) -> NilAut:
    """x-pushing automorphism of a y-kind tuple:
    ``x_i -> x_i lambda_i``, ``y_i -> lambda_i^-1 y_i lambda_i``.

    Requires the product condition at the output level; the boundary-word
    check is then equivalent (the phi-image fixes each ``x_i y_i x_i^-1``
    exactly, so only the ``(y_1...y_g)^-1`` head moves), and is recorded.
    """
    if t.kind != Y_ONLY:
        raise ValidationError("phi_hat needs a y-kind tuple")
    q = t.level if q is None else q
    if not validate_tuple(t, q):
        raise ValidationError("tuple fails the product condition at level %d" % q)
    g = t.genus
    full = Alphabet(g, FULL)
    lams = [embed_word(w, full) for w in t.entries]
    images = []
    for i in range(g):
        images.append(generator(full, i) * lams[i])
    for i in range(g):
        images.append(lams[i].inverse() * generator(full, g + i) * lams[i])
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
    if t.kind != X_ONLY:
        raise ValidationError("psi_hat needs an x-kind tuple")
    q = t.level if q is None else q
    if not validate_tuple(t, q):
        raise ValidationError("tuple fails the product condition at level %d" % q)
    g = t.genus
    full = Alphabet(g, FULL)
    mus = [embed_word(w, full) for w in t.entries]
    images = []
    for i in range(g):
        images.append(mus[i].inverse() * generator(full, i) * mus[i])
    for i in range(g):
        images.append(mus[i] * generator(full, g + i))
    h = NilAut(full, q, images)
    _, symplectic_ok = symplectic_matrix(h)
    if not symplectic_ok:
        raise InvariantError("valid x-kind tuple produced a non-symplectic framing")
    return h


def extract_longitudes(h: NilAut, k: int) -> LongitudeTuple:
    """Read the y-projection of each ``h(x_i)`` as a tuple at level ``k+1``."""
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
    try:
        g = int(data["g"])
        q = int(data["q"])
        raw = data["images"]
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ValidationError("bad automorphism payload: %s" % (exc,))
    if not isinstance(raw, dict):
        raise ValidationError("bad automorphism payload: images must be an object")
    ab = Alphabet(g, FULL)
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
    try:
        g = int(data["g"])
        q = int(data["q"])
        kind = data.get("kind", Y_ONLY)
        raw = data["entries"]
        if len(raw) != g:
            raise ValidationError("need exactly g entries")
        ab = Alphabet(g, kind)
        entries = tuple(parse_word(text, ab) for text in raw)
    except ValidationError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise ValidationError("bad tuple payload: %s" % (exc,))
    return LongitudeTuple(g, q, kind, entries)


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
    from .brackets import dk_basis
    from .lie import lift_lie_element

    basis = dk_basis(g, k)
    if len(coefficients) != len(basis):
        raise ValidationError("need one coefficient per kernel basis element")
    elem = TensorElement.zero(g, k)
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
    from .brackets import dk_rank
    from .lie import hall_basis, lift_lie_element

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
            coords = [0] * len(deep)
            coords[rng.randrange(len(deep))] = rng.choice((-1, 1))
            elem = LieElement(g, k + 2, tuple(coords))
            extra = lift_lie_element(elem, ab)
        entries.append(w * extra)
    return LongitudeTuple(t.genus, t.level, t.kind, tuple(entries))
