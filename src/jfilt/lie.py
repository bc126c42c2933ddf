"""Free Lie algebras over the integers in the Lyndon word basis.

Degree-k basis elements are Lyndon words of length k over the ordered
generators 0 < 1 < ... < n-1; a word brackets recursively through its
standard factorization (the lexicographically least proper suffix is the
right factor).  Brackets are computed on Lyndon words directly, from
memoized structure constants ``lyndon_bracket`` rewritten through the
standard factorization with the Jacobi identity; no tensor is built.

A Hall basis is the Lyndon words of one degree plus a check of their Witt
count.  The tensor algebra serves only to read back Magnus series, and only
the expansions a read-back meets are built.  Expanding a basis element
yields the word itself plus lexicographically larger monomials, checked as
each expansion is built, so conversion from a tensor to basis coordinates
is a triangular elimination and doubles as an exact membership test for
the Lie subspace.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, replace
from functools import lru_cache
from math import factorial, gcd
from typing import Dict, List, Tuple

from .errors import InvariantError, PreconditionError, ValidationError
from .words import Alphabet, GroupWord, magnus_expand

Monomial = Tuple[int, ...]
Tensor = Dict[Monomial, int]


def _mobius(n: int) -> int:
    if n == 1:
        return 1
    result = 1
    p = 2
    while p * p <= n:
        if n % p == 0:
            n //= p
            if n % p == 0:
                return 0
            result = -result
        else:
            p += 1
    if n > 1:
        result = -result
    return result


@lru_cache(maxsize=None)
def witt_dimension(n: int, k: int) -> int:
    """Rank of the degree-k part of the free Lie ring on n generators:
    (1/k) * sum over d | k of mobius(d) * n^(k/d)."""
    if n < 1 or k < 1:
        raise ValidationError("witt_dimension needs n >= 1 and k >= 1")
    total = sum(_mobius(d) * n ** (k // d) for d in range(1, k + 1) if k % d == 0)
    if total % k != 0:
        raise InvariantError("Witt sum %d is not divisible by k = %d" % (total, k))
    return total // k


@lru_cache(maxsize=None)
def lyndon_words(n: int, k: int) -> Tuple[Monomial, ...]:
    """All Lyndon words of length exactly k over n letters, in lexicographic
    order (Duval's generation)."""
    if n < 1 or k < 1:
        raise ValidationError("lyndon_words needs n >= 1 and k >= 1")
    out: List[Monomial] = []
    w = [-1]
    while w:
        w[-1] += 1
        if len(w) == k:
            out.append(tuple(w))
        m = len(w)
        while len(w) < k:
            w.append(w[len(w) - m])
        while w and w[-1] == n - 1:
            w.pop()
    return tuple(out)


def standard_factorization(w: Monomial) -> Tuple[Monomial, Monomial]:
    if len(w) < 2:
        raise ValidationError("only words of length >= 2 factor")
    v = min(w[i:] for i in range(1, len(w)))
    return w[: len(w) - len(v)], v


Words = Dict[Monomial, int]


@lru_cache(maxsize=None)
def lyndon_bracket(u: Monomial, v: Monomial) -> Tuple[Tuple[Monomial, int], ...]:
    """Structure constants of ``[P_u, P_v]`` for Lyndon words u and v, as
    sorted (Lyndon word, nonzero coefficient) pairs.

    For u < v the word uv is Lyndon, and (u, v) is its standard
    factorization exactly when u is a letter or u = (u', u'') with u'' >= v;
    then the bracket is P_uv.  Otherwise Jacobi rewrites it as
    [u', [u'', v]] - [u'', [u', v]], whose inner brackets are smaller
    (Reutenauer, *Free Lie Algebras*, 1993, ch. 4-5).  The inputs are not
    checked: they must be Lyndon words.
    """
    if u == v:
        return ()
    if u > v:
        return tuple((w, -c) for w, c in lyndon_bracket(v, u))
    if len(u) == 1:
        return ((u + v, 1),)
    left, right = standard_factorization(u)
    if right >= v:
        return ((u + v, 1),)
    out: Words = {}
    for outer, inner, sign in ((left, right, 1), (right, left, -1)):
        for w, c in lyndon_bracket(inner, v):
            for x, d in lyndon_bracket(outer, w):
                out[x] = out.get(x, 0) + sign * c * d
    return tuple(sorted((w, c) for w, c in out.items() if c))


def bracket_words(x: Words, y: Words) -> Words:
    """``[x, y]`` for dicts from Lyndon word to coefficient."""
    out: Words = {}
    for u, cu in x.items():
        for v, cv in y.items():
            c = cu * cv
            for w, cw in lyndon_bracket(u, v):
                val = out.get(w, 0) + c * cw
                if val:
                    out[w] = val
                elif w in out:
                    del out[w]
    return out


def tensor_bracket(left: Tensor, right: Tensor) -> Tensor:
    """``left*right - right*left`` in the tensor algebra."""
    out: Tensor = {}
    for mu, cu in left.items():
        for mv, cv in right.items():
            c = cu * cv
            for key, term in ((mu + mv, c), (mv + mu, -c)):
                val = out.get(key, 0) + term
                if val:
                    out[key] = val
                elif key in out:
                    del out[key]
    return out


@lru_cache(maxsize=None)
def _expand(w: Monomial) -> Tuple[Tuple[Monomial, int], ...]:
    # Tensor algebra expansion of the standard bracketing of a Lyndon word,
    # sorted.  Unitriangular: the word itself first, with coefficient 1.
    if len(w) == 1:
        return ((w, 1),)
    u, v = standard_factorization(w)
    out = tuple(sorted(tensor_bracket(basis_expansion(u), basis_expansion(v)).items()))
    if not out or out[0] != (w, 1):
        raise InvariantError("expansion of Lyndon word %r is not unitriangular" % (w,))
    return out


def basis_expansion(w: Monomial) -> Tensor:
    return dict(_expand(w))


@dataclass(frozen=True)
class HallBasis:
    n: int
    degree: int
    words: Tuple[Monomial, ...]

    def index(self, w: Monomial) -> int:
        return _basis_index(self.n, self.degree)[w]


@lru_cache(maxsize=None)
def hall_basis(n: int, degree: int) -> HallBasis:
    words = lyndon_words(n, degree)
    if len(words) != witt_dimension(n, degree):
        raise InvariantError("Lyndon word count differs from the Witt dimension")
    return HallBasis(n, degree, words)


@lru_cache(maxsize=None)
def _basis_index(n: int, degree: int) -> Dict[Monomial, int]:
    return {w: i for i, w in enumerate(hall_basis(n, degree).words)}


Content = Tuple[int, ...]


@lru_cache(maxsize=None)
def witt_content_dimension(content: Content) -> int:
    """Number of Lyndon words with letter content ``content`` (letter ``i``
    used ``content[i]`` times), by the multigraded Witt formula
    (1/d) * sum over e | gcd(content) of mobius(e) * (d/e)! / prod (c/e)!,
    where d is the length (Reutenauer, *Free Lie Algebras*, 1993, ch. 7)."""
    if not content or min(content) < 0 or not sum(content):
        raise ValidationError("a content needs nonnegative multiplicities of positive sum")
    d = sum(content)
    common = gcd(*content)
    total = 0
    for e in range(1, common + 1):
        if common % e == 0:
            ways = factorial(d // e)
            for c in content:
                ways //= factorial(c // e)
            total += _mobius(e) * ways
    if total % d != 0:
        raise InvariantError("multigraded Witt sum %d is not divisible by d = %d" % (total, d))
    return total // d


@lru_cache(maxsize=None)
def lyndon_words_with_content(n: int, degree: int) -> Dict[Content, Tuple[Monomial, ...]]:
    """The Lyndon words of one degree over ``n`` letters grouped by content
    (the tuple of ``n`` letter multiplicities), each group in the basis
    order.  Each group's size is checked against the multigraded Witt
    formula, as ``hall_basis`` checks their total; a content with no Lyndon
    word has no group."""
    groups: Dict[Content, List[Monomial]] = {}
    for w in hall_basis(n, degree).words:
        content = [0] * n
        for letter in w:
            content[letter] += 1
        groups.setdefault(tuple(content), []).append(w)
    for content, words in groups.items():
        if len(words) != witt_content_dimension(content):
            raise InvariantError("Lyndon words of content %r differ from their Witt count" % (content,))
    return {content: tuple(words) for content, words in groups.items()}


class SparseElement:
    """What ``LieElement`` and ``TensorElement`` share: an element is its
    shape ``(n, grade)`` and ``terms``, a dict from basis key to nonzero int
    that no one mutates once the element holds it.  Equal elements compare
    and hash equal whatever order their terms were built in, and the repr
    lists the terms sorted, so it is canonical too."""

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._shape() == other._shape() and self.terms == other.terms

    def __hash__(self):
        return hash((self._shape(), frozenset(self.terms.items())))

    def __repr__(self):
        terms = ", ".join("%r: %r" % item for item in sorted(self.terms.items()))
        return "%s(%d, %d, {%s})" % (type(self).__name__, *self._shape(), terms)

    def __add__(self, other):
        if type(other) is not type(self) or self._shape() != other._shape():
            raise ValidationError("mixed ranks or degrees")
        out = dict(self.terms)
        for key, c in other.terms.items():
            out[key] = out.get(key, 0) + c
        return replace(self, terms={key: c for key, c in out.items() if c})

    def __sub__(self, other):
        return self + -other

    def __neg__(self):
        return self.scale(-1)

    def scale(self, c: int):
        return replace(self, terms={key: c * x for key, x in self.terms.items()} if c else {})


def _terms_index(terms, n: int, degree: int) -> Dict[Monomial, int]:
    # Checks that ``terms`` is a dict and returns the Lyndon index of the
    # degree, against which the caller checks each key and coefficient.
    if not isinstance(terms, dict):
        raise ValidationError("terms must be a dict from basis key to nonzero int")
    if terms:
        return _basis_index(n, degree)  # refuses n or degree below 1
    witt_dimension(n, degree)
    return {}


@dataclass(frozen=True, eq=False, repr=False)
class LieElement(SparseElement):
    """Degree-``degree`` element over ``n`` generators: Lyndon word ->
    nonzero coefficient.  ``coords`` is its dense view over the Lyndon
    basis, for output only."""

    n: int
    degree: int
    terms: Words

    def __post_init__(self):
        index = _terms_index(self.terms, self.n, self.degree)
        if not (self.terms.keys() <= index.keys() and all(self.terms.values())):
            raise ValidationError("terms hold a word outside the basis or a zero coefficient")

    def _shape(self) -> Tuple[int, int]:
        return self.n, self.degree

    @property
    def coords(self) -> Tuple[int, ...]:
        return tuple(self.terms.get(w, 0) for w in hall_basis(self.n, self.degree).words)


def generator_element(n: int, index: int) -> LieElement:
    if not 0 <= index < n:
        raise ValidationError("generator index out of range")
    return LieElement(n, 1, {(index,): 1})


def lyndon_coords(tensor: Tensor, n: int, degree: int) -> Words:
    """Triangular change of basis, sparse: Lyndon word -> nonzero coefficient.

    Walks only the monomials the tensor holds and those its subtractions
    bring in, least first.  The least one left must be a Lyndon word w,
    whose coefficient is final because every other monomial of w's expansion
    is larger; subtracting that expansion moves on.  Raises if the tensor is
    not a Lie element.  The monomials are not checked for length and letter
    range: callers whose tensors do not come from validated Lie data use
    ``tensor_to_lyndon``.
    """
    index = _basis_index(n, degree)
    # Cancelled monomials stay in ``work`` at 0, so each is pushed only once.
    work = {m: c for m, c in tensor.items() if c}
    heap = list(work)
    heapq.heapify(heap)
    coords: Words = {}
    while heap:
        w = heapq.heappop(heap)
        c = work[w]
        if not c:
            continue
        if w not in index:
            raise ValidationError("tensor is not a Lie element")
        coords[w] = c
        for m, cm in _expand(w)[1:]:
            if m in work:
                work[m] -= c * cm
            else:
                work[m] = -c * cm
                heapq.heappush(heap, m)
    return coords


def tensor_to_lyndon(tensor: Tensor, n: int, degree: int) -> LieElement:
    """Lyndon coordinates of a homogeneous tensor (see ``lyndon_coords``).
    Raises if the tensor does not lie in the span of the bracketed basis,
    i.e. is not a Lie element."""
    for m, c in tensor.items():
        if c and (len(m) != degree or not all(0 <= letter < n for letter in m)):
            raise ValidationError("tensor monomials must be homogeneous over the n letters")
    return LieElement(n, degree, lyndon_coords(tensor, n, degree))


def lie_bracket(u: LieElement, v: LieElement) -> LieElement:
    if u.n != v.n:
        raise ValidationError("mixed ranks")
    return LieElement(u.n, u.degree + v.degree, bracket_words(u.terms, v.terms))


def _leading_class(terms: Tensor, n: int, degree: int, below: str) -> LieElement:
    """Lyndon coordinates of the degree-``degree`` part of a Magnus series
    or displacement over ``n`` letters, its class in that graded piece;
    ``PreconditionError(below)`` if a term of positive degree lies lower."""
    if any(0 < len(m) < degree for m in terms):
        raise PreconditionError(below)
    return tensor_to_lyndon({m: c for m, c in terms.items() if len(m) == degree}, n, degree)


def graded_class(w: GroupWord, k: int) -> LieElement:
    """Class of a weight >= k word in the degree-k graded piece of the lower
    central series, read off from the degree-k Magnus part."""
    if k < 1:
        raise ValidationError("degree must be at least 1")
    below = "graded_class: word weight is below k = %d" % k
    return _leading_class(magnus_expand(w, k + 1).terms, w.alphabet.size, k, below)


def lie_map(matrix, elem: LieElement, n_target: int) -> LieElement:
    """Functorial action of a linear substitution on a Lie element.  Column j
    of `matrix` (n_target rows, elem.n columns) gives the image of source
    generator j as a vector of target generators.  The image of P_w is the
    bracket of the images of its standard factors, each computed once."""
    images: Dict[Monomial, Words] = {}

    def image(w: Monomial) -> Words:
        if w not in images:
            if len(w) == 1:
                images[w] = {(i,): matrix[i][w[0]] for i in range(n_target) if matrix[i][w[0]]}
            else:
                u, v = standard_factorization(w)
                images[w] = bracket_words(image(u), image(v))
        return images[w]

    out: Words = {}
    for w, c in elem.terms.items():
        for x, d in image(w).items():
            out[x] = out.get(x, 0) + c * d
    return LieElement(n_target, elem.degree, {x: c for x, c in out.items() if c})


def group_bracketing(w: Monomial, alphabet: Alphabet) -> GroupWord:
    """Group commutator word with the same bracketing shape as the standard
    factorization of w.  Its graded class in degree len(w) is the basis
    element of w."""
    from .words import commutator, generator

    if len(w) == 1:
        return generator(alphabet, w[0])
    u, v = standard_factorization(w)
    return commutator(group_bracketing(u, alphabet), group_bracketing(v, alphabet))


def lift_lie_element(elem: LieElement, alphabet: Alphabet) -> GroupWord:
    """A word of weight >= elem.degree whose graded class is elem: the product
    of bracketing words raised to the coordinate exponents."""
    if alphabet.size != elem.n:
        raise ValidationError("alphabet size must match the Lie rank")
    letters = []
    # Sorted words are the basis order, so the word does not depend on the
    # order the terms were built in.
    for w, c in sorted(elem.terms.items()):
        letters += (group_bracketing(w, alphabet) ** c).letters
    return GroupWord(alphabet, tuple(letters))
