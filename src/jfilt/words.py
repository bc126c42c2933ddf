"""Free group words and truncated Magnus expansions with exact integer
coefficients.

Words live over one of three alphabets on a fixed genus g: the full alphabet
x1 < ... < xg < y1 < ... < yg, or the single-letter alphabets y1 < ... < yg
and x1 < ... < xg.  A word is a reduced sequence of (generator, exponent)
letters.  The Magnus expansion sends a generator z to 1 + Z in the ring of
noncommutative integer power series truncated below a degree cutoff q; it is
injective on the quotient by the q-th lower central series subgroup, which is
what makes nilpotent_equal and lcs_weight exact.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import lru_cache
from typing import Dict, Iterable, List, Sequence, Tuple

from .errors import PreconditionError, ValidationError, excerpt

FULL = "full"
Y_ONLY = "y"
X_ONLY = "x"

_KINDS = (FULL, Y_ONLY, X_ONLY)


@dataclass(frozen=True)
class Alphabet:
    genus: int
    kind: str = FULL

    def __post_init__(self):
        if self.genus < 1:
            raise ValidationError("genus must be at least 1")
        if self.kind not in _KINDS:
            raise ValidationError("unknown alphabet kind %r" % (self.kind,))

    @property
    def size(self) -> int:
        return 2 * self.genus if self.kind == FULL else self.genus

    def name(self, index: int) -> str:
        if not 0 <= index < self.size:
            raise ValidationError("generator index out of range")
        if self.kind == FULL:
            if index < self.genus:
                return "x%d" % (index + 1)
            return "y%d" % (index - self.genus + 1)
        letter = "y" if self.kind == Y_ONLY else "x"
        return "%s%d" % (letter, index + 1)

    def index(self, name: str) -> int:
        m = _GENERATOR.fullmatch(name)
        if not m:
            raise ValidationError("bad generator name %s" % (excerpt(name),))
        # A number with more digits than the genus is out of range, and may
        # be too long for int() to convert.
        letter, digits = m.group(1), m.group(2).lstrip("0")
        num = int(digits) if 0 < len(digits) <= len(str(self.genus)) else 0
        if not 1 <= num <= self.genus:
            raise ValidationError("generator %s out of range for genus %d" % (excerpt(name), self.genus))
        if self.kind == FULL:
            return num - 1 if letter == "x" else self.genus + num - 1
        if (self.kind == Y_ONLY) != (letter == "y"):
            raise ValidationError("generator %s not in this alphabet" % (excerpt(name),))
        return num - 1


Letter = Tuple[int, int]


def _reduce_letters(letters: Iterable[Letter]) -> Tuple[Letter, ...]:
    held: List[Letter] = []
    for gen, exp in letters:
        if not exp:
            continue
        if held and held[-1][0] == gen:
            exp += held[-1][1]
            if exp:
                held[-1] = (gen, exp)
            else:
                held.pop()
        else:
            held.append((gen, exp))
    return tuple(held)


def _inverse_letters(letters: Sequence[Letter]) -> Tuple[Letter, ...]:
    return tuple([(g, -e) for g, e in reversed(letters)])


# Most letters a word may hold once a power, a commutator or a substitution is
# built into it.  Each can multiply the length of a short input:
# (x1 y1)^100000000 is 20 bytes, and composing a few small automorphisms
# multiplies their image lengths.  A literal word is not capped, since it
# costs its own input size.
MAX_WORD_LETTERS = 10**6


def _check_room(held: int, size: int) -> None:
    if held + size > MAX_WORD_LETTERS:
        raise ValidationError(
            "word would exceed %d letters (%d built, %d more requested)"
            % (MAX_WORD_LETTERS, held, size)
        )


def _power_letters(letters: Tuple[Letter, ...], n: int, held: int = 0) -> Tuple[Letter, ...]:
    """Reduced letters of w^n for the reduced letters of w; the result with
    ``held`` letters already built must fit MAX_WORD_LETTERS.

    Splits w as c r c^-1 with r's first and last letters not inverse, so
    that the copies of r meet without cancelling: at most they merge, when
    r starts and ends on the same generator (x^2 y x^-1), and then every
    inner seam is that one merged letter.  A one-letter r takes its n-th
    power as one letter, so x^n costs nothing per unit of n and is never
    refused.
    """
    if n == 0 or not letters:
        return ()
    if n < 0:
        letters, n = _inverse_letters(letters), -n
    k = 0
    while 2 * k + 1 < len(letters) and letters[k] == (letters[-1 - k][0], -letters[-1 - k][1]):
        k += 1
    core = letters[k : len(letters) - k]
    if len(core) == 1:
        middle = ((core[0][0], core[0][1] * n),)
    else:
        _check_room(held, len(core) * n)
        (first, a), (last, b) = core[0], core[-1]
        if first == last:
            # a + b != 0, or the loop above would have taken this pair.
            middle = core[:1] + (core[1:-1] + ((first, a + b),)) * (n - 1) + core[1:]
        else:
            middle = core * n
    return letters[:k] + middle + letters[len(letters) - k :]


def _join(held: List[Letter], piece: Sequence[Letter]) -> None:
    """Append the reduced letters ``piece`` to the reduced list ``held``,
    which stays reduced: only the letters at the seam can cancel or merge."""
    i = 0
    while held and i < len(piece):
        gen, exp = piece[i]
        last, total = held[-1]
        if last != gen:
            break
        total += exp
        i += 1
        if total:
            held[-1] = (gen, total)
            break
        held.pop()
    held.extend(piece[i:] if i else piece)


@dataclass(frozen=True)
class GroupWord:
    """A reduced word.  Construction merges adjacent letters on the same
    generator and drops zero exponents, so equal group elements built from
    letter sequences that only differ by free cancellation compare equal.

    Products, inverses, powers and substitutions join pieces that are
    already reduced and in range, so they cancel only at the seams and
    build their result with ``_reduced``, which checks nothing."""

    alphabet: Alphabet
    letters: Tuple[Letter, ...] = ()

    def __post_init__(self):
        size = self.alphabet.size
        for gen, exp in self.letters:
            if not 0 <= gen < size:
                raise ValidationError("letter index %d out of range" % (gen,))
            if not isinstance(exp, int):
                raise ValidationError("exponent must be an integer")
        object.__setattr__(self, "letters", _reduce_letters(self.letters))

    @classmethod
    def _reduced(cls, alphabet: Alphabet, letters: Tuple[Letter, ...]) -> "GroupWord":
        """The word of letters known to be reduced and in range."""
        w = object.__new__(cls)
        object.__setattr__(w, "alphabet", alphabet)
        object.__setattr__(w, "letters", letters)
        return w

    def __mul__(self, other: "GroupWord") -> "GroupWord":
        if self.alphabet != other.alphabet:
            raise ValidationError("alphabet mismatch")
        held = list(self.letters)
        _join(held, other.letters)
        return GroupWord._reduced(self.alphabet, tuple(held))

    def inverse(self) -> "GroupWord":
        return GroupWord._reduced(self.alphabet, _inverse_letters(self.letters))

    def __pow__(self, n: int) -> "GroupWord":
        if not isinstance(n, int):
            raise ValidationError("exponent must be an integer")
        return GroupWord._reduced(self.alphabet, _power_letters(self.letters, n))

    @property
    def is_empty(self) -> bool:
        return not self.letters

    def abelianization(self) -> Tuple[int, ...]:
        vec = [0] * self.alphabet.size
        for gen, exp in self.letters:
            vec[gen] += exp
        return tuple(vec)


def substitute(w: GroupWord, images: Sequence[GroupWord]) -> GroupWord:
    """The word w with generator i replaced by ``images[i]``, which must be
    words over w's alphabet.  Each image, its inverse or its power joins the
    letters built so far at one seam.  A piece is refused before it is built
    if it would take the word past MAX_WORD_LETTERS."""
    alphabet = w.alphabet
    if len(images) != alphabet.size:
        raise ValidationError("need one image per generator")
    for image in images:
        if image.alphabet != alphabet:
            raise ValidationError("image over the wrong alphabet")
    held: List[Letter] = []
    for gen, exp in w.letters:
        image = images[gen].letters
        if exp == 1 or exp == -1:
            _check_room(len(held), len(image))
            _join(held, image if exp == 1 else _inverse_letters(image))
        else:
            _join(held, _power_letters(image, exp, held=len(held)))
    return GroupWord._reduced(alphabet, tuple(held))


def word(alphabet: Alphabet, *letters: Letter) -> GroupWord:
    return GroupWord(alphabet, tuple(letters))


def generator(alphabet: Alphabet, index: int) -> GroupWord:
    return GroupWord(alphabet, ((index, 1),))


def commutator(u: GroupWord, v: GroupWord) -> GroupWord:
    """[u, v] = u v u^-1 v^-1."""
    return u * v * u.inverse() * v.inverse()


def omega(g: int) -> GroupWord:
    """The boundary word (y1 ... yg)^-1 (x1 y1 x1^-1 ... xg yg xg^-1) on the
    full alphabet of genus g.  Every generator has total exponent zero."""
    letters = [(g + i, -1) for i in reversed(range(g))]
    for i in range(g):
        letters += [(i, 1), (g + i, 1), (i, -1)]
    return GroupWord(Alphabet(g, FULL), tuple(letters))


def embed_word(w: GroupWord, full: Alphabet) -> GroupWord:
    """Include a word over any alphabet of the same genus into its full
    alphabet.  y-generators of a one-letter alphabet shift up by g; every
    other generator keeps its index."""
    if full.kind != FULL or w.alphabet.genus != full.genus:
        raise ValidationError("embedding requires the full alphabet of the same genus")
    shift = full.genus if w.alphabet.kind == Y_ONLY else 0
    return GroupWord(full, tuple((g + shift, e) for g, e in w.letters))


def project_y(w: GroupWord) -> GroupWord:
    """Letterwise projection of a full-alphabet word that kills every
    x-generator and keeps the y-generators."""
    if w.alphabet.kind != FULL:
        raise ValidationError("projection expects a full-alphabet word")
    g = w.alphabet.genus
    target = Alphabet(g, Y_ONLY)
    return GroupWord(target, tuple((gen - g, e) for gen, e in w.letters if gen >= g))


class TruncatedSeries:
    """Noncommutative integer power series truncated below degree `cutoff`.
    Terms map monomials (tuples of generator indices) to nonzero integers."""

    __slots__ = ("alphabet", "cutoff", "terms")

    def __init__(self, alphabet: Alphabet, cutoff: int, terms: Dict[Tuple[int, ...], int] = None):
        if cutoff < 1:
            raise ValidationError("cutoff must be at least 1")
        self.alphabet = alphabet
        self.cutoff = cutoff
        self.terms = {m: c for m, c in (terms or {}).items() if c != 0 and len(m) < cutoff}

    def _check(self, other: "TruncatedSeries"):
        if self.alphabet != other.alphabet or self.cutoff != other.cutoff:
            raise ValidationError("series alphabet or cutoff mismatch")

    def __mul__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        self._check(other)
        q = self.cutoff
        out: Dict[Tuple[int, ...], int] = {}
        for m1, c1 in self.terms.items():
            room = q - len(m1)
            for m2, c2 in other.terms.items():
                if len(m2) < room:
                    key = m1 + m2
                    val = out.get(key, 0) + c1 * c2
                    if val:
                        out[key] = val
                    elif key in out:
                        del out[key]
        result = TruncatedSeries(self.alphabet, q)
        result.terms = out
        return result

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, TruncatedSeries)
            and self.alphabet == other.alphabet
            and self.cutoff == other.cutoff
            and self.terms == other.terms
        )

    def __hash__(self):
        raise TypeError("TruncatedSeries is mutable in spirit; do not hash")

    def homogeneous(self, degree: int) -> Dict[Tuple[int, ...], int]:
        return {m: c for m, c in self.terms.items() if len(m) == degree}

    def lowest_positive_degree(self):
        degrees = [len(m) for m in self.terms if m]
        return min(degrees) if degrees else None

    def __repr__(self):
        items = sorted(self.terms.items(), key=lambda mc: (len(mc[0]), mc[0]))
        body = " + ".join("%d*%s" % (c, ".".join(self.alphabet.name(i) for i in m) or "1") for m, c in items)
        return "TruncatedSeries(q=%d: %s)" % (self.cutoff, body or "0")


def substitute_series(
    series: Sequence[TruncatedSeries], images: Sequence[TruncatedSeries], cutoff: int
) -> Tuple[TruncatedSeries, ...]:
    """Each of ``series`` with Z_j replaced by ``images[j] - 1``, truncated
    below ``cutoff``; every image must have constant term 1.

    Substitution is a ring homomorphism, as is the expansion, so if
    ``series`` holds M(u) and ``images[j]`` holds M(h(z_j)) for an
    endomorphism h, the result holds M(h(u)) below ``cutoff``, however much
    of h(u) cancels when it is written as a word (Magnus-Karrass-Solitar,
    ch. 5).  A monomial Z_a...Z_b becomes (images[a] - 1)...(images[b] - 1),
    built by one multiplication from the value of its prefix; monomials
    shared by the series are built once.  Once the prefix values and the
    results hold more than MAX_SERIES_TERMS terms in all, it raises
    PreconditionError, checked after each term a value or result is built
    from."""
    factors = [
        sorted(((len(m), m, c) for m, c in image.terms.items() if m), key=lambda t: t[0])
        for image in images
    ]
    values: Dict[Tuple[int, ...], Dict[Tuple[int, ...], int]] = {(): {(): 1}}
    held = 1

    def value(m: Tuple[int, ...]) -> Dict[Tuple[int, ...], int]:
        nonlocal held
        out = values.get(m)
        if out is None:
            out = values[m] = {}
            for head, c in value(m[:-1]).items():
                room = cutoff - len(head)
                for j, tail, b in factors[m[-1]]:
                    if j >= room:
                        break
                    key = head + tail
                    out[key] = out.get(key, 0) + c * b
                _check_terms(held + len(out))
            held += len(out)
        return out

    result = []
    for s in series:
        terms: Dict[Tuple[int, ...], int] = {}
        for m, c in s.terms.items():
            for key, v in value(m).items():
                terms[key] = terms.get(key, 0) + c * v
            _check_terms(held + len(terms))
        held += len(terms)
        result.append(TruncatedSeries(images[0].alphabet, cutoff, terms))
    return tuple(result)


# Most terms a Magnus series may build: the nodes of one expansion's trie, or
# the terms of one substitution's prefix values and results.  The benchmark
# workloads, the tests and the self-test build at most a few thousand; one
# hostile 20-letter image at genus 4 and cutoff 8 builds over a million.
MAX_SERIES_TERMS = 2 * 10**5


def _check_terms(held: int) -> None:
    if held > MAX_SERIES_TERMS:
        raise PreconditionError(
            "Magnus series would exceed %d terms (%d built)" % (MAX_SERIES_TERMS, held)
        )


def magnus_expand(w: GroupWord, q: int) -> TruncatedSeries:
    """Image of w under z -> 1 + Z, truncated below degree q (q >= 2).

    The terms live in a trie for the length of the call: a node [c, kids]
    is a monomial m below the top degree q - 1 and its coefficient, kids
    maps a generator z to the node of m.z, or at the top degree to its bare
    coefficient, and ``levels[d]`` lists the nodes of degree d.  A letter
    z^e multiplies on the right by (1 + Z)^e.  For z^1 each node adds its
    coefficient into its z-child, degrees from the top down, so each source
    is read before it is changed.  For z^-1 the product S' = S (1 + Z)^-1
    satisfies S' = S - S'Z, so each node subtracts its new coefficient from
    its z-child, degrees from the bottom up.  Either is one pass over the
    trie.  For |e| >= 2 a node adds c * binom_j(e) down its chain of
    z-children, for 0 < j < q - d, degrees from the top down.  No monomial
    tuple is built until one walk fills the returned series.

    A word whose trie would pass MAX_SERIES_TERMS nodes raises
    PreconditionError, checked after each letter, which can at most
    multiply the count by q.  Every call returns a new series."""
    if q < 2:
        raise PreconditionError("cutoff must be at least 2")
    top = q - 1
    root = [1, {}]
    levels: List[list] = [[root]] + [[] for _ in range(top - 1)]
    held = 1  # nodes and top-degree coefficients
    chains: Dict[int, list] = {}  # exponent -> binom_j(exponent) for 0 < j < q
    down = range(top - 1, -1, -1)
    up = range(top)
    for gen, exp in w.letters:
        if exp == 1 or exp == -1:
            for d in (down if exp == 1 else up):
                if d + 1 == top:
                    for node in levels[d]:
                        c = node[0]
                        if c:
                            kids = node[1]
                            t = kids.get(gen)
                            if t is None:
                                kids[gen] = exp * c
                                held += 1
                            else:
                                kids[gen] = t + exp * c
                    continue
                below = levels[d + 1]
                for node in levels[d]:
                    c = node[0]
                    if c:
                        kids = node[1]
                        child = kids.get(gen)
                        if child is None:
                            kids[gen] = child = [exp * c, {}]
                            below.append(child)
                            held += 1
                        else:
                            child[0] += exp * c
        else:
            chain = chains.get(exp)
            if chain is None:
                # While it is nonzero; the recurrence binom_j(e) =
                # binom_{j-1}(e) * (e - j + 1) / j is exact for e < 0 too.
                chain = chains[exp] = []
                b = 1
                for j in range(1, q):
                    b = b * (exp - j + 1) // j
                    if not b:
                        break
                    chain.append(b)
            for d in down:
                steps = chain[: top - d]
                for node in levels[d]:
                    c = node[0]
                    if not c:
                        continue
                    for j, b in enumerate(steps, d + 1):
                        kids = node[1]
                        if j == top:
                            t = kids.get(gen)
                            if t is None:
                                held += 1
                                t = 0
                            kids[gen] = t + c * b
                            break
                        node = kids.get(gen)
                        if node is None:
                            kids[gen] = node = [c * b, {}]
                            levels[j].append(node)
                            held += 1
                        else:
                            node[0] += c * b
        _check_terms(held)
    terms: Dict[Tuple[int, ...], int] = {}
    stack = [((), root)]
    while stack:
        m, (c, kids) = stack.pop()
        if c:
            terms[m] = c
        if len(m) + 1 == top:
            for z, t in kids.items():
                if t:
                    terms[m + (z,)] = t
        else:
            stack.extend([(m + (z,), child) for z, child in kids.items()])
    series = TruncatedSeries(w.alphabet, q)
    series.terms = terms
    return series


def nilpotent_equal(u: GroupWord, v: GroupWord, q: int) -> bool:
    """Exact equality in the free nilpotent quotient of class q - 1.  Equal
    reduced words are the same group element, so they are equal without
    being expanded; any other pair compares its two expansions."""
    if u.alphabet != v.alphabet:
        raise ValidationError("alphabet mismatch")
    if q < 2:
        raise PreconditionError("cutoff must be at least 2")
    return u.letters == v.letters or magnus_expand(u, q) == magnus_expand(v, q)


def lcs_weight(w: GroupWord, qmax: int) -> int:
    """Largest k <= qmax with w in the k-th lower central series subgroup.
    Returns qmax itself when the truncated expansion is trivial, meaning the
    weight is at least qmax."""
    if qmax < 2:
        raise PreconditionError("qmax must be at least 2")
    degree = magnus_expand(w, qmax).lowest_positive_degree()
    return qmax if degree is None else degree


_GENERATOR = re.compile(r"([xy])([0-9]+)")
# One token after optional white space: a generator with an optional
# exponent, a bare exponent, a punctuation mark, or (last) the rest of the
# text from the first character that starts none of these.  Exponents are
# captured without their caret.
_TOKEN = re.compile(r"\s*(?:([xy][0-9]+)(?:\^(-?[0-9]+))?|\^(-?[0-9]+)|([\[\](),])|(\S[\s\S]*))")


@lru_cache(maxsize=None)
def _generator_table(alphabet: Alphabet) -> Dict[str, int]:
    """Generator name -> letter index, filled by ``parse_word`` with each
    name it has resolved, so a large genus costs nothing up front."""
    return {}


# Most groups a word may nest, one inside another.  A closed group's letters
# are copied into the group around it, so this bounds the copies of a letter.
MAX_WORD_NESTING = 500

# The error for a word that ends inside a group, by the mark the group awaits.
_UNCLOSED = {
    ")": "unbalanced parenthesis",
    ",": "commutator is missing a comma",
    "]": "commutator is missing a closing bracket",
}


def _exponent(digits: str) -> int:
    try:
        return int(digits)
    except ValueError:  # more digits than int() converts
        raise ValidationError("exponent with %d digits is too long" % (len(digits),))


def parse_word(text: str, alphabet: Alphabet) -> GroupWord:
    """Parse the word grammar: generators x<i> / y<i>, optional ^<int>
    exponents, juxtaposition for products, [u,v] for commutators, and
    parentheses for grouping.  The empty string is the identity.

    The text is scanned once into tokens (name, exponent, bare exponent,
    punctuation, rest), and one loop walks them with a stack of open
    groups."""
    if not isinstance(text, str):
        raise ValidationError("a word must be a string, not %s" % (type(text).__name__,))
    # Without trailing white space every scan position starts a token, so
    # the scan never retries a position.
    tokens = _TOKEN.findall(text.rstrip())
    if tokens and tokens[-1][4]:
        raise ValidationError("unexpected input at %r" % (tokens[-1][4].strip()[:12],))
    end = len(tokens)
    table = _generator_table(alphabet)

    # Each open group is a frame [closer, letters, left]: the mark that ends
    # its current part, the unreduced letters of that part, and a
    # commutator's left operand once its comma is read, else ().  The bottom
    # frame is the word.  The frames hold every letter a new term is built
    # on, which is what the letter cap counts.  Operands and the base of a
    # power are reduced, as they are copied; the word is reduced once at the
    # end.
    stack: List[list] = [[None, [], ()]]
    out = stack[-1][1]
    i = 0
    while i < end:
        name, power, bare, mark, _ = tokens[i]
        i += 1
        if name:
            gen = table.get(name)
            if gen is None:
                gen = table[name] = alphabet.index(name)
            if not power and i < end and tokens[i][2]:
                power = tokens[i][2]
                i += 1
            out.append((gen, _exponent(power) if power else 1))
        elif mark == "(" or mark == "[":
            if len(stack) > MAX_WORD_NESTING:
                raise ValidationError("word nests groups more than %d deep" % (MAX_WORD_NESTING,))
            stack.append([")" if mark == "(" else ",", [], ()])
            out = stack[-1][1]
        elif mark != stack[-1][0]:
            raise ValidationError("unexpected token %r" % ("^" + bare if bare else mark,))
        elif mark == ",":
            stack[-1] = ["]", [], _reduce_letters(out)]
            out = stack[-1][1]
        else:
            _, base, left = stack.pop()
            out = stack[-1][1]
            held = sum(len(letters) + len(operand) for _, letters, operand in stack)
            if mark == "]":
                right = _reduce_letters(base)
                _check_room(held, 2 * (len(left) + len(right)))
                base = left + right + _inverse_letters(left) + _inverse_letters(right)
            if i < end and tokens[i][2]:
                n = _exponent(tokens[i][2])
                i += 1
                base = _power_letters(_reduce_letters(base), n, held)
            out += base
    if len(stack) > 1:
        raise ValidationError(_UNCLOSED[stack[-1][0]])
    # Each letter's index was range-checked when its name was resolved.
    return GroupWord._reduced(alphabet, _reduce_letters(out))


@lru_cache(maxsize=None)
def _name_table(alphabet: Alphabet) -> Dict[int, str]:
    """Letter index -> generator name, filled by ``render_word`` with each
    index it has named, so a large genus costs nothing up front."""
    return {}


def render_word(w: GroupWord) -> str:
    table = _name_table(w.alphabet)
    parts = []
    for gen, exp in w.letters:
        name = table.get(gen)
        if name is None:
            name = table[gen] = w.alphabet.name(gen)
        parts.append(name if exp == 1 else "%s^%d" % (name, exp))
    return " ".join(parts)
