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
from typing import Dict, Iterable, List, Sequence, Tuple

from .errors import PreconditionError, ValidationError

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
            raise ValidationError("bad generator name %r" % (name,))
        letter, num = m.group(1), int(m.group(2))
        if not 1 <= num <= self.genus:
            raise ValidationError("generator %r out of range for genus %d" % (name, self.genus))
        if self.kind == FULL:
            return num - 1 if letter == "x" else self.genus + num - 1
        if (self.kind == Y_ONLY) != (letter == "y"):
            raise ValidationError("generator %r not in this alphabet" % (name,))
        return num - 1


Letter = Tuple[int, int]


def _reduce_letters(letters: Iterable[Letter]) -> Tuple[Letter, ...]:
    stack: List[List[int]] = []
    for gen, exp in letters:
        if exp == 0:
            continue
        if stack and stack[-1][0] == gen:
            stack[-1][1] += exp
            if stack[-1][1] == 0:
                stack.pop()
        else:
            stack.append([gen, exp])
    return tuple((g, e) for g, e in stack)


def _inverse_letters(letters: Sequence[Letter]) -> Tuple[Letter, ...]:
    return tuple((g, -e) for g, e in reversed(letters))


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
    """Letters of w^n, not yet reduced, for the reduced letters of w; the
    result with ``held`` letters already built must fit MAX_WORD_LETTERS.

    Splits w as c r c^-1 with r cyclically reduced, so that the copies of r
    meet without cancelling and the result is reduced in one pass over
    c r^n c^-1.  A one-letter r takes its n-th power as one letter, so
    x^n costs nothing per unit of n and is never refused.
    """
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
        middle = core * n
    return letters[:k] + middle + letters[len(letters) - k :]


@dataclass(frozen=True)
class GroupWord:
    """A reduced word.  Construction merges adjacent letters on the same
    generator and drops zero exponents, so equal group elements built from
    letter sequences that only differ by free cancellation compare equal."""

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

    def __mul__(self, other: "GroupWord") -> "GroupWord":
        if self.alphabet != other.alphabet:
            raise ValidationError("alphabet mismatch")
        return GroupWord(self.alphabet, self.letters + other.letters)

    def inverse(self) -> "GroupWord":
        return GroupWord(self.alphabet, _inverse_letters(self.letters))

    def __pow__(self, n: int) -> "GroupWord":
        return GroupWord(self.alphabet, _power_letters(self.letters, n))

    @property
    def is_empty(self) -> bool:
        return not self.letters

    def abelianization(self) -> Tuple[int, ...]:
        vec = [0] * self.alphabet.size
        for gen, exp in self.letters:
            vec[gen] += exp
        return tuple(vec)


def substitute(w: GroupWord, images: Sequence[GroupWord]) -> GroupWord:
    """The word w with generator i replaced by ``images[i]``.  An image or a
    power of one is refused before it is built if it would pass
    MAX_WORD_LETTERS."""
    letters: List[Letter] = []
    for gen, exp in w.letters:
        image = images[gen].letters
        if exp == 1:
            _check_room(len(letters), len(image))
            letters.extend(image)
        elif exp == -1:
            _check_room(len(letters), len(image))
            letters.extend(_inverse_letters(image))
        else:
            letters.extend(_power_letters(image, exp, held=len(letters)))
    return GroupWord(w.alphabet, tuple(letters))


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
    """Include a word over a single-letter alphabet into the full alphabet of
    the same genus.  y-generators shift up by g, x-generators keep their
    indices."""
    if full.kind != FULL or w.alphabet.genus != full.genus:
        raise ValidationError("embedding requires the full alphabet of the same genus")
    if w.alphabet.kind == FULL:
        return GroupWord(full, w.letters)
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

    @classmethod
    def one(cls, alphabet: Alphabet, cutoff: int) -> "TruncatedSeries":
        return cls(alphabet, cutoff, {(): 1})

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

    @property
    def is_one(self) -> bool:
        return self.terms == {(): 1}

    def lowest_positive_degree(self):
        degrees = [len(m) for m in self.terms if m]
        return min(degrees) if degrees else None

    def __repr__(self):
        items = sorted(self.terms.items(), key=lambda mc: (len(mc[0]), mc[0]))
        body = " + ".join("%d*%s" % (c, ".".join(self.alphabet.name(i) for i in m) or "1") for m, c in items)
        return "TruncatedSeries(q=%d: %s)" % (self.cutoff, body or "0")


def magnus_expand(w: GroupWord, q: int) -> TruncatedSeries:
    """Image of w under z -> 1 + Z, truncated below degree q (q >= 2).

    The terms are kept in one dict per degree.  Each letter z^e multiplies
    them on the right by (1 + Z)^e in place, from the top degree down: a
    term c*m of degree d adds c*binom_j(e) at m.Z^j for 0 < j < q - d.
    Those targets lie in higher degrees, which have already been read, so a
    letter costs O(terms * q) and never visits the top degree."""
    if q < 2:
        raise PreconditionError("cutoff must be at least 2")
    by_degree: List[Dict[Tuple[int, ...], int]] = [{(): 1}] + [{} for _ in range(q - 1)]
    for gen, exp in w.letters:
        # (Z^j, binom_j(e)) while binom_j(e) != 0; the recurrence
        # binom_j(e) = binom_{j-1}(e) * (e - j + 1) / j is exact for e < 0 too.
        steps = []
        b = 1
        for j in range(1, q):
            b = b * (exp - j + 1) // j
            if not b:
                break
            steps.append(((gen,) * j, b))
        for d in range(q - 2, -1, -1):
            source = by_degree[d]
            if not source:
                continue
            for target, (tail, b) in zip(by_degree[d + 1 :], steps):
                for m, c in source.items():
                    key = m + tail
                    val = target.get(key, 0) + c * b
                    if val:
                        target[key] = val
                    else:
                        del target[key]
    series = TruncatedSeries(w.alphabet, q)
    for terms in by_degree:
        series.terms.update(terms)
    return series


def nilpotent_equal(u: GroupWord, v: GroupWord, q: int) -> bool:
    """Exact equality in the free nilpotent quotient of class q - 1."""
    if u.alphabet != v.alphabet:
        raise ValidationError("alphabet mismatch")
    return magnus_expand(u, q) == magnus_expand(v, q)


def lcs_weight(w: GroupWord, qmax: int) -> int:
    """Largest k <= qmax with w in the k-th lower central series subgroup.
    Returns qmax itself when the truncated expansion is trivial, meaning the
    weight is at least qmax."""
    if qmax < 2:
        raise PreconditionError("qmax must be at least 2")
    degree = magnus_expand(w, qmax).lowest_positive_degree()
    return qmax if degree is None else degree


_GENERATOR = re.compile(r"([xy])([0-9]+)")
_TOKEN = re.compile(r"\s*(?:([xy][0-9]+)|(\^-?[0-9]+)|(\[)|(\])|(\()|(\))|(,))")


def parse_word(text: str, alphabet: Alphabet) -> GroupWord:
    """Parse the word grammar: generators x<i> / y<i>, optional ^<int>
    exponents, juxtaposition for products, [u,v] for commutators, and
    parentheses for grouping.  The empty string is the identity."""
    tokens: List[str] = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m:
            if text[pos:].strip():
                raise ValidationError("unexpected input at %r" % (text[pos:].strip()[:12],))
            break
        tokens.append(m.group(0).strip())
        pos = m.end()
    tokens = [t for t in tokens if t]
    state = {"i": 0}

    def peek():
        return tokens[state["i"]] if state["i"] < len(tokens) else None

    def take():
        tok = peek()
        state["i"] += 1
        return tok

    # A sequence collects the unreduced letters of its terms in one list and
    # the whole word is reduced once at the end.  The operands of a
    # commutator and the base of a power are reduced on the way, because
    # they are copied: letters that cancel are not copied with them.
    # ``held`` keeps the letter lists of the open sequences and the left
    # operands of open commutators: what a new term is built on top of.
    held: List[Sequence[Letter]] = []

    def parse_sequence(stop: Tuple[str, ...]) -> List[Letter]:
        out: List[Letter] = []
        held.append(out)
        while True:
            tok = peek()
            if tok is None or tok in stop:
                held.pop()
                return out
            out += parse_term()

    def parse_term() -> Tuple[Letter, ...]:
        tok = take()
        if tok == "[":
            left = _reduce_letters(parse_sequence((",",)))
            if take() != ",":
                raise ValidationError("commutator is missing a comma")
            held.append(left)
            right = _reduce_letters(parse_sequence(("]",)))
            held.pop()
            if take() != "]":
                raise ValidationError("commutator is missing a closing bracket")
            _check_room(sum(map(len, held)), 2 * (len(left) + len(right)))
            base = left + right + _inverse_letters(left) + _inverse_letters(right)
        elif tok == "(":
            base = tuple(parse_sequence((")",)))
            if take() != ")":
                raise ValidationError("unbalanced parenthesis")
        elif tok and tok[0] in "xy":
            base = ((alphabet.index(tok), 1),)
        else:
            raise ValidationError("unexpected token %r" % (tok,))
        nxt = peek()
        if nxt and nxt.startswith("^"):
            take()
            try:
                n = int(nxt[1:])
            except ValueError:  # more digits than int() converts
                raise ValidationError("exponent with %d digits is too long" % (len(nxt) - 1,))
            if len(base) == 1:
                base = ((base[0][0], base[0][1] * n),)
            else:
                base = _power_letters(_reduce_letters(base), n, sum(map(len, held)))
        return base

    result = GroupWord(alphabet, tuple(parse_sequence(())))
    if state["i"] != len(tokens):
        raise ValidationError("trailing tokens in word")
    return result


def render_word(w: GroupWord) -> str:
    parts = []
    for gen, exp in w.letters:
        name = w.alphabet.name(gen)
        parts.append(name if exp == 1 else "%s^%d" % (name, exp))
    return " ".join(parts)
