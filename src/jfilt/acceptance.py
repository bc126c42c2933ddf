"""The acceptance gate: ten binding checks shared by pytest and the CLI.

Each criterion function returns ``(ok, detail)`` where ``detail`` is a short
human-readable summary of what was computed.  ``run_all`` executes every
criterion with per-criterion seeding and wall-clock timing; the CLI
``selftest`` subcommand and ``tests/test_acceptance.py`` both consume it, so
a green test suite and a zero exit status certify the same thing.
"""

from __future__ import annotations

import math
import random
import time
from dataclasses import dataclass
from typing import Callable, List, Tuple

from .automorphisms import (
    NilAut,
    compose,
    framing_tuple,
    full_twist_tuple,
    identity_aut,
    invert_aut,
    johnson_element,
    kernel_lift_tuple,
    phi_hat,
    psi_hat,
    random_kernel_tuple,
    LongitudeTuple,
    extract_longitudes,
    tuples_equal,
)
from .brackets import (
    a1_dimensions,
    bracket_map,
    dk_rank,
    embed_tensor,
    tensor_from_components,
)
from .lagrangian import cocycle_check, jl_element, lagrangian_degree, pure_braid_rank
from .lie import generator_element, graded_class, lie_bracket
from .orientation import census
from .trees import (
    flip_vertex,
    h_tree,
    random_labeled_tree,
    rooted_bracket,
    span_check,
    tree_to_dk,
)
from .words import (
    FULL,
    X_ONLY,
    Y_ONLY,
    Alphabet,
    commutator,
    generator,
    lcs_weight,
    magnus_expand,
)


@dataclass(frozen=True)
class CriterionResult:
    number: int
    name: str
    ok: bool
    detail: str
    seconds: float


def criterion_1_lambda_cubed(seed: int = 0) -> Tuple[bool, str]:
    """dk_rank(2g, 1) = C(2g, 3) for g = 1..4, by formula and by kernel."""
    findings = []
    ok = True
    for g in range(1, 5):
        n = 2 * g
        want = math.comb(n, 3)
        by_formula = dk_rank(n, 1, method="formula")
        by_matrix = dk_rank(n, 1, method="matrix")
        ok &= by_formula == want == by_matrix
        findings.append("2g=%d:%d/%d/%d" % (n, by_formula, by_matrix, want))
    return ok, "formula/kernel/C(2g,3): " + " ".join(findings)


def criterion_2_gap_k2(seed: int = 0) -> Tuple[bool, str]:
    """dk_rank(g,2) - r(g,2) = (g^3 - g)/6 for g = 2..5."""
    gaps = [dk_rank(g, 2) - pure_braid_rank(g, 2) for g in range(2, 6)]
    want = [(g**3 - g) // 6 for g in range(2, 6)]
    return gaps == want == [1, 4, 10, 20], "gaps %s vs closed form %s" % (gaps, want)


def criterion_3_gap_k3_and_k1(seed: int = 0) -> Tuple[bool, str]:
    """k=3 gaps for g = 2..4 and the vanishing k=1 gap (checked to g = 8)."""
    gaps3 = [dk_rank(g, 3) - pure_braid_rank(g, 3) for g in range(2, 5)]
    want3 = [(g**3 - g) * (g - 2) // 8 for g in range(2, 5)]
    ok3 = gaps3 == want3 == [0, 3, 15]
    gaps1 = [dk_rank(g, 1) - pure_braid_rank(g, 1) for g in range(2, 9)]
    ok1 = all(v == 0 for v in gaps1)
    return ok3 and ok1, "k=3 gaps %s vs %s; k=1 gaps (g<=8) %s" % (gaps3, want3, gaps1)


def criterion_4_tree_span(seed: int = 0) -> Tuple[bool, str]:
    """Tree images span the full contraction kernel on six (n, k) pairs."""
    findings = []
    ok = True
    for n, k in [(2, 1), (3, 1), (4, 1), (2, 2), (3, 2), (2, 3)]:
        span, target = span_check(n, k)
        ok &= span == target
        findings.append("(%d,%d):%d/%d" % (n, k, span, target))
    return ok, "span/kernel ranks " + " ".join(findings)


def criterion_5_sign_calibration(seed: int = 0) -> Tuple[bool, str]:
    """The H-shaped tree with leaves (a1, a3 | a4, a3), read from the a1 leaf,
    evaluates to the nested bracket [a3, [a4, a3]] exactly."""
    g = h_tree(4, (0, 2), (3, 2))
    got = rooted_bracket(g, "l0")
    e3 = generator_element(4, 2)
    e4 = generator_element(4, 3)
    want = lie_bracket(e3, lie_bracket(e4, e3))
    return got == want, "rooted bracket coords %s match [a3,[a4,a3]]" % (
        sorted(got.terms.values()),
    )


def criterion_6_longitude_consistency(seed: int = 0) -> Tuple[bool, str]:
    """50 random deep tuples: the obstruction tensor of the conjugating
    automorphism equals sum_i y_i (x) [entry_i] (frozen sign), and longitude
    extraction inverts the construction."""
    rng = random.Random(seed + 6)
    combos = [(2, 1), (2, 2), (3, 1), (3, 2)]
    checked = 0
    for trial in range(50):
        g, k = combos[trial % len(combos)]
        t = random_kernel_tuple(rng, g, k)
        h = phi_hat(t)
        j = johnson_element(h, k)
        classes = {i: graded_class(t.entries[i], k + 1) for i in range(g)}
        expected = embed_tensor(tensor_from_components(g, k, classes), 2 * g, g)
        if j != expected:
            return False, "sign/value mismatch at trial %d (g=%d, k=%d)" % (trial, g, k)
        ext = extract_longitudes(h, k)
        if not tuples_equal(ext, LongitudeTuple(g, k + 1, Y_ONLY, t.entries)):
            return False, "extraction failed at trial %d (g=%d, k=%d)" % (trial, g, k)
        checked += 1
    return True, "%d tuples across (g,k) in %s" % (checked, combos)


def _random_x_tuple(rng: random.Random, g: int, k: int) -> LongitudeTuple:
    kind = rng.randrange(3)
    if kind == 0:
        return framing_tuple(g, k + 2, [rng.randint(-2, 2) for _ in range(g)], X_ONLY)
    if kind == 1:
        return full_twist_tuple(g, k + 2, rng.choice((-1, 1, 2)), X_ONLY)
    return random_kernel_tuple(rng, g, k, kind=X_ONLY, noise=False)


def _small_kernel_tuple(rng: random.Random, g: int, k: int, kind: str = Y_ONLY) -> LongitudeTuple:
    """Kernel lift of a single basis element with coefficient +-1 (sometimes
    zero).  Word lengths stay small, which matters when these images are
    composed: substitution multiplies lengths."""
    rank = dk_rank(g, k)
    coeffs = [0] * rank
    if rank and rng.random() < 0.9:
        coeffs[rng.randrange(rank)] = rng.choice((-1, 1))
    return kernel_lift_tuple(g, k, coeffs, kind)


def _small_x_tuple(rng: random.Random, g: int, k: int) -> LongitudeTuple:
    kind = rng.randrange(3)
    if kind == 0:
        return framing_tuple(g, k + 2, [rng.randint(-1, 1) for _ in range(g)], X_ONLY)
    if kind == 1:
        return full_twist_tuple(g, k + 2, rng.choice((-1, 1)), X_ONLY)
    return _small_kernel_tuple(rng, g, k, X_ONLY)


def _random_member(rng: random.Random, g: int, k: int) -> NilAut:
    """A random element of the degree-k population: a conjugating-family
    image, a mirrored-family image, or a product of the two."""
    kind = rng.randrange(3)
    if kind == 0:
        return phi_hat(_small_kernel_tuple(rng, g, k))
    if kind == 1:
        return psi_hat(_small_x_tuple(rng, g, k))
    return compose(
        phi_hat(_small_kernel_tuple(rng, g, k)), psi_hat(_small_x_tuple(rng, g, k))
    )


def criterion_7_crossed_homomorphism(seed: int = 0) -> Tuple[bool, str]:
    """The twisted composition law for the Lagrangian obstruction holds on
    100 seeded pairs drawn from both families and their products."""
    rng = random.Random(seed + 7)
    combos = [(2, 1), (2, 2), (3, 1), (3, 2)]
    for trial in range(100):
        g, k = combos[trial % len(combos)]
        h1 = _random_member(rng, g, k)
        h2 = _random_member(rng, g, k)
        if not cocycle_check(h1, h2, k):
            return False, "law failed at trial %d (g=%d, k=%d)" % (trial, g, k)
    return True, "100 pairs across (g,k) in %s" % (combos,)


def criterion_8_mirror_triviality(seed: int = 0) -> Tuple[bool, str]:
    """50 random x-side tuples: the mirrored family has zero Lagrangian
    obstruction at every accessible degree and caps the Lagrangian degree."""
    rng = random.Random(seed + 8)
    combos = [(2, 1), (2, 2), (3, 1), (3, 2)]
    for trial in range(50):
        g, k = combos[trial % len(combos)]
        mu = _random_x_tuple(rng, g, k)
        p = psi_hat(mu)
        if lagrangian_degree(p) != p.level - 1:
            return False, "degree not capped at trial %d (g=%d, k=%d)" % (trial, g, k)
        report = jl_element(p, k)
        if not report.value.is_zero:
            return False, "nonzero obstruction at trial %d (g=%d, k=%d)" % (trial, g, k)
    return True, "50 mirrored images vanish across (g,k) in %s" % (combos,)


def criterion_9_orientation(seed: int = 0) -> Tuple[bool, str]:
    """Exhaustive connected unitrivalent multigraphs with <= 4 trivalent
    vertices: orientable iff cyclic iff the count of valid orientations is
    positive.  The count sums (−1)^|S| 2^(free edges) over sets S of
    trivalent vertices forced to be sources, and shares no step with
    ``orient``, so the three tests are independent."""
    rows, mismatches = census(4)
    if mismatches:
        return False, "mismatch on a graph with %d trivalent vertices" % mismatches[0]
    total = sum(r["orientable"] + r["not_orientable"] for r in rows)
    orientable = sum(r["orientable"] for r in rows)
    return True, "%d graphs, %d orientable, all three tests agree" % (total, orientable)


def criterion_10_property_suite(seed: int = 0) -> Tuple[bool, str]:
    """Magnus faithfulness to depth 5, automorphism group laws, Jacobi/AS/IHX,
    kernel membership of obstruction tensors and 500 random tree images, and
    the closed form for the degree-1 dimensions."""
    rng = random.Random(seed + 10)

    # Magnus faithfulness: left-nested commutators of distinct generators
    # have exact weight equal to their depth.
    ab = Alphabet(3, FULL)
    for depth in range(2, 6):
        picks = rng.sample(range(6), depth)
        w = generator(ab, picks[0])
        for i in picks[1:]:
            w = commutator(w, generator(ab, i))
        if lcs_weight(w, depth + 1) != depth:
            return False, "nested commutator of depth %d not detected" % depth
    series = magnus_expand(commutator(generator(ab, 0), generator(ab, 1)), 3)
    if series.homogeneous(2) != {(0, 1): 1, (1, 0): -1}:
        return False, "degree-2 expansion of a commutator is wrong"

    # Group laws (associativity exact at word level, identity, inverses).
    for g, k in [(2, 1), (3, 1)]:
        e = identity_aut(g, k + 2)
        a = phi_hat(random_kernel_tuple(rng, g, k))
        b = psi_hat(_random_x_tuple(rng, g, k))
        c = phi_hat(random_kernel_tuple(rng, g, k))
        left = compose(compose(a, b), c)
        right = compose(a, compose(b, c))
        if any(u != v for u, v in zip(left.images, right.images)):
            return False, "composition is not associative at (g,k)=(%d,%d)" % (g, k)
        if compose(a, e) != a or compose(e, a) != a:
            return False, "identity is not neutral"
        if compose(a, invert_aut(a)) != e or compose(invert_aut(b), b) != e:
            return False, "inverse failed"

    # Jacobi, antisymmetry, IHX.
    u = generator_element(3, 0)
    v = generator_element(3, 1)
    w = generator_element(3, 2)
    jac = (
        lie_bracket(u, lie_bracket(v, w))
        + lie_bracket(v, lie_bracket(w, u))
        + lie_bracket(w, lie_bracket(u, v))
    )
    if not jac.is_zero:
        return False, "Jacobi identity failed"
    if not (lie_bracket(u, v) + lie_bracket(v, u)).is_zero:
        return False, "antisymmetry failed"
    for a_, b_, c_, d_ in [(0, 1, 0, 1), (0, 1, 1, 0), (1, 0, 0, 1)]:
        i_term = tree_to_dk(h_tree(2, (a_, b_), (c_, d_)))
        h_term = tree_to_dk(h_tree(2, (a_, c_), (b_, d_)))
        x_term = tree_to_dk(h_tree(2, (a_, d_), (b_, c_)))
        if not (i_term - h_term + x_term).is_zero:
            return False, "IHX failed on labels %s" % ((a_, b_, c_, d_),)

    # Antisymmetry of the vertex flip on a random tree.
    t = random_labeled_tree(rng, 3, 2)
    flipped = flip_vertex(t, "t0")
    if not (tree_to_dk(t) + tree_to_dk(flipped)).is_zero:
        return False, "vertex flip did not negate the tree image"

    # Kernel membership: 500 random trees of degree <= 4, plus fresh
    # obstruction tensors.  ``tree_to_dk`` checks its image against
    # ``bracket_map`` itself and raises ``InvariantError``, which
    # ``run_all`` counts as a failure.
    for _ in range(500):
        n = rng.randint(1, 4)
        k = rng.randint(1, 4)
        tree_to_dk(random_labeled_tree(rng, n, k))
    for g, k in [(2, 1), (3, 2)]:
        j = johnson_element(phi_hat(random_kernel_tuple(rng, g, k)), k)
        if not bracket_map(j).is_zero:
            return False, "obstruction tensor left the kernel (g=%d, k=%d)" % (g, k)

    # Degree-1 dimensions match their closed forms.
    for g in range(1, 5):
        first, second = a1_dimensions(g)
        if first != math.comb(2 * g, 3) or second != math.comb(2 * g, 2) + 2 * g + 1:
            return False, "degree-1 dimension pair wrong at g=%d" % g

    return True, "expansion depth 5, group laws, Jacobi/AS/IHX, 500 tree kernels, dimension pairs"


CRITERIA: List[Tuple[int, str, Callable[[int], Tuple[bool, str]]]] = [
    (1, "rank of the degree-1 kernel equals C(2g,3)", criterion_1_lambda_cubed),
    (2, "k=2 rank gap matches (g^3-g)/6", criterion_2_gap_k2),
    (3, "k=3 rank gap matches (g^3-g)(g-2)/8; k=1 gap vanishes", criterion_3_gap_k3_and_k1),
    (4, "tree images span the contraction kernel", criterion_4_tree_span),
    (5, "tree-to-bracket sign calibration", criterion_5_sign_calibration),
    (6, "obstruction tensor matches tuple classes; extraction inverts", criterion_6_longitude_consistency),
    (7, "twisted composition law on 100 pairs", criterion_7_crossed_homomorphism),
    (8, "mirrored family has trivial Lagrangian obstruction", criterion_8_mirror_triviality),
    (9, "orientability criterion on all small multigraphs", criterion_9_orientation),
    (10, "property suite", criterion_10_property_suite),
]


def run_all(seed: int = 0) -> List[CriterionResult]:
    results = []
    for number, name, fn in CRITERIA:
        start = time.time()
        try:
            ok, detail = fn(seed)
        except Exception as exc:  # a crash is a failure, not an abort
            ok, detail = False, "raised %s: %s" % (type(exc).__name__, exc)
        results.append(CriterionResult(number, name, ok, detail, time.time() - start))
    return results
