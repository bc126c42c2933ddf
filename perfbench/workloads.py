"""The four benchmark workloads: seeded inputs, one job, and its check.

Every workload builds a small pool of jobs from its seed; the timed loop
walks the pool in order and starts over at its end, so each input runs ten
times or more in a run and is valued at the median of its repeats.  Inputs are dealt from size classes with
shuffle bags: a bag hands out each of its items once per cycle in seeded
order, so every seed gives the same mix of sizes and the seed only changes
order, signs, labels and other small choices.  The class
shares are chosen so that the median and the 90th percentile of job latency
fall inside a class, not on the edge between two, where they would jump
from run to run.

Jobs call jfilt through module attributes (``jfilt.dk_basis``,
``jfilt.cli.run``) so that the tracer's patches reach them.  ``verify``
runs outside the timed loop, once per distinct input; the digests of
repeated jobs must match the verified one.
"""

from __future__ import annotations

import functools
import hashlib
import json
import os
import random
from typing import Callable, Dict, List, Sequence

import jfilt
import jfilt.brackets
import jfilt.cli
import jfilt.trees
from jfilt.errors import NotOrientable

# Products with more letters than this are redrawn in cli_chain.  Parsing is
# quadratic in word length and `invert_aut` of products grows faster still,
# so the budget is what keeps a chain near a tenth of a second (see NOTES.md).
LETTER_BUDGET = 1000


def bag(rng: random.Random, items: Sequence, n: int) -> List:
    """``n`` draws in which each item appears once per ``len(items)`` draws."""
    out: List = []
    while len(out) < n:
        cycle = list(items)
        rng.shuffle(cycle)
        out.extend(cycle)
    return out[:n]


def canon(value):
    """A canonical, comparable form of a job output."""
    if isinstance(value, jfilt.NilAut):
        return ("NilAut", value.level, tuple(w.letters for w in value.images))
    if isinstance(value, jfilt.GroupWord):
        return value.letters
    if isinstance(value, (list, tuple)):
        return tuple(canon(v) for v in value)
    if isinstance(value, dict):
        return tuple(sorted((repr(k), canon(v)) for k, v in value.items()))
    return repr(value)


def digest(value) -> str:
    return hashlib.sha256(repr(canon(value)).encode()).hexdigest()


def warm(pairs) -> None:
    """Fill the Lyndon/Hall caches for every ``(rank, degree)`` a job uses."""
    for n, degree in sorted(set(pairs)):
        basis = jfilt.hall_basis(n, degree)
        basis.index(basis.words[0])


# ---------------------------------------------------------------------------
# lattice: dense Smith normal form of the contraction matrix


# Three size classes of main calls, dealt in turn (roughly 30-45, 70 and
# 135 ms on a 2-vCPU Xeon), so the median job falls in the middle class and
# the 90th percentile in the last, each far from the edge of the next.  The
# middle class has one variant and the two of the last cost the same, so
# that neither percentile falls between two variants either.
LATTICE_MAIN = [
    [(("rank", 5, 2),), (("basis", 3, 4),)],
    [(("basis", 5, 2),)],
    [(("basis", 4, 3),), (("rank", 6, 2), ("rank", 5, 2))],
]
LATTICE_SMALL = [(4, 1), (5, 1), (6, 1), (3, 2), (4, 2), (3, 3)]


def lattice_pool(rng: random.Random, size: int):
    deal = [iter(bag(rng, cls, size)) for cls in LATTICE_MAIN]
    classes = bag(rng, range(len(LATTICE_MAIN)), size)
    smalls = bag(rng, LATTICE_SMALL, size)
    return [next(deal[c]) + (("basis",) + small,) for c, small in zip(classes, smalls)]


def lattice_cache_keys(pool):
    return [(n, d) for job in pool for _, n, k in job for d in range(1, k + 3)]


def lattice_run(job):
    out = []
    for method, n, k in job:
        if method == "basis":
            out.append(jfilt.dk_basis(n, k))
        else:
            out.append(jfilt.dk_rank(n, k, method="matrix"))
    return out


def lattice_verify(job, out) -> bool:
    return all(
        _lattice_call_ok(method, n, k, result if method == "rank" else tuple(result))
        for (method, n, k), result in zip(job, out)
    )


@functools.lru_cache(maxsize=None)
def _lattice_call_ok(method, n, k, result) -> bool:
    # The pool repeats a few (n, k) pairs; each distinct answer is checked once.
    rank = n * jfilt.witt_dimension(n, k + 1) - jfilt.witt_dimension(n, k + 2)
    if method == "rank":
        return result == rank
    return (len(result) == rank == jfilt.dk_rank(n, k, method="matrix")
            and all(jfilt.bracket_map(t).is_zero for t in result))


# ---------------------------------------------------------------------------
# trees: many small brackets, tree images, and graph orientation


# span_check costs roughly 10, 17, 28 and 113 ms at (3,1), (2,2), (4,1) and
# (3,2) on a 2-vCPU Xeon.  Sorted, a pool of 12 holds two jobs of each of the
# first two, then four of (4,1) and four of (3,2), so the median job falls in
# the (4,1) class and the 90th percentile in the (3,2) class.  Every job
# takes one tree of each shape, about 11 ms in all, so that which trees a
# job draws does not move it across a class edge.
TREE_SPANS = [(3, 1), (2, 2), (4, 1), (4, 1), (3, 2), (3, 2)]
TREE_SHAPES = [(n, k) for n in (2, 3, 4) for k in (1, 2, 3)]
TREES_PER_JOB = len(TREE_SHAPES)
GRAPH_CENSUS_SIZE = 4  # trivalent vertices in the orientation census


def trees_pool(rng: random.Random, size: int):
    spans = bag(rng, TREE_SPANS, size)
    shapes = bag(rng, TREE_SHAPES, size * TREES_PER_JOB)
    census = list(jfilt.enumerate_unitrivalent(GRAPH_CENSUS_SIZE))
    graphs = bag(rng, range(len(census)), size)
    pool = []
    for i in range(size):
        trees = [
            jfilt.trees.random_labeled_tree(rng, n, k)
            for n, k in shapes[i * TREES_PER_JOB:(i + 1) * TREES_PER_JOB]
        ]
        pool.append((spans[i], trees, census[graphs[i]]))
    return pool


def trees_cache_keys(pool):
    keys = []
    for (n, k), trees, _ in pool:
        keys += [(n, d) for d in range(1, k + 3)]
        for t in trees:
            degree = sum(1 for _, arity in t.vertices if arity == jfilt.trees.TRIVALENT)
            keys += [(t.n, d) for d in range(1, degree + 3)]
    return keys


def trees_run(job):
    (n, k), trees, graph = job
    span = jfilt.span_check(n, k)
    images = [jfilt.tree_to_dk(t) for t in trees]
    try:
        orientation = jfilt.orient(graph)
        problems = jfilt.verify_orientation(graph, orientation)
    except NotOrientable:
        orientation, problems = None, None
    count = jfilt.count_valid_orientations(graph)
    return span, images, orientation, problems, count


def _orientation_ok(graph, orientation) -> bool:
    """Leaf edges point into their leaf and no trivalent vertex is a source,
    checked here without the library's verifier."""
    arity = dict(graph.vertices)
    incoming = {vid: 0 for vid in arity}
    if sorted(orientation) != list(range(len(graph.edges))):
        return False
    for idx, (tail, head) in orientation.items():
        if {tail, head} != set(graph.edges[idx]) or arity[tail[0]] == 1:
            return False
        incoming[head[0]] += 1
    return all(incoming[v] > 0 for v, a in arity.items() if a == 3)


def trees_verify(job, out) -> bool:
    (n, k), trees, graph = job
    (span_rank, kernel_rank), images, orientation, problems, count = out
    # Rational check: ranks over Q, as acceptance criterion 4 compares them.
    if not span_rank == kernel_rank == jfilt.dk_rank(n, k):
        return False
    for tree, image in zip(trees, images):
        if image.n != tree.n or not jfilt.bracket_map(image).is_zero:
            return False
    cyclic = len(graph.edges) - len(graph.vertices) + 1 > 0  # census graphs are connected
    if (orientation is not None) != (count > 0) or (count > 0) != cyclic:
        return False
    return orientation is None or (problems == [] and _orientation_ok(graph, orientation))


# ---------------------------------------------------------------------------
# aut_query: Magnus expansion of short words, objects built fresh per job


AUT_CLASSES = [(2, 1), (2, 2), (3, 1), (3, 2)]
X_KINDS = ["framing", "twist"]


def _kernel_tuple(rng, g, k, kind, element=None, sign=None):
    """Kernel lift of one basis element with sign +-1, each seeded unless
    given; trivial if the kernel is zero."""
    coeffs = [0] * jfilt.dk_rank(g, k)
    if coeffs:
        index = rng.randrange(len(coeffs)) if element is None else element
        coeffs[index] = rng.choice((-1, 1)) if sign is None else sign
    return jfilt.kernel_lift_tuple(g, k, coeffs, kind)


def _x_tuple(rng, g, k, kind):
    if kind == "framing":
        return jfilt.framing_tuple(g, k + 2, [rng.choice((-1, 1)) for _ in range(g)], "x")
    return jfilt.full_twist_tuple(g, k + 2, rng.choice((-1, 1)), "x")


def _element_bag(g, k):
    """Kernel basis indices to deal, one per job.  Lifts of different
    elements differ up to threefold in length (17 to 48 letters at
    (g, k) = (3, 2)), and inversion cost grows faster than length.  The
    shortest lifts are dealt three times as often as the others, so the
    median job falls among them and the 90th percentile among the longest,
    not on an edge between two lengths."""
    rank = jfilt.dk_rank(g, k)
    if rank == 0:
        return [None]
    lengths = [
        sum(len(w.letters) for w in jfilt.kernel_lift_tuple(g, k, [int(i == j) for j in range(rank)]).entries)
        for i in range(rank)
    ]
    return list(range(rank)) + 2 * [i for i, n in enumerate(lengths) if n == min(lengths)]


def aut_pool(rng: random.Random, size: int):
    kinds = {gk: bag(rng, X_KINDS, size) for gk in AUT_CLASSES}
    elements = {gk: bag(rng, _element_bag(*gk), size) for gk in AUT_CLASSES}
    return [
        [
            (g, k, _kernel_tuple(rng, g, k, "y", elements[(g, k)][i]),
             _x_tuple(rng, g, k, kinds[(g, k)][i]))
            for g, k in AUT_CLASSES
        ]
        for i in range(size)
    ]


def aut_cache_keys(pool):
    return [(n, d) for g, k in AUT_CLASSES for n in (g, 2 * g) for d in range(1, k + 4)]


def aut_run(job):
    out = []
    for g, k, ty, tx in job:
        h1 = jfilt.phi_hat(ty)
        h2 = jfilt.psi_hat(tx)
        cocycle = (jfilt.cocycle_check(h1, h2, k), jfilt.cocycle_check(h2, h1, k))
        johnson = jfilt.johnson_element(h1, k)
        extracted = jfilt.extract_longitudes(h1, k)
        degree = jfilt.filtration_degree(h1)
        inverse = jfilt.invert_aut(h1)
        same = jfilt.compose(h1, inverse) == jfilt.identity_aut(g, h1.level)
        out.append((cocycle, johnson, extracted, degree, inverse, same))
    return out


def aut_verify(job, out) -> bool:
    for (g, k, ty, tx), (cocycle, johnson, extracted, degree, inverse, same) in zip(job, out):
        if cocycle != (True, True) or not same:
            return False
        classes = {i: jfilt.graded_class(ty.entries[i], k + 1) for i in range(g)}
        expected = jfilt.brackets.embed_tensor(jfilt.tensor_from_components(g, k, classes), 2 * g, g)
        if johnson != expected:
            return False
        if not jfilt.tuples_equal(extracted, jfilt.LongitudeTuple(g, k + 1, "y", ty.entries)):
            return False
        trivial = all(w.is_empty for w in ty.entries)
        if degree != (k + 1 if trivial else k):
            return False
        # The job itself found h o h^-1 = id (`same`); check the other side.
        h1 = jfilt.phi_hat(ty)
        if not jfilt.compose(inverse, h1) == jfilt.identity_aut(g, h1.level):
            return False
    return True


# ---------------------------------------------------------------------------
# cli_chain: long words through JSON and the command-line interface


# Products are dealt from three size classes, as (g, k, factor shapes): p is a
# conjugating (phi_hat) factor of a kernel lift, f a mirrored (psi_hat)
# framing and t a mirrored full twist.  Small chains take 15-35 ms, middle
# ones 35-70 ms and large ones (about 900 letters) 240-450 ms on a 2-vCPU
# Xeon.  Dealt small, small, middle, middle, large, the median job falls
# inside the middle class and the 90th percentile inside the large one.
CHAIN_SMALL = [(2, 1, "pf"), (2, 1, "ptf"), (3, 1, "pf"), (3, 1, "fpf")]
CHAIN_MIDDLE = [(2, 2, "pf"), (2, 2, "fp"), (2, 2, "pff"), (2, 2, "fpf")]
CHAIN_LARGE = [(2, 2, "pp")]
CHAIN_CLASSES = [CHAIN_SMALL, CHAIN_SMALL, CHAIN_MIDDLE, CHAIN_MIDDLE, CHAIN_LARGE]
# Signs of the first and second p factor of a product, dealt within each
# class.  The four (2,2) pp products differ only in these signs, from 869 to
# 919 letters, and the longer ones take about a tenth longer; dealing them
# gives every pool each of the four once, so the 90th percentile, which falls
# among them, does not move with the seed.
CHAIN_SIGNS = [(1, 1), (1, -1), (-1, 1), (-1, -1)]


def aut_letters(h) -> int:
    return sum(len(w.letters) for w in h.images)


def _factor(rng, g, k, kind, sign):
    if kind == "p":
        return jfilt.phi_hat(_kernel_tuple(rng, g, k, "y", sign=sign))
    return jfilt.psi_hat(_x_tuple(rng, g, k, "framing" if kind == "f" else "twist"))


def chain_pool(rng: random.Random, size: int, workdir: str):
    """Draw a product of 2-3 factors per job, one size class after another,
    redrawing it while it has more than ``LETTER_BUDGET`` letters; write the
    factors as JSON under ``workdir``."""
    deal = {id(cls): iter(bag(rng, cls, size)) for cls in CHAIN_CLASSES}
    signs = {id(cls): iter(bag(rng, CHAIN_SIGNS, size)) for cls in CHAIN_CLASSES}
    pool = []
    for i, cls in enumerate(bag(rng, CHAIN_CLASSES, size)):
        g, k, shape = next(deal[id(cls)])
        pair = next(signs[id(cls)])
        while True:
            p_signs = iter(pair)
            factors = [_factor(rng, g, k, c, next(p_signs) if c == "p" else None) for c in shape]
            if aut_letters(functools.reduce(jfilt.compose, factors)) <= LETTER_BUDGET:
                break
        paths = []
        for j, f in enumerate(factors):
            path = os.path.join(workdir, "job%02d_f%d.json" % (i, j))
            with open(path, "w") as fh:
                json.dump(jfilt.aut_to_json(f), fh)
            paths.append(path)
        pool.append((g, k, paths, factors, os.path.join(workdir, "job%02d" % i)))
    return pool


def chain_cache_keys(pool):
    return [(n, d) for g, k, *_ in pool for n in (g, 2 * g) for d in range(1, k + 4)]


def chain_run(job):
    g, k, paths, _, stem = job
    product = stem + "_product.json"
    steps = [
        ["aut", "compose", *paths, "--out", product],
        ["aut", "degree", product, "--out", stem + "_degree.json"],
        ["aut", "check-aut0", product, "--out", stem + "_aut0.json"],
        ["lagrangian", "degree", product, "--out", stem + "_ldegree.json"],
        ["lagrangian", "jl", product, "--out", stem + "_jl.json"],
        # The first factor, not the product: invert_aut of products is the
        # known hot spot (NOTES.md) and would swamp every other step.
        ["aut", "invert", paths[0], "--out", stem + "_inverse.json"],
    ]
    out = []
    for argv in steps:
        code = jfilt.cli.run(argv)
        with open(argv[-1]) as fh:
            out.append((code, fh.read()))
    return out


def chain_verify(job, out) -> bool:
    g, k, _, factors, _ = job
    if any(code != 0 for code, _ in out):
        return False
    docs = [json.loads(text) for _, text in out]
    product = functools.reduce(jfilt.compose, factors)
    if not jfilt.aut_from_json(docs[0]) == product:
        return False
    if docs[1] != {"filtration_degree": jfilt.filtration_degree(product)}:
        return False
    if docs[2] != {"check_aut0": jfilt.check_aut0(jfilt.aut_from_json(docs[0]))}:
        return False
    ldegree = jfilt.lagrangian_degree(product)
    if docs[3] != {"lagrangian_degree": ldegree}:
        return False
    jk = max(min(ldegree, product.level - 2), 1)
    report = jfilt.jl_element(product, jk)
    want = {"g": g, "k": jk, "value": jfilt.tensor_to_json(report.value), "in_hat": report.in_hat}
    if docs[4] != want:
        return False
    inverse = jfilt.aut_from_json(docs[5])
    ident = jfilt.identity_aut(g, factors[0].level)
    return jfilt.compose(factors[0], inverse) == ident and jfilt.compose(inverse, factors[0]) == ident


# ---------------------------------------------------------------------------


class Workload:
    def __init__(self, name: str, why: str, pool_size: int, make_pool: Callable,
                 cache_keys: Callable, run: Callable, verify: Callable,
                 unused: Dict[str, str]):
        self.name = name
        self.why = why
        # A multiple of every bag size the pool deals from, so the pool holds
        # each size class in its set share.
        self.pool_size = pool_size
        self._make_pool = make_pool
        self.cache_keys = cache_keys
        self.run = run
        self.verify = verify
        self.unused = unused  # layer -> why this workload never calls it

    def pool(self, rng: random.Random, workdir: str):
        """The run's inputs, drawn from ``rng``; files go under ``workdir``."""
        return self._make_pool(rng, self.pool_size, workdir)


_NO_WORDS = "no words are involved"
_NO_AUT = "no automorphisms are built"
_NO_CLI = "the library is called directly, not through the CLI"
_NO_ORIENT = "only the trees workload orients graphs"

WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in [
        Workload(
            "lattice",
            "dense Smith normal form dominates: dk_basis and the matrix rank route "
            "on contraction matrices up to 315x420; no words are involved",
            12, lambda rng, size, workdir: lattice_pool(rng, size), lattice_cache_keys,
            lattice_run, lattice_verify,
            {"words": _NO_WORDS, "trees": "no trees are built", "automorphisms": _NO_AUT,
             "lagrangian": _NO_AUT, "orientation": _NO_ORIENT, "cli": _NO_CLI},
        ),
        Workload(
            "trees",
            "many tiny Lie brackets: span_check and tree_to_dk on seeded labeled "
            "trees, plus the only use of graph orientation",
            12, lambda rng, size, workdir: trees_pool(rng, size), trees_cache_keys,
            trees_run, trees_verify,
            {"words": _NO_WORDS, "automorphisms": _NO_AUT, "lagrangian": _NO_AUT,
             "cli": _NO_CLI},
        ),
        Workload(
            "aut_query",
            "Magnus expansion of short words: automorphisms built fresh per job and "
            "queried a few times, so construction cost shows",
            12, lambda rng, size, workdir: aut_pool(rng, size), aut_cache_keys,
            aut_run, aut_verify,
            {"orientation": _NO_ORIENT, "cli": _NO_CLI},
        ),
        Workload(
            "cli_chain",
            "long words, JSON and the CLI: parse, compose and render products of "
            "2-3 automorphisms of up to %d letters" % LETTER_BUDGET,
            20, chain_pool, chain_cache_keys,
            chain_run, chain_verify,
            {"orientation": _NO_ORIENT},
        ),
    ]
}
