"""Golden outputs of the tree-kernel path: bracket matrices, tree images,
rooted brackets, span ranks and the graph census, pinned as sha256 digests
of their compact JSON.  A rewrite of the bracket arithmetic, the tree
evaluator or the graph assembler must leave every digest unchanged.  So
must a rewrite of the Magnus expansion leave the words that ``compose`` and
``invert_aut`` build."""

import hashlib
import json
import random

from jfilt.automorphisms import (
    compose,
    full_twist_tuple,
    invert_aut,
    phi_hat,
    psi_hat,
    random_kernel_tuple,
)
from jfilt.brackets import bracket_matrix
from jfilt.lie import witt_dimension
from jfilt.orientation import enumerate_unitrivalent
from jfilt.trees import UNIVALENT, random_labeled_tree, rooted_bracket, span_check, tree_to_dk


def _digest(obj):
    return hashlib.sha256(json.dumps(obj, separators=(",", ":")).encode()).hexdigest()


def _matrix_sizes():
    # Every (n, k) with n >= 2, k >= 1 and n * W(n, k+1) <= 420 columns.
    out = []
    n = 2
    while n * witt_dimension(n, 2) <= 420:
        k = 1
        while n * witt_dimension(n, k + 1) <= 420:
            out.append((n, k))
            k += 1
        n += 1
    return out


BRACKET_MATRIX_SIZES = 25
BRACKET_MATRIX_DIGEST = "7f694aa4fbc4f443aeec1b2df3b85db2b82c1835331878e4854e3a5ecc76a199"
TREE_IMAGE_DIGEST = "c23c3666df7be51e708267faef75c20badfdc647c810c85b8d1a3ac9022a5129"
ROOTED_BRACKET_DIGEST = "8286bb3dabe0e4f0a020e062a62b838282ba256cea559c8b20a8105ddf7b2fce"
SPAN_CHECK_DIGEST = "13feba55ba2ff50129fcf810693a98fb0b229c93fbfc02f798e17381da595a3a"
CENSUS_4_DIGEST = "b44b5f7ce92ab83bafa78c75ad64ead32b384e6a1b93b175009af0badca9d08a"
AUT_WORDS_DIGEST = "e4fcc5f986980b83d0926ba308600f2773b306fd6202601c025c2ff9143088a3"

TREE_SAMPLES = 1000


def test_bracket_matrices_are_pinned():
    sizes = _matrix_sizes()
    assert len(sizes) == BRACKET_MATRIX_SIZES
    assert _digest([bracket_matrix(n, k) for n, k in sizes]) == BRACKET_MATRIX_DIGEST


def test_tree_images_and_rooted_brackets_are_pinned():
    rng = random.Random(20261018)
    images, brackets = [], []
    for _ in range(TREE_SAMPLES):
        n, k = rng.randint(1, 4), rng.randint(1, 4)
        g = random_labeled_tree(rng, n, k)
        images.append([n, k, list(tree_to_dk(g).coords)])
        for vid, arity in g.vertices:
            if arity == UNIVALENT:
                brackets.append([n, k, vid, list(rooted_bracket(g, vid).coords)])
    assert _digest(images) == TREE_IMAGE_DIGEST
    assert _digest(brackets) == ROOTED_BRACKET_DIGEST


def test_span_check_values_are_pinned():
    pairs = [(2, 1), (3, 1), (4, 1), (2, 2), (3, 2), (4, 2), (2, 3)]
    assert _digest([list(span_check(n, k)) for n, k in pairs]) == SPAN_CHECK_DIGEST


def test_census_graphs_are_pinned():
    fields = [
        [g.n, g.vertices, g.edges, g.cyclic, g.labels] for g in enumerate_unitrivalent(4)
    ]
    assert _digest(fields) == CENSUS_4_DIGEST


def test_composed_and_inverted_words_are_pinned():
    # invert_aut stops at the first round whose error equals the identity,
    # so its words also pin the answers of those equality tests.
    rng = random.Random(20261018)
    out = []
    for g in (1, 2, 3):
        for k in (1, 2):
            h1 = phi_hat(random_kernel_tuple(rng, g, k))
            h2 = psi_hat(random_kernel_tuple(rng, g, k, "x"))
            h3 = psi_hat(full_twist_tuple(g, k + 2, rng.choice((-1, 1)), "x"))
            for h in (compose(h1, h2), compose(h2, h1), compose(compose(h1, h3), h1),
                      invert_aut(h1), invert_aut(h2), invert_aut(h3)):
                out.append([g, k, h.level, [[list(l) for l in w.letters] for w in h.images]])
    assert _digest(out) == AUT_WORDS_DIGEST
