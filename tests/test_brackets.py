"""Tests for the bracket contraction, its kernel, and tensor transport."""

import random
import time
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jfilt.brackets import (
    MAX_MATRIX_CELLS,
    TensorElement,
    a1_dimensions,
    bracket_map,
    bracket_matrix,
    dk_basis,
    dk_rank,
    embed_tensor,
    map_tensor_first,
    map_tensor_second,
    tensor_from_components,
    tensor_from_json,
    tensor_to_json,
)
from jfilt.errors import PreconditionError, ValidationError
from jfilt.lie import (
    LieElement,
    generator_element,
    hall_basis,
    lie_bracket,
    lie_map,
    lyndon_words,
    tensor_bracket,
    tensor_to_lyndon,
    witt_content_dimension,
    witt_dimension,
)
from jfilt.snf import integer_rank

from tensor_reference import dense_coords, lie_to_tensor, tensor_from_coords


def test_frozen_rank_values():
    # level 1 over 2g generators equals binom(2g, 3)
    for g in (1, 2, 3, 4):
        assert dk_rank(2 * g, 1) == comb(2 * g, 3)
    assert dk_rank(4, 3) == 4 * 60 - 204  # 4*W(4,4) - W(4,5) = 36
    assert dk_rank(3, 2) == 6
    assert dk_rank(2, 2) == 1
    assert dk_rank(3, 1) == 1
    assert dk_rank(2, 1) == 0
    assert dk_rank(2, 3) == 0


def test_formula_and_matrix_routes_agree():
    for n in (1, 2, 3, 4):
        for k in (1, 2, 3):
            if n * witt_dimension(n, k + 1) > 250:
                continue
            assert dk_rank(n, k, "formula") == dk_rank(n, k, "matrix")


def test_contraction_is_onto():
    # full row rank certifies surjectivity, which the formula route relies on
    for n, k in ((2, 1), (2, 2), (3, 1), (3, 2), (4, 1)):
        matrix = bracket_matrix(n, k)
        assert integer_rank(matrix) == witt_dimension(n, k + 2)


def test_basis_lies_in_kernel_and_has_right_size():
    for n, k in ((2, 2), (3, 1), (3, 2), (4, 1)):
        basis = dk_basis(n, k)
        assert len(basis) == dk_rank(n, k)
        for elem in basis:
            assert bracket_map(elem).is_zero


def test_basis_is_linearly_independent():
    basis = dk_basis(4, 1)
    matrix = [list(elem.coords) for elem in basis]
    assert integer_rank(matrix) == len(basis)


def test_known_kernel_element_level_one():
    # e0 (x) [e1, e2] + e1 (x) [e2, e0] + e2 (x) [e0, e1] is killed by the
    # contraction (Jacobi), giving the classical rank-one kernel at n = 3.
    n = 3
    e = [generator_element(n, i) for i in range(n)]
    t = tensor_from_components(
        n,
        1,
        {
            0: lie_bracket(e[1], e[2]),
            1: lie_bracket(e[2], e[0]),
            2: lie_bracket(e[0], e[1]),
        },
    )
    assert bracket_map(t).is_zero
    assert dk_rank(3, 1) == 1
    basis = dk_basis(3, 1)
    # t must be an integer multiple of the basis vector (here, exactly +-1 times)
    vec = basis[0].coords
    ratios = {c // v for c, v in zip(t.coords, vec) if v != 0}
    assert len(ratios) == 1
    ratio = ratios.pop()
    assert basis[0].scale(ratio).coords == t.coords


def test_simple_tensor_contraction():
    n = 2
    u = lie_bracket(generator_element(n, 0), generator_element(n, 1))
    t = tensor_from_components(n, 1, {0: u})
    image = bracket_map(t)
    expected = lie_bracket(generator_element(n, 0), u)
    assert image == expected
    assert not image.is_zero


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 4), st.integers(1, 3), st.integers(0, 10**6))
def test_bracket_map_matches_the_validating_read_back(n, k, seed):
    rng = random.Random(seed)
    coords = tuple(rng.choice((0, 0, 1, -1, 2)) for _ in range(n * witt_dimension(n, k + 1)))
    t = tensor_from_coords(n, k, coords)
    tensor = {}
    for a in range(n):
        for m, c in tensor_bracket({(a,): 1}, lie_to_tensor(t.component(a))).items():
            tensor[m] = tensor.get(m, 0) + c
    tensor = {m: c for m, c in tensor.items() if c}
    assert bracket_map(t) == tensor_to_lyndon(tensor, n, k + 2)


def test_bracket_matrix_refuses_past_the_cell_bound_before_allocating():
    # (10, 2) has 10 * 330 * 2475 cells, just over twice the bound; no Lyndon
    # basis is asked for before the refusal.
    assert 10 * witt_dimension(10, 3) * witt_dimension(10, 4) > MAX_MATRIX_CELLS
    before = hall_basis.cache_info()
    with pytest.raises(PreconditionError, match="over the bound"):
        bracket_matrix(10, 2)
    after = hall_basis.cache_info()
    assert (after.hits, after.misses) == (before.hits, before.misses)
    # The matrix rank route bounds each content block, not the whole matrix.
    assert dk_rank(10, 2, method="matrix") == 825
    assert dk_rank(10, 2) == 10 * 330 - 2475
    # dk basis 6 3 and criterion 1's largest matrix, (8, 1), stay inside.
    for n, k in ((6, 3), (8, 1)):
        assert n * witt_dimension(n, k + 1) * witt_dimension(n, k + 2) <= MAX_MATRIX_CELLS


def _block_cells(n, k):
    # Cells of the largest content block: a partition of k + 2 into at most
    # n parts, by the multigraded Witt counts.
    def partitions(total, parts, largest):
        if total == 0:
            yield ()
        elif parts:
            for first in range(min(total, largest), 0, -1):
                for rest in partitions(total - first, parts - 1, first):
                    yield (first,) + rest

    def cells(shape):
        less = [shape[:a] + (shape[a] - 1,) + shape[a + 1:] for a in range(len(shape))]
        return witt_content_dimension(shape) * sum(map(witt_content_dimension, less))

    return max(cells(shape) for shape in partitions(k + 2, n, k + 2))


def test_matrix_route_equals_the_formula_block_by_block():
    for n in range(1, 11):
        for k in range(1, 6):
            assert _block_cells(n, k) <= MAX_MATRIX_CELLS, (n, k)
            assert dk_rank(n, k, "matrix") == dk_rank(n, k), (n, k)
    # Past the whole-matrix bound, each in bounded time.
    for n, k, rank in ((10, 2, 825), (8, 3, 1512), (4, 5, 340)):
        assert n * witt_dimension(n, k + 1) * witt_dimension(n, k + 2) > MAX_MATRIX_CELLS
        start = time.perf_counter()
        assert dk_rank(n, k, "matrix") == dk_rank(n, k) == rank
        assert time.perf_counter() - start < 1.0


def test_matrix_route_refuses_a_block_past_the_bound_before_building_words():
    # (8, 6): the block of content 1^8 alone has 5040 x 5760 cells.
    assert _block_cells(8, 6) > MAX_MATRIX_CELLS
    before = lyndon_words.cache_info()
    with pytest.raises(PreconditionError, match="over the bound"):
        dk_rank(8, 6, "matrix")
    after = lyndon_words.cache_info()
    assert (after.hits, after.misses) == (before.hits, before.misses)
    assert dk_rank(8, 6) == 8 * witt_dimension(8, 7) - witt_dimension(8, 8)


def test_a1_dimension_pairs():
    assert a1_dimensions(1) == (0, 4)
    assert a1_dimensions(2) == (4, 11)
    assert a1_dimensions(3) == (20, 22)


def test_component_roundtrip():
    n, k = 3, 2
    rng = random.Random(3)
    w = witt_dimension(n, k + 1)
    coords = tuple(rng.randint(-4, 4) for _ in range(n * w))
    t = tensor_from_coords(n, k, coords)
    rebuilt = tensor_from_components(n, k, {a: t.component(a) for a in range(n)})
    assert rebuilt == t


def test_arithmetic_and_validation():
    t = TensorElement(2, 1, {})
    assert t.is_zero
    bracket = lie_bracket(generator_element(2, 0), generator_element(2, 1))
    u = tensor_from_components(2, 1, {1: bracket})
    assert (u + t) == u
    assert (u - u).is_zero
    assert u.scale(-3) == -(u + u + u)
    # Terms must be a dict of nonzero coefficients on basis keys.
    for terms in (
        (0,),
        {(0, (0, 1)): 0},
        {(2, (0, 1)): 1},
        {(0, (1, 0)): 1},
        {(0, (0, 1, 1)): 1},
        {(0, (0, 1), 5): 1},
        {0: 1},
    ):
        with pytest.raises(ValidationError):
            TensorElement(2, 1, terms)
    for terms in ((1,), {(0, 1): 0}, {(1, 0): 1}, {(0, 2): 1}, {(0,): 1}, {0: 1}):
        with pytest.raises(ValidationError):
            LieElement(2, 2, terms)
    with pytest.raises(ValidationError):
        tensor_from_components(2, 1, {5: LieElement(2, 2, {})})
    with pytest.raises(ValidationError):
        tensor_from_components(2, 1, {0: LieElement(2, 3, {})})


def test_embed_tensor_commutes_with_contraction():
    # embedding generators into a larger rank then contracting agrees with
    # contracting first and embedding the result
    n, k, n_target, shift = 2, 1, 4, 2
    u = lie_bracket(generator_element(n, 0), generator_element(n, 1))
    t = tensor_from_components(n, k, {1: u})
    big = embed_tensor(t, n_target, shift)
    inclusion = [[int(i == j + shift) for j in range(n)] for i in range(n_target)]
    assert lie_map(inclusion, bracket_map(t), n_target) == bracket_map(big)
    with pytest.raises(ValidationError, match="does not fit"):
        embed_tensor(t, n_target, n_target - 1)


def test_embed_tensor_of_kernel_stays_in_kernel():
    for elem in dk_basis(2, 2):
        assert bracket_map(embed_tensor(elem, 5, 3)).is_zero


def test_map_tensor_first_transpose_action():
    # first-factor transport along matrix rows-as-images
    n = 2
    u = lie_bracket(generator_element(n, 0), generator_element(n, 1))
    v = lie_bracket(u, generator_element(n, 1))
    t = tensor_from_components(n, 2, {0: lie_bracket(u, generator_element(n, 0)), 1: v})
    swap = [[0, 1], [1, 0]]
    moved = map_tensor_first(swap, t)
    assert moved.component(0) == t.component(1)
    assert moved.component(1) == t.component(0)
    add = [[1, 1], [0, 1]]  # e0 -> e0 + e1, e1 -> e1
    moved = map_tensor_first(add, t)
    assert moved.component(0) == t.component(0)
    assert moved.component(1) == t.component(0) + t.component(1)


def test_map_tensor_second_is_lie_substitution():
    n = 2
    u = lie_bracket(generator_element(n, 0), generator_element(n, 1))
    t = tensor_from_components(n, 1, {0: u})
    swap = [[0, 1], [1, 0]]
    moved = map_tensor_second(swap, t)
    assert moved.component(0) == -u  # [e1, e0] = -[e0, e1]
    assert moved.component(1).is_zero


def test_identity_transport_fixes_everything():
    ident = [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
    for elem in dk_basis(3, 1):
        assert map_tensor_first(ident, elem) == elem
        assert map_tensor_second(ident, elem) == elem


def test_json_roundtrip():
    basis = dk_basis(3, 2)
    for elem in basis[:3]:
        assert tensor_from_json(tensor_to_json(elem)) == elem
    for payload in (
        {"n": 2},
        {"n": "x", "k": 1, "coords": []},
        {"n": 2, "k": 1, "coords": ["a"]},
        {"n": 2, "k": 1, "coords": "12"},
        {"n": 2, "k": 1, "coords": [1]},
        {"n": 2, "k": 0, "coords": [1, 2, 3, 4]},
        {"n": float("inf"), "k": 1, "coords": []},
        {"n": 2, "k": 1, "coords": [float("inf")]},
        None,
    ):
        with pytest.raises(ValidationError):
            tensor_from_json(payload)


@pytest.mark.parametrize("payload", [[1, 2], "g", 3, None])
def test_json_rejects_a_payload_that_is_not_an_object(payload):
    with pytest.raises(ValidationError, match="^bad tensor element payload: expected a JSON object$"):
        tensor_from_json(payload)


@pytest.mark.parametrize("value", [True, 1.0, "1", None])
def test_json_rejects_integers_that_are_not_json_integers(value):
    good = tensor_to_json(dk_basis(3, 2)[0])
    for field in ("n", "k"):
        with pytest.raises(ValidationError, match="^bad tensor element payload: %s must be an integer$" % field):
            tensor_from_json(dict(good, **{field: value}))
    coords = [value] + good["coords"][1:]
    with pytest.raises(ValidationError, match="^bad tensor element payload: coords must be integers$"):
        tensor_from_json(dict(good, coords=coords))


@st.composite
def sparse_pairs(draw):
    """Two random Lie elements, or two random tensor elements, of one shape."""
    make = draw(st.sampled_from((LieElement, TensorElement)))
    n = draw(st.integers(1, 4))
    grade = draw(st.integers(1, 3))
    if make is LieElement:
        keys = hall_basis(n, grade).words
    else:
        keys = [(a, u) for a in range(n) for u in hall_basis(n, grade + 1).words]
    if not keys:
        return make(n, grade, {}), make(n, grade, {})
    terms = st.dictionaries(st.sampled_from(keys), st.integers(-3, 3).filter(bool), max_size=8)
    return make(n, grade, draw(terms)), make(n, grade, draw(terms))


@settings(max_examples=150, deadline=None)
@given(sparse_pairs())
def test_sparse_elements_arithmetic_json_and_dense_view(pair):
    u, v = pair
    back = u + v - v
    assert back == u and hash(back) == hash(u) and repr(back) == repr(u)
    reordered = type(u)(*u._shape(), dict(reversed(list(u.terms.items()))))
    assert reordered == u and hash(reordered) == hash(u) and repr(reordered) == repr(u)
    assert (u - u).is_zero and u.scale(0).is_zero
    for w in (u + v, u - v, -u, u.scale(2), u - u, u.scale(0)):
        assert 0 not in w.terms.values()
    assert u.coords == dense_coords(u)
    if isinstance(u, TensorElement):
        assert tensor_from_json(tensor_to_json(u)) == u
        assert tensor_from_coords(u.n, u.level, u.coords) == u


def test_rank_rejects_bad_input():
    with pytest.raises(ValidationError):
        dk_rank(0, 1)
    with pytest.raises(ValidationError):
        dk_rank(2, 0)
    with pytest.raises(ValidationError):
        dk_rank(2, 1, "guess")
