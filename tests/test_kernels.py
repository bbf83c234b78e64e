"""Contract of the integer kernels: each equals a naive generator-based
reference on random integers far beyond 64 bits, and each length mismatch
raises ValueError instead of being truncated away by map or zip."""
from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tamelift.acceptance import LIFT_PRESETS
from tamelift.crystalline_lift import make_crys_tuple, reduction
from tamelift.lattice import (
    dot,
    mat_mul,
    mat_vec,
    vec_add,
    vec_mod,
    vec_neg,
    vec_scale,
    vec_sub,
)
from tamelift.root_datum import build_root_datum, root_pairings

BIG = 2 ** 200
big_ints = st.integers(-BIG, BIG)
DATA = {name: build_root_datum(name) for name in LIFT_PRESETS}
# prime powers with N = q^f - 1 well beyond 64 bits
PRIME_POWERS = (2, 3, 5, 2 ** 67, 3 ** 41)

CONTRACT = settings(max_examples=100, derandomize=True, database=None,
                    deadline=None)


def vectors(n):
    return st.tuples(*[big_ints] * n)


@st.composite
def vector_pairs(draw):
    n = draw(st.integers(0, 8))
    return draw(vectors(n)), draw(vectors(n))


@st.composite
def matrix_pairs(draw):
    m, k, n = (draw(st.integers(1, 5)) for _ in range(3))
    a = draw(st.tuples(*[vectors(k)] * m))
    b = draw(st.tuples(*[vectors(n)] * k))
    return a, b


def ref_dot(u, v):
    return sum(a * b for a, b in zip(u, v))


@CONTRACT
@given(vector_pairs(), big_ints, st.integers(1, BIG))
def test_vector_kernels_match_references(uv, c, n):
    u, v = uv
    assert dot(u, v) == ref_dot(u, v)
    assert vec_add(u, v) == tuple(a + b for a, b in zip(u, v))
    assert vec_sub(u, v) == tuple(a - b for a, b in zip(u, v))
    assert vec_neg(u) == tuple(-a for a in u)
    assert vec_scale(c, u) == tuple(c * a for a in u)
    assert vec_mod(u, n) == tuple(a % n for a in u)


@CONTRACT
@given(matrix_pairs())
def test_matrix_kernels_match_references(ab):
    a, b = ab
    x = tuple(row[0] for row in b)  # a column of b: len(x) = len(a[0])
    assert mat_vec(a, x) == tuple(ref_dot(row, x) for row in a)
    cols = tuple(zip(*b))
    assert mat_mul(a, b) == tuple(tuple(ref_dot(row, col) for col in cols)
                                  for row in a)


@CONTRACT
@given(st.sampled_from(LIFT_PRESETS), st.data())
def test_root_pairings_match_the_pairing_form(preset, data):
    # <alpha, y> = alpha^T . pairing . y, read off the datum's own fields
    datum = DATA[preset]
    y = data.draw(vectors(datum.rank))
    assert root_pairings(datum, y) == tuple(
        sum(alpha[i] * datum.pairing[i][j] * y[j]
            for i in range(datum.rank) for j in range(datum.rank))
        for alpha in datum.roots)


@CONTRACT
@given(st.sampled_from(LIFT_PRESETS), st.sampled_from(PRIME_POWERS),
       st.integers(1, 4), st.data())
def test_reduction_matches_the_slot_sum(preset, q, f, data):
    datum = DATA[preset]
    slots = data.draw(st.tuples(*[vectors(datum.rank)] * f))
    n = q ** f - 1
    expected = tuple(sum(q ** j * s[i] for j, s in enumerate(slots)) % n
                     for i in range(datum.rank))
    assert reduction(make_crys_tuple(datum, q, slots)) == expected


def test_length_mismatches_raise():
    u, v = (1, 2, 3), (4, 5)
    for kernel in (dot, vec_add, vec_sub):
        with pytest.raises(ValueError, match="dimension mismatch"):
            kernel(u, v)
        with pytest.raises(ValueError, match="dimension mismatch"):
            kernel(v, u)
    square = ((1, 2), (3, 4))
    with pytest.raises(ValueError, match="dimension mismatch"):
        mat_vec(square, u)
    with pytest.raises(ValueError, match="dimension mismatch"):
        mat_vec(((1, 2), (3, 4, 5)), v)  # a ragged row
    with pytest.raises(ValueError, match="dimension mismatch"):
        mat_vec(((1, 2, 3), (3, 4)), u)
    with pytest.raises(ValueError, match="dimension mismatch"):
        mat_mul(square, ((1, 2),))
    gl3 = DATA["GL3"]
    for y in ((1, 2), (1, 2, 3, 4)):
        with pytest.raises(ValueError, match="dimension mismatch"):
            root_pairings(gl3, y)
