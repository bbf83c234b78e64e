"""Tests for cocharacter dynamics: parabolic types, chamber sums, orbit sums."""
from __future__ import annotations

import itertools
import random

import pytest

from tamelift.dynamic import (
    ParabolicType,
    chamber_sum,
    frobenius_orbit_sum,
    normalizer_element_in_parabolic,
    parabolic_of,
    parabolic_to_dict,
)
from tamelift.errors import ChamberMismatchError
from tamelift.lattice import dot, mat_vec
from tamelift.root_datum import (
    build_root_datum,
    root_permutation,
    weyl_from_word,
    weyl_group_elements,
    weyl_identity,
)


def sign_split(datum, lam):
    """Independent split of root indices by pairing sign."""
    nonneg, levi, unipotent = set(), set(), set()
    for i, alpha in enumerate(datum.roots):
        v = dot(alpha, mat_vec(datum.pairing, lam))
        if v >= 0:
            nonneg.add(i)
        if v == 0:
            levi.add(i)
        if v > 0:
            unipotent.add(i)
    return nonneg, levi, unipotent


def test_parabolic_of_zero_cochar_is_whole_group():
    datum = build_root_datum("GL3")
    p = parabolic_of(datum, (0, 0, 0))
    assert p.nonneg_roots == frozenset(range(len(datum.roots)))
    assert p.levi_roots == p.nonneg_roots
    assert p.unipotent_roots == frozenset()


def test_parabolic_of_gl4_block_example():
    # (7,3,7,3) groups slots {1,3} and {2,4}; indices checked by hand
    # against the sorted GL4 root list.
    datum = build_root_datum("GL4")
    p = parabolic_of(datum, (7, 3, 7, 3))
    assert sorted(p.nonneg_roots) == [1, 3, 4, 6, 8, 9, 10, 11]
    assert sorted(p.levi_roots) == [1, 3, 8, 10]
    assert sorted(p.unipotent_roots) == [4, 6, 9, 11]


def test_same_parabolic_examples():
    gl2 = build_root_datum("GL2")
    assert parabolic_of(gl2, (1, 0)) == parabolic_of(gl2, (5, 2))
    assert parabolic_of(gl2, (1, 0)) != parabolic_of(gl2, (0, 1))
    # boundary vs interior of the same closed chamber differ
    assert parabolic_of(gl2, (1, 0)) != parabolic_of(gl2, (1, 1))


def test_chamber_sum_example():
    datum = build_root_datum("GL4")
    assert chamber_sum(datum, (3, 2, 1, 0), (7, 5, 3, 1)) == (10, 7, 4, 1)


def test_chamber_sum_rejects_mismatched_chambers():
    datum = build_root_datum("GL2")
    with pytest.raises(ChamberMismatchError):
        chamber_sum(datum, (1, 0), (0, 1))


def test_chamber_sum_rejects_closed_chamber_walls():
    datum = build_root_datum("GL2")
    with pytest.raises(ChamberMismatchError):
        chamber_sum(datum, (1, 1), (1, 1))


def test_chamber_sum_stays_in_chamber():
    datum = build_root_datum("GL4")
    lam, mu = (3, 2, 1, 0), (7, 5, 3, 1)
    total = chamber_sum(datum, lam, mu)
    assert parabolic_of(datum, total) == parabolic_of(datum, lam)


def test_frobenius_orbit_sum_gl4():
    datum = build_root_datum("GL4")
    w = weyl_from_word(datum, [1, 0, 2, 1])  # the permutation (13)(24)
    assert w.apply((3, 1, 4, 2)) == (4, 2, 3, 1)
    assert frobenius_orbit_sum(datum, (3, 1, 4, 2), w, 2) == (7, 3, 7, 3)


def test_frobenius_orbit_sum_identity_scales():
    datum = build_root_datum("GL3")
    w = weyl_identity(datum)
    assert frobenius_orbit_sum(datum, (2, 5, 1), w, 3) == (6, 15, 3)


def test_frobenius_orbit_sum_gl2_swap():
    datum = build_root_datum("GL2")
    w = weyl_from_word(datum, [0])
    assert frobenius_orbit_sum(datum, (1, 0), w, 2) == (1, 1)


def test_frobenius_orbit_sum_rejects_nonpositive_count():
    datum = build_root_datum("GL2")
    with pytest.raises(ValueError):
        frobenius_orbit_sum(datum, (1, 0), weyl_identity(datum), 0)


def test_normalizer_element_examples():
    gl4 = build_root_datum("GL4")
    w = weyl_from_word(gl4, [1, 0, 2, 1])
    assert normalizer_element_in_parabolic(gl4, w, parabolic_of(gl4, (1, 0, 1, 0)))

    gl2 = build_root_datum("GL2")
    swap = weyl_from_word(gl2, [0])
    assert not normalizer_element_in_parabolic(gl2, swap, parabolic_of(gl2, (1, 0)))
    # everything normalizes the whole group
    assert normalizer_element_in_parabolic(gl2, swap, parabolic_of(gl2, (0, 0)))


def test_partition_invariants():
    rng = random.Random(7)
    for name in ["GL2", "GL3", "GL4", "Sp4", "SO5", "G2"]:
        datum = build_root_datum(name)
        all_indices = set(range(len(datum.roots)))
        neg_of = {i: datum.root_index(tuple(-c for c in a))
                  for i, a in enumerate(datum.roots)}
        for _ in range(20):
            lam = tuple(rng.randrange(-3, 4) for _ in range(datum.rank))
            p = parabolic_of(datum, lam)
            nonneg, levi, unipotent = sign_split(datum, lam)
            assert p.nonneg_roots == nonneg
            assert p.levi_roots == levi
            assert p.unipotent_roots == unipotent
            assert levi | unipotent == nonneg
            assert not levi & unipotent
            mirrored = {neg_of[i] for i in nonneg}
            assert nonneg | mirrored == all_indices
            assert nonneg & mirrored == levi


def test_root_addition_closure():
    # each of the three subsets is closed under adding roots within it
    for name in ["GL4", "Sp4", "G2"]:
        datum = build_root_datum(name)
        index_of = {a: i for i, a in enumerate(datum.roots)}
        for lam in itertools.product(range(-1, 3), repeat=datum.rank):
            p = parabolic_of(datum, lam)
            for part in (p.nonneg_roots, p.levi_roots, p.unipotent_roots):
                for i, j in itertools.combinations(sorted(part), 2):
                    total = tuple(a + b for a, b in
                                  zip(datum.roots[i], datum.roots[j]))
                    if total in index_of:
                        assert index_of[total] in part


def test_weyl_translation_moves_parabolic():
    for name in ["GL3", "Sp4", "G2"]:
        datum = build_root_datum(name)
        rng = random.Random(11)
        for w in weyl_group_elements(datum):
            perm = root_permutation(datum, w)
            for _ in range(5):
                lam = tuple(rng.randrange(-3, 4) for _ in range(datum.rank))
                p = parabolic_of(datum, lam)
                q = parabolic_of(datum, w.apply(lam))
                assert q.nonneg_roots == {perm[i] for i in p.nonneg_roots}
                assert q.levi_roots == {perm[i] for i in p.levi_roots}


def test_fixed_cochar_gives_normalizer_membership():
    for name in ["GL3", "Sp4"]:
        datum = build_root_datum(name)
        rng = random.Random(13)
        for w in weyl_group_elements(datum):
            for _ in range(10):
                lam = tuple(rng.randrange(-3, 4) for _ in range(datum.rank))
                if w.apply(lam) == lam:
                    p = parabolic_of(datum, lam)
                    assert normalizer_element_in_parabolic(datum, w, p)


def test_parabolic_equality_ignores_defining_cochar():
    datum = build_root_datum("GL2")
    a = parabolic_of(datum, (1, 0))
    b = parabolic_of(datum, (5, 2))
    assert a == b
    assert hash(a) == hash(b)
    assert a != parabolic_of(datum, (0, 1))
    # the nonnegative set alone decides equality and the hash
    bare = ParabolicType((0, 0), a.nonneg_roots, frozenset(), frozenset())
    assert bare == a and hash(bare) == hash(a)
    assert a != "not a parabolic"


def test_parabolic_to_dict():
    datum = build_root_datum("GL4")
    p = parabolic_of(datum, (7, 3, 7, 3))
    assert parabolic_to_dict(p) == {
        "cochar": [7, 3, 7, 3],
        "nonneg": [1, 3, 4, 6, 8, 9, 10, 11],
        "levi": [1, 3, 8, 10],
        "unipotent": [4, 6, 9, 11],
    }
