"""The packed root pairing: `root_pairings`, `is_regular_cochar` and the
all-slots test `_all_regular` against the plain sums of
`pairing_reference`, at the edges of every field width, and the input
contract of the public functions."""
from __future__ import annotations

import random
from fractions import Fraction

import pairing_reference as ref
import pytest
from fraction_reference import sheared_gl3

from tamelift.hodge_tate import HTType, is_ht_regular
from tamelift.root_datum import (
    _all_regular,
    _packed_functionals,
    build_root_datum,
    is_regular_cochar,
    make_root_datum,
    root_functionals,
    root_pairings,
)

# every preset up to rank 8, G2, GL3 under a non-identity pairing, and two
# data without roots
PRESETS = (
    [f"GL{n}" for n in range(1, 9)] + [f"SL{n}" for n in range(2, 10)]
    + [f"Sp{n}" for n in range(2, 17, 2)] + [f"SO{n}" for n in range(2, 18)]
    + ["G2"])
DATA = {name: build_root_datum(name) for name in PRESETS}
DATA["sheared-GL3"] = sheared_gl3()
DATA["rank-0"] = make_root_datum(0, [], [], [], [], "rank-0")
# entries up to 10^400 need widths up to 2048 bits
WIDTHS = [1 << j for j in range(12)]


def _norm(datum):
    return max((sum(map(abs, row)) for row in root_functionals(datum)),
               default=0)


def _singular(datum, y):
    """y moved into the kernel of one root functional a: (a . e) y -
    (a . y) e for a unit vector e that a does not kill."""
    if not datum.roots:
        return y
    a = root_functionals(datum)[len(datum.roots) // 2]
    c = next(i for i, x in enumerate(a) if x)
    ay = sum(x * v for x, v in zip(a, y))
    return tuple(a[c] * v - (ay if i == c else 0) for i, v in enumerate(y))


def _edge_vectors(datum, rng):
    """For each width k, vectors whose bound (largest L1 norm of a root
    functional) . (largest |entry|) is the largest that fits k and the
    smallest that does not: 2^(k-1) - 1 and 2^(k-1) where the norm is 1
    (SO3), the nearest multiples of the norm elsewhere.  One root pairs to
    the bound itself."""
    norm = _norm(datum)
    if not norm:
        return [(0,) * datum.rank]
    top = max(root_functionals(datum), key=lambda row: sum(map(abs, row)))
    signs = tuple((x > 0) - (x < 0) for x in top)
    out = []
    for k in WIDTHS:
        half = 1 << k - 1
        for m in {(half - 1) // norm, -(-half // norm)}:
            if not m:
                continue
            out += [tuple(m * s for s in signs), tuple(-m * s for s in signs),
                    (m,) * datum.rank]
            out.append(tuple(m * rng.choice((-1, 0, 1))
                             for _ in range(datum.rank)))
    return out


def _huge_vectors(datum, rng):
    big = 10 ** 400
    out = [tuple(rng.randint(-big, big) for _ in range(datum.rank))
           for _ in range(3)]
    return out + [_singular(datum, y) for y in out]


@pytest.mark.parametrize("name", list(DATA))
def test_packed_pairing_matches_the_plain_sums(name):
    datum = DATA[name]
    rng = random.Random(name)
    vectors = ([(0,) * datum.rank] + _edge_vectors(datum, rng)
               + _huge_vectors(datum, rng))
    vectors += [_singular(datum, y) for y in vectors[:20]]
    outcomes = set()
    for y in vectors:
        assert root_pairings(datum, y) == ref.root_pairings(datum, y), y
        regular = ref.is_regular_cochar(datum, y)
        assert is_regular_cochar(datum, y) == regular, y
        assert _all_regular(datum, (y,)) == regular, y
        outcomes.add(regular)
    if datum.roots:
        assert outcomes == {True, False}
    # several slots share one width, set by the largest entry among them:
    # a small singular slot next to a huge regular one is still caught
    for _ in range(20):
        slots = tuple(rng.sample(vectors, rng.randint(1, 4)))
        assert _all_regular(datum, slots) == ref.all_regular(datum, slots)
        assert _all_regular(datum, slots[::-1]) == ref.all_regular(datum,
                                                                   slots)


def test_packed_entries_are_keyed_by_width_alone():
    gl3 = build_root_datum("GL3")
    datum = make_root_datum(gl3.rank, gl3.roots, gl3.coroots, gl3.pairing,
                            gl3.simple_roots, label="GL3/packing-test")
    # every third bit count meets every width from 4 to 16384
    for bits in range(1, 10_001, 3):
        y = (1 << bits - 1, -1, 0)
        pairings = root_pairings(datum, y)
        if bits % 501 == 1:
            assert pairings == ref.root_pairings(datum, y)
    widths = datum._memo[_packed_functionals]
    widest = max(widths)
    assert all(k & (k - 1) == 0 for k in widths)
    # the bound 2 . 2^9999 needs k = 16384; the entries sit at log2(k) + 1
    # widths at most, here 4, 8, ..., 16384
    assert widest == 16384
    assert len(widths) <= widest.bit_length()
    assert sorted(widths) == [1 << j for j in range(2, 15)]


@pytest.mark.parametrize("entry", [1.0, 2.5, True, Fraction(1)],
                         ids=["float", "non-integral-float", "bool",
                              "Fraction"])
def test_non_int_entries_are_refused(entry):
    gl3 = DATA["GL3"]
    y = (3, entry, 0)
    message = f"cocharacter entry {entry!r} is not an integer"
    for check in (lambda: root_pairings(gl3, y),
                  lambda: is_regular_cochar(gl3, y),
                  lambda: is_ht_regular(gl3, HTType(f=2, cochars=((2, 1, 0),
                                                                 y)))):
        with pytest.raises(ValueError) as caught:
            check()
        assert str(caught.value) == message


def test_int_subclasses_other_than_bool_are_paired():
    class Tagged(int):
        pass

    gl2 = DATA["GL2"]
    assert root_pairings(gl2, (Tagged(3), 1)) == (-2, 2)
    assert not is_regular_cochar(gl2, (Tagged(1), 1))


def test_ht_regularity_checks_every_slot_at_one_width():
    gl2 = DATA["GL2"]
    big = 10 ** 400
    assert is_ht_regular(gl2, HTType(f=2, cochars=((big, 0), (1, 2))))
    assert not is_ht_regular(gl2, HTType(f=2, cochars=((big, 0), (2, 2))))
    assert not is_ht_regular(gl2, HTType(f=2, cochars=((2, 2), (big, 0))))
    with pytest.raises(ValueError, match="dimension mismatch"):
        is_ht_regular(gl2, HTType(f=1, cochars=((1, 2, 3),)))

