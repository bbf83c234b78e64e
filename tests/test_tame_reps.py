"""Tests for tame inertial pairs, the irreducibility criterion, and the
brute-force parabolic oracle."""
from __future__ import annotations

import itertools
import random
import re
import sys
from collections import Counter
from fractions import Fraction
from math import gcd, lcm

import pairing_reference as ref
import pytest
from fraction_reference import REFERENCE_PRESETS, coords_in_base, sheared_gl3
from hypothesis import given, settings
from hypothesis import strategies as st

from tamelift import dynamic, root_datum, tame_reps
from tamelift.acceptance import REGULAR_LIFT_MULTIPLIER_CAP
from tamelift.crystalline_lift import reduction
from tamelift.dynamic import (
    normalizer_element_in_parabolic,
    parabolic_of,
)
from tamelift.errors import GuardError, InvalidPairError
from tamelift.hodge_tate import regular_lift
from tamelift.lattice import (
    identity_matrix,
    integer_kernel_basis,
    mat_mul,
    mat_pow,
    mat_scale,
    mat_sub,
    mat_vec,
    smith_normal_form,
    vec_mod,
    vec_scale,
)
from tamelift.root_datum import (
    WeylElement,
    build_root_datum,
    datum_from_dict,
    datum_to_dict,
    make_root_datum,
    root_functionals,
    root_pairings,
    root_permutation,
    weyl_fixed_space,
    weyl_from_matrix,
    weyl_from_word,
    weyl_group_elements,
    weyl_identity,
)
from tamelift.tame_reps import (
    MODULUS_BITS_CAP,
    ORACLE_WEYL_CAP,
    PRIME_TRIAL_BOUND,
    IrreducibilityResult,
    TameInertialPair,
    _stable_proper_parabolics,
    _standard_parabolic_cochars,
    _torus_parabolics,
    brute_force_parabolic_oracle,
    check_weyl_order,
    inertia_centralizer_roots,
    is_G_irreducible,
    is_prime_power,
    make_pair,
    niveau,
    pair_from_dict,
    pair_to_dict,
    validate_pair,
)

GL2 = build_root_datum("GL2")
GL3 = build_root_datum("GL3")
GL4 = build_root_datum("GL4")
SWAP = weyl_from_word(GL2, [0])


def all_valid_vbars(datum, q, f, w):
    """Exhaustive independent enumeration of compatible vbar vectors."""
    n = q ** f - 1
    out = []
    for vbar in itertools.product(range(n), repeat=datum.rank):
        if vec_mod(w.apply(vbar), n) == vec_mod(vec_scale(q, vbar), n):
            out.append(vbar)
    return out


def test_is_prime_power():
    assert [x for x in range(1, 30) if is_prime_power(x)] == [
        2, 3, 4, 5, 7, 8, 9, 11, 13, 16, 17, 19, 23, 25, 27, 29]
    assert not is_prime_power(0)
    assert not is_prime_power(-8)


def trial_division_is_prime_power(q):
    # trial division with no bound, as is_prime_power once ran it
    if q < 2:
        return False
    p = 2
    while p * p <= q and q % p:
        p += 1
    if p * p > q:
        p = q
    while q % p == 0:
        q //= p
    return q == 1


def test_is_prime_power_matches_plain_trial_division():
    assert all(is_prime_power(q) == trial_division_is_prime_power(q)
               for q in range(-3, 10 ** 5))


def test_undecided_q_is_refused():
    # decided: small factors (2^67 and 3^41 are used in Tier-1), a prime
    # square just inside the bound, and the largest prime below
    # PRIME_TRIAL_BOUND^2 = 2^40
    for q in (2 ** 67, 3 ** 41, 999983 ** 2, 2 ** 40 - 87):
        assert is_prime_power(q)
    assert not is_prime_power(2 ** 40 - 1)
    # not decided: the primes 2^40 + 15 and 2^61 - 1; the second once ran
    # trial division up to 2^30.5 before any guard
    for q in (2 ** 40 + 15, 2 ** 61 - 1):
        with pytest.raises(GuardError, match=f"up to {PRIME_TRIAL_BOUND}"):
            make_pair(GL2, q, 1, (0, 0), SWAP)
        with pytest.raises(GuardError, match=f"up to {PRIME_TRIAL_BOUND}"):
            TameInertialPair(q=q, f=1, vbar=(0, 0), w=SWAP)


def test_pair_constructor_guards():
    with pytest.raises(ValueError):
        make_pair(GL2, 6, 1, (0, 0), SWAP)
    with pytest.raises(ValueError):
        make_pair(GL2, 1, 1, (0, 0), SWAP)
    with pytest.raises(ValueError):
        make_pair(GL2, 3, 0, (0, 0), SWAP)
    with pytest.raises(ValueError):
        make_pair(GL2, 3, 2, (0, 0, 0), SWAP)


def test_make_pair_takes_a_word_list_or_string():
    w = weyl_from_word(GL3, [0, 1])
    by_element = make_pair(GL3, 5, 3, (1, 5, 25), w)
    for word in ([0, 1], "s0 s1"):
        p = make_pair(GL3, 5, 3, (1, 5, 25), word)
        assert p == by_element and p.w.word == (0, 1)


def test_pair_rejects_a_vbar_of_the_wrong_length_for_w():
    # built directly, the pair skips make_pair's rank check against the
    # datum; it still compares vbar with the size of w
    with pytest.raises(ValueError, match="acts on rank 2"):
        TameInertialPair(q=3, f=2, vbar=(1, 3, 0), w=SWAP)


def test_pair_modulus_is_bounded():
    # admitted: N of exactly MODULUS_BITS_CAP bits (2^4096 - 1 and
    # 3^2584 - 1), E8's Coxeter moduli 3^30 - 1, a degree-3,000 lift and the
    # largest q in use
    for q, f in ((2, MODULUS_BITS_CAP), (3, 2584), (3, 30), (2, 3000),
                 (2 ** 67, 4)):
        assert make_pair(GL2, q, f, (0, 0), SWAP).modulus == q ** f - 1
    # refused: 3^2585 - 1 has 4098 bits, found only by computing it; the
    # other degrees are refused before q^f is computed
    for q, f in ((2, MODULUS_BITS_CAP + 1), (3, 2585), (2, 20000),
                 (2 ** 67, 10 ** 12)):
        with pytest.raises(GuardError, match=f"bound of {MODULUS_BITS_CAP}"):
            make_pair(GL2, q, f, (0, 0), SWAP)
        with pytest.raises(GuardError, match=f"bound of {MODULUS_BITS_CAP}"):
            TameInertialPair(q=q, f=f, vbar=(0, 0), w=SWAP)


@pytest.mark.parametrize("q, f, vbar", [
    (3.0, 2, (1, 3)), (3, 2.0, (1, 3)), (3, 2, (1.0, 3)),
    (True, 2, (1, 3)), (3, True, (1, 3)), (3, 2, (1, False)),
])
def test_pair_rejects_non_integers(q, f, vbar):
    # 3.0 == 3 and hashes alike, so an accepted float would share the
    # integer pair's cache entries (and return float slots)
    with pytest.raises(ValueError, match="must be an integer|must be integers"):
        make_pair(GL2, q, f, vbar, SWAP)
    with pytest.raises(ValueError):
        pair_from_dict({"group": "GL2", "q": q, "f": f, "vbar": list(vbar),
                        "weyl_word": [0]})


def test_vbar_is_reduced():
    p = make_pair(GL2, 3, 2, (9, -1), SWAP)
    assert p.vbar == (1, 7)
    assert p.modulus == 8


def test_validate_pair_examples():
    # swap sends (1,3) to (3,1); 3*(1,3) = (3,9) = (3,1) mod 8
    assert validate_pair(GL2, make_pair(GL2, 3, 2, (1, 3), SWAP))
    # identity: 2*(4,0) = (8,0) = (0,0) mod 8
    assert validate_pair(GL2, make_pair(GL2, 3, 2, (4, 0), weyl_identity(GL2)))
    report = validate_pair(GL2, make_pair(GL2, 3, 2, (1, 5), SWAP))
    assert not report
    assert report.modulus == 8
    assert report.failures == ((0, 5, 3), (1, 1, 7))


def test_validate_pair_rank_mismatch_raises():
    p = make_pair(GL2, 3, 2, (1, 3), SWAP)
    with pytest.raises(ValueError):
        validate_pair(GL3, p)


def test_niveau_examples():
    assert niveau(make_pair(GL2, 3, 2, (1, 3), SWAP)) == 2
    assert niveau(make_pair(GL2, 3, 2, (4, 4), SWAP)) == 1
    assert niveau(make_pair(GL2, 3, 2, (0, 0), SWAP)) == 1
    with pytest.raises(InvalidPairError):
        niveau(make_pair(GL2, 3, 2, (1, 5), SWAP))


def test_niveau_divides_degree():
    for q, f in [(2, 4), (3, 3), (5, 2)]:
        for w in weyl_group_elements(GL2):
            for vbar in all_valid_vbars(GL2, q, f, w):
                f0 = niveau(make_pair(GL2, q, f, vbar, w))
                assert f % f0 == 0
                n = q ** f - 1
                assert vec_mod(vec_scale(pow(q, f0, n), vbar), n) == vbar


def test_check_weyl_order_examples():
    rep = check_weyl_order(make_pair(GL2, 3, 2, (1, 3), SWAP))
    assert rep.niveau == 2
    assert rep.niveau_power_is_identity
    assert rep.degree_power_is_identity

    cycle = weyl_from_word(GL3, [0, 1])
    assert cycle.matrix != mat_pow(cycle.matrix, 3) == identity_matrix(3)
    rep = check_weyl_order(make_pair(GL3, 3, 2, (0, 0, 0), cycle))
    assert rep.niveau == 1
    assert not rep.niveau_power_is_identity
    assert not rep.degree_power_is_identity

    rep = check_weyl_order(make_pair(GL2, 3, 1, (0, 0), weyl_identity(GL2)))
    assert rep.niveau == 1
    assert rep.niveau_power_is_identity
    assert rep.degree_power_is_identity


def test_inertia_centralizer_examples():
    assert inertia_centralizer_roots(GL2, make_pair(GL2, 3, 2, (1, 3), SWAP)) == ()
    assert inertia_centralizer_roots(GL2, make_pair(GL2, 3, 2, (4, 4), SWAP)) \
        == ((-1, 1), (1, -1))
    # blocks {1,3} and {2,4}: exactly the four cross-block-free roots vanish
    double_swap = weyl_from_word(GL4, [0, 2])
    p = make_pair(GL4, 3, 2, (1, 3, 1, 3), double_swap)
    assert inertia_centralizer_roots(GL4, p) == (
        (-1, 0, 1, 0), (0, -1, 0, 1), (0, 1, 0, -1), (1, 0, -1, 0))


def test_is_G_irreducible_examples():
    res = is_G_irreducible(GL2, make_pair(GL2, 3, 2, (1, 3), SWAP))
    assert res
    assert res.failing_root is None and res.fixed_cochar is None

    res = is_G_irreducible(GL2, make_pair(GL2, 3, 2, (4, 0), weyl_identity(GL2)))
    assert not res
    assert res.fixed_cochar == (1, 0)

    res = is_G_irreducible(GL2, make_pair(GL2, 3, 2, (4, 4), SWAP))
    assert not res
    assert res.failing_root == (1, -1)


def test_fixed_cochar_certificate_cuts_proper_stable_parabolic():
    for name, word, q, f, vbar in [
        ("GL2", [], 3, 2, (4, 0)),
        ("GL3", [0], 2, 2, (1, 2, 0)),
        ("GL4", [0, 2], 3, 2, (1, 3, 1, 3)),
    ]:
        datum = build_root_datum(name)
        w = weyl_from_word(datum, word)
        p = make_pair(datum, q, f, vbar, w)
        res = is_G_irreducible(datum, p)
        if res or res.fixed_cochar is None:
            continue
        mu = res.fixed_cochar
        assert w.apply(mu) == tuple(mu)
        parab = parabolic_of(datum, mu)
        assert parab.unipotent_roots
        assert normalizer_element_in_parabolic(datum, w, parab)
    # the GL3 and GL4 cases above fail on a root certificate instead;
    # make sure at least the GL2 case exercised the cochar branch
    res = is_G_irreducible(GL2, make_pair(GL2, 3, 2, (4, 0), weyl_identity(GL2)))
    assert res.fixed_cochar is not None


def test_oracle_examples():
    assert brute_force_parabolic_oracle(GL2, make_pair(GL2, 3, 2, (1, 3), SWAP)) == []

    found = brute_force_parabolic_oracle(
        GL2, make_pair(GL2, 3, 2, (4, 0), weyl_identity(GL2)))
    assert len(found) == 2
    assert set(found) == {parabolic_of(GL2, (1, 0)), parabolic_of(GL2, (0, 1))}

    w = weyl_from_word(GL4, [1, 0, 2, 1])  # (13)(24)
    found = brute_force_parabolic_oracle(GL4, make_pair(GL4, 3, 2, (1, 2, 3, 6), w))
    assert parabolic_of(GL4, (1, 0, 1, 0)) in found
    assert all(p.unipotent_roots for p in found)


def test_oracle_rejects_nonempty_centralizer():
    with pytest.raises(ValueError):
        brute_force_parabolic_oracle(GL2, make_pair(GL2, 3, 2, (4, 4), SWAP))


def test_oracle_guard_and_override():
    gl5 = build_root_datum("GL5")
    w = weyl_from_word(gl5, [2, 1, 0])  # the 4-cycle sending slot 1 to 4
    assert w.apply((1, 2, 4, 8, 0)) == (2, 4, 8, 1, 0)
    p = make_pair(gl5, 2, 4, (1, 2, 4, 8, 0), w)
    assert validate_pair(gl5, p)
    assert inertia_centralizer_roots(gl5, p) == ()
    with pytest.raises(GuardError):
        brute_force_parabolic_oracle(gl5, p)
    found = brute_force_parabolic_oracle(gl5, p, limit=200)
    assert found
    assert not is_G_irreducible(gl5, p)


def reference_torus_parabolics(datum):
    """The oracle's former scan: every Weyl translate u.mu of every standard
    cocharacter, as a parabolic, deduplicated as met."""
    seen = set()
    found = []
    for mu in _standard_parabolic_cochars(datum):
        for u in weyl_group_elements(datum):
            candidate = parabolic_of(datum, u.apply(mu))
            if candidate.nonneg_roots not in seen:
                seen.add(candidate.nonneg_roots)
                found.append(candidate)
    return found


def reference_stable_parabolics(candidates, datum, w):
    """The scanned parabolics that w stabilizes, in the oracle's order."""
    found = [candidate for candidate in candidates
             if normalizer_element_in_parabolic(datum, w, candidate)]
    found.sort(key=lambda c: tuple(sorted(c.nonneg_roots)))
    return found


def parabolic_record(par):
    return (par.defining_cochar, sorted(par.nonneg_roots),
            sorted(par.levi_roots), sorted(par.unipotent_roots))


def test_parabolic_table_matches_per_w_scan():
    # GL1 and SO2 have no roots, so their tables are empty
    cases = [(name, ORACLE_WEYL_CAP) for name in
             ["GL1", "SO2", "SO3", "GL3", "SL3", "GL4", "SL4", "Sp4", "Sp6",
              "SO5", "SO7", "G2", "sheared-GL3"]]
    for name, limit in cases + [("GL5", 120)]:
        datum = (sheared_gl3() if name == "sheared-GL3"
                 else build_root_datum(name))
        candidates = reference_torus_parabolics(datum)
        for w in weyl_group_elements(datum):
            table = _stable_proper_parabolics(datum, w, limit)
            reference = reference_stable_parabolics(candidates, datum, w)
            assert [parabolic_record(par) for par in table] == \
                [parabolic_record(par) for par in reference], (name, w.word)


def test_parabolic_table_guard_stores_nothing():
    gl5 = build_root_datum("GL5")
    p = make_pair(gl5, 2, 4, (1, 2, 4, 8, 0), weyl_from_word(gl5, [2, 1, 0]))
    with pytest.raises(GuardError, match="^Weyl group of GL5 exceeds "
                       "enumeration limit 119$"):
        brute_force_parabolic_oracle(gl5, p, limit=119)
    assert not [key for key in gl5._memo
                if isinstance(key, tuple)
                and key[0] is _torus_parabolics.__wrapped__]
    assert len(brute_force_parabolic_oracle(gl5, p, limit=120)) == 2


def _memo_keys(datum, fn):
    return [key for key in datum._memo
            if isinstance(key, tuple) and key[0] is fn.__wrapped__]


def test_parabolic_tables_are_keyed_on_the_limit():
    gl4 = build_root_datum("GL4")
    w = weyl_from_word(gl4, [1, 0, 2, 1])
    p = make_pair(gl4, 3, 2, (1, 2, 3, 6), w)
    found = [brute_force_parabolic_oracle(gl4, p, limit=limit)
             for limit in (None, 100, 24)]
    assert found[0] == found[1] == found[2] != []
    # None stands for ORACLE_WEYL_CAP; each limit keeps its own table
    assert sorted(key[1] for key in _memo_keys(gl4, _torus_parabolics)) == \
        [(24,), (100,), (ORACLE_WEYL_CAP,)]
    memo = dict(gl4._memo)
    # |W| = 24 exceeds 23: the orbit walk refuses it
    with pytest.raises(GuardError, match="^Weyl group of GL4 exceeds "
                       "enumeration limit 23$"):
        brute_force_parabolic_oracle(gl4, p, limit=23)
    assert gl4._memo == memo


@pytest.mark.parametrize("limit", [24.0, True, Fraction(24), "24"])
def test_oracle_refuses_a_limit_that_is_not_an_int(limit):
    p = make_pair(GL4, 3, 2, (1, 2, 3, 6), weyl_from_word(GL4, [1, 0, 2, 1]))
    with pytest.raises(ValueError, match=re.escape(
            f"limit must be an integer, got {limit!r}")):
        brute_force_parabolic_oracle(GL4, p, limit=limit)


def test_pair_check_failures_match_a_direct_computation():
    # failures are (i, (w.vbar)_i mod N, q.vbar_i mod N) wherever the two
    # differ; the same coordinates name the InvalidPairError
    rng = random.Random(26)
    seen_valid = seen_invalid = 0
    for name in ["GL2", "GL3", "GL4", "Sp4", "G2"]:
        datum = build_root_datum(name)
        elements = weyl_group_elements(datum)
        for _ in range(60):
            w = rng.choice(elements)
            q, f = rng.choice([2, 3, 4, 5, 7, 8, 9]), rng.randint(1, 3)
            n = q ** f - 1
            if rng.random() < 0.25:
                vbar = kernel_vbars(datum, w.matrix, q, f, rng, 1)[0]
            else:
                vbar = tuple(rng.randrange(-n, 2 * n)
                             for _ in range(datum.rank))
            p = make_pair(datum, q, f, vbar, w)
            expected = tuple(
                (i, a % n, q * x % n)
                for i, (a, x) in enumerate(zip(mat_vec(w.matrix, p.vbar),
                                               p.vbar))
                if a % n != q * x % n)
            report = validate_pair(datum, p)
            assert report.failures == expected, (name, q, f, vbar, w.word)
            assert report.valid == (not expected)
            assert report.modulus == n
            if expected:
                seen_invalid += 1
                with pytest.raises(InvalidPairError, match=re.escape(
                        f"pair fails compatibility at coordinates "
                        f"{[i for i, _, _ in expected]} (mod {n})")):
                    inertia_centralizer_roots(datum, p)
                with pytest.raises(InvalidPairError):
                    niveau(p)
            else:
                seen_valid += 1
                assert 1 <= niveau(p) <= f
    assert seen_valid > 30 and seen_invalid > 150


def spy_everywhere(monkeypatch, fn, calls):
    """Replace fn under every name a tamelift module binds it to, recording
    each call in calls."""
    def spy(*args, **kwargs):
        calls.append(fn.__name__)
        return fn(*args, **kwargs)
    for module in list(sys.modules.values()):
        if getattr(module, "__name__", "").startswith("tamelift"):
            for attr, value in list(vars(module).items()):
                if value is fn:
                    monkeypatch.setattr(module, attr, spy)


def test_first_oracle_call_neither_enumerates_w_nor_scans(monkeypatch):
    sp6 = build_root_datum("Sp6")
    fresh = make_root_datum(sp6.rank, sp6.roots, sp6.coroots, sp6.pairing,
                            sp6.simple_roots, label="Sp6")
    # q = 8, N = 7: no root pairs to 0 mod 7 with (1, 2, 3), and the
    # identity stabilizes every parabolic
    p = make_pair(fresh, 8, 1, (1, 2, 3), weyl_identity(fresh))
    calls = []
    spy_everywhere(monkeypatch, root_datum.weyl_group_elements, calls)
    spy_everywhere(monkeypatch, dynamic.parabolic_of, calls)
    found = brute_force_parabolic_oracle(fresh, p)
    assert calls == []
    monkeypatch.undo()
    assert len(found) == 146
    assert found == reference_stable_parabolics(
        reference_torus_parabolics(sp6), sp6,
        weyl_identity(sp6))


def _check_the_pair_once(monkeypatch, decide):
    # a valid pair builds no ValidityReport: one congruence pass per
    # inertia_centralizer_roots call, and the report only to raise
    calls = []
    for fn in (tame_reps.inertia_centralizer_roots, tame_reps._compatible,
               tame_reps.validate_pair):
        spy_everywhere(monkeypatch, fn, calls)
    decide(GL2, make_pair(GL2, 3, 2, (1, 3), SWAP))
    assert calls == ["inertia_centralizer_roots", "_compatible"]
    calls.clear()
    with pytest.raises(InvalidPairError,
                       match=re.escape("pair fails compatibility at "
                                       "coordinates [0, 1] (mod 8)")):
        decide(GL2, make_pair(GL2, 3, 2, (1, 5), SWAP))
    assert calls == ["inertia_centralizer_roots", "_compatible",
                     "validate_pair"]


def test_oracle_validates_the_pair_once(monkeypatch):
    _check_the_pair_once(monkeypatch, brute_force_parabolic_oracle)


def test_irreducibility_validates_the_pair_once(monkeypatch):
    _check_the_pair_once(monkeypatch, is_G_irreducible)


MINUS_I = ((-1, 0), (0, -1))  # a GL2 automorphism outside W = {1, swap}


def test_make_pair_rejects_weyl_elements_outside_w():
    with pytest.raises(ValueError, match="lies outside W"):
        make_pair(GL2, 3, 2, (2, 4), WeylElement(matrix=MINUS_I))
    with pytest.raises(ValueError, match="must be 2x2"):
        make_pair(GL2, 3, 2, (2, 4),
                  WeylElement(matrix=identity_matrix(3)))
    with pytest.raises(ValueError, match="outside the coroot set"):
        make_pair(GL2, 3, 2, (2, 4), WeylElement(matrix=((1, 1), (0, 1))))
    assert make_pair(GL2, 3, 2, (1, 3), WeylElement(matrix=SWAP.matrix)).w \
        == SWAP


def kernel_coordinates(datum, matrix, q, n):
    """(V, gcds) describing the kernel of (q - matrix) mod N: with
    D = U (q - matrix) V the Smith form, it is the set of V y for y with
    d_i y_i = 0 mod N, i.e. each y_i a multiple of N / gcd(d_i, N)."""
    d, _, v = smith_normal_form(
        mat_sub(mat_scale(q, identity_matrix(datum.rank)), matrix))
    return v, [gcd(d[i][i], n) for i in range(datum.rank)]


def kernel_vbars(datum, matrix, q, f, rng, count):
    """count vbars drawn uniformly from the kernel of (q - matrix) mod N."""
    n = q ** f - 1
    v, gcds = kernel_coordinates(datum, matrix, q, n)
    return [vec_mod(mat_vec(v, [rng.randrange(g) * (n // g) for g in gcds]), n)
            for _ in range(count)]


def test_criterion_matches_oracle_outside_w():
    # built directly, the pair skips make_pair's check; it is compatible
    # and kills no root, and -I fixes no cocharacter at all
    p = TameInertialPair(q=3, f=2, vbar=(2, 4), w=WeylElement(matrix=MINUS_I))
    assert validate_pair(GL2, p)
    assert inertia_centralizer_roots(GL2, p) == ()
    assert is_G_irreducible(GL2, p)
    assert brute_force_parabolic_oracle(GL2, p) == []
    # sigma = -w is an automorphism of every datum, and none of these Weyl
    # groups contains -1, so every sigma lies outside W
    rng = random.Random(0)
    verdicts = Counter()
    for name in ("GL2", "GL3", "GL4", "SL3", "SL4", "SO6"):
        datum = build_root_datum(name)
        for w in weyl_group_elements(datum):
            sigma = WeylElement(matrix=mat_scale(-1, w.matrix))
            for q, f in itertools.product((2, 3, 4, 5, 7), (1, 2, 3, 4)):
                if q ** f - 1 > 700:
                    continue
                for vbar in kernel_vbars(datum, sigma.matrix, q, f, rng, 3):
                    p = TameInertialPair(q=q, f=f, vbar=vbar, w=sigma)
                    if inertia_centralizer_roots(datum, p):
                        continue
                    verdict = bool(is_G_irreducible(datum, p))
                    assert verdict == (not brute_force_parabolic_oracle(
                        datum, p)), (name, q, f, vbar, w.word)
                    verdicts[verdict] += 1
    assert verdicts == {True: 74, False: 696}


def reference_killed_roots(datum, p):
    """inertia_centralizer_roots through the full ValidityReport and the
    plain-sum pairings."""
    report = validate_pair(datum, p)
    if not report:
        raise InvalidPairError(
            f"pair fails compatibility at coordinates "
            f"{[i for i, _, _ in report.failures]} (mod {report.modulus})")
    return tuple(alpha for alpha, v in zip(
        datum.roots, ref.root_pairings(datum, p.vbar)) if v % p.modulus == 0)


def reference_fixed_cochar(datum, matrix):
    """The largest noncentral vector of an uncached fixed-space basis."""
    basis = integer_kernel_basis(
        mat_sub(matrix, identity_matrix(datum.rank)), datum.rank)
    noncentral = [v for v in basis if any(ref.root_pairings(datum, v))]
    return max(noncentral) if noncentral else None


def reference_irreducibility(datum, p):
    killed = reference_killed_roots(datum, p)
    root_permutation(datum, p.w)
    if killed:
        return IrreducibilityResult(irreducible=False, failing_root=max(killed))
    fixed = reference_fixed_cochar(datum, p.w.matrix)
    return IrreducibilityResult(irreducible=fixed is None, fixed_cochar=fixed)


def reference_oracle(datum, p):
    if reference_killed_roots(datum, p):
        raise ValueError(
            "oracle requires empty inertia centralizer roots; some root "
            "pairing with vbar vanishes mod N")
    return list(_stable_proper_parabolics(datum, p.w, ORACLE_WEYL_CAP))


def outcome(decide, datum, p):
    try:
        return decide(datum, p)
    except (ValueError, InvalidPairError) as error:
        return type(error), str(error)


ONE_PASS_GROUPS = ("GL1", "SO2", "GL2", "GL3", "GL4", "SL3", "Sp4", "Sp6",
                   "SO5", "SO7", "G2")


def one_pass_cases():
    """Seeded (datum, pair) cases: valid pairs, some with a Weyl element
    rebuilt from its matrix (no word) or negated (an automorphism, outside
    W where -1 is not in W); the same pairs shifted at one or more
    coordinates; random vbars under the identity, which fixes every vbar,
    so only the q factor refuses them; and each GL pair passed with a
    datum of another rank."""
    rng = random.Random(28)
    cases = []
    for name in ONE_PASS_GROUPS:
        datum = build_root_datum(name)
        elements = weyl_group_elements(datum)
        for _ in range(40):
            w = rng.choice(elements)
            if rng.random() < 0.5:
                w = WeylElement(matrix=w.matrix)
            elif rng.random() < 0.2:
                w = WeylElement(matrix=mat_scale(-1, w.matrix))
            q, f = rng.choice((2, 3, 4, 5, 7)), rng.choice((1, 2, 3))
            n = q ** f - 1
            [vbar] = kernel_vbars(datum, w.matrix, q, f, rng, 1)
            cases.append((datum, TameInertialPair(q, f, vbar, w)))
            bad = list(vbar)
            for i in rng.sample(range(datum.rank),
                                rng.randint(1, datum.rank)):
                bad[i] += rng.randrange(1, n) if n > 1 else 0
            cases.append((datum, TameInertialPair(q, f, bad, w)))
            cases.append((datum, TameInertialPair(
                q, f, [rng.randrange(n) for _ in range(datum.rank)],
                weyl_identity(datum))))
    cases.append((GL2, TameInertialPair(3, 2, (1, 3),
                                        WeylElement(matrix=MINUS_I))))
    others = {"GL2": GL3, "GL3": GL2, "GL4": GL2}
    cases += [(others[datum.label], p) for datum, p in cases
              if datum.label in others]
    return cases


def test_one_pass_irreducibility_matches_the_reference():
    kinds = Counter()
    for datum, p in one_pass_cases():
        for decide, reference in (
                (brute_force_parabolic_oracle, reference_oracle),
                (inertia_centralizer_roots, reference_killed_roots),
                (is_G_irreducible, reference_irreducibility)):
            got = outcome(decide, datum, p)
            assert got == outcome(reference, datum, p), (datum.label, p)
        if isinstance(got, tuple):
            kinds[got[0].__name__] += 1
        else:
            kinds["irreducible" if got else "killed root"
                  if got.failing_root else "fixed cochar"] += 1
    assert kinds == {"irreducible": 186, "fixed cochar": 63,
                     "killed root": 445, "InvalidPairError": 627,
                     "ValueError": 361}


def test_fixed_cochar_certificate_matches_the_fixed_basis():
    kinds = Counter()
    for name in ("GL1", "GL2", "GL3", "GL4", "SL2", "SL3", "SL4", "Sp4",
                 "Sp6", "SO5", "SO6", "SO7", "G2"):
        datum = build_root_datum(name)
        for w in weyl_group_elements(datum):
            fixed = tame_reps._noncentral_fixed_cochar(datum, w)
            assert fixed == reference_fixed_cochar(datum, w.matrix), (name, w)
            kinds[fixed is None] += 1
    assert kinds == {True: 66, False: 147}


def test_fixed_cochar_certificate_is_one_per_matrix(monkeypatch):
    # s0 s1 s0 = s1 s0 s1 on GL3: equal elements with different words.
    # (1, 0, 2) is compatible at q = 2, f = 2 and kills no root, so the
    # verdict rests on the certificate
    datum = make_root_datum(GL3.rank, GL3.roots, GL3.coroots, GL3.pairing,
                            GL3.simple_roots, label="GL3/certificate")
    words = ([0, 1, 0], [1, 0, 1])
    pairs = [make_pair(datum, 2, 2, (1, 0, 2), weyl_from_word(datum, word))
             for word in words]
    assert pairs[0].w == pairs[1].w and pairs[0].w.word != pairs[1].w.word
    calls = []
    for fn in (root_datum.weyl_fixed_space, root_datum.root_pairings):
        spy_everywhere(monkeypatch, fn, calls)
    verdicts = [is_G_irreducible(datum, p) for p in pairs]
    assert verdicts[0] == verdicts[1] == IrreducibilityResult(
        irreducible=False, fixed_cochar=(1, 0, 1))
    assert calls.count("weyl_fixed_space") == 1
    assert len(_memo_keys(datum, tame_reps._noncentral_fixed_cochar)) == 1
    # a repeat call computes no pairing at all
    calls.clear()
    assert is_G_irreducible(datum, pairs[1]) == verdicts[0]
    assert calls == []
    # a fresh copy of the datum starts without one
    copy = make_root_datum(GL3.rank, GL3.roots, GL3.coroots, GL3.pairing,
                           GL3.simple_roots, label="GL3/certificate")
    assert copy == datum
    assert not _memo_keys(copy, tame_reps._noncentral_fixed_cochar)
    assert is_G_irreducible(copy, pairs[0]) == verdicts[0]
    assert calls.count("weyl_fixed_space") == 1


def test_criterion_and_oracle_refuse_a_matrix_that_permutes_no_roots():
    # a unimodular shear: the pair is compatible and kills no root, but the
    # shear sends the coroot (1, -1) to (0, -1), so it is no automorphism
    p = TameInertialPair(q=3, f=1, vbar=(1, 0),
                         w=WeylElement(matrix=((1, 1), (0, 1))))
    assert validate_pair(GL2, p)
    assert inertia_centralizer_roots(GL2, p) == ()
    for decide in (is_G_irreducible, brute_force_parabolic_oracle):
        with pytest.raises(ValueError, match="outside the coroot set"):
            decide(GL2, p)


def test_every_irreducible_pair_has_a_regular_lift():
    """The main theorem as a closed loop.  Over every w of each preset,
    q <= 9 and f <= 6 with N <= 5000, three vbars drawn from ker(q - w)
    mod N: every pair the criterion accepts has w^f = 1 and a regular lift
    with the same reduction and a multiplier within the cap, and the oracle
    (every preset has rank <= 4) finds a stable proper parabolic for every
    rejection that kills no root."""
    rng = random.Random(0)
    outcomes = Counter()
    for name in ("GL2", "GL3", "GL4", "SL3", "SL4", "Sp4", "SO5", "G2"):
        datum = build_root_datum(name)
        ident = identity_matrix(datum.rank)
        for w in weyl_group_elements(datum):
            for q, f in itertools.product((2, 3, 4, 5, 7, 8, 9), range(1, 7)):
                if q ** f - 1 > 5000:
                    continue
                for vbar in kernel_vbars(datum, w.matrix, q, f, rng, 3):
                    p = make_pair(datum, q, f, vbar, w)
                    verdict = is_G_irreducible(datum, p)
                    if verdict:
                        assert mat_pow(w.matrix, f) == ident
                        out = regular_lift(datum, p)
                        assert reduction(out.tuple) == p.vbar
                        assert out.regular
                        assert out.seed_multiplier <= \
                            REGULAR_LIFT_MULTIPLIER_CAP
                        outcomes["lifted"] += 1
                    elif verdict.failing_root is None:
                        assert brute_force_parabolic_oracle(datum, p)
                        outcomes["confirmed"] += 1
                    else:
                        outcomes["killed"] += 1
    assert outcomes == {"lifted": 509, "confirmed": 1641, "killed": 7030}


ORACLE_PROPERTY_DATA = {name: build_root_datum(name) for name in
                        ("GL3", "GL4", "Sp4", "Sp6", "SO7", "G2")}
ORACLE_PROPERTY_WEYL = {name: weyl_group_elements(datum)
                        for name, datum in ORACLE_PROPERTY_DATA.items()}


@st.composite
def kernel_pairs(draw):
    """A pair whose vbar lies in the kernel of (q - w) mod N (see
    kernel_coordinates).  Each y_i is a nonzero multiple where there is
    one: zeros make a killed root, which leaves the oracle out, likelier."""
    name = draw(st.sampled_from(sorted(ORACLE_PROPERTY_DATA)))
    datum = ORACLE_PROPERTY_DATA[name]
    q = draw(st.sampled_from((2, 3, 4, 5)))
    f = draw(st.sampled_from((1, 2, 3)))
    w = draw(st.sampled_from(ORACLE_PROPERTY_WEYL[name]))
    n = q ** f - 1
    v, gcds = kernel_coordinates(datum, w.matrix, q, n)
    y = [draw(st.integers(min(1, g - 1), g - 1)) * (n // g) for g in gcds]
    return datum, make_pair(datum, q, f, vec_mod(mat_vec(v, y), n), w)


@settings(max_examples=250, derandomize=True, database=None, deadline=None)
@given(kernel_pairs())
def test_oracle_matches_criterion_property(case):
    datum, p = case
    assert validate_pair(datum, p)
    verdict = is_G_irreducible(datum, p)
    if inertia_centralizer_roots(datum, p):
        assert not verdict
        return
    assert (brute_force_parabolic_oracle(datum, p) == []) == bool(verdict)


@pytest.mark.parametrize(
    "name", REFERENCE_PRESETS + ("sheared-GL3", "GL8", "SO16"))
def test_standard_cochars_match_fraction_reference(name):
    # the rational solve of rows . mu = keep, free variables 0, scaled by
    # the least common denominator
    datum = sheared_gl3() if name == "sheared-GL3" else build_root_datum(name)
    rows = [root_functionals(datum)[i] for i in datum.simple_roots]
    columns = tuple(zip(*rows))
    expected = []
    for keep in itertools.product((0, 1), repeat=len(rows)):
        if any(keep):
            sol = coords_in_base(columns, keep)
            scale = lcm(*(x.denominator for x in sol))
            expected.append(tuple(int(x * scale) for x in sol))
    assert _standard_parabolic_cochars(datum) == tuple(expected)


def test_noncentral_means_some_root_pairs_nonzero():
    # the integer test is_G_irreducible uses, against rational span
    # membership in the central cocharacter space
    for name in ["GL2", "GL3", "GL4", "SL3", "Sp4", "SO5", "SO7", "G2"]:
        datum = build_root_datum(name)
        central = integer_kernel_basis(root_functionals(datum), datum.rank)
        for w in weyl_group_elements(datum):
            for v in weyl_fixed_space(datum, w):
                outside = (coords_in_base(central, v) is None if central
                           else any(v))
                assert any(root_pairings(datum, v)) == outside


def test_criterion_matches_oracle_small_sweep():
    for name, q, f in [("GL2", 3, 2), ("GL3", 3, 2), ("Sp4", 3, 2)]:
        datum = build_root_datum(name)
        for w in weyl_group_elements(datum):
            for vbar in all_valid_vbars(datum, q, f, w):
                p = make_pair(datum, q, f, vbar, w)
                if inertia_centralizer_roots(datum, p):
                    continue
                stable = brute_force_parabolic_oracle(datum, p)
                assert bool(is_G_irreducible(datum, p)) == (not stable), (
                    name, q, f, vbar, w.word)


def test_conjugation_covariance():
    q, f = 2, 2
    for w in weyl_group_elements(GL3):
        vbars = all_valid_vbars(GL3, q, f, w)
        for u in weyl_group_elements(GL3):
            u_inv = weyl_from_word(GL3, u.word[::-1]).matrix
            assert mat_mul(u.matrix, u_inv) == identity_matrix(3)
            conj = weyl_from_matrix(GL3, mat_mul(u.matrix, mat_mul(w.matrix, u_inv)))
            for vbar in vbars:
                p = make_pair(GL3, q, f, vbar, w)
                moved = make_pair(GL3, q, f, u.apply(vbar), conj)
                assert validate_pair(GL3, moved)
                assert bool(is_G_irreducible(GL3, p)) == \
                    bool(is_G_irreducible(GL3, moved))


def test_pair_dict_roundtrip_preset():
    p = make_pair(GL2, 3, 2, (1, 3), SWAP)
    data = pair_to_dict(GL2, p)
    assert data == {"group": "GL2", "q": 3, "f": 2, "vbar": [1, 3],
                    "weyl_word": [0]}
    datum2, p2 = pair_from_dict(data)
    assert datum2 == GL2
    assert p2 == p


def test_pair_dict_roundtrip_custom_datum_and_matrix():
    custom = datum_from_dict(datum_to_dict(GL2))
    w = weyl_from_matrix(custom, ((0, 1), (1, 0)))
    p = make_pair(custom, 3, 2, (1, 3), w)
    data = pair_to_dict(custom, p)
    assert isinstance(data["group"], dict)
    assert data["weyl_matrix"] == [[0, 1], [1, 0]]
    datum2, p2 = pair_from_dict(data)
    assert datum2.roots == custom.roots
    assert p2.vbar == (1, 3)


def test_pair_from_dict_errors():
    with pytest.raises(ValueError):
        pair_from_dict({"group": "GL2", "q": 3, "f": 2})
    with pytest.raises(ValueError):
        pair_from_dict({"group": "GL2", "q": 3, "f": 2, "vbar": [1, 3]})
    with pytest.raises(ValueError):
        pair_from_dict([1, 2, 3])
