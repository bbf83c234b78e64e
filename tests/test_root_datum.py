"""Tests for root data, presets, and Weyl element machinery.

The preset root systems are checked against an independent oracle that
reconstructs all roots from the Cartan matrix alone by closing the simple
reflections; coordinates are compared through the Fraction solver in
`fraction_reference`, not through the package's own helpers.
"""
from __future__ import annotations

import gc
import pickle
import random
import weakref

import pytest
from fraction_reference import (
    REFERENCE_PRESETS,
    coords_in_base,
    root_action,
    sheared_gl3,
)

from tamelift.crystalline_lift import lift_inertia, simple_trick_check
from tamelift.errors import DatumValidationError, GuardError
from tamelift.hodge_tate import regular_lift
from tamelift.lattice import dot
from tamelift.root_datum import (
    WeylElement,
    build_root_datum,
    central_cochar_space,
    datum_from_dict,
    datum_to_dict,
    g2_datum,
    general_linear,
    is_regular_cochar,
    make_root_datum,
    pair,
    root_functionals,
    root_permutation,
    simple_coreflections,
    simple_root_coords,
    weyl_fixed_space,
    weyl_from_matrix,
    weyl_from_word,
    weyl_group_elements,
    weyl_identity,
    weyl_order,
)
from tamelift.tame_reps import (
    brute_force_parabolic_oracle,
    is_G_irreducible,
    make_pair,
)

# ---------------------------------------------------------------------------
# oracle: close simple reflections over the Cartan matrix


def cartan_closure(cartan):
    """All roots in simple-root coordinates, generated from the simple basis
    by s_i(c) = c - (sum_j a_ij c_j) e_i."""
    rank = len(cartan)
    simples = [tuple(int(i == j) for j in range(rank)) for i in range(rank)]
    roots = set(simples)
    frontier = list(simples)
    while frontier:
        nxt = []
        for c in frontier:
            for i in range(rank):
                coeff = sum(cartan[i][j] * c[j] for j in range(rank))
                image = tuple(x - coeff * int(k == i) for k, x in enumerate(c))
                if image not in roots:
                    roots.add(image)
                    nxt.append(image)
        frontier = nxt
    return roots


def read_cartan(datum):
    """Cartan matrix a_ij = <alpha_j, alpha_i-coroot> read off the datum."""
    simples = datum.simple_root_vectors()
    cosimples = datum.simple_coroot_vectors()
    return [[pair(datum, a, cv) for a in simples] for cv in cosimples]


CARTAN = {
    "GL2": [[2]],
    "GL3": [[2, -1], [-1, 2]],
    "GL4": [[2, -1, 0], [-1, 2, -1], [0, -1, 2]],
    "SL3": [[2, -1], [-1, 2]],
    "Sp4": [[2, -2], [-1, 2]],
    "SO5": [[2, -1], [-2, 2]],
    "SO7": [[2, -1, 0], [-1, 2, -1], [0, -2, 2]],
    "SO8": [[2, -1, 0, 0], [-1, 2, -1, -1], [0, -1, 2, 0], [0, -1, 0, 2]],
    "G2": [[2, -3], [-1, 2]],
}


@pytest.mark.parametrize("name", sorted(CARTAN))
def test_preset_roots_match_cartan_closure(name):
    datum = build_root_datum(name)
    assert read_cartan(datum) == CARTAN[name]
    expected = cartan_closure(CARTAN[name])
    simples = datum.simple_root_vectors()
    got = set()
    for alpha in datum.roots:
        coords = coords_in_base(simples, alpha)
        assert coords is not None and all(c.denominator == 1 for c in coords)
        got.add(tuple(int(c) for c in coords))
    assert got == expected
    assert len(datum.roots) == len(expected)


def test_gl2_is_the_expected_datum():
    d = build_root_datum("GL2")
    assert set(d.roots) == {(1, -1), (-1, 1)}
    assert d.roots == d.coroots
    assert d.pairing == ((1, 0), (0, 1))


def test_g2_has_twelve_roots_and_bounded_cartan_integers():
    d = g2_datum()
    assert len(d.roots) == 12
    values = {pair(d, a, cv) for a in d.roots for cv in d.coroots}
    assert max(abs(v) for v in values) == 3
    assert values <= set(range(-3, 4))


def test_g2_highest_root_against_fundamental_coweight():
    d = g2_datum()
    simples = d.simple_root_vectors()
    # fundamental coweight 1: <alpha_i, omega> = delta_i1, solved by hand here
    omega = None
    for cand in [(a, b) for a in range(-3, 4) for b in range(-3, 4)]:
        if pair(d, simples[0], cand) == 1 and pair(d, simples[1], cand) == 0:
            omega = cand
            break
    assert omega is not None
    closure = cartan_closure(CARTAN["G2"])
    top = max(closure, key=sum)
    assert top == (3, 2)
    highest = tuple(
        sum(c * s[i] for c, s in zip(top, simples)) for i in range(d.rank))
    assert pair(d, highest, omega) == top[0] == 3


def test_pair_examples_and_dimension_check():
    d = build_root_datum("GL2")
    assert pair(d, (1, -1), (1, 0)) == 1
    assert pair(d, (1, -1), (1, 1)) == 0
    with pytest.raises(ValueError):
        pair(d, (1, 0, 0), (1, 0))


def test_weyl_from_word_examples():
    gl2 = build_root_datum("GL2")
    assert weyl_from_word(gl2, [0]).matrix == ((0, 1), (1, 0))
    assert weyl_from_word(gl2, "s0").matrix == ((0, 1), (1, 0))
    assert weyl_from_word(gl2, []).matrix == ((1, 0), (0, 1))
    gl3 = build_root_datum("GL3")
    w = weyl_from_word(gl3, [0, 1])
    assert weyl_order(w) == 3
    assert sorted(w.matrix) == sorted(((0, 0, 1), (1, 0, 0), (0, 1, 0)))
    with pytest.raises(ValueError):
        weyl_from_word(gl3, [7])
    for word in ([0.9], [True], [0, 1.0], ["0"]):  # [0.9] once read as [0]
        with pytest.raises(ValueError, match="must be integers"):
            weyl_from_word(gl3, word)


def test_weyl_from_matrix_validates():
    gl2 = build_root_datum("GL2")
    w = weyl_from_matrix(gl2, [[0, 1], [1, 0]])
    assert w == weyl_from_word(gl2, [0])
    with pytest.raises(ValueError):
        weyl_from_matrix(gl2, [[1, 1], [0, 1]])  # unimodular but not Weyl
    with pytest.raises(ValueError):
        weyl_from_matrix(gl2, [[2, 0], [0, 1]])  # not unimodular
    with pytest.raises(ValueError, match="must be integers"):
        weyl_from_matrix(gl2, [[False, True], [True, False]])


def test_weyl_element_rejects_matrices_outside_gl_n_of_z():
    gl3 = build_root_datum("GL3")
    s0 = weyl_from_word(gl3, "s0").matrix
    float_s0 = tuple(tuple(float(x) for x in row) for row in s0)
    for matrix in (float_s0, ((True, False), (False, True))):
        with pytest.raises(ValueError, match="must be integers"):
            WeylElement(matrix=matrix)
    with pytest.raises(ValueError, match="square"):
        WeylElement(matrix=((1, 0),))
    with pytest.raises(ValueError, match="not invertible"):
        WeylElement(matrix=((2, 0), (0, 1)))
    assert WeylElement(matrix=[[0, 1], [1, 0]]).matrix == ((0, 1), (1, 0))
    # accepted, a float s0 filled the datum's memo entries for the integer
    # s0: its fixed space then came back as ((1.0, 1.0, 0.0), (0, 0, 1))
    verdict = is_G_irreducible(
        gl3, make_pair(gl3, 2, 2, (1, 2, 0), WeylElement(matrix=s0)))
    assert all(type(x) is int for x in verdict.fixed_cochar)
    fixed = weyl_fixed_space(gl3, weyl_from_word(gl3, "s0"))
    assert fixed == ((1, 1, 0), (0, 0, 1))
    assert all(type(x) is int for row in fixed for x in row)


def test_weyl_fixed_space_examples():
    gl2 = build_root_datum("GL2")
    assert weyl_fixed_space(gl2, weyl_from_word(gl2, [0])) == ((1, 1),)
    gl3 = build_root_datum("GL3")
    assert weyl_fixed_space(gl3, weyl_from_word(gl3, [0, 1])) == ((1, 1, 1),)
    sp4 = build_root_datum("Sp4")
    longest = weyl_from_word(sp4, [0, 1, 0, 1])
    assert longest.matrix == ((-1, 0), (0, -1))
    assert weyl_fixed_space(sp4, longest) == ()
    assert weyl_fixed_space(gl2, weyl_identity(gl2)) == ((1, 0), (0, 1))


def test_central_cochar_space_examples():
    assert central_cochar_space(build_root_datum("GL2")) == ((1, 1),)
    assert central_cochar_space(build_root_datum("GL4")) == ((1, 1, 1, 1),)
    sl2 = make_root_datum(1, [(2,), (-2,)], [(1,), (-1,)], [[1]], [0], "SL2-custom")
    assert central_cochar_space(sl2) == ()
    # torus: everything is central
    assert central_cochar_space(build_root_datum("GL1")) == ((1,),)


def test_is_regular_cochar_examples():
    gl3 = build_root_datum("GL3")
    assert is_regular_cochar(gl3, (2, 1, 0))
    assert not is_regular_cochar(gl3, (1, 1, 0))
    sp4 = build_root_datum("Sp4")
    assert not is_regular_cochar(sp4, (1, 0))  # kills the long root 2e_2
    assert is_regular_cochar(sp4, (2, 1))


def test_weyl_group_sizes():
    sizes = {"GL2": 2, "GL3": 6, "GL4": 24, "Sp4": 8, "SO5": 8, "SO8": 192,
             "G2": 12, "SL3": 6}
    for name, n in sizes.items():
        assert len(weyl_group_elements(build_root_datum(name))) == n


def test_weyl_action_invariants():
    rng = random.Random(201)
    for name in ["GL3", "Sp4", "G2", "SO5", "SL3"]:
        datum = build_root_datum(name)
        elements = weyl_group_elements(datum)
        for w in elements:
            perm = root_permutation(datum, w)
            assert sorted(perm) == list(range(len(datum.roots)))
            for _ in range(4):
                lam = tuple(rng.randint(-5, 5) for _ in range(datum.rank))
                wl = w.apply(lam)
                for i, alpha in enumerate(datum.roots):
                    # pairing equivariance through the contragredient
                    assert pair(datum, datum.roots[perm[i]], wl) == pair(datum, alpha, lam)
                assert is_regular_cochar(datum, lam) == is_regular_cochar(datum, wl)


def test_involution_words_cancel():
    for name in ["GL3", "Sp4", "G2"]:
        datum = build_root_datum(name)
        ident = weyl_identity(datum)
        for i in range(len(datum.simple_roots)):
            assert weyl_from_word(datum, [i, i]) == ident


def test_fixed_space_contains_central():
    for name in ["GL2", "GL3", "GL4", "Sp4", "G2"]:
        datum = build_root_datum(name)
        central = central_cochar_space(datum)
        for w in weyl_group_elements(datum):
            fixed = weyl_fixed_space(datum, w)
            for z in central:
                assert w.apply(z) == z
                # z is in the fixed lattice spanned by the HNF basis
                assert coords_in_base(fixed, z) is not None if fixed else not any(z)


def test_root_action_is_group_action():
    datum = build_root_datum("Sp4")
    elements = weyl_group_elements(datum)
    for w in elements[:6]:
        for u in elements[:6]:
            from tamelift.lattice import mat_mul
            wu = weyl_from_matrix(datum, mat_mul(w.matrix, u.matrix))
            for alpha in datum.roots:
                assert root_action(datum, wu, alpha) == root_action(
                    datum, w, root_action(datum, u, alpha))


def test_json_roundtrip_is_canonical():
    d = build_root_datum("Sp4")
    blob = datum_to_dict(d)
    # scramble the root order: parse must restore the canonical sorted order
    order = list(range(len(blob["roots"])))
    random.Random(7).shuffle(order)
    scrambled = dict(
        blob,
        roots=[blob["roots"][i] for i in order],
        coroots=[blob["coroots"][i] for i in order],
        simple_roots=[order.index(i) for i in blob["simple_roots"]],
    )
    parsed = datum_from_dict(scrambled)
    assert datum_to_dict(parsed) == blob
    assert parsed.roots == d.roots and parsed.coroots == d.coroots
    assert parsed.simple_root_vectors() == d.simple_root_vectors()


def test_datum_from_dict_structural_errors():
    with pytest.raises(ValueError):
        datum_from_dict({"rank": 1})
    with pytest.raises(ValueError):
        datum_from_dict([1, 2, 3])


def test_validation_names_failed_invariant():
    with pytest.raises(DatumValidationError) as err:
        make_root_datum(1, [(2,), (-2,)], [(2,), (-2,)], [[1]], [0])
    assert err.value.invariant == "pair-root-coroot"

    with pytest.raises(DatumValidationError) as err:
        make_root_datum(1, [(2,), (-2,)], [(1,), (-1,)], [[0]], [0])
    assert err.value.invariant == "pairing-nondegenerate"

    with pytest.raises(DatumValidationError) as err:
        make_root_datum(1, [(2,)], [(1,)], [[1]], [0])
    assert err.value.invariant == "negation-closure"

    gl2 = build_root_datum("GL2")
    with pytest.raises(DatumValidationError) as err:
        make_root_datum(
            2,
            list(gl2.roots) + [(1, 0), (-1, 0)],
            list(gl2.coroots) + [(2, 0), (-2, 0)],
            gl2.pairing,
            [1],
        )
    assert err.value.invariant == "reflection-closure"

    gl3 = build_root_datum("GL3")
    with pytest.raises(DatumValidationError) as err:
        make_root_datum(3, gl3.roots, gl3.coroots, gl3.pairing,
                        [gl3.root_index((1, -1, 0))])
    assert err.value.invariant == "base"

    # bools equal 0 and 1 and hash alike, so each entry must be a real int
    good = dict(rank=2, roots=[(1, -1), (-1, 1)], coroots=[(1, -1), (-1, 1)],
                pairing=((1, 0), (0, 1)), simple_roots=[0])
    make_root_datum(**good)
    for field, value, invariant in [
        ("rank", True, "rank"),
        ("roots", [(True, -1), (-1, 1)], "roots"),
        ("coroots", [(1, -1), (-1, True)], "coroots"),
        ("pairing", ((True, 0), (0, 1)), "pairing-shape"),
        ("simple_roots", [False], "simple-roots"),
    ]:
        with pytest.raises(DatumValidationError) as err:
            make_root_datum(**dict(good, **{field: value}))
        assert err.value.invariant == invariant, field


def test_base_check_messages():
    def base_error(datum, simples):
        with pytest.raises(DatumValidationError) as err:
            make_root_datum(datum.rank, datum.roots, datum.coroots,
                            datum.pairing,
                            [datum.root_index(r) for r in simples])
        assert err.value.invariant == "base"
        return str(err.value)

    gl3 = build_root_datum("GL3")
    so5 = build_root_datum("SO5")
    # outside the span, and inside it with half-integer coordinates
    # (e1 = (e1 + e2)/2 + (e1 - e2)/2): one message for both
    for datum, simples in [(gl3, [(1, -1, 0)]), (so5, [(1, 1), (1, -1)])]:
        assert "is not an integer combination of the simple roots" in \
            base_error(datum, simples)
    assert "mixed-sign" in base_error(gl3, [(1, -1, 0), (1, 0, -1)])
    assert "linearly dependent" in base_error(
        gl3, [(1, -1, 0), (0, 1, -1), (1, 0, -1)])


@pytest.mark.parametrize("name", REFERENCE_PRESETS + ("sheared-GL3",))
def test_simple_root_coords_match_fraction_reference(name):
    datum = sheared_gl3() if name == "sheared-GL3" else build_root_datum(name)
    simples = datum.simple_root_vectors()
    expected = tuple(
        tuple(int(c) for c in coords_in_base(simples, alpha)) if simples
        else () for alpha in datum.roots)
    assert simple_root_coords(datum) == expected


def test_preset_rank_guards():
    with pytest.raises(ValueError):
        build_root_datum("GL9")
    with pytest.raises(ValueError):
        build_root_datum("SO19")
    with pytest.raises(ValueError):
        build_root_datum("E8")
    with pytest.raises(ValueError):
        build_root_datum("Sp5")  # odd size


def test_simple_coreflections_have_order_two():
    for name in ["GL4", "SO7", "G2"]:
        datum = build_root_datum(name)
        for m in simple_coreflections(datum):
            assert weyl_order(weyl_from_matrix(datum, m)) == 2


def test_gl_weyl_elements_are_permutation_matrices():
    datum = general_linear(3)
    for w in weyl_group_elements(datum):
        assert sorted(w.matrix) == sorted(((1, 0, 0), (0, 1, 0), (0, 0, 1)))


def test_integer_root_permutation_matches_contragredient():
    # the Fraction contragredient stays as the reference for the integer
    # coroot permutation
    for name in ["GL3", "SL3", "GL4", "Sp4", "SO5", "G2"]:
        datum = build_root_datum(name)
        for w in weyl_group_elements(datum):
            via_action = tuple(datum.root_index(root_action(datum, w, alpha))
                               for alpha in datum.roots)
            assert root_permutation(datum, w) == via_action


def test_weyl_from_matrix_accepts_every_weyl_element():
    for name in ["GL1", "GL2", "GL3", "GL4", "SL2", "SL3", "SL4", "Sp4",
                 "Sp6", "SO5", "SO6", "SO7", "G2"]:
        datum = build_root_datum(name)
        for w in weyl_group_elements(datum):
            assert weyl_from_matrix(datum, w.matrix) == w


def test_weyl_from_matrix_rejects_datum_automorphisms_outside_w():
    diagram = ((0, 0, -1), (0, -1, 0), (-1, 0, 0))  # x -> -w0(x)
    for name, matrix in [("GL1", ((-1,),)),
                         ("GL2", ((-1, 0), (0, -1))),
                         ("GL3", ((-1, 0, 0), (0, -1, 0), (0, 0, -1))),
                         ("GL3", diagram)]:
        datum = build_root_datum(name)
        # each matrix permutes the roots preserving the pairing ...
        assert sorted(root_permutation(datum, WeylElement(matrix))) == list(
            range(len(datum.roots)))
        # ... but is not a product of simple reflections
        with pytest.raises(ValueError, match="not a Weyl group element"):
            weyl_from_matrix(datum, matrix)


def test_root_permutation_checks_the_pairing():
    gl2 = build_root_datum("GL2")
    shear = ((2, 1), (-1, 0))  # fixes the coroot (1, -1), moves its root
    with pytest.raises(ValueError, match="does not preserve the pairing"):
        root_permutation(gl2, WeylElement(shear))
    with pytest.raises(ValueError, match="does not preserve the pairing"):
        weyl_from_matrix(gl2, shear)


def test_weyl_group_enumerated_once_per_datum():
    gl3 = build_root_datum("GL3")
    fresh = make_root_datum(gl3.rank, gl3.roots, gl3.coroots, gl3.pairing,
                            gl3.simple_roots, label="GL3/enumeration-test")
    with pytest.raises(GuardError, match="exceeds enumeration limit 5"):
        weyl_group_elements(fresh, 5)
    elements = weyl_group_elements(fresh, 6)
    assert len(elements) == 6
    assert weyl_group_elements(fresh) is elements
    assert weyl_group_elements(fresh, 1152) is elements
    with pytest.raises(GuardError, match="exceeds enumeration limit 5"):
        weyl_group_elements(fresh, 5)


def test_datum_memo_stays_out_of_equality():
    first, second = build_root_datum("Sp6"), build_root_datum("Sp6")
    assert first is not second
    table = root_functionals(first)
    assert root_functionals(first) is table
    # equal datums built separately share no tables: each memo lives and
    # dies with its own datum
    assert root_functionals(second) == table
    assert root_functionals(second) is not table
    assert first == second and hash(first) == hash(second)
    assert first._memo and "_memo" not in repr(first)
    assert "_memo" not in datum_to_dict(first)
    relabeled = make_root_datum(first.rank, first.roots, first.coroots,
                                first.pairing, first.simple_roots, "Sp6/x")
    assert relabeled != first


def _use_every_table(datum, q, f, vbar, word):
    """Fill the datum's memo through every construction that keeps a
    table on it."""
    w = weyl_from_word(datum, word)
    p = make_pair(datum, q, f, vbar, w)
    lift_inertia(datum, p)
    regular_lift(datum, p)
    assert simple_trick_check(datum, q, f, w)
    is_G_irreducible(datum, p)
    brute_force_parabolic_oracle(datum, p)
    weyl_group_elements(datum)
    weyl_fixed_space(datum, w)
    weyl_from_matrix(datum, w.matrix)


def test_datum_is_freed_with_its_tables():
    # freed by reference counting alone: no memo entry refers back to the
    # datum, so dropping the last reference frees it without the cycle
    # collector
    gl3 = build_root_datum("GL3")
    datum = make_root_datum(gl3.rank, gl3.roots, gl3.coroots, gl3.pairing,
                            gl3.simple_roots, label="GL3/weakref-test")
    gc.collect()
    gc.disable()
    try:
        _use_every_table(datum, 5, 3, (25, 5, 1), [0, 1])
        ref = weakref.ref(datum)
        del datum
        assert ref() is None
    finally:
        gc.enable()


def test_used_datum_pickles_with_an_empty_memo():
    sp4 = build_root_datum("Sp4")
    _use_every_table(sp4, 3, 2, (1, 3), [0])
    copy = pickle.loads(pickle.dumps(sp4))
    assert copy == sp4 and hash(copy) == hash(sp4)
    assert copy._memo == {} and sp4._memo
    assert root_functionals(copy) == root_functionals(sp4)
    assert weyl_group_elements(copy) == weyl_group_elements(sp4)


def test_axiom_check_computes_each_pairing_once(monkeypatch):
    import tamelift.root_datum as rd

    calls = []

    def counting_dot(u, v):
        calls.append(1)
        return dot(u, v)

    monkeypatch.setattr(rd, "dot", counting_dot)
    monkeypatch.setattr(rd, "pair", None)
    sp6 = build_root_datum("Sp6")
    # one <alpha, beta^vee> per ordered pair of roots, read off the root
    # functionals that the check leaves in the memo with the other tables
    # it served
    assert len(calls) == len(sp6.roots) ** 2 == 324
    memoized = {key[0].__name__ for key in sp6._memo}
    assert memoized == {"root_functionals", "_root_index_map",
                        "_coroot_index_map", "simple_root_coords"}
