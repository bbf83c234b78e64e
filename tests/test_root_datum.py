"""Tests for root data, presets, and Weyl element machinery.

The preset root systems are checked against an independent oracle that
reconstructs all roots from the Cartan matrix alone by closing the simple
reflections; coordinates are compared through the Fraction solver in
`fraction_reference`, not through the package's own helpers.
"""
from __future__ import annotations

import gc
import hashlib
import pickle
import random
import weakref

import permutation_reference
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
from tamelift.jsonio import canonical_json
from tamelift.lattice import (
    dot,
    identity_matrix,
    integer_kernel_basis,
    mat_pow,
    mat_vec,
)
from tamelift.root_datum import (
    WEYL_GROUP_CAP,
    WeylElement,
    build_root_datum,
    datum_from_dict,
    datum_to_dict,
    g2_datum,
    general_linear,
    is_regular_cochar,
    make_root_datum,
    root_functionals,
    root_permutation,
    simple_coreflections,
    simple_root_coords,
    weyl_fixed_space,
    weyl_from_matrix,
    weyl_from_word,
    weyl_group_elements,
    weyl_identity,
)
from tamelift.tame_reps import (
    brute_force_parabolic_oracle,
    is_G_irreducible,
    make_pair,
)


def pair(datum, character, cochar):
    """<character, cochar> straight from the pairing matrix, independent of
    the package's root functionals."""
    return dot(character, mat_vec(datum.pairing, cochar))


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


def test_weyl_from_word_examples():
    gl2 = build_root_datum("GL2")
    assert weyl_from_word(gl2, [0]).matrix == ((0, 1), (1, 0))
    assert weyl_from_word(gl2, "s0").matrix == ((0, 1), (1, 0))
    assert weyl_from_word(gl2, []).matrix == ((1, 0), (0, 1))
    gl3 = build_root_datum("GL3")
    w = weyl_from_word(gl3, [0, 1])
    assert mat_pow(w.matrix, 3) == weyl_identity(gl3).matrix != w.matrix
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


def test_weyl_element_hash_is_its_matrix_and_survives_pickling():
    # the hash is computed once, at construction; equal matrices still
    # hash and compare alike whatever the word, and an unpickled element
    # is rebuilt, so it finds the memo entries the original filled
    gl3 = build_root_datum("GL3")
    w = weyl_from_word(gl3, "s0 s1")
    twin = WeylElement(matrix=[list(row) for row in w.matrix])
    assert twin == w and hash(twin) == hash(w) == hash(w.matrix)
    assert twin.word is None and w.word == (0, 1)
    assert w != weyl_from_word(gl3, "s1 s0") and w != w.matrix
    assert simple_trick_check(gl3, 2, 3, w)
    entries = len(gl3._memo)
    for element in (w, twin):
        copy = pickle.loads(pickle.dumps(element))
        assert copy == w and hash(copy) == hash(w)
        assert copy.word == element.word
        assert simple_trick_check(gl3, 2, 3, copy, method="exhaustive")
    assert len(gl3._memo) == entries


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
        central = integer_kernel_basis(root_functionals(datum), datum.rank)
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


# every preset name with the sha256 of its canonical JSON (datum_to_dict,
# label and simple_coreflections), or the ValueError text that refuses it;
# recorded from the hand-written root tables the presets were built from
# before the reflection closure
PRESET_DIGESTS = {
    'GL0': 'GL0: rank must be at least 1',
    'GL1': '02c49826d04297ec99c435682107cbc4a2d6b6f8909594e89ae1e16bc4bd1c90',
    'GL2': 'a551a37f1cf7da222e275741767c0c3678947d3ae402a3d3a05d8d470388aa40',
    'GL3': '16acbc5b7b5828ab7fcfd5c3a3d361094691f7fe01388ed8cb14b6e2dfef11a0',
    'GL4': 'aaca5e30f540627669fa2a4886c660000d01a477250190cd2f4a48a5046ac36d',
    'GL5': '57039dfc600a9d74049727494cde39db114710b71d8f757ee35394d135f0be6b',
    'GL6': '66194699716ef3f99a626a5d119a2942ae3023e6e67feffa675c546f6bd576a6',
    'GL7': 'a5fee4e491650c064d2f0ce701c271ad829e7b52b263a35d66c171c17a648aa5',
    'GL8': '661d27c2ed5313d37348f4d1ba64a8491aa64bedb748b28d8aceca0f4c396c40',
    'GL9': 'GL9: preset rank 9 exceeds cap 8',
    'SL1': 'SL(n) needs n >= 2',
    'SL2': 'd8b9379149d488efdfdb6da38829febc4fd4e61fddbd4be98e69d42fa822f525',
    'SL3': '1c62bf453e5ff411910b20aae419dc2e41f15d3e4431e3ba01193a170251ab77',
    'SL4': '04291f53ed2ab68caf600d6423f3df2555923a7a187a8f7add928d248c39f7e8',
    'SL5': '0c88d839e52636d0eb03ddd6b4a9ae37f47912f43f4c54a9c850de9df3bdcf98',
    'SL6': '6fd846cf133d62cfdcba290dedbb93ab63a17f75e66fddd34bddfff34041aa95',
    'SL7': '90421bd68d9a36cea27c796473b4471422f0a1725a673e78edc11c2844c4e502',
    'SL8': 'fc6d60cc6aa504ec0faef3ce3f693a7bbd2d76d7cbe6cd227da5ee27396ba83b',
    'SL9': 'b9c71617a65a9cbf42813dab11bf7bfa2dbcbe34baec0d990159d635e4cb9370',
    'SL10': 'SL10: preset rank 9 exceeds cap 8',
    'Sp0': 'Sp(2n) needs a positive even size',
    'Sp3': 'Sp(2n) needs a positive even size',
    'Sp2': 'f13c843eb1e121f1247fc5f95371bb55e3034fc08f8dd58dd8fbccc59a2ffc1e',
    'Sp4': 'e5a89b9dea60b8bb055a024685e7fbcc47ed36b29e4b9ad36735dd3d0d79a1f3',
    'Sp6': '2fa0707764aab132d0ab9a4c5664fe9f6498a727224b1cd5c1936747b4680f85',
    'Sp8': '6cfdf5923127d93d5aae5e092864670c3be8b5599cb91ae031e2024b3079f542',
    'Sp10': 'a3e9efa44e1769e21b117a78ba19d0f32e0256bc92e1642a9e84054dbcaf00e7',
    'Sp12': 'd24517529c54ed524360468950ec1cfed071d458bb1d169d31b6749380c12bd6',
    'Sp14': 'd4ce9916372ad84f907f9d83b85ccc5fd1fee61b0d44f743a89b03400862a846',
    'Sp16': 'd4021e6be442896d1b859a61159ec37b14436a683a0448db29a489a819b01d2f',
    'Sp18': 'Sp18: preset rank 9 exceeds cap 8',
    'SO1': 'SO(m) needs m >= 2',
    'SO2': 'c806e905193443a2932370e63773c8c8b4d0ef30241b712c186389942fcff174',
    'SO3': 'f8f23f33ca0490c2aaa224816305adfe0ebd50eede0ed9dcda4b2a3d7ea44ced',
    'SO4': '5709b19bcd6b46bf90f9d1dffdc39c8020b330463ffd9f32b8c4d345db712780',
    'SO5': '4c715ff8b5dd29191b3b87ea8a042361237f3d1e2c26e60c515b98521f2941a6',
    'SO6': '24e3a11bb66d9a24b88fac7d29bacfd1e87f0a8314ab5a5088244a9235c76f5c',
    'SO7': '2e0f03a2f9a282ce70ad6c48752960f463b1135090b65678c372f894bcc65eb6',
    'SO8': 'd6beefb1ce483817d621850ce04374e6b8f354c7eb9ea771bcf775089fc62e43',
    'SO9': '7fb3607848f79337771440565d0a56211377dbc97370aa95881b015f8672ea19',
    'SO10': 'f43ccf023aba1e0028eaf25f1cc7532c49a970eaff5341f5151e1093aa47bd51',
    'SO11': '50aa5863b61f7e3a596041f03471e1db334fdac8205b267358b4c528bf9adf0f',
    'SO12': 'a11a9febcddbe09e38ea9d153ab7de2ebf13c38b37292856344e972c57f442ac',
    'SO13': '974e8be5e53a63523739a06a0fae090a8a9c6bfc01d78366abeab961ca376dad',
    'SO14': '379545510b18f58cc1471af19fdfda14a17446e64e894af07ccfcaa8eaa9f2ae',
    'SO15': '00bcd5366acbf9cb712f47ec6db5f2e1e834c9bc261eae4113d30ddecf3e3e9b',
    'SO16': '4b74d10c87f0c9e14cc80b7b5d1cbfb842c38c9d3e3f17d778ec3c82416ab00a',
    'SO17': '42abca741457ccd83887a6c84b96e9d16ca940e70423fadeb78b00b637afb88b',
    'SO18': 'SO18: preset rank 9 exceeds cap 8',
    'SO19': 'SO19: preset rank 9 exceeds cap 8',
    'G2': '2827a87b1d2f3538ec7b40d2d0f3e7b76ee5033d958dd90b174ae00961a0d71c',
    'E8': "unknown group 'E8'; expected GLn, SLn, Sp2n, SOm, or G2",
}


@pytest.mark.parametrize("name", sorted(PRESET_DIGESTS))
def test_preset_outcome_is_pinned(name):
    try:
        datum = build_root_datum(name)
    except ValueError as exc:
        assert str(exc) == PRESET_DIGESTS[name]
        return
    doc = {**datum_to_dict(datum), "label": datum.label,
           "simple_coreflections": [[list(row) for row in m]
                                    for m in simple_coreflections(datum)]}
    digest = hashlib.sha256(canonical_json(doc).encode()).hexdigest()
    assert digest == PRESET_DIGESTS[name]


def test_simple_coreflections_have_order_two():
    for name in ["GL4", "SO7", "G2"]:
        datum = build_root_datum(name)
        for m in simple_coreflections(datum):
            assert weyl_from_matrix(datum, m).matrix == m  # m lies in W
            assert m != mat_pow(m, 2) == weyl_identity(datum).matrix


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


def test_root_permutation_matches_the_per_root_reference():
    for name in ["GL1", "GL2", "GL3", "GL4", "SL2", "SL3", "SL4", "Sp4",
                 "Sp6", "SO5", "SO6", "SO7", "G2", "sheared-GL3"]:
        datum = (sheared_gl3() if name == "sheared-GL3"
                 else build_root_datum(name))
        for w in weyl_group_elements(datum):
            assert root_permutation(datum, w) == \
                permutation_reference.root_permutation(datum, w.matrix)


def test_root_permutation_refuses_a_matrix_of_another_rank():
    # the row lengths are checked once, before any image is built; a datum
    # without roots has the empty permutation whatever the matrix
    for name, matrix, expected in [
            ("GL2", identity_matrix(3), "dimension mismatch: 3 vs 2"),
            ("G2", identity_matrix(1), "dimension mismatch: 1 vs 2"),
            ("Sp4", ((0, 1, 0), (1, 0, 0), (0, 0, 1)),
             "dimension mismatch: 3 vs 2")]:
        datum = build_root_datum(name)
        for call in (lambda: root_permutation(datum, WeylElement(matrix)),
                     lambda: permutation_reference.root_permutation(datum,
                                                                    matrix)):
            with pytest.raises(ValueError) as raised:
                call()
            assert str(raised.value) == expected
    assert root_permutation(build_root_datum("GL1"),
                            WeylElement(identity_matrix(2))) == ()


def elementary_products(rank, rng, count):
    """count seeded products of one to four elementary matrices
    1 +- E_ij: unimodular, and mostly not automorphisms of a datum."""
    out = []
    for _ in range(count):
        matrix = [[int(i == j) for j in range(rank)] for i in range(rank)]
        for _ in range(rng.randint(1, 4)):
            i, j = rng.sample(range(rank), 2)
            sign = rng.choice((-1, 1))
            for row in matrix:
                row[j] += sign * row[i]
        out.append(tuple(map(tuple, matrix)))
    return out


def test_root_permutation_refuses_as_the_reference_does():
    # the first failing root names the error, and for that root the coroot
    # check comes before the pairing check
    rng = random.Random(26)
    kinds = set()
    for name in ["GL2", "GL3", "Sp4", "G2"]:
        datum = build_root_datum(name)
        matrices = elementary_products(datum.rank, rng, 40)
        if datum.rank == 2:
            matrices += [((2, 1), (-1, 0)), ((1, 1), (0, 1))]
        for matrix in matrices:
            try:
                expected = permutation_reference.root_permutation(datum,
                                                                  matrix)
            except ValueError as exc:
                expected = str(exc)
                kinds.add(expected.split()[1])
                for call in (lambda: root_permutation(datum,
                                                      WeylElement(matrix)),
                             lambda: weyl_from_matrix(datum, matrix)):
                    with pytest.raises(ValueError) as raised:
                        call()
                    assert str(raised.value) == expected, (name, matrix)
            else:
                assert root_permutation(datum, WeylElement(matrix)) == \
                    expected
    # "matrix sends coroot ..." and "matrix does not preserve the pairing"
    assert kinds == {"sends", "does"}


def test_weyl_group_enumerated_once_per_datum():
    gl3 = build_root_datum("GL3")
    fresh = make_root_datum(gl3.rank, gl3.roots, gl3.coroots, gl3.pairing,
                            gl3.simple_roots, label="GL3/enumeration-test")
    elements = weyl_group_elements(fresh)
    assert len(elements) == 6
    assert weyl_group_elements(fresh) is elements
    # |W(Sp12)| = 46,080: the enumeration stops past the cap, storing nothing
    sp12 = build_root_datum("Sp12")
    with pytest.raises(GuardError, match=f"^Weyl group of Sp12 exceeds "
                       f"enumeration limit {WEYL_GROUP_CAP}$"):
        weyl_group_elements(sp12)
    assert WEYL_GROUP_CAP == 10_000
    assert not [key for key in sp12._memo if isinstance(key, tuple)
                and key[0] is weyl_group_elements.__wrapped__]


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

    dots, pairings = [], []

    def counting(calls, fn):
        def wrapper(*args):
            calls.append(args)
            return fn(*args)
        return wrapper

    # the preset's own closure pairs roots too: count the validation alone
    built = build_root_datum("Sp6")
    monkeypatch.setattr(rd, "dot", counting(dots, rd.dot))
    monkeypatch.setattr(rd, "root_pairings", counting(pairings,
                                                      rd.root_pairings))
    sp6 = make_root_datum(built.rank, built.roots, built.coroots,
                          built.pairing, built.simple_roots, built.label)
    # one packed pairing per coroot gives a column of <alpha, beta^vee>
    # for every root: each pairing once, and no dot product of its own
    assert [args[1] for args in pairings] == list(sp6.coroots)
    assert len(pairings) == len(sp6.roots) == 18 and dots == []
    # the check leaves the root functionals and their packing in the memo
    # with the other tables it served
    memoized = {(key[0] if isinstance(key, tuple) else key).__name__
                for key in sp6._memo}
    assert memoized == {"root_functionals", "_packed_functionals",
                        "_root_index_map",
                        "_coroot_index_map", "simple_root_coords"}
