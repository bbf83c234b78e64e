"""Tests for Hodge-Tate types, regularization, and the multiset calculus."""
from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import tamelift.crystalline_lift as crystalline_lift
import tamelift.hodge_tate as hodge_tate
from tamelift.acceptance import (
    LIFT_DEGREES,
    LIFT_PRESETS,
    LIFT_PRIME_POWERS,
    _lift_sweep,
)
from tamelift.crystalline_lift import (
    CrysCharTuple,
    averaged_scale_matrix,
    kernel_membership,
    lift_inertia,
    make_crys_tuple,
    reduction,
    xi_operator,
)
from tamelift.errors import (
    InvalidPairError,
    LiftHypothesisError,
    MultisetDivisionError,
)
from tamelift.hodge_tate import (
    EmbeddingProfile,
    HTType,
    IntMultiset,
    canonical_regular_cochar,
    galois_twist,
    gl_colabeled_multisets,
    ht_to_dict,
    ht_type,
    induced_lt_ht,
    is_ht_regular,
    labeled_from_colabeled,
    make_unramified_profile,
    multiset_divide,
    regular_lift,
    regular_seed,
)
from tamelift.lattice import (
    identity_matrix,
    mat_pow,
    mat_vec,
    smith_normal_form,
    solve_mod_smith,
    vec_add,
    vec_mod,
    vec_scale,
    zero_vec,
)
from tamelift.root_datum import (
    build_root_datum,
    weyl_from_word,
    weyl_group_elements,
    weyl_identity,
)
from tamelift.tame_reps import make_pair

GL2 = build_root_datum("GL2")
GL3 = build_root_datum("GL3")
SWAP = weyl_from_word(GL2, [0])


def test_ht_type_examples():
    assert ht_type(make_crys_tuple(GL2, 3, [(1, 0), (0, 0)])).cochars == \
        ((-1, 0), (0, 0))
    assert ht_type(make_crys_tuple(GL2, 3, [(0, 0), (0, 0)])).cochars == \
        ((0, 0), (0, 0))
    assert ht_type(make_crys_tuple(GL2, 3, [(1, 0), (0, 1)])).cochars == \
        ((-1, 0), (0, -1))


def test_ht_type_guards():
    with pytest.raises(ValueError):
        HTType(f=2, cochars=((1, 0),))
    with pytest.raises(ValueError):
        HTType(f=0, cochars=())


def test_is_ht_regular_examples():
    assert is_ht_regular(GL2, HTType(f=2, cochars=((-1, 0), (0, -1))))
    assert not is_ht_regular(GL2, HTType(f=2, cochars=((0, 0), (0, -1))))
    gl4 = build_root_datum("GL4")
    assert is_ht_regular(gl4, HTType(f=1, cochars=((-3, -1, -2, 0),)))


def test_regular_seed_examples():
    assert regular_seed(GL2, 3, 2, 0, (1, 0)).slots == ((1, 0), (0, 0))
    assert regular_seed(GL2, 3, 3, 2, (2, 1)).slots == \
        ((0, 0), (0, 0), (2, 1))
    with pytest.raises(ValueError):
        regular_seed(GL2, 3, 2, 0, (1, 1))
    with pytest.raises(ValueError):
        regular_seed(GL2, 3, 2, 5, (1, 0))


def test_canonical_regular_cochar_presets():
    expected = {
        "GL2": (1, 0),
        "GL3": (2, 1, 0),
        "GL4": (3, 2, 1, 0),
        "SL3": (1, 0),
        "Sp4": (2, 1),
        "SO5": (2, 1),
        "SO6": (2, 1, 0),
        "SO8": (3, 2, 1, 0),
        "G2": (2, 1),
    }
    for name, cochar in expected.items():
        datum = build_root_datum(name)
        assert canonical_regular_cochar(datum) == cochar, name
        assert is_ht_regular(datum, HTType(f=1, cochars=(cochar,)))


def test_regular_lift_already_regular():
    result = regular_lift(GL2, make_pair(GL2, 3, 2, (1, 3), SWAP))
    assert result.seed_multiplier == 0
    assert result.tuple.slots == ((1, 0), (0, 1))
    assert result.regular


def test_regular_lift_zero_vbar():
    result = regular_lift(GL2, make_pair(GL2, 3, 2, (0, 0), SWAP))
    assert result.seed_multiplier == 1
    assert result.tuple.slots == ((0, 8), (8, 0))
    assert reduction(result.tuple) == (0, 0)
    assert result.regular and result.kernel_checked and result.reduction_checked


def test_regular_lift_degree_one():
    result = regular_lift(GL2, make_pair(GL2, 3, 1, (0, 0), weyl_identity(GL2)))
    assert result.seed_multiplier == 1
    assert result.tuple.slots == ((2, 0),)
    assert reduction(result.tuple) == (0, 0)


def test_regular_lift_error_passthrough():
    cycle = weyl_from_word(GL3, [0, 1])
    with pytest.raises(LiftHypothesisError):
        regular_lift(GL3, make_pair(GL3, 3, 2, (0, 0, 0), cycle))
    with pytest.raises(InvalidPairError):
        regular_lift(GL2, make_pair(GL2, 3, 2, (1, 5), SWAP))


def test_regular_lift_sweep():
    from tamelift.crystalline_lift import averaged_scale_matrix

    rng = random.Random(23)
    for name in ["GL2", "GL3", "Sp4", "G2"]:
        datum = build_root_datum(name)
        ident = identity_matrix(datum.rank)
        for q in (2, 3):
            for f in (1, 2):
                n = q ** f - 1
                for w in weyl_group_elements(datum):
                    if mat_pow(w.matrix, f) != ident:
                        continue
                    xi_bar = averaged_scale_matrix(w.matrix, q, f)
                    for _ in range(5):
                        x = tuple(rng.randrange(n) for _ in range(datum.rank))
                        vbar = vec_mod(mat_vec(xi_bar, x), n)
                        p = make_pair(datum, q, f, vbar, w)
                        result = regular_lift(datum, p)
                        assert kernel_membership(w, result.tuple)
                        assert reduction(result.tuple) == p.vbar
                        assert is_ht_regular(datum, ht_type(result.tuple))
                        assert 0 <= result.seed_multiplier <= 4


# ---------------------------------------------------------------------------
# reference lift and regularization: the general averaging operator and a
# scan over C, the specification of the cached-plan, closed-form versions

def reference_lift(datum, p):
    n = p.modulus
    xi_bar = averaged_scale_matrix(p.w.matrix, p.q, p.f)
    x = solve_mod_smith(smith_normal_form(xi_bar), p.vbar, n)
    seed = CrysCharTuple(datum=datum, q=p.q, f=p.f,
                         slots=(x,) + (zero_vec(datum.rank),) * (p.f - 1))
    return xi_operator(p.w, seed)


def reference_regular_lift(datum, p):
    base = reference_lift(datum, p)
    seed = regular_seed(datum, p.q, p.f, 0, canonical_regular_cochar(datum))
    averaged = xi_operator(p.w, seed)
    for c in range(len(datum.roots) * p.f + 2):
        slots = tuple(vec_add(s, vec_scale(c * p.modulus, a))
                      for s, a in zip(base.slots, averaged.slots))
        candidate = CrysCharTuple(datum=datum, q=p.q, f=p.f, slots=slots)
        if is_ht_regular(datum, ht_type(candidate)):
            return slots, c
    raise AssertionError("scan exhausted its bound")


def test_plan_lifts_match_the_reference_on_the_lift_sweep():
    rng = random.Random(6)
    multipliers = []
    for _, datum, q, f, w in _lift_sweep():
        n = q ** f - 1
        xi_bar = averaged_scale_matrix(w.matrix, q, f)
        vbars = [zero_vec(datum.rank)] + [
            vec_mod(mat_vec(xi_bar, [rng.randrange(n)
                                     for _ in range(datum.rank)]), n)
            for _ in range(2)]
        for vbar in vbars:
            p = make_pair(datum, q, f, vbar, w)
            label = (datum.label, q, f, w.matrix, vbar)
            assert lift_inertia(datum, p).tuple == \
                reference_lift(datum, p), label
            result = regular_lift(datum, p)
            assert (result.tuple.slots, result.seed_multiplier) == \
                reference_regular_lift(datum, p), label
            multipliers.append(result.seed_multiplier)
    assert len(multipliers) == 156 * 3
    assert 0 < multipliers.count(0) < len(multipliers)


LIFT_DATA = {name: build_root_datum(name) for name in LIFT_PRESETS}


@st.composite
def lift_sweep_pairs(draw):
    """A lift-sweep preset, q and f, a w with w^f = 1, and the pair with
    vbar = xi_bar . x mod N for an x drawn from [0, N)^r."""
    datum = LIFT_DATA[draw(st.sampled_from(LIFT_PRESETS))]
    q = draw(st.sampled_from(LIFT_PRIME_POWERS))
    f = draw(st.sampled_from(LIFT_DEGREES))
    ident = identity_matrix(datum.rank)
    w = draw(st.sampled_from([w for w in weyl_group_elements(datum)
                              if mat_pow(w.matrix, f) == ident]))
    n = q ** f - 1
    x = draw(st.tuples(*[st.integers(0, n - 1)] * datum.rank))
    vbar = vec_mod(mat_vec(averaged_scale_matrix(w.matrix, q, f), x), n)
    return datum, make_pair(datum, q, f, vbar, w)


@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(lift_sweep_pairs())
def test_plan_lifts_match_the_reference_property(case):
    datum, p = case
    assert lift_inertia(datum, p).tuple == reference_lift(datum, p)
    result = regular_lift(datum, p)
    assert (result.tuple.slots, result.seed_multiplier) == \
        reference_regular_lift(datum, p)


def test_lifts_reuse_one_plan_per_configuration(monkeypatch):
    builds = []

    def counting(name, fn):
        def wrapper(*args):
            builds.append(name)
            return fn(*args)
        return wrapper

    monkeypatch.setattr(crystalline_lift, "averaged_scale_matrix", counting(
        "lift", crystalline_lift.averaged_scale_matrix))
    monkeypatch.setattr(hodge_tate, "canonical_regular_cochar", counting(
        "regular", hodge_tate.canonical_regular_cochar))
    plans = (crystalline_lift._lift_plan.__wrapped__,
             hodge_tate._regular_plan.__wrapped__)

    def memo_plans(datum):
        return sorted(plans.index(key[0]) for key in datum._memo
                      if isinstance(key, tuple) and key[0] in plans)

    gl3 = build_root_datum("GL3")
    p = make_pair(gl3, 5, 3, (0, 0, 0), weyl_from_word(gl3, [0, 1]))
    regular_lift(gl3, p)
    assert builds == ["lift", "regular"] and memo_plans(gl3) == [0, 1]
    again = make_pair(gl3, 5, 3, (31, 31, 31), weyl_from_word(gl3, "s0 s1"))
    lift_inertia(gl3, again)
    regular_lift(gl3, again)
    assert builds == ["lift", "regular"] and memo_plans(gl3) == [0, 1]
    # a refused configuration leaves no plan behind
    with pytest.raises(LiftHypothesisError):
        regular_lift(gl3, make_pair(gl3, 5, 2, (0, 0, 0), p.w))
    assert memo_plans(gl3) == [0, 1]


def test_averaged_seed_slots_are_weyl_translates():
    for name, f, j0 in [("GL2", 2, 0), ("GL3", 3, 1), ("Sp4", 2, 1)]:
        datum = build_root_datum(name)
        lam = canonical_regular_cochar(datum)
        for w in weyl_group_elements(datum):
            if mat_pow(w.matrix, f) != identity_matrix(datum.rank):
                continue
            averaged = xi_operator(w, regular_seed(datum, 3, f, j0, lam))
            for j, slot in enumerate(averaged.slots):
                power = mat_pow(w.matrix, (j0 - j - 1) % f)
                assert slot == mat_vec(power, lam)
            assert is_ht_regular(datum, ht_type(averaged))


def test_multiset_normalization_and_union():
    m = IntMultiset((2, 1, 2, -1))
    assert m.items == (-1, 1, 2, 2)
    assert m.size == 4
    assert m.counts() == {-1: 1, 1: 1, 2: 2}
    assert m.union(IntMultiset((0, 2))).items == (-1, 0, 1, 2, 2, 2)


def test_multiset_divide_examples():
    assert multiset_divide(IntMultiset((1, 1, 2, 2, 2, 2)), 2).items == (1, 2, 2)
    m = IntMultiset((3, 1, 4))
    assert multiset_divide(m, 1) == m
    with pytest.raises(MultisetDivisionError):
        multiset_divide(IntMultiset((1, 1, 2)), 2)
    with pytest.raises(ValueError):
        multiset_divide(m, 0)


def test_unramified_profile():
    profile = make_unramified_profile(2, 3)
    assert profile.colabels == (0, 1, 2, 3, 4, 5)
    assert profile.labels() == (0, 1)
    assert profile.fiber(0) == (0, 2, 4)
    assert profile.fiber(1) == (1, 3, 5)
    assert profile.restrict(4) == 0
    with pytest.raises(ValueError):
        make_unramified_profile(0, 2)


def test_profile_validation():
    with pytest.raises(ValueError):
        EmbeddingProfile(colabels=(0, 1, 2), degree=2,
                         restriction=((0, 0), (1, 0), (2, 1)))
    with pytest.raises(ValueError):
        EmbeddingProfile(colabels=(0, 1), degree=1,
                         restriction=((0, 0), (3, 1)))


def test_labeled_from_colabeled_examples():
    trivial = make_unramified_profile(3, 1)
    data = {0: IntMultiset((5,)), 1: IntMultiset((7,)), 2: IntMultiset((9,))}
    assert labeled_from_colabeled(trivial, data, 1) == IntMultiset((7,))

    pair_profile = make_unramified_profile(1, 2)
    data = {0: IntMultiset((-1, 0)), 1: IntMultiset((-1, 0))}
    assert labeled_from_colabeled(pair_profile, data, 0) == IntMultiset((-1, 0))

    with pytest.raises(ValueError):
        labeled_from_colabeled(pair_profile, {0: IntMultiset(())}, 0)
    with pytest.raises(ValueError):
        labeled_from_colabeled(pair_profile, data, 9)
    skewed = {0: IntMultiset((-1, 0)), 1: IntMultiset((0, 0))}
    with pytest.raises(MultisetDivisionError):
        labeled_from_colabeled(pair_profile, skewed, 0)


def test_galois_twist():
    m0, m1 = IntMultiset((1,)), IntMultiset((2, 2))
    data = {0: m0, 1: m1}
    assert galois_twist(data, {0: 0, 1: 1}) == data
    assert galois_twist(data, {0: 1, 1: 0}) == {0: m1, 1: m0}
    theta = {0: 1, 1: 2, 2: 0}
    inverse = {v: k for k, v in theta.items()}
    data3 = {0: m0, 1: m1, 2: IntMultiset(())}
    assert galois_twist(galois_twist(data3, theta), inverse) == data3
    with pytest.raises(ValueError):
        galois_twist(data, {0: 0, 1: 0})


def test_twist_commutes_with_labeling():
    profile = make_unramified_profile(2, 2)
    colabeled = {0: IntMultiset((-1, 0)), 1: IntMultiset((0, 0)),
                 2: IntMultiset((-1, 0)), 3: IntMultiset((0, 0))}
    for shift in range(4):
        theta = {s: (s + shift) % 4 for s in range(4)}
        twisted = galois_twist(colabeled, theta)
        for label in (0, 1):
            assert labeled_from_colabeled(profile, twisted, label) == \
                labeled_from_colabeled(profile, colabeled, (label + shift) % 2)


def test_size_bookkeeping():
    colabeled, labeled = induced_lt_ht(3, 2)
    total = sum(m.size for m in colabeled.values())
    theta = {s: (s + 1) % 6 for s in range(6)}
    twisted = galois_twist(colabeled, theta)
    assert sum(m.size for m in twisted.values()) == total
    profile = make_unramified_profile(3, 2)
    for label in profile.labels():
        fiber_total = sum(colabeled[c].size for c in profile.fiber(label))
        assert labeled[label].size * profile.degree == fiber_total


def test_induced_lt_ht_examples():
    _, labeled = induced_lt_ht(2, 1)
    assert labeled == {0: IntMultiset((-1,)), 1: IntMultiset((0,))}

    _, labeled = induced_lt_ht(2, 3)
    assert labeled[0].items == (-1, 0, 0)
    assert labeled[1].items == (0, 0, 0)

    colabeled, _ = induced_lt_ht(1, 2)
    assert colabeled == {0: IntMultiset((-1, 0)), 1: IntMultiset((-1, 0))}

    colabeled, _ = induced_lt_ht(2, 2)
    assert colabeled[0] == IntMultiset((-1, 0))
    assert colabeled[1] == IntMultiset((0, 0))

    with pytest.raises(ValueError):
        induced_lt_ht(2, 0)


def test_gl_labeled_size_is_dimension():
    from tamelift.crystalline_lift import lift_inertia

    p = make_pair(GL3, 3, 2, (1, 3, 0), weyl_from_word(GL3, [0]))
    result = lift_inertia(GL3, p)
    colabeled = gl_colabeled_multisets(ht_type(result.tuple))
    profile = make_unramified_profile(1, 2)
    labeled = labeled_from_colabeled(profile, colabeled, 0)
    assert labeled.size == 3


def test_ht_to_dict():
    t = ht_type(make_crys_tuple(GL2, 3, [(1, 0), (0, 1)]))
    assert ht_to_dict(t) == {"0": [-1, 0], "1": [0, -1]}
