"""Tests for Hodge-Tate types, regularization, and the multiset calculus."""
from __future__ import annotations

import random
import sys
from dataclasses import fields

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import tamelift.crystalline_lift as crystalline_lift
import tamelift.root_datum as root_datum
import tamelift.tame_reps as tame_reps
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
    simple_trick_check,
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
    RegularLiftResult,
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
    ModSolver,
    identity_matrix,
    mat_pow,
    mat_vec,
    smith_normal_form,
    vec_add,
    vec_mod,
    vec_scale,
    zero_vec,
)
from tamelift.root_datum import (
    WeylElement,
    build_root_datum,
    make_root_datum,
    root_pairings,
    weyl_from_word,
    weyl_group_elements,
    weyl_identity,
)
from tamelift.tame_reps import TameInertialPair, make_pair, validate_pair

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


def test_canonical_regular_cochar_falls_back_when_the_staircase_fails():
    # the root (1, -2, 1) pairs to zero with every staircase (2+k, 1+k, k);
    # the fallback (1, t, t^2) pairs to (t - 1)^2, nonzero from t = 2
    datum = make_root_datum(3, [(1, -2, 1), (-1, 2, -1)],
                            [(0, -1, 0), (0, 1, 0)], identity_matrix(3), [0])
    assert canonical_regular_cochar(datum) == (1, 2, 4)
    result = regular_lift(datum, make_pair(datum, 3, 1, (1, 0, 1),
                                           weyl_identity(datum)))
    assert result.regular and result.seed_multiplier == 0


def test_regular_lift_already_regular():
    result = regular_lift(GL2, make_pair(GL2, 3, 2, (1, 3), SWAP))
    assert type(result) is RegularLiftResult
    assert [f.name for f in fields(result)] == [
        "tuple", "kernel_checked", "reduction_checked", "regular",
        "seed_multiplier"]
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
    x = ModSolver(smith_normal_form(xi_bar), n).solve(p.vbar)
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


def _plan_keys(datum):
    plan = crystalline_lift._lift_plan.__wrapped__
    return [key[1] for key in datum._memo
            if isinstance(key, tuple) and key[0] is plan]


def test_lifts_reuse_one_plan_per_configuration(monkeypatch):
    builds, searches = [], []

    def counting(calls, fn):
        def wrapper(*args):
            calls.append(args)
            return fn(*args)
        return wrapper

    monkeypatch.setattr(crystalline_lift, "averaged_scale_matrix", counting(
        builds, crystalline_lift.averaged_scale_matrix))
    # the seed search is the only caller of is_regular_cochar in root_datum
    monkeypatch.setattr(root_datum, "is_regular_cochar", counting(
        searches, root_datum.is_regular_cochar))
    gl3 = build_root_datum("GL3")
    p = make_pair(gl3, 5, 3, (0, 0, 0), weyl_from_word(gl3, [0, 1]))
    regular_lift(gl3, p)
    lift_inertia(gl3, p)
    assert simple_trick_check(gl3, 5, 3, p.w)
    again = make_pair(gl3, 5, 3, (31, 31, 31), weyl_from_word(gl3, "s0 s1"))
    lift_inertia(gl3, again)
    regular_lift(gl3, again)
    assert len(builds) == 1 and _plan_keys(gl3) == [(p.w, 5, 3)]
    searched = len(searches)
    assert searched
    # a second configuration gets its own plan but not a second seed search
    other = make_pair(gl3, 3, 2, (0, 0, 0), weyl_from_word(gl3, [0]))
    assert regular_lift(gl3, other).regular
    assert len(builds) == 2 and len(_plan_keys(gl3)) == 2
    assert len(searches) == searched
    # a refused configuration leaves no plan behind
    with pytest.raises(LiftHypothesisError):
        regular_lift(gl3, make_pair(gl3, 5, 2, (0, 0, 0), p.w))
    assert len(_plan_keys(gl3)) == 2


def test_lifts_refuse_a_frobenius_outside_w():
    # built directly, the pair skips make_pair's W check, and -I on GL2
    # passes the lift hypothesis ((-I)^2 = 1); the plan build refuses it
    gl2 = build_root_datum("GL2")
    minus_i = WeylElement(matrix=((-1, 0), (0, -1)))
    p = TameInertialPair(q=3, f=2, vbar=(2, 4), w=minus_i)
    for attempt in (lambda: lift_inertia(gl2, p),
                    lambda: regular_lift(gl2, p),
                    lambda: simple_trick_check(gl2, 3, 2, minus_i)):
        with pytest.raises(ValueError, match="lies outside W"):
            attempt()
    assert _plan_keys(gl2) == []
    swap = weyl_from_word(gl2, [0])
    assert lift_inertia(gl2, make_pair(gl2, 3, 2, (1, 3), swap)).tuple.slots \
        == ((1, 0), (0, 1))
    assert _plan_keys(gl2) == [(swap, 3, 2)]


# ---------------------------------------------------------------------------
# deferred validation: a pair is validated only when its lift fails, and
# then before anything else, so every refusal keeps the error it had when
# each lift validated its pair up front

MINUS_I = WeylElement(matrix=((-1, 0), (0, -1)))


def refused_cases():
    """(label, datum, pair, exception type, message pattern), in the
    order of precedence: incompatibility and a rank mismatch first, then
    the plan build's refusals."""
    gl2, gl3 = build_root_datum("GL2"), build_root_datum("GL3")
    cycle = weyl_from_word(gl3, [0, 1])  # order 3, so cycle^2 != 1
    swap = weyl_from_word(gl2, [0])
    return [
        ("invalid, w^f = 1", gl2, make_pair(gl2, 3, 2, (1, 5), swap),
         InvalidPairError,
         r"^pair fails compatibility at coordinates \[0, 1\] \(mod 8\)$"),
        ("invalid, w^f != 1", gl3, make_pair(gl3, 3, 2, (1, 0, 0), cycle),
         InvalidPairError,
         r"^pair fails compatibility at coordinates \[0, 1\] \(mod 8\)$"),
        ("invalid, w = -I", gl2,
         TameInertialPair(q=3, f=2, vbar=(1, 5), w=MINUS_I),
         InvalidPairError,
         r"^pair fails compatibility at coordinates \[0, 1\] \(mod 8\)$"),
        ("valid, w = -I", gl2,
         TameInertialPair(q=3, f=2, vbar=(2, 4), w=MINUS_I),
         ValueError, "lies outside W"),
        ("valid, w^f != 1", gl3, make_pair(gl3, 3, 2, (0, 0, 0), cycle),
         LiftHypothesisError,
         r"^lifting requires the Weyl element's f-th power to be the "
         r"identity \(f=2\)$"),
        ("valid, other rank", gl3, make_pair(gl2, 3, 2, (1, 3), swap),
         ValueError, r"^pair has 2 coordinates, datum has rank 3$"),
        ("invalid, other rank", gl3, make_pair(gl2, 3, 2, (1, 5), swap),
         ValueError, r"^pair has 2 coordinates, datum has rank 3$"),
    ]


def spy_on_validate_pair(monkeypatch):
    """Count the calls through every tamelift binding of validate_pair."""
    calls = []
    original = tame_reps.validate_pair

    def spy(datum, p):
        calls.append(p)
        return original(datum, p)

    bound = [module for name, module in sorted(sys.modules.items())
             if (name == "tamelift" or name.startswith("tamelift."))
             and getattr(module, "validate_pair", None) is original]
    assert tame_reps in bound and len(bound) >= 2
    for module in bound:
        monkeypatch.setattr(module, "validate_pair", spy)
    return calls


@pytest.mark.parametrize("lift", [lift_inertia, regular_lift])
def test_refused_pairs_raise_what_up_front_validation_raised(monkeypatch,
                                                              lift):
    calls = spy_on_validate_pair(monkeypatch)
    for label, datum, p, error, message in refused_cases():
        del calls[:]
        before = _plan_keys(datum)
        with pytest.raises(error, match=message):
            lift(datum, p)
        assert len(calls) == 1, label
        if label == "invalid, w^f = 1":
            # the configuration is liftable: its one plan is kept, as a
            # valid pair of the same configuration would keep it
            assert _plan_keys(datum) == before + [(p.w, p.q, p.f)]
        else:
            assert _plan_keys(datum) == before, label
    gl2 = build_root_datum("GL2")
    del calls[:]
    assert lift(gl2, make_pair(gl2, 3, 2, (1, 3), SWAP)).regular
    assert calls == []


@st.composite
def lift_sweep_attempts(draw):
    """Any lift-sweep configuration, w^f = 1 or not, with vbar drawn
    uniformly, from the image of xi_bar, or one unit away from it."""
    datum = LIFT_DATA[draw(st.sampled_from(LIFT_PRESETS))]
    q = draw(st.sampled_from(LIFT_PRIME_POWERS))
    f = draw(st.sampled_from(LIFT_DEGREES))
    w = draw(st.sampled_from(weyl_group_elements(datum)))
    n = q ** f - 1
    x = draw(st.tuples(*[st.integers(0, n - 1)] * datum.rank))
    kind = draw(st.sampled_from(["uniform", "image", "perturbed"]))
    if kind != "uniform":
        x = mat_vec(averaged_scale_matrix(w.matrix, q, f), x)
    if kind == "perturbed":
        i = draw(st.integers(0, datum.rank - 1))
        x = tuple(c + (k == i) for k, c in enumerate(x))
    return datum, make_pair(datum, q, f, x, w)


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(lift_sweep_attempts())
def test_every_lifted_pair_is_valid_property(case):
    datum, p = case
    valid = validate_pair(datum, p).valid
    try:
        lifted = lift_inertia(datum, p)
    except InvalidPairError:
        assert not valid
        return
    except LiftHypothesisError:
        assert valid
        assert mat_pow(p.w.matrix, p.f) != identity_matrix(datum.rank)
        return
    assert valid
    assert reduction(lifted.tuple) == p.vbar


def forbidden_multipliers(pairings, n):
    """The C >= 0 candidates that (P, A) pairs forbid: -P / (N . A) where
    that is an integer."""
    return {-a // (n * b) for a, b in pairings if a % (n * b) == 0}


@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(lift_sweep_pairs(), st.data())
def test_every_slot_forbids_what_the_seed_forbids_property(case, data):
    # the closed form reads the forbidden multipliers off slot 0 alone,
    # against the plan's seed steps; over all roots, every slot's (base,
    # seed) pairings are slot 0's reordered, so every slot forbids the same
    # values.  The solved x and an integer x of any size (whose pairings
    # can forbid C > 0) are both checked.
    datum, p = case
    plan = crystalline_lift._lift_plan(datum, p.w, p.q, p.f)
    s, n = canonical_regular_cochar(datum), plan.modulus
    solved = plan.xi_solver.solve(p.vbar)
    wide = data.draw(st.tuples(*[st.integers(-4 * n, 4 * n)] * datum.rank))
    every_slot = {}
    for x in (solved, wide):
        one_slot = forbidden_multipliers(
            [(a, b // n) for a, b in zip(root_pairings(datum, x),
                                         plan.seed_steps)], n)
        slots = [sorted(zip(root_pairings(datum, mat_vec(m, x)),
                            root_pairings(datum, mat_vec(m, s))))
                 for m in plan.slot_matrices]
        assert all(pairs == slots[0] for pairs in slots)
        every_slot[x] = set().union(*(forbidden_multipliers(pairs, n)
                                      for pairs in slots))
        assert one_slot == every_slot[x]
    forbidden = every_slot[solved]
    result = regular_lift(datum, p)
    assert result.seed_multiplier == min(
        c for c in range(len(forbidden) + 1) if c not in forbidden)


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
