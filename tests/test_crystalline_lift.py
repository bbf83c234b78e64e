"""Tests for crystalline character tuples, the averaging operator, and the
lift construction."""
from __future__ import annotations

import math
import pickle
import random
import sys

import pairing_reference as ref
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from smith_reference import smith_normal_form as reference_smith_form

from tamelift import crystalline_lift
from tamelift.acceptance import (
    LIFT_DEGREES,
    LIFT_PRESETS,
    LIFT_PRIME_POWERS,
    _lift_sweep,
)
from tamelift.crystalline_lift import (
    EXHAUSTIVE_CAP,
    CrysCharTuple,
    _count_kernel_by_halves,
    _count_kernel_mod,
    _lift_plan,
    _prime_power_parts,
    averaged_scale_matrix,
    frobenius_shift,
    kernel_membership,
    lift_inertia,
    lift_to_dict,
    make_crys_tuple,
    reduction,
    simple_trick_check,
    weyl_act,
    xi_operator,
)
from tamelift.cli import main
from tamelift.errors import (
    GuardError,
    InternalConsistencyError,
    InvalidPairError,
    LiftHypothesisError,
)
from tamelift.hodge_tate import RegularLiftResult, regular_lift
from tamelift.lattice import (
    ModSolver,
    identity_matrix,
    is_strict_int,
    mat_add,
    mat_pow,
    mat_scale,
    mat_sub,
    mat_vec,
    smith_normal_form,
    vec_add,
    vec_mod,
    vec_scale,
)
from tamelift.root_datum import (
    build_root_datum,
    weyl_from_word,
    weyl_group_elements,
    weyl_identity,
)
from tamelift.tame_reps import (
    MODULUS_BITS_CAP,
    PRIME_TRIAL_BOUND,
    is_prime_power,
    make_pair,
)

GL2 = build_root_datum("GL2")
GL3 = build_root_datum("GL3")
SWAP = weyl_from_word(GL2, [0])


def random_tuple(rng, datum, q, f):
    slots = [tuple(rng.randrange(-4, 5) for _ in range(datum.rank))
             for _ in range(f)]
    return make_crys_tuple(datum, q, slots)


def elements_of_order_dividing(datum, f):
    ident = identity_matrix(datum.rank)
    return [w for w in weyl_group_elements(datum)
            if mat_pow(w.matrix, f) == ident]


def test_tuple_constructor_guards():
    with pytest.raises(ValueError):
        CrysCharTuple(datum=GL2, q=3, f=0, slots=())
    with pytest.raises(ValueError):
        CrysCharTuple(datum=GL2, q=3, f=2, slots=((1, 0),))
    with pytest.raises(ValueError):
        CrysCharTuple(datum=GL2, q=3, f=1, slots=((1, 0, 0),))


def test_frobenius_shift_examples():
    v = make_crys_tuple(GL2, 3, [(1, 0), (0, 1)])
    assert frobenius_shift(v).slots == ((0, 1), (1, 0))

    v3 = make_crys_tuple(GL2, 3, [(1, 1), (2, 2), (3, 3)])
    assert frobenius_shift(v3).slots == ((3, 3), (1, 1), (2, 2))

    v1 = make_crys_tuple(GL2, 3, [(5, 7)])
    assert frobenius_shift(v1).slots == v1.slots


def test_weyl_act_examples():
    v = make_crys_tuple(GL2, 3, [(1, 0), (2, 3)])
    assert weyl_act(SWAP, v).slots == ((0, 1), (3, 2))
    assert weyl_act(weyl_identity(GL2), v).slots == v.slots
    assert weyl_act(SWAP, weyl_act(SWAP, v)) == v
    with pytest.raises(ValueError):
        weyl_act(weyl_from_word(GL3, [0]), v)


def test_xi_operator_examples():
    v = make_crys_tuple(GL2, 3, [(1, 0), (0, 0)])
    assert xi_operator(SWAP, v).slots == ((0, 1), (1, 0))

    # for the identity element the operator is shift plus identity
    rng = random.Random(3)
    for _ in range(10):
        u = random_tuple(rng, GL2, 3, 2)
        shifted = frobenius_shift(u)
        expected = tuple(tuple(a + b for a, b in zip(s, t))
                         for s, t in zip(shifted.slots, u.slots))
        assert xi_operator(weyl_identity(GL2), u).slots == expected

    u1 = make_crys_tuple(GL2, 3, [(4, 7)])
    assert xi_operator(SWAP, u1) == u1


def test_xi_output_always_satisfies_kernel_condition():
    rng = random.Random(5)
    for name in ["GL2", "GL3", "Sp4", "G2"]:
        datum = build_root_datum(name)
        for f in (1, 2, 3):
            for w in elements_of_order_dividing(datum, f):
                for _ in range(5):
                    v = random_tuple(rng, datum, 3, f)
                    assert kernel_membership(w, xi_operator(w, v))


def test_crys_tuple_rejects_non_integer_slots():
    # accepted, the half-integer slot reduced to (1.5, 3)
    for slots in ([(1.5, 0), (0, 1)], [(1, 0), (0, True)]):
        with pytest.raises(ValueError, match="slot entries must be integers"):
            make_crys_tuple(GL2, 3, slots)


def test_crys_tuple_rejects_q_that_is_not_an_int():
    # accepted, q = True gave N = 0 and a ZeroDivisionError in reduction
    for q in (True, 3.0):
        with pytest.raises(ValueError, match="q must be an integer"):
            make_crys_tuple(GL2, q, [(1, 0), (0, 1)])


def test_crys_tuple_checks_q_and_f_as_a_pair_does():
    # accepted, q = 1 gave N = 0 and a ZeroDivisionError in reduction
    for q in (1, 6):
        with pytest.raises(ValueError, match="prime power"):
            make_crys_tuple(GL2, q, [(1, 0), (0, 1)])
    with pytest.raises(ValueError, match="f must be a positive integer"):
        CrysCharTuple(datum=GL2, q=3, f=0, slots=())


@pytest.mark.parametrize("q, f", [(2, MODULUS_BITS_CAP + 1), (3, 2585),
                                  (2, 200000)])
def test_tuple_and_exactness_check_bound_the_modulus(q, f):
    with pytest.raises(GuardError, match=f"bound of {MODULUS_BITS_CAP}"):
        CrysCharTuple(datum=GL2, q=q, f=f, slots=((0, 0),) * f)
    with pytest.raises(GuardError, match=f"bound of {MODULUS_BITS_CAP}"):
        simple_trick_check(GL2, q, f, weyl_identity(GL2), method="snf")


def test_tuple_and_exactness_check_refuse_an_undecided_q():
    q = 2 ** 61 - 1  # prime, with no factor up to PRIME_TRIAL_BOUND
    with pytest.raises(GuardError, match=f"up to {PRIME_TRIAL_BOUND}"):
        CrysCharTuple(datum=GL2, q=q, f=1, slots=((0, 0),))
    with pytest.raises(GuardError, match=f"up to {PRIME_TRIAL_BOUND}"):
        simple_trick_check(GL2, q, 1, weyl_identity(GL2), method="snf")


def test_reduction_examples():
    assert reduction(make_crys_tuple(GL2, 3, [(1, 0), (0, 1)])) == (1, 3)
    assert reduction(make_crys_tuple(GL2, 3, [(0, 0), (0, 0)])) == (0, 0)
    assert reduction(make_crys_tuple(GL2, 3, [(0, 0), (8, 0)])) == (0, 0)


LIFT_DATA = {name: build_root_datum(name) for name in LIFT_PRESETS}


@st.composite
def lift_sweep_tuples(draw):
    datum = LIFT_DATA[draw(st.sampled_from(LIFT_PRESETS))]
    q = draw(st.sampled_from(LIFT_PRIME_POWERS))
    f = draw(st.sampled_from(LIFT_DEGREES))
    slot = st.tuples(*[st.integers(-200, 200)] * datum.rank)
    return make_crys_tuple(datum, q,
                           draw(st.lists(slot, min_size=f, max_size=f)))


@settings(max_examples=100, derandomize=True, database=None, deadline=None)
@given(lift_sweep_tuples())
def test_reduction_equivariance(v):
    # rotating the slots multiplies the reduction by q, and every w (w^f
    # need not be 1) acts on the reduction as on each slot
    n = v.modulus
    red = reduction(v)
    assert reduction(frobenius_shift(v)) == vec_mod(vec_scale(v.q, red), n)
    for w in weyl_group_elements(v.datum):
        assert reduction(weyl_act(w, v)) == vec_mod(w.apply(red), n)


def test_kernel_membership_examples():
    assert kernel_membership(SWAP, make_crys_tuple(GL2, 3, [(1, 0), (0, 1)]))
    assert not kernel_membership(SWAP, make_crys_tuple(GL2, 3, [(1, 0), (1, 0)]))
    assert kernel_membership(SWAP, make_crys_tuple(GL2, 3, [(0, 0), (0, 0)]))


def per_slot_kernel_membership(w, v):
    # kernel_membership as it was, one slot at a time
    f = v.f
    return all(w.apply(v.slots[j]) == v.slots[(j - 1) % f] for j in range(f))


@st.composite
def kernel_cases(draw):
    # a random tuple is almost never in the kernel; xi of one always is
    # when w^f = 1, and changing one entry of that takes it out again
    datum = LIFT_DATA[draw(st.sampled_from(LIFT_PRESETS))]
    f = draw(st.integers(1, 4))
    slot = st.tuples(*[st.integers(-50, 50)] * datum.rank)
    v = make_crys_tuple(datum, 3, draw(st.lists(slot, min_size=f, max_size=f)))
    mode = draw(st.sampled_from(["random", "kernel", "perturbed"]))
    if mode == "random":
        return draw(st.sampled_from(weyl_group_elements(datum))), v
    w = draw(st.sampled_from(elements_of_order_dividing(datum, f)))
    v = xi_operator(w, v)
    if mode == "perturbed":
        j = draw(st.integers(0, f - 1))
        i = draw(st.integers(0, datum.rank - 1))
        slots = [list(s) for s in v.slots]
        slots[j][i] += draw(st.integers(1, 5))
        v = make_crys_tuple(datum, 3, slots)
    return w, v


@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(kernel_cases())
def test_kernel_membership_matches_the_per_slot_form(case):
    w, v = case
    assert kernel_membership(w, v) == per_slot_kernel_membership(w, v)


def test_lift_inertia_worked_example():
    result = lift_inertia(GL2, make_pair(GL2, 3, 2, (1, 3), SWAP))
    assert result.tuple.slots == ((1, 0), (0, 1))
    assert result.kernel_checked and result.reduction_checked
    assert result.regular


def test_lift_inertia_zero_vbar():
    result = lift_inertia(GL2, make_pair(GL2, 3, 2, (0, 0), SWAP))
    assert result.tuple.slots == ((0, 0), (0, 0))
    assert not result.regular


def test_lift_inertia_degree_one():
    result = lift_inertia(GL2, make_pair(GL2, 3, 1, (1, 0), weyl_identity(GL2)))
    assert result.tuple.slots == ((1, 0),)
    assert result.kernel_checked and result.reduction_checked
    assert result.regular


def test_lift_inertia_rejects_bad_order():
    cycle = weyl_from_word(GL3, [0, 1])
    with pytest.raises(LiftHypothesisError):
        lift_inertia(GL3, make_pair(GL3, 3, 2, (0, 0, 0), cycle))


def test_lift_inertia_rejects_invalid_pair():
    with pytest.raises(InvalidPairError):
        lift_inertia(GL2, make_pair(GL2, 3, 2, (1, 5), SWAP))


def test_lift_soundness_sweep():
    rng = random.Random(17)
    for name in ["GL2", "GL3", "Sp4", "G2"]:
        datum = build_root_datum(name)
        for q in (2, 3):
            for f in (1, 2):
                n = q ** f - 1
                for w in elements_of_order_dividing(datum, f):
                    xi_bar = averaged_scale_matrix(w.matrix, q, f)
                    for _ in range(10):
                        x = tuple(rng.randrange(n) for _ in range(datum.rank))
                        vbar = vec_mod(mat_vec(xi_bar, x), n)
                        p = make_pair(datum, q, f, vbar, w)
                        result = lift_inertia(datum, p)
                        assert kernel_membership(w, result.tuple)
                        assert reduction(result.tuple) == p.vbar


PLAN_SLOTS = crystalline_lift._LiftPlan.slots  # the plan's own lift


def test_re_verification_catches_a_broken_kernel_condition(monkeypatch,
                                                          capsys):
    # slot 0 is weighted by q^0 = 1, so adding N to it keeps the reduction
    corrupted = []

    def corrupt(plan, x):
        first, *rest = PLAN_SLOTS(plan, x)
        corrupted.append(((first[0] + plan.modulus, *first[1:]), *rest))
        return corrupted[-1]

    monkeypatch.setattr(crystalline_lift._LiftPlan, "slots", corrupt)
    pair = make_pair(GL2, 3, 2, (1, 3), SWAP)
    with pytest.raises(InternalConsistencyError,
                       match="^constructed lift failed re-verification$"):
        lift_inertia(GL2, pair)
    v = make_crys_tuple(GL2, 3, corrupted[0])
    assert reduction(v) == pair.vbar and not kernel_membership(SWAP, v)
    with pytest.raises(InternalConsistencyError,
                       match="^regularized lift failed re-verification$"):
        regular_lift(GL2, pair)
    capsys.readouterr()
    assert main(["lift", "--group", "GL2", "--q", "3", "--f", "2",
                 "--w", "s0", "--vbar", "1,3"]) == 4
    assert capsys.readouterr() == (
        "", "error: constructed lift failed re-verification\n")


def test_re_verification_catches_a_broken_reduction(monkeypatch):
    # the lift of x + e_1 satisfies the kernel condition but reduces to
    # vbar + xi_bar . e_1 = vbar + (3, 1)
    corrupted = []

    def corrupt(plan, x):
        corrupted.append(PLAN_SLOTS(plan, vec_add(x, (1, 0))))
        return corrupted[-1]

    monkeypatch.setattr(crystalline_lift._LiftPlan, "slots", corrupt)
    pair = make_pair(GL2, 3, 2, (1, 3), SWAP)
    with pytest.raises(InternalConsistencyError,
                       match="^constructed lift failed re-verification$"):
        lift_inertia(GL2, pair)
    v = make_crys_tuple(GL2, 3, corrupted[0])
    assert kernel_membership(SWAP, v) and reduction(v) == (4, 4)
    with pytest.raises(InternalConsistencyError,
                       match="^regularized lift failed re-verification$"):
        regular_lift(GL2, pair)


def test_re_verification_catches_an_irregular_slot(monkeypatch):
    # all-zero slots lift vbar = 0, so only the regularity check can fail
    monkeypatch.setattr(crystalline_lift._LiftPlan, "slots",
                        lambda plan, x: ((0, 0), (0, 0)))
    pair = make_pair(GL2, 3, 2, (0, 0), SWAP)
    out = lift_inertia(GL2, pair)
    assert out.kernel_checked and out.reduction_checked and not out.regular
    with pytest.raises(InternalConsistencyError,
                       match="^regularized lift failed re-verification$"):
        regular_lift(GL2, pair)


def test_plan_built_tuples_equal_public_ones():
    # one random pair per lift-sweep configuration; both lifts build their
    # tuple without the entry checks, and must not differ from a public one
    rng = random.Random(29)
    for _, datum, q, f, w in _lift_sweep():
        plan = _lift_plan(datum, w, q, f)
        x = tuple(rng.randrange(plan.modulus) for _ in range(datum.rank))
        pair = make_pair(datum, q, f, mat_vec(plan.xi_bar, x), w)
        for out in (lift_inertia(datum, pair), regular_lift(datum, pair)):
            v = out.tuple
            public = CrysCharTuple(datum=datum, q=q, f=f, slots=v.slots)
            assert v == public and hash(v) == hash(public)
            assert repr(v) == repr(public)
            assert type(v.slots) is tuple and len(v.slots) == f
            for s in v.slots:
                assert type(s) is tuple and len(s) == datum.rank
                assert all(map(is_strict_int, s))


def test_plan_built_results_equal_public_ones():
    # LiftResult._from_check fills the fields without __init__; equality,
    # hash, repr and pickling must not tell its results from public ones
    # (0, 0) lifts to irregular slots, so its regular lift has C = 1
    for vbar in ((1, 3), (0, 0)):
        pair = make_pair(GL2, 3, 2, vbar, SWAP)
        for out in (lift_inertia(GL2, pair), regular_lift(GL2, pair)):
            public = type(out)(**vars(out))
            assert out == public and hash(out) == hash(public)
            assert repr(out) == repr(public)
            assert pickle.dumps(out) == pickle.dumps(public)
            assert pickle.loads(pickle.dumps(out)) == public
    assert type(out) is RegularLiftResult and out.seed_multiplier == 1


def _check_cases(rng, datum, plan):
    """Seeded slot tuples for one lift plan: valid lifts from small,
    negative and near-2^200 seeds, each also with one entry moved by +-1 or
    +-N; all-zero slots; and constant slots of +-(2^(k-1) - 1) // norm for
    several check widths k, the largest entries that width holds (valid
    lifts wherever w fixes the all-ones vector)."""
    n, rank, f = plan.modulus, datum.rank, len(plan.slot_matrices)
    seeds = [tuple(rng.randrange(n) for _ in range(rank)),
             tuple(rng.randrange(-4 * n, 0) for _ in range(rank)),
             tuple(rng.randrange(-4 * n, 4 * n) for _ in range(rank)),
             tuple(rng.randrange(-2 ** 200, 2 ** 200) for _ in range(rank)),
             tuple(2 ** 200 - rng.randrange(n) for _ in range(rank))]
    lifts = [tuple(mat_vec(m, x) for m in plan.slot_matrices) for x in seeds]
    for x, slots in zip(seeds, lifts):
        assert PLAN_SLOTS(plan, x) == slots
    cases = list(lifts)
    for slots, delta in zip(lifts * 4, (1, -1, n, -n) * len(lifts)):
        moved = [list(s) for s in slots]
        moved[rng.randrange(f)][rng.randrange(rank)] += delta
        cases.append(tuple(map(tuple, moved)))
    cases.append(((0,) * rank,) * f)
    for k in (8, 16, 32, 64, 256):
        e = ((1 << k - 1) - 1) // plan.checks.norm
        cases += [((e,) * rank,) * f, ((-e,) * rank,) * f]
    return cases


def test_packed_check_agrees_with_the_public_functions(monkeypatch):
    # the lift's one packed check must give the verdict of the public
    # kernel condition and reduction on every kind of slot tuple, and the
    # checked lift the regularity of the plain-sum reference; the checked
    # lift is handed each tuple as its own slots
    monkeypatch.setattr(crystalline_lift._LiftPlan, "slots",
                        lambda plan, slots: slots)
    rng = random.Random(41)
    verdicts = set()
    for _, datum, q, f, w in _lift_sweep():
        plan = _lift_plan(datum, w, q, f)
        n = plan.modulus
        for slots in _check_cases(rng, datum, plan):
            v = make_crys_tuple(datum, q, slots)
            red = reduction(v)
            other = tuple(rng.randrange(n) for _ in red)
            for vbar in (red, ((red[0] + 1) % n, *red[1:]), other):
                expected = kernel_membership(w, v) and red == vbar
                assert plan.verifies(slots, vbar) == expected
                verdicts.add((f, expected))
                pair = make_pair(datum, q, f, vbar, w)
                if not expected:
                    with pytest.raises(InternalConsistencyError,
                                       match="^packed check failed"):
                        crystalline_lift._checked_lift(
                            datum, pair, plan, slots, "packed check")
                    continue
                out = crystalline_lift._checked_lift(datum, pair, plan,
                                                     slots, "packed check")
                assert out.tuple == v
                assert out.regular == ref.all_regular(datum, slots)
    assert verdicts == {(f, b) for f in LIFT_DEGREES for b in (True, False)}


def test_simple_trick_examples():
    assert simple_trick_check(GL2, 3, 2, SWAP, method="exhaustive")
    assert simple_trick_check(GL2, 3, 2, weyl_identity(GL2), method="exhaustive")
    cycle = weyl_from_word(GL3, [0, 1])
    assert simple_trick_check(GL3, 2, 3, cycle, method="snf")
    assert simple_trick_check(GL3, 2, 3, cycle, method="exhaustive")


def test_simple_trick_methods_agree():
    for name in ["GL2", "Sp4"]:
        datum = build_root_datum(name)
        for q in (2, 3):
            for f in (1, 2):
                for w in elements_of_order_dividing(datum, f):
                    r1 = simple_trick_check(datum, q, f, w, method="exhaustive")
                    r2 = simple_trick_check(datum, q, f, w, method="snf")
                    assert r1 and r2


def test_simple_trick_trivial_modulus():
    assert simple_trick_check(GL2, 2, 1, weyl_identity(GL2))


def test_simple_trick_guard_and_method_errors():
    # the exhaustive guard bounds N^ceil(r/2): GL2 at q=443, f=2 has
    # N = 196,248 just under EXHAUSTIVE_CAP, q=449 has N = 201,600 over it
    ident = weyl_identity(GL2)
    assert 443 ** 2 - 1 <= EXHAUSTIVE_CAP < 449 ** 2 - 1
    assert simple_trick_check(GL2, 443, 2, ident, method="exhaustive")
    with pytest.raises(GuardError):
        simple_trick_check(GL2, 449, 2, ident, method="exhaustive")
    assert simple_trick_check(GL2, 449, 2, ident, method="snf")
    gl4 = build_root_datum("GL4")
    assert 728 ** 2 > EXHAUSTIVE_CAP
    with pytest.raises(GuardError):
        simple_trick_check(gl4, 3, 6, weyl_identity(gl4), method="exhaustive")
    assert simple_trick_check(gl4, 3, 6, weyl_identity(gl4), method="snf")
    with pytest.raises(LiftHypothesisError):
        simple_trick_check(GL3, 3, 2, weyl_from_word(GL3, [0, 1]))
    # "sample" is gone: a sampled inclusion check cannot certify equality;
    # so is "auto": both exact methods give the same bool, and "snf" is
    # the default
    for method in ("guess", "sample", "auto"):
        with pytest.raises(ValueError):
            simple_trick_check(GL2, 3, 2, SWAP, method=method)


def count_kernel_by_odometer(mat, n):
    """The specification of the exhaustive count: visit every vector of
    (Z/n)^r and count those A sends to 0 mod n.  An odometer keeps the
    residues incrementally: bumping coordinate i adds column i once, and a
    wrap (n -> 0) is free mod n."""
    rank = len(mat)
    cols = [tuple(row[i] % n for row in mat) for i in range(rank)]
    rows = range(len(mat))
    count = 0
    vec = [0] * rank
    res = [0] * len(mat)
    while True:
        if not any(res):
            count += 1
        for i in range(rank):
            vec[i] += 1
            col = cols[i]
            for j in rows:
                res[j] = (res[j] + col[j]) % n
            if vec[i] < n:
                break
            vec[i] = 0
        else:
            return count


@st.composite
def square_matrices_mod(draw):
    rank = draw(st.integers(1, 5))
    entries = st.integers(-30, 30)
    mat = draw(st.lists(st.lists(entries, min_size=rank, max_size=rank),
                        min_size=rank, max_size=rank))
    return tuple(tuple(row) for row in mat), draw(st.integers(1, 12))


@settings(max_examples=60, derandomize=True, database=None, deadline=None)
@given(square_matrices_mod())
def test_halves_count_matches_odometer_and_smith_form(case):
    mat, n = case
    count = _count_kernel_by_halves(mat, n)
    assert count == count_kernel_by_odometer(mat, n)
    assert count == ModSolver(smith_normal_form(mat), n).kernel_count


@pytest.fixture
def factored(monkeypatch):
    """The moduli that `_count_kernel_by_halves` factors, in call order."""
    seen = []

    def spy(n):
        seen.append(n)
        return _prime_power_parts(n)

    monkeypatch.setattr(crystalline_lift, "_prime_power_parts", spy)
    return seen


def test_halves_count_on_every_lift_sweep_matrix(factored):
    # q - w and the averaged matrix of every configuration, against the
    # Smith form everywhere and against the odometer where N^r <= 20000;
    # N is split exactly at r > 2 for N = 24, 26 and 124, and on every
    # matrix the product over the parts is the count made whole
    odometer_checked = 0
    for _, datum, q, f, w in _lift_sweep():
        plan = _lift_plan(datum, w, q, f)
        n = plan.modulus
        split = datum.rank > 2 and n in (24, 26, 124)
        ker_mat = mat_add(mat_scale(q, identity_matrix(datum.rank)),
                          mat_scale(-1, w.matrix))
        for mat in (ker_mat, plan.xi_bar):
            factored.clear()
            count = _count_kernel_by_halves(mat, n)
            assert factored == ([n] if split else [])
            assert count == ModSolver(smith_normal_form(mat), n).kernel_count
            assert count == _count_kernel_mod(mat, n) == math.prod(
                _count_kernel_mod(mat, part)
                for part in _prime_power_parts(n))
            if n ** datum.rank <= 20000:
                assert count == count_kernel_by_odometer(mat, n)
                odometer_checked += 1
    assert odometer_checked == 250


def smith_invariants(mat):
    d = reference_smith_form(mat)[0]
    return [d[i][i] for i in range(len(d))]


def assert_plan_smith_forms_are_dual(plan):
    # w^f = 1 gives (q - w) . xi_bar = N . 1, and q >= 2 makes q - w
    # nonsingular; so xi_bar = N (q - w)^-1, whose Smith invariants are
    # N / d_(r+1-i) for the invariants d_i of q - w
    d = smith_invariants(plan.q_minus_w)
    assert all(x > 0 and plan.modulus % x == 0 for x in d)
    assert smith_invariants(plan.xi_bar) == [plan.modulus // x
                                             for x in reversed(d)]


def test_plan_smith_forms_are_dual_on_the_lift_sweep():
    configurations = 0
    for _, datum, q, f, w in _lift_sweep():
        assert_plan_smith_forms_are_dual(_lift_plan(datum, w, q, f))
        configurations += 1
    assert configurations == 156


@pytest.mark.parametrize("name", ["SL3", "SO5", "Sp6", "SO7", "SO8", "GL5"])
def test_plan_smith_forms_are_dual_beyond_the_lift_sweep(name):
    datum = build_root_datum(name)
    ident = identity_matrix(datum.rank)
    configurations = [(q, f, w) for w in weyl_group_elements(datum)
                      for f in (1, 2, 3, 4, 6)
                      if mat_pow(w.matrix, f) == ident for q in (2, 3, 5)]
    sample = random.Random(name).sample(configurations,
                                        min(100, len(configurations)))
    for q, f, w in sample:
        assert_plan_smith_forms_are_dual(_lift_plan(datum, w, q, f))


# composite moduli with at least two prime-power parts, a repeated prime
# among them (12 = 4 . 3, 18 = 2 . 9, 20 = 4 . 5, 24 = 8 . 3)
SPLIT_MODULI = (6, 10, 12, 14, 15, 18, 20, 24)


@st.composite
def split_count_cases(draw):
    rank = draw(st.integers(3, 4))
    # the odometer visits all n^r vectors: keep that near 20,000
    n = draw(st.sampled_from([m for m in SPLIT_MODULI
                              if m ** rank <= 21000]))
    entries = st.integers(-60, 60)
    mat = draw(st.lists(st.lists(entries, min_size=rank, max_size=rank),
                        min_size=rank, max_size=rank))
    return tuple(tuple(row) for row in mat), n


@settings(max_examples=40, derandomize=True, database=None, deadline=None)
@given(split_count_cases())
def test_split_count_matches_odometer_and_smith_form(case):
    # at r >= 3 the count multiplies the counts mod each prime-power part
    mat, n = case
    assert len(_prime_power_parts(n)) >= 2
    count = _count_kernel_by_halves(mat, n)
    assert count == count_kernel_by_odometer(mat, n)
    assert count == ModSolver(smith_normal_form(mat), n).kernel_count
    assert count == _count_kernel_mod(mat, n)


def test_packed_count_at_every_field_width():
    # a residue vector packs coordinate i into bits [k.i, k.(i+1)) with
    # 2^(k-1) >= n: every n up to 40 at ranks 1-3, and n either side of a
    # power of two at rank 4; entries far beyond n are reduced before packing
    rng = random.Random(23)
    cases = [(n, rank) for n in range(1, 41) for rank in (1, 2, 3)]
    edges = {m for j in range(5) for m in (2 ** j - 1, 2 ** j, 2 ** j + 1)}
    cases += [(n, 4) for n in sorted(edges) if 1 <= n and n ** 4 <= 20000]
    assert [n for n, rank in cases if rank == 4] == [1, 2, 3, 4, 5, 7, 8, 9]
    for n, rank in cases:
        mat = tuple(tuple(rng.randint(-10 ** 6, 10 ** 6) for _ in range(rank))
                    for _ in range(rank))
        assert _count_kernel_mod(mat, n) == count_kernel_by_odometer(mat, n)
    # the widest fields an admitted count can need, counted whole: n =
    # 199,998 = 2 . 9 . 41 . 271, and a determinant sharing 6 with it
    n = EXHAUSTIVE_CAP - 2
    a, b, c = (rng.randint(-10 ** 6, 10 ** 6) for _ in range(3))
    mat = ((a, b), (5 * a + 6 * c, 5 * b + 12 * c))
    count = _count_kernel_mod(mat, n)
    assert count == ModSolver(smith_normal_form(mat), n).kernel_count
    assert count > 1


def test_prime_power_parts_of_every_small_n():
    assert _prime_power_parts(1) == []
    assert _prime_power_parts(24) == [8, 3]
    for n in range(1, 10 ** 4):
        parts = _prime_power_parts(n)
        assert math.prod(parts) == n
        assert all(is_prime_power(part) for part in parts)
        assert all(math.gcd(a, b) == 1
                   for i, a in enumerate(parts) for b in parts[i + 1:])


def test_modulus_is_factored_only_by_an_admitted_exhaustive_count(
        factored):
    # trial division on N = 2^127 - 1 would not finish; the guard and the
    # plan must both leave N unfactored
    gl3 = build_root_datum("GL3")
    ident = weyl_identity(gl3)
    pair = make_pair(gl3, 2, 127, (0, 0, 0), ident)
    assert lift_inertia(gl3, pair).tuple.slots == ((0, 0, 0),) * 127
    assert regular_lift(gl3, pair).regular
    assert simple_trick_check(gl3, 2, 127, ident, method="snf")
    with pytest.raises(GuardError):
        simple_trick_check(gl3, 2, 127, ident, method="exhaustive")
    gl4 = build_root_datum("GL4")
    with pytest.raises(GuardError):
        simple_trick_check(gl4, 3, 6, weyl_identity(gl4), method="exhaustive")
    assert factored == []
    # an admitted count at r > 2 factors N once per matrix; r <= 2 never
    # at an N as small as the lift sweep's
    assert simple_trick_check(gl3, 5, 2, ident, method="exhaustive")
    assert factored == [24, 24]
    assert simple_trick_check(GL2, 5, 2, weyl_identity(GL2),
                              method="exhaustive")
    assert factored == [24, 24]


@pytest.mark.parametrize("q", [443, 439])
def test_rank_two_count_splits_a_large_composite_modulus(factored, q):
    # N = 196,248 = 8.3.13.17.37 and 192,720 = 16.3.5.11.73: counted whole,
    # each count visits about N residues; split, about the sum of the parts
    n = q ** 2 - 1
    assert (simple_trick_check(GL2, q, 2, SWAP, method="exhaustive")
            == simple_trick_check(GL2, q, 2, SWAP, method="snf"))
    assert factored == [n, n]


def _plan_keys(datum):
    plan = crystalline_lift._lift_plan.__wrapped__
    return [key for key in datum._memo
            if isinstance(key, tuple) and key[0] is plan]


def test_simple_trick_check_shares_the_lift_plan(monkeypatch):
    builds = []
    smith_forms = []
    differences = []

    def counting_average(*args):
        builds.append(args)
        return averaged_scale_matrix(*args)

    def counting_smith(a):
        smith_forms.append(a)
        return smith_normal_form(a)

    def counting_sub(*args):
        differences.append(args)
        return mat_sub(*args)

    monkeypatch.setattr(crystalline_lift, "averaged_scale_matrix",
                        counting_average)
    monkeypatch.setattr(crystalline_lift, "smith_normal_form", counting_smith)
    monkeypatch.setattr(crystalline_lift, "mat_sub", counting_sub)
    sp4 = build_root_datum("Sp4")
    w = weyl_from_word(sp4, [0, 1])
    lift_inertia(sp4, make_pair(sp4, 3, 4, (0, 0), w))
    keys = _plan_keys(sp4)
    assert len(keys) == len(builds) == 1
    # the plan holds q - w and the Smith forms' results: that of xi_bar,
    # and the kernel count of q - w
    assert len(smith_forms) == 2 and len(differences) == 1
    plan = _lift_plan(sp4, w, 3, 4)
    assert plan.q_minus_w == mat_sub(mat_scale(3, identity_matrix(2)),
                                     w.matrix)
    for method in ("exhaustive", "snf", "exhaustive", "snf"):
        assert simple_trick_check(sp4, 3, 4, w, method=method)
    assert _plan_keys(sp4) == keys and len(builds) == 1
    # an exhaustive check on a warm plan builds no q - w either
    assert len(smith_forms) == 2 and len(differences) == 1
    # a refused configuration leaves no plan behind
    with pytest.raises(LiftHypothesisError):
        simple_trick_check(sp4, 3, 3, w)
    assert _plan_keys(sp4) == keys


def test_exhaustive_check_computes_no_smith_form(monkeypatch):
    # the exhaustive count is the check independent of the Smith form: on
    # built plans it must reach neither the Smith form nor a solver mod N,
    # under any name the package binds them to
    sweep = list(_lift_sweep())
    for _, datum, q, f, w in sweep:
        _lift_plan(datum, w, q, f)
    calls = []

    def spy(name, original):
        def spied(*args):
            calls.append(name)
            return original(*args)
        return spied

    for module_name, module in list(sys.modules.items()):
        if module_name.split(".")[0] != "tamelift":
            continue
        for name in ("smith_normal_form", "ModSolver"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name,
                                    spy(name, getattr(module, name)))
    for _, datum, q, f, w in sweep:
        assert simple_trick_check(datum, q, f, w, method="exhaustive")
    assert calls == []
    # the spies see a plan being built
    gl2 = build_root_datum("GL2")
    assert simple_trick_check(gl2, 3, 2, weyl_from_word(gl2, [0]),
                              method="exhaustive")
    assert sorted(set(calls)) == ["ModSolver", "smith_normal_form"]


@pytest.mark.parametrize("q, f", [
    (3.0, 2), (3, 2.0), (True, 2), (3, True),
    (1, 2), (6, 2), (3, 0), (3, -1),
])
def test_simple_trick_check_rejects_q_and_f_before_the_plan(q, f):
    # a float q equal to 3 used to leave a float plan in the datum's memo
    # and a float Smith form under the integer matrix's key, after which
    # lifts of GL2 (q=3, f=2), on that datum or a fresh one, raised
    # TypeError; f = 0 and q = 1 raised ZeroDivisionError
    gl2 = build_root_datum("GL2")
    swap = weyl_from_word(gl2, [0])
    with pytest.raises(ValueError, match="^[qf] must be"):
        simple_trick_check(gl2, q, f, swap, method="snf")
    assert _plan_keys(gl2) == []
    for datum in (gl2, build_root_datum("GL2")):
        w = weyl_from_word(datum, [0])
        result = lift_inertia(datum, make_pair(datum, 3, 2, (1, 3), w))
        assert result.tuple.slots == ((1, 0), (0, 1))
        assert all(type(x) is int for s in result.tuple.slots for x in s)
        assert simple_trick_check(datum, 3, 2, w, method="snf")


def test_lift_to_dict():
    result = lift_inertia(GL2, make_pair(GL2, 3, 2, (1, 3), SWAP))
    assert lift_to_dict(result) == {
        "slots": [[1, 0], [0, 1]],
        "q": 3,
        "f": 2,
        "checks": {"kernel": True, "reduction": True, "regular": True},
    }
