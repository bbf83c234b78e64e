"""The package's frozen records against `dataclasses` references.

Each record class is paired with a `dataclasses.make_dataclass(...,
frozen=True)` reference over the field list written out here.  For sample
instances, repr, equality, hashing, refusal of assignment and deletion,
field order and a pickle round trip must match the reference."""
from __future__ import annotations

import dataclasses
import importlib
import pickle
import sys
import tracemalloc
import types

import pytest

from tamelift.acceptance import CriterionResult
from tamelift.crystalline_lift import (
    CrysCharTuple,
    LiftResult,
    RegularLiftResult,
    _lift_plan,
    _LiftPlan,
    lift_inertia,
    make_crys_tuple,
    regular_lift,
)
from tamelift.dynamic import ParabolicType, parabolic_of
from tamelift.fixtures import FixtureOutcome
from tamelift.hodge_tate import (
    EmbeddingProfile,
    HTType,
    IntMultiset,
    ht_type,
    make_unramified_profile,
)
from tamelift.record import record
from tamelift.root_datum import (
    RootDatum,
    WeylElement,
    build_root_datum,
    weyl_from_word,
    weyl_identity,
)
from tamelift.tame_reps import (
    IrreducibilityResult,
    TameInertialPair,
    ValidityReport,
    WeylOrderReport,
    check_weyl_order,
    is_G_irreducible,
    make_pair,
    validate_pair,
)

NO_DEFAULT = dataclasses.MISSING
IGNORED = "ignored by == and hash"

# class -> (field, default or NO_DEFAULT, IGNORED or None), in field order;
# eq=False classes keep identity equality (WeylElement its own)
FIELDS = {
    RootDatum: [("rank",), ("roots",), ("coroots",), ("pairing",),
                ("simple_roots",), ("label", "custom")],
    WeylElement: [("matrix",), ("word", None)],
    ParabolicType: [("defining_cochar", NO_DEFAULT, IGNORED),
                    ("nonneg_roots",),
                    ("levi_roots", NO_DEFAULT, IGNORED),
                    ("unipotent_roots", NO_DEFAULT, IGNORED)],
    TameInertialPair: [("q",), ("f",), ("vbar",), ("w",)],
    ValidityReport: [("valid",), ("modulus",), ("failures",)],
    WeylOrderReport: [("niveau",), ("niveau_power_is_identity",),
                      ("degree_power_is_identity",)],
    IrreducibilityResult: [("irreducible",), ("failing_root", None),
                           ("fixed_cochar", None)],
    CrysCharTuple: [("datum",), ("q",), ("f",), ("slots",)],
    LiftResult: [("tuple",), ("kernel_checked",), ("reduction_checked",),
                 ("regular",)],
    RegularLiftResult: [("tuple",), ("kernel_checked",),
                        ("reduction_checked",), ("regular",),
                        ("seed_multiplier",)],
    _LiftPlan: [("modulus",), ("xi_bar",), ("xi_solver",),
                ("slot_matrices",), ("packed_slots",), ("checks",),
                ("q_minus_w",), ("ker_count",), ("seed",), ("seed_steps",)],
    HTType: [("f",), ("cochars",)],
    IntMultiset: [("items",)],
    EmbeddingProfile: [("colabels",), ("restriction",), ("degree",)],
    CriterionResult: [("number",), ("name",), ("passed",), ("cases",),
                      ("failures",), ("seconds",)],
    FixtureOutcome: [("name",), ("passed",), ("expected",), ("actual",)],
}
IDENTITY_EQ = {WeylElement, _LiftPlan}
REFERENCE_MODULE = "record_reference"


def _reference(cls):
    specs = []
    for name, default, ignored in (spec + (NO_DEFAULT, None)[len(spec) - 1:]
                                   for spec in FIELDS[cls]):
        specs.append((name, object, dataclasses.field(
            default=default, compare=ignored is None)))
    reference = dataclasses.make_dataclass(
        cls.__name__, specs, frozen=True, eq=cls not in IDENTITY_EQ)
    reference.__module__ = REFERENCE_MODULE  # so that pickle finds it
    return reference


@pytest.fixture(scope="module")
def references():
    module = types.ModuleType(REFERENCE_MODULE)
    for cls in FIELDS:
        setattr(module, cls.__name__, _reference(cls))
    sys.modules[REFERENCE_MODULE] = module
    yield module
    del sys.modules[REFERENCE_MODULE]


def _samples():
    gl2, gl4 = build_root_datum("GL2"), build_root_datum("GL4")
    sp4 = build_root_datum("Sp4")
    swap = weyl_from_word(gl2, "s0")
    p = make_pair(gl2, 3, 2, (1, 3), swap)
    killed = make_pair(gl2, 3, 2, (4, 4), swap)
    fixed = make_pair(gl2, 3, 2, (4, 0), "")
    lift, reg = lift_inertia(gl2, p), regular_lift(gl2, p)
    parabolic = parabolic_of(gl4, (1, 0, 1, 0))
    return [
        gl2, sp4, build_root_datum("GL2"),
        swap, weyl_identity(gl2), weyl_from_word(gl2, "s0 s0"),
        parabolic, parabolic_of(gl4, (2, 0, 2, 0)),
        parabolic_of(gl4, (0, 1, 0, 1)),
        ParabolicType((9, 9, 9, 9), parabolic.nonneg_roots, frozenset(),
                      frozenset()),
        p, killed, make_pair(gl2, 3, 2, (1, 3), "s0"),
        validate_pair(gl2, p), validate_pair(gl2, make_pair(
            gl2, 3, 2, (1, 2), swap)),
        check_weyl_order(p), check_weyl_order(fixed),
        is_G_irreducible(gl2, p), is_G_irreducible(gl2, killed),
        is_G_irreducible(gl2, fixed), IrreducibilityResult(True),
        IrreducibilityResult(False, (1, -1)),
        lift.tuple, make_crys_tuple(gl2, 3, [(1, 0), (0, 1)]),
        make_crys_tuple(gl2, 3, [(0, 1), (1, 0)]),
        lift, lift_inertia(gl2, p), reg, regular_lift(gl2, p),
        _lift_plan(gl2, swap, 3, 2), _lift_plan(gl2, swap, 5, 2),
        ht_type(lift.tuple), HTType(2, ((0, 0), (1, 1))),
        IntMultiset((3, 1, 1)), IntMultiset((1, 3, 1)), IntMultiset(()),
        make_unramified_profile(2, 2), make_unramified_profile(1, 2),
        CriterionResult(1, "lift soundness", True, 3, (), 0.5),
        CriterionResult(1, "lift soundness", True, 3, (), 0.5),
        CriterionResult(2, "x", False, 1, ("no",), 1.0),
        FixtureOutcome("a", True, "{}\n", "{}\n"),
        FixtureOutcome("a", False, "{}\n", "[]\n"),
    ]


SAMPLES = _samples()


def _twin(x, references):
    """The reference instance with x's field values, set as x's are."""
    twin = object.__new__(getattr(references, type(x).__name__))
    twin.__dict__.update({name: x.__dict__[name] for name in x._fields})
    return twin


def test_samples_cover_every_record_class():
    covered = {type(x) for x in SAMPLES}
    assert covered == set(FIELDS)
    found = set()
    for name in ("root_datum", "dynamic", "tame_reps", "crystalline_lift",
                 "hodge_tate", "acceptance", "fixtures"):
        module = importlib.import_module(f"tamelift.{name}")
        found |= {value for value in vars(module).values()
                  if isinstance(value, type) and "_fields" in vars(value)}
    assert found == set(FIELDS)


@pytest.mark.parametrize("cls", list(FIELDS), ids=lambda c: c.__name__)
def test_field_order_and_defaults(cls, references):
    reference = getattr(references, cls.__name__)
    assert cls._fields == tuple(
        f.name for f in dataclasses.fields(reference))
    for f in dataclasses.fields(reference):
        if f.default is not NO_DEFAULT:
            assert getattr(cls, f.name) == f.default


@pytest.mark.parametrize("x", SAMPLES, ids=lambda x: type(x).__name__)
def test_repr_hash_and_refusals_match_the_reference(x, references):
    twin = _twin(x, references)
    assert repr(x) == repr(twin)
    if type(x) not in IDENTITY_EQ:
        assert hash(x) == hash(twin)
        assert x == x and not x != x
    assert x.__eq__(object()) is NotImplemented or type(x) in IDENTITY_EQ
    assert x != twin
    for name in (x._fields[0], "not_a_field"):
        for act in (lambda o: setattr(o, name, 1), lambda o: delattr(o, name)):
            with pytest.raises(AttributeError) as ours:
                act(x)
            with pytest.raises(AttributeError) as theirs:
                act(twin)
            assert str(ours.value) == str(theirs.value)


def test_equality_matches_the_reference(references):
    for x in SAMPLES:
        for y in SAMPLES:
            if type(x) is _LiftPlan or type(y) is not type(x):
                continue
            if type(x) is WeylElement:  # its own: by matrix alone
                assert (x == y) == (x.matrix == y.matrix)
                continue
            tx, ty = _twin(x, references), _twin(y, references)
            assert (x == y) == (tx == ty)
            assert (x != y) == (tx != ty)
            if x == y:
                assert hash(x) == hash(y)


def test_parabolic_type_compares_by_nonneg_roots_alone():
    a, b = SAMPLES[6], SAMPLES[9]
    assert a.defining_cochar != b.defining_cochar
    assert a == b and hash(a) == hash(b)
    assert hash(a) == hash((a.nonneg_roots,))
    assert len({a, b, SAMPLES[8]}) == 2


@pytest.mark.parametrize("x", SAMPLES, ids=lambda x: type(x).__name__)
def test_pickle_round_trip_matches_the_reference(x, references):
    copy, twin_copy = (pickle.loads(pickle.dumps(o))
                       for o in (x, _twin(x, references)))
    assert type(copy) is type(x) and list(copy.__dict__) == list(x.__dict__)
    if type(x) is _LiftPlan:  # its ModSolver has the default repr
        def values(o):
            return [getattr(o, n) for n in x._fields if n != "xi_solver"]
        assert values(copy) == values(x) == values(twin_copy)
        return
    assert repr(copy) == repr(x) == repr(twin_copy)
    assert copy == x and hash(copy) == hash(x)


def test_datum_memo_stays_behind_on_pickling():
    datum = build_root_datum("Sp4")
    lift_inertia(datum, make_pair(datum, 3, 2, (2, 4), "s0 s1 s0 s1"))
    assert datum._memo
    copy = pickle.loads(pickle.dumps(datum))
    assert copy._memo == {} and copy == datum
    assert "_memo" not in repr(datum)


@record
class _Point:
    x: int
    y: int = 0


@record
class _Checked(_Point):
    label: str = "p"

    def __post_init__(self):
        if self.x < 0:
            raise ValueError("x must be nonnegative")


def test_init_binds_like_a_dataclass():
    reference = dataclasses.make_dataclass(
        "_Point", [("x", int), ("y", int, dataclasses.field(default=0))],
        frozen=True)
    for args, kwargs in [((1,), {}), ((1, 2), {}), ((), {"x": 1}),
                         ((1,), {"y": 2}), ((), {"y": 2, "x": 1})]:
        assert repr(_Point(*args, **kwargs)) == repr(reference(*args,
                                                                 **kwargs))
    for args, kwargs in [((), {}), ((1, 2, 3), {}), ((1,), {"x": 1}),
                         ((1,), {"z": 1}), ((), {"y": 2})]:
        with pytest.raises(TypeError):
            reference(*args, **kwargs)
        with pytest.raises(TypeError):
            _Point(*args, **kwargs)
    assert list(_Point(y=2, x=1).__dict__) == ["x", "y"]


def test_subclass_inherits_fields_first_and_runs_its_post_init():
    assert _Checked._fields == ("x", "y", "label")
    assert repr(_Checked(1)) == "_Checked(x=1, y=0, label='p')"
    assert _Checked(1) != _Point(1)
    with pytest.raises(ValueError, match="nonnegative"):
        _Checked(-1)



@pytest.mark.parametrize("cls, fields", [
    (_Point, [("x", int), ("y", int, dataclasses.field(default=0))]),
    # the one record with its own __init__, built on every
    # is_G_irreducible call
    (IrreducibilityResult,
     [("irreducible", bool), ("failing_root", object, None),
      ("fixed_cochar", object, None)]),
])
def test_instances_take_no_more_memory_than_dataclass_ones(cls, fields):
    # fields are set as dataclasses sets them, never through __dict__,
    # which CPython would then materialize per instance: that raised the
    # benchmark's peak RSS by about 2 %
    reference = dataclasses.make_dataclass(cls.__name__, fields, frozen=True)

    def traced_bytes(cls):
        tracemalloc.start()
        try:
            keep = [cls(i % 2, (i, -i)) for i in range(2000)]
            return tracemalloc.get_traced_memory()[0], keep
        finally:
            tracemalloc.stop()

    ours, _ = traced_bytes(cls)
    theirs, _ = traced_bytes(reference)
    assert ours <= theirs * 1.05
