"""Exact-arithmetic toolkit for tame inertial pairs into split reductive
groups: root data, the dynamic method for parabolics, irreducibility with
certificates, crystalline lifts through a Frobenius-twisted averaging
operator, Hodge-Tate cocharacters with regularization, and a labeled /
colabeled multiset calculus.  Everything runs on Python integers; there is
no floating point anywhere.
"""
from __future__ import annotations

from .crystalline_lift import (
    CrysCharTuple,
    LiftResult,
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
from .dynamic import (
    ParabolicType,
    chamber_sum,
    frobenius_orbit_sum,
    normalizer_element_in_parabolic,
    parabolic_of,
    parabolic_to_dict,
)
from .errors import (
    ChamberMismatchError,
    DatumValidationError,
    GuardError,
    InternalConsistencyError,
    InvalidPairError,
    LiftHypothesisError,
    MultisetDivisionError,
    TameliftError,
)
from .hodge_tate import (
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
from .jsonio import canonical_json, load_json_file
from .root_datum import (
    RootDatum,
    WeylElement,
    build_root_datum,
    datum_from_dict,
    datum_to_dict,
    is_regular_cochar,
    make_root_datum,
    root_pairings,
    simple_coreflections,
    weyl_fixed_space,
    weyl_from_matrix,
    weyl_from_word,
    weyl_group_elements,
    weyl_identity,
)
from .tame_reps import (
    IrreducibilityResult,
    TameInertialPair,
    ValidityReport,
    WeylOrderReport,
    brute_force_parabolic_oracle,
    check_weyl_order,
    inertia_centralizer_roots,
    is_G_irreducible,
    make_pair,
    niveau,
    pair_from_dict,
    pair_to_dict,
    validate_pair,
)

__version__ = "0.1.0"

# names of the two modules that only `selftest` and `fixtures` need, loaded
# on first use (PEP 562), so that a command that does not run them does not
# import them
_LAZY = {
    "CriterionResult": "acceptance",
    "run_all": "acceptance",
    "run_selected": "acceptance",
    "FixtureOutcome": "fixtures",
    "run_fixture_suite": "fixtures",
    "write_fixture_files": "fixtures",
}


def __getattr__(name):
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib
    return getattr(importlib.import_module(f"{__name__}.{_LAZY[name]}"), name)

__all__ = [
    "ChamberMismatchError",
    "CriterionResult",
    "CrysCharTuple",
    "DatumValidationError",
    "EmbeddingProfile",
    "FixtureOutcome",
    "GuardError",
    "HTType",
    "IntMultiset",
    "InternalConsistencyError",
    "InvalidPairError",
    "IrreducibilityResult",
    "LiftHypothesisError",
    "LiftResult",
    "MultisetDivisionError",
    "ParabolicType",
    "RegularLiftResult",
    "RootDatum",
    "TameInertialPair",
    "TameliftError",
    "ValidityReport",
    "WeylElement",
    "WeylOrderReport",
    "averaged_scale_matrix",
    "brute_force_parabolic_oracle",
    "build_root_datum",
    "canonical_json",
    "canonical_regular_cochar",
    "chamber_sum",
    "check_weyl_order",
    "datum_from_dict",
    "datum_to_dict",
    "frobenius_orbit_sum",
    "frobenius_shift",
    "galois_twist",
    "gl_colabeled_multisets",
    "ht_to_dict",
    "ht_type",
    "induced_lt_ht",
    "inertia_centralizer_roots",
    "is_G_irreducible",
    "is_ht_regular",
    "is_regular_cochar",
    "kernel_membership",
    "labeled_from_colabeled",
    "lift_inertia",
    "lift_to_dict",
    "load_json_file",
    "make_crys_tuple",
    "make_pair",
    "make_root_datum",
    "make_unramified_profile",
    "multiset_divide",
    "niveau",
    "normalizer_element_in_parabolic",
    "pair_from_dict",
    "pair_to_dict",
    "parabolic_of",
    "parabolic_to_dict",
    "reduction",
    "regular_lift",
    "regular_seed",
    "root_pairings",
    "run_all",
    "run_fixture_suite",
    "run_selected",
    "simple_coreflections",
    "simple_trick_check",
    "validate_pair",
    "weyl_act",
    "weyl_fixed_space",
    "weyl_from_matrix",
    "weyl_from_word",
    "weyl_group_elements",
    "weyl_identity",
    "write_fixture_files",
    "xi_operator",
]
