"""Full acceptance sweeps, one test per criterion.

Each test prints a single ACCEPTANCE line (visible under pytest -s, or in
the captured stdout of a failing test) and asserts the criterion passed.
"""
from __future__ import annotations

import time

from tamelift.acceptance import (
    CRITERION_NAMES,
    run_criterion_1,
    run_criterion_2,
    run_criterion_3,
    run_criterion_4,
    run_criterion_5,
    run_criterion_6,
    run_criterion_7,
)


def _report(number, criterion):
    """Run one criterion directly, so a crash keeps its traceback."""
    start = time.perf_counter()
    cases, failures = criterion()
    state = "FAIL" if failures else "PASS"
    print(f"ACCEPTANCE {number}: {state} ({CRITERION_NAMES[number]}, "
          f"{cases} cases, {time.perf_counter() - start:.1f}s)")
    assert not failures, "\n".join(failures[:3])


def test_acceptance_1_lift_soundness():
    _report(1, run_criterion_1)


def test_acceptance_2_kernel_image_exactness():
    _report(2, run_criterion_2)


def test_acceptance_3_irreducibility_vs_oracle():
    _report(3, run_criterion_3)


def test_acceptance_4_regular_lift_search():
    _report(4, run_criterion_4)


def test_acceptance_5_golden_fixtures():
    _report(5, run_criterion_5)


def test_acceptance_6_niveau_power_identity():
    _report(6, run_criterion_6)


def test_acceptance_7_chamber_sum_invariance():
    _report(7, run_criterion_7)
