"""Property tests for the exact integer linear algebra kernel.

Oracles here are written independently of the implementation: rational rank /
determinant by plain Fraction elimination, lattice membership by greedy
reduction against Hermite pivots, solvability by brute force enumeration.
"""
from __future__ import annotations

import random
from fractions import Fraction
from itertools import combinations, product
from math import gcd

import pytest
from fraction_reference import rational_inverse
from hypothesis import example, given, settings
from hypothesis import strategies as st
from smith_reference import integer_kernel_basis as reference_kernel_basis
from smith_reference import smith_normal_form as reference_smith_form

from tamelift import lattice
from tamelift.acceptance import _lift_sweep
from tamelift.crystalline_lift import _lift_plan
from tamelift.lattice import (
    hnf_rows,
    identity_matrix,
    ModSolver,
    integer_kernel_basis,
    mat_mul,
    mat_sub,
    mat_vec,
    smith_normal_form,
    solve_int_smith,
)
from tamelift.root_datum import (
    build_root_datum,
    root_functionals,
    weyl_group_elements,
)


def frac_rank(a):
    work = [[Fraction(x) for x in row] for row in a]
    rank = 0
    cols = len(a[0]) if a else 0
    for col in range(cols):
        piv = next((i for i in range(rank, len(work)) if work[i][col] != 0), None)
        if piv is None:
            continue
        work[rank], work[piv] = work[piv], work[rank]
        work[rank] = [x / work[rank][col] for x in work[rank]]
        for i in range(len(work)):
            if i != rank and work[i][col] != 0:
                f = work[i][col]
                work[i] = [x - f * y for x, y in zip(work[i], work[rank])]
        rank += 1
    return rank


def frac_det(a):
    n = len(a)
    work = [[Fraction(x) for x in row] for row in a]
    result = Fraction(1)
    for col in range(n):
        piv = next((i for i in range(col, n) if work[i][col] != 0), None)
        if piv is None:
            return Fraction(0)
        if piv != col:
            work[col], work[piv] = work[piv], work[col]
            result = -result
        result *= work[col][col]
        work[col] = [x / work[col][col] for x in work[col]]
        for i in range(col + 1, n):
            if work[i][col] != 0:
                f = work[i][col]
                work[i] = [x - f * y for x, y in zip(work[i], work[col])]
    return result


def in_lattice(hnf_basis, v):
    """Greedy reduction of v against HNF rows; zero remainder = member."""
    rem = list(v)
    for row in hnf_basis:
        piv = next((j for j, x in enumerate(row) if x != 0), None)
        if piv is None:
            continue
        if rem[piv] % row[piv] == 0:
            q = rem[piv] // row[piv]
            rem = [a - q * b for a, b in zip(rem, row)]
    return not any(rem)


def random_matrix(rng, m, n, bound=9):
    return tuple(tuple(rng.randint(-bound, bound) for _ in range(n)) for _ in range(m))


def test_snf_reconstruction_and_shape():
    rng = random.Random(101)
    for _ in range(120):
        m = rng.randint(1, 5)
        n = rng.randint(1, 5)
        a = random_matrix(rng, m, n)
        d, u, v = smith_normal_form(a)
        assert mat_mul(mat_mul(u, a), v) == d
        assert abs(frac_det(u)) == 1
        assert abs(frac_det(v)) == 1
        diag = [d[i][i] for i in range(min(m, n))]
        for i in range(m):
            for j in range(n):
                if i != j:
                    assert d[i][j] == 0
        assert all(x >= 0 for x in diag)
        for x, y in zip(diag, diag[1:]):
            if x == 0:
                assert y == 0
            else:
                assert y % x == 0


@st.composite
def small_integer_matrices(draw):
    m, n = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    row = st.lists(st.integers(-20, 20), min_size=n, max_size=n)
    return tuple(tuple(r)
                 for r in draw(st.lists(row, min_size=m, max_size=m)))


def gcd_of_minors(a, k):
    return gcd(*(int(frac_det([[a[i][j] for j in cols] for i in rows]))
                 for rows in combinations(range(len(a)), k)
                 for cols in combinations(range(len(a[0])), k)))


@settings(max_examples=150, derandomize=True, database=None, deadline=None)
@given(small_integer_matrices())
def test_snf_invariants_property(a):
    # d_1 ... d_k is the gcd of the k x k minors: the determinantal
    # divisors pin the diagonal down independently of the pivoting
    d, u, v = smith_normal_form(a)
    assert all(type(x) is int for mat in (d, u, v) for row in mat for x in row)
    assert mat_mul(mat_mul(u, a), v) == d
    assert abs(frac_det(u)) == abs(frac_det(v)) == 1
    m, n = len(a), len(a[0])
    assert all(d[i][j] == 0 for i in range(m) for j in range(n) if i != j)
    diag = [d[i][i] for i in range(min(m, n))]
    assert all(x >= 0 for x in diag)
    for x, y in zip(diag, diag[1:]):
        assert (y % x == 0) if x else (y == 0)
    divisor = 1
    for k, x in enumerate(diag, 1):
        divisor *= x
        assert divisor == gcd_of_minors(a, k)


def test_smith_form_of_equal_non_int_matrix_leaves_no_trace():
    # 2.0 == 2 and True == 1 hash alike: a cache keyed on the matrix
    # handed the float or bool entries of the first call to later calls
    # on the equal integer matrix
    smith_normal_form(((2.0,),))
    smith_normal_form(((True, False), (False, True)))
    for a in (((2,),), ((1, 0), (0, 1))):
        d, u, v = smith_normal_form(a)
        assert d == a
        assert all(type(x) is int
                   for mat in (d, u, v) for row in mat for x in row)


def test_snf_rank_matches_rational_rank():
    rng = random.Random(102)
    for _ in range(60):
        a = random_matrix(rng, rng.randint(1, 4), rng.randint(1, 4))
        d, _, _ = smith_normal_form(a)
        diag = [d[i][i] for i in range(min(len(a), len(a[0])))]
        assert sum(1 for x in diag if x != 0) == frac_rank(a)


def test_hermite_form_decides_rank_and_invertibility():
    # the row count of the Hermite form is the rational rank, and a square
    # matrix is invertible over Z exactly when its form is the identity;
    # the Smith transforms u and v supply unimodular cases
    rng = random.Random(103)
    unimodular = 0
    for _ in range(80):
        n = rng.randint(1, 5)
        a = random_matrix(rng, n, n, bound=rng.choice((1, 2, 9)))
        for m in (a, *smith_normal_form(a)[1:]):
            invertible = abs(frac_det(m)) == 1
            assert (hnf_rows(m) == identity_matrix(n)) == invertible
            assert len(hnf_rows(m)) == frac_rank(m)
            unimodular += invertible
    assert unimodular >= 160


def test_kernel_basis_annihilates_and_has_right_rank():
    rng = random.Random(104)
    for _ in range(80):
        m = rng.randint(1, 4)
        n = rng.randint(1, 4)
        a = random_matrix(rng, m, n, bound=5)
        basis = integer_kernel_basis(a, n)
        for row in basis:
            assert mat_vec(a, row) == (0,) * m
        assert len(basis) == n - frac_rank(a)


def test_kernel_is_saturated():
    # a vector with k*x in the kernel lattice must itself be in it
    rng = random.Random(105)
    for _ in range(40):
        n = rng.randint(2, 4)
        a = random_matrix(rng, rng.randint(1, 3), n, bound=4)
        basis = integer_kernel_basis(a, n)
        for row in basis:
            assert in_lattice(basis, row)
        # random rational kernel vector cleared to integers lies in the lattice
        for _ in range(5):
            coeffs = [rng.randint(-3, 3) for _ in basis]
            v = [0] * n
            for c, row in zip(coeffs, basis):
                v = [x + c * y for x, y in zip(v, row)]
            assert in_lattice(basis, tuple(v))


def test_hnf_canonical_under_row_shuffle():
    rng = random.Random(106)
    for _ in range(60):
        m = rng.randint(1, 4)
        n = rng.randint(1, 4)
        rows = [tuple(rng.randint(-6, 6) for _ in range(n)) for _ in range(m)]
        h1 = hnf_rows(rows)
        shuffled = rows[:]
        rng.shuffle(shuffled)
        assert hnf_rows(shuffled) == h1
        assert hnf_rows(h1) == h1
        for row in rows:
            assert in_lattice(h1, row)


@st.composite
def wide_integer_matrices(draw):
    """(a, n): m x n matrices with 0 <= m, n <= 6, entries up to 10^30 in
    absolute value, small ones mixed in so that divisibility is common;
    for m = 0, a is () and n is passed on its own."""
    m, n = draw(st.integers(0, 6)), draw(st.integers(0, 6))
    entry = st.one_of(st.integers(-3, 3), st.integers(-10 ** 30, 10 ** 30))
    row = st.tuples(*[entry] * n)
    return tuple(draw(st.lists(row, min_size=m, max_size=m))), n


@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@example(case=((), 0))
@example(case=((), 4))
@example(case=(((), (), ()), 0))
@given(wide_integer_matrices())
def test_normal_forms_match_the_side_matrix_reference(case):
    # the one-matrix reductions perform the reference's operations, so
    # (d, u, v) and the (unique) Hermite kernel basis agree exactly
    a, n = case
    assert smith_normal_form(a) == reference_smith_form(a)
    assert integer_kernel_basis(a, n) == reference_kernel_basis(a, n)


# presets whose every w - 1 is compared: the irreducibility sweeps'
# and a few more of ranks 4 and 5
KERNEL_PRESETS = ("GL2", "GL3", "GL4", "GL5", "SL4", "Sp4", "Sp6", "SO7",
                  "G2")


def test_normal_forms_match_the_reference_on_the_package_matrices():
    # every Smith form of the lift plans (xi_bar and q - w of each
    # lift-sweep configuration) and every fixed-space and central-space
    # kernel of KERNEL_PRESETS
    plan_matrices = []
    for _, datum, q, f, w in _lift_sweep():
        plan = _lift_plan(datum, w, q, f)
        plan_matrices += [plan.xi_bar, plan.q_minus_w]
    assert len(plan_matrices) == 312
    for a in plan_matrices:
        assert smith_normal_form(a) == reference_smith_form(a)
    kernels = 0
    for name in KERNEL_PRESETS:
        datum = build_root_datum(name)
        ident = identity_matrix(datum.rank)
        matrices = [mat_sub(w.matrix, ident)
                    for w in weyl_group_elements(datum)]
        for a in matrices + [root_functionals(datum)]:
            assert (integer_kernel_basis(a, datum.rank)
                    == reference_kernel_basis(a, datum.rank))
            kernels += 1
    assert kernels == 301


def test_kernel_basis_takes_no_smith_form(monkeypatch):
    calls = []
    monkeypatch.setattr(lattice, "smith_normal_form", calls.append)
    rng = random.Random(107)
    for _ in range(40):
        n = rng.randint(1, 5)
        a = random_matrix(rng, rng.randint(1, 4), n, bound=6)
        assert integer_kernel_basis(a, n) == reference_kernel_basis(a, n)
    assert calls == []


def test_solve_mod_against_brute_force():
    rng = random.Random(107)
    for _ in range(150):
        n = rng.randint(1, 2)
        modulus = rng.randint(2, 7)
        a = random_matrix(rng, rng.randint(1, 2), n, bound=6)
        b = tuple(rng.randint(-6, 6) for _ in a)
        x = ModSolver(smith_normal_form(a), modulus).solve(b)
        brute = [
            v
            for v in product(range(modulus), repeat=n)
            if all(r % modulus == s % modulus for r, s in zip(mat_vec(a, v), b))
        ]
        if brute:
            assert x is not None
            assert all(0 <= c < modulus for c in x)
            assert tuple(x) in brute
        else:
            assert x is None


def solve_mod_smith_reference(snf, b, n):
    """The canonical solution as the Smith-form solve computed it before
    its constants were split from its solve, kept as the specification."""
    d, u, v = snf
    m, cols = len(u), len(v)
    c = mat_vec(u, b)
    y = [0] * cols
    for i in range(min(m, cols)):
        di = d[i][i]
        rhs = c[i] % n
        g = gcd(di, n)
        if rhs % g != 0:
            return None
        nn = n // g
        if nn > 1:
            y[i] = (rhs // g) * pow((di // g) % nn, -1, nn) % nn
    for i in range(min(m, cols), m):
        if c[i] % n != 0:
            return None
    return tuple(x % n for x in mat_vec(v, tuple(y)))


@st.composite
def congruences(draw):
    """a x = b (mod n) with a of 1-4 rows and 1-3 columns, n <= 12; a
    column may be a multiple of the first, so zero Smith diagonal entries
    are common."""
    n = draw(st.integers(1, 12))
    m, k = draw(st.integers(1, 4)), draw(st.integers(1, 3))
    cols = [draw(st.lists(st.integers(-6, 6), min_size=m, max_size=m))
            for _ in range(k)]
    if k > 1 and draw(st.booleans()):
        factor = draw(st.integers(-2, 2))
        cols[-1] = [factor * x for x in cols[0]]
    a = tuple(zip(*cols))
    b = tuple(draw(st.lists(st.integers(-15, 15), min_size=m, max_size=m)))
    return a, b, n


@settings(max_examples=250, derandomize=True, database=None, deadline=None)
@example(case=(((2, 4), (1, 2), (0, 0)), (3, 1, 5), 1))
@example(case=(((0, 0), (0, 0)), (0, 6), 6))
@example(case=(((2, 0), (0, 0), (0, 3)), (4, 0, 9), 12))
@given(congruences())
def test_solve_mod_smith_against_brute_force_property(case):
    a, b, n = case
    snf = smith_normal_form(a)
    solutions = {x for x in product(range(n), repeat=len(a[0]))
                 if all((r - s) % n == 0 for r, s in zip(mat_vec(a, x), b))}
    solver = ModSolver(snf, n)
    x = solver.solve(b)
    assert x == solve_mod_smith_reference(snf, b, n)
    assert solver.kernel_count == sum(
        1 for x in product(range(n), repeat=len(a[0]))
        if all(r % n == 0 for r in mat_vec(a, x)))
    if not solutions:
        assert x is None
        return
    assert x is not None and all(0 <= c < n for c in x)
    assert x in solutions


def test_solve_mod_matches_the_reference_on_non_square_systems():
    # the row-comprehension solve against the specification, on Smith
    # forms from the reference, square or not, with b reachable or not
    rng = random.Random(113)
    for _ in range(300):
        m, k = rng.randint(1, 5), rng.randint(1, 5)
        a = random_matrix(rng, m, k, bound=9)
        snf, n = reference_smith_form(a), rng.randint(1, 60)
        x0 = tuple(rng.randint(-50, 50) for _ in range(k))
        for b in (mat_vec(a, x0), tuple(rng.randint(-99, 99) for _ in a)):
            x = ModSolver(snf, n).solve(b)
            assert x == solve_mod_smith_reference(snf, b, n)
            if b == mat_vec(a, x0):
                assert x is not None
    solver = ModSolver(smith_normal_form(((1, 2, 3), (4, 5, 6))), 7)
    for b in ((1,), (1, 2, 3)):
        with pytest.raises(ValueError,
                           match=f"^dimension mismatch: 2 vs {len(b)}$"):
            solver.solve(b)


def test_solve_mod_is_deterministic():
    a = ((3, 1), (1, 3))
    b = (1, 3)
    assert (ModSolver(smith_normal_form(a), 8).solve(b)
            == ModSolver(smith_normal_form(a), 8).solve(b))


def test_rational_inverse_roundtrip():
    # the reference inverse behind the tests' Fraction contragredient
    rng = random.Random(108)
    done = 0
    while done < 30:
        n = rng.randint(1, 4)
        a = random_matrix(rng, n, n)
        if frac_det(a) == 0:
            continue
        inv = rational_inverse(a)
        prod = [[sum(Fraction(a[i][k]) * inv[k][j] for k in range(n)) for j in range(n)]
                for i in range(n)]
        assert prod == [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
        done += 1


def test_solve_int_smith_examples():
    def solve(a, b):
        return solve_int_smith(smith_normal_form(a), b)

    assert solve(((1, 1), (1, -1)), (2, 0)) == (1, 1)
    assert solve(((1, 1), (1, -1)), (1, 0)) is None  # only over Q
    assert solve(((1, 1), (1, 1)), (0, 1)) is None  # not even over Q
    assert solve(((1,), (1,), (0,)), (2, 2, 0)) == (2,)
    assert solve(((1,), (1,), (0,)), (1, 0, 0)) is None


def test_solve_int_smith_against_oracles():
    # a solution must solve; a refusal must be a rational inconsistency
    # (rank grows with b appended) or a modulus with no solution at all;
    # entries in [-3, 3] and sizes up to 3 keep every invariant factor
    # below 200, so that modulus is among those tried
    rng = random.Random(109)
    for _ in range(150):
        m, k = rng.randint(1, 3), rng.randint(1, 3)
        a = random_matrix(rng, m, k, bound=3)
        snf = smith_normal_form(a)
        x0 = tuple(rng.randint(-5, 5) for _ in range(k))
        x = solve_int_smith(snf, mat_vec(a, x0))
        assert x is not None and mat_vec(a, x) == mat_vec(a, x0)
        if frac_rank(a) == k:
            assert x == x0
        b = tuple(rng.randint(-6, 6) for _ in range(m))
        x = solve_int_smith(snf, b)
        if x is not None:
            assert mat_vec(a, x) == b
        else:
            appended = tuple(row + (bi,) for row, bi in zip(a, b))
            assert (frac_rank(appended) > frac_rank(a)
                    or any(ModSolver(snf, n).solve(b) is None
                           for n in range(2, 200)))
