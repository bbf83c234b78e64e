"""Root data for split reductive groups, with Weyl elements as integer matrices.

A datum is the full combinatorial package (character/cocharacter lattices of a
split maximal torus, roots, coroots, a perfect pairing, a base of simple
roots), stored in explicit integer coordinates.  Weyl group elements act on
the cocharacter lattice; the contragredient action permutes the roots.

Conventions:
  * characters and cocharacters are integer row tuples of length `rank`;
  * <x, y> = x^T * pairing * y; root_functionals holds alpha^T * pairing
    for each root alpha, so root_pairings(datum, y) lists every <alpha, y>,
    read off one big-int product with the functionals packed column-wise;
  * the root list is sorted lexicographically, so serialization is canonical
    and root indices are stable.
"""
from __future__ import annotations

import functools
import re
from itertools import chain
from operator import mul

from .errors import DatumValidationError, GuardError, InternalConsistencyError
from .lattice import (
    Mat,
    PackedRows,
    Vec,
    as_rows,
    as_tuple,
    dot,
    hnf_rows,
    identity_matrix,
    integer_kernel_basis,
    is_strict_int,
    mat_mul,
    mat_sub,
    mat_transpose,
    mat_vec,
    smith_normal_form,
    solve_int_smith,
    vec_add,
    vec_scale,
    vec_sub,
)
from .record import record

PRESET_RANK_CAP = 8
WEYL_GROUP_CAP = 10_000


@record
class RootDatum:
    rank: int
    roots: tuple[Vec, ...]
    coroots: tuple[Vec, ...]
    pairing: Mat
    simple_roots: tuple[int, ...]  # indices into roots, in Dynkin order
    label: str = "custom"

    def __post_init__(self):
        # tables derived from the datum (see per_datum); outside the fields,
        # so outside __eq__, hash and repr, and freed with the datum
        object.__setattr__(self, "_memo", {})

    def __getstate__(self) -> dict:
        # the memo stays behind: an unpickled datum starts with an empty one
        return {**self.__dict__, "_memo": {}}

    def root_index(self, root: Vec) -> int:
        try:
            return _root_index_map(self)[tuple(root)]
        except KeyError:
            raise ValueError(f"{root} is not a root of {self.label}") from None

    def simple_root_vectors(self) -> tuple[Vec, ...]:
        return tuple(self.roots[i] for i in self.simple_roots)

    def simple_coroot_vectors(self) -> tuple[Vec, ...]:
        return tuple(self.coroots[i] for i in self.simple_roots)


def per_datum(fn):
    """Cache fn(datum, *args) in the datum's memo: computed once per datum
    and argument tuple, and released with the datum.  A call that raises
    caches nothing."""
    @functools.wraps(fn)
    def cached(datum, *args):
        memo = datum._memo
        key = (fn, args)
        try:
            return memo[key]
        except KeyError:
            value = memo[key] = fn(datum, *args)
            return value
    return cached


@record(eq=False)
class WeylElement:
    """Integer matrix acting on the cocharacter lattice, with an optional
    word in simple reflections recording how it was built.  A matrix that
    is not square, has an entry that is not an int (or is a bool), or is
    not invertible over Z (its Hermite form is not the identity) is
    rejected with ValueError; `weyl_from_matrix` also checks that the
    matrix lies in W."""

    matrix: Mat
    word: tuple[int, ...] | None = None

    def __post_init__(self):
        # the memos key on the matrix, so a float or bool matrix equal to
        # an integer one would share, and fill, the integer entries
        matrix = tuple(tuple(row) for row in self.matrix)
        if any(len(row) != len(matrix) for row in matrix):
            raise ValueError("Weyl matrix must be square")
        if any(not is_strict_int(x) for row in matrix for x in row):
            raise ValueError("Weyl matrix entries must be integers")
        if hnf_rows(matrix) != identity_matrix(len(matrix)):
            raise ValueError("Weyl matrix is not invertible over Z")
        object.__setattr__(self, "matrix", matrix)
        # memos key on elements: hash the matrix once, not on every lookup
        object.__setattr__(self, "_hash", hash(matrix))

    def __eq__(self, other) -> bool:
        return isinstance(other, WeylElement) and self.matrix == other.matrix

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        # unpickling rebuilds the element, so its hash is this process's
        return type(self), (self.matrix, self.word)

    def apply(self, cochar: Vec) -> Vec:
        return mat_vec(self.matrix, cochar)


# ---------------------------------------------------------------------------
# pairing and pointwise queries

@per_datum
def root_functionals(datum: RootDatum) -> Mat:
    """One integer row per root, in root order: <alpha, y> = row . y for
    every cocharacter y."""
    transpose = mat_transpose(datum.pairing)
    return tuple(mat_vec(transpose, alpha) for alpha in datum.roots)


def root_pairings(datum: RootDatum, cochar: Vec) -> Vec:
    """<alpha, cochar> for every root alpha, in root order, read off the
    fields of one packed product (see `_packed_functionals`).  Raises
    ValueError for a vector of the wrong length or with an entry that is
    not an int (a float, bool or Fraction)."""
    _require_cochar(datum, cochar)
    return _packed_functionals(datum).products(cochar)


def is_regular_cochar(datum: RootDatum, cochar: Vec) -> bool:
    """True when no root pairs to zero with the cocharacter.  Raises
    ValueError as `root_pairings` does."""
    _require_cochar(datum, cochar)
    return _all_regular(datum, (cochar,))


def _require_cochar(datum: RootDatum, cochar: Vec) -> None:
    if len(cochar) != datum.rank:
        raise ValueError(
            f"dimension mismatch: expected rank {datum.rank}, "
            f"got {len(cochar)}")
    for entry in cochar:
        if type(entry) is not int and not is_strict_int(entry):
            raise ValueError(
                f"cocharacter entry {entry!r} is not an integer")


def _all_regular(datum: RootDatum, cochars) -> bool:
    """True when every cocharacter is regular.  All are tested at the one
    width their largest entry needs, each by one packed product and one
    zero-field test: with every field of P = sum_c y_c . column_c + high in
    [1, 2^k), field i of x = P xor high is 0 exactly when <alpha_i, y> is,
    and (x - low) & ~x & high is nonzero exactly when some field of x is 0
    (no field borrows unless one below it is 0).  The entries are not
    checked: there must be at least one cocharacter, each `rank` ints."""
    columns, low, high, _ = _packed_functionals(datum).at(max(
        map(abs, chain.from_iterable(cochars))) if datum.rank else 0)
    for cochar in cochars:
        x = (sum(map(mul, cochar, columns)) + high) ^ high
        if (x - low) & ~x & high:
            return False
    return True


@per_datum
def _packed_functionals(datum: RootDatum) -> PackedRows:
    """The root functionals packed column-wise (see `lattice.PackedRows`),
    so <alpha_i, y> is field i of a product with y."""
    return PackedRows(root_functionals(datum))


@per_datum
def canonical_regular_cochar(datum: RootDatum) -> Vec:
    """Deterministic regular cocharacter: the staircase (r-1+k, ..., 1+k, k)
    for the smallest workable shift k, with a geometric fallback for data
    the staircase cannot handle.  It cannot fail: every root functional is
    nonzero, so it vanishes at fewer than r of the fallback's t values."""
    r = datum.rank
    for k in range(len(datum.roots) + 2):
        candidate = tuple(r - 1 - i + k for i in range(r))
        if is_regular_cochar(datum, candidate):
            return candidate
    bound = len(datum.roots) * max(r - 1, 1) + 2
    for t in range(2, bound + 2):
        candidate = tuple(t ** i for i in range(r))
        if is_regular_cochar(datum, candidate):
            return candidate
    raise InternalConsistencyError(
        f"no regular cocharacter found for {datum.label}")


# ---------------------------------------------------------------------------
# validation and construction

def make_root_datum(rank, roots, coroots, pairing, simple_roots, label="custom") -> RootDatum:
    """Validate and canonicalize a root datum; raises DatumValidationError
    naming the first violated invariant."""
    def shape_error(invariant):
        return functools.partial(DatumValidationError, invariant)

    roots = as_rows(roots, "roots", shape_error("roots"))
    coroots = as_rows(coroots, "coroots", shape_error("coroots"))
    pairing = as_rows(pairing, "pairing", shape_error("pairing-shape"))
    simple_roots = as_tuple(simple_roots, "simple_roots",
                            shape_error("simple-roots"))
    _check_structure(rank, roots, coroots, pairing, simple_roots)

    order = sorted(range(len(roots)), key=lambda i: roots[i])
    position = {old: new for new, old in enumerate(order)}
    datum = RootDatum(
        rank=rank,
        roots=tuple(roots[i] for i in order),
        coroots=tuple(coroots[i] for i in order),
        pairing=pairing,
        simple_roots=tuple(position[i] for i in simple_roots),
        label=label,
    )
    _check_axioms(datum)
    return datum


def _check_structure(rank, roots, coroots, pairing, simple_roots) -> None:
    def bad(invariant, msg):
        raise DatumValidationError(invariant, msg)

    if not is_strict_int(rank) or rank < 0:
        bad("rank", f"rank must be a nonnegative integer, got {rank!r}")
    if len(roots) != len(coroots):
        bad("root-coroot-bijection", f"{len(roots)} roots vs {len(coroots)} coroots")
    for name, vecs in (("roots", roots), ("coroots", coroots)):
        for v in vecs:
            if len(v) != rank or not all(is_strict_int(x) for x in v):
                bad(name, f"entries must be integer vectors of length {rank}: {v}")
    if len(pairing) != rank or any(len(row) != rank for row in pairing):
        bad("pairing-shape", f"pairing must be a {rank}x{rank} integer matrix")
    if any(not is_strict_int(x) for row in pairing for x in row):
        bad("pairing-shape", "pairing entries must be integers")
    if len(set(roots)) != len(roots):
        bad("roots-distinct", "duplicate root vectors")
    if any(not any(r) for r in roots):
        bad("roots-nonzero", "the zero vector cannot be a root")
    for i in simple_roots:
        if not is_strict_int(i) or not (0 <= i < len(roots)):
            bad("simple-roots", f"simple root index {i!r} out of range")
    if len(set(simple_roots)) != len(simple_roots):
        bad("simple-roots", "repeated simple root index")


def _check_axioms(datum: RootDatum) -> None:
    def bad(invariant, msg):
        raise DatumValidationError(invariant, msg)

    if len(hnf_rows(datum.pairing)) != datum.rank:
        bad("pairing-nondegenerate", "pairing matrix is singular over Q")

    # the checks read the datum's own tables, so a datum that passes has
    # them in its memo and a rejected one takes them with it
    root_index = _root_index_map(datum)
    coroot_index = _coroot_index_map(datum)
    # cartan[i][j] = <alpha_i, alpha_j^vee>: column j pairs every root
    # with coroot j, so each pairing is computed once
    cartan = tuple(zip(*[root_pairings(datum, c) for c in datum.coroots]))
    for i, (alpha, alpha_v) in enumerate(zip(datum.roots, datum.coroots)):
        if cartan[i][i] != 2:
            bad("pair-root-coroot", f"<{alpha}, {alpha_v}> != 2")
        j = root_index.get(tuple(-x for x in alpha))
        if j is None or datum.coroots[j] != tuple(-x for x in alpha_v):
            bad("negation-closure", f"-({alpha}) missing or its coroot mismatched")

    # every root reflection permutes the root set, and the coroot-side
    # reflection permutes the coroot set: <alpha, alpha^vee> = 2 makes each
    # an involution, so closure alone makes it a permutation
    for i, (alpha, alpha_v) in enumerate(zip(datum.roots, datum.coroots)):
        for j, beta in enumerate(datum.roots):
            image = tuple(b - cartan[j][i] * a for b, a in zip(beta, alpha))
            if image not in root_index:
                bad("reflection-closure",
                    f"reflection in {alpha} sends {beta} outside the root set")
        for j, beta_v in enumerate(datum.coroots):
            image = tuple(b - cartan[i][j] * a for b, a in zip(beta_v, alpha_v))
            if image not in coroot_index:
                bad("coreflection-closure",
                    f"coreflection in {alpha_v} sends {beta_v} outside the coroot set")

    # the simple roots are a base: independent, and every root is a one-signed
    # integer combination of them
    if datum.simple_roots:
        coords = simple_root_coords(datum)
        # the solve is linear in the root, so the simple roots get the unit
        # vectors as coordinates exactly when they are independent; then
        # every root's coordinates are unique
        if (tuple(coords[i] for i in datum.simple_roots)
                != identity_matrix(len(datum.simple_roots))):
            bad("base", "simple roots are linearly dependent")
        for alpha, coeffs in zip(datum.roots, coords):
            if coeffs is None:
                bad("base", f"root {alpha} is not an integer combination "
                            f"of the simple roots")
            if not (all(c >= 0 for c in coeffs) or all(c <= 0 for c in coeffs)):
                bad("base", f"root {alpha} has mixed-sign simple-root coordinates")
    elif datum.roots:
        bad("base", "datum has roots but no simple roots")


@per_datum
def _root_index_map(datum: RootDatum) -> dict:
    return {r: i for i, r in enumerate(datum.roots)}


@per_datum
def simple_root_coords(datum: RootDatum) -> tuple[Vec, ...]:
    """Coordinates of every root in the simple-root base (integer tuples)."""
    simples = datum.simple_root_vectors()
    if not simples:
        return tuple(() for _ in datum.roots)
    snf = smith_normal_form(mat_transpose(simples))
    return tuple(solve_int_smith(snf, alpha) for alpha in datum.roots)


@per_datum
def positive_root_indices(datum: RootDatum) -> tuple[int, ...]:
    coords = simple_root_coords(datum)
    return tuple(i for i in range(len(datum.roots))
                 if any(c > 0 for c in coords[i]))


# ---------------------------------------------------------------------------
# presets

def general_linear(n: int) -> RootDatum:
    """GL(n) in permutation coordinates: both lattices Z^n, identity pairing,
    roots and coroots e_i - e_j."""
    _check_preset_rank("GL", n, n)
    chain = _type_a_chain(n)
    return _based_datum(n, chain, chain, f"GL{n}")


def special_linear(n: int) -> RootDatum:
    """SL(n), rank n-1.  Characters in the basis of the first n-1 coordinate
    characters of the GL(n) torus (the last is minus their sum); cocharacters
    in the basis e_k - e_n of the sum-zero lattice.  Pairing is then the
    identity."""
    if n < 2:
        raise ValueError("SL(n) needs n >= 2")
    r = n - 1
    _check_preset_rank("SL", n, r)
    # the last simple root e_(n-1) - e_n reads e_(n-1) + (1, ..., 1) as a
    # character and f_(n-1) as a cocharacter
    last = identity_matrix(r)[-1]
    chain = _type_a_chain(r)
    return _based_datum(r, chain + [vec_add(last, (1,) * r)],
                        chain + [last], f"SL{n}")


def symplectic(two_n: int) -> RootDatum:
    """Sp(2n): lattices Z^n, identity pairing, long roots 2e_i with coroots
    e_i, short roots +-e_i +- e_j self-paired."""
    if two_n < 2 or two_n % 2:
        raise ValueError("Sp(2n) needs a positive even size")
    n = two_n // 2
    _check_preset_rank("Sp", two_n, n)
    last = identity_matrix(n)[-1]
    chain = _type_a_chain(n)
    return _based_datum(n, chain + [vec_scale(2, last)], chain + [last],
                        f"Sp{two_n}")


def special_orthogonal(m: int) -> RootDatum:
    """SO(m): type B for odd m (short roots e_i, coroots 2e_i), type D for
    even m (roots +-e_i +- e_j only)."""
    if m < 2:
        raise ValueError("SO(m) needs m >= 2")
    n = m // 2
    _check_preset_rank("SO", m, n)
    e = identity_matrix(n)
    roots = coroots = _type_a_chain(n)
    if m % 2:  # B_n
        roots, coroots = roots + [e[-1]], coroots + [vec_scale(2, e[-1])]
    elif n >= 2:  # D_n
        roots = coroots = roots + [vec_add(e[-2], e[-1])]
    return _based_datum(n, roots, coroots, f"SO{m}")


def g2_datum() -> RootDatum:
    """G2 in simple-root coordinates for characters and fundamental-coweight
    coordinates for cocharacters (identity pairing)."""
    return _based_datum(2, [(1, 0), (0, 1)], [(2, -3), (-1, 2)], "G2")


def _type_a_chain(n: int) -> list[Vec]:
    """The simple roots e_i - e_(i+1), i < n - 1, of type A_(n-1) in Z^n."""
    e = identity_matrix(n)
    return [vec_sub(e[i], e[i + 1]) for i in range(n - 1)]


def _based_datum(rank, simple_roots, simple_coroots, label) -> RootDatum:
    """The datum with these simple roots and coroots, in this Dynkin order,
    under the identity pairing.  Every other (root, coroot) pair is the
    image of a simple one under simple reflections: s_i(beta) = beta -
    <beta, alpha_i^vee> alpha_i and s_i(beta^vee) = beta^vee - <alpha_i,
    beta^vee> alpha_i^vee.  `make_root_datum` validates and sorts the
    result, so the order of the closure cannot reach the datum."""
    simples = list(zip(simple_roots, simple_coroots))
    coroot_of = dict(simples)
    frontier = list(coroot_of)
    while frontier:
        grown = []
        for beta in frontier:
            beta_v = coroot_of[beta]
            for alpha, alpha_v in simples:
                k = dot(beta, alpha_v)
                image = tuple([b - k * a for b, a in zip(beta, alpha)])
                if image not in coroot_of:
                    k = dot(alpha, beta_v)
                    coroot_of[image] = tuple(
                        [b - k * a for b, a in zip(beta_v, alpha_v)])
                    grown.append(image)
        frontier = grown
    return make_root_datum(rank, list(coroot_of), list(coroot_of.values()),
                           identity_matrix(rank), range(len(simples)), label)


def _check_preset_rank(family: str, size: int, rank: int) -> None:
    if rank < 1:
        raise ValueError(f"{family}{size}: rank must be at least 1")
    if rank > PRESET_RANK_CAP:
        raise ValueError(f"{family}{size}: preset rank {rank} exceeds cap {PRESET_RANK_CAP}")


_PRESET_RE = re.compile(r"^(GL|SL|Sp|SO)(\d+)$")


def build_root_datum(name: str) -> RootDatum:
    """Build a preset datum from its name: GLn, SLn, Sp2n, SOm, or G2."""
    if name == "G2":
        return g2_datum()
    m = _PRESET_RE.match(name)
    if not m:
        raise ValueError(
            f"unknown group {name!r}; expected GLn, SLn, Sp2n, SOm, or G2")
    family, size = m.group(1), int(m.group(2))
    builder = {
        "GL": general_linear,
        "SL": special_linear,
        "Sp": symplectic,
        "SO": special_orthogonal,
    }[family]
    return builder(size)


# ---------------------------------------------------------------------------
# JSON form

def datum_to_dict(datum: RootDatum) -> dict:
    return {
        "rank": datum.rank,
        "roots": [list(r) for r in datum.roots],
        "coroots": [list(c) for c in datum.coroots],
        "pairing": [list(row) for row in datum.pairing],
        "simple_roots": list(datum.simple_roots),
    }


def datum_from_dict(data: dict, label: str = "custom") -> RootDatum:
    if not isinstance(data, dict):
        raise ValueError("root datum JSON must be an object")
    missing = {"rank", "roots", "coroots", "pairing", "simple_roots"} - set(data)
    if missing:
        raise ValueError(f"root datum JSON missing fields: {sorted(missing)}")
    return make_root_datum(
        data["rank"], data["roots"], data["coroots"], data["pairing"],
        data["simple_roots"], label=label,
    )


# ---------------------------------------------------------------------------
# Weyl elements

@per_datum
def simple_coreflections(datum: RootDatum) -> tuple[Mat, ...]:
    """Matrices of the simple reflections acting on the cocharacter lattice."""
    out = []
    for k in datum.simple_roots:
        alpha_v, functional = datum.coroots[k], root_functionals(datum)[k]
        rows = tuple(
            tuple(int(i == j) - alpha_v[i] * functional[j] for j in range(datum.rank))
            for i in range(datum.rank)
        )
        out.append(rows)
    return tuple(out)


def weyl_from_word(datum: RootDatum, word) -> WeylElement:
    """Product of simple coreflections; word is e.g. [0, 1, 0] or "s0 s1 s0".

    The rightmost letter acts first on cocharacters.
    """
    if isinstance(word, str):
        letters = word.replace(",", " ").split()
        indices = []
        for tok in letters:
            tok = tok.lower().lstrip("s")
            if not tok.isdigit():
                raise ValueError(f"cannot parse Weyl word letter {tok!r}")
            indices.append(int(tok))
        word = indices
    word = as_tuple(word, "Weyl word")
    gens = simple_coreflections(datum)
    for i in word:
        if not is_strict_int(i):
            raise ValueError(f"Weyl word letters must be integers, got {i!r}")
        if not (0 <= i < len(gens)):
            raise ValueError(
                f"Weyl word letter {i} out of range for {len(gens)} simple roots")
    m = identity_matrix(datum.rank)
    for i in word:
        m = mat_mul(m, gens[i])
    return WeylElement(matrix=m, word=word)


def weyl_from_matrix(datum: RootDatum, matrix) -> WeylElement:
    """Validate that an explicit integer matrix is a Weyl group element for
    the datum: unimodular, permutes the coroots preserving the pairing, and
    lies in W rather than only in the automorphism group of the datum."""
    w = WeylElement(matrix=as_rows(matrix, "Weyl matrix"))  # unimodular
    require_in_weyl_group(datum, w)
    return w


def require_in_weyl_group(datum: RootDatum, w: WeylElement) -> None:
    """Raise ValueError unless w is rank x rank and lies in the datum's
    Weyl group, not only in the automorphism group of the datum.  The
    verdict is memoized per datum by matrix."""
    _require_weyl_shape(datum, w.matrix)
    # the root permutation raises unless the coroots are permuted with the
    # pairing preserved
    if not _descends_to_identity(datum, w.matrix):
        raise ValueError(
            f"matrix is not a Weyl group element of {datum.label}: it "
            f"preserves the root datum but lies outside W")


def _require_weyl_shape(datum: RootDatum, matrix: Mat) -> None:
    if len(matrix) != datum.rank or any(len(r) != datum.rank for r in matrix):
        raise ValueError(f"Weyl matrix must be {datum.rank}x{datum.rank}")


@per_datum
def _descends_to_identity(datum: RootDatum, matrix: Mat) -> bool:
    """Simple-reflection descent: while w sends a simple root alpha to a
    negative root, replace w by w s_alpha.  Each step removes exactly one
    positive root from those w sends negative, so the loop ends with w
    fixing the positive system; w is in W iff that end point is 1.
    Raises ValueError, and caches nothing, when the matrix does not
    preserve the root datum."""
    positive = set(positive_root_indices(datum))
    gens = simple_coreflections(datum)
    gen_perms = [_root_permutation_cached(datum, g) for g in gens]
    perm = _root_permutation_cached(datum, matrix)
    while True:
        for k, s in enumerate(datum.simple_roots):
            if perm[s] not in positive:
                matrix = mat_mul(matrix, gens[k])
                perm = tuple(perm[i] for i in gen_perms[k])
                break
        else:
            return matrix == identity_matrix(datum.rank)


def weyl_identity(datum: RootDatum) -> WeylElement:
    return WeylElement(matrix=identity_matrix(datum.rank), word=())


@per_datum
def _coroot_index_map(datum: RootDatum) -> dict:
    return {c: i for i, c in enumerate(datum.coroots)}


@per_datum
def _root_permutation_cached(datum: RootDatum, matrix: Mat) -> tuple[int, ...]:
    # w(alpha)^vee = w(alpha^vee): the image of each coroot names the image
    # root.  That root must pair with w(y) as alpha pairs with y, i.e. its
    # functional times the matrix is alpha's functional; the pairing is
    # nondegenerate, so this pins it down and makes the map injective.
    # Column c of functionals . matrix pairs every root with column c of the
    # matrix, so the pulled-back functionals (its rows) take r packed
    # products.  The matrix is an int matrix (a WeylElement's or a product
    # of them), so once its row lengths are checked the images are built
    # inline and the products need no entry check.
    if not datum.coroots:
        return ()
    rank = datum.rank
    for row in matrix:
        if len(row) != rank:
            raise ValueError(f"dimension mismatch: {len(row)} vs {rank}")
    index = _coroot_index_map(datum)
    perm = [index.get(tuple([sum(map(mul, row, alpha_v)) for row in matrix]))
            for alpha_v in datum.coroots]
    functionals = root_functionals(datum)
    products = _packed_functionals(datum).products
    pulled_back = tuple(zip(*[products(column) for column in zip(*matrix)]))
    for i, j in enumerate(perm):
        if j is None:
            raise ValueError(f"matrix sends coroot {datum.coroots[i]} "
                             f"outside the coroot set")
        if pulled_back[j] != functionals[i]:
            raise ValueError(
                f"matrix does not preserve the pairing at root "
                f"{datum.roots[i]}")
    return tuple(perm)


def root_permutation(datum: RootDatum, w: WeylElement) -> tuple[int, ...]:
    """Index permutation of datum.roots induced by the contragredient of w."""
    return _root_permutation_cached(datum, w.matrix)


@per_datum
def weyl_group_elements(datum: RootDatum) -> tuple[WeylElement, ...]:
    """Enumerate the full Weyl group by breadth-first closure of the simple
    coreflections.  Deterministic: elements come out in shortest-word order,
    ties broken by generator index.  Raises GuardError, storing nothing, as
    soon as the group passes WEYL_GROUP_CAP elements."""
    gens = simple_coreflections(datum)
    ident = identity_matrix(datum.rank)
    seen = {ident: ()}
    frontier = [ident]
    while frontier:
        new_frontier = []
        for m in frontier:
            word = seen[m]
            for i, g in enumerate(gens):
                nxt = mat_mul(m, g)
                if nxt not in seen:
                    seen[nxt] = word + (i,)
                    new_frontier.append(nxt)
                    if len(seen) > WEYL_GROUP_CAP:
                        raise _weyl_limit_error(datum, WEYL_GROUP_CAP)
        frontier = new_frontier
    elements = [WeylElement(matrix=m, word=w) for m, w in seen.items()]
    elements.sort(key=lambda e: (len(e.word), e.word))
    return tuple(elements)


def _weyl_limit_error(datum: RootDatum, limit: int) -> GuardError:
    return GuardError(
        f"Weyl group of {datum.label} exceeds enumeration limit {limit}")


def weyl_fixed_space(datum: RootDatum, w: WeylElement) -> Mat:
    """Canonical basis of the w-fixed cocharacter sublattice (saturated, so
    also a basis of the fixed subspace over Q)."""
    diff = mat_sub(w.matrix, identity_matrix(datum.rank))
    return integer_kernel_basis(diff, datum.rank)
