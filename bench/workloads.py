"""The four workloads: seeded inputs, the op each one times, and the
benchmark's own output checks.

Nothing here imports `tamelift` at module level: the caller passes the
package in, so that set-up can be timed from the import on and so that
wrappers installed in the package namespace see every call.  Inputs are
generated before timing.  The checks use the integer helpers below, never
the program's own `*_checked` flags or solvers.

A workload is a `Workload` of these functions:
  setup(T)              -> data      the program's set-up, timed as setup_s
  inputs(T, data, rng)  -> [case]    one pass of inputs, untimed
  next_pass(T, pool, k) -> [case]    the cases of pass k, untimed
  run(T, case)          -> raw       the timed op
  canonical(case, raw)  -> plain     ints, bools, strings and tuples only
  check(case, plain)    -> bool      the benchmark's own verdict
"""
from __future__ import annotations

import os
import re
import subprocess
import sys
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"

# the lift sweep of the acceptance criteria: every w with w^f = 1
LIFT_PRESETS = ("GL2", "GL3", "GL4", "Sp4", "G2")
LIFT_PRIME_POWERS = (2, 3, 5)
LIFT_DEGREES = (1, 2, 3)
LIFT_SAMPLES = 2  # pairs per lift configuration in one pass

# exhaustive kernel counting runs only where N^r stays under this bound, so
# that no single op dominates a run and the program's auto cap is not used
EXHAUSTIVE_BOUND = 20000

# ranks 2-4 with many distinct Weyl elements
IRRED_PRESETS = ("GL3", "GL4", "Sp4", "Sp6", "SO7", "G2")
IRRED_PRIME_POWERS = (2, 3, 4, 5)
IRRED_DEGREES = (1, 2, 3, 4)
IRRED_MODULUS_CAP = 80
# Weyl elements per preset, spread evenly over the enumeration order.  Each
# one costs an oracle miss per pass (up to 50 ms on Sp6 and SO7), and the
# cap keeps a pass near a second, so that a run repeats every input often
# enough for its fastest time to be a steady estimate.
IRRED_WEYL_CAP = 12
IRRED_DRAWS = 20  # tries to find a pair with no killed root per config

CLI_COMMANDS = ("lift", "regular-lift", "ht", "irreducible", "validate",
                "oracle", "datum")
CLI_SETS = 4  # each command appears this often per pass, with its own pair
CLI_TIMEOUT_S = 60
# roots per preset, from the classification: n(n-1) for GLn, 2n^2 for Sp2n
# and SO(2n+1), 12 for G2
ROOT_COUNTS = {"GL2": 2, "GL3": 6, "GL4": 12, "Sp4": 8, "Sp6": 18,
               "SO7": 18, "G2": 12}


# ---------------------------------------------------------------------------
# integer arithmetic of the benchmark's own

def mat_vec(m, v):
    return tuple(sum(a * b for a, b in zip(row, v)) for row in m)


def mat_mul(a, b):
    cols = list(zip(*b))
    return tuple(tuple(sum(x * y for x, y in zip(row, col)) for col in cols)
                 for row in a)


def identity(n):
    return tuple(tuple(int(i == j) for j in range(n)) for i in range(n))


def mat_power(m, k):
    out = identity(len(m))
    for _ in range(k):
        out = mat_mul(out, m)
    return out


def averaged_matrix(w, q, f):
    """sum over i of q^(f-1-i) w^i; (q - w) times it is q^f - w^f."""
    n = len(w)
    total = [[0] * n for _ in range(n)]
    power = identity(n)
    for i in range(f):
        scale = q ** (f - 1 - i)
        for r in range(n):
            for c in range(n):
                total[r][c] += scale * power[r][c]
        power = mat_mul(power, w)
    return tuple(tuple(row) for row in total)


def root_functionals(datum):
    """Row a_alpha with <alpha, y> = a_alpha . y, from the datum's pairing."""
    p = datum.pairing
    rank = datum.rank
    return tuple(tuple(sum(alpha[i] * p[i][j] for i in range(rank))
                       for j in range(rank))
                 for alpha in datum.roots)


def dot(u, v):
    return sum(a * b for a, b in zip(u, v))


def is_lift(w, q, f, vbar, slots) -> bool:
    """w . slot_j = slot_{j-1} for all j, and sum q^j slot_j = vbar mod N."""
    n = q ** f - 1
    if len(slots) != f:
        return False
    if any(mat_vec(w, slots[j]) != tuple(slots[(j - 1) % f])
           for j in range(f)):
        return False
    red = tuple(sum(q ** j * slots[j][i] for j in range(f)) % n
                for i in range(len(vbar)))
    return red == tuple(vbar)


def all_nonzero(functionals, slots) -> bool:
    return all(dot(a, s) != 0 for a in functionals for s in slots)


# ---------------------------------------------------------------------------
# shared set-up and generation

@dataclass(frozen=True)
class Group:
    name: str
    datum: object
    elements: tuple
    functionals: tuple


def build_groups(T, names) -> dict[str, Group]:
    """The program's set-up: build each datum and enumerate its Weyl group."""
    groups = {}
    for name in names:
        datum = T.build_root_datum(name)
        elements = T.weyl_group_elements(datum)
        groups[name] = Group(name, datum, elements, root_functionals(datum))
    return groups


def sweep(groups, presets, prime_powers, degrees, modulus_cap=None,
          weyl_cap=None):
    """(group, q, f, w) for every w with w^f = 1, N = q^f - 1 >= 1; with a
    cap, only that many Weyl elements per preset take part."""
    for name in presets:
        g = groups[name]
        ident = identity(g.datum.rank)
        elements = g.elements
        if weyl_cap is not None:
            used = [w for w in elements
                    if any(mat_power(w.matrix, f) == ident for f in degrees)]
            step = max(1, len(used) / weyl_cap)
            elements = [used[int(i * step)]
                        for i in range(min(weyl_cap, len(used)))]
        for f in degrees:
            compatible = [w for w in elements
                          if mat_power(w.matrix, f) == ident]
            for q in prime_powers:
                n = q ** f - 1
                if modulus_cap is not None and n > modulus_cap:
                    continue
                for w in compatible:
                    yield g, q, f, w


def random_vbar(rng, w, q, f, rank):
    """A compatible vbar: the averaged matrix maps anything into the kernel
    of (q - w) mod N when w^f = 1."""
    n = q ** f - 1
    x = tuple(rng.randrange(n) for _ in range(rank))
    return tuple(c % n for c in mat_vec(averaged_matrix(w, q, f), x))


def killed(g: Group, vbar, n) -> bool:
    return any(dot(a, vbar) % n == 0 for a in g.functionals)


@dataclass(frozen=True)
class PairCase:
    group: Group
    q: int
    f: int
    w: object       # the program's WeylElement
    vbar: tuple
    pair: object    # the program's TameInertialPair
    killed: bool

    @property
    def n(self) -> int:
        return self.q ** self.f - 1


def pair_case(T, g, q, f, w, vbar) -> PairCase:
    return PairCase(g, q, f, w, vbar, T.make_pair(g.datum, q, f, vbar, w),
                    killed(g, vbar, q ** f - 1))


# ---------------------------------------------------------------------------
# lift: lift_inertia then regular_lift on valid pairs of the lift sweep

def lift_setup(T):
    return build_groups(T, LIFT_PRESETS)


def lift_inputs(T, groups, rng):
    cases = []
    for g, q, f, w in sweep(groups, LIFT_PRESETS, LIFT_PRIME_POWERS,
                            LIFT_DEGREES):
        for _ in range(LIFT_SAMPLES):
            vbar = random_vbar(rng, w.matrix, q, f, g.datum.rank)
            cases.append(pair_case(T, g, q, f, w, vbar))
    return cases


def lift_run(T, case):
    base = T.lift_inertia(case.group.datum, case.pair)
    return base, T.regular_lift(case.group.datum, case.pair)


def lift_canonical(case, raw):
    base, reg = raw
    return (tuple(base.tuple.slots), tuple(reg.tuple.slots),
            reg.seed_multiplier)


def lift_check(case, out) -> bool:
    base, reg, multiplier = out
    w = case.w.matrix
    return (is_lift(w, case.q, case.f, case.vbar, base)
            and is_lift(w, case.q, case.f, case.vbar, reg)
            and isinstance(multiplier, int) and multiplier >= 0
            and all_nonzero(case.group.functionals, reg))


# ---------------------------------------------------------------------------
# exactness: simple_trick_check by Smith form, and exhaustively when small

@dataclass(frozen=True)
class ExactCase:
    group: Group
    q: int
    f: int
    w: object
    exhaustive: bool


def exactness_inputs(T, groups, rng):
    cases = []
    for g, q, f, w in sweep(groups, LIFT_PRESETS, LIFT_PRIME_POWERS,
                            LIFT_DEGREES):
        size = (q ** f - 1) ** g.datum.rank
        cases.append(ExactCase(g, q, f, w, size <= EXHAUSTIVE_BOUND))
    return cases


def exactness_run(T, case):
    d = case.group.datum
    snf = T.simple_trick_check(d, case.q, case.f, case.w, method="snf")
    exhaustive = None
    if case.exhaustive:
        exhaustive = T.simple_trick_check(d, case.q, case.f, case.w,
                                          method="exhaustive")
    return snf, exhaustive


def exactness_canonical(case, raw):
    snf, exhaustive = raw
    return bool(snf), None if exhaustive is None else bool(exhaustive)


def exactness_check(case, out) -> bool:
    # kernel = image holds for every w with w^f = 1, so both methods must
    # say True; the exhaustive one must have run exactly when N^r is small
    snf, exhaustive = out
    return snf is True and exhaustive is (True if case.exhaustive else None)


# ---------------------------------------------------------------------------
# irreducible: is_G_irreducible, and the brute-force oracle when no root is
# killed

def irreducible_setup(T):
    return build_groups(T, IRRED_PRESETS)


def irreducible_inputs(T, groups, rng):
    """One pair per configuration: one with no killed root where 20 draws
    find it, so that each Weyl element meets the oracle whatever the seed.
    Of the configurations where every draw kills a root, every other one is
    kept: the killed-root ops (no oracle, the cheapest) then stay well under
    half of a pass, and the median op is an oracle cache hit on every seed."""
    cases = []
    killed_configs = 0
    for g, q, f, w in sweep(groups, IRRED_PRESETS, IRRED_PRIME_POWERS,
                            IRRED_DEGREES, IRRED_MODULUS_CAP,
                            IRRED_WEYL_CAP):
        n = q ** f - 1
        draws = [random_vbar(rng, w.matrix, q, f, g.datum.rank)
                 for _ in range(IRRED_DRAWS)]
        alive = [v for v in draws if not killed(g, v, n)]
        if not alive:
            killed_configs += 1
            if killed_configs % 2:
                continue
        cases.append(pair_case(T, g, q, f, w, (alive or draws)[0]))
    return cases


def irreducible_next_pass(T, pool, k):
    """From the second pass on, every case gets a freshly built copy of its
    datum (same roots, new label).  The program caches per datum, so each
    pass starts cold: the first oracle call per Weyl element misses and the
    later ones hit, the same ratio in every pass."""
    if k > 0:
        fresh = {}
        for g in {c.group.name: c.group for c in pool}.values():
            d = g.datum
            copy = T.make_root_datum(d.rank, d.roots, d.coroots, d.pairing,
                                     d.simple_roots, label=f"{g.name}/{k}")
            if copy.roots != d.roots:
                raise RuntimeError(f"copy of {g.name} reordered its roots")
            fresh[g.name] = replace(g, datum=copy)
        pool = [replace(c, group=fresh[c.group.name]) for c in pool]
    return pool


def irreducible_run(T, case):
    d = case.group.datum
    verdict = T.is_G_irreducible(d, case.pair)
    stable = None if case.killed else T.brute_force_parabolic_oracle(
        d, case.pair)
    return verdict, stable


def irreducible_canonical(case, raw):
    verdict, stable = raw
    root = verdict.failing_root
    fixed = verdict.fixed_cochar
    return (bool(verdict.irreducible),
            None if root is None else tuple(root),
            None if fixed is None else tuple(fixed),
            None if stable is None else tuple(sorted(
                tuple(sorted(par.nonneg_roots)) for par in stable)))


def irreducible_check(case, out) -> bool:
    irreducible, root, fixed, stable = out
    g = case.group
    if stable is not None and irreducible != (len(stable) == 0):
        return False
    if case.killed and root is None:
        return False
    if irreducible:
        return root is None and fixed is None and not case.killed
    if root is None and fixed is None:
        return False
    if root is not None:
        if root not in g.datum.roots:
            return False
        index = g.datum.roots.index(root)
        if dot(g.functionals[index], case.vbar) % case.n != 0:
            return False
    if fixed is not None:
        if mat_vec(case.w.matrix, fixed) != fixed:
            return False
        if not any(dot(a, fixed) != 0 for a in g.functionals):
            return False
    return True


# ---------------------------------------------------------------------------
# cli: cold `python -m tamelift` processes, one at a time

@dataclass(frozen=True)
class CliCase:
    argv: tuple
    exit_code: int
    expected: object   # parsed value the stdout must show
    multiplier: int | None  # regular_lift's C when the command runs it


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def _pair_argv(command, case: PairCase):
    word = " ".join(f"s{i}" for i in case.w.word)
    return (command, "--group", case.group.name, "--q", str(case.q),
            "--f", str(case.f), "--w", word,
            "--vbar", ",".join(str(x) for x in case.vbar))


def cli_inputs(T, groups, rng):
    configs = list(sweep(groups, LIFT_PRESETS, LIFT_PRIME_POWERS,
                         LIFT_DEGREES))
    gl4 = [c for c in configs if c[0].name == "GL4"]
    cases = []
    for _ in range(CLI_SETS):
        for command in CLI_COMMANDS:
            cases.append(_cli_case(T, groups, rng, command, configs, gl4))
    return cases


def _cli_case(T, groups, rng, command, configs, gl4):
    if command == "datum":
        name = rng.choice(LIFT_PRESETS)
        return CliCase(("datum", "--group", name), 0, ROOT_COUNTS[name], None)
    while True:
        g, q, f, w = rng.choice(gl4 if command == "oracle" else configs)
        case = pair_case(T, g, q, f, w,
                         random_vbar(rng, w.matrix, q, f, g.datum.rank))
        if command != "oracle" or not case.killed:
            break
    d, p = g.datum, case.pair
    argv = _pair_argv(command, case)
    if command == "lift":
        slots = tuple(T.lift_inertia(d, p).tuple.slots)
        if not is_lift(w.matrix, q, f, case.vbar, slots):
            raise RuntimeError(f"in-process lift failed its check: {argv}")
        return CliCase(argv, 0, slots, None)
    if command in ("regular-lift", "ht"):
        reg = T.regular_lift(d, p)
        slots = tuple(reg.tuple.slots)
        if not (is_lift(w.matrix, q, f, case.vbar, slots)
                and all_nonzero(g.functionals, slots)):
            raise RuntimeError(f"in-process regular lift failed: {argv}")
        if command == "ht":
            cochars = tuple(tuple(-x for x in s) for s in slots)
            return CliCase(argv + ("--regular",), 0, cochars,
                           reg.seed_multiplier)
        return CliCase(argv, 0, (slots, reg.seed_multiplier),
                       reg.seed_multiplier)
    if command == "irreducible":
        raw = (T.is_G_irreducible(d, p),
               None if case.killed else T.brute_force_parabolic_oracle(d, p))
        out = irreducible_canonical(case, raw)
        if not irreducible_check(case, out):
            raise RuntimeError(f"in-process verdict failed its check: {argv}")
        return CliCase(argv, 0 if out[0] else 2, out[0], None)
    if command == "validate":
        return CliCase(argv, 0, True, None)
    stable = T.brute_force_parabolic_oracle(d, p)
    verdict = T.is_G_irreducible(d, p)
    if bool(verdict.irreducible) != (len(stable) == 0):
        raise RuntimeError(f"in-process oracle disagrees: {argv}")
    return CliCase(argv, 0, len(stable), None)


def cli_run(T, case, traced=False):
    """One cold process.  The traced form runs the benchmark's child driver,
    which times the import and main() and reports its spans on stderr."""
    if traced:
        cmd = [sys.executable, str(BENCH_DIR / "cli_child.py"), *case.argv]
    else:
        cmd = [sys.executable, "-m", "tamelift", *case.argv]
    proc = subprocess.Popen(cmd, cwd=ROOT, env=child_env(),
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    try:
        stdout, stderr = proc.communicate(timeout=CLI_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise
    return proc.returncode, stdout, stderr


_VEC = r"\(([-\d, ]*)\)"


def _vec(text):
    return tuple(int(x) for x in text.split(",") if x.strip())


def parse_cli(command, stdout: str):
    """The value a command's stdout shows, or None if it shows none."""
    if command in ("lift", "regular-lift"):
        slots = tuple(_vec(m) for m in re.findall(
            rf"^slot \d+: {_VEC}$", stdout, re.M))
        if command == "lift":
            return slots
        m = re.search(r"^seed multiplier: (\d+)$", stdout, re.M)
        return (slots, int(m.group(1))) if m else None
    if command == "ht":
        rows = re.findall(rf"^\s*\d+\s+{_VEC}\s+yes\s+-$", stdout, re.M)
        if not re.search(r"^ht regular: yes$", stdout, re.M):
            return None
        return tuple(_vec(r) for r in rows)
    patterns = {
        "irreducible": (r"^irreducible: (yes|no)$", lambda s: s == "yes"),
        "validate": (r"^valid: (yes|no)$", lambda s: s == "yes"),
        "oracle": (r"^stable proper parabolics: (\d+)$", int),
        "datum": (r"^roots \((\d+)\):$", int),
    }
    pattern, convert = patterns[command]
    m = re.search(pattern, stdout, re.M)
    return convert(m.group(1)) if m else None


def cli_canonical(case, raw):
    code, stdout, _ = raw
    text = stdout.decode("utf-8", "replace")
    return code, text, parse_cli(case.argv[0], text)


def cli_check(case, out) -> bool:
    code, _, value = out
    return code == case.exit_code and value == case.expected


# ---------------------------------------------------------------------------
# registry

def same_data_next_pass(T, pool, k):
    return pool


def _lift_candidates(case, out):
    return out[2] + 1


def _cli_candidates(case, out):
    return 0 if case.multiplier is None else case.multiplier + 1


@dataclass(frozen=True)
class Workload:
    setup: Callable
    inputs: Callable
    run: Callable
    canonical: Callable
    check: Callable
    digest_ops: int  # the digest covers this many first ops of a run
    next_pass: Callable = same_data_next_pass
    # C + 1 for each regular_lift call an op makes (C: its seed multiplier)
    regular_candidates: Callable | None = None

    def pool(self, T, rng) -> list:
        """One pass of inputs in a seeded order; every pass repeats it."""
        cases = list(self.inputs(T, self.setup(T), rng))
        rng.shuffle(cases)
        return cases


WORKLOADS = {
    "lift": Workload(lift_setup, lift_inputs, lift_run, lift_canonical,
                     lift_check, 400, regular_candidates=_lift_candidates),
    "exactness": Workload(lift_setup, exactness_inputs, exactness_run,
                          exactness_canonical, exactness_check, 156),
    "irreducible": Workload(irreducible_setup, irreducible_inputs,
                            irreducible_run, irreducible_canonical,
                            irreducible_check, 400, irreducible_next_pass),
    "cli": Workload(lift_setup, cli_inputs, cli_run, cli_canonical,
                    cli_check, 14, regular_candidates=_cli_candidates),
}
