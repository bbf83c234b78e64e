"""Span tracing installed from the benchmark's own files.

The tracer replaces public functions of `tamelift` with wrappers that record
one span (name, start, end, parent, op) per call.  The modules bind each
other's functions with `from .x import y`, so a wrapper is installed in every
`tamelift` module namespace that holds the original object, not only in the
defining module.  The hot leaves `root_datum.pair` and `lattice.mat_mul` are
called hundreds of times per op, so they only count calls.

Spans stay in memory until `dump` writes them out; `summary` turns them into
per-name call counts and self times (span time minus the time covered by its
direct child spans).
"""
from __future__ import annotations

import functools
import gzip
import json
import sys
import time

# (module, function) pairs wrapped with spans.  Names that a later version of
# the program no longer has are skipped and report zero.
SPANNED = (
    ("lattice", "smith_normal_form"),
    ("lattice", "solve_mod"),
    ("lattice", "rational_solve"),
    ("lattice", "rational_inverse"),
    ("lattice", "integer_kernel_basis"),
    ("root_datum", "build_root_datum"),
    ("root_datum", "weyl_group_elements"),
    ("root_datum", "is_regular_cochar"),
    ("root_datum", "root_permutation"),
    ("root_datum", "weyl_fixed_space"),
    ("root_datum", "central_cochar_space"),
    ("dynamic", "parabolic_of"),
    ("dynamic", "normalizer_element_in_parabolic"),
    ("tame_reps", "validate_pair"),
    ("tame_reps", "inertia_centralizer_roots"),
    ("tame_reps", "is_G_irreducible"),
    ("tame_reps", "brute_force_parabolic_oracle"),
    ("crystalline_lift", "averaged_scale_matrix"),
    ("crystalline_lift", "xi_operator"),
    ("crystalline_lift", "kernel_membership"),
    ("crystalline_lift", "reduction"),
    ("crystalline_lift", "lift_inertia"),
    ("crystalline_lift", "simple_trick_check"),
    ("hodge_tate", "canonical_regular_cochar"),
    ("hodge_tate", "regular_lift"),
)

# hot leaves: call counts only, no span
COUNTED = (
    ("root_datum", "pair"),
    ("lattice", "mat_mul"),
)

# simple_trick_check spans are named after the method that ran, so that the
# exhaustive and Smith-form paths get separate self times
_METHOD_SPLIT = "crystalline_lift.simple_trick_check"


def _method_of(args, kwargs) -> str:
    if "method" in kwargs:
        return kwargs["method"]
    return args[4] if len(args) > 4 else "auto"


class Tracer:
    """Holds the spans and counters of one process."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.spans: list[list[int]] = []  # [name, start_ns, end_ns, parent, op]
        self.counts: dict[str, int] = {}
        self.op = -1
        self.enabled = True  # off while the benchmark prepares untimed work
        self._stack: list[int] = []
        self._installed: list[tuple[object, str, object]] = []

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _spanned(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns
        fixed_id = None if name == _METHOD_SPLIT else self._name_id(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            if fixed_id is None:
                name_id = self._name_id(f"{name}.{_method_of(args, kwargs)}")
            else:
                name_id = fixed_id
            span = [name_id, 0, 0, stack[-1] if stack else -1, self.op]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()

        return wrapper

    def _counted(self, name: str, fn):
        counts = self.counts
        counts[name] = 0

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self.enabled:
                counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def install(self) -> None:
        """Wrap every traced function in every loaded `tamelift` module that
        binds it."""
        namespaces = [m for key, m in list(sys.modules.items())
                      if m is not None and (key == "tamelift"
                                            or key.startswith("tamelift."))]
        for table, make in ((SPANNED, self._spanned),
                            (COUNTED, self._counted)):
            for module, fname in table:
                home = sys.modules.get(f"tamelift.{module}")
                original = getattr(home, fname, None)
                if original is None:
                    continue
                wrapper = make(f"{module}.{fname}", original)
                for ns in namespaces:
                    for attr, value in list(vars(ns).items()):
                        if value is original:
                            setattr(ns, attr, wrapper)
                            self._installed.append((ns, attr, original))

    def uninstall(self) -> None:
        for ns, attr, original in reversed(self._installed):
            setattr(ns, attr, original)
        self._installed.clear()

    def summary(self) -> dict[str, dict[str, float]]:
        """Per name: calls and self seconds; counted leaves get calls only."""
        child_ns = [0] * len(self.spans)
        for name_id, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        out: dict[str, dict[str, float]] = {}
        for (name_id, start, end, _, _), covered in zip(self.spans, child_ns):
            entry = out.setdefault(self.names[name_id],
                                   {"calls": 0, "self_s": 0.0})
            entry["calls"] += 1
            entry["self_s"] += (end - start - covered) / 1e9
        for name, calls in self.counts.items():
            out[name] = {"calls": calls}
        return out

    def to_dict(self) -> dict:
        """Names, spans (as SPAN_FIELDS lists) and counts."""
        return {"names": self.names, "spans": self.spans,
                "counts": self.counts}


SPAN_FIELDS = ("name", "start_ns", "end_ns", "parent", "op")


def dump(path, records) -> None:
    """Write the spans of one or more processes as gzipped JSON."""
    with gzip.open(path, "wt", encoding="utf-8") as fh:
        json.dump({"span_fields": SPAN_FIELDS, "processes": records}, fh)


def merge_summaries(parts) -> dict[str, dict[str, float]]:
    """Add per-name calls and self seconds over several summaries."""
    out: dict[str, dict[str, float]] = {}
    for part in parts:
        for name, entry in part.items():
            total = out.setdefault(name, {})
            for key, value in entry.items():
                total[key] = total.get(key, 0) + value
    return out
