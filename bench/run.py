"""The tamelift benchmark.  Run from the repository root:

    python3 bench/run.py --workload lift --seed 1 --seconds 20 --trace 0

`--trace 0` prints the end-to-end metrics, `--trace 1` the per-layer ones.
Set-up is timed in fresh processes; the ops are timed by one closed-loop
client process (see client.py).  The last stdout line is one JSON object
with the keys correct, attempted, failed and metrics; the line before it is
the run's record (environment, digest, sample counts), which is also
written to bench/results/.  See bench/README.md for what each workload and
metric is for.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time

import tracer as tracing
import workloads as W

RESULTS_DIR = W.BENCH_DIR / "results"
SETUP_PROBES = 8
TRACED_SETUP_PROBES = 3
RUN_DEADLINE_S = 170.0  # every run must end within 180 s

# Untraced ops per second of each workload on a 2-core x86-64 VM under
# Python 3.11.  A traced run times a fixed number of ops, sized from this so
# that the untraced and the traced pass over them each take about a quarter
# of --seconds; the count, not the time, is fixed, so the layer counts of
# two runs with one seed are equal.
NOMINAL_OPS_S = {"lift": 1200, "exactness": 450, "irreducible": 250, "cli": 6}

END_TO_END = {
    "throughput_ops_s": "ops/s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "ok_frac": "ratio",
}

# traced function -> which of its totals are layer metrics
LAYER_FUNCTIONS = {
    "root_datum.pair": ("calls",),
    "root_datum.is_regular_cochar": ("calls", "self_s"),
    "hodge_tate.regular_lift": ("calls", "self_s"),
    "hodge_tate.canonical_regular_cochar": ("calls", "self_s"),
    "crystalline_lift.xi_operator": ("calls", "self_s"),
    "crystalline_lift.lift_inertia": ("calls", "self_s"),
    "crystalline_lift.averaged_scale_matrix": ("calls", "self_s"),
    "crystalline_lift.kernel_membership": ("calls",),
    "crystalline_lift.reduction": ("calls",),
    "lattice.smith_normal_form": ("calls", "self_s"),
    "lattice.solve_mod": ("calls", "self_s"),
    "lattice.mat_mul": ("calls",),
    "lattice.rational_solve": ("calls",),
    "lattice.rational_inverse": ("calls",),
    "lattice.integer_kernel_basis": ("calls",),
    "crystalline_lift.simple_trick_check": ("calls",),
    "crystalline_lift.simple_trick_check.exhaustive": ("self_s",),
    "crystalline_lift.simple_trick_check.snf": ("self_s",),
    "tame_reps.brute_force_parabolic_oracle": ("calls", "self_s"),
    "tame_reps.is_G_irreducible": ("calls", "self_s"),
    "tame_reps.inertia_centralizer_roots": ("calls", "self_s"),
    "tame_reps.validate_pair": ("calls",),
    "dynamic.parabolic_of": ("calls", "self_s"),
    "dynamic.normalizer_element_in_parabolic": ("calls", "self_s"),
    "root_datum.root_permutation": ("calls", "self_s"),
    "root_datum.weyl_fixed_space": ("calls",),
    "root_datum.central_cochar_space": ("calls",),
    "root_datum.build_root_datum": ("self_s",),
    "root_datum.weyl_group_elements": ("self_s",),
}
LAYER_UNITS = {"calls": "count", "self_s": "s"}
LAYER_EXTRA = {
    "hodge_tate.regular_lift.candidates": "count",
    "hodge_tate.regular_lift.useful_ratio": "ratio",
    "cli.import_s": "s",
    "cli.main_s": "s",
    "bench.traced_ops": "count",
    "bench.untraced_throughput_ops_s": "ops/s",
    "bench.traced_throughput_ops_s": "ops/s",
    "bench.trace_overhead_frac": "ratio",
    "bench.traced_wall_s": "s",
    "bench.layers_self_s": "s",
}


def layer_metric_units() -> dict[str, str]:
    units = {f"{fn}.{kind}": LAYER_UNITS[kind]
             for fn, kinds in LAYER_FUNCTIONS.items() for kind in kinds}
    units.update(LAYER_EXTRA)
    return units


class BenchError(Exception):
    """The run could not be completed; no result is printed."""


def run_client(args, deadline: float) -> dict:
    """Run client.py to completion in its own process group and return its
    JSON line.  On timeout the whole group, CLI children included, is
    killed and reaped."""
    remaining = deadline - time.monotonic()
    if remaining <= 1:
        raise BenchError("out of time before " + " ".join(args))
    cmd = [sys.executable, str(W.BENCH_DIR / "client.py"), *args]
    proc = subprocess.Popen(cmd, cwd=W.ROOT, env=W.child_env(),
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True, start_new_session=True)
    try:
        stdout, stderr = proc.communicate(timeout=remaining)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise BenchError("timed out: " + " ".join(args)) from None
    if proc.returncode != 0 or not stdout.strip():
        raise BenchError(f"{' '.join(args)} exited {proc.returncode}:\n"
                         f"{stderr[-2000:]}")
    return json.loads(stdout.strip().splitlines()[-1])


def git_revision() -> str | None:
    """HEAD of the checkout, read from .git without running git."""
    git = W.ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def median_probe(probes, key):
    return sorted(probes, key=lambda p: p[key])[len(probes) // 2]


def setup_probes(workload, deadline, count, trace=False) -> list[dict]:
    args = ["setup", "--workload", workload] + (["--trace"] if trace else [])
    return [run_client(args, deadline) for _ in range(count)]


def untraced(args, deadline) -> tuple[dict, dict, dict]:
    setup_probes(args.workload, deadline, 1)  # writes the .pyc files
    # half the set-up probes before the ops and half after, so that a slow
    # spell of the machine does not cover all of them
    probes = setup_probes(args.workload, deadline, SETUP_PROBES // 2)
    res = run_client(["run", "--workload", args.workload,
                      "--seed", str(args.seed),
                      "--seconds", str(args.seconds)], deadline)
    probes += setup_probes(args.workload, deadline,
                           SETUP_PROBES - SETUP_PROBES // 2)
    best = res["best_per_input"]
    values = {
        "throughput_ops_s": best["throughput_ops_s"],
        "latency_p50_ms": best["latency_p50_ms"],
        "latency_p90_ms": best["latency_p90_ms"],
        "setup_s": statistics.median(p["setup_s"] for p in probes),
        "peak_rss_mb": res["peak_rss_mb"],
        "ok_frac": (res["ops"] - res["failed"]) / res["ops"],
    }
    metrics = {k: {"value": values[k], "unit": u}
               for k, u in END_TO_END.items()}
    record = {"setup_probes_s": [p["setup_s"] for p in probes],
              "import_probes_s": [p["import_s"] for p in probes],
              "percentile_samples": best["samples"],
              "best_per_input": best, "all_passes": res["all_passes"],
              "passes": res["passes"], "pass_seconds": res["pass_seconds"],
              "end_rss_mb": res["end_rss_mb"]}
    return res, metrics, record


def traced(args, deadline) -> tuple[dict, dict, dict]:
    setup_probes(args.workload, deadline, 1)  # writes the .pyc files
    probes = setup_probes(args.workload, deadline, TRACED_SETUP_PROBES,
                          trace=True)
    ops = max(1, round(args.seconds * NOMINAL_OPS_S[args.workload] / 4))
    cap = str(max(1.0, (deadline - time.monotonic()) / 3))
    ref = run_client(["run", "--workload", args.workload,
                      "--seed", str(args.seed), "--ops", str(ops),
                      "--max-seconds", cap], deadline)
    RESULTS_DIR.mkdir(exist_ok=True)
    spans = RESULTS_DIR / f"{args.workload}-seed{args.seed}-spans.json.gz"
    res = run_client(["run", "--workload", args.workload,
                      "--seed", str(args.seed), "--ops", str(ref["ops"]),
                      "--trace", "--spans", str(spans)], deadline)
    if res["digest"] != ref["digest"]:
        res["failed"] += 1
        res["failures"].append("traced and untraced digests differ")

    probe = median_probe(probes, "ready_s")
    totals = tracing.merge_summaries([res["layers"], probe["layers"]])
    stc = "crystalline_lift.simple_trick_check"
    totals[stc] = {"calls": sum(e["calls"] for n, e in totals.items()
                                if n.startswith(stc + "."))}
    values = {}
    for fn, kinds in LAYER_FUNCTIONS.items():
        for kind in kinds:
            values[f"{fn}.{kind}"] = totals.get(fn, {}).get(kind, 0)
    candidates = res["regular_lift_candidates"]
    reg_calls = totals.get("hodge_tate.regular_lift", {}).get("calls", 0)
    if args.workload == "cli":
        import_s = statistics.median(res["import_s"])
        main_s = statistics.median(res["main_s"])
    else:
        import_s = statistics.median(p["import_s"] for p in probes)
        main_s = 0.0
    wall = res["busy_s"] + probe["ready_s"]
    untraced_tput = ref["all_passes"]["throughput_ops_s"]
    traced_tput = res["all_passes"]["throughput_ops_s"]
    values.update({
        "hodge_tate.regular_lift.candidates": candidates,
        "hodge_tate.regular_lift.useful_ratio":
            reg_calls / candidates if candidates else 0.0,
        "cli.import_s": import_s,
        "cli.main_s": main_s,
        "bench.traced_ops": res["ops"],
        "bench.untraced_throughput_ops_s": untraced_tput,
        "bench.traced_throughput_ops_s": traced_tput,
        "bench.trace_overhead_frac": 1 - traced_tput / untraced_tput,
        "bench.traced_wall_s": wall,
        "bench.layers_self_s": sum(e.get("self_s", 0.0)
                                   for e in totals.values()),
    })
    metrics = {k: {"value": values[k], "unit": u}
               for k, u in layer_metric_units().items()}
    record = {"spans_file": str(spans.relative_to(W.ROOT)),
              "untraced_digest": ref["digest"],
              "untraced_ops": ref["ops"], "untraced_failed": ref["failed"]}
    res["ops"] += ref["ops"]
    res["failed"] += ref["failed"]
    return res, metrics, record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(W.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (W.SRC / "tamelift" / "__init__.py").is_file():
        print(f"error: no tamelift sources under {W.SRC}", file=sys.stderr)
        return 2

    deadline = time.monotonic() + RUN_DEADLINE_S
    try:
        res, metrics, extra = (traced if args.trace else untraced)(
            args, deadline)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "git_revision": git_revision(),
        "ops": res["ops"],
        "failed": res["failed"],
        "failed_frac": res["failed"] / res["ops"],
        "digest": res["digest"],
        "digest_ops": res["digest_ops"],
        "failures": res["failures"],
        **extra,
    }
    RESULTS_DIR.mkdir(exist_ok=True)
    out = RESULTS_DIR / (f"{args.workload}-seed{args.seed}"
                         f"-trace{args.trace}.json")
    out.write_text(json.dumps({"record": record, "metrics": metrics},
                              indent=1, sort_keys=True) + "\n")
    print(json.dumps({"record": record}, sort_keys=True))
    print(json.dumps({"correct": res["failed"] == 0,
                      "attempted": res["ops"], "failed": res["failed"],
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
