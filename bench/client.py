"""The closed-loop client: one process, one thread, one call at a time into
the public functions of `tamelift`.  `run.py` starts it; it is not meant to
be run by hand.

  client.py setup --workload W [--trace]
      time `import tamelift` and the workload's set-up in this fresh process
  client.py run --workload W --seed N (--seconds S | --ops K) [--trace]
      generate the inputs, then time ops until S seconds of op time have
      passed (and the digest prefix is complete), or exactly K ops

Either mode prints one JSON object on its last stdout line.
"""
from __future__ import annotations

import argparse
import functools
import hashlib
import json
import random
import resource
import statistics
import sys
import time
from array import array
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(1, str(BENCH_DIR.parent / "src"))

import tracer as tracing  # noqa: E402
import workloads as W  # noqa: E402
from cli_child import CHILD_MARKER  # noqa: E402

MAX_FAILURE_NOTES = 5
MIN_PASSES = 4


def setup_probe(workload: str, trace: bool) -> dict:
    t0 = time.perf_counter()
    import tamelift as T
    t1 = time.perf_counter()
    tr = None
    if trace:
        tr = tracing.Tracer()
        tr.install()
    t2 = time.perf_counter()
    W.WORKLOADS[workload].setup(T)
    t3 = time.perf_counter()
    out = {"import_s": t1 - t0, "setup_s": (t1 - t0) + (t3 - t2),
           "ready_s": t3 - t2}
    if tr is not None:
        tr.uninstall()
        out["layers"] = tr.summary()
    return out


def closed_loop(workload: str, seed: int, seconds: float | None,
                ops_wanted: int | None, trace: bool, spans_path=None,
                max_seconds: float = 120.0, mutate=None) -> dict:
    """Run one workload and return its measurements.

    The ops come in passes: each pass is the same inputs in the same seeded
    order.  A timed run stops at the first pass boundary after
    `seconds` of op time (and at least MIN_PASSES passes and the digest
    prefix); a counted run stops after exactly `ops_wanted` ops.  Only the
    op itself is timed; the benchmark's checks and digest run between ops.
    `mutate(case, out)` corrupts each canonical output before it is checked;
    tests use it to prove that the checks can fail.
    """
    import tamelift as T

    wl = W.WORKLOADS[workload]
    rng = random.Random(seed)
    pool = wl.pool(T, rng)
    run = wl.run
    tr = None
    child_layers, child_records = [], []
    import_s, main_s = [], []
    if trace and workload == "cli":
        run = functools.partial(W.cli_run, traced=True)
    elif trace:
        tr = tracing.Tracer()
        tr.install()

    rusage_of = (resource.RUSAGE_CHILDREN if workload == "cli"
                 else resource.RUSAGE_SELF)
    digest = hashlib.sha256()
    ops = failed = candidates = 0
    busy = 0.0
    first_pass_rss_mb = None
    passes: list[tuple[float, array]] = []  # (op time, latencies) per pass
    notes: list[str] = []
    while True:
        if ops_wanted is None:
            if (busy >= seconds and len(passes) >= MIN_PASSES
                    and ops >= wl.digest_ops):
                break
        elif ops >= ops_wanted or busy >= max_seconds:
            break
        if tr is not None:
            tr.enabled = False
        cases = wl.next_pass(T, pool, len(passes))
        if tr is not None:
            tr.enabled = True
        latencies = array("d")
        for case in cases:
            if ops_wanted is not None and ops >= ops_wanted:
                break
            if tr is not None:
                tr.op = ops
            error = None
            t0 = time.perf_counter()
            try:
                raw = run(T, case)
            except Exception as exc:  # a failed op is counted, not fatal
                error = exc
            t1 = time.perf_counter()
            latencies.append(t1 - t0)
            ok = False
            if error is None:
                try:
                    out = wl.canonical(case, raw)
                    if trace and workload == "cli":
                        child = _child_report(raw[2])
                        child_layers.append(child["layers"])
                        child_records.append(dict(child["trace"], op=ops))
                        import_s.append(child["import_s"])
                        main_s.append(child["main_s"])
                    if mutate is not None:
                        out = mutate(case, out)
                    ok = wl.check(case, out)
                    if wl.regular_candidates is not None:
                        candidates += wl.regular_candidates(case, out)
                except Exception as exc:  # malformed output is a failed op
                    error = exc
            if error is not None:
                out = ("error", type(error).__name__, str(error))
            if ops < wl.digest_ops:
                digest.update(repr(out).encode("utf-8"))
                digest.update(b"\n")
            ops += 1
            if not ok:
                failed += 1
                if len(notes) < MAX_FAILURE_NOTES:
                    notes.append(f"op {ops - 1}: {case!r:.200} -> {out!r:.300}")
        pass_busy = sum(latencies)
        busy += pass_busy
        passes.append((pass_busy, latencies))
        if first_pass_rss_mb is None:
            first_pass_rss_mb = resource.getrusage(rusage_of).ru_maxrss / 1024

    if tr is not None:
        tr.uninstall()
    result = {
        "ops": ops,
        "failed": failed,
        "busy_s": busy,
        "passes": len(passes),
        "pass_seconds": [b for b, _ in passes],
        "peak_rss_mb": first_pass_rss_mb,
        "end_rss_mb": resource.getrusage(rusage_of).ru_maxrss / 1024,
        "digest": digest.hexdigest(),
        "digest_ops": min(ops, wl.digest_ops),
        "failures": notes,
        "regular_lift_candidates": candidates,
        "all_passes": _timing(passes),
    }
    if ops_wanted is None:
        result["best_per_input"] = _best_per_input(passes)
    if trace:
        if tr is not None:
            result["layers"] = tr.summary()
            records = [tr.to_dict()]
        else:
            result["layers"] = tracing.merge_summaries(child_layers)
            result["import_s"] = import_s
            result["main_s"] = main_s
            records = child_records
        if spans_path is not None:
            tracing.dump(spans_path, records)
    return result


def _timing(passes) -> dict:
    """Throughput and latency percentiles over every op of some passes."""
    return _summary([x for _, lat in passes for x in lat],
                    sum(b for b, _ in passes))


def _best_per_input(passes) -> dict:
    """Every pass runs the same inputs in the same order, so op i of each
    pass does the same work; its fastest time over the passes is the least
    disturbed by other load on the machine.  Throughput and percentiles
    over those per-input minima."""
    best = [min(column) for column in zip(*(lat for _, lat in passes))]
    return dict(_summary(best, sum(best)), repeats=len(passes))


def _summary(latencies, busy) -> dict:
    cuts = statistics.quantiles(latencies * (2 if len(latencies) < 2 else 1),
                                n=10, method="inclusive")
    return {"throughput_ops_s": len(latencies) / busy,
            "latency_p50_ms": cuts[4] * 1e3,
            "latency_p90_ms": cuts[8] * 1e3,
            "samples": len(latencies)}


def _child_report(stderr: bytes) -> dict:
    for line in reversed(stderr.decode("utf-8", "replace").splitlines()):
        if line.startswith(CHILD_MARKER):
            return json.loads(line[len(CHILD_MARKER):])
    raise RuntimeError("traced CLI child printed no report")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mode", choices=("setup", "run"))
    parser.add_argument("--workload", required=True,
                        choices=sorted(W.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--ops", type=int)
    parser.add_argument("--max-seconds", type=float, default=120.0)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--spans", help="where a traced run writes its spans")
    args = parser.parse_args(argv)
    if args.mode == "setup":
        out = setup_probe(args.workload, args.trace)
    else:
        if (args.seconds is None) == (args.ops is None):
            parser.error("run needs exactly one of --seconds / --ops")
        out = closed_loop(args.workload, args.seed, args.seconds, args.ops,
                          args.trace, args.spans, args.max_seconds)
    print(json.dumps(out, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
