"""Tests of the benchmark itself, at tiny sizes.

    python -m pytest bench

They check that every metric named in BENCHMARK.json is emitted with its
unit, that the program's outputs pass the benchmark's checks, that a
corrupted output is counted as a failure, that one seed gives one digest,
and that the benchmark refuses to run without the program's sources.
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import client
import workloads as W

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAMES = [w["name"] for w in SPEC["workloads"]]


def _run_bench(cwd, workload, trace, seconds=1, seed=7):
    return subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=170)


def test_spec_names_the_workloads_the_benchmark_has():
    assert sorted(NAMES) == sorted(W.WORKLOADS)


@pytest.mark.parametrize("trace", (0, 1))
@pytest.mark.parametrize("workload", NAMES)
def test_every_metric_is_emitted_with_its_unit(workload, trace):
    proc = _run_bench(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    wanted = SPEC["per_layer" if trace else "end_to_end"]
    assert {m["name"] for m in wanted} == set(result["metrics"])
    for m in wanted:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float))
    # failed_frac is 0 on the program as it is
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    if trace:
        assert metrics["bench.layers_self_s"] <= metrics["bench.traced_wall_s"]
    else:
        assert metrics["ok_frac"] == 1.0
        assert all(metrics[m["name"]] > 0 for m in wanted)


def _bump(value):
    """The value with its first integer moved by one, or a flipped bool."""
    if isinstance(value, bool):
        return not value
    if isinstance(value, int):
        return value + 1
    if isinstance(value, tuple) and value:
        return (_bump(value[0]),) + value[1:]
    raise AssertionError(f"nothing to bump in {value!r}")


def _corrupt(case, out):
    if isinstance(case, W.PairCase) and isinstance(out[2], int):
        # lift: one slot of the regularized lift bumped by 1.  With N = 1
        # and w = 1 any regular cocharacter is a lift, so bump the
        # multiplier's sign instead there.
        base, reg, multiplier = out
        if case.n == 1:
            return base, reg, -1 - multiplier
        return base, _bump(reg), multiplier
    if isinstance(case, W.CliCase):
        code, text, value = out
        return code, text, _bump(value)
    return (_bump(out[0]),) + out[1:]


@pytest.mark.parametrize("workload,ops", [
    ("lift", 300), ("exactness", 156), ("irreducible", 60), ("cli", 7)])
def test_checks_pass_and_corrupted_outputs_fail(workload, ops):
    clean = client.closed_loop(workload, 3, None, ops, trace=False)
    assert clean["ops"] == ops and clean["failed"] == 0, clean["failures"]
    bad = client.closed_loop(workload, 3, None, ops, trace=False,
                             mutate=_corrupt)
    assert bad["ops"] == ops and bad["failed"] == ops


@pytest.mark.parametrize("workload", NAMES)
def test_one_seed_gives_one_digest(workload):
    ops = W.WORKLOADS[workload].digest_ops
    first = client.closed_loop(workload, 5, None, ops, trace=False)
    again = client.closed_loop(workload, 5, None, ops, trace=False)
    other = client.closed_loop(workload, 6, None, ops, trace=False)
    assert first["digest_ops"] == ops
    assert first["digest"] == again["digest"]
    assert first["digest"] != other["digest"]


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("results", "__pycache__"))
    proc = _run_bench(tmp_path, "lift", 0)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
