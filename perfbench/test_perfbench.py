"""Tests of the benchmark itself: python3 -m pytest perfbench

The smoke test runs shrunken copies of the workloads; the bypass and
determinism tests run the real workloads for one request per slot.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from dataclasses import replace

import pytest

import checks
import run
import tracing
import workloads

SEED = 5

TINY = {
    "solve-exact": (
        workloads.Slot("fast", 3, 6, edits=1),
        workloads.Slot("betweenness", 4, 6, edits=1),
    ),
    "kernelize-fast": (
        workloads.Slot("fast", 3, 14, edits=3, k=1),
        workloads.Slot("fast", 2, 16, edits=3, k=1),
    ),
    "kernelize-localsearch": (
        workloads.Slot("betweenness", 3, 9, edits=2, k=1, provider="localsearch"),
        workloads.Slot("tfast", 3, 9, edits=2, k=1, provider="localsearch"),
    ),
    "approx-large": (
        workloads.Slot("fast", 3, 10, edits=2),
        workloads.Slot("fast", 2, 20, mode="uniform"),
    ),
}


@pytest.fixture
def tiny_workloads(monkeypatch):
    shrunk = {
        name: replace(w, slots=TINY[name], copies=2) for name, w in workloads.WORKLOADS.items()
    }
    monkeypatch.setattr(workloads, "WORKLOADS", shrunk)
    return shrunk


def one_pass(name: str) -> dict:
    """The real workload traced, one request per slot."""
    limit = len(workloads.WORKLOADS[name].slots)
    return run.run_workload(name, SEED, seconds=0, trace=True, limit=limit)


@pytest.fixture(scope="module")
def traced():
    """one_pass results, computed once per workload for the module."""
    cache = {}

    def get(name):
        if name not in cache:
            cache[name] = one_pass(name)
        return cache[name]

    return get


def spans_of(result: dict) -> list[list]:
    return [s for s in result["report"]["spans"] if s[4] >= 0]


def test_benchmark_json_names_every_metric_with_its_unit():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} == set(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.E2E_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == tracing.UNITS


@pytest.mark.parametrize("name", list(TINY))
def test_tiny_smoke_emits_every_metric(tiny_workloads, name):
    for trace, units in ((False, run.E2E_UNITS), (True, tracing.UNITS)):
        result = run.run_workload(name, SEED, seconds=0, trace=trace, limit=4)
        assert result["correct"] and result["failed"] == 0, result["report"]["problems"]
        assert result["attempted"] == (8 if trace else 4)
        assert {k: m["unit"] for k, m in result["metrics"].items()} == units
        assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())
        if trace:
            assert result["report"]["missing_trace_targets"] == []


@pytest.mark.parametrize("name", ["kernelize-fast", "kernelize-localsearch", "approx-large"])
def test_oracle_is_bypassed_outside_solve(traced, name):
    """Outside solve-exact the oracle only re-checks the canonical
    trivial-verdict instance, on r + 1 vertices at most."""
    result = traced(name)
    spans = result["report"]["spans"]
    r_max = max(slot.r for slot in workloads.WORKLOADS[name].slots)
    for span in spans_of(result):
        if span[0].startswith("oracle."):
            assert spans[span[3]][0] == "kernel.trivial_instance"
            assert span[5] is None or span[5]["n"] <= r_max + 1
    if name == "approx-large":
        assert result["metrics"]["oracle.calls"]["value"] == 0


@pytest.mark.parametrize("name", ["solve-exact", "approx-large"])
def test_no_kernel_calls_on_solve_and_approx(traced, name):
    result = traced(name)
    assert not [s for s in spans_of(result) if s[0].startswith("kernel.")]
    if name == "solve-exact":
        assert result["metrics"]["oracle.calls"]["value"] == 1.0


@pytest.mark.parametrize("name", ["kernelize-fast", "kernelize-localsearch"])
def test_traced_counts_repeat_at_one_seed(traced, name):
    keys = [k for k in tracing.UNITS if k.startswith("kernel.rule.")] + ["model.constraints_built"]
    first, second = traced(name)["metrics"], one_pass(name)["metrics"]
    assert [first[k]["value"] for k in keys] == [second[k]["value"] for k in keys]
    assert first["model.constraints_built"]["value"] > 0


def test_missing_trace_target_is_reported(monkeypatch):
    run.import_program()
    kernel = sys.modules["denserank.kernel"]
    monkeypatch.delattr(kernel, "_find_conflict_packing")
    assert tracing.Tracer().missing == ["denserank.kernel._find_conflict_packing"]


def test_checks_reject_wrong_outputs():
    text = "rcsp 1 fast 3 2\n0 1 1\n0 2 0\n1 2 2\n"  # 0 < 1, 2 < 0, 1 < 2: a cycle
    inst = checks.read_rcsp(text)
    assert checks.count_faults(inst, [0, 1, 2]) == 1
    assert checks.check_solve(inst, 1, "opt=1\nwitness=0 1 2\n") == []
    assert checks.check_solve(inst, 1, "opt=0\nwitness=0 1 2\n")
    assert checks.check_solve(inst, 1, "opt=1\nwitness=0 1 1\n")
    assert checks.check_approx(inst, "ranking=0 1 2\nfaults=1\n") == []
    assert checks.check_approx(inst, "ranking=1 0 2\nfaults=2\n")
    no = "verdict=trivial-no\np0=1\nrules: edits=0 drops=0\nkernel: n=3 k=0\n"
    assert checks.check_kernelize("fast", 3, 2, 0, no, text) == []
    assert checks.check_kernelize("fast", 3, 2, 0, no, text.replace("1 2 2", "1 2 1"))
    assert checks.check_kernelize("fast", 3, 2, 0, no, text.replace("0 2 0\n", ""))


def test_exits_nonzero_without_the_program():
    bare = run.STATE / "bare-checkout"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(run.ROOT / "perfbench", bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    try:
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "solve-exact",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=120,
        )
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0
    assert proc.stdout == ""
