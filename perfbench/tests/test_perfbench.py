"""Tests of the benchmark itself, at tiny sizes.

    python3 -m pytest perfbench/tests -q
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [os.path.join(ROOT, "src"), BENCH]

import run  # noqa: E402
import workloads as wl  # noqa: E402
from lftree import LeafTree  # noqa: E402
from lftree.cells import Cell  # noqa: E402
from tracer import Tracer  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
    SPEC = json.load(f)

TINY_PAIRS = wl.explore_pairs()[:2]

UNTRACED = {
    "read-k32": lambda seed: wl.read_k32(seed, 0.2, key_range=1024,
                                         setup_reps=1),
    "churn-k4": lambda seed: wl.churn_k4(seed, 0.2, ops_per_thread=200,
                                         setup_reps=1),
    "explore-small": lambda seed: wl.explore_small(seed, 0.1,
                                                   pairs=TINY_PAIRS,
                                                   setup_reps=1),
}
TRACED = {
    "read-k32": lambda seed: wl.read_k32_traced(seed, 0.2, key_range=1024),
    "churn-k4": lambda seed: wl.churn_k4_traced(seed, 0.2, ops_per_thread=200),
    "explore-small": lambda seed: wl.explore_small_traced(seed, 1,
                                                          pairs=TINY_PAIRS),
}


def test_spec_names_match_the_code():
    assert [w["name"] for w in SPEC["workloads"]] == list(UNTRACED)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} \
        == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} \
        == wl.LAYER_UNITS


@pytest.mark.parametrize("workload", list(UNTRACED))
def test_end_to_end_smoke(workload):
    res = UNTRACED[workload](1)
    assert res.failed == 0, res.problems
    assert res.attempted > 0
    assert set(res.metrics) == set(run.END_TO_END_UNITS) | set(run.LATENCY)
    for name, value in res.metrics.items():
        assert value > 0, name


@pytest.mark.parametrize("workload", list(TRACED))
def test_traced_smoke(workload):
    res = TRACED[workload](1)
    assert res.failed == 0, res.problems
    assert set(res.metrics) == set(wl.LAYER_UNITS)
    assert res.metrics["trace.overhead_ratio"] > 0
    assert Cell.load.__qualname__ == "Cell.load"   # patches are undone


def test_single_thread_counts_repeat():
    a, b = TRACED["read-k32"](3), TRACED["read-k32"](3)
    assert a.metrics["cells.load_per_op"] == b.metrics["cells.load_per_op"]
    a, b = TRACED["explore-small"](3), TRACED["explore-small"](3)
    for name in ("sim.schedules", "sim.steps_per_schedule"):
        assert a.metrics[name] == b.metrics[name]
    assert a.metrics["sim.schedules"] == len(TINY_PAIRS) * wl.SCHEDULES_PER_PAIR


def test_wrong_search_result_raises_error_rate(monkeypatch):
    search = LeafTree.search

    def wrong(self, e1, e2=None):
        # a hit answers one past the range, which no check can accept
        found = search(self, e1, e2)
        return (e1 if e2 is None else e2) + 1 if found else 0
    monkeypatch.setattr(LeafTree, "search", wrong)
    for workload in ("read-k32", "churn-k4"):
        res = UNTRACED[workload](1)
        assert res.failed > 0, workload


def test_missing_entry_point_is_absent():
    tr = Tracer()
    tr._patch("ghost", "cells", ("NoSuchCell", "load"), tr._timed("x"))
    tr._patch("ghost-module", "no_such_module", ("f",), tr._timed("y"))
    assert tr.absent == {"ghost", "ghost-module"}
    tr.uninstall()


def test_exits_nonzero_without_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", "read-k32",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
