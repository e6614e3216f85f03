"""scripts/layer_bench.py: the explore-small pass it times keeps its step
structure, the leaf pass reports every figure and ratio, the rebalance
pass times every action it names, the large history is the one its
docstring names, and the oracle pass replays read-k32's stream."""

import importlib.util
import os

SCRIPT = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "scripts", "layer_bench.py")


def _bench():
    spec = importlib.util.spec_from_file_location("layer_bench", SCRIPT)
    bench = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench)
    return bench


def test_explorer_pass_is_pinned():
    bench = _bench()
    figures, steps, schedules = bench.explore_figures(bench.calibrated())
    assert schedules == 15_360
    assert steps == 1_664_189  # 108.3456 clock steps per schedule
    assert set(figures) == set(bench.EXPLORE_FIGURES)
    for name, (calibrated, raw) in figures.items():
        assert calibrated > 0 and raw > 0, name


def test_leaf_pass_reports_ratios_to_scan():
    bench = _bench()
    figures, ratios = bench.leaf_figures(bench.calibrated())
    assert set(figures) == set(bench.LEAF_FIGURES)
    for name, (calibrated, raw) in figures.items():
        assert calibrated > 0 and raw > 0, name
    assert set(ratios) == set(bench.RATIOS)
    for name, ratio in ratios.items():
        assert ratio > 0, name


def test_large_history_is_churn_k4s_round_robin():
    bench = _bench()
    records = bench.churn_history()
    assert len(records) == 5000
    assert {r.tid for r in records} == {0, 1}
    figures = bench.history_figures(bench.calibrated())
    assert set(figures) == set(bench.HISTORY_FIGURES)
    for name, (calibrated, raw) in figures.items():
        assert calibrated > 0 and raw > 0, name


def test_oracle_pass_replays_read_k32s_stream():
    bench = _bench()
    figures = bench.oracle_figures(bench.calibrated())
    assert set(figures) == set(bench.ORACLE_FIGURES)
    for name, (calibrated, raw) in figures.items():
        assert calibrated > 0 and raw > 0, name


def test_rebalance_pass_times_every_action():
    bench = _bench()
    figures = bench.rebalance_figures(bench.calibrated())
    assert set(figures) == set(bench.REBALANCE_FIGURES) == {
        "leaf_split_us", "leaf_redistribute_us", "leaf_split32_us"}
    for name, (calibrated, raw) in figures.items():
        assert calibrated > 0 and raw > 0, name
