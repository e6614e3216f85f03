"""Stress harness: config validation, workload generation, single and
multi thread runs, duration cycling, and the bench loop."""

import gc
import hashlib
import random
import sys
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference
from lftree import harness, sim
from lftree.harness import (
    RunConfig,
    make_ops,
    parse_mix,
    run_bench,
    run_stress,
)
from lftree.keyspace import EMPTY, MAX_KEY, RO_BIT
from lftree.nodes import TreeConfig
from lftree.tree import LeafTree, _op
from lftree.verify import INSERT, REMOVE, SEARCH, SetOracle, write_trace


def small(**kw):
    base = dict(order=5, leaf_capacity=8, min_size=3, threads=1,
                ops_per_thread=2000, key_range=64, seed=5)
    base.update(kw)
    return RunConfig(**base)


# --- configuration ------------------------------------------------------


@pytest.mark.parametrize("kw", [
    dict(threads=0),
    dict(ops_per_thread=0),
    dict(key_range=3),
    dict(key_range=MAX_KEY + 1),         # range ends past the largest key
    dict(mix=(1.0, 0.5)),
    dict(mix=(-1.0, 1.0, 1.0)),
    dict(mix=(0.0, 0.0, 0.0)),
    dict(mix=(float("nan"), 1.0, 1.0)),
    dict(mix=(float("inf"), 1.0, 1.0)),
    dict(duration=-1.0),
    dict(duration=float("nan")),
    dict(duration=float("inf")),
    dict(min_size=5, leaf_capacity=8),   # sparsity above half the leaf
    dict(order=1),
    # shape, count, range and seed fields are exactly `int`
    dict(threads=1.5),
    dict(threads=True),
    dict(ops_per_thread=100.0),
    dict(key_range="64"),
    dict(seed=5.0),
    dict(order=5.0),
    dict(leaf_capacity=8.5),
    dict(min_size=True),
    dict(order=4, min_size=3),           # K < 2S - 1: reshapes never settle
    # the mix is three numbers and the duration one
    dict(mix="abc"),
    dict(mix=("1", "2", "3")),
    dict(mix=None),
    dict(duration="1"),
    dict(duration=None),
    # ints past the float range
    dict(mix=(10 ** 400, 1, 1)),
    dict(duration=10 ** 400),
], ids=["threads", "ops", "range", "range-above-max-key", "mix-len",
        "mix-neg", "mix-zero", "mix-nan", "mix-inf", "duration",
        "duration-nan", "duration-inf", "min-size", "order", "threads-float",
        "threads-bool", "ops-float", "range-str", "seed-float", "order-float",
        "leaf-float", "min-size-bool", "order-below-2s-1", "mix-str",
        "mix-str-weights", "mix-none", "duration-str", "duration-none",
        "mix-huge-int", "duration-huge-int"])
def test_config_rejected_before_any_run(kw):
    field = next(iter(kw))
    with pytest.raises(ValueError, match=field.split("_")[0]):
        small(**kw)


@pytest.mark.parametrize("kw", [
    dict(order=3.5),
    dict(leaf_capacity=4.5, min_size=2),
    dict(order="32"),
    dict(min_size=True),
], ids=["order-float", "leaf-float", "order-str", "min-size-bool"])
def test_tree_config_fields_are_exactly_int(kw):
    field = next(iter(kw))
    with pytest.raises(ValueError, match=f"^{field} must be an int"):
        TreeConfig(**kw)


def test_parse_mix_normalizes():
    assert parse_mix("50:25:25") == (0.5, 0.25, 0.25)
    assert parse_mix("1:1:0") == (0.5, 0.5, 0.0)


@pytest.mark.parametrize("text", ["50:25", "a:b:c", "0:0:0", "-1:2:3",
                                  "nan:1:1", "inf:1:1", "1:-inf:inf"])
def test_parse_mix_rejects(text):
    with pytest.raises(ValueError):
        parse_mix(text)


def test_a_mix_summing_past_the_float_range_is_refused():
    # w / sum would read every weight as 0: a stream of removes only
    with pytest.raises(ValueError, match="sum to a finite number"):
        small(mix=(1e308, 1e308, 0.0))
    with pytest.raises(ValueError, match="sum to a finite number"):
        parse_mix("1e308:1e308:0")
    assert parse_mix("1e308:0:0") == (1.0, 0.0, 0.0)
    small(mix=(1e308, 0.0, 1e307))


# --- workload generation ------------------------------------------------


def test_make_ops_is_deterministic_and_per_thread():
    cfg = small(threads=4)
    assert make_ops(cfg, 2) == make_ops(cfg, 2)
    assert make_ops(cfg, 0) != make_ops(cfg, 1)
    assert len(make_ops(small(ops_per_thread=17), 0)) == 17


def test_make_ops_respects_bounds_and_mix():
    for mix, kind in [((1, 0, 0), SEARCH), ((0, 1, 0), INSERT),
                      ((0, 0, 1), REMOVE)]:
        ops = make_ops(small(mix=mix, ops_per_thread=500), 0)
        assert {k for k, _, _ in ops} == {kind}
        for k, e1, e2 in ops:
            assert 1 <= e1 <= e2 <= 64
            if k == INSERT:
                assert e1 == e2


# 4, 5, 2**k and 2**k +- 1 up to MAX_KEY = 2**63 - 1, and any range between
_KEY_RANGES = st.one_of(
    st.sampled_from([4, 5]),
    st.builds(lambda k, d: (1 << k) + d, st.integers(2, 63),
              st.sampled_from([-1, 0, 1])),
    st.integers(4, MAX_KEY)).filter(lambda n: 4 <= n <= MAX_KEY)
_WEIGHTS = st.one_of(st.sampled_from([0, 0.0, 1, 3]),
                     st.floats(0, 1e6, allow_subnormal=False))


@settings(max_examples=300, deadline=None)
@given(seed=st.integers(-2 ** 64, 2 ** 64), tid=st.integers(0, 64),
       key_range=_KEY_RANGES, ops=st.integers(1, 300),
       mix=st.tuples(_WEIGHTS, _WEIGHTS, _WEIGHTS).filter(
           lambda m: sum(m) > 0))
def test_make_ops_draws_the_randint_stream(seed, tid, key_range, ops, mix):
    cfg = small(seed=seed, key_range=key_range, ops_per_thread=ops, mix=mix)
    assert make_ops(cfg, tid) == reference.make_ops_by_randint(cfg, tid)


# --- stress runs --------------------------------------------------------


def test_single_thread_run_is_exact_and_logical():
    cfg = small()
    result = run_stress(cfg)
    assert result.ok, result.summary()
    assert len(result.records) == cfg.ops_per_thread

    oracle = SetOracle()
    for r in result.records:
        assert r.result == oracle.apply(r.kind, r.e1, r.e2), r
    assert result.snapshot == oracle.keys()
    # logical clock: op i occupies [2i, 2i+1]
    for i, r in enumerate(result.records):
        assert (r.t1, r.t2) == (2 * i, 2 * i + 1)


def test_single_thread_traces_are_byte_identical(tmp_path):
    paths = []
    for name in ("a.trace", "b.trace"):
        result = run_stress(small())
        path = tmp_path / name
        write_trace(path, result.records)
        paths.append(path)
    assert paths[0].read_bytes() == paths[1].read_bytes()


# sha256 over (op records, rebalance records, snapshot) of single-thread
# runs, which use the logical clock: a change to the write path that moves
# a result, a reshape or a read-back shows here. Taken before the insert
# probe, the CAS without `with` and the leaner plan records went in.
WRITE_PATH_DIGESTS = [
    (RunConfig(order=4, leaf_capacity=4, min_size=2, threads=1,
               ops_per_thread=20_000, key_range=4096, mix=(0.2, 0.4, 0.4),
               seed=5),
     "dd3703bfdc3ac811600b657b22bfd858fd79dde95d7982b34edb6fd9ba6dc7e6"),
    (RunConfig(order=32, leaf_capacity=32, min_size=8, threads=1,
               ops_per_thread=40_000, key_range=1 << 16,
               mix=(0.2, 0.5, 0.3), seed=6),
     "8873090d7644973a3ed46dc7bb29d720f955421e7d80afe97d6ee666be32a04f"),
]


@pytest.mark.parametrize("cfg, digest", WRITE_PATH_DIGESTS,
                         ids=["k4", "k32"])
def test_single_thread_write_path_is_pinned(cfg, digest):
    result = run_stress(cfg)
    assert result.ok, result.summary()
    blob = repr(([tuple(r) for r in result.records],
                 [tuple(r) for r in result.stats["records"]],
                 result.snapshot)).encode()
    assert hashlib.sha256(blob).hexdigest() == digest


# sha256 over (results, rebalance records, snapshot, unlinked nodes) of
# inserting a shuffled 1..3000 (seed 1) and then removing them all: unlike
# the write paths above, the drain reaches root shrink and internal merge
# and redistribute. Each link swap unlinks the old parent plus the leaves
# or internals it reshaped (one per input size); a root grow unlinks only
# the old child of the root, a root shrink that child and its only child.
# Taken before every reshape became one splice.
FILL_DRAIN_DIGESTS = [
    (TreeConfig(3, 4, 2),
     "4ea6c2285b9a0f5a2a85467263d394f927170738d0f224be665ebc18c539a5d7"),
    (TreeConfig(4, 4, 2),
     "7d7cfc2866db803caacdc3732385ffded2743166e8ff29c0497289c377fb8506"),
    (TreeConfig(5, 8, 3),
     "c6637ca0c1e783936c877c1bb4360ddc787edefdd4764470be038879361d7be6"),
]


@pytest.mark.parametrize("cfg, digest", FILL_DRAIN_DIGESTS,
                         ids=["k3", "k4", "k5"])
def test_fill_then_drain_is_pinned(cfg, digest):
    keys = list(range(1, 3001))
    random.Random(1).shuffle(keys)
    tree = LeafTree(cfg)
    results = [tree.insert(k) for k in keys]
    results += [tree.remove(k) for k in keys]
    stats = tree.stats
    assert {(r.kind, r.action) for r in stats.records} >= {
        ("root", "shrink"), ("internal", "merge"),
        ("internal", "redistribute")}
    unlinked = sum(len(r.inputs) + (r.kind != "root") for r in stats.records)
    blob = repr((results, [tuple(r) for r in stats.records],
                 tree.snapshot(), unlinked)).encode()
    assert hashlib.sha256(blob).hexdigest() == digest


@pytest.mark.parametrize("cfg", [TreeConfig(5, 6, 3), TreeConfig(7, 8, 4)],
                         ids=["k5-d6-s3", "k7-d8-s4"])
def test_fill_then_drain_settles_at_the_order_bound(cfg):
    # K = 2S - 1, the smallest order taken for S. Each op runs under a step
    # limit, so reshapes that never settle fail here instead of hanging.
    n = 60 * cfg.leaf_capacity
    shuffled = list(range(1, n + 1))
    random.Random(1).shuffle(shuffled)
    for keys in (range(1, n + 1), range(n, 0, -1), shuffled):
        tree = LeafTree(cfg)
        for kind, want in ((INSERT, 1), (REMOVE, None)):
            for k in keys:
                th = sim.SimThread(_op(tree, kind, k, k))
                sim.run_until(th, lambda: False, limit=20_000)
                assert th.result == (k if want is None else want)
        assert tree.snapshot() == []
        assert tree.check_structure() == []


def test_threaded_run_checks_clean():
    cfg = small(threads=2, ops_per_thread=3000, key_range=256, seed=9)
    result = run_stress(cfg)
    assert result.ok, result.summary()
    assert len(result.records) == 6000
    for tid in (0, 1):
        mine = [r for r in result.records if r.tid == tid]
        assert len(mine) == 3000
        for prev, cur in zip(mine, mine[1:]):
            assert prev.t1 < prev.t2 <= cur.t1


def test_a_duplicate_is_reported_once_by_each_judge(monkeypatch):
    # The snapshot only reads the leaves: check_structure names the key and
    # its leaves, the balance check flags the snapshot once and reconciles
    # every key as before, and the snapshot still lists what is left.
    duplicated = []

    class Duplicating(LeafTree):
        def check_structure(self):
            leaves = [leaf for leaf, _, _ in self.leaves()]
            key = next(w for leaf in leaves for w in leaf.slots
                       if 0 < w < RO_BIT)
            target = next(leaf for leaf in leaves
                          if key not in leaf.slots and EMPTY in leaf.slots)
            target.slots[target.slots.index(EMPTY)] = key
            duplicated.append(key)
            return super().check_structure()

    monkeypatch.setattr(harness, "LeafTree", Duplicating)
    result = run_stress(small(order=4, leaf_capacity=4, min_size=2,
                              key_range=256))
    key, = duplicated
    assert f"key {key} in two leaves" in result.structure_violations
    assert result.balance_problems == ["snapshot contains duplicates"]
    assert result.snapshot.count(key) == 2
    assert len(set(result.snapshot)) == len(result.snapshot) - 1
    assert not result.ok


def test_key_range_up_to_the_largest_key_runs():
    # ranges clipped at key_range end on MAX_KEY, the largest valid key
    result = run_stress(small(key_range=MAX_KEY))
    assert result.ok, result.summary()
    assert len(result.records) == 2000
    assert any(r.e2 == MAX_KEY for r in result.records)


def test_duration_cycles_the_workload():
    cfg = small(ops_per_thread=50, duration=0.15)
    result = run_stress(cfg)
    assert result.ok, result.summary()
    assert len(result.records) > 50
    assert result.elapsed >= 0.1


@pytest.mark.parametrize("threads", [1, 2, 4])
def test_link_swaps_record_every_reshape_kind(threads):
    # one record per link swap, and the run reshapes leaves, internals and
    # the root; at quiesce every begun rebalance has swapped and cleared
    # once, so a stats append lost between threads shows as a mismatch
    cfg = small(order=4, leaf_capacity=4, min_size=2, threads=threads,
                ops_per_thread=3000, key_range=512, seed=21)
    result = run_stress(cfg)
    assert result.ok, result.summary()
    stats = result.stats
    records = stats["records"]
    assert len(records) == stats["link_swaps"] > 0
    assert {r.kind for r in records} >= {"leaf", "internal", "root"}
    assert stats["begins"] == stats["link_swaps"] == stats["clears"]
    assert stats["helper_clears"] <= stats["clears"]


def test_summary_mentions_the_headline_numbers():
    result = run_stress(small())
    text = result.summary()
    assert "2000 ops" in text and "violations" in text


@pytest.mark.parametrize("threads", [1, 2])
def test_stress_counts_voluntary_switches(threads):
    result = run_stress(small(threads=threads, ops_per_thread=1000))
    assert isinstance(result.voluntary_switches, int)
    assert result.voluntary_switches >= 0
    per_kop = result.voluntary_switches * 1000 / len(result.records)
    assert f"{per_kop:.1f} voluntary switches per 1k ops" in result.summary()


# --- bench --------------------------------------------------------------


def test_bench_requires_a_duration():
    with pytest.raises(ValueError, match="positive duration"):
        run_bench(small())


def test_bench_reports_throughput(monkeypatch):
    counts = []
    run = harness._run

    def counted(*args):
        counts.append(run(*args))
        return counts[-1]

    monkeypatch.setattr(harness, "_run", counted)
    row = run_bench(small(ops_per_thread=500, duration=0.1))
    assert row["threads"] == 1
    assert row["ops"] > 0
    assert counts == [row["ops"]]  # counted by the op loop stress runs too
    assert row["ops_per_sec"] > 0
    assert row["structure_violations"] == 0


# --- one run path: thread 0 on the caller, a raising thread fails the run


class Boom(Exception):
    pass


def _raising_in(monkeypatch, bad_tid):
    """Patch harness._run so that thread `bad_tid` raises Boom at once."""
    run = harness._run

    def patched(tree, tid, *args):
        if tid == bad_tid:
            raise Boom(f"thread {tid}")
        return run(tree, tid, *args)

    monkeypatch.setattr(harness, "_run", patched)


@pytest.mark.parametrize("threads, bad_tid", [(2, 1), (2, 0), (1, 0)],
                         ids=["1-of-2", "0-of-2", "0-of-1"])
def test_a_raising_thread_fails_the_run(monkeypatch, threads, bad_tid):
    _raising_in(monkeypatch, bad_tid)
    with pytest.raises(Boom, match=f"thread {bad_tid}"):
        run_stress(small(threads=threads, ops_per_thread=500))
    with pytest.raises(Boom, match=f"thread {bad_tid}"):
        run_bench(small(threads=threads, ops_per_thread=500, duration=0.1))


def test_run_all_raises_after_every_thread_has_finished(monkeypatch):
    _raising_in(monkeypatch, 0)
    cfg = small(threads=2, ops_per_thread=800)
    workloads = [make_ops(cfg, tid) for tid in range(2)]
    buckets = [[], []]
    with pytest.raises(Boom):
        harness._run_all(LeafTree(cfg.tree_config()), workloads, 0.0,
                         buckets)
    assert buckets[0] == []
    assert [r[1:4] for r in buckets[1]] == workloads[1]


def test_a_thread_that_fails_to_start_leaves_none_waiting(monkeypatch):
    # the second start raises: the first thread, already waiting at the
    # barrier, must return without running an op or dying noisily
    start = threading.Thread.start
    started = []

    def patched(self):
        if started:
            raise Boom("no more threads")
        started.append(self)
        start(self)

    unhandled = []
    monkeypatch.setattr(threading.Thread, "start", patched)
    monkeypatch.setattr(threading, "excepthook", unhandled.append)
    cfg = small(threads=3, ops_per_thread=200)
    buckets = [[], [], []]
    interval = sys.getswitchinterval()
    with pytest.raises(Boom):
        harness._run_all(LeafTree(cfg.tree_config()),
                         [make_ops(cfg, tid) for tid in range(3)], 0.0,
                         buckets)
    assert len(started) == 1 and not started[0].is_alive()
    assert buckets == [[], [], []] and unhandled == []
    assert sys.getswitchinterval() == interval and gc.isenabled()


@pytest.mark.parametrize("threads", [1, 2])
def test_thread_0_runs_on_the_caller(monkeypatch, threads):
    run = harness._run
    ran_on = {}

    def patched(tree, tid, *args):
        ran_on[tid] = threading.current_thread()
        return run(tree, tid, *args)

    monkeypatch.setattr(harness, "_run", patched)
    result = run_stress(small(threads=threads, ops_per_thread=300))
    assert result.ok, result.summary()
    assert ran_on[0] is threading.current_thread()
    assert all(ran_on[tid] is not ran_on[0] for tid in range(1, threads))
