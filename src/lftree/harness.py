"""Threaded stress runs, quiesce checks, and throughput measurement.

A stress run builds a tree, gives each real thread its own seeded
workload, runs to quiesce, and then verifies everything that is checkable
after the fact: recorded history against the interval contracts, the
final snapshot (a plain read: a duplicated key is listed twice) against
the net insert/remove balance, and the structural invariants, which name
a duplicate's key and leaves. Workloads are pregenerated (`make_ops`,
from the rng's random() and getrandbits() alone) so the timed loop does
nothing but operations and record appends; with a duration set, each
thread cycles its workload until the deadline. Stress and bench run the
same loop (`_run`), each op through the tree's public methods
(`_apply`), which perfbench's tracer and fault injection wrap; bench
only counts operations instead of recording them.

Thread 0 runs on the calling thread and threads 1..n-1 beside it; a
thread that raises fails the run once every thread has joined. A lone
thread uses a logical clock starting at zero, so the same seed produces
byte-identical traces. Several use the monotonic clock with a per-thread
strictly-increasing fixup (the checker never compares timestamps across
threads beyond interval overlap, which monotonic_ns supports) and a
10 microsecond switch interval, to force heavy preemption.
"""

from __future__ import annotations

import gc
import itertools
import math
import random
import resource
import sys
import threading
import time
from dataclasses import dataclass
from operator import itemgetter

from .keyspace import MAX_KEY, _exact_int
from .nodes import TreeConfig
from .tree import LeafTree
from .verify import (INSERT, REMOVE, SEARCH, OpRecord, Violation,
                     check_history, snapshot_consistent)

_SWITCH_INTERVAL = 1e-5


@dataclass(frozen=True)
class RunConfig:
    order: int = TreeConfig.order
    leaf_capacity: int = TreeConfig.leaf_capacity
    min_size: int = TreeConfig.min_size
    threads: int = 8
    ops_per_thread: int = 100_000
    key_range: int = 1 << 16
    mix: tuple = (0.5, 0.25, 0.25)   # search, insert, remove weights
    seed: int = 0
    duration: float = 0.0       # > 0: repeat the workload until the deadline

    def __post_init__(self):
        TreeConfig(self.order, self.leaf_capacity, self.min_size)
        for name in ("threads", "ops_per_thread", "key_range", "seed"):
            _exact_int(name, getattr(self, name))
        if self.threads < 1:
            raise ValueError(f"threads must be >= 1: {self.threads}")
        if self.ops_per_thread < 1:
            raise ValueError(f"ops per thread must be >= 1: "
                             f"{self.ops_per_thread}")
        if not 4 <= self.key_range <= MAX_KEY:
            raise ValueError(f"key range not in [4, 2**63-1]: {self.key_range}")
        _check_mix(self.mix)
        if not (_real(self.duration) and self.duration >= 0):
            raise ValueError(f"duration must be a finite number >= 0: "
                             f"{self.duration!r}")

    def tree_config(self) -> TreeConfig:
        return TreeConfig(self.order, self.leaf_capacity, self.min_size)


def _real(x) -> bool:  # a finite int or float, not a bool or a string
    try:
        return type(x) in (int, float) and math.isfinite(x)
    except OverflowError:  # an int past the float range
        return False


def _check_mix(mix) -> None:
    """Refuse a mix that is not three finite non-negative weights, in
    search:insert:remove order, with a finite positive sum."""
    if not (type(mix) in (tuple, list) and len(mix) == 3
            and all(_real(w) and w >= 0 for w in mix) and sum(mix) > 0):
        raise ValueError(f"mix needs three finite non-negative "
                         f"search:insert:remove weights: {mix!r}")
    if not _real(sum(mix)):
        raise ValueError(f"mix weights must sum to a finite number: "
                         f"{mix!r}")


def parse_mix(text: str) -> tuple:
    """'50:25:25' -> (0.5, 0.25, 0.25)."""
    try:
        weights = tuple(float(p) for p in text.split(":"))
    except ValueError:
        raise ValueError(f"mix weights must be numbers: {text!r}") from None
    _check_mix(weights)
    total = sum(weights)
    return tuple(w / total for w in weights)


def make_ops(cfg: RunConfig, tid: int) -> list:
    """Seeded per-thread workload of (kind, e1, e2) tuples.

    Per op: one random() picks the kind by the normalised mix; a key e1 in
    [1, top] follows, then for a search or remove a span d in [0, max(1,
    top >> 8)], and e2 = min(top, e1 + d). Each draw below n takes k =
    n.bit_length() bits from getrandbits and draws again while the result
    is >= n: CPython's own rule, so the stream is the one Random.randint
    gives, without its three Python frames per draw."""
    rng = random.Random(cfg.seed * 7919 + tid * 104729 + 1)
    draw, bits = rng.random, rng.getrandbits
    ws, wi, _ = (w / sum(cfg.mix) for w in cfg.mix)
    wsi = ws + wi
    top = cfg.key_range
    spans = max(1, top >> 8) + 1
    kt, ks = top.bit_length(), spans.bit_length()
    ops = []
    append = ops.append
    for _ in range(cfg.ops_per_thread):
        r = draw()
        e1 = bits(kt)
        while e1 >= top:
            e1 = bits(kt)
        e1 += 1
        if ws <= r < wsi:
            append((INSERT, e1, e1))
            continue
        e2 = bits(ks)
        while e2 >= spans:
            e2 = bits(ks)
        e2 += e1
        append((SEARCH if r < ws else REMOVE, e1, e2 if e2 < top else top))
    return ops


@dataclass
class StressResult:
    config: RunConfig
    records: list[OpRecord]
    snapshot: list[int]
    structure_violations: list[str]
    history_violations: list[Violation]
    balance_problems: list[str]
    elapsed: float
    stats: dict
    voluntary_switches: int     # the process's, over the timed loop

    @property
    def ok(self) -> bool:
        return not (self.structure_violations or self.history_violations
                    or self.balance_problems)

    def summary(self) -> str:
        n = len(self.records)
        rate = n / self.elapsed if self.elapsed > 0 else 0.0
        per_kop = self.voluntary_switches * 1000 / n if n else 0.0
        return (f"{n} ops, {self.config.threads} threads, "
                f"{self.elapsed:.2f}s ({rate:,.0f} ops/s), "
                f"{per_kop:.1f} voluntary switches per 1k ops, "
                f"{len(self.snapshot)} keys left, "
                f"{self.stats['link_swaps']} rebalances, "
                f"violations: {len(self.structure_violations)} structure / "
                f"{len(self.history_violations)} history / "
                f"{len(self.balance_problems)} balance")


def run_stress(cfg: RunConfig, check: bool = True) -> StressResult:
    tree = LeafTree(cfg.tree_config())
    workloads = [make_ops(cfg, tid) for tid in range(cfg.threads)]
    buckets: list[list[OpRecord]] = [[] for _ in range(cfg.threads)]
    switches = _voluntary_switches()
    _, elapsed = _run_all(tree, workloads, cfg.duration, buckets)
    switches = _voluntary_switches() - switches

    records = [r for bucket in buckets for r in bucket]
    records.sort(key=itemgetter(4, 5, 0))   # (t1, t2, tid)

    structure = tree.check_structure()
    snapshot = tree.snapshot()
    history = check_history(records) if check else []
    balance = snapshot_consistent(records, snapshot) if check else []
    return StressResult(cfg, records, snapshot, structure, history, balance,
                        elapsed, tree.stats.snapshot(), switches)


def _voluntary_switches() -> int:
    """Voluntary context switches of the whole process so far, every
    thread included. A thread that waits for the GIL blocks, so over a
    multi-thread run they tell how often the GIL really changed hands."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_nvcsw


def _run_all(tree: LeafTree, workloads, duration: float,
             buckets=None) -> tuple[list[int], float]:
    """Run workload i as thread i, with the cyclic GC off, and return the
    op count of each thread and the elapsed seconds. Thread 0 runs on the
    caller, threads 1..n-1 beside it; one thread has a logical clock, and
    several the monotonic clock at the forced switch interval. With
    `buckets`, thread i records into buckets[i]. The first Exception a
    thread raises is raised once every thread has joined."""
    n = len(workloads)
    outs = buckets or [None] * n
    counts = [0] * n
    errors = []
    clock = itertools.count().__next__ if n == 1 else time.monotonic_ns
    gate = threading.Barrier(n)

    def work(tid: int):
        try:
            gate.wait()
        except threading.BrokenBarrierError:  # a later thread failed to start
            return
        try:
            counts[tid] = _run(tree, tid, workloads[tid], outs[tid], clock,
                               duration)
        except Exception as exc:  # Ctrl-C on the caller stops at once
            errors.append(exc)

    threads = [threading.Thread(target=work, args=(tid,), daemon=True)
               for tid in range(1, n)]
    old = sys.getswitchinterval()
    gc_was_on = gc.isenabled()
    # a generation-2 collection over a multi-million record heap stops
    # every thread for seconds, which the progress audit would blame on the
    # tree; refcounting still reclaims the acyclic garbage
    gc.disable()
    if threads:
        sys.setswitchinterval(_SWITCH_INTERVAL)
    start = time.perf_counter()
    started = []
    try:
        try:
            for th in threads:
                th.start()
                started.append(th)
        except BaseException:
            gate.abort()  # the started threads return without running an op
            for th in started:
                th.join()
            raise
        work(0)
        for th in threads:
            th.join()
    finally:
        sys.setswitchinterval(old)
        if gc_was_on:
            gc.enable()
    if errors:
        raise errors[0]
    return counts, time.perf_counter() - start


def _run(tree: LeafTree, tid: int, ops, out, clock,
         duration: float) -> int:
    """The op loop: run `ops` in order, once, or with a duration cycling
    them until it has passed (checked every 512 ops). With a list `out`,
    append an OpRecord per op whose t1 < t2 read `clock` around the call,
    raised where needed to keep this thread's stamps strictly increasing;
    with None, only count. Returns the number of ops run."""
    append = None if out is None else out.append
    new = tuple.__new__  # an OpRecord, minus its Python-level __new__
    deadline = time.perf_counter() + duration if duration > 0 else None
    last = -1
    n = 0
    while True:
        for kind, e1, e2 in ops:
            if append is None:
                _apply(tree, kind, e1, e2)
            else:
                t1 = clock()
                if t1 <= last:
                    t1 = last + 1
                res = _apply(tree, kind, e1, e2)
                t2 = clock()
                if t2 <= t1:
                    t2 = t1 + 1
                last = t2
                append(new(OpRecord, (tid, kind, e1, e2, t1, t2, res)))
            n += 1
            if (deadline is not None and n % 512 == 0
                    and time.perf_counter() >= deadline):
                return n
        if deadline is None or time.perf_counter() >= deadline:
            return n


def _apply(tree: LeafTree, kind: str, e1: int, e2: int) -> int:
    """The one other kind-to-op map, kept because perfbench wraps the public
    methods; each of them is one call of the yield-free `tree._op`."""
    if kind == SEARCH:
        return tree.search(e1, e2)
    if kind == REMOVE:
        return tree.remove(e1, e2)
    if kind == INSERT:
        return 1 if tree.insert(e1) else 0
    raise ValueError(f"unknown op kind: {kind!r}")


def run_bench(cfg: RunConfig) -> dict:
    """Throughput only: no recording; the workload repeats until the
    configured duration elapses."""
    if cfg.duration <= 0:
        raise ValueError("bench needs a positive duration")
    tree = LeafTree(cfg.tree_config())
    workloads = [make_ops(cfg, tid) for tid in range(cfg.threads)]
    counts, elapsed = _run_all(tree, workloads, cfg.duration)
    total = sum(counts)
    return {
        "threads": cfg.threads,
        "ops": total,
        "elapsed": elapsed,
        "ops_per_sec": total / elapsed if elapsed > 0 else 0.0,
        "structure_violations": len(tree.check_structure()),
    }
