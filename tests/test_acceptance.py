"""Acceptance battery: one test per criterion, each ending in a single
printed PASS/FAIL line (run with -s to see them live).

The threaded stress matrix (21 seeds across three tree shapes, 8 threads,
100k ops per run) runs once in a module fixture; the structure, history,
size-band, and preservation criteria all read from it. Stated runtime
budgets are asserted along with the property itself.
"""

import random
import time
from itertools import product

import pytest

from lftree import rebalance as rb
from lftree import sim
from lftree.cli import main
from lftree.harness import RunConfig, make_ops, run_stress
from lftree.keyspace import RO_BIT
from lftree.nodes import PREP, TreeConfig
from lftree.tree import LeafTree
from lftree.verify import (
    INSERT,
    REMOVE,
    SEARCH,
    OpRecord,
    SetOracle,
    check_history,
    progress_audit,
    snapshot_consistent,
    write_trace,
)
from reference import band

STRESS_SHAPES = [
    dict(order=4, leaf_capacity=4, min_size=2, key_range=4096),
    dict(order=32, leaf_capacity=32, min_size=8, key_range=1 << 16),
    dict(order=64, leaf_capacity=64, min_size=16, key_range=1 << 16),
]
STRESS_SEEDS = range(21)


def _verdict(n: int, problems: list, line: str) -> None:
    print(f"criterion {n}: {'FAIL' if problems else 'PASS'} ({line})")
    assert not problems, problems[:5]


@pytest.fixture(scope="module")
def stress_matrix():
    t0 = time.perf_counter()
    runs = []
    for seed in STRESS_SEEDS:
        shape = STRESS_SHAPES[seed % len(STRESS_SHAPES)]
        cfg = RunConfig(threads=8, ops_per_thread=12500, seed=seed, **shape)
        runs.append(run_stress(cfg))
    return runs, time.perf_counter() - t0


def test_criterion_1_serial_oracle_equivalence():
    cfg = RunConfig(threads=1, ops_per_thread=100_000, seed=42)
    ops = make_ops(cfg, 0)
    tree = LeafTree(cfg.tree_config())
    oracle = SetOracle()

    t0 = time.perf_counter()
    mismatches = []
    for kind, e1, e2 in ops:
        if kind == SEARCH:
            got = tree.search(e1, e2)
        elif kind == REMOVE:
            got = tree.remove(e1, e2)
        else:
            got = 1 if tree.insert(e1) else 0
        want = oracle.apply(kind, e1, e2)
        if got != want:
            mismatches.append(f"{kind} [{e1},{e2}]: tree {got}, "
                              f"oracle {want}")
    elapsed = time.perf_counter() - t0

    problems = mismatches[:5]
    if tree.snapshot() != oracle.keys():
        problems.append("final snapshot differs from oracle set")
    if elapsed >= 10.0:
        problems.append(f"budget: {elapsed:.1f}s >= 10s")
    _verdict(1, problems,
             f"{len(ops)} serial ops exact, snapshot equal, "
             f"{elapsed:.1f}s < 10s")


def test_criterion_2_structure_after_quiesce(stress_matrix):
    runs, elapsed = stress_matrix
    problems = []
    for result in runs:
        for v in result.structure_violations:
            problems.append(f"seed {result.config.seed}: {v}")
    if elapsed >= 120.0:
        problems.append(f"budget: {elapsed:.1f}s >= 120s")
    _verdict(2, problems,
             f"{len(runs)} quiesced runs x {len(runs[0].records)} ops, "
             f"0 structure violations, {elapsed:.1f}s < 120s")


def test_criterion_3_interval_semantics(stress_matrix, tmp_path, capsys):
    runs, _ = stress_matrix
    problems = []
    for result in runs:
        for v in result.history_violations:
            problems.append(f"seed {result.config.seed}: {v}")
        for p in result.balance_problems:
            problems.append(f"seed {result.config.seed}: {p}")

    # constructed negatives: each must be flagged with the right clause
    negatives = [
        # a search reporting a key that was never inserted
        ([OpRecord(0, INSERT, 7, 7, 0, 1, 1),
          OpRecord(1, SEARCH, 1, 9, 2, 3, 5)],
         "search-result-never-present"),
        # a failed search spanning a certainly present key
        ([OpRecord(0, INSERT, 5, 5, 0, 1, 1),
          OpRecord(1, SEARCH, 1, 9, 2, 3, 0)],
         "failed-search-certain-match"),
    ]
    for i, (records, clause) in enumerate(negatives):
        path = tmp_path / f"negative-{i}.trace"
        write_trace(path, records)
        code = main(["check", "--trace", str(path)])
        out = capsys.readouterr().out
        if code != 1:
            problems.append(f"negative {i}: exit {code}, wanted 1")
        if clause not in out:
            problems.append(f"negative {i}: clause {clause!r} not reported")

    total = sum(len(r.records) for r in runs)
    _verdict(3, problems,
             f"0 violations over {total} recorded ops, "
             f"2 negative traces flagged with their clauses")


def test_criterion_4_rebalance_size_band(stress_matrix):
    runs, _ = stress_matrix
    reshapes = (rb.SPLIT, rb.MERGE, rb.REDISTRIBUTE)
    problems = []
    clean_n = dirty_n = dirty_in_band = 0
    for result in runs:
        lo, hi = band(result.config.tree_config())
        for rec in result.stats["records"]:
            if rec.kind != "leaf" or rec.action not in reshapes or rec.final:
                continue
            in_band = all(lo <= size <= hi for size in rec.outputs)
            if rec.clean:
                clean_n += 1
                if not in_band:
                    problems.append(
                        f"seed {result.config.seed}: clean {rec.action} "
                        f"emitted {rec.outputs} outside [{lo}, {hi}]")
            else:
                dirty_n += 1
                dirty_in_band += in_band
    if clean_n < 100:
        problems.append(f"only {clean_n} clean reshapes observed")
    literal = "also held" if dirty_in_band == dirty_n else "did not hold"
    _verdict(4, problems,
             f"{clean_n} uncontended leaf reshapes in band; "
             f"{dirty_n} contended ones exempt, where the unconditional "
             f"form {literal}")


def test_criterion_5_key_preservation(stress_matrix):
    runs, _ = stress_matrix
    problems = []
    total = 0
    for result in runs:
        for rec in result.stats["records"]:
            total += 1
            if not rec.preserved:
                problems.append(f"seed {result.config.seed}: {rec}")
    if total < 1000:
        problems.append(f"only {total} rebalances observed")
    _verdict(5, problems,
             f"key multiset preserved across all {total} rebalances")


def test_criterion_6_exactly_once_rebalance(capsys):
    # each scenario asserts, on every enumerated interleaving: exactly one
    # committed replacement per advertised rebalance, final status idle,
    # sequence incremented
    invocations = [
        ["schedules", "begin-race"],                      # complete: 20
        ["schedules", "help-prep", "--bound", "16"],
        ["schedules", "help-swap", "--bound", "16"],
        ["schedules", "stale-grandparent", "--bound", "14"],
        ["schedules", "help-storm"],                      # seed 7, 10^4 runs
    ]
    t0 = time.perf_counter()
    problems = []
    lines = []
    for argv in invocations:
        code = main(argv)
        out = capsys.readouterr().out.strip()
        lines.append(out.splitlines()[0])
        if code != 0:
            problems.append(f"{' '.join(argv)}: exit {code}: {out[-400:]}")
    elapsed = time.perf_counter() - t0
    if "begin-race: 20 schedules (analytic 20), ok" not in lines[0]:
        problems.append(f"begin-race count drifted: {lines[0]}")
    if elapsed >= 300.0:
        problems.append(f"budget: {elapsed:.1f}s >= 300s")
    _verdict(6, problems, "; ".join(lines) + f"; {elapsed:.1f}s < 300s")


def test_criterion_7_progress_with_suspended_thread():
    problems = []

    # simulated half: the owner freezes a full leaf and is never resumed;
    # the survivors must help the pending rebalance and keep completing
    tree = LeafTree(TreeConfig(3, 4, 2))
    clock = sim.Clock()
    records = []
    sim.run_round_robin(
        [sim.op_thread(tree, clock, 0,
                       [(INSERT, k, k) for k in (10, 20, 30, 40)], records)],
        clock)
    leaf = next(iter(tree.leaves()))[0]
    owner = sim.SimThread(tree.insert_gen(25))
    sim.run_until(owner, lambda: all(w & RO_BIT for w in leaf.slots),
                  clock)
    if owner.done or tree.root.status[0][2] != PREP:
        problems.append("owner was not parked on an advertised rebalance")

    rng = random.Random(99)
    def workload(n):
        ops = []
        for _ in range(n):
            r, k = rng.random(), rng.randint(1, 64)
            if r < 0.5:
                ops.append((SEARCH, k, min(64, k + 3)))
            elif r < 0.75:
                ops.append((INSERT, k, k))
            else:
                ops.append((REMOVE, k, min(64, k + 3)))
        return ops

    before = len(records)
    sim.run_round_robin([sim.op_thread(tree, clock, tid, workload(600),
                                       records) for tid in (1, 2)], clock)
    completed = len(records) - before
    if completed < 1000:
        problems.append(f"survivors completed {completed} < 1000 ops")
    if owner.done:
        problems.append("owner resumed by itself")
    problems += [str(v) for v in check_history(records)]
    problems += tree.check_structure()
    problems += snapshot_consistent(records, tree.snapshot())

    # real-thread half: 30 s, 8 threads; no 100 ms window may pass with
    # ops in flight and none completing
    cfg = RunConfig(threads=8, ops_per_thread=12500, duration=30.0, seed=77)
    result = run_stress(cfg, check=False)
    problems += result.structure_violations
    window = 100_000_000
    slow = sum(1 for r in result.records if r.t2 - r.t1 > window)
    # slow ops come first, so keeping slow + 5 keeps the first 5 gaps
    _, reports = progress_audit(result.records, window, keep=slow + 5)
    problems += reports[slow:]

    _verdict(7, problems,
             f"survivors ran {completed} ops past the parked owner; "
             f"{len(result.records)} threaded ops in {result.elapsed:.0f}s "
             f"with no silent 100ms window ({slow} ops over 100ms)")


def test_criterion_8_small_model_brute_force():
    cfg = TreeConfig(3, 4, 2)
    keys = (1, 2, 3, 4)
    alphabet = ([(SEARCH, k, k) for k in keys]
                + [(INSERT, k, k) for k in keys]
                + [(REMOVE, k, k) for k in keys]
                + [(SEARCH, 1, 4), (SEARCH, 2, 3),
                   (REMOVE, 1, 4), (REMOVE, 2, 3)])
    prestates = ((), (10, 20, 30, 40, 50))  # second forces splits at cap 4

    def explore_pair(pre, wa, wb, bound):
        def setup(clock):
            tree = LeafTree(cfg)
            records = []
            if pre:
                # recorded serial prefix, so the balance check stays exact
                sim.run_round_robin(
                    [sim.op_thread(tree, clock, 2,
                                   [(INSERT, k, k) for k in pre], records)],
                    clock)
            gens = [sim.op_thread(tree, clock, 0, list(wa), records),
                    sim.op_thread(tree, clock, 1, list(wb), records)]
            return (tree, records), gens

        def check(ctx, threads, schedule):
            tree, records = ctx
            problems = [str(v) for v in check_history(records)]
            problems += tree.check_structure()
            try:
                snap = tree.snapshot()
            except ValueError as exc:
                return problems + [str(exc)]
            return problems + snapshot_consistent(records, snap)

        return sim.explore(setup, check, bound=bound)

    t0 = time.perf_counter()
    problems = []
    pairs = schedules = 0

    # exhaustive core: every (wa, wb) with |wa| <= 2, |wb| = 1
    was = list(product(alphabet, repeat=1)) + list(product(alphabet,
                                                           repeat=2))
    for pre in prestates:
        for wa in was:
            for wb in product(alphabet, repeat=1):
                report = explore_pair(pre, wa, wb, bound=6)
                pairs += 1
                schedules += report.schedules
                for schedule, what in report.failures[:2]:
                    problems.append(f"pre={pre} wa={wa} wb={wb} "
                                    f"schedule={schedule}: {what[:2]}")
    core = pairs, schedules

    # seeded extension at the stated maximum: 3-op vs 3-op workloads
    rng = random.Random(2024)
    for i in range(200):
        wa = tuple(rng.choice(alphabet) for _ in range(3))
        wb = tuple(rng.choice(alphabet) for _ in range(3))
        report = explore_pair(prestates[i % 2], wa, wb, bound=8)
        pairs += 1
        schedules += report.schedules
        for schedule, what in report.failures[:2]:
            problems.append(f"pre={prestates[i % 2]} wa={wa} wb={wb} "
                            f"schedule={schedule}: {what[:2]}")
    elapsed = time.perf_counter() - t0
    if elapsed >= 600.0:
        problems.append(f"budget: {elapsed:.1f}s >= 600s")

    _verdict(8, problems,
             f"{core[0]} exhaustive pairs / {core[1]} schedules, "
             f"{pairs - core[0]} seeded 6-op pairs / "
             f"{schedules - core[1]} schedules, all clean, "
             f"{elapsed:.0f}s < 600s")
