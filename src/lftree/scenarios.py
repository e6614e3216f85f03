"""Deterministic race scenarios for the rebalance protocol.

Each scenario builds a small tree (K=3, D=4, S=2), pins one thread at an
interesting protocol point, and explores interleavings with the remaining
threads. A scenario is one row of SCENARIOS: a setup(clock) and a
check(ctx, threads, schedule) in the contract sim.explore and
sim.run_seeded take, and the defaults of its kind. An enumerated row
explores its 2 threads exhaustively up to a step bound (None: every
complete schedule); a seeded row draws random schedules for 3 threads,
too wide to enumerate. Checks run after every complete schedule, so a
failure comes with the exact schedule that produced it.

An analytic row doubles as a sanity check on the explorer itself: its two
threads cannot change each other's step counts, so its complete
enumeration must count C(n0+n1, n0) schedules, where n0 and n1 are the
steps each thread takes drained alone from a fresh setup. Two rows are:

* begin-race: each advertise probe is a fixed 3-step generator (two yields
  plus the closing step), and the CAS loser can only return early once the
  winner has already finished, i.e. during the forced drain. Complete
  schedules therefore correspond one-to-one with interleavings of two
  3-step sequences: C(6, 3) = 20.
* read-race: a search and a status observer write no shared word, so
  neither can shorten the other: C(n0+n1, n0) = 3,003.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from math import comb
from typing import Callable, Optional

from . import rebalance as rb
from . import sim
from .keyspace import DEAD, RO_BIT
from .nodes import FROZEN, IDLE, PREP, SWAP, LeafNode, TreeConfig
from .tree import LeafTree, _op
from .verify import INSERT, SEARCH

_SMALL = TreeConfig(order=3, leaf_capacity=4, min_size=2)


@dataclass
class ScenarioReport:
    schedules: int
    failures: list  # (schedule, problems)
    analytic: Optional[int] = None  # the count a complete run was held to

    @property
    def ok(self) -> bool:
        return not self.failures


@dataclass(frozen=True)
class Scenario:
    """One row of SCENARIOS. A seeded row has `runs` and `seed`; an
    enumerated row has `bound` (None: complete) and may be `analytic`."""
    setup: Callable
    check: Callable
    bound: Optional[int] = None
    runs: Optional[int] = None
    seed: Optional[int] = None
    analytic: bool = False

    @property
    def seeded(self) -> bool:
        return self.runs is not None


def _full_leaf_tree() -> LeafTree:
    tree = LeafTree(_SMALL)
    for k in (10, 20, 30, 40):
        tree.insert(k)
    return tree


def _expect(problems: list, cond: bool, msg: str) -> None:
    if not cond:
        problems.append(msg)


def _settled(tree, problems, swaps: int, seq: int, keys: list) -> None:
    _expect(problems, tree.root.status[0] == (0, seq, IDLE),
            f"root status {tree.root.status[0]}, wanted seq {seq} idle")
    n = len(tree.stats.records)
    _expect(problems, n == swaps, f"{n} link swaps, wanted {swaps}")
    got = tree.snapshot()
    _expect(problems, got == keys, f"snapshot {got}, wanted {keys}")
    bad = tree.check_structure()
    _expect(problems, not bad, f"structure: {bad}")


# begin-race: two threads race the advertise CAS; exactly one must win,
# and the loser's CAS must fail without damage.

def _begin_race_setup(clock):
    tree = _full_leaf_tree()
    return tree, [rb.begin(tree, tree.root, 45),
                  rb.begin(tree, tree.root, 45)]


def _begin_race_check(tree, threads, schedule):
    problems: list[str] = []
    wins = [th.result for th in threads]
    _expect(problems, sorted(wins) == [False, True],
            f"begin results {wins}, wanted exactly one winner")
    _expect(problems, tree.root.status[0] == (45, 0, PREP),
            f"status {tree.root.status[0]} after begin")
    # drive the advertised rebalance to completion deterministically
    sim.run(rb.execute(tree, tree.root, (45, 0, PREP)))
    _settled(tree, problems, swaps=1, seq=1, keys=[10, 20, 30, 40])
    recs = tree.stats.records
    _expect(problems, [r.action for r in recs] == [rb.SPLIT],
            f"records {recs}")
    if recs and recs[0].action == rb.SPLIT:
        _expect(problems, recs[0].outputs == (2, 2) and recs[0].clean
                and recs[0].preserved, f"split record {recs[0]}")
    return problems


# read-race: a search races a status observer. Both are read-only, so the
# schedule count is analytic; the status must read idle at every point.

_WATCH_LOADS = 4


def _watch(tree, out):
    for _ in range(_WATCH_LOADS):
        yield
        out.append(tree.root.status[0][2])


def _read_race_setup(clock):
    tree = LeafTree(_SMALL)
    for k in (10, 40):
        tree.insert(k)
    out: list[int] = []
    return out, [_op(tree, SEARCH, 10, 15), _watch(tree, out)]


def _read_race_check(out, threads, schedule):
    problems: list[str] = []
    _expect(problems, threads[0].result == 10,
            f"search(10,15) -> {threads[0].result}")
    _expect(problems, out == [IDLE] * _WATCH_LOADS,
            f"observed statuses {out}, wanted all idle")
    return problems


def _pending_split(phase: int, helpers: int, clock):
    """A setup: a full-leaf tree whose owner trigger is suspended once the
    root status reaches `phase`, plus `helpers` help_pending threads."""
    tree = _full_leaf_tree()
    owner = sim.SimThread(rb.trigger(tree, tree.root, 45))
    sim.run_until(owner, lambda: tree.root.status[0][2] == phase)
    assert not owner.done
    return tree, [owner.gen] + [rb.help_pending(tree, tree.root, True)
                                for _ in range(helpers)]


def _helped_split_check(tree, threads, schedule):
    problems: list[str] = []
    _settled(tree, problems, swaps=1, seq=1, keys=[10, 20, 30, 40])
    clears = len(tree.stats.cleared)
    _expect(problems, clears == 1, f"{clears} clears, wanted 1")
    recs = tree.stats.records
    _expect(problems, [r.action for r in recs] == [rb.SPLIT]
            and recs[0].outputs == (2, 2) and recs[0].preserved,
            f"records {recs}")
    return problems


# stale-helper: the owner's rebalance can be helped to completion while the
# owner sleeps mid-freeze; by the time it wakes, the sequence number has
# advanced and the tree has grown a level. Every stale CAS it retries must
# fail benignly and its insert must still land.
#
# Pre-state: children [(10,20), (30,35,38,40), (50,55,60,70)] under one
# internal node at K=3, built serially (two splits, root sequence 2).
# Thread 1 inserts 33 and is suspended after freezing two slots of the
# middle leaf; thread 0 inserts 58. The 33 chain splits the middle leaf,
# overflows the parent to 4 children, and forces a root grow; the 58 chain
# splits the right leaf under the new top. Endpoint in every schedule: 3
# more link swaps, root sequence 4, both inserts landed. Thread 0 drains
# first past the bound, covering the fully-helped wake-up in the deepest
# schedules.

def _stale_helper_setup(clock):
    tree = LeafTree(_SMALL)
    for k in (10, 20, 30, 40, 50, 60, 70, 35, 38, 55):
        tree.insert(k)
    mid = tree.root.children[0].children[1]
    assert isinstance(mid, LeafNode)
    tree.stats = rb.RebalanceStats()  # drop construction-time counts
    owner = sim.SimThread(_op(tree, INSERT, 33, 33))
    frozen = lambda: sum(1 for w in mid.slots if w & RO_BIT)
    sim.run_until(owner, lambda: frozen() >= 2)
    assert not owner.done
    return tree, [_op(tree, INSERT, 58, 58), owner.gen]


def _stale_helper_check(tree, threads, schedule):
    problems: list[str] = []
    _expect(problems, threads[0].result == 1, "insert 58 failed")
    _expect(problems, threads[1].result == 1, "insert 33 failed")
    _settled(tree, problems, swaps=3, seq=4,
             keys=[10, 20, 30, 33, 35, 38, 40, 50, 55, 58, 60, 70])
    actions = sorted(r.action for r in tree.stats.records)
    _expect(problems, actions == [rb.GROW, rb.SPLIT, rb.SPLIT],
            f"actions {actions}")
    _expect(problems, all(r.preserved for r in tree.stats.records),
            "a rebalance lost or duplicated keys")
    return problems


# stale-grandparent: the grandparent a rebalance advertised on is itself
# replaced while the owner sleeps mid-freeze. The replacing thread must
# first help the pending split to completion (freeze refuses to overwrite
# a live advertisement), and the woken owner must notice the terminal
# frozen status, abandon, and re-descend through the replacement.
#
# Pre-state: root -> T -> (I1, I2); I2's third leaf {58,59,60,70} is full.
# Thread 1 inserts 61, advertising a split on T, and is suspended after
# freezing two slots of that leaf. Thread 0 triggers a rebuild of T at the
# root, which freezes T (helping the split first) and swaps in a fresh
# copy. The leaf split leaves I2's successor with 4 children, so whoever
# descends next splits it too. Endpoint in every schedule: both threads
# done, insert landed, old T frozen and unlinked, exactly one split of the
# full leaf plus that follow-up internal split.

def _stale_grandparent_setup(clock):
    tree = LeafTree(_SMALL)
    for k in (10, 20, 30, 40, 50, 60, 70, 35, 38, 55, 33, 58, 59):
        tree.insert(k)
    top = tree.root.children[0]
    full = top.children[1].children[2]
    assert isinstance(full, LeafNode)
    assert sorted(full.slots) == [58, 59, 60, 70]
    tree.stats = rb.RebalanceStats()
    owner = sim.SimThread(_op(tree, INSERT, 61, 61))
    frozen = lambda: sum(1 for w in full.slots if w & RO_BIT)
    sim.run_until(owner, lambda: frozen() >= 2)
    assert not owner.done
    return (tree, top), [rb.trigger(tree, tree.root, 10), owner.gen]


def _stale_grandparent_check(ctx, threads, schedule):
    tree, old_top = ctx
    problems: list[str] = []
    _expect(problems, threads[0].result is True, "rebuild trigger lost")
    _expect(problems, threads[1].result == 1, "insert 61 failed")
    _settled(tree, problems, swaps=3, seq=6,
             keys=[10, 20, 30, 33, 35, 38, 40, 50, 55, 58, 59, 60, 61, 70])
    _expect(problems, old_top.status[0][2] == FROZEN,
            f"old top status {old_top.status[0]}")
    _expect(problems, tree.root.children[0] is not old_top,
            "old top still linked")
    actions = sorted(r.action for r in tree.stats.records)
    _expect(problems, actions == [rb.REBUILD, rb.SPLIT, rb.SPLIT],
            f"actions {actions}")
    return problems


# freeze-race: two helpers replay the same leaf freeze concurrently.
# Freezing is per-slot CAS with a read-only test, so it must be idempotent:
# both collect identical words and every slot ends frozen exactly once. The
# full enumeration is finite (a CAS loser retries with one extra load, so
# there is no closed form, but every schedule terminates).

def _freeze_race_setup(clock):
    tree = LeafTree(_SMALL)
    leaf = LeafNode([10, 20, DEAD, DEAD])
    tree.root.status[0] = (1, 0, PREP)
    live = ((1, 0, PREP), (1, 0, SWAP))
    return leaf, [rb.freeze_leaf(tree, tree.root, live, leaf),
                  rb.freeze_leaf(tree, tree.root, live, leaf)]


def _freeze_race_check(leaf, threads, schedule):
    problems: list[str] = []
    want = [10 | RO_BIT, 20 | RO_BIT, DEAD, DEAD]
    got = list(leaf.slots)
    _expect(problems, got == want, f"leaf words {got}")
    for th in threads:
        _expect(problems, th.result == want, f"freeze returned {th.result}")
    return problems


SCENARIOS = {
    "begin-race": Scenario(_begin_race_setup, _begin_race_check,
                           analytic=True),
    # help-prep: the owner is suspended right after advertising (nothing
    # frozen yet); a helper races it through freeze, plan, swap, and clear.
    # The rebalance must complete exactly once whoever advances.
    "help-prep": Scenario(partial(_pending_split, PREP, 1),
                          _helped_split_check, bound=10),
    # help-swap: the owner is suspended right after the advance to the swap
    # step: everything is frozen and only the link swap and clear remain. A
    # late helper must either finish the swap itself or detect the swapped
    # link (unfrozen child at the swap step) and settle for the clear.
    "help-swap": Scenario(partial(_pending_split, SWAP, 1),
                          _helped_split_check, bound=10),
    "stale-grandparent": Scenario(_stale_grandparent_setup,
                                  _stale_grandparent_check, bound=8),
    "stale-helper": Scenario(_stale_helper_setup, _stale_helper_check,
                             bound=8),
    "freeze-race": Scenario(_freeze_race_setup, _freeze_race_check),
    "read-race": Scenario(_read_race_setup, _read_race_check, analytic=True),
    # help-storm: a suspended owner plus two helpers racing the same
    # pending split. The endpoint must match help-prep exactly (one swap,
    # one clear).
    "help-storm": Scenario(partial(_pending_split, PREP, 2),
                           _helped_split_check, runs=10_000, seed=7),
}


def _analytic_count(setup) -> int:
    """C(n0+n1, n0), for the steps n0 and n1 each of two threads takes
    drained alone from a fresh setup."""
    solo = []
    for i in (0, 1):
        _, gens = setup(sim.Clock())
        solo.append(sim._drain(sim.SimThread(gens[i])))
    return comb(sum(solo), solo[0])


def run_scenario(name: str, bound: int = None, runs: int = None,
                 seed: int = None) -> ScenarioReport:
    """Run one scenario; an argument left None takes the row's default. A
    seeded scenario takes `runs` and `seed`, an enumerated one `bound`;
    passing the other kind's argument is an error, not a silent no-op."""
    if name not in SCENARIOS:
        raise ValueError(f"unknown scenario {name!r}; "
                         f"pick from {sorted(SCENARIOS)}")
    row = SCENARIOS[name]
    if row.seeded:
        if bound is not None:
            raise ValueError(f"{name} runs seeded schedules: bound does "
                             f"not apply, only runs and seed")
        report = sim.run_seeded(row.setup, row.check,
                                seed=row.seed if seed is None else seed,
                                runs=row.runs if runs is None else runs)
        return ScenarioReport(report.schedules, report.failures)
    if runs is not None or seed is not None:
        raise ValueError(f"{name} is explored exhaustively: runs and seed "
                         f"do not apply, only bound")
    bound = row.bound if bound is None else bound
    report = sim.explore(row.setup, row.check, bound=bound)
    expected = None
    if row.analytic and bound is None:
        expected = _analytic_count(row.setup)
        if report.schedules != expected:
            report.failures.append(((), [f"{report.schedules} schedules, "
                                         f"analytic count is {expected}"]))
    return ScenarioReport(report.schedules, report.failures, expected)


def own_args(name: str, bound: int = None, runs: int = None,
             seed: int = None) -> dict:
    """The arguments of `name`'s kind: runs and seed for a seeded scenario,
    bound for an enumerated one."""
    if SCENARIOS[name].seeded:
        return {"runs": runs, "seed": seed}
    return {"bound": bound}
