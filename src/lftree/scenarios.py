"""Deterministic race scenarios for the rebalance protocol.

Each scenario builds a small tree (K=3, D=4, S=2), pins one thread at an
interesting protocol point, and explores interleavings with the remaining
threads via sim.explore (exhaustive, 2 threads) or sim.run_seeded (random,
3 threads). Assertions run after every complete schedule, so a failure
comes with the exact schedule that produced it.

Two scenarios double as sanity checks on the explorer itself, with
analytically known schedule counts:

* begin-race: each advertise probe is a fixed 3-step generator (two yields
  plus the closing step), and the CAS loser can only return early once the
  winner has already finished, i.e. during the forced drain. Complete
  schedules therefore correspond one-to-one with interleavings of two
  3-step sequences: C(6, 3) = 20.
* read-race: a search and a status observer write no shared word, so
  neither can shorten the other; the count is C(n0+n1, n0) for solo step
  counts n0, n1, which the scenario measures and checks itself.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb

from . import rebalance as rb
from . import sim
from .keyspace import DEAD, RO_BIT
from .nodes import FROZEN, IDLE, PREP, SWAP, LeafNode, TreeConfig
from .tree import LeafTree

_SMALL = TreeConfig(order=3, leaf_capacity=4, min_size=2)


@dataclass
class ScenarioReport:
    name: str
    schedules: int
    failures: list  # (schedule, problems)

    @property
    def ok(self) -> bool:
        return not self.failures


def _full_leaf_tree() -> LeafTree:
    tree = LeafTree(_SMALL)
    for k in (10, 20, 30, 40):
        tree.insert(k)
    return tree


def _expect(problems: list, cond: bool, msg: str) -> None:
    if not cond:
        problems.append(msg)


def _settled(tree, problems, swaps: int, seq: int, keys: list) -> None:
    _expect(problems, tree.root.status == (0, 0, seq, IDLE),
            f"root status {tree.root.status}, wanted seq {seq} idle")
    _expect(problems, tree.stats.link_swaps == swaps,
            f"{tree.stats.link_swaps} link swaps, wanted {swaps}")
    got = tree.snapshot()
    _expect(problems, got == keys, f"snapshot {got}, wanted {keys}")
    bad = tree.check_structure()
    _expect(problems, not bad, f"structure: {bad}")


def _solo_steps(gen) -> int:
    return sim._drain(sim.SimThread(gen))


def begin_race(bound: int = None) -> ScenarioReport:
    """Two threads race the advertise CAS; exactly one must win, and the
    loser's CAS must fail without damage. Unbounded, the enumeration is
    complete: C(6, 3) = 20 schedules (see the module docstring)."""

    def setup(clock):
        tree = _full_leaf_tree()
        gens = [rb.begin(tree, tree.root, 45, 45),
                rb.begin(tree, tree.root, 45, 45)]
        return tree, gens

    def check(tree, threads, schedule):
        problems: list[str] = []
        wins = [th.result for th in threads]
        _expect(problems, sorted(wins) == [False, True],
                f"begin results {wins}, wanted exactly one winner")
        _expect(problems, tree.root.status == (45, 45, 0, PREP),
                f"status {tree.root.status} after begin")
        # drive the advertised rebalance to completion deterministically
        sim.run(rb.execute(tree, tree.root, (45, 45, 0, PREP)))
        _settled(tree, problems, swaps=1, seq=1, keys=[10, 20, 30, 40])
        recs = tree.stats.records
        _expect(problems, [r.action for r in recs] == [rb.SPLIT],
                f"records {recs}")
        if recs and recs[0].action == rb.SPLIT:
            _expect(problems, recs[0].outputs == (2, 2) and recs[0].clean
                    and recs[0].preserved, f"split record {recs[0]}")
        return problems

    report = sim.explore(setup, check, bound=bound)
    failures = list(report.failures)
    if bound is None and report.schedules != EXPECTED_COUNTS["begin-race"]:
        failures.append(((), [f"{report.schedules} schedules, analytic "
                              f"count is {EXPECTED_COUNTS['begin-race']}"]))
    return ScenarioReport("begin-race", report.schedules, failures)


def read_race(bound: int = None) -> ScenarioReport:
    """A search races a status observer. Both are read-only, so neither
    can change the other's step count and the schedule count must equal
    the interleaving count of their solo step sequences; the status must
    read idle at every point. Doubles as an explorer sanity check."""

    def build():
        tree = LeafTree(_SMALL)
        for k in (10, 40):
            tree.insert(k)
        return tree

    def watch(tree, out, loads: int = 4):
        for _ in range(loads):
            yield
            out.append(tree.root.status[3])

    def gens_for(tree, out):
        return [tree.search_gen(10, 15), watch(tree, out)]

    solo = [_solo_steps(g) for g in gens_for(build(), [])]
    expected = comb(sum(solo), solo[0])

    def setup(clock):
        tree = build()
        out: list[int] = []
        return out, gens_for(tree, out)

    def check(out, threads, schedule):
        problems: list[str] = []
        _expect(problems, threads[0].result == 10,
                f"search(10,15) -> {threads[0].result}")
        _expect(problems, out == [IDLE] * 4,
                f"observed statuses {out}, wanted all idle")
        return problems

    report = sim.explore(setup, check, bound=bound)
    failures = list(report.failures)
    if bound is None and report.schedules != expected:
        failures.append(((), [f"{report.schedules} schedules, analytic "
                              f"count is C({sum(solo)},{solo[0]}) = {expected}"]))
    return ScenarioReport("read-race", report.schedules, failures)


def _suspended_owner(pred_of_tree):
    """Build a full-leaf tree, start an owner trigger, and run it until the
    predicate on the tree holds. Returns (tree, owner generator)."""
    tree = _full_leaf_tree()
    owner = sim.SimThread(rb.trigger(tree, tree.root, 45))
    sim.run_until(owner, lambda: pred_of_tree(tree))
    assert not owner.done
    return tree, owner.gen


def _helped_split_check(tree, threads, schedule):
    problems: list[str] = []
    _settled(tree, problems, swaps=1, seq=1, keys=[10, 20, 30, 40])
    _expect(problems, tree.stats.clears == 1,
            f"{tree.stats.clears} clears, wanted 1")
    recs = tree.stats.records
    _expect(problems, [r.action for r in recs] == [rb.SPLIT]
            and recs[0].outputs == (2, 2) and recs[0].preserved,
            f"records {recs}")
    return problems


def help_prep(bound: int = 10) -> ScenarioReport:
    """Owner is suspended right after advertising (nothing frozen yet); a
    helper races it through freeze, plan, swap, and clear. The rebalance
    must complete exactly once whoever advances."""

    def setup(clock):
        tree, owner = _suspended_owner(
            lambda t: t.root.status[3] == PREP)
        return tree, [owner, rb.help_pending(tree, tree.root)]

    report = sim.explore(setup, _helped_split_check, bound=bound)
    return ScenarioReport("help-prep", report.schedules, report.failures)


def help_swap(bound: int = 10) -> ScenarioReport:
    """Owner is suspended right after the advance to the swap step:
    everything is frozen and only the link swap and clear remain. A late
    helper must either finish the swap itself or detect the swapped link
    (unfrozen child at the swap step) and settle for the clear."""

    def setup(clock):
        tree, owner = _suspended_owner(
            lambda t: t.root.status[3] == SWAP)
        return tree, [owner, rb.help_pending(tree, tree.root)]

    report = sim.explore(setup, _helped_split_check, bound=bound)
    return ScenarioReport("help-swap", report.schedules, report.failures)


def help_storm(runs: int = 10_000, seed: int = 7) -> ScenarioReport:
    """Three threads: a suspended owner plus two helpers racing the same
    pending split. Too wide to enumerate, so seeded random schedules; the
    endpoint must match help-prep exactly (one swap, one clear)."""

    def setup(clock):
        tree, owner = _suspended_owner(
            lambda t: t.root.status[3] == PREP)
        return tree, [owner, rb.help_pending(tree, tree.root),
                      rb.help_pending(tree, tree.root)]

    report = sim.run_seeded(setup, _helped_split_check, seed=seed, runs=runs)
    return ScenarioReport("help-storm", report.schedules, report.failures)


def stale_helper(bound: int = 8) -> ScenarioReport:
    """Owner's rebalance can be helped to completion while the owner sleeps
    mid-freeze; by the time it wakes, the sequence number has advanced and
    the tree has grown a level. Every stale CAS it retries must fail
    benignly and its insert must still land.

    Pre-state: children [(10,20), (30,35,38,40), (50,55,60,70)] under one
    internal node at K=3, built serially (two splits, root sequence 2).
    Thread 1 inserts 33 and is suspended after freezing two slots of the
    middle leaf; thread 0 inserts 58. The 33 chain splits the middle leaf,
    overflows the parent to 4 children, and forces a root grow; the 58
    chain splits the right leaf under the new top. Endpoint in every
    schedule: 3 more link swaps, root sequence 4, both inserts true.
    Thread 0 drains first past the bound, covering the fully-helped wake-up
    in the deepest schedules."""

    final = [10, 20, 30, 33, 35, 38, 40, 50, 55, 58, 60, 70]

    def setup(clock):
        tree = LeafTree(_SMALL)
        for k in (10, 20, 30, 40, 50, 60, 70, 35, 38, 55):
            tree.insert(k)
        mid = tree.root.children[0].children[1]
        assert isinstance(mid, LeafNode)
        tree.stats = rb.RebalanceStats()  # drop construction-time counts
        owner = sim.SimThread(tree.insert_gen(33))
        frozen = lambda: sum(1 for w in mid.slots if w & RO_BIT)
        sim.run_until(owner, lambda: frozen() >= 2)
        assert not owner.done
        return tree, [tree.insert_gen(58), owner.gen]

    def check(tree, threads, schedule):
        problems: list[str] = []
        _expect(problems, threads[0].result is True, "insert 58 failed")
        _expect(problems, threads[1].result is True, "insert 33 failed")
        _settled(tree, problems, swaps=3, seq=4, keys=final)
        actions = sorted(r.action for r in tree.stats.records)
        _expect(problems, actions == [rb.GROW, rb.SPLIT, rb.SPLIT],
                f"actions {actions}")
        _expect(problems, all(r.preserved for r in tree.stats.records),
                "a rebalance lost or duplicated keys")
        return problems

    report = sim.explore(setup, check, bound=bound)
    return ScenarioReport("stale-helper", report.schedules, report.failures)


def stale_grandparent(bound: int = 8) -> ScenarioReport:
    """The grandparent a rebalance advertised on is itself replaced while
    the owner sleeps mid-freeze. The replacing thread must first help the
    pending split to completion (freeze refuses to overwrite a live
    advertisement), and the woken owner must notice the terminal frozen
    status, abandon, and re-descend through the replacement.

    Pre-state: root -> T -> (I1, I2); I2's third leaf {58,59,60,70} is
    full. Thread 1 inserts 61, advertising a split on T, and is suspended
    after freezing two slots of that leaf. Thread 0 triggers a rebuild of
    T at the root, which freezes T (helping the split first) and swaps in
    a fresh copy. The leaf split leaves I2's successor with 4 children, so
    whoever descends next splits it too. Endpoint in every schedule: both
    threads done, insert landed, old T frozen and unlinked, exactly one
    split of the full leaf plus that follow-up internal split."""

    final = [10, 20, 30, 33, 35, 38, 40, 50, 55, 58, 59, 60, 61, 70]

    def setup(clock):
        tree = LeafTree(_SMALL)
        for k in (10, 20, 30, 40, 50, 60, 70, 35, 38, 55, 33, 58, 59):
            tree.insert(k)
        top = tree.root.children[0]
        full = top.children[1].children[2]
        assert isinstance(full, LeafNode)
        assert sorted(rb.live_keys(full.slots)) == \
            [58, 59, 60, 70]
        tree.stats = rb.RebalanceStats()
        owner = sim.SimThread(tree.insert_gen(61))
        frozen = lambda: sum(1 for w in full.slots if w & RO_BIT)
        sim.run_until(owner, lambda: frozen() >= 2)
        assert not owner.done
        return (tree, top), [rb.trigger(tree, tree.root, 10), owner.gen]

    def check(ctx, threads, schedule):
        tree, old_top = ctx
        problems: list[str] = []
        _expect(problems, threads[0].result is True, "rebuild trigger lost")
        _expect(problems, threads[1].result is True, "insert 61 failed")
        _settled(tree, problems, swaps=3, seq=6, keys=final)
        _expect(problems, old_top.status[3] == FROZEN,
                f"old top status {old_top.status}")
        _expect(problems, tree.root.children[0] is not old_top,
                "old top still linked")
        actions = sorted(r.action for r in tree.stats.records)
        _expect(problems, actions == [rb.REBUILD, rb.SPLIT, rb.SPLIT],
                f"actions {actions}")
        return problems

    report = sim.explore(setup, check, bound=bound)
    return ScenarioReport("stale-grandparent", report.schedules,
                          report.failures)


def freeze_race(bound: int = None) -> ScenarioReport:
    """Two helpers replay the same leaf freeze concurrently. Freezing is
    per-slot CAS with a read-only test, so it must be idempotent: both
    collect identical words and every slot ends frozen exactly once. The
    full enumeration is finite (a CAS loser retries with one extra load,
    so there is no closed form, but every schedule terminates)."""

    def setup(clock):
        tree = LeafTree(_SMALL)
        leaf = LeafNode(4, [10, 20, DEAD, DEAD])
        tree.root.status = (1, 1, 0, PREP)
        live = ((1, 1, 0, PREP), (1, 1, 0, SWAP))
        gens = [rb.freeze_leaf(tree, tree.root, live, leaf),
                rb.freeze_leaf(tree, tree.root, live, leaf)]
        return (tree, leaf), gens

    def check(ctx, threads, schedule):
        tree, leaf = ctx
        problems: list[str] = []
        want = [10 | RO_BIT, 20 | RO_BIT, DEAD, DEAD]
        got = list(leaf.slots)
        _expect(problems, got == want, f"leaf words {got}")
        for th in threads:
            _expect(problems, th.result == want,
                    f"freeze returned {th.result}")
        return problems

    report = sim.explore(setup, check, bound=bound)
    return ScenarioReport("freeze-race", report.schedules, report.failures)


SCENARIOS = {
    "begin-race": begin_race,
    "help-prep": help_prep,
    "help-swap": help_swap,
    "stale-grandparent": stale_grandparent,
    "stale-helper": stale_helper,
    "freeze-race": freeze_race,
    "read-race": read_race,
    "help-storm": help_storm,
}

# scenarios whose full enumeration has an analytically derived count
EXPECTED_COUNTS = {"begin-race": 20}

# seeded-random scenarios; everything else enumerates via sim.explore
SEEDED = frozenset({"help-storm"})


def run_scenario(name: str, bound: int = None, runs: int = None,
                 seed: int = None) -> ScenarioReport:
    """Run one scenario. A seeded scenario takes `runs` and `seed`, an
    enumerated one `bound`; passing the other kind's argument is an error,
    not a silent no-op."""
    if name not in SCENARIOS:
        raise ValueError(f"unknown scenario {name!r}; "
                         f"pick from {sorted(SCENARIOS)}")
    fn = SCENARIOS[name]
    if name in SEEDED:
        if bound is not None:
            raise ValueError(f"{name} runs seeded schedules: bound does "
                             f"not apply, only runs and seed")
        kwargs = {}
        if runs is not None:
            kwargs["runs"] = runs
        if seed is not None:
            kwargs["seed"] = seed
        return fn(**kwargs)
    if runs is not None or seed is not None:
        raise ValueError(f"{name} is explored exhaustively: runs and seed "
                         f"do not apply, only bound")
    return fn() if bound is None else fn(bound=bound)


def own_args(name: str, bound: int = None, runs: int = None,
             seed: int = None) -> dict:
    """The arguments of `name`'s kind: runs and seed for a seeded scenario,
    bound for an enumerated one."""
    if name in SEEDED:
        return {"runs": runs, "seed": seed}
    return {"bound": bound}


def run_all(bound: int = None, runs: int = None) -> list[ScenarioReport]:
    """Every scenario, each given only the arguments of its kind."""
    return [run_scenario(name, **own_args(name, bound, runs))
            for name in SCENARIOS]
