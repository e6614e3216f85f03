"""Layer costs of lftree checkouts, side by side: the "leaf scan per D",
"cell CAS", "descent per level", "rebalance per action", "sim step",
"history check" and sequential oracle layers.

    python3 scripts/layer_bench.py [--passes 5] [CHECKOUT ...]

Each CHECKOUT is the root of a source checkout of lftree (default: the one
this script sits in); give two, say a parent and a change, to compare them.
Every pass runs each checkout in turn, each in a fresh process, the first
one alternating from pass to pass. lftree comes from the checkout; the
workloads and the calibration kernel come from the perfbench/ beside this
script, so every checkout is timed by the same harness. One process:

- builds read-k32's prefilled K=D=32, S=8 tree, pairs each leaf with a
  search range of width up to 256 around one of its keys, and REPS times
  in turn times the yield-free leaf scans over all pairs (`_find` for
  search, `_probe` for insert at the range's lower end, `_scan` for
  remove), then `cells.cas` over every slot of those leaves, each CAS a
  success that writes back the value it found. The CAS loop runs leaf by
  leaf, each leaf's CASes timed right after a `_scan` of the same leaf;
- REPS times, times the yield-free `_descend` to DESCENTS keys drawn from
  the key range, on that tree and on the K=D=4, S=2 tree that churn-k4's
  round robin below leaves, after one untimed pass over the same keys (a
  timed descent that triggers a rebalance fails the run);
- REPS times, for each reshape, builds REBALANCE_TREES trees and times
  the yield-free `rebalance.trigger` that reshapes the first leaf of each
  (the root's child is the grandparent, over the leaf's parent and one
  more internal node). The reshapes are a split of a full leaf and a
  redistribute of a leaf of S keys with a full sibling at churn-k4's
  K=D=4, S=2, and a split of a full leaf at read-k32's K=D=32, S=8;
- explores explore-small's 60 pairs at step bound 8 (15,360 schedules) and
  checks every schedule with check_history, check_structure and
  snapshot_consistent, as explore-small does;
- drives churn-k4's two op lists of seed 1, round 0 round robin over two
  op threads on one K=D=4, S=2 tree (5,000 records, no violation) and
  REPS times checks that history with check_history;
- REPS times builds a SetOracle over read-k32's 32,768-key prefill of
  seed 1 and replays ORACLE_OPS ops of read-k32's stream of seed 1
  through its `apply`, as read-k32's check does.

Every timed piece, one leaf loop, one batch of rebalances, one explored
pair, one check of the large history or one oracle replay, is scaled by
the calibration kernel run right after it (perfbench/calibrate.py).
Figures:

  _find/_probe/_scan_ns_per_slot  ns per slot read (median over REPS)
  cas_ns_per_call      ns per successful cas (median over REPS)
  descent_ns_per_level, descent4_ns_per_level
                       ns per internal level a descent walks, the root's
                       step included, on read-k32's tree and on the churn
                       tree (median over REPS)
  leaf_split_us, leaf_redistribute_us, leaf_split32_us
                       us per rebalance, advertisement to clear (median
                       over REPS)
  churn_check_us_per_record
                       check_history per record of the large history
                       (median over REPS); check_history_us below is the
                       explorer's tiny histories (~8.5 records)
  ns_per_step          explore time outside setup and check, per step
                       taken there (the prestate's steps are setup's)
  setup_us             setup per schedule: tree, prestate, generators
  check_history_us     check_history per schedule
  check_structure_us   LeafTree.check_structure per schedule
  snapshot_us          LeafTree.snapshot + snapshot_consistent per schedule
  schedule_us          the whole explore time per schedule
  steps_per_schedule   clock steps per schedule, read from the clock at the
                       check (the prestate's steps included); not timed
  oracle_ns_per_op     SetOracle.apply per op of the replay, the oracle's
                       construction left out (median over REPS)
  _find/_probe_over_scan
                       the raw figure over the raw `_scan_ns_per_slot` of
                       the same rep (median over REPS): loops timed
                       milliseconds apart, so most of the machine's drift
                       between passes drops out
  cas_over_scan        the raw `cas_ns_per_call` over the raw ns per slot
                       of the `_scan` calls timed beside it, leaf by leaf,
                       in the same rep (median over REPS): both loops see
                       the same stretch of machine time

Prints one JSON line: per checkout, its commit, the schedules per pass, the
levels of the two descent trees, for
each timed figure the median and quartiles over the passes of its
calibrated value with the median of its raw value beside them, and for each
ratio its median and quartiles over the passes. Exits 1 when an explored
schedule or the large history fails its check.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(HERE, "perfbench"))

from calibrate import Calibrated, Kernel  # noqa: E402

REPS = 41
SEED = 1
LEAF_FIGURES = ("_find_ns_per_slot", "_probe_ns_per_slot",
                "_scan_ns_per_slot", "cas_ns_per_call")
# ratio -> the leaf figure it puts over `_scan_ns_per_slot` (cas_over_scan:
# over the scans timed beside the CASes)
RATIOS = {"_find_over_scan": "_find_ns_per_slot",
          "_probe_over_scan": "_probe_ns_per_slot",
          "cas_over_scan": "cas_ns_per_call"}
# figure -> (order, leaf capacity, min size, the parent's leaves' key
# counts, action); the first leaf is the one reshaped
REBALANCES = {"leaf_split_us": (4, 4, 2, (4, 3, 3), "split"),
              "leaf_redistribute_us": (4, 4, 2, (2, 4, 3), "redistribute"),
              "leaf_split32_us": (32, 32, 8, (32,) + (16,) * 15, "split")}
REBALANCE_FIGURES = tuple(REBALANCES)
DESCENT_FIGURES = ("descent_ns_per_level", "descent4_ns_per_level")
DESCENTS = 2048
REBALANCE_TREES = 64
EXPLORE_FIGURES = ("ns_per_step", "setup_us", "check_history_us",
                   "check_structure_us", "snapshot_us", "schedule_us")
HISTORY_FIGURES = ("churn_check_us_per_record",)
ORACLE_FIGURES = ("oracle_ns_per_op",)
ORACLE_OPS = 20_000


def calibrated() -> Calibrated:
    """The kernel readings one process scales its timings by."""
    cal = Calibrated(Kernel(), window=2, slices=8)
    cal.start()
    return cal


def leaf_figures(cal: Calibrated) -> tuple:
    """({figure: (calibrated, raw)}, {ratio: value}) of the leaf scans and
    the CAS."""
    from lftree import cells
    from lftree import tree as tree_mod
    from workloads import READ_RANGE, READ_WIDTH

    rng = random.Random(SEED)
    tree = read_tree(rng)
    pairs = []
    for leaf, lo, hi in tree.leaves():
        e1 = rng.randint(max(1, lo - READ_WIDTH), hi)
        pairs.append((leaf, e1,
                      min(READ_RANGE, e1 + rng.randint(0, READ_WIDTH))))
    slots = sum(len(leaf.slots) for leaf, _, _ in pairs)
    # each pair with the CAS calls over its leaf's slots
    writes = [(pair, [(pair[0].slots, i, w, w)
                      for i, w in enumerate(pair[0].slots)])
              for pair in pairs]
    direct = tree_mod._direct
    scan, cas = direct._scan, cells.cas
    # figure -> (function, argument tuples of one rep, units per rep)
    loops = {"_find_ns_per_slot": (direct._find, pairs, slots),
             "_probe_ns_per_slot": (direct._probe,
                                    [(leaf, e1) for leaf, e1, _ in pairs],
                                    slots),
             "_scan_ns_per_slot": (scan, pairs, slots)}
    ns = {name: ([], []) for name in LEAF_FIGURES}
    beside = []  # per rep: ns per slot of the scans timed beside the CASes
    clock = time.perf_counter_ns
    for _ in range(REPS):
        for name, (fn, calls, units) in loops.items():
            t0 = clock()
            for call in calls:
                fn(*call)
            raw = (clock() - t0) / units
            f = cal.after()
            ns[name][0].append(raw * f)
            ns[name][1].append(raw)
        scan_ns = cas_ns = 0
        for pair, calls in writes:
            t0 = clock()
            scan(*pair)
            t1 = clock()
            for call in calls:
                cas(*call)
            t2 = clock()
            scan_ns += t1 - t0
            cas_ns += t2 - t1
        raw = cas_ns / slots
        f = cal.after()
        ns["cas_ns_per_call"][0].append(raw * f)
        ns["cas_ns_per_call"][1].append(raw)
        beside.append(scan_ns / slots)
    base = dict.fromkeys(RATIOS, ns["_scan_ns_per_slot"][1])
    base["cas_over_scan"] = beside
    ratios = {ratio: statistics.median(x / y for x, y in zip(ns[name][1],
                                                             base[ratio]))
              for ratio, name in RATIOS.items()}
    return ({name: (statistics.median(c), statistics.median(r))
             for name, (c, r) in ns.items()}, ratios)


def read_tree(rng: random.Random):
    """read-k32's prefilled K=D=32, S=8 tree, its keys drawn from `rng`."""
    from lftree import LeafTree
    from workloads import READ_CFG, READ_RANGE

    tree = LeafTree(READ_CFG)
    for k in rng.sample(range(1, READ_RANGE + 1), READ_RANGE // 2):
        tree.insert(k)
    return tree


def descent_figures(cal: Calibrated) -> tuple:
    """({figure: (calibrated, raw)}, {figure: levels}) of the yield-free
    descents on read-k32's tree and on the churn tree."""
    from lftree import tree as tree_mod
    from workloads import READ_RANGE, churn_config

    trees = {"descent_ns_per_level": (read_tree(random.Random(SEED)),
                                      READ_RANGE),
             "descent4_ns_per_level": (churn_run()[0],
                                       churn_config(SEED, 0).key_range)}
    descend = tree_mod._direct._descend
    ns, levels = {}, {}
    clock = time.perf_counter_ns
    for name, (tree, key_range) in trees.items():
        rng = random.Random(SEED)
        keys = [rng.randint(1, key_range) for _ in range(DESCENTS)]
        for key in keys:  # settle any reshape a descent would trigger
            descend(tree, key)
        swaps = len(tree.stats.records)
        levels[name] = tree.height()
        c, r = [], []
        for _ in range(REPS):
            t0 = clock()
            for key in keys:
                descend(tree, key)
            raw = (clock() - t0) / (len(keys) * levels[name])
            f = cal.after()
            c.append(raw * f)
            r.append(raw)
        if len(tree.stats.records) != swaps:
            raise SystemExit(f"{name}: a timed descent rebalanced")
        ns[name] = (statistics.median(c), statistics.median(r))
    return ns, levels


def _rebalance_tree(cfg, sizes: tuple) -> tuple:
    """(tree, grandparent): the root's child is the grandparent, over a
    parent whose leaves hold `sizes` keys and an internal node over two
    leaves of S keys."""
    from lftree import LeafTree
    from lftree.keyspace import EMPTY
    from lftree.nodes import InternalNode, LeafNode

    D, S = cfg.leaf_capacity, cfg.min_size
    runs, k = [], 0
    for n in sizes + (S, S):
        runs.append(list(range(k + 1, k + n + 1)))
        k += 2 * D
    leaves = [LeafNode(keys + [EMPTY] * (D - len(keys))) for keys in runs]
    seps = tuple(keys[-1] for keys in runs[:-1])
    parent = InternalNode(leaves[:-2], seps[:len(sizes) - 1])
    other = InternalNode(leaves[-2:], seps[-1:])
    grand = InternalNode([parent, other], (seps[len(sizes) - 1],))
    tree = LeafTree(cfg)
    tree.root.children[0] = grand
    return tree, grand


def rebalance_figures(cal: Calibrated) -> dict:
    """{figure: (calibrated, raw)} of the yield-free rebalances, each on a
    tree built for it."""
    from lftree import TreeConfig
    from lftree import tree as tree_mod

    trigger = tree_mod._direct.rb.trigger
    us = {name: ([], []) for name in REBALANCE_FIGURES}
    clock = time.perf_counter_ns
    for _ in range(REPS):
        for name, (K, D, S, sizes, action) in REBALANCES.items():
            cfg = TreeConfig(K, D, S)
            trees = [_rebalance_tree(cfg, sizes)
                     for _ in range(REBALANCE_TREES)]
            t0 = clock()
            for tree, grand in trees:
                trigger(tree, grand, 1)
            raw = (clock() - t0) / len(trees) / 1e3
            f = cal.after()
            for tree, _ in trees:
                recs = tree.stats.records
                if [(r.action, r.preserved) for r in recs] != [(action,
                                                               True)]:
                    raise SystemExit(f"{name}: records {recs}")
            us[name][0].append(raw * f)
            us[name][1].append(raw)
    return {name: (statistics.median(c), statistics.median(r))
            for name, (c, r) in us.items()}


def explore_figures(cal: Calibrated) -> tuple:
    """({figure: (calibrated, raw)}, clock steps, schedules) of one
    exploration of explore-small's pairs."""
    from lftree import sim
    from lftree.verify import check_history, snapshot_consistent
    from workloads import EXPLORE_BOUND, _opening, explore_pairs

    pc = time.perf_counter
    # figure -> [calibrated, raw] seconds over all pairs
    sums = {name: [0.0, 0.0] for name in EXPLORE_FIGURES}
    steps = drive_steps = schedules = 0

    def setup(clock):
        t0 = pc()
        tree, records, gens = _opening(clock, *pair)
        spent["setup_us"] += pc() - t0
        return (tree, records, clock, clock.t), gens

    def check(ctx, threads, schedule):
        nonlocal steps, drive_steps
        tree, records, clock, t_setup = ctx
        steps += clock.t
        drive_steps += clock.t - t_setup
        t0 = pc()
        problems = [str(v) for v in check_history(records)]
        t1 = pc()
        problems += tree.check_structure()
        t2 = pc()
        problems += snapshot_consistent(records, tree.snapshot())
        t3 = pc()
        spent["check_history_us"] += t1 - t0
        spent["check_structure_us"] += t2 - t1
        spent["snapshot_us"] += t3 - t2
        return problems

    for pair in explore_pairs():
        # seconds the callbacks spent on this pair
        spent = dict.fromkeys(("setup_us", "check_history_us",
                               "check_structure_us", "snapshot_us"), 0.0)
        t0 = pc()
        report = sim.explore(setup, check, bound=EXPLORE_BOUND)
        total = pc() - t0
        f = cal.after()
        if report.failures:
            raise SystemExit(f"failing schedules for {pair}: "
                             f"{report.failures[:1]}")
        schedules += report.schedules
        spent["ns_per_step"] = total - sum(spent.values())
        spent["schedule_us"] = total
        for name, s in spent.items():
            sums[name][0] += s * f
            sums[name][1] += s
    scale = dict.fromkeys(sums, 1e6 / schedules)
    scale["ns_per_step"] = 1e9 / drive_steps
    return ({name: (c * scale[name], r * scale[name])
             for name, (c, r) in sums.items()}, steps, schedules)


def churn_run() -> tuple:
    """churn-k4's two op lists of seed 1, round 0, round robin over two op
    threads on one K=D=4, S=2 tree: (the tree, the records)."""
    from lftree import LeafTree, TreeConfig, harness, sim
    from workloads import churn_config

    cfg = churn_config(1, 0)
    tree = LeafTree(TreeConfig(4, 4, 2))
    clock = sim.Clock()
    records = []
    sim.run_round_robin([sim.op_thread(tree, clock, tid,
                                       harness.make_ops(cfg, tid), records)
                         for tid in range(2)], clock)
    return tree, records


def history_figures(cal: Calibrated) -> dict:
    """{figure: (calibrated, raw)} of REPS checks of the large history."""
    from lftree.verify import check_history

    records = churn_run()[1]
    us = ([], [])
    for _ in range(REPS):
        t0 = time.perf_counter()
        problems = check_history(records)
        raw = (time.perf_counter() - t0) / len(records) * 1e6
        f = cal.after()
        if problems:
            raise SystemExit(f"the large history fails its check: "
                             f"{problems[0]}")
        us[0].append(raw * f)
        us[1].append(raw)
    return {"churn_check_us_per_record": (statistics.median(us[0]),
                                          statistics.median(us[1]))}


def oracle_figures(cal: Calibrated) -> dict:
    """{figure: (calibrated, raw)} of REPS replays of read-k32's op stream
    through SetOracle.apply, each on a fresh oracle over its prefill."""
    from lftree.verify import SetOracle
    from workloads import READ_RANGE, _read_ops

    prefill = random.Random(SEED).sample(range(1, READ_RANGE + 1),
                                         READ_RANGE // 2)
    ops = _read_ops(random.Random(SEED * 2 + 1), ORACLE_OPS, READ_RANGE)
    ns = ([], [])
    clock = time.perf_counter_ns
    for _ in range(REPS):
        apply = SetOracle(prefill).apply
        t0 = clock()
        for kind, e1, e2 in ops:
            apply(kind, e1, e2)
        raw = (clock() - t0) / len(ops)
        f = cal.after()
        ns[0].append(raw * f)
        ns[1].append(raw)
    return {"oracle_ns_per_op": (statistics.median(ns[0]),
                                 statistics.median(ns[1]))}


def one_pass(checkout: str) -> dict:
    """Every figure of one fresh process on the lftree of `checkout`."""
    sys.path.insert(0, os.path.join(checkout, "src"))
    cal = calibrated()
    timed, ratios = leaf_figures(cal)
    descents, levels = descent_figures(cal)
    timed.update(descents)
    timed.update(rebalance_figures(cal))
    explored, steps, schedules = explore_figures(cal)
    timed.update(explored)
    timed.update(history_figures(cal))
    timed.update(oracle_figures(cal))
    return {"timed": timed, "ratios": ratios, "steps": steps,
            "schedules": schedules, "levels": levels}


def _commit(checkout: str) -> str:
    try:
        return subprocess.run(["git", "-C", checkout, "rev-parse", "--short",
                               "HEAD"], capture_output=True, text=True,
                              check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def _spread(xs: list, digits: int = 2) -> dict:
    if len(xs) > 1:
        q1, med, q3 = statistics.quantiles(xs, n=4)
    else:
        q1 = med = q3 = xs[0]
    return {"median": round(med, digits), "q1": round(q1, digits),
            "q3": round(q3, digits)}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--passes", type=int, default=5)
    p.add_argument("--one", metavar="CHECKOUT", help=argparse.SUPPRESS)
    p.add_argument("checkouts", nargs="*", default=[HERE])
    args = p.parse_args(argv)
    if args.one:
        print(json.dumps(one_pass(args.one)))
        return 0
    if args.passes < 1:
        p.error("--passes must be >= 1")
    roots = [os.path.abspath(c) for c in args.checkouts]
    for root in roots:
        if not os.path.isdir(os.path.join(root, "src", "lftree")):
            p.error(f"{root} is not an lftree checkout")

    runs = {root: [] for root in roots}
    for i in range(args.passes):
        for root in (roots if i % 2 == 0 else roots[::-1]):
            out = subprocess.run([sys.executable, __file__, "--one", root],
                                 stdout=subprocess.PIPE, text=True)
            if out.returncode:
                return 1
            runs[root].append(json.loads(out.stdout))

    result = {"python": platform.python_version(), "nproc": os.cpu_count(),
              "passes": args.passes, "reps": REPS, "checkouts": []}
    for root in roots:
        first = runs[root][0]
        entry = {"path": root, "commit": _commit(root),
                 "schedules_per_pass": first["schedules"],
                 "steps_per_schedule": round(
                     first["steps"] / first["schedules"], 4),
                 "descent_levels": first["levels"]}
        for name in (LEAF_FIGURES + DESCENT_FIGURES + REBALANCE_FIGURES
                     + EXPLORE_FIGURES + HISTORY_FIGURES + ORACLE_FIGURES):
            entry[name] = _spread([r["timed"][name][0] for r in runs[root]])
            entry[name]["raw_median"] = round(statistics.median(
                r["timed"][name][1] for r in runs[root]), 2)
        for name in RATIOS:
            entry[name] = _spread([r["ratios"][name] for r in runs[root]], 4)
        result["checkouts"].append(entry)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
