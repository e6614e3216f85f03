"""Cost of one explored schedule, layer by layer: the "sim step" and
"history check" layers on the explore-small workload.

    python3 scripts/sim_layer_bench.py [--passes 5] [CHECKOUT ...]

Each CHECKOUT is the root of a source checkout of lftree (default: the one
this script sits in); give two, say a parent and a change, to compare
them. A pass explores criterion 8's first 60 seeded 3-op x 3-op pairs
(K=3, D=4, S=2, step bound 8, the empty and the split-forcing prestate
alternating: 256 schedules each, 15,360 in all) and checks every schedule
the way perfbench's explore-small does. Every pass runs each checkout in
turn, each in a fresh process, the first one alternating from pass to
pass, so a drift in machine speed hits all alike. A pass reports:

  steps_per_schedule   clock steps per schedule, read from the clock at
                       the check (the prestate's steps included)
  ns_per_step          explore time outside setup and check, per step
                       taken there (the prestate's steps are setup's)
  setup_us             setup per schedule: tree, prestate, generators
  check_history_us     check_history per schedule
  check_structure_us   LeafTree.check_structure per schedule
  snapshot_us          LeafTree.snapshot + snapshot_consistent per schedule
  schedule_us          the whole explore time per schedule

Prints one JSON line: per checkout, the median and quartiles over the
passes of each figure, and the commit it is at.
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
PAIRS = 60
BOUND = 8
FIGURES = ("steps_per_schedule", "ns_per_step", "setup_us",
           "check_history_us", "check_structure_us", "snapshot_us",
           "schedule_us")


def one_pass(checkout: str) -> dict:
    """Explore every pair once with the lftree of `checkout`."""
    sys.path.insert(0, os.path.join(checkout, "src"))
    from lftree import sim
    from lftree.nodes import TreeConfig
    from lftree.tree import LeafTree
    from lftree.verify import (INSERT, REMOVE, SEARCH, check_history,
                               snapshot_consistent)

    cfg = TreeConfig(order=3, leaf_capacity=4, min_size=2)
    keys = (1, 2, 3, 4)
    alphabet = ([(SEARCH, k, k) for k in keys] + [(INSERT, k, k) for k in keys]
                + [(REMOVE, k, k) for k in keys]
                + [(SEARCH, 1, 4), (SEARCH, 2, 3),
                   (REMOVE, 1, 4), (REMOVE, 2, 3)])
    prestates = ((), (10, 20, 30, 40, 50))
    rng = random.Random(2024)
    pairs = [(prestates[i % 2], tuple(rng.choice(alphabet) for _ in range(3)),
              tuple(rng.choice(alphabet) for _ in range(3)))
             for i in range(PAIRS)]
    pc = time.perf_counter
    spent = dict.fromkeys(("setup", "history", "structure", "snapshot"), 0.0)
    steps = drive_steps = schedules = 0

    def explore_pair(pre, wa, wb):
        def setup(clock):
            t0 = pc()
            tree = LeafTree(cfg)
            records = []
            if pre:
                sim.run_round_robin(
                    [sim.op_thread(tree, clock, 2,
                                   [(INSERT, k, k) for k in pre], records)],
                    clock)
            gens = [sim.op_thread(tree, clock, 0, list(wa), records),
                    sim.op_thread(tree, clock, 1, list(wb), records)]
            spent["setup"] += pc() - t0
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
            spent["history"] += t1 - t0
            spent["structure"] += t2 - t1
            spent["snapshot"] += t3 - t2
            return problems

        return sim.explore(setup, check, bound=BOUND)

    t0 = pc()
    for pair in pairs:
        report = explore_pair(*pair)
        if report.failures:
            raise SystemExit(f"failing schedules for {pair}: "
                             f"{report.failures[:1]}")
        schedules += report.schedules
    total = pc() - t0
    drive = total - sum(spent.values())
    us = 1e6 / schedules
    return {"steps_per_schedule": steps / schedules,
            "ns_per_step": drive / drive_steps * 1e9,
            "setup_us": spent["setup"] * us,
            "check_history_us": spent["history"] * us,
            "check_structure_us": spent["structure"] * us,
            "snapshot_us": spent["snapshot"] * us,
            "schedule_us": total * us,
            "schedules": schedules}


def _commit(checkout: str) -> str:
    try:
        return subprocess.run(["git", "-C", checkout, "rev-parse", "--short",
                               "HEAD"], capture_output=True, text=True,
                              check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


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
        order = roots if i % 2 == 0 else roots[::-1]
        for root in order:
            out = subprocess.run([sys.executable, __file__, "--one", root],
                                 capture_output=True, text=True, check=True)
            runs[root].append(json.loads(out.stdout))

    result = {"python": platform.python_version(), "nproc": os.cpu_count(),
              "passes": args.passes, "pairs": PAIRS, "bound": BOUND,
              "checkouts": []}
    for root in roots:
        entry = {"path": root, "commit": _commit(root),
                 "schedules_per_pass": runs[root][0]["schedules"]}
        for name in FIGURES:
            xs = [r[name] for r in runs[root]]
            if len(xs) > 1:
                q1, med, q3 = statistics.quantiles(xs, n=4)
            else:
                q1 = med = q3 = xs[0]
            entry[name] = {"median": round(med, 2), "q1": round(q1, 2),
                           "q3": round(q3, 2)}
        result["checkouts"].append(entry)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
