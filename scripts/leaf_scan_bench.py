"""Leaf scan cost per slot at D=32 and CAS cost per call: the "leaf scan
per D" and "cell CAS" layers.

    python3 scripts/leaf_scan_bench.py [--reps 41] [--seed 1]

Imports lftree from the `src/` of the checkout it sits in. Builds a
K=D=32, S=8 tree holding a seeded half of [1, 2^16] (the read-k32
prefill), takes its leaves, and pairs each with a search range of width up
to 256 around one of its keys. Then it times the yield-free copies of the
tree's leaf scans over all pairs: `_scan` (what remove uses) and, where the
checkout has them, `_find` (the search-only scan) and `_probe` (the
insert-only probe, for the range's lower end). It also times
`cells.cas` over every slot of those leaves, each a successful CAS that
writes back the value it found, so the tree does not change; every shared
word, status included, goes through that one CAS. The timed loops take
turns pass by pass, so a drift in machine speed hits all alike. Prints,
per core, the median and quartiles over the passes of nanoseconds per slot
read, and for the CAS the same of nanoseconds per call, as one JSON line.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import statistics
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "src"))

from lftree import LeafTree, TreeConfig  # noqa: E402
from lftree import cells  # noqa: E402
from lftree import tree as tree_mod  # noqa: E402

KEY_RANGE = 1 << 16
WIDTH = 256


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--reps", type=int, default=41)
    p.add_argument("--seed", type=int, default=1)
    args = p.parse_args(argv)
    if args.reps < 2:
        p.error("--reps must be >= 2")

    rng = random.Random(args.seed)
    tree = LeafTree(TreeConfig(order=32, leaf_capacity=32, min_size=8))
    for k in rng.sample(range(1, KEY_RANGE + 1), KEY_RANGE // 2):
        tree.insert(k)
    pairs = []
    for leaf, lo, hi in tree.leaves():
        e1 = rng.randint(max(1, lo - WIDTH), hi)
        pairs.append((leaf, e1, min(KEY_RANGE, e1 + rng.randint(0, WIDTH))))
    slots = sum(len(leaf.slots) for leaf, _, _ in pairs)

    # name -> (function, argument tuples of one pass, unit count per pass)
    direct = tree_mod._direct
    loops = {name: (getattr(direct, name), pairs, slots)
             for name in ("_scan", "_find") if hasattr(direct, name)}
    if hasattr(direct, "_probe"):
        loops["_probe"] = (direct._probe,
                           [(leaf, e1) for leaf, e1, _ in pairs], slots)
    words = [(leaf.slots, i, w, w) for leaf, _, _ in pairs
             for i, w in enumerate(leaf.slots)]
    loops["cas"] = (cells.cas, words, len(words))
    ns = {name: [] for name in loops}
    for _ in range(args.reps):
        for name, (fn, calls, units) in loops.items():
            t0 = time.perf_counter_ns()
            for call in calls:
                fn(*call)
            ns[name].append((time.perf_counter_ns() - t0) / units)

    out = {"python": platform.python_version(), "nproc": os.cpu_count(),
           "leaf_capacity": 32, "leaves": len(pairs), "reps": args.reps,
           "seed": args.seed, "ns_per_slot": {}, "ns_per_call": {}}
    for name, xs in ns.items():
        q1, med, q3 = statistics.quantiles(xs, n=4)
        unit = "ns_per_call" if name == "cas" else "ns_per_slot"
        out[unit][name] = {"median": round(med, 2), "q1": round(q1, 2),
                           "q3": round(q3, 2)}
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
