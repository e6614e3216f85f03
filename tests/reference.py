"""Independent oracles for cross-checking the tree.

Everything here is implemented from the interval-set semantics and the
size policies directly, sharing no code with the package: a second
interval-set model built on a plain set, the split/merge/redistribute
arithmetic, a brute-force history feasibility check for tiny histories,
the presence bounds evaluated straight from their definitions and the
history checker's rules over them, builders that assemble exact tree
shapes node by node, a leaf scan read off the word layout, a gap-by-gap
starvation screen, a schedule enumerator that replays every prefix from
scratch, round-robin and seeded drivers that take every step one at a
time, the structure check as a recursive walk, the stress workload drawn
through Random.randint, and the sequential oracle on one sorted list.
"""

from __future__ import annotations

import random
from bisect import bisect_left
from itertools import permutations

from lftree.keyspace import MAX_KEY, PAYLOAD_MASK, RO_BIT, encode
from lftree.nodes import IDLE, InternalNode, LeafNode, TreeConfig
from lftree.tree import LeafTree
from lftree.verify import INSERT, REMOVE, SEARCH, Violation


class PlainSetModel:
    """Interval-set semantics on a builtin set; no sorting tricks."""

    def __init__(self, keys=()):
        self.keys = set(keys)

    def apply(self, kind: str, e1: int, e2: int) -> int:
        hits = {k for k in self.keys if e1 <= k <= e2}
        if kind == SEARCH:
            return min(hits) if hits else 0
        if kind == REMOVE:
            if not hits:
                return 0
            low = min(hits)
            self.keys.discard(low)
            return low
        if kind == INSERT:
            if e1 in self.keys:
                return 0
            self.keys.add(e1)
            return 1
        raise ValueError(kind)


class SortedListOracle:
    """verify.SetOracle's public behaviour on one sorted list, which every
    insert and remove shifts: the model its blocks are tested against."""

    def __init__(self, keys=()):
        self._keys = sorted(set(keys))

    def search(self, e1: int, e2=None) -> int:
        e2 = e1 if e2 is None else e2
        j = bisect_left(self._keys, e1)
        if j < len(self._keys) and self._keys[j] <= e2:
            return self._keys[j]
        return 0

    def remove(self, e1: int, e2=None) -> int:
        e2 = e1 if e2 is None else e2
        j = bisect_left(self._keys, e1)
        if j < len(self._keys) and self._keys[j] <= e2:
            return self._keys.pop(j)
        return 0

    def insert(self, e: int) -> bool:
        j = bisect_left(self._keys, e)
        if j < len(self._keys) and self._keys[j] == e:
            return False
        self._keys.insert(j, e)
        return True

    def apply(self, kind: str, e1: int, e2: int) -> int:
        if kind == SEARCH:
            return self.search(e1, e2)
        if kind == REMOVE:
            return self.remove(e1, e2)
        if kind == INSERT:
            return 1 if self.insert(e1) else 0
        raise ValueError(f"unknown op kind: {kind!r}")

    def keys(self) -> list:
        return list(self._keys)


def split_sizes(a: int) -> tuple:
    """Left-heavy halves of a full node's a entries."""
    h = (a + 1) // 2
    return (h, a - h)


def split_keys(keys) -> tuple:
    ordered = sorted(keys)
    h = (len(ordered) + 1) // 2
    return ordered[:h], ordered[h:]


def merge_or_redistribute(a: int, b: int, cap: int) -> tuple:
    """Output sizes for combining a sparse node with its sibling."""
    t = a + b
    if t <= cap - 1:
        return (t,)
    return split_sizes(t)


def band(cfg: TreeConfig) -> tuple:
    return (min(2 * cfg.min_size, cfg.leaf_capacity // 2),
            cfg.leaf_capacity - 1)


def build_flat(cfg: TreeConfig, leaf_keys: list) -> LeafTree:
    """Tree with exactly one internal node over the given leaves.

    Separators are each leaf's max key, so the shape is a valid instance
    of the ordering invariant by construction.
    """
    tree = LeafTree(cfg)
    leaves = []
    for keys in leaf_keys:
        assert keys == sorted(keys) and len(keys) <= cfg.leaf_capacity
        leaves.append(LeafNode(cfg.leaf_capacity,
                               [encode(k) for k in keys]))
    seps = [max(keys) for keys in leaf_keys[:-1]]
    tree.root.children[0] = InternalNode(leaves, seps)
    return tree


def leaf_key_sets(tree: LeafTree) -> list:
    out = []
    for leaf, _, _ in tree.leaves():
        keys = [w & ((1 << 63) - 1) for w in leaf.slots]
        out.append(sorted(k for k in keys if k))
    return out


def feasible(records) -> bool:
    """Whether some serial order of the operations, consistent with the
    records' real-time intervals, reproduces every result. Brute force
    over permutations; only for tiny histories.

    An op that responded at time x precedes one invoked at time x, the
    same endpoint convention the history checker's presence bounds use.
    """
    recs = list(records)
    if len(recs) > 8:
        raise ValueError("brute force capped at 8 records")
    for order in permutations(recs):
        ok = True
        for i, r in enumerate(order):
            # an op cannot take effect before one that finished by its
            # invocation
            if any(s.t2 <= r.t1 for s in order[i + 1:]):
                ok = False
                break
        if not ok:
            continue
        model = PlainSetModel()
        if all(model.apply(r.kind, r.e1, r.e2) == r.result for r in order):
            return True
    return False


# --- presence bounds, straight from their definitions ----------------------


def certainly_present(ins, rem, a: int, b: int) -> bool:
    """Some successful insert (t1, t2) responded by a, and every remove
    (t1, t2) returning the key responded by that insert's invocation or
    was invoked at b or later. O(inserts x removes)."""
    return any(it2 <= a and all(rt2 <= it1 or rt1 >= b for rt1, rt2 in rem)
               for it1, it2 in ins)


def possibly_present(ins, rem, a: int, b: int) -> bool:
    """More successful inserts invoked before b than removes responded by
    a."""
    started = sum(1 for it1, _ in ins if it1 < b)
    finished = sum(1 for _, rt2 in rem if rt2 <= a)
    return started > finished


class ReferenceIndex:
    """The records grouped by key, each presence query answered by the
    definitions above: `ins` (key -> sorted (t1, t2) of its successful
    inserts, every key a successful insert or remove names, in order of
    first appearance) and `rem` (key -> sorted (t2, t1) of its removes)."""

    def __init__(self, records):
        self.ins, self.rem = {}, {}
        for r in records:
            if r.kind == INSERT and r.result == 1:
                key, span = r.e1, (r.t1, r.t2)
                table = self.ins
            elif r.kind == REMOVE and r.result > 0:
                key, span = r.result, (r.t2, r.t1)
                table = self.rem
            else:
                continue
            if key not in self.ins:
                self.ins[key] = []
            table.setdefault(key, []).append(span)
        for table in (self.ins, self.rem):
            for key in table:
                table[key] = sorted(table[key])
        self.keys = sorted(self.ins)

    def _spans(self, e):
        ins = self.ins.get(e, [])
        rem = [(t1, t2) for t2, t1 in self.rem.get(e, [])]
        return ins, rem

    def certainly_present(self, e, a, b):
        return certainly_present(*self._spans(e), a, b)

    def possibly_present(self, e, a, b):
        return possibly_present(*self._spans(e), a, b)

    def certain_in_range(self, e1, e2, a, b):
        j = bisect_left(self.keys, e1)
        while j < len(self.keys) and self.keys[j] <= e2:
            if self.certainly_present(self.keys[j], a, b):
                return self.keys[j]
            j += 1
        return 0


def check_history_by_definition(records) -> list:
    """verify.check_history's violations for well-formed records, in its
    order: each thread's overlaps, then every record's contract rules as
    the verify module docstring states them, over ReferenceIndex, then the
    remove pairing, key by key in order of first appearance."""
    out = [Violation("overlapping-thread-ops", cur,
                     f"thread {cur.tid} invoked at {cur.t1} before "
                     f"{prev.kind} responded at {prev.t2}")
           for cur, prev in thread_overlaps(records)]
    idx = ReferenceIndex(records)
    for r in records:
        kind, e, a, b = r.kind.lower(), r.result, r.t1, r.t2
        if r.kind == INSERT:
            if e == 1 and idx.certainly_present(r.e1, a, b):
                out.append(Violation("insert-over-certain-present", r,
                                     f"{r.e1} was present throughout the "
                                     f"call"))
            if e == 0 and not idx.possibly_present(r.e1, a, b):
                out.append(Violation("failed-insert-never-present", r,
                                     f"{r.e1} was never there to collide "
                                     f"with"))
        elif e == 0:
            hit = idx.certain_in_range(r.e1, r.e2, a, b)
            if hit:
                out.append(Violation(f"failed-{kind}-certain-match", r,
                                     f"{hit} was present throughout the "
                                     f"call"))
        elif not r.e1 <= e <= r.e2:
            out.append(Violation("result-outside-range", r, f"returned {e}"))
        else:
            if not idx.possibly_present(e, a, b):
                out.append(Violation(f"{kind}-result-never-present", r,
                                     f"{e} could not have been in the tree"))
            hit = r.kind == REMOVE and idx.certain_in_range(r.e1, e - 1, a, b)
            if hit:
                out.append(Violation("remove-not-minimal", r,
                                     f"{hit} < {e} was present throughout"))
    # the i-th remove of a key to respond needs i inserts invoked before it
    for key, spans in idx.ins.items():
        for i, (rt2, _) in enumerate(idx.rem.get(key, []), 1):
            available = sum(1 for it1, _ in spans if it1 < rt2)
            if available < i:
                out.append(Violation(
                    "remove-unpaired", None,
                    f"{i} removes of {key} responded by {rt2} but only "
                    f"{available} inserts were invoked"))
                break
    return out


def thread_overlaps(records) -> list:
    """(record, predecessor) for every record invoked before the previous
    record of its thread responded: threads in order of first appearance,
    each one's records sorted by (t1, t2)."""
    by_tid = {}
    for r in records:
        by_tid.setdefault(r.tid, []).append(r)
    out = []
    for rs in by_tid.values():
        rs = sorted(rs, key=lambda r: (r.t1, r.t2))
        out += [(cur, prev) for prev, cur in zip(rs, rs[1:])
                if cur.t1 < prev.t2]
    return out


# --- leaf words, straight from the keyspace definition ----------------------


def scan_by_definition(words, e1: int, e2: int) -> tuple:
    """What a scan of a leaf's `words` over [e1, e2] must find. A word's top
    bit (of 64) is its read-only flag and the low 63 bits its payload;
    payload 0 is no key, so a writable 0 is an empty slot and a read-only 0
    a dead one. Returns ((payload, slot, word) of the smallest in-range key,
    first slot on a tie, else (0, -1, 0); the first writable empty slot or
    -1; the number of keys, read-only or not)."""
    keys, empty = [], -1
    for slot, word in enumerate(words):
        read_only, payload = divmod(word, 2 ** 63)
        if payload:
            keys.append((payload, slot, word))
        elif not read_only and empty < 0:
            empty = slot
    hits = [k for k in keys if e1 <= k[0] <= e2]
    return min(hits, default=(0, -1, 0)), empty, len(keys)


# --- starvation screen, gap by gap -------------------------------------------


def progress_audit_by_scan(records, window: int) -> list:
    """verify.progress_audit from its definition: every op that ran longer
    than `window`, then every gap longer than `window` between consecutive
    responses that some op spans (invoked by its start, responded by its
    end), each gap checked against every op. Quadratic."""
    reports = [f"op ran {r.t2 - r.t1} > {window}: {r.line()}"
               for r in records if r.t2 - r.t1 > window]
    responses = sorted(r.t2 for r in records)
    for a, b in zip(responses, responses[1:]):
        if b - a > window and any(r.t1 <= a and r.t2 >= b for r in records):
            reports.append(f"no response between {a} and {b}")
    return reports


# --- schedule enumeration, every prefix replayed from scratch ---------------


class _Clock:
    def __init__(self):
        self.t = 0


class _Thread:
    """What a check sees of a driven generator."""

    def __init__(self, gen):
        self.gen, self.done, self.result = gen, False, None


def explore_by_replay(setup, check=None, bound=None) -> tuple:
    """Reference for sim.explore, from its definition: (schedules,
    failures) of a depth-first walk of the choice tree in which every node
    of the tree, leaf or not, replays its prefix from a fresh setup.

    A branch point is a step, among the first `bound` (all if None), at
    which two or more threads are runnable; the choices made there, in
    order, are the schedule. At every other step the lowest-numbered
    runnable thread steps. Each step ticks the clock. A complete schedule
    is checked; an AssertionError from the check is a problem."""
    failures = []
    schedules = 0

    def visit(prefix):
        nonlocal schedules
        clock = _Clock()
        ctx, gens = setup(clock)
        threads = [_Thread(g) for g in gens]
        choices = list(prefix)
        steps = 0
        while True:
            runnable = [i for i, th in enumerate(threads) if not th.done]
            if not runnable:
                break
            if len(runnable) > 1 and (bound is None or steps < bound):
                if not choices:
                    for i in runnable:
                        visit(prefix + (i,))
                    return
                pick = choices.pop(0)
            else:
                pick = runnable[0]
            th = threads[pick]
            clock.t += 1
            steps += 1
            try:
                next(th.gen)
            except StopIteration as stop:
                th.done, th.result = True, stop.value
        schedules += 1
        if check is not None:
            try:
                problems = check(ctx, threads, prefix)
            except AssertionError as exc:
                problems = [f"assertion: {exc}"]
            if problems:
                failures.append((prefix, list(problems)))

    visit(())
    return schedules, failures


def _take_step(th, clock):
    """One scheduler step: tick the clock (if any), advance the generator."""
    if clock is not None:
        clock.t += 1
    try:
        next(th.gen)
    except StopIteration as stop:
        th.done, th.result = True, stop.value


def round_robin_by_step(gens, clock=None) -> list:
    """Reference for sim.run_round_robin: rounds over the threads still
    runnable when the round starts, one step each, until all finish.
    Returns the results in thread order."""
    threads = [_Thread(g) for g in gens]
    while True:
        runnable = [th for th in threads if not th.done]
        if not runnable:
            return [th.result for th in threads]
        for th in runnable:
            _take_step(th, clock)


def seeded_by_step(setup, check=None, seed: int = 0, runs: int = 1) -> tuple:
    """Reference for sim.run_seeded: (runs, failures). Each run sets up with
    a fresh clock and, while any thread is runnable, picks one: uniformly
    by one draw from Random(seed) when two or more are, else the last one
    without a draw. The schedule handed to `check` is every pick."""
    rng = random.Random(seed)
    failures = []
    for _ in range(runs):
        clock = _Clock()
        ctx, gens = setup(clock)
        threads = [_Thread(g) for g in gens]
        picks = []
        while True:
            runnable = [i for i, th in enumerate(threads) if not th.done]
            if not runnable:
                break
            if len(runnable) > 1:
                pick = runnable[rng.randrange(len(runnable))]
            else:
                pick = runnable[0]
            picks.append(pick)
            _take_step(threads[pick], clock)
        if check is not None:
            try:
                problems = check(ctx, threads, tuple(picks))
            except AssertionError as exc:
                problems = [f"assertion: {exc}"]
            if problems:
                failures.append((tuple(picks), list(problems)))
    return runs, failures


# --- structure invariants, one recursive walk --------------------------------


def check_structure_by_walk(tree) -> list:
    """Reference for LeafTree.check_structure: a recursive walk, left to
    right, that reports each node's own violations before its children's,
    then leaves at different depths."""
    cfg = tree.config
    bad = []
    seen, seen_keys, leaf_depths = set(), set(), set()

    root = tree.root
    if len(root.children) != 1 or root.separators:
        bad.append("root must have exactly one child and no separators")
    if not isinstance(root.children[0], InternalNode):
        bad.append("root's child must be an internal node")

    def walk(node, lo, hi, depth):
        if id(node) in seen:
            bad.append(f"node reached twice: {node!r}")
            return
        seen.add(id(node))
        if isinstance(node, LeafNode):
            leaf_depths.add(depth)
            if len(node.slots) != cfg.leaf_capacity:
                bad.append(f"leaf has {len(node.slots)} slots")
            local = set()
            for w in node.slots:
                p = w & PAYLOAD_MASK
                if w & RO_BIT and p:
                    bad.append(f"frozen key {p} in a reachable leaf")
                if not p:
                    continue
                if not lo < p <= hi:
                    bad.append(f"key {p} outside its leaf range ({lo}, {hi}]")
                if p in local:
                    bad.append(f"key {p} twice in one leaf")
                local.add(p)
                if p in seen_keys:
                    bad.append(f"key {p} in two leaves")
                seen_keys.add(p)
            return
        st = node.status[0]
        if st[2] != IDLE:
            bad.append(f"non-idle status at quiesce: {st}")
        seps = node.separators
        n = len(node.children)
        if n != len(seps) + 1:
            bad.append(f"{n} children with {len(seps)} separators")
        if n < 1:
            bad.append("internal node with no children")
        for j in range(len(seps)):
            s = seps[j]
            if not lo < s < hi:
                bad.append(f"separator {s} outside ({lo}, {hi})")
            if j > 0 and seps[j - 1] >= s:
                bad.append(f"separators not increasing: {seps}")
        kinds = {isinstance(c, LeafNode) for c in node.children}
        if len(kinds) > 1:
            bad.append("mixed leaf and internal children")
        for j, child in enumerate(node.children):
            clo = seps[j - 1] if j > 0 else lo
            chi = seps[j] if j < len(seps) else hi
            walk(child, clo, chi, depth + 1)

    walk(root, 0, MAX_KEY, 0)
    if len(leaf_depths) > 1:
        bad.append(f"leaves at different depths: {sorted(leaf_depths)}")
    return bad


# --- workloads, drawn through Random.randint --------------------------------


def make_ops_by_randint(cfg, tid: int) -> list:
    """Reference for harness.make_ops: the same stream, each key and span
    drawn by Random.randint."""
    rng = random.Random(cfg.seed * 7919 + tid * 104729 + 1)
    ws, wi, _ = (w / sum(cfg.mix) for w in cfg.mix)
    top = cfg.key_range
    span_max = max(1, top >> 8)
    ops = []
    for _ in range(cfg.ops_per_thread):
        r = rng.random()
        if r < ws:
            e1 = rng.randint(1, top)
            ops.append((SEARCH, e1, min(top, e1 + rng.randint(0, span_max))))
        elif r < ws + wi:
            e = rng.randint(1, top)
            ops.append((INSERT, e, e))
        else:
            e1 = rng.randint(1, top)
            ops.append((REMOVE, e1, min(top, e1 + rng.randint(0, span_max))))
    return ops
