"""Cooperative rebalancing: advertise, freeze, replace, clear.

A rebalance is advertised on the grandparent of the unbalanced node by
CASing the grandparent's status from (0, 0, seq, IDLE) to
(parent_key, unbalanced_key, seq, PREP). From that point any thread can
drive it to completion by replaying `execute`, which is a deterministic
function of the status tuple and the frozen content it finds:

  1. locate the parent by parent_key and freeze it (an internal node with
     its own pending rebalance is helped to completion first; freezing is a
     one-way status CAS, leaf slots are frozen word by word),
  2. locate the unbalanced node by unbalanced_key inside the frozen parent,
     freeze it, pick and freeze a sibling if the action needs one,
  3. build a replacement parent from the frozen content (pure computation,
     so every helper builds the same thing),
  4. advance the status PREP -> SWAP,
  5. CAS the grandparent's child link from the old parent to the
     replacement; object identity guarantees at most one such CAS ever
     succeeds, because a replaced parent object is never linked again,
  6. CAS the status to (0, 0, seq + 1, IDLE).

Between a helper's status check and its freeze CAS the rebalance may
complete; the guard re-reads the status immediately before every freeze CAS
to narrow that window, and descent-side orphan repair (tree.py) makes the
residual case harmless. A helper that observes step SWAP but finds the
child link already pointing at an unfrozen node knows the swap happened and
only attempts the clear.

Plan records and the count of retired (unlinked) nodes are the duty of the
link-swap winner, which is unique; status clearing may be done by anyone.
CPython's GC frees the unlinked nodes once no thread holds them.
"""

from __future__ import annotations

import threading
from typing import NamedTuple

from .cells import cas, cas_status
from .keyspace import PAYLOAD_MASK, RO_BIT
from .nodes import FROZEN, IDLE, PREP, SWAP, InternalNode, LeafNode, node_search

SPLIT = "split"
MERGE = "merge"
REDISTRIBUTE = "redistribute"
REBUILD = "rebuild"
GROW = "grow"
SHRINK = "shrink"


class RebalanceRecord(NamedTuple):
    kind: str            # "leaf" | "internal" | "root"
    action: str
    inputs: tuple
    outputs: tuple
    final: bool          # replacement parent has a single child
    preserved: bool      # input key multiset == output key multiset
    clean: bool          # inputs consistent with an uncontended trigger


class RebalanceStats:
    def __init__(self):
        self.lock = threading.Lock()
        self.begins = 0
        self.link_swaps = 0
        self.retired = 0        # nodes unlinked by link swaps
        self.clears = 0
        self.helper_clears = 0
        self.records: list[RebalanceRecord] = []

    def snapshot(self) -> dict:
        with self.lock:
            return {
                "begins": self.begins,
                "link_swaps": self.link_swaps,
                "retired": self.retired,
                "clears": self.clears,
                "helper_clears": self.helper_clears,
                "records": list(self.records),
            }


# NamedTuples built without their Python-level __new__, as harness._run
# builds an OpRecord
_new_tuple = tuple.__new__


class _Plan(NamedTuple):
    new_parent: InternalNode
    record: RebalanceRecord
    retire: tuple        # nodes the swap unlinks


def live_keys(words) -> list[int]:
    """Sorted payloads of the non-empty words, read-only or not."""
    keys = [w & PAYLOAD_MASK for w in words if w & PAYLOAD_MASK]
    keys.sort()
    return keys


# --- generator phases -------------------------------------------------------
# Every shared-word access is preceded by a bare yield so the schedule
# explorer can interleave at each one. Real threads run the yield-free
# copies that tree.py derives from these (see derive.py).


def begin(tree, grand, parent_key: int, unbalanced_key: int):
    """Advertise a rebalance at `grand`. True iff this thread installed it."""
    yield
    st = grand.status
    if st[3] != IDLE:
        return False
    new = (parent_key, unbalanced_key, st[2], PREP)
    yield
    if cas_status(grand, st, new):
        stats = tree.stats
        stats.lock.acquire()
        try:
            stats.begins += 1
        finally:
            stats.lock.release()
        return True
    return False


def trigger(tree, grand, key: int):
    """Begin-or-help. Ensures one rebalance completes at `grand`: our own if
    the status was idle, else the pending one. Returns True iff we began."""
    won = yield from begin(tree, grand, key, key)
    yield
    st = grand.status
    if st[3] in (PREP, SWAP):
        yield from execute(tree, grand, st, helped=not won)
    return won


def help_pending(tree, node) -> bool:
    """Drive any rebalance advertised at `node` to completion."""
    yield
    st = node.status
    if st[3] in (PREP, SWAP):
        yield from execute(tree, node, st, helped=True)
        return True
    return False


def freeze_internal(tree, grand, live, node):
    """One-way freeze of an internal node's status. Helps the node's own
    pending rebalance first: a frozen node's links must never change, so its
    last rebalance has to finish before the freeze lands. False = the
    rebalance named by `live` is over, caller must abandon."""
    while True:
        yield
        st = node.status
        if st[3] == FROZEN:
            return True
        if st[3] in (PREP, SWAP):
            yield from execute(tree, node, st, helped=True)
            continue
        yield
        cur = grand.status
        if cur not in live:
            return False
        yield
        cas_status(node, st, (0, 0, st[2], FROZEN))


def freeze_leaf(tree, grand, live, leaf):
    """Set the read-only bit on every slot. Returns the frozen words, or
    None if the rebalance completed under us. Idempotent: replaying helpers
    find the bits already set and just collect."""
    words = []
    slots = leaf.slots
    for i in range(len(slots)):
        while True:
            yield
            w = slots[i]
            if w & RO_BIT:
                words.append(w)
                break
            yield
            cur = grand.status
            if cur not in live:
                return None
            yield
            if cas(slots, i, w, w | RO_BIT):
                words.append(w | RO_BIT)
                break
    return words


def execute(tree, grand, st, helped: bool = False):
    """Drive the rebalance advertised by status tuple `st` to completion."""
    pk, uk, seq, step = st
    if step not in (PREP, SWAP):
        return
    live = ((pk, uk, seq, PREP), (pk, uk, seq, SWAP))

    jp = node_search(grand.separators, pk)
    links = grand.children
    yield
    parent = links[jp]
    assert isinstance(parent, InternalNode), "parent level holds internals only"

    yield
    cur = grand.status
    if cur not in live:
        return
    if cur[3] == SWAP:
        # an unfrozen child at step SWAP means the link swap already
        # happened; the only duty left is the clear
        yield
        pst = parent.status
        if pst[3] != FROZEN:
            yield from _clear(tree, grand, live[1], helped)
            return

    ok = yield from freeze_internal(tree, grand, live, parent)
    if not ok:
        return

    plan = yield from _build_plan(tree, grand, live, parent, uk)
    if plan is None:
        return

    yield
    cur = grand.status
    if cur == live[0]:
        yield
        cas_status(grand, cur, live[1])
        yield
        cur = grand.status
    if cur != live[1]:
        return

    yield
    if links[jp] is parent:
        yield
        if cas(links, jp, parent, plan.new_parent):
            stats = tree.stats
            stats.lock.acquire()
            try:
                stats.link_swaps += 1
                stats.retired += len(plan.retire)
                stats.records.append(plan.record)
            finally:
                stats.lock.release()

    yield from _clear(tree, grand, live[1], helped)


def _clear(tree, grand, swap_status, helped):
    pk, uk, seq, _ = swap_status
    yield
    if cas_status(grand, swap_status, (0, 0, seq + 1, IDLE)):
        stats = tree.stats
        stats.lock.acquire()
        try:
            stats.clears += 1
            if helped:
                stats.helper_clears += 1
        finally:
            stats.lock.release()


# --- plan construction ------------------------------------------------------


def _links(node):
    """The child links of a frozen internal node, one read per link."""
    links = node.children
    vals = []
    for i in range(len(links)):
        yield
        vals.append(links[i])
    return vals


def _build_plan(tree, grand, live, parent, uk):
    """Freeze the remaining targets and build the replacement parent.

    Deterministic given the frozen content, so concurrent executors build
    content-identical plans and the single link-swap winner may install any
    of them. Returns None if the rebalance completed while freezing."""
    cfg = tree.config
    K, D, S = cfg.order, cfg.leaf_capacity, cfg.min_size

    if grand is tree.root:
        n = len(parent.children)
        if n > K:
            return (yield from _plan_grow(tree, grand, live, parent))
        if n == 1:
            yield
            only = parent.children[0]
            if isinstance(only, InternalNode):
                return (yield from _plan_shrink(tree, grand, live, parent, only))
            # single leaf child: fall through, uk names the leaf

    pvals = yield from _links(parent)

    ju = node_search(parent.separators, uk)
    unb = pvals[ju]

    if isinstance(unb, LeafNode):
        return (yield from _plan_leaf(tree, grand, live, parent, pvals, ju))
    return (yield from _plan_internal(tree, grand, live, parent, pvals, ju))


def _plan_leaf(tree, grand, live, parent, pvals, ju):
    cfg = tree.config
    D, S = cfg.leaf_capacity, cfg.min_size
    band_min = min(2 * S, D // 2)
    unb = pvals[ju]

    words = yield from freeze_leaf(tree, grand, live, unb)
    if words is None:
        return None
    keys = live_keys(words)
    a = len(keys)

    if a == D:
        h = (a + 1) // 2
        left, right = keys[:h], keys[h:]
        new = [_leaf(D, left), _leaf(D, right)]
        children = pvals[:ju] + new + pvals[ju + 1:]
        seps = _insert_sep(parent.separators, ju, left[-1])
        rec = _rec("leaf", SPLIT, (a,), (h, a - h), len(children) == 1,
                   _leaves_hold(new, keys), True)
        return _finish(parent, (unb,), children, seps, rec)

    if a <= S and len(pvals) >= 2:
        js = ju + 1 if ju + 1 < len(pvals) else ju - 1
        sib = pvals[js]
        swords = yield from freeze_leaf(tree, grand, live, sib)
        if swords is None:
            return None
        skeys = live_keys(swords)
        b = len(skeys)
        combined = sorted(keys + skeys)
        t = a + b
        lo, hi = min(ju, js), max(ju, js)
        clean = b >= S and (a == S or (a == S - 1 and band_min == S))
        if t <= D - 1:
            new = [_leaf(D, combined)]
            children = pvals[:lo] + new + pvals[hi + 1:]
            seps = _remove_sep(parent.separators, lo)
            rec = _rec("leaf", MERGE, (a, b), (t,), len(children) == 1,
                       _leaves_hold(new, combined), clean)
        else:
            h = (t + 1) // 2
            left, right = combined[:h], combined[h:]
            new = [_leaf(D, left), _leaf(D, right)]
            children = list(pvals)
            children[lo], children[hi] = new
            seps = _replace_sep(parent.separators, lo, left[-1])
            rec = _rec("leaf", REDISTRIBUTE, (a, b), (h, t - h), False,
                       _leaves_hold(new, combined), clean)
        return _finish(parent, (unb, sib), children, seps, rec)

    # raced trigger, dead-slot compaction, or sparse sole child: copy live
    # keys into a fresh writable leaf
    new = [_leaf(D, keys)]
    children = list(pvals)
    children[ju] = new[0]
    rec = _rec("leaf", REBUILD, (a,), (a,), len(children) == 1,
               _leaves_hold(new, keys), False)
    return _finish(parent, (unb,), children, parent.separators, rec)


def _plan_internal(tree, grand, live, parent, pvals, ju):
    cfg = tree.config
    K, S = cfg.order, cfg.min_size
    unb = pvals[ju]

    ok = yield from freeze_internal(tree, grand, live, unb)
    if not ok:
        return None
    uvals = yield from _links(unb)
    c_n = len(uvals)

    if c_n > K:
        h = (c_n + 1) // 2
        lnode = InternalNode(uvals[:h], unb.separators[:h - 1])
        rnode = InternalNode(uvals[h:], unb.separators[h:])
        children = pvals[:ju] + [lnode, rnode] + pvals[ju + 1:]
        seps = _insert_sep(parent.separators, ju, unb.separators[h - 1])
        rec = _rec("internal", SPLIT, (c_n,), (h, c_n - h),
                   len(children) == 1, _nodes_hold([lnode, rnode], uvals), False)
        return _finish(parent, (unb,), children, seps, rec)

    if c_n < S and len(pvals) >= 2:
        js = ju + 1 if ju + 1 < len(pvals) else ju - 1
        sib = pvals[js]
        ok = yield from freeze_internal(tree, grand, live, sib)
        if not ok:
            return None
        svals = yield from _links(sib)
        lo, hi = min(ju, js), max(ju, js)
        lvals, rvals = (uvals, svals) if ju == lo else (svals, uvals)
        lseps = unb.separators if ju == lo else sib.separators
        rseps = sib.separators if ju == lo else unb.separators
        demoted = parent.separators[lo]
        allvals = lvals + rvals
        allseps = lseps + (demoted,) + rseps
        t = len(allvals)
        if t <= K:
            merged = InternalNode(allvals, allseps)
            children = pvals[:lo] + [merged] + pvals[hi + 1:]
            seps = _remove_sep(parent.separators, lo)
            rec = _rec("internal", MERGE, (c_n, len(svals)), (t,),
                       len(children) == 1, _nodes_hold([merged], allvals), False)
        else:
            h = (t + 1) // 2
            lnode = InternalNode(allvals[:h], allseps[:h - 1])
            rnode = InternalNode(allvals[h:], allseps[h:])
            children = list(pvals)
            children[lo], children[hi] = lnode, rnode
            seps = _replace_sep(parent.separators, lo, allseps[h - 1])
            rec = _rec("internal", REDISTRIBUTE, (c_n, len(svals)), (h, t - h),
                       False, _nodes_hold([lnode, rnode], allvals), False)
        return _finish(parent, (unb, sib), children, seps, rec)

    rebuilt = InternalNode(uvals, unb.separators)
    children = list(pvals)
    children[ju] = rebuilt
    rec = _rec("internal", REBUILD, (c_n,), (c_n,), len(children) == 1,
               _nodes_hold([rebuilt], uvals), False)
    return _finish(parent, (unb,), children, parent.separators, rec)


def _plan_grow(tree, grand, live, parent):
    """Root's child has too many children: push a level down."""
    pvals = yield from _links(parent)
    n = len(pvals)
    h = (n + 1) // 2
    lnode = InternalNode(pvals[:h], parent.separators[:h - 1])
    rnode = InternalNode(pvals[h:], parent.separators[h:])
    top = InternalNode([lnode, rnode], (parent.separators[h - 1],))
    rec = _rec("root", GROW, (n,), (h, n - h), False,
               _nodes_hold([lnode, rnode], pvals), False)
    return _new_tuple(_Plan, (top, rec, (parent,)))


def _plan_shrink(tree, grand, live, parent, only):
    """Root's child has a single internal child: drop a level."""
    ok = yield from freeze_internal(tree, grand, live, only)
    if not ok:
        return None
    vals = yield from _links(only)
    dropped = InternalNode(vals, only.separators)
    rec = _rec("root", SHRINK, (1, len(vals)), (len(vals),), False,
               _nodes_hold([dropped], vals), False)
    return _new_tuple(_Plan, (dropped, rec, (parent, only)))


# --- small pure helpers -----------------------------------------------------


def _leaf(capacity: int, keys) -> LeafNode:
    # payloads of frozen words: valid keys, already in their word form
    return LeafNode(capacity, keys)


def _leaves_hold(leaves, expected_keys) -> bool:
    """Read-back check: the fresh leaves carry exactly the planned keys."""
    held = [w & PAYLOAD_MASK for lf in leaves for w in lf.slots
            if w & PAYLOAD_MASK]
    held.sort()
    return held == expected_keys


def _nodes_hold(nodes, expected_vals) -> bool:
    """Read-back check: the fresh internals link exactly the planned
    children, compared by object identity."""
    held = [id(c) for nd in nodes for c in nd.children]
    held.sort()
    want = [id(v) for v in expected_vals]
    want.sort()
    return held == want


def _insert_sep(seps: tuple, j: int, value: int) -> tuple:
    return seps[:j] + (value,) + seps[j:]

def _remove_sep(seps: tuple, j: int) -> tuple:
    return seps[:j] + seps[j + 1:]

def _replace_sep(seps: tuple, j: int, value: int) -> tuple:
    return seps[:j] + (value,) + seps[j + 1:]


def _rec(kind, action, inputs: tuple, outputs: tuple, final, preserved,
         clean) -> RebalanceRecord:
    return _new_tuple(RebalanceRecord, (kind, action, inputs, outputs, final,
                                        preserved, clean))


def _finish(parent, frozen: tuple, children, seps, rec) -> _Plan:
    new_parent = InternalNode(children, seps)
    return _new_tuple(_Plan, (new_parent, rec, (parent,) + frozen))
