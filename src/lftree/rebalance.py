"""Cooperative rebalancing: advertise, freeze, replace, clear.

A rebalance is advertised on the grandparent of the unbalanced node by
CASing the grandparent's status from (0, seq, IDLE) to (key, seq, PREP),
key being any key the unbalanced node covers. From that point any thread
can drive it to completion by replaying `execute`, which is a deterministic
function of the status tuple and the frozen content it finds:

  1. locate the parent by key and freeze it (an internal node with its own
     pending rebalance is helped to completion first; freezing is a one-way
     status CAS, leaf slots are frozen word by word),
  2. locate the unbalanced node by the same key inside the frozen parent,
     freeze it, pick and freeze a sibling if the action needs one,
  3. build a replacement parent from the frozen content (pure computation,
     so every helper builds the same thing): every reshape is one splice
     of the frozen parent's children, lo..hi replaced by fresh nodes (a
     root grow replaces all of them by their two halves); only a root
     shrink instead relinks the children of the parent's single child,
  4. advance the status PREP -> SWAP,
  5. CAS the grandparent's child link from the old parent to the
     replacement; object identity guarantees at most one such CAS ever
     succeeds, because a replaced parent object is never linked again,
  6. CAS the status to (0, seq + 1, IDLE).

Between a helper's status check and its freeze CAS the rebalance may
complete; the guard re-reads the status immediately before every freeze CAS
to narrow that window. In the residual case a frozen node stays linked
after its rebalance is over. A descent that meets it (tree.py) triggers a
rebalance at its grandparent (the root, for the root's child), which finds
it pre-frozen and replaces it. A helper that observes step SWAP but finds
the child link already pointing at an unfrozen node knows the swap
happened and only attempts the clear.

Plan records are the duty of the link-swap winner, which is unique; status
clearing may be done by anyone. No lock is taken on the rebalance path: the
only shared writes are the word CASes and the appends that count a begin,
a link swap and a clear in RebalanceStats, which says why a lock around
those counts convoyed and an atomic `list.append` does not.
CPython's GC frees the unlinked nodes once no thread holds them.
"""

from __future__ import annotations

from typing import NamedTuple

from .cells import cas
from .keyspace import DEAD, EMPTY, RO_BIT
from .nodes import (FROZEN, IDLE, PREP, SWAP, InternalNode, LeafNode,
                    node_search)

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
    preserved: bool      # outputs hold the input keys/children, in order
    clean: bool          # inputs consistent with an uncontended trigger


class RebalanceStats:
    """Rebalance counts, kept as append-only lists under no lock.

    A successful `begin` appends None to `begun` (only the count is kept),
    the link-swap winner its record to `records`, and a successful clear
    whether a helper made it to `cleared`. `list.append` is atomic in
    CPython, in the free-threaded build too (Python FAQ, "What kinds of
    global value mutation are thread-safe?"), so no count is lost.

    A tree-wide lock around integer counters used to guard these updates,
    taken three times per rebalance, and under real threads it convoyed
    (Blasgen et al., "The Convoy Phenomenon", 1979): a thread that blocked
    on it got it while the GIL was released, then held it while it waited
    up to a switch interval for the GIL, so the other thread's next update
    blocked in turn. Over eight 2-thread churn runs (perfbench churn-k4's
    shape: K=D=4, S=2, 10 us switch interval; CPython 3.11.7, 2 cores) a
    counting wrapper found it held on 23% of its 0.94 acquisitions per op,
    against 0.4% of 3.8 for the CAS stripes (cells.py), and dropping it took
    the runs' voluntary context switches from 435-780 to 310-500 per 1k ops.

    `snapshot()` reads each list once, so its counts agree with each other
    at quiesce."""

    def __init__(self):
        self.begun: list[None] = []
        self.records: list[RebalanceRecord] = []
        self.cleared: list[bool] = []

    def snapshot(self) -> dict:
        cleared = self.cleared
        return {
            "begins": len(self.begun),
            "link_swaps": len(self.records),
            "clears": len(cleared),
            "helper_clears": cleared.count(True),
            "records": list(self.records),
        }


# NamedTuples built without their Python-level __new__, as harness._run
# builds an OpRecord
_new_tuple = tuple.__new__


def live_keys(words) -> list[int]:
    """Sorted payloads of the frozen words that are not dead."""
    keys = [w ^ RO_BIT for w in words if w != DEAD]
    keys.sort()
    return keys


# --- generator phases -------------------------------------------------------
# Every shared-word access is preceded by a bare yield so the schedule
# explorer can interleave at each one. Real threads run the yield-free
# copies, and the explorer's lone threads the counted copies, that tree.py
# derives from these (see derive.py).


def begin(tree, grand, key: int):
    """Advertise a rebalance at `grand`. True iff this thread installed it."""
    yield
    st = grand.status[0]
    if st[2] != IDLE:
        return False
    new = (key, st[1], PREP)
    yield
    if cas(grand.status, 0, st, new):
        tree.stats.begun.append(None)
        return True
    return False


def trigger(tree, grand, key: int):
    """Begin-or-help. Ensures one rebalance completes at `grand`: our own if
    the status was idle, else the pending one. Returns True iff we began."""
    won = yield from begin(tree, grand, key)
    yield from help_pending(tree, grand, not won)
    return won


def help_pending(tree, node, helped: bool):
    """Drive any rebalance advertised at `node` to completion; `helped`
    says whether another thread began it."""
    yield
    st = node.status[0]
    if st[2] in (PREP, SWAP):
        yield from execute(tree, node, st, helped=helped)


def freeze_internal(tree, grand, live, node):
    """One-way freeze of an internal node's status. Helps the node's own
    pending rebalance first: a frozen node's links must never change, so its
    last rebalance has to finish before the freeze lands. False = the
    rebalance named by `live` is over, caller must abandon."""
    while True:
        yield
        st = node.status[0]
        if st[2] == FROZEN:
            return True
        if st[2] in (PREP, SWAP):
            yield from execute(tree, node, st, helped=True)
            continue
        yield
        cur = grand.status[0]
        if cur not in live:
            return False
        yield
        cas(node.status, 0, st, (0, st[1], FROZEN))


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
            if w >= RO_BIT:
                words.append(w)
                break
            yield
            cur = grand.status[0]
            if cur not in live:
                return None
            yield
            ro = w | RO_BIT
            if cas(slots, i, w, ro):
                words.append(ro)
                break
    return words


def execute(tree, grand, st, helped: bool = False):
    """Drive the rebalance advertised by status tuple `st`, whose step is
    PREP or SWAP, to completion. `live` holds `st` itself, so the guard
    before each freeze CAS matches an unchanged status by identity."""
    key, seq, step = st
    live = (st, (key, seq, SWAP)) if step == PREP else ((key, seq, PREP), st)

    jp = node_search(grand.separators, key)
    links = grand.children
    yield
    parent = links[jp]
    assert isinstance(parent, InternalNode), "parent level holds internals only"

    yield
    cur = grand.status[0]
    if cur not in live:
        return
    if cur[2] == SWAP:
        # an unfrozen child at step SWAP means the link swap already
        # happened; the only duty left is the clear
        yield
        pst = parent.status[0]
        if pst[2] != FROZEN:
            yield from _clear(tree, grand, live[1], helped)
            return

    ok = yield from freeze_internal(tree, grand, live, parent)
    if not ok:
        return

    plan = yield from _build_plan(tree, grand, live, parent, key)
    if plan is None:
        return
    new_parent, record = plan

    yield
    cur = grand.status[0]
    if cur == live[0]:
        yield
        cas(grand.status, 0, cur, live[1])
        yield
        cur = grand.status[0]
    if cur != live[1]:
        return

    yield
    if links[jp] is parent:
        yield
        if cas(links, jp, parent, new_parent):
            tree.stats.records.append(record)

    yield from _clear(tree, grand, live[1], helped)


def _clear(tree, grand, swap_status, helped):
    yield
    if cas(grand.status, 0, swap_status, (0, swap_status[1] + 1, IDLE)):
        tree.stats.cleared.append(helped)


# --- plan construction ------------------------------------------------------


def _links(node):
    """The child links of a frozen internal node, one read per link."""
    links = node.children
    vals = []
    for i in range(len(links)):
        yield
        link = links[i]
        vals.append(link)
    return vals


def _build_plan(tree, grand, live, parent, key):
    """Freeze the remaining targets and build the replacement parent.

    Deterministic given the frozen content, so concurrent executors build
    content-identical plans and the single link-swap winner may install any
    of them. Returns (new parent, record), or None if the rebalance
    completed while freezing."""
    if grand is tree.root:
        n = len(parent.children)
        if n > tree.config.order:
            # grow: a fresh parent over the two halves of all its children
            pvals = yield from _links(parent)
            new, seps, sizes = _halve_internal(tree.config.order, pvals,
                                               parent.separators)
            top = _splice(parent, pvals, 0, n - 1, new, seps)
            return top, _rec("root", GROW, (n,), sizes, top,
                             _nodes_hold(new, pvals), False)
        if n == 1:
            yield
            only = parent.children[0]
            if isinstance(only, InternalNode):
                return (yield from _plan_shrink(tree, grand, live, only))
            # single leaf child: fall through, key names the leaf

    pvals = yield from _links(parent)

    ju = node_search(parent.separators, key)
    unb = pvals[ju]

    if isinstance(unb, LeafNode):
        return (yield from _plan_leaf(tree, grand, live, parent, pvals, ju))
    return (yield from _plan_internal(tree, grand, live, parent, pvals, ju))


# A reshape is named by how many frozen nodes it reads (the unbalanced one,
# or it and a sibling) and how many fresh ones it writes in their place.
_ACTIONS = {(1, 2): SPLIT, (2, 1): MERGE, (2, 2): REDISTRIBUTE, (1, 1): REBUILD}


def _plan_leaf(tree, grand, live, parent, pvals, ju):
    cfg = tree.config
    D, S = cfg.leaf_capacity, cfg.min_size

    words = yield from freeze_leaf(tree, grand, live, pvals[ju])
    if words is None:
        return None
    keys = live_keys(words)
    a = len(keys)
    lo = hi = ju
    inputs, clean = (a,), a == D  # only a split of a full leaf is clean

    if a <= S and len(pvals) >= 2:
        js = ju + 1 if ju + 1 < len(pvals) else ju - 1
        swords = yield from freeze_leaf(tree, grand, live, pvals[js])
        if swords is None:
            return None
        skeys = live_keys(swords)
        b = len(skeys)
        # adjacent leaves hold their keys in leaf order, so the two sorted
        # lists joined in that order are sorted
        keys = keys + skeys if js > ju else skeys + keys
        lo, hi = min(ju, js), max(ju, js)
        inputs = (a, b)
        band_min = min(2 * S, D // 2)
        clean = b >= S and (a == S or (a == S - 1 and band_min == S))
    # else a full leaf splits; a raced trigger, dead-slot compaction or a
    # sparse sole child rebuilds: live keys into a fresh writable leaf
    new, seps, sizes = _halve_leaf(D, keys)
    top = _splice(parent, pvals, lo, hi, new, seps)
    return top, _rec("leaf", _ACTIONS[len(inputs), len(new)], inputs, sizes,
                     top, _leaves_hold(new, keys), clean)


def _plan_internal(tree, grand, live, parent, pvals, ju):
    cfg = tree.config
    K, S = cfg.order, cfg.min_size
    unb = pvals[ju]

    ok = yield from freeze_internal(tree, grand, live, unb)
    if not ok:
        return None
    vals = yield from _links(unb)
    seps = unb.separators
    c_n = len(vals)
    lo = hi = ju
    inputs = (c_n,)

    # an underfull node takes in a sibling (K >= 2S - 1: it is not overfull)
    if c_n < S and len(pvals) >= 2:
        js = ju + 1 if ju + 1 < len(pvals) else ju - 1
        sib = pvals[js]
        ok = yield from freeze_internal(tree, grand, live, sib)
        if not ok:
            return None
        svals = yield from _links(sib)
        inputs = (c_n, len(svals))
        lo, hi = min(ju, js), max(ju, js)
        demoted = parent.separators[lo]
        if ju == lo:
            vals, seps = vals + svals, seps + (demoted,) + sib.separators
        else:
            vals, seps = svals + vals, sib.separators + (demoted,) + seps

    new, nseps, sizes = _halve_internal(K, vals, seps)
    top = _splice(parent, pvals, lo, hi, new, nseps)
    return top, _rec("internal", _ACTIONS[len(inputs), len(new)], inputs,
                     sizes, top, _nodes_hold(new, vals), False)


def _plan_shrink(tree, grand, live, only):
    """Root's child has a single internal child: drop a level."""
    ok = yield from freeze_internal(tree, grand, live, only)
    if not ok:
        return None
    vals = yield from _links(only)
    dropped = InternalNode(vals, only.separators)
    # not a splice: final stays False even when `only` has a single child
    rec = _new_tuple(RebalanceRecord, (
        "root", SHRINK, (1, len(vals)), (len(vals),), False,
        _nodes_hold([dropped], vals), False))
    return dropped, rec


# --- small pure helpers -----------------------------------------------------


def _splice(parent, pvals, lo, hi, new, seps) -> InternalNode:
    """The frozen parent with its children lo..hi replaced by `new`, split
    by `seps`: every reshape builds its replacement parent this way."""
    old = parent.separators
    return InternalNode(pvals[:lo] + new + pvals[hi + 1:],
                        old[:lo] + seps + old[hi:])


def _halve_leaf(capacity: int, keys):
    """([fresh leaves], separators between them, key counts): one leaf if
    `keys` leave it a free slot, else two halves. The keys are payloads of
    frozen words: valid keys, already in their word form."""
    t = len(keys)
    if t < capacity:
        return [LeafNode(keys + [EMPTY] * (capacity - t))], (), (t,)
    h = (t + 1) // 2
    return ([LeafNode(keys[:h] + [EMPTY] * (capacity - h)),
             LeafNode(keys[h:] + [EMPTY] * (capacity - t + h))],
            (keys[h - 1],), (h, t - h))


def _halve_internal(order: int, vals, seps):
    """([fresh internal nodes], separators between them, child counts): one
    node if `vals` fit in `order` children, else two halves. `vals` is a
    list no node holds (a frozen node's links as `_links` read them), and
    a single node takes it as it is."""
    t = len(vals)
    if t <= order:
        return [InternalNode(vals, seps)], (), (t,)
    h = (t + 1) // 2
    return ([InternalNode(vals[:h], seps[:h - 1]),
             InternalNode(vals[h:], seps[h:])], (seps[h - 1],), (h, t - h))


def _leaves_hold(leaves, expected_keys) -> bool:
    """Read-back check: the fresh leaves carry exactly the planned keys, in
    their planned order. Fresh words carry no read-only bit, so a non-empty
    word is its key."""
    return [w for lf in leaves for w in lf.slots if w] == expected_keys


def _nodes_hold(nodes, expected_vals) -> bool:
    """Read-back check: the fresh internals link exactly the planned
    children, in their planned order (nodes compare by identity)."""
    return [c for nd in nodes for c in nd.children] == expected_vals


def _rec(kind, action, inputs: tuple, outputs: tuple, top, preserved,
         clean) -> RebalanceRecord:
    """The record of a spliced plan; final iff `top` has a single child."""
    return _new_tuple(RebalanceRecord, (kind, action, inputs, outputs,
                                        len(top.children) == 1, preserved,
                                        clean))
