"""Lock-free k-ary leaf-oriented search tree with range operations.

All keys live in leaves; internal nodes route. The root is a permanent
internal node with exactly one child link, and that child is always an
internal node, so every leaf has a parent and a grandparent and height
changes are a single link swing at the root. A descent takes the root's
step before its loop: the root is never frozen and never changes shape,
so the step reads only its status and its one link, each after its own
yield, and the loop below tests the sizes of the nodes it meets without
asking whether they have a parent.

Operations are written as generator cores that yield before every shared
word access, and run in three forms derived from that one source
(derive.py). The schedule explorer (sim.py) drives the generators step by
step to enumerate interleavings. The public methods run copies with the
yields compiled out, since real threads are preempted by the interpreter
anyway; a copied slot loop that uses its index only to read the slot
iterates the word list instead (_find), with the same reads in the same
order. Where the explorer runs a thread alone, it runs counted copies, in
which each yield ticks a step counter instead. _op is the one map from a
(kind, e1, e2) op to its core: explorer op threads run it stepped or
counted and selftest yield-free; the threaded harness calls the public
methods, which perfbench wraps. Semantics are the interval-set contracts
checked by verify.py: a search/remove over [e1, e2] returns the smallest
key that was continuously present, or some key that was present at some
point during the call; 0 means no key was continuously present.

A leaf's D slots are unsorted, so every operation reads all of them,
with a scan of its own: a search wants only the smallest key in range
(_find), an insert whether its key is there and the first writable empty
slot (_probe), a remove the smallest key in range with its slot and word
and the live key count (_scan). The range scans test a word against
RO_BIT rather than masking it: below is a writable key (or empty at 0),
RO_BIT itself is a dead slot, above is a frozen key. _find tests a word
against its bound first (e2 + 1, then the best key so far), never above
RO_BIT, so no dead or frozen word passes it, then against e1.

Removal tombstones the slot (read-only empty word) instead of zeroing it:
the number of writable empty slots in a leaf only ever decreases, so two
concurrent inserts of the same key always contend on the same slot and
duplicates cannot form. Dead slots are compacted by a rebuild rebalance
when an insert finds the leaf clogged.
"""

from __future__ import annotations

import sys
from typing import Optional

from . import rebalance as rb
from .cells import cas
from .derive import copies
from .keyspace import (DEAD, EMPTY, MAX_KEY, MIN_KEY, PAYLOAD_MASK, RO_BIT,
                       encode)
from .nodes import (FROZEN, IDLE, InternalNode, LeafNode, TreeConfig,
                    new_tree_root, node_search)
from .verify import INSERT, REMOVE, SEARCH


class LeafTree:
    def __init__(self, config: Optional[TreeConfig] = None):
        if config is None:
            config = TreeConfig()
        elif not isinstance(config, TreeConfig):
            raise ValueError(f"config must be a TreeConfig or None: {config!r}")
        self.config = config
        self.root = new_tree_root(self.config)
        self.stats = rb.RebalanceStats()

    # -- public API: the yield-free cores -------------------------------------

    def search(self, e1: int, e2: Optional[int] = None) -> int:
        """Smallest key in [e1, e2] continuously present, else a key present
        at some point, else 0."""
        e1, e2 = _range_args(e1, e2)
        return _search_direct(self, e1, e2)

    def remove(self, e1: int, e2: Optional[int] = None) -> int:
        """Remove and return one key from [e1, e2] (0 if none found). The
        result is no larger than any key continuously present in range."""
        e1, e2 = _range_args(e1, e2)
        return _remove_direct(self, e1, e2)

    def insert(self, e: int) -> bool:
        """Add e; False if it was already present."""
        return _insert_direct(self, encode(e))

    # -- quiescent inspection (plain reads, no concurrency) -------------------

    def leaves(self):
        """All reachable leaves, left to right, with their (lo, hi] bounds."""
        out = []

        def walk(node, lo, hi):
            if isinstance(node, LeafNode):
                out.append((node, lo, hi))
                return
            seps = node.separators
            for j, child in enumerate(node.children):
                clo = seps[j - 1] if j > 0 else lo
                chi = seps[j] if j < len(seps) else hi
                walk(child, clo, chi)

        walk(self.root, 0, MAX_KEY)
        return out

    def snapshot(self) -> list[int]:
        """Sorted live keys. Raises if any key appears twice."""
        keys = []
        todo = [self.root]
        while todo:
            node = todo.pop()
            if type(node) is LeafNode:
                for w in node.slots:
                    p = w & PAYLOAD_MASK
                    if p:
                        keys.append(p)
            else:
                todo += node.children
        keys.sort()
        if len(set(keys)) != len(keys):
            for i in range(1, len(keys)):
                if keys[i] == keys[i - 1]:
                    raise ValueError(f"duplicate key in tree: {keys[i]}")
        return keys

    def check_structure(self) -> list[str]:
        """Structural invariant violations (empty list = healthy). Size
        bands are not structural: transient over/underfull nodes are legal
        and may persist until the next descent notices them.

        One walk, left to right, with an explicit stack: each node's own
        violations come before its children's."""
        capacity = self.config.leaf_capacity
        bad: list[str] = []
        seen: set[int] = set()
        owner: dict[int, LeafNode] = {}  # key -> the last leaf holding it
        leaf_depths: set[int] = set()

        root = self.root
        if len(root.children) != 1 or root.separators:
            bad.append("root must have exactly one child and no separators")
        if not isinstance(root.children[0], InternalNode):
            bad.append("root's child must be an internal node")

        todo = [(root, 0, MAX_KEY, 0)]
        while todo:
            node, lo, hi, depth = todo.pop()
            if id(node) in seen:
                bad.append(f"node reached twice: {node!r}")
                continue
            seen.add(id(node))
            if type(node) is LeafNode:
                leaf_depths.add(depth)
                slots = node.slots
                if len(slots) != capacity:
                    bad.append(f"leaf has {len(slots)} slots")
                for w in slots:
                    if not w:  # an empty slot, the most common word
                        continue
                    if 0 < w < RO_BIT:  # a writable key
                        p = w
                    else:
                        p = w & PAYLOAD_MASK
                        if w & RO_BIT and p:
                            bad.append(f"frozen key {p} in a reachable leaf")
                        if not p:
                            continue
                    if not lo < p <= hi:
                        bad.append(f"key {p} outside its leaf range "
                                   f"({lo}, {hi}]")
                    held = owner.get(p)
                    if held is not None:
                        if held is node:
                            bad.append(f"key {p} twice in one leaf")
                        bad.append(f"key {p} in two leaves")
                    owner[p] = node
                continue
            st = node.status[0]
            if st[2] != IDLE:
                bad.append(f"non-idle status at quiesce: {st}")
            seps = node.separators
            children = node.children
            n = len(children)
            m = len(seps)
            if n != m + 1:
                bad.append(f"{n} children with {m} separators")
            if n < 1:
                bad.append("internal node with no children")
            prev = None
            for s in seps:
                if not lo < s < hi:
                    bad.append(f"separator {s} outside ({lo}, {hi})")
                if prev is not None and prev >= s:
                    bad.append(f"separators not increasing: {seps}")
                prev = s
            if n:
                leafy = type(children[0]) is LeafNode
                for child in children:
                    if (type(child) is LeafNode) is not leafy:
                        bad.append("mixed leaf and internal children")
                        break
            depth += 1
            for j in range(n - 1, -1, -1):  # popped left to right
                todo.append((children[j], seps[j - 1] if j else lo,
                             seps[j] if j < m else hi, depth))
        if len(leaf_depths) > 1:
            bad.append(f"leaves at different depths: {sorted(leaf_depths)}")
        return bad

    def height(self) -> int:
        """Internal levels above the leaves (>= 2: root and its child)."""
        h = 0
        node = self.root
        while isinstance(node, InternalNode):
            h += 1
            node = node.children[0]
        return h


# -- generator cores ---------------------------------------------------------
# Module-level so that derive.copies can re-compile them, calls between
# them included, into the yield-free and counted copies.


def _op(tree, kind, e1, e2):
    """One (kind, e1, e2) op, its arguments checked as the public methods
    check them; returns the result as an OpRecord holds it (insert 1/0)."""
    if kind == SEARCH:
        e1, e2 = _range_args(e1, e2)
        return (yield from _search(tree, e1, e2))
    if kind == REMOVE:
        e1, e2 = _range_args(e1, e2)
        return (yield from _remove(tree, e1, e2))
    if kind == INSERT:
        return 1 if (yield from _insert(tree, encode(e1))) else 0
    raise ValueError(f"unknown op kind: {kind!r}")


def _search(tree, e1, e2):
    key = e1
    while True:
        _, _, leaf, hi = yield from _descend(tree, key)
        found = yield from _find(leaf, e1, e2)
        if found:
            return found
        if hi >= e2:
            return 0
        key = hi + 1


def _remove(tree, e1, e2):
    key = e1
    while True:
        grand, parent, leaf, hi = yield from _descend(tree, key)
        while True:
            slot, word, live = yield from _scan(leaf, e1, e2)
            if slot < 0:
                if hi >= e2:
                    return 0
                key = hi + 1
                break
            if word & RO_BIT:
                # frozen candidate: finish the rebalance holding it,
                # then retry the same spot on fresh nodes
                yield from rb.trigger(tree, grand, word & PAYLOAD_MASK)
                break
            yield
            if cas(leaf.slots, slot, word, DEAD):
                if (live - 1 <= tree.config.min_size
                        and len(parent.children) >= 2):
                    yield from rb.trigger(tree, grand, word)
                return word
            # slot changed under us: rescan


def _insert(tree, word):
    while True:
        grand, _, leaf, _ = yield from _descend(tree, word)
        while True:
            present, empty = yield from _probe(leaf, word)
            if present:
                return False
            if empty < 0:
                # no writable empty slot: full, clogged with dead
                # slots, or frozen mid-rebalance
                yield from rb.trigger(tree, grand, word)
                break
            yield
            if cas(leaf.slots, empty, EMPTY, word):
                return True
            # lost the slot: rescan


def _descend(tree, key):
    """Walk to the leaf covering `key`, helping pending rebalances,
    replacing frozen nodes, and triggering shape fixes on the way.

    Returns (grand, parent, leaf, hi): the leaf's grandparent and parent,
    the leaf, and the upper bound of the key interval (lo, hi] it covers."""
    order, min_size = tree.config.order, tree.config.min_size
    root = tree.root
    while True:
        # the root's step: it is never frozen and its shape never changes
        # (one child, no separators), so only its status and its one link
        # are read
        yield
        st = root.status[0]
        if st[2] != IDLE:
            yield from rb.execute(tree, root, st, helped=True)
            continue
        yield
        node = root.children[0]
        grand, parent = None, root  # node's grandparent, if any, and parent
        hi = MAX_KEY
        while type(node) is InternalNode:  # no node class is subclassed
            yield
            st = node.status[0]
            if st[2] != IDLE:
                if st[2] == FROZEN:
                    # still linked after its rebalance completed between a
                    # helper's guard check and freeze CAS: a rebalance over
                    # it finds it pre-frozen and replaces it
                    yield from rb.trigger(tree, root if grand is None
                                          else grand, key)
                    break
                yield from rb.execute(tree, node, st, helped=True)
                continue
            children = node.children  # the list is fixed; its links are CASed
            n = len(children)
            # a size outside [S, K] may need a reshape
            if not min_size <= n <= order:
                if grand is not None:
                    yield from rb.trigger(tree, grand, key)
                    break
                # the root's only child owns the grow/shrink shapes
                if n > order:
                    yield from rb.trigger(tree, root, key)
                    break
                if n == 1:
                    yield
                    if isinstance(children[0], InternalNode):
                        yield from rb.trigger(tree, root, key)
                        break
            seps = node.separators
            j = node_search(seps, key)
            if j < n - 1:  # n children, n - 1 separators
                hi = seps[j]
            yield
            grand, parent = parent, node
            node = children[j]
        else:  # at a leaf; each break above restarts from the root
            return grand, parent, node, hi


def _find(leaf, e1, e2):
    """The smallest key in [e1, e2] in the leaf, frozen or not (a frozen
    match still proves presence during the call), else 0."""
    # best <= MAX_KEY + 1 == RO_BIT, so no dead or frozen word is below it
    best = e2 + 1
    slots = leaf.slots
    for i in range(len(slots)):
        yield
        w = slots[i]
        if w < best:  # a writable key, or an empty word, 0, below e1
            if w >= e1:
                best = w
        elif w > RO_BIT:  # frozen key; RO_BIT itself is a dead slot
            w ^= RO_BIT
            if e1 <= w < best:
                best = w
    return best if best <= e2 else 0


def _probe(leaf, word):
    """(whether the key of `word` is in the leaf, frozen or not, first
    writable empty slot or -1)."""
    frozen = word | RO_BIT
    present = False
    empty = -1
    slots = leaf.slots
    for i in range(len(slots)):
        yield
        w = slots[i]
        if not w:
            if empty < 0:
                empty = i
        elif w == word or w == frozen:
            present = True
    return present, empty


def _scan(leaf, e1, e2):
    """(slot of the smallest in-range live key or -1, its word, live keys
    in the leaf, frozen or not)."""
    best_slot, best_word, best = -1, 0, e2 + 1
    live = 0
    slots = leaf.slots
    for i in range(len(slots)):
        yield
        w = slots[i]
        if w:
            if w < RO_BIT:
                p = w
            elif w > RO_BIT:  # frozen key
                p = w ^ RO_BIT
            else:  # dead slot
                continue
            live += 1
            if e1 <= p < best:
                best_slot, best_word, best = i, w, p
    return best_slot, best_word, live


def _range_args(e1, e2):
    if e2 is None:
        e2 = e1
    if (type(e1) is not int or type(e2) is not int
            or not MIN_KEY <= e1 <= e2 <= MAX_KEY):
        _reject_range(e1, e2)
    return e1, e2


def _reject_range(e1, e2):
    encode(e1)
    encode(e2)
    raise ValueError(f"empty range: [{e1}, {e2}]")


# Three forms of the cores come from this one source: real threads run the
# yield-free copies; the explorer steps the generators above, and runs the
# counted copies where a thread runs alone (sim.py).
_direct, _counted = copies(sys.modules[__name__], rb=copies(rb))
_search_direct = _direct._search
_remove_direct = _direct._remove
_insert_direct = _direct._insert
_op_direct = _direct._op
