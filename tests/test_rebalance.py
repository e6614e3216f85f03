import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lftree import rebalance as rb
from lftree import sim
from lftree.harness import RunConfig, make_ops
from lftree.keyspace import RO_BIT, encode
from lftree.nodes import (IDLE, PREP, STATUS_IDLE, SWAP, InternalNode,
                          LeafNode, TreeConfig, node_search)
from lftree.tree import LeafTree
from reference import (band, build_flat, leaf_key_sets, merge_or_redistribute,
                       padded_leaf, split_keys, split_sizes)

CONFIGS = [TreeConfig(3, 4, 2), TreeConfig(5, 8, 3), TreeConfig(4, 6, 2),
           TreeConfig(7, 8, 4)]


def _trigger(tree, key):
    won = sim.run(rb.trigger(tree, tree.root, key))
    assert won is True
    return tree.stats.records[-1]


@pytest.mark.parametrize("cfg", CONFIGS)
def test_split_matches_brute_force(cfg):
    D = cfg.leaf_capacity
    full = list(range(10, 10 + 10 * D, 10))[:D]
    other = [10 * D + 100]
    tree = build_flat(cfg, [full, other])
    rec = _trigger(tree, full[0])

    assert rec.kind == "leaf" and rec.action == rb.SPLIT
    assert rec.inputs == (D,)
    assert rec.outputs == split_sizes(D)
    assert rec.preserved and rec.clean
    left, right = split_keys(full)
    assert leaf_key_sets(tree) == [left, right, other]
    inner = tree.root.children[0]
    assert inner.separators == (left[-1], max(full))
    assert tree.check_structure() == []
    lo, hi = band(cfg)
    assert all(lo <= n <= hi for n in rec.outputs)


@pytest.mark.parametrize("cfg", CONFIGS)
@pytest.mark.parametrize("sparse_side", ["left", "right"])
def test_merge_and_redistribute_match_brute_force(cfg, sparse_side):
    D, S = cfg.leaf_capacity, cfg.min_size
    for a in range(1, S + 1):
        for b in range(1, D + 1):
            low = [10 * i for i in range(1, (a if sparse_side == "left"
                                              else b) + 1)]
            high = [1000 + 10 * i
                    for i in range(1, (b if sparse_side == "left"
                                       else a) + 1)]
            tree = build_flat(cfg, [low, high])
            akeys = low if sparse_side == "left" else high
            bkeys = high if sparse_side == "left" else low
            rec = _trigger(tree, akeys[0])

            want_sizes = merge_or_redistribute(a, b, D)
            combined = sorted(akeys + bkeys)
            assert rec.inputs == (a, b)
            assert rec.outputs == want_sizes
            assert rec.preserved
            if len(want_sizes) == 1:
                assert rec.action == rb.MERGE
                assert leaf_key_sets(tree) == [combined]
            else:
                assert rec.action == rb.REDISTRIBUTE
                h = want_sizes[0]
                assert leaf_key_sets(tree) == [combined[:h], combined[h:]]
                inner = tree.root.children[0]
                assert inner.separators[0] == combined[h - 1]
            assert tree.check_structure() == []

            band_min, band_max = band(cfg)
            want_clean = b >= S and (a == S or
                                     (a == S - 1 and band_min == S))
            assert rec.clean == want_clean
            if rec.clean:
                assert all(band_min <= n <= band_max for n in rec.outputs)


@pytest.mark.parametrize("cfg", CONFIGS)
@pytest.mark.parametrize("ju", [1, 2], ids=["sibling-right", "sibling-left"])
def test_merge_joins_two_leaves_in_leaf_order(cfg, ju):
    # three leaves whose slots hold their words out of order: the sparse
    # one in the middle takes its right sibling (ju + 1), the rightmost
    # one its left sibling (ju - 1); the fresh leaves carry exactly the
    # sorted merge of both leaves' keys, slot after slot
    D, S = cfg.leaf_capacity, cfg.min_size
    rng = random.Random(ju)
    js = ju + 1 if ju == 1 else ju - 1
    for a in range(1, S + 1):
        for b in range(1, D + 1):
            sizes = [S + 1, 0, 0]
            sizes[ju], sizes[js] = a, b
            runs = [list(range(100 * i + 1, 100 * i + n + 1))
                    for i, n in enumerate(sizes)]
            tree = build_flat(cfg, runs)
            for leaf, _, _ in tree.leaves():
                rng.shuffle(leaf.slots)
            rec = _trigger(tree, runs[ju][0])
            assert rec.action in (rb.MERGE, rb.REDISTRIBUTE)
            assert rec.inputs == (a, b) and rec.preserved
            fresh = [leaf for leaf, _, _ in tree.leaves()][1:]
            assert [w for leaf in fresh for w in leaf.slots if w] == sorted(
                runs[ju] + runs[js])
            assert tree.check_structure() == []


@pytest.mark.parametrize("cfg", CONFIGS)
def test_rebuild_for_mid_occupancy_leaf(cfg):
    D, S = cfg.leaf_capacity, cfg.min_size
    a = S + 1
    assert a < D
    keys = [10 * i for i in range(1, a + 1)]
    tree = build_flat(cfg, [keys, [9999]])
    rec = _trigger(tree, keys[0])
    assert rec.action == rb.REBUILD
    assert rec.inputs == rec.outputs == (a,)
    assert rec.preserved and not rec.clean
    assert leaf_key_sets(tree) == [keys, [9999]]
    assert tree.check_structure() == []


def test_rebuild_compacts_tombstones():
    cfg = TreeConfig(3, 8, 2)  # S=2 so a 4->3 remove does not self-trigger
    tree = build_flat(cfg, [[10, 20, 30, 40], [90]])
    assert tree.remove(20, 20) == 20
    inner = tree.root.children[0]
    leaf = inner.children[0]
    dead = sum(1 for w in leaf.slots if w == RO_BIT)
    assert dead == 1
    rec = _trigger(tree, 10)
    assert rec.action == rb.REBUILD
    fresh = tree.root.children[0].children[0]
    assert all(w != RO_BIT for w in fresh.slots)
    assert leaf_key_sets(tree) == [[10, 30, 40], [90]]


def test_grow_when_roots_child_overflows():
    cfg = TreeConfig(3, 4, 2)
    tree = build_flat(cfg, [[10], [20], [30], [40]])  # 4 children > K=3
    before = tree.height()
    rec = _trigger(tree, 10)
    assert rec.kind == "root" and rec.action == rb.GROW
    assert rec.inputs == (4,) and rec.outputs == (2, 2)
    assert rec.preserved
    assert tree.height() == before + 1
    top = tree.root.children[0]
    assert len(top.children) == 2
    assert top.separators == (20,)  # demoted middle separator
    assert leaf_key_sets(tree) == [[10], [20], [30], [40]]
    assert tree.check_structure() == []


@pytest.mark.parametrize("leaves", [[[10, 20], [30, 40]], [[10, 20]]],
                         ids=["two-leaves", "one-leaf"])
def test_shrink_when_roots_child_has_one_internal_child(leaves):
    cfg = TreeConfig(3, 4, 2)
    tree = build_flat(cfg, leaves)
    inner = tree.root.children[0]
    tree.root.children[0] = InternalNode([inner], ())
    before = tree.height()
    rec = _trigger(tree, 10)
    assert rec.kind == "root" and rec.action == rb.SHRINK
    assert rec.outputs == (len(leaves),)
    assert rec.final is False  # not a splice: False even onto one child
    assert rec.preserved
    assert tree.height() == before - 1
    assert leaf_key_sets(tree) == leaves
    assert tree.check_structure() == []


def test_internal_split_via_packed_parent():
    cfg = TreeConfig(3, 4, 2)
    # root -> top -> [inner with K+1 leaves, inner2]: descent splits it
    tree = build_flat(cfg, [[10], [20], [30], [40]])
    fat = tree.root.children[0]
    sib = InternalNode([padded_leaf(4, [encode(90)])], ())
    tree.root.children[0] = InternalNode([fat, sib], (40,))
    rec = _trigger(tree, 10)
    assert rec.kind == "internal" and rec.action == rb.SPLIT
    assert rec.inputs == (4,) and rec.outputs == (2, 2)
    assert rec.preserved
    assert leaf_key_sets(tree) == [[10], [20], [30], [40], [90]]
    assert tree.check_structure() == []


def test_clean_band_arithmetic_over_all_configs():
    """The size band holds for every clean plan in every valid config:
    split of a full leaf, and merge/redistribute with the sparse side at
    the threshold and the sibling at or above it."""
    for D in range(4, 65):
        for S in range(2, D // 2 + 1):
            band_min = min(2 * S, D // 2)
            band_max = D - 1
            assert band_min <= band_max
            for n in split_sizes(D):
                assert band_min <= n <= band_max
            sparse = [S] if band_min > S else [S, S - 1]
            for a in sparse:
                for b in range(S, D + 1):
                    for n in merge_or_redistribute(a, b, D):
                        assert band_min <= n <= band_max, (D, S, a, b)


def test_freeze_leaf_is_idempotent():
    cfg = TreeConfig(3, 4, 2)
    tree = LeafTree(cfg)
    leaf = padded_leaf(4, [encode(10), encode(20)])
    tree.root.status[0] = (1, 0, PREP)
    live = ((1, 0, PREP), (1, 0, SWAP))
    first = sim.run(rb.freeze_leaf(tree, tree.root, live, leaf))
    second = sim.run(rb.freeze_leaf(tree, tree.root, live, leaf))
    assert first == second
    assert first[0] == encode(10) | RO_BIT
    assert first[1] == encode(20) | RO_BIT
    assert all(w & RO_BIT for w in leaf.slots)


def test_freeze_abandons_on_stale_status():
    cfg = TreeConfig(3, 4, 2)
    tree = LeafTree(cfg)
    leaf = padded_leaf(4, [encode(10)])
    tree.root.status[0] = (0, 7, IDLE)  # already cleared
    live = ((1, 0, PREP), (1, 0, SWAP))
    got = sim.run(rb.freeze_leaf(tree, tree.root, live, leaf))
    assert got is None


def test_stats_counters_track_one_rebalance():
    cfg = TreeConfig(3, 4, 2)
    tree = build_flat(cfg, [[10, 20, 30, 40], [90]])
    assert tree.stats.snapshot()["begins"] == 0
    _trigger(tree, 10)
    snap = tree.stats.snapshot()
    assert snap["begins"] == 1
    assert snap["link_swaps"] == 1
    assert snap["clears"] == 1
    assert tree.root.status[0] == (0, 1, IDLE)


def test_one_split_names_its_rebalance_by_one_key():
    # stepped one yield at a time, the root's status advertises the split
    # of the leaf covering 45, advances it and clears it, and nothing else
    tree = LeafTree(TreeConfig(3, 4, 2))
    for k in (10, 20, 30, 40):
        tree.insert(k)
    owner = sim.SimThread(rb.trigger(tree, tree.root, 45))
    seen = [tree.root.status[0]]
    while not owner.done:
        sim.step(owner)
        if tree.root.status[0] != seen[-1]:
            seen.append(tree.root.status[0])
    assert owner.result is True
    assert seen == [(0, 0, IDLE), (45, 0, PREP), (45, 0, SWAP), (0, 1, IDLE)]


def _shaped_tree(cfg, fans, sizes):
    """(tree, its largest key bound): below the root, one internal level
    per entry of `fans`, the nodes of a level taking their child counts
    from its list in turn, then leaves taking their key counts from
    `sizes` in turn. Leaf i covers (2Di, 2D(i + 1)] and holds its lowest
    keys."""
    D = cfg.leaf_capacity
    leaves = itertools.count()
    built = [itertools.count() for _ in fans]  # nodes built per level

    def build(level):
        if level == len(fans):
            i = next(leaves)
            lo = 2 * D * i
            keys = range(lo + 1, lo + sizes[i % len(sizes)] + 1)
            return padded_leaf(D, keys), lo + 2 * D
        fan = fans[level][next(built[level]) % len(fans[level])]
        kids, his = zip(*[build(level + 1) for _ in range(fan)])
        return InternalNode(list(kids), his[:-1]), his[-1]

    child, top = build(0)
    tree = LeafTree(cfg)
    tree.root.children[0] = child
    return tree, top


@st.composite
def _plan_shapes(draw):
    """A shaped tree, a key in its range and the depth of a grandparent on
    the key's path (the root is at 0), for the plans at K=D=4 and K=D=32:
    child counts about S and K, so that one trigger reaches every action,
    root grow and shrink included."""
    cfg = draw(st.sampled_from([TreeConfig(4, 4, 2), TreeConfig(32, 32, 8)]))
    K, D, S = cfg.order, cfg.leaf_capacity, cfg.min_size
    counts = st.sampled_from(sorted({1, 2, S - 1, S, K, K + 1}))
    levels = draw(st.integers(1, 3 if K == 4 else 2))
    fans = [draw(st.lists(counts, min_size=1, max_size=3))
            for _ in range(levels)]
    sizes = draw(st.lists(st.sampled_from(sorted({0, 1, S - 1, S, S + 1,
                                                   D - 1, D})),
                          min_size=1, max_size=4))
    tree, top = _shaped_tree(cfg, fans, sizes)
    return tree, draw(st.integers(1, top)), draw(st.integers(0, levels - 1))


def _nodes(tree):
    """Every node reachable from the root."""
    out, todo = [], [tree.root]
    while todo:
        node = todo.pop()
        out.append(node)
        if type(node) is InternalNode:
            todo += node.children
    return out


def _lists(node):
    if type(node) is LeafNode:
        return [node.slots]
    return [node.children, node.status]


def _constructor_built(node, D):
    """Whether `node` holds what its constructor takes as it is: a leaf a
    list of exactly D slots; an internal node a tuple of separators one
    shorter than its list of children, and a one-entry status list
    holding STATUS_IDLE. That each list is the node's own is checked by
    the callers, over every node at once."""
    if type(node) is LeafNode:
        return type(node.slots) is list and len(node.slots) == D
    return (type(node.separators) is tuple and type(node.children) is list
            and len(node.separators) == len(node.children) - 1
            and type(node.status) is list and node.status == [STATUS_IDLE])


@settings(max_examples=150, deadline=None)
@given(_plan_shapes())
def test_plan_and_root_nodes_look_constructor_built(shape):
    # the constructors take their lists as they are, so every node that
    # new_tree_root and the plans build must be handed lists of the right
    # shape, each its own
    tree, key, depth = shape
    D = tree.config.leaf_capacity
    fresh = LeafTree(tree.config)
    nodes = _nodes(fresh)
    assert len(nodes) == 3 and all(_constructor_built(n, D) for n in nodes)
    assert len({id(x) for n in nodes for x in _lists(n)}) == 5

    grand = tree.root
    for _ in range(depth):
        grand = grand.children[node_search(grand.separators, key)]
    before = _nodes(tree)  # held, so no id is reused
    old = {id(n) for n in before}
    assert sim.run(rb.trigger(tree, grand, key)) is True
    after = _nodes(tree)
    built = [n for n in after if id(n) not in old]
    assert built, "a rebalance replaces its parent"
    assert all(_constructor_built(n, D) for n in built)
    # no list is held by two nodes, old (frozen) ones included
    held = [id(x) for n in before + built for x in _lists(n)]
    assert len(set(held)) == len(held)
    assert tree.check_structure() == []


def _kept_by_init(cls, built):
    init = cls.__init__

    def wrapped(self, *args):
        init(self, *args)
        built.append(self)
    return wrapped


def test_every_reachable_node_went_through_its_constructor(monkeypatch):
    # the constructors are the only way to build a node, so wrapping them
    # (as perfbench's tracer does) sees every node that a tree can reach
    built = []  # every node built, held so that no id is reused
    for cls in (LeafNode, InternalNode):
        monkeypatch.setattr(cls, "__init__", _kept_by_init(cls, built))

    def check(tree):
        ids = {id(n) for n in built}
        nodes = _nodes(tree)
        assert all(id(n) in ids for n in nodes)
        return len(nodes)

    assert check(LeafTree(TreeConfig(4, 4, 2))) == 3

    # K=D=4 round robin: thread 1 runs stepped beside thread 0, then alone
    # through the counted cores
    cfg = RunConfig(order=4, leaf_capacity=4, min_size=2, threads=2,
                    ops_per_thread=1000, key_range=64, seed=1)
    tree = LeafTree(TreeConfig(4, 4, 2))
    clock = sim.Clock()
    records = []
    sim.run_round_robin([sim.op_thread(tree, clock, 0, make_ops(cfg, 0)[:300],
                                       records),
                         sim.op_thread(tree, clock, 1, make_ops(cfg, 1),
                                       records)], clock)
    assert len(records) == 1300 and check(tree) > 3
    actions = {r.action for r in tree.stats.records}

    # fill then drain through the public, yield-free methods
    keys = list(range(1, 601))
    random.Random(1).shuffle(keys)
    tree = LeafTree(TreeConfig(3, 4, 2))
    for i, k in enumerate(keys, 1):
        assert tree.insert(k) is True
        if i % 100 == 0:
            check(tree)
    for i, k in enumerate(keys, 1):
        assert tree.remove(k) == k
        if i % 100 == 0:
            check(tree)
    actions |= {r.action for r in tree.stats.records}
    assert actions >= {rb.SPLIT, rb.MERGE, rb.REDISTRIBUTE, rb.REBUILD,
                       rb.GROW, rb.SHRINK}
