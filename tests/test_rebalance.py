import pytest

from lftree import rebalance as rb
from lftree import sim
from lftree.keyspace import RO_BIT, encode
from lftree.nodes import (IDLE, PREP, SWAP, InternalNode, LeafNode,
                          TreeConfig)
from lftree.tree import LeafTree
from reference import (band, build_flat, leaf_key_sets, merge_or_redistribute,
                       split_keys, split_sizes)

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
    tree.root.children[0] = InternalNode([inner])
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
    sib = InternalNode([LeafNode(4, [encode(90)])])
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
    leaf = LeafNode(4, [encode(10), encode(20)])
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
    leaf = LeafNode(4, [encode(10)])
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
