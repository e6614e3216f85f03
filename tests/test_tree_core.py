import random
import re

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lftree import harness, sim
from lftree import tree as tree_mod
from lftree.keyspace import (DEAD, EMPTY, MAX_KEY, MIN_KEY, PAYLOAD_MASK,
                             RO_BIT, encode)
from lftree.nodes import (FROZEN, IDLE, PREP, SWAP, InternalNode, LeafNode,
                          TreeConfig, new_tree_root, node_search)
from lftree.tree import LeafTree
from lftree.verify import INSERT, REMOVE, SEARCH, snapshot_consistent
from reference import (build_flat, check_structure_by_walk, leaf_key_sets,
                       padded_leaf, scan_by_definition)


def test_config_validation():
    TreeConfig(3, 4, 2)
    TreeConfig(32, 32, 8)
    with pytest.raises(ValueError):
        TreeConfig(2, 4, 2)  # order too small
    with pytest.raises(ValueError):
        TreeConfig(3, 3, 2)  # leaf too small
    with pytest.raises(ValueError):
        TreeConfig(3, 8, 1)
    with pytest.raises(ValueError):
        TreeConfig(3, 8, 5)  # S > D/2
    TreeConfig(5, 6, 3)  # K = 2S - 1
    TreeConfig(7, 8, 4)
    # K < 2S - 1: a split leaves a half under S, and reshapes never settle
    for shape in ((3, 32, 8), (6, 8, 4), (4, 6, 3), (3, 8, 4), (6, 12, 4)):
        with pytest.raises(ValueError, match="^order"):
            TreeConfig(*shape)


@settings(max_examples=400, deadline=None)
@given(st.integers(-2, 12), st.integers(-2, 12), st.integers(-2, 8))
def test_config_takes_exactly_the_documented_triples(order, capacity, size):
    # order >= 3 is no rule of its own: min_size >= 2 and
    # order >= 2*min_size - 1 imply it
    shape_ok = capacity >= 4 and 2 <= size <= capacity // 2
    if shape_ok and order >= 3 and order >= 2 * size - 1:
        assert TreeConfig(order, capacity, size).order == order
        return
    with pytest.raises(ValueError) as refused:
        TreeConfig(order, capacity, size)
    if shape_ok:
        assert str(refused.value).startswith("order")


@pytest.mark.parametrize(
    "config", [0, False, True, {}, "", "x", [], (32, 32, 8), 32],
    ids=["zero", "false", "true", "dict", "empty-str", "str", "list",
         "tuple", "int"])
def test_tree_takes_only_a_tree_config(config):
    with pytest.raises(ValueError, match="^config"):
        LeafTree(config)


def test_tree_defaults_its_config():
    assert LeafTree().config == LeafTree(None).config == TreeConfig()


def test_every_public_op_enters_through_the_op_core(monkeypatch):
    # one entry: a wrap of the yield-free _op sees every threaded op once
    calls = []
    core = tree_mod._op_direct

    def recording(tree, kind, e1, e2):
        calls.append(kind)
        return core(tree, kind, e1, e2)

    monkeypatch.setattr(tree_mod, "_op_direct", recording)
    tree = LeafTree(TreeConfig(3, 4, 2))
    steps = [
        (lambda: tree.insert(5), INSERT, True),
        (lambda: tree.insert(5), INSERT, False),
        (lambda: tree.search(5), SEARCH, 5),
        (lambda: tree.search(1, 9), SEARCH, 5),
        (lambda: tree.remove(1, 9), REMOVE, 5),
        (lambda: harness._apply(tree, INSERT, 7, 7), INSERT, 1),
        (lambda: harness._apply(tree, SEARCH, 1, 9), SEARCH, 7),
        (lambda: harness._apply(tree, REMOVE, 7, 7), REMOVE, 7),
    ]
    for call, kind, want in steps:
        calls.clear()
        got = call()
        assert calls == [kind]
        assert got == want and type(got) is type(want)


def test_node_search_ties_go_left():
    seps = (10, 20)
    assert node_search(seps, 5) == 0
    assert node_search(seps, 10) == 0
    assert node_search(seps, 11) == 1
    assert node_search(seps, 20) == 1
    assert node_search(seps, 21) == 2
    assert node_search((), 7) == 0


def test_new_root_shape():
    cfg = TreeConfig(3, 4, 2)
    root = new_tree_root(cfg)
    assert len(root.children) == 1 and not root.separators
    inner = root.children[0]
    assert isinstance(inner, InternalNode)
    assert len(inner.children) == 1
    assert isinstance(inner.children[0], LeafNode)


def test_fresh_tree_is_structurally_clean():
    tree = LeafTree(TreeConfig(3, 4, 2))
    assert tree.check_structure() == []
    assert tree.snapshot() == []
    assert tree.height() == 2


def _reference_descent(tree, key):
    """Independent walk by separators; returns (leaf, lo, hi)."""
    node, lo, hi = tree.root, 0, MAX_KEY
    while isinstance(node, InternalNode):
        seps = node.separators
        j = node_search(seps, key)
        lo = seps[j - 1] if j > 0 else lo
        hi = seps[j] if j < len(seps) else hi
        node = node.children[j]
    return node, lo, hi


def test_descent_agrees_with_reference_walk():
    rng = random.Random(5)
    tree = LeafTree(TreeConfig(3, 4, 2))
    present = set()
    for _ in range(600):
        k = rng.randint(1, 300)
        if rng.random() < 0.7:
            tree.insert(k)
            present.add(k)
        else:
            got = tree.remove(k, k)
            assert got == (k if k in present else 0)
            present.discard(k)
    assert tree.snapshot() == sorted(present)
    assert tree.check_structure() == []
    for k in range(1, 301):
        leaf, lo, hi = _reference_descent(tree, k)
        assert lo < k <= hi
        in_leaf = any(w & PAYLOAD_MASK == k for w in leaf.slots)
        assert in_leaf == (k in present)
        assert tree.search(k, k) == (k if k in present else 0)


def test_leaves_report_covering_disjoint_ranges():
    tree = build_flat(TreeConfig(3, 4, 2), [[1, 2], [5, 7], [9]])
    spans = [(lo, hi) for _, lo, hi in tree.leaves()]
    assert spans[0][0] == 0 and spans[-1][1] == MAX_KEY
    for (a, b), (c, d) in zip(spans, spans[1:]):
        assert b == c  # adjacent: (lo, hi] then (hi, next]
    assert leaf_key_sets(tree) == [[1, 2], [5, 7], [9]]


def test_check_structure_flags_duplicate_across_leaves():
    tree = build_flat(TreeConfig(3, 4, 2), [[1, 2], [5, 7]])
    inner = tree.root.children[0]
    second = inner.children[1]
    second.slots[3] = encode(2)  # 2 also lives in the first leaf
    bad = tree.check_structure()
    assert any("in two leaves" in b for b in bad)


def test_check_structure_flags_out_of_range_key():
    tree = build_flat(TreeConfig(3, 4, 2), [[1, 2], [5, 7]])
    inner = tree.root.children[0]
    first = inner.children[0]
    first.slots[2] = encode(6)  # above separator 2
    bad = tree.check_structure()
    assert any("outside its leaf range" in b for b in bad)


def test_check_structure_flags_misordered_separators():
    tree = build_flat(TreeConfig(4, 4, 2), [[1], [3], [5]])
    inner = tree.root.children[0]
    inner.separators = (3, 3)
    assert any("not increasing" in b for b in tree.check_structure())


def test_check_structure_flags_frozen_slot_and_status():
    tree = build_flat(TreeConfig(3, 4, 2), [[1, 2], [5, 7]])
    inner = tree.root.children[0]
    inner.children[0].slots[0] = encode(1) | RO_BIT
    inner.status[0] = (1, 0, FROZEN)
    bad = tree.check_structure()
    assert any("frozen key" in b for b in bad)
    assert any("non-idle status" in b for b in bad)


def test_check_structure_flags_shared_child():
    tree = build_flat(TreeConfig(3, 4, 2), [[1, 2], [5, 7]])
    inner = tree.root.children[0]
    inner.children[1] = inner.children[0]
    assert any("reached twice" in b for b in tree.check_structure())


def test_check_structure_flags_uneven_leaf_depth():
    cfg = TreeConfig(3, 4, 2)
    tree = build_flat(cfg, [[1, 2], [5, 7]])
    inner = tree.root.children[0]
    shallow = padded_leaf(cfg.leaf_capacity, [encode(9)])
    deep = InternalNode([inner], ())
    tree.root.children[0] = InternalNode([deep, shallow], (8,))
    assert any("different depths" in b for b in tree.check_structure())


def test_a_duplicate_is_listed_by_snapshot_and_judged_by_the_checks():
    tree = build_flat(TreeConfig(3, 4, 2), [[1, 2], [5, 7]])
    inner = tree.root.children[0]
    inner.children[1].slots[3] = encode(2)
    assert any("key 2 in two leaves" in b for b in tree.check_structure())
    snap = tree.snapshot()  # a plain read: the key is listed twice
    assert snap == [1, 2, 2, 5, 7]
    records = [(0, INSERT, k, k, t, t + 1, 1)
               for t, k in enumerate([1, 2, 5, 7])]
    assert snapshot_consistent(records, snap) == [
        "snapshot contains duplicates"]


def test_dead_slots_are_invisible():
    tree = build_flat(TreeConfig(3, 4, 2), [[1, 2], [5, 7]])
    inner = tree.root.children[0]
    inner.children[0].slots[0] = DEAD
    assert tree.snapshot() == [2, 5, 7]
    assert tree.check_structure() == []
    assert tree.search(1, 3) == 2


# --- leaf scans against the word layout -----------------------------------

# keys near both ends of the key space, and anywhere between
_keys = st.one_of(st.integers(MIN_KEY, MIN_KEY + 40),
                  st.integers(MAX_KEY - 40, MAX_KEY),
                  st.integers(MIN_KEY, MAX_KEY))
_words = st.one_of(st.just(EMPTY), st.just(DEAD), _keys,
                   _keys.map(lambda k: RO_BIT | k))


@settings(max_examples=400, deadline=None)
@given(st.lists(_words, min_size=4, max_size=64), _keys, _keys)
# e2 = MAX_KEY puts _find's bound at MAX_KEY + 1 == RO_BIT == DEAD: a dead
# word and a frozen MAX_KEY must still not pass as writable keys below it
@example([DEAD, RO_BIT | MAX_KEY, EMPTY, DEAD], MAX_KEY, MAX_KEY)
@example([RO_BIT | MAX_KEY, DEAD, EMPTY, MAX_KEY - 1], MIN_KEY, MAX_KEY)
@example([DEAD, EMPTY, RO_BIT | MAX_KEY, MAX_KEY], MAX_KEY - 1, MAX_KEY)
@example([DEAD, DEAD, EMPTY, DEAD], MIN_KEY, MAX_KEY)
def test_leaf_scans_match_the_word_layout(words, a, b):
    e1, e2 = min(a, b), max(a, b)
    leaf = LeafNode(list(words))
    (key, slot, word), empty, live = scan_by_definition(words, e1, e2)
    want_scan = (slot, word, live)
    direct = tree_mod._direct
    assert sim.run(tree_mod._scan(leaf, e1, e2)) == want_scan
    assert direct._scan(leaf, e1, e2) == want_scan
    assert sim.run(tree_mod._find(leaf, e1, e2)) == key
    assert direct._find(leaf, e1, e2) == key
    # an insert of `a` probes for a itself and the first writable empty slot
    (held, _, _), empty, _ = scan_by_definition(words, a, a)
    want_probe = (held == a, empty)
    assert sim.run(tree_mod._probe(leaf, a)) == want_probe
    assert direct._probe(leaf, a) == want_probe
    # one scheduling point before every slot read, and no other
    for core, args in ((tree_mod._scan, (e1, e2)), (tree_mod._find, (e1, e2)),
                       (tree_mod._probe, (a,))):
        assert sum(1 for _ in core(leaf, *args)) == len(words)


# --- the structure check against the recursive walk -------------------------


def _internal_nodes(tree):
    """Internal nodes below the root, parents before children."""
    out, todo = [], [tree.root.children[0]]
    while todo:
        node = todo.pop()
        if type(node) is InternalNode:
            out.append(node)
            todo += node.children
    return out


def _duplicate_key(tree, rng):
    keyed = [(leaf, i) for leaf, _, _ in tree.leaves()
             for i, w in enumerate(leaf.slots) if w & PAYLOAD_MASK]
    if not keyed:
        return False
    leaf, i = rng.choice(keyed)
    target, _, _ = rng.choice(tree.leaves())
    j = rng.randrange(len(target.slots))
    if target is leaf and j == i:
        j = (j + 1) % len(target.slots)
    target.slots[j] = leaf.slots[i] & PAYLOAD_MASK
    return True


def _key_outside_range(tree, rng):
    bounded = [(leaf, lo, hi) for leaf, lo, hi in tree.leaves()
               if lo > 0 or hi < MAX_KEY]
    if not bounded:
        return False
    leaf, lo, hi = rng.choice(bounded)
    leaf.slots[rng.randrange(len(leaf.slots))] = lo if lo > 0 else hi + 1
    return True


def _frozen_key(tree, rng):
    keyed = [(leaf, i) for leaf, _, _ in tree.leaves()
             for i, w in enumerate(leaf.slots) if 0 < w < RO_BIT]
    if not keyed:
        return False
    leaf, i = rng.choice(keyed)
    leaf.slots[i] |= RO_BIT
    return True


def _busy_status(tree, rng):
    node = rng.choice(_internal_nodes(tree))
    node.status[0] = (1, 0, rng.choice((PREP, SWAP, FROZEN)))
    return True


def _separators_out_of_order(tree, rng):
    nodes = [n for n in _internal_nodes(tree) if len(n.separators) >= 2]
    if not nodes:
        return False
    node = rng.choice(nodes)
    node.separators = node.separators[::-1]
    return True


def _mixed_children(tree, rng):
    nodes = [n for n in _internal_nodes(tree) if len(n.children) >= 2]
    if not nodes:
        return False
    node = rng.choice(nodes)
    j = rng.randrange(len(node.children))
    child = node.children[j]
    if type(child) is LeafNode:
        node.children[j] = InternalNode([child], ())
    else:
        node.children[j] = padded_leaf(tree.config.leaf_capacity)
    return True


def _uneven_depth(tree, rng):
    leaves = tree.leaves()
    if len(leaves) < 2:
        return False
    leaf, _, _ = rng.choice(leaves)
    for node in _internal_nodes(tree):
        for j, child in enumerate(node.children):
            if child is leaf:
                node.children[j] = InternalNode([leaf], ())
                return True
    return False


_CORRUPTIONS = (_duplicate_key, _key_outside_range, _frozen_key, _busy_status,
                _separators_out_of_order, _mixed_children, _uneven_depth)


@settings(max_examples=300, deadline=None)
@given(st.sampled_from([TreeConfig(3, 4, 2), TreeConfig(4, 4, 2),
                        TreeConfig(3, 8, 2)]),
       st.lists(st.tuples(st.booleans(), st.integers(1, 80)), max_size=120),
       st.lists(st.sampled_from(_CORRUPTIONS), max_size=3),
       st.randoms(use_true_random=False))
def test_check_structure_matches_the_recursive_walk(cfg, ops, corruptions,
                                                    rng):
    tree = LeafTree(cfg)
    for add, k in ops:
        if add:
            tree.insert(k)
        else:
            tree.remove(k, k + rng.randrange(4))
    assert tree.check_structure() == check_structure_by_walk(tree) == []
    corrupted = [c(tree, rng) for c in corruptions]
    got = tree.check_structure()
    assert got == check_structure_by_walk(tree)
    if len(corrupted) == 1:  # a second corruption may mend the first
        assert bool(got) == corrupted[0]
    keys = sorted(k for leaf in leaf_key_sets(tree) for k in leaf)
    assert tree.snapshot() == keys  # a duplicated key listed twice


def test_check_structure_reports_every_corruption_kind():
    # one tree per corruption, each with its own message
    messages = {
        _duplicate_key: "twice in one leaf|in two leaves",
        _key_outside_range: "outside its leaf range",
        _frozen_key: "frozen key",
        _busy_status: "non-idle status",
        _separators_out_of_order: "not increasing",
        _mixed_children: "mixed leaf and internal children",
        _uneven_depth: "different depths",
    }
    for corrupt, pattern in messages.items():
        tree = LeafTree(TreeConfig(3, 4, 2))
        for k in range(1, 60, 2):
            tree.insert(k)
        assert corrupt(tree, random.Random(3))
        got = tree.check_structure()
        assert got == check_structure_by_walk(tree)
        assert any(re.search(pattern, b) for b in got), (corrupt, got)
