import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lftree.keyspace import MAX_KEY
from lftree.nodes import TreeConfig
from lftree.tree import LeafTree, _op
from lftree.verify import INSERT, REMOVE, SEARCH, SetOracle
from reference import PlainSetModel, build_flat


def _random_ops(rng, count, top, span):
    ops = []
    for _ in range(count):
        r = rng.random()
        e1 = rng.randint(1, top)
        if r < 0.4:
            ops.append((SEARCH, e1, min(top, e1 + rng.randint(0, span))))
        elif r < 0.7:
            ops.append((INSERT, e1, e1))
        else:
            ops.append((REMOVE, e1, min(top, e1 + rng.randint(0, span))))
    return ops


def _apply(tree, kind, e1, e2):
    if kind == SEARCH:
        return tree.search(e1, e2)
    if kind == REMOVE:
        return tree.remove(e1, e2)
    return 1 if tree.insert(e1) else 0


@pytest.mark.parametrize("cfg,seed,top", [
    (TreeConfig(3, 4, 2), 1, 64),
    (TreeConfig(3, 4, 2), 2, 4000),
    (TreeConfig(5, 8, 3), 3, 500),
    (TreeConfig(32, 32, 8), 4, 10_000),
])
def test_serial_ops_match_oracles(cfg, seed, top):
    rng = random.Random(seed)
    tree = LeafTree(cfg)
    oracle = SetOracle()
    model = PlainSetModel()
    for i, (kind, e1, e2) in enumerate(_random_ops(rng, 4000, top, top // 8)):
        got = _apply(tree, kind, e1, e2)
        want = oracle.apply(kind, e1, e2)
        also = model.apply(kind, e1, e2)
        assert want == also, "the two oracles disagree"
        assert got == want, f"op {i}: {kind} [{e1},{e2}] -> {got} != {want}"
        if i % 500 == 0:
            assert tree.snapshot() == oracle.keys()
    assert tree.snapshot() == oracle.keys() == sorted(model.keys)
    assert tree.check_structure() == []


def test_interval_contracts_pointwise():
    tree = LeafTree(TreeConfig(3, 4, 2))
    assert tree.search(1, MAX_KEY) == 0
    assert tree.remove(1, MAX_KEY) == 0
    assert tree.insert(7) is True
    assert tree.insert(7) is False  # continuously present
    assert tree.search(1, 10) == 7
    assert tree.search(8, 10) == 0
    for k in (3, 9, 15):
        tree.insert(k)
    assert tree.search(1, MAX_KEY) == 3  # smallest in range
    assert tree.remove(1, MAX_KEY) == 3  # removes the minimum
    assert tree.remove(1, 5) == 0
    assert tree.insert(3) is True  # removable then re-insertable
    assert tree.snapshot() == [3, 7, 9, 15]


def test_range_search_spans_leaves():
    tree = build_flat(TreeConfig(3, 4, 2), [[1, 2], [5, 7], [9, 11]])
    assert tree.search(3, 11) == 5
    assert tree.search(8, 20) == 9
    assert tree.search(12, MAX_KEY) == 0
    assert tree.remove(3, 10) == 5
    assert tree.remove(3, 10) == 7
    assert tree.remove(3, 10) == 9
    assert tree.remove(3, 10) == 0
    assert tree.snapshot() == [1, 2, 11]


def test_validation_errors():
    tree = LeafTree(TreeConfig(3, 4, 2))
    with pytest.raises(ValueError):
        tree.search(5, 3)  # empty range
    with pytest.raises(ValueError):
        tree.search(0, 3)  # below key space
    with pytest.raises(ValueError):
        tree.insert(MAX_KEY + 1)
    with pytest.raises(ValueError):
        tree.remove(-1, 3)


@pytest.mark.parametrize("bad", [1.5, True, "3"], ids=["float", "bool", "str"])
def test_non_int_keys_are_rejected(bad):
    # a stored float would make every later range comparison raise, and
    # True would be stored as key 1
    tree = LeafTree(TreeConfig(3, 4, 2))
    tree.insert(2)
    calls = {
        "insert": lambda: tree.insert(bad),
        "search-lo": lambda: tree.search(bad, 10),
        "search-hi": lambda: tree.search(1, bad),
        "search-one": lambda: tree.search(bad),
        "remove-lo": lambda: tree.remove(bad, 10),
        "remove-hi": lambda: tree.remove(1, bad),
        "remove-one": lambda: tree.remove(bad),
        "insert-op": lambda: next(_op(tree, INSERT, bad, bad)),
        "search-op": lambda: next(_op(tree, SEARCH, 1, bad)),
        "remove-op": lambda: next(_op(tree, REMOVE, bad, 10)),
    }
    for name, call in calls.items():
        with pytest.raises(ValueError, match="must be an int"):
            call()
    assert tree.search(1, 10) == 2
    assert tree.snapshot() == [2]


def test_max_key_boundary():
    tree = LeafTree(TreeConfig(3, 4, 2))
    assert tree.insert(MAX_KEY) is True
    assert tree.search(MAX_KEY, MAX_KEY) == MAX_KEY
    assert tree.remove(MAX_KEY, MAX_KEY) == MAX_KEY
    assert tree.snapshot() == []


def test_removed_slots_are_reused_without_rebalance():
    # a leaf's dead slots are compacted in place by insert, so churn inside
    # one leaf's range should not grow the tree
    tree = LeafTree(TreeConfig(3, 4, 2))
    for k in (1, 2, 3):
        tree.insert(k)
    swaps_before = len(tree.stats.records)
    for _ in range(30):
        assert tree.remove(2, 2) == 2
        assert tree.insert(2) is True
    assert tree.snapshot() == [1, 2, 3]
    # churn forces compaction rebuilds but the key set never splits
    assert tree.search(1, 3) == 1
    assert tree.check_structure() == []
    assert len(tree.stats.records) >= swaps_before


def test_compaction_rebuild_on_clogged_leaf():
    tree = LeafTree(TreeConfig(3, 4, 2))
    for k in (10, 20, 30, 40):
        tree.insert(k)
    for k in (20, 30, 40):
        assert tree.remove(k, k) == k
    # slots now hold one live key and tombstones; inserting must reclaim
    assert tree.insert(15) is True
    assert tree.snapshot() == [10, 15]
    assert tree.check_structure() == []


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(st.sampled_from("sir"),
                          st.integers(min_value=1, max_value=30),
                          st.integers(min_value=0, max_value=6)),
                max_size=120))
def test_small_alphabet_matches_oracle(steps):
    tree = LeafTree(TreeConfig(3, 4, 2))
    oracle = SetOracle()
    for code, e1, span in steps:
        kind = {"s": SEARCH, "i": INSERT, "r": REMOVE}[code]
        e2 = e1 if kind == INSERT else min(30, e1 + span)
        assert _apply(tree, kind, e1, e2) == oracle.apply(kind, e1, e2)
    assert tree.snapshot() == oracle.keys()
    assert tree.check_structure() == []
