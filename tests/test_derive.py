"""The yield-free cores that the public methods run are derived from the
generator cores the schedule explorer drives; both must compute the same
thing."""

import importlib.util
import inspect

import pytest

from lftree import rebalance as rb
from lftree import sim
from lftree import tree as tree_mod
from lftree.derive import STEPS, copies
from lftree.harness import RunConfig, make_ops
from lftree.tree import LeafTree
from lftree.verify import REMOVE, SEARCH

SHAPES = [
    dict(order=4, leaf_capacity=4, min_size=2, key_range=4096),
    dict(order=32, leaf_capacity=32, min_size=8, key_range=1 << 16),
    dict(order=64, leaf_capacity=64, min_size=16, key_range=1 << 16),
]


def _counters(tree):
    snap = tree.stats.snapshot()
    return snap.pop("records"), snap


@pytest.mark.parametrize("shape", SHAPES)
def test_public_methods_match_the_generator_cores(shape):
    cfg = RunConfig(threads=1, ops_per_thread=3000, seed=11, **shape)
    ops = make_ops(cfg, 0)

    direct = LeafTree(cfg.tree_config())
    got = []
    for kind, e1, e2 in ops:
        if kind == SEARCH:
            got.append(direct.search(e1, e2))
        elif kind == REMOVE:
            got.append(direct.remove(e1, e2))
        else:
            got.append(1 if direct.insert(e1) else 0)

    stepped = LeafTree(cfg.tree_config())
    records = []
    sim.run_round_robin([sim.op_thread(stepped, sim.Clock(), 0, ops,
                                       records)])
    want = [r.result for r in records]

    assert got == want
    assert direct.snapshot() == stepped.snapshot()
    assert _counters(direct) == _counters(stepped)
    assert _counters(direct)[1]["link_swaps"] > 0
    assert direct.check_structure() == stepped.check_structure() == []


def test_derived_cores_are_plain_functions():
    direct, counted = tree_mod._direct, tree_mod._counted
    for name in ("_search", "_remove", "_insert", "_descend", "_scan",
                 "_find", "_probe"):
        assert inspect.isgeneratorfunction(getattr(tree_mod, name))
        assert not inspect.isgeneratorfunction(getattr(direct, name))
        assert not inspect.isgeneratorfunction(getattr(counted, name))
    direct_rb, counted_rb = direct.rb, counted.rb
    assert len({id(rb), id(direct_rb), id(counted_rb)}) == 3
    for name in ("trigger", "execute", "freeze_leaf", "freeze_internal",
                 "_build_plan", "_plan_leaf", "_links"):
        assert inspect.isgeneratorfunction(getattr(rb, name))
        assert not inspect.isgeneratorfunction(getattr(direct_rb, name))
        assert not inspect.isgeneratorfunction(getattr(counted_rb, name))
    # everything that is not a generator is shared, not copied
    for copy in (direct_rb, counted_rb):
        assert copy.RebalanceStats is rb.RebalanceStats
        assert copy.live_keys is rb.live_keys
    # the counted copies tick one counter; the yield-free ones none
    assert counted._steps is counted_rb._steps is STEPS
    assert "_steps" not in direct.__dict__
    assert "_steps" not in direct_rb.__dict__
    # the slot-loop rule does not fire in a counted copy
    assert "range" in counted._find.__code__.co_names
    # a scan that needs no slot index iterates its word list; the others
    # keep their index loop
    for fn in (direct._find, direct_rb._links):
        assert "range" not in fn.__code__.co_names
    for fn in (direct._probe, direct._scan, direct_rb.freeze_leaf):
        assert "range" in fn.__code__.co_names


def _module(tmp_path, name, source):
    path = tmp_path / f"{name}.py"
    path.write_text(source)
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_yield_free_drops_yields_and_unwraps_delegation(tmp_path):
    mod = _module(tmp_path, "cores", (
        "def inner(x):\n"
        "    yield\n"
        "    return x + 1\n"
        "\n"
        "def outer(x):\n"
        "    while x < 40:\n"
        "        yield\n"
        "        x = yield from inner(x)\n"
        "    return x\n"
        "\n"
        "def plain(x):\n"
        "    return x\n"))
    assert sim.run(mod.outer(3)) == 40
    derived = copies(mod)[0]
    assert derived.outer(3) == 40
    assert derived.plain is mod.plain


def test_counted_copies_tick_once_per_yield(tmp_path):
    mod = _module(tmp_path, "counted", (
        "def inner(x):\n"
        "    yield\n"
        "    return x + 1\n"
        "\n"
        "def outer(x):\n"
        "    while x < 40:\n"
        "        yield\n"
        "        x = yield from inner(x)\n"
        "    return x\n"
        "\n"
        "def total(xs):\n"
        "    s = 0\n"
        "    for i in range(len(xs)):\n"
        "        yield\n"
        "        w = xs[i]\n"
        "        s += w\n"
        "    return s\n"))
    direct, counted = copies(mod)
    for name, arg in (("outer", 3), ("total", [3, 1, 4, 0, 5])):
        thread = sim.SimThread(getattr(mod, name)(arg))
        steps = sim._drain(thread)  # one resume more than it has yields
        n0 = STEPS.n
        assert getattr(counted, name)(arg) == thread.result
        assert STEPS.n - n0 == steps - 1
        n0 = STEPS.n
        assert getattr(direct, name)(arg) == thread.result
        assert STEPS.n == n0
    # the yield-free copy made from the counted form still iterates
    assert "range" not in direct.total.__code__.co_names
    assert "range" in counted.total.__code__.co_names


def test_yield_free_refuses_a_yield_that_carries_a_value(tmp_path):
    mod = _module(tmp_path, "valued", (
        "def core():\n"
        "    got = yield 5\n"
        "    return got\n"))
    with pytest.raises(SyntaxError, match="no yield-free form"):
        copies(mod)


# Slot loops: only the first derives to an iteration. The others use the
# index in the body, read it after the loop, read another list than the
# one ranged over, or read a slot other than the index.
_LOOPS = (
    "def total(xs):\n"
    "    s = 0\n"
    "    for i in range(len(xs)):\n"
    "        yield\n"
    "        w = xs[i]\n"
    "        s += w\n"
    "    return s\n"
    "\n"
    "def weighted(xs):\n"
    "    s = 0\n"
    "    for i in range(len(xs)):\n"
    "        yield\n"
    "        w = xs[i]\n"
    "        s += i * w\n"
    "    return s\n"
    "\n"
    "def first_zero(xs):\n"
    "    for i in range(len(xs)):\n"
    "        yield\n"
    "        w = xs[i]\n"
    "        if not w:\n"
    "            break\n"
    "    return i\n"
    "\n"
    "def total_of(xs, ys):\n"
    "    s = 0\n"
    "    for i in range(len(xs)):\n"
    "        yield\n"
    "        w = ys[i]\n"
    "        s += w\n"
    "    return s\n"
    "\n"
    "def successors(xs):\n"
    "    out = []\n"
    "    for i in range(len(xs)):\n"
    "        yield\n"
    "        w = xs[i + 1]\n"
    "        out.append(w)\n"
    "        if not w:\n"
    "            break\n"
    "    return out\n")


@pytest.mark.parametrize("name,args,iterates", [
    ("total", ([3, 1, 4, 0, 5],), True),
    ("weighted", ([3, 1, 4, 0, 5],), False),
    ("first_zero", ([3, 1, 4, 0, 5],), False),
    ("total_of", ([3, 1, 4], [20, 30, 40, 50]), False),
    ("successors", ([3, 1, 4, 0, 5],), False),
], ids=["index-only", "index-in-body", "index-after-loop", "other-list",
        "next-slot"])
def test_slot_loops_iterate_only_when_the_index_is_unused(tmp_path, name,
                                                          args, iterates):
    mod = _module(tmp_path, "loops", _LOOPS)
    derived = getattr(copies(mod)[0], name)
    assert derived(*args) == sim.run(getattr(mod, name)(*args))
    names = derived.__code__.co_names
    assert ("range" in names, "len" in names) == (not iterates,) * 2
