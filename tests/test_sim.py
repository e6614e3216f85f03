"""Scheduler mechanics: step accounting, exhaustive enumeration counts,
bound/drain behavior, seeded replay, and operation record stamping."""

import gc
import hashlib
import math
import random
import weakref

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference
from lftree import harness, sim
from lftree.derive import STEPS
from lftree.keyspace import RO_BIT
from lftree.nodes import PREP, TreeConfig
from lftree.tree import LeafTree, _op
from lftree.verify import INSERT, REMOVE, SEARCH, check_history


def chatty(yields, log, tag):
    """A generator taking yields+1 steps, logging its tag once per step."""
    for _ in range(yields):
        log.append(tag)
        yield
    log.append(tag)


def two_thread_setup(ya, yb):
    def setup(clock):
        log = []
        return log, [chatty(ya, log, 0), chatty(yb, log, 1)]
    return setup


def test_run_returns_generator_value():
    def g():
        yield
        yield
        return 42
    assert sim.run(g()) == 42


def test_round_robin_alternates_and_counts_steps():
    log = []
    clock = sim.Clock()
    results = sim.run_round_robin(
        [chatty(2, log, "a"), chatty(1, log, "b")], clock)
    assert results == [None, None]
    assert log == ["a", "b", "a", "b", "a"]
    assert clock.t == 5


def test_run_until_stops_at_predicate():
    log = []
    th = sim.SimThread(chatty(9, log, 0))
    taken = sim.run_until(th, lambda: len(log) >= 4)
    assert taken == 4 and not th.done


def test_a_finished_thread_is_not_stepped_again():
    def once():
        yield
        return 7

    for advance in (sim.step, sim._drain):
        clock = sim.Clock()
        th = sim.SimThread(once())
        assert sim._drain(th, clock) == 2
        with pytest.raises(ValueError, match="thread has finished"):
            advance(th, clock)
        assert (th.done, th.result, clock.t) == (True, 7, 2)


def test_run_until_gives_up_at_limit():
    def forever():
        while True:
            yield
    th = sim.SimThread(forever())
    with pytest.raises(RuntimeError, match="no progress in 50"):
        sim.run_until(th, lambda: False, limit=50)


@pytest.mark.parametrize("limit", [-1, 1.5, True, "50"])
def test_run_until_refuses_a_limit_that_is_not_an_int_at_least_0(limit):
    th = sim.SimThread(chatty(3, [], 0))
    with pytest.raises(ValueError, match="run_until: limit"):
        sim.run_until(th, lambda: False, limit=limit)
    assert not th.done
    assert sim.run_until(th, lambda: True, limit=0) == 0  # 0 is a limit


def test_run_until_finishing_on_the_last_allowed_step():
    th = sim.SimThread(chatty(49, [], 0))  # 50 steps
    assert sim.run_until(th, lambda: False, limit=50) == 50
    assert th.done


def test_run_until_predicate_met_on_the_last_allowed_step():
    log = []
    th = sim.SimThread(chatty(9, log, 0))
    assert sim.run_until(th, lambda: len(log) >= 5, limit=5) == 5
    assert not th.done


# --- exhaustive exploration ---------------------------------------------


@pytest.mark.parametrize("ya,yb", [(0, 0), (1, 1), (2, 1), (2, 2), (3, 2)])
def test_explore_counts_independent_interleavings(ya, yb):
    # a generator with y yields takes y+1 steps; independent threads give
    # the binomial merge count, each schedule a distinct order
    na, nb = ya + 1, yb + 1
    seen = set()

    def check(log, threads, schedule):
        assert all(th.done for th in threads)
        assert len(log) == na + nb
        seen.add(tuple(log))

    report = sim.explore(two_thread_setup(ya, yb), check)
    assert report.failures == []
    assert report.schedules == math.comb(na + nb, na)
    assert len(seen) == report.schedules


def test_explore_three_threads_multinomial():
    def setup(clock):
        log = []
        return log, [chatty(1, log, i) for i in range(3)]

    report = sim.explore(setup)
    assert report.schedules == math.factorial(6) // 8  # 6!/(2!2!2!)


def test_explore_bound_zero_is_a_single_drain():
    seen = set()

    def check(log, threads, schedule):
        assert schedule == ()
        seen.add(tuple(log))

    report = sim.explore(two_thread_setup(2, 2), check, bound=0)
    assert report.schedules == 1
    assert seen == {(0, 0, 0, 1, 1, 1)}


def test_explore_bound_cuts_branching_then_drains_lowest_first():
    seen = set()

    def check(log, threads, schedule):
        assert len(schedule) <= 2
        seen.add(tuple(log))

    report = sim.explore(two_thread_setup(2, 2), check, bound=2)
    assert report.schedules == 4
    assert seen == {
        (0, 0, 0, 1, 1, 1),
        (0, 1, 0, 0, 1, 1),
        (1, 0, 0, 0, 1, 1),
        (1, 1, 0, 0, 0, 1),
    }


def test_explore_bound_past_the_end_is_complete():
    full = sim.explore(two_thread_setup(2, 2))
    capped = sim.explore(two_thread_setup(2, 2), bound=100)
    assert capped.schedules == full.schedules == math.comb(6, 3)


def test_explore_failures_carry_replayable_schedules():
    def check(log, threads, schedule):
        if log[0] == 1:
            return [f"thread 1 went first: {log}"]

    report = sim.explore(two_thread_setup(2, 2), check)
    assert report.schedules == math.comb(6, 3)
    assert len(report.failures) == math.comb(5, 2)
    assert all(schedule[0] == 1 for schedule, _ in report.failures)


def test_explore_turns_assertions_into_problems():
    def check(log, threads, schedule):
        assert log[0] == 0, "thread 1 went first"

    report = sim.explore(two_thread_setup(1, 1), check)
    bad = [p for _, problems in report.failures for p in problems]
    assert len(bad) == math.comb(4, 2) // 2
    assert all(p.startswith("assertion: thread 1 went first") for p in bad)


def test_explore_is_deterministic():
    def check(log, threads, schedule):
        if log[0] == 1:
            return ["late"]

    a = sim.explore(two_thread_setup(2, 1), check)
    b = sim.explore(two_thread_setup(2, 1), check)
    assert a == b


def test_explore_rejects_a_negative_bound():
    for bound, match in ((-1, "bound must be >= 0"),
                         (True, "bound must be an int, not bool"),
                         (1.5, "bound must be an int, not float")):
        with pytest.raises(ValueError, match=match):
            sim.explore(two_thread_setup(1, 1), bound=bound)


def test_explore_sets_up_once_per_schedule():
    setup = two_thread_setup(2, 2)
    calls = []

    def counted(clock):
        calls.append(clock)
        return setup(clock)

    for bound in (None, 0, 3):
        calls.clear()
        report = sim.explore(counted, bound=bound)
        assert len(calls) == report.schedules


@st.composite
def explore_cases(draw):
    yields = draw(st.lists(st.integers(0, 4), min_size=2, max_size=3))
    steps = [y + 1 for y in yields]
    complete = math.factorial(sum(steps)) // math.prod(
        math.factorial(n) for n in steps)
    # unbounded only where the complete enumeration stays small
    bounds = st.integers(0, 6)
    if complete <= 2000:
        bounds = st.none() | bounds
    return (yields, draw(bounds), draw(st.integers(0, 1 << 16)),
            draw(st.integers(1, 5)), draw(st.booleans()))


def _logged_exploration(explorer, yields, bound, salt, modulus, raises):
    """Run an explorer over chatty threads whose check flags the logs that
    hash into a salted subset; return its report, the (schedule, log,
    threads done) seen at each check, and the number of setups."""
    calls = []
    setups = 0

    def setup(clock):
        nonlocal setups
        setups += 1
        log = []
        return log, [chatty(y, log, i) for i, y in enumerate(yields)]

    def check(log, threads, schedule):
        calls.append((schedule, tuple(log), all(th.done for th in threads)))
        if hash((salt, tuple(log))) % modulus == 0:
            if raises:
                raise AssertionError(f"flagged {log}")
            return [f"flagged {log}", "second problem"]

    report = explorer(setup, check, bound=bound)
    return report, calls, setups


@settings(max_examples=60, deadline=None)
@given(explore_cases())
def test_explore_matches_the_replay_reference(case):
    got, got_calls, setups = _logged_exploration(sim.explore, *case)
    want, want_calls, _ = _logged_exploration(reference.explore_by_replay,
                                              *case)
    assert got == want
    assert got_calls == want_calls
    assert all(done for _, _, done in got_calls)
    assert setups == got.schedules


def test_run_seeded_rejects_fewer_than_one_run():
    for runs, match in ((0, "runs must be >= 1"), (-3, "runs must be >= 1"),
                        (2.5, "runs must be an int, not float"),
                        (True, "runs must be an int, not bool")):
        with pytest.raises(ValueError, match=match):
            sim.run_seeded(two_thread_setup(1, 1), runs=runs)


# --- seeded schedules ---------------------------------------------------


def test_run_seeded_is_deterministic_per_seed():
    logs = []

    def check(log, threads, schedule):
        logs.append((schedule, tuple(log)))
        return ["collect"]

    a = sim.run_seeded(two_thread_setup(2, 2), check, seed=5, runs=20)
    first = list(logs)
    logs.clear()
    b = sim.run_seeded(two_thread_setup(2, 2), check, seed=5, runs=20)
    assert a == b
    assert logs == first
    assert a.schedules == 20


def test_run_seeded_schedules_replay_without_the_rng():
    captured = []

    def check(log, threads, schedule):
        captured.append((schedule, tuple(log)))
        return ["collect"]

    sim.run_seeded(two_thread_setup(2, 2), check, seed=9, runs=5)
    for schedule, log in captured:
        assert len(schedule) == 6  # every pick recorded, not just branches
        replay_log = []
        threads = [sim.SimThread(chatty(2, replay_log, 0)),
                   sim.SimThread(chatty(2, replay_log, 1))]
        for pick in schedule:
            sim.step(threads[pick])
        assert tuple(replay_log) == log


# --- the drivers against their step-by-step references -------------------


class Boom(Exception):
    pass


def ending(yields, log, tag, clock, fail):
    """A generator taking yields+1 steps that logs (tag, clock reading) at
    each step and then returns a value or, with `fail`, raises Boom."""
    for _ in range(yields):
        log.append((tag, clock and clock.t))
        yield
    log.append((tag, clock and clock.t))
    if fail:
        raise Boom(tag)
    return (tag, yields)


_drivers = st.tuples(
    st.lists(st.integers(0, 6), min_size=1, max_size=4),  # yields per thread
    st.none() | st.integers(0, 3),                         # the failing one
    st.booleans())                                         # with a clock


def _outcome(call):
    try:
        return "returned", call()
    except Boom as exc:
        return "raised", exc.args


@settings(max_examples=200, deadline=None)
@given(_drivers)
def test_run_round_robin_matches_the_step_reference(case):
    yields, fail, clocked = case

    def drive(driver):
        clock = sim.Clock() if clocked else None
        log = []
        gens = [ending(y, log, i, clock, i == fail)
                for i, y in enumerate(yields)]
        return _outcome(lambda: driver(gens, clock)), log, clock and clock.t

    assert (drive(sim.run_round_robin)
            == drive(reference.round_robin_by_step))


@settings(max_examples=200, deadline=None)
@given(_drivers, st.integers(0, 1 << 16), st.integers(1, 6))
def test_run_seeded_matches_the_step_reference(case, seed, runs):
    yields, fail, clocked = case

    def drive(driver):
        seen = []

        def setup(clock):
            log = []
            clock = clock if clocked else None
            return (log, clock), [ending(y, log, i, clock, i == fail)
                                  for i, y in enumerate(yields)]

        def check(ctx, threads, schedule):
            log, clock = ctx
            seen.append((schedule, log, clock and clock.t,
                         [th.result for th in threads]))
            if len(schedule) % 3 == 0:
                return ["flagged"]

        got = _outcome(lambda: tuple(driver(setup, check, seed=seed,
                                            runs=runs)))
        return got, seen

    assert drive(sim.run_seeded) == drive(reference.seeded_by_step)


# --- operation record stamping ------------------------------------------


def test_op_thread_stamps_clock_and_results():
    tree = LeafTree(TreeConfig(3, 4, 2))
    clock = sim.Clock()
    out = []
    ops_a = [(INSERT, 10, 10), (INSERT, 20, 20), (SEARCH, 1, 50)]
    ops_b = [(INSERT, 20, 20), (REMOVE, 15, 25), (SEARCH, 20, 20)]
    sim.run_round_robin([
        sim.op_thread(tree, clock, 0, ops_a, out),
        sim.op_thread(tree, clock, 1, ops_b, out),
    ], clock)

    assert len(out) == 6
    assert {r.tid for r in out} == {0, 1}
    for r in out:
        assert 0 <= r.t1 < r.t2 <= clock.t
    for tid in (0, 1):
        mine = sorted((r for r in out if r.tid == tid), key=lambda r: r.t1)
        assert [r.kind for r in mine] == [k for k, _, _ in
                                          (ops_a if tid == 0 else ops_b)]
        for prev, cur in zip(mine, mine[1:]):
            assert cur.t1 >= prev.t2
    assert check_history(out) == []


def test_op_thread_rejects_unknown_kind():
    tree = LeafTree(TreeConfig(3, 4, 2))
    gen = sim.op_thread(tree, sim.Clock(), 0, [("DROP", 1, 1)], [])
    with pytest.raises(ValueError, match="unknown op kind"):
        sim.run(gen)
    # drained alone on its own clock, it refuses the op on the counted path
    clock = sim.Clock()
    th = sim.SimThread(sim.op_thread(tree, clock, 0, [("DROP", 1, 1)], []))
    with pytest.raises(ValueError, match="unknown op kind"):
        sim._drain(th, clock)
    assert clock.t == 1
    # real threads run the same op core, yield-free: an unknown kind is no
    # insert there either
    with pytest.raises(ValueError, match="unknown op kind"):
        harness._run(tree, 0, [("DROP", 1, 1)], None, clock, 0)
    assert tree.snapshot() == []


def test_an_unstarted_op_thread_is_freed_when_dropped():
    gc.disable()
    try:
        gen = sim.op_thread(LeafTree(_SMALL), sim.Clock(), 0,
                            [(INSERT, 1, 1)], [])
        ref = weakref.ref(gen)
        del gen
        assert ref() is None
    finally:
        gc.enable()


# --- the explorer's output, pinned ----------------------------------------

_SMALL = TreeConfig(3, 4, 2)
_ALPHABET = ([(SEARCH, k, k) for k in (1, 2, 3, 4)]
             + [(INSERT, k, k) for k in (1, 2, 3, 4)]
             + [(REMOVE, k, k) for k in (1, 2, 3, 4)]
             + [(SEARCH, 1, 4), (SEARCH, 2, 3), (REMOVE, 1, 4), (REMOVE, 2, 3)])


def _criterion_8_pairs(n):
    """The first n 3-op x 3-op pairs of criterion 8's seeded extension, with
    the empty and the split-forcing prestate alternating."""
    rng = random.Random(2024)
    prestates = ((), (10, 20, 30, 40, 50))
    return [(prestates[i % 2], tuple(rng.choice(_ALPHABET) for _ in range(3)),
             tuple(rng.choice(_ALPHABET) for _ in range(3)))
            for i in range(n)]


def _pair_setup(pre, wa, wb):
    def setup(clock):
        tree = LeafTree(_SMALL)
        records = []
        if pre:
            sim.run_round_robin(
                [sim.op_thread(tree, clock, 2, [(INSERT, k, k) for k in pre],
                               records)], clock)
        return (tree, records, clock), [
            sim.op_thread(tree, clock, 0, list(wa), records),
            sim.op_thread(tree, clock, 1, list(wb), records)]
    return setup


def test_explored_schedules_replay_bit_identically():
    # A sha256 over what every check sees: the schedule, the records, the
    # snapshot, the clock and the thread results. Taken from the step-by-step
    # explorer; any change to a step, pick, clock tick or record moves it.
    digest = hashlib.sha256()
    calls = 0

    def check(ctx, threads, schedule):
        nonlocal calls
        calls += 1
        tree, records, clock = ctx
        digest.update(repr((schedule, [tuple(r) for r in records],
                            tree.snapshot(), clock.t,
                            [th.result for th in threads])).encode())

    pairs = _criterion_8_pairs(6)
    for pair in pairs:
        assert sim.explore(_pair_setup(*pair), check, bound=8).schedules == 256
    sim.run_seeded(_pair_setup(*pairs[1]), check, seed=11, runs=200)
    assert calls == 6 * 256 + 200
    assert digest.hexdigest() == (
        "9ed87eb6467301b67fdf3cb12a06f6eec422a2a1bafec79215ca146155266f95")


def _survivor_workload(rng, n):
    ops = []
    for _ in range(n):
        r, k = rng.random(), rng.randint(1, 64)
        if r < 0.5:
            ops.append((SEARCH, k, min(64, k + 3)))
        elif r < 0.75:
            ops.append((INSERT, k, k))
        else:
            ops.append((REMOVE, k, min(64, k + 3)))
    return ops


def test_round_robin_on_tree_operations_is_pinned():
    # A sha256 over (records, snapshot, clock, results) of two round-robin
    # runs on the tree: criterion 7's simulated half (two survivors of 600
    # ops each past a parked rebalance owner) and three threads that finish
    # at different steps. Any change to a step, pick or clock tick moves it.
    digest = hashlib.sha256()

    def pin(tree, records, clock, results):
        digest.update(repr(([tuple(r) for r in records], tree.snapshot(),
                            clock.t, results)).encode())

    tree = LeafTree(_SMALL)
    clock = sim.Clock()
    records = []
    pin(tree, records, clock, sim.run_round_robin(
        [sim.op_thread(tree, clock, 0,
                       [(INSERT, k, k) for k in (10, 20, 30, 40)], records)],
        clock))
    leaf = next(iter(tree.leaves()))[0]
    owner = sim.SimThread(_op(tree, INSERT, 25, 25))
    sim.run_until(owner, lambda: all(w & RO_BIT for w in leaf.slots), clock)
    assert not owner.done and tree.root.status[0][2] == PREP
    rng = random.Random(99)
    survivors = [sim.op_thread(tree, clock, tid, _survivor_workload(rng, 600),
                               records) for tid in (1, 2)]
    pin(tree, records, clock, sim.run_round_robin(survivors, clock))
    assert len(records) == 4 + 1200 and not owner.done

    tree = LeafTree(_SMALL)
    clock = sim.Clock()
    records = []
    rng = random.Random(5)
    lengths = (3, 17, 8)  # each thread finishes at a different step
    threads = [sim.op_thread(tree, clock, tid, _survivor_workload(rng, n),
                             records) for tid, n in enumerate(lengths)]
    pin(tree, records, clock, sim.run_round_robin(threads, clock))
    assert len(records) == sum(lengths)
    assert check_history(records) == []

    assert digest.hexdigest() == (
        "1b68a2c50325d763303722f9f04975c40cbb763d31f40786c76c017d7cb54b90")


# --- the solo stretch: a lone op thread runs the counted cores ------------


@st.composite
def solo_cases(draw):
    """A small tree shape, 2-3 op threads of 1-6 ops, an optional prestate
    of inserts, and the picks of the steps to take before draining."""
    config = draw(st.sampled_from([TreeConfig(3, 4, 2), TreeConfig(3, 5, 2),
                                   TreeConfig(5, 6, 3), TreeConfig(5, 4, 2)]))
    keys = st.integers(1, 12)

    def op():
        kind = draw(st.sampled_from([SEARCH, INSERT, REMOVE]))
        e1 = draw(keys)
        e2 = e1 if kind == INSERT else draw(st.integers(e1, 12))
        return kind, e1, e2

    workloads = [[op() for _ in range(draw(st.integers(1, 6)))]
                 for _ in range(draw(st.integers(2, 3)))]
    prestate = draw(st.lists(keys, max_size=6, unique=True))
    picks = draw(st.lists(st.integers(0, 2), max_size=60))
    return config, workloads, prestate, picks


def _solo_run(config, workloads, prestate, picks, drain):
    """Run the prestate, then step each pick's thread among the live
    ones, then finish every live thread in order: by `drain`, or by
    stepping alone."""
    tree = LeafTree(config)
    clock = sim.Clock()
    records = []
    drained = []

    def finish(th):
        if drain:
            drained.append(sim._drain(th, clock))
            return
        n = 0
        while not th.done:
            sim.step(th, clock)
            n += 1
        drained.append(n)

    if prestate:
        finish(sim.SimThread(sim.op_thread(
            tree, clock, len(workloads), [(INSERT, k, k) for k in prestate],
            records)))
    threads = [sim.SimThread(sim.op_thread(tree, clock, tid, ops, records))
               for tid, ops in enumerate(workloads)]
    for p in picks:
        alive = [th for th in threads if not th.done]
        if not alive:
            break
        sim.step(alive[p % len(alive)], clock)
    for th in threads:
        if not th.done:
            finish(th)
    return (records, clock.t, drained, tree.snapshot(),
            tree.check_structure(), tree.stats.snapshot())


@settings(max_examples=150, deadline=None)
@given(solo_cases())
def test_a_drained_op_thread_matches_its_stepped_run(case):
    assert _solo_run(*case, drain=True) == _solo_run(*case, drain=False)


def test_a_lone_prestate_runs_the_counted_cores():
    # explore-small's split-forcing prestate takes 88 clock steps. Run
    # alone, it runs counted from its first resume: the counter ticks at
    # every yield, 87, and the 88th step is that first resume. Stepped, the
    # counter does not move.
    pre = (10, 20, 30, 40, 50)
    n0 = STEPS.n
    clock = sim.Clock()
    _pair_setup(pre, (), ())(clock)
    assert clock.t == 88
    assert STEPS.n - n0 == 87

    clock = sim.Clock()
    th = sim.SimThread(sim.op_thread(LeafTree(_SMALL), clock, 2,
                                     [(INSERT, k, k) for k in pre], []))
    n0 = STEPS.n
    while not th.done:
        sim.step(th, clock)
    assert (clock.t, STEPS.n - n0) == (88, 0)


def test_op_threads_stepped_by_a_drained_generator_are_stepped():
    # The clock is marked solo only while an op thread is drained, not
    # while a conductor that steps op threads in turn is: they do not run
    # alone.
    def run(finish):
        tree = LeafTree(_SMALL)
        clock = sim.Clock()
        records = []
        threads = [sim.SimThread(sim.op_thread(
            tree, clock, tid, [(INSERT, k, k) for k in keys], records))
            for tid, keys in enumerate(((10, 30, 50), (20, 40, 60)))]

        def conductor():
            while not all(th.done for th in threads):
                for th in threads:
                    if not th.done:
                        sim.step(th, clock)
                yield

        finish(sim.SimThread(conductor()), clock)
        return records, clock.t

    def stepped(th, clock):
        while not th.done:
            sim.step(th, clock)

    n0 = STEPS.n
    records, t = run(sim._drain)
    assert STEPS.n == n0
    assert (records, t) == run(stepped)
    assert [r.tid for r in records] != sorted(r.tid for r in records)


class _RefusingList(list):
    def append(self, item):
        raise RuntimeError("refused")


def test_an_op_that_raises_leaves_the_stepped_count():
    # The fifth insert splits the leaf; its rebalance raises where it
    # would count the begin, mid-op, many steps into the insert.
    def run(finish):
        tree = LeafTree(_SMALL)
        tree.stats.begun = _RefusingList()
        clock = sim.Clock()
        records = []
        th = sim.SimThread(sim.op_thread(
            tree, clock, 0, [(INSERT, k, k) for k in (10, 20, 30, 40, 50)],
            records))
        with pytest.raises(RuntimeError, match="refused"):
            finish(th, clock)
        return clock.t, records

    def stepped(th, clock):
        while True:
            sim.step(th, clock)

    t, records = run(sim._drain)
    assert len(records) == 4 and t > records[-1].t2
    assert (t, records) == run(stepped)
