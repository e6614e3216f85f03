"""Deterministic scheduling of operation generators.

The tree's operation cores yield before every shared-word access, so a
scheduler that picks which generator to advance at each yield controls the
interleaving completely. One loop, `_drive`, steps every multi-thread run:
while two or more threads are runnable it steps, through `step`, the
thread that a pick policy names. Once the policy names none, or one thread
is left, the rest run to completion in thread order, each in one tight
loop, `_drain`, which ticks the clock before every step just as repeated
`step` calls would. Three policies drive it:

- `explore` replays a schedule prefix; within the step bound it goes on
  with the lowest runnable thread and stacks a schedule for each other
  one, replayed later from a fresh setup; past the bound it names none.
- `run_seeded` draws one runnable thread per step from a seeded rng, for
  thread counts where enumeration is too wide. Among n runnable threads
  it takes n.bit_length() bits from getrandbits, again while they read
  >= n: the draw Random.choice makes, so schedules depend on nothing but
  the generator's getrandbits.
- `run_round_robin` takes the first runnable thread after its last pick,
  cyclically.

A Clock counts scheduler steps; operation wrappers stamp their records with
it, giving small-model histories integer timestamps the history checker can
consume directly.

The solo stretch. An `op_thread` steps each op's `tree._op` generator,
as a scenario steps the ops it races. While `_drain` runs a thread, no other
thread steps until it finishes, so its scheduling points choose nothing.
`_drain` sets its clock's `solo` flag only while the generator it runs is
an op thread, which it recognizes by the generator's code object
(`gi_code is op_thread.__code__`). An op thread never resumes another
generator, so while the flag is set it is the only op-thread code that
runs. An `op_thread` that finds the flag set at an op boundary runs each
remaining op through the
counted copy of `_op` (derive.py): yield-free, each scheduling point one
tick of the process-wide `derive.STEPS`. It stamps t1, runs the op,
advances the clock by the counter's delta and stamps t2. That is exact. A
generator takes one tick per resume, and the resume that ends op k also
starts op k+1 and runs it up to its first yield; the counted copy runs
that first stretch with no tick, then ticks once per later yield, just as
each later resume would. So t1 and t2, every shared read, CAS and
allocation in order, the records, `tree.stats` and the total ticks
(`_drain`'s return value, and `run_seeded`'s drained picks) all match the
stepped run. The clock advances in a `finally`, so an op that raises
leaves the count a stepped run leaves. A thread drained mid-op finishes
that op by stepping its generator. An op thread that another generator
steps, and every generator that is not an op thread, such as a
scenario's, is always stepped.
"""

from __future__ import annotations

import random
from bisect import bisect_right
from typing import Callable, NamedTuple, Optional

from . import tree as _tree
from .derive import STEPS
from .keyspace import _exact_int
from .verify import OpRecord


class Clock:
    __slots__ = ("t", "solo")

    def __init__(self):
        self.t = 0
        self.solo = False  # `_drain` runs an op thread alone on this clock


class SimThread:
    __slots__ = ("gen", "done", "result")

    def __init__(self, gen):
        self.gen = gen
        self.done = False
        self.result = None


def _refuse_finished(thread: SimThread, what: str) -> None:
    if thread.done:
        raise ValueError(f"{what}: the thread has finished "
                         f"(result {thread.result!r})")


def step(thread: SimThread, clock: Optional[Clock] = None) -> None:
    _refuse_finished(thread, "step")
    if clock is not None:
        clock.t += 1
    try:
        next(thread.gen)
    except StopIteration as stop:
        thread.done = True
        thread.result = stop.value


def _drain(thread: SimThread, clock: Optional[Clock] = None) -> int:
    """Run a thread to completion, ticking the clock before every step as
    `step` does, with the clock marked solo if it is an op thread. Returns
    the number of steps taken."""
    _refuse_finished(thread, "_drain")
    if clock is None:
        clock = Clock()
    t0 = clock.t
    gen = thread.gen
    outer = clock.solo
    clock.solo = getattr(gen, "gi_code", None) is op_thread.__code__
    try:
        while True:
            clock.t += 1
            next(gen)
    except StopIteration as stop:
        thread.done = True
        thread.result = stop.value
    finally:
        clock.solo = outer
    return clock.t - t0


def _drive(threads: list, clock: Optional[Clock], pick, picks: list,
           drained: list) -> None:
    """The run loop. pick(alive) names the next thread to step among the
    runnable indices `alive` (in thread order), or None to stop choosing.
    Each pick is appended to `picks`, and the thread of each drained step
    to `drained`."""
    alive = list(range(len(threads)))
    while len(alive) > 1:
        i = pick(alive)
        if i is None:
            break
        picks.append(i)
        th = threads[i]
        step(th, clock)
        if th.done:
            alive.remove(i)
    for i in alive:
        drained.extend([i] * _drain(threads[i], clock))


def run(gen):
    """Drive one generator to completion, no interleaving."""
    th = SimThread(gen)
    _drain(th)
    return th.result


def run_round_robin(gens, clock: Optional[Clock] = None):
    """One step per runnable thread in turn, cycling until all finish."""
    threads = [SimThread(g) for g in gens]
    picks = [-1]  # as if a thread before thread 0 had stepped last

    def after_last(alive):
        return alive[bisect_right(alive, picks[-1]) % len(alive)]

    _drive(threads, clock, after_last, picks, [])
    return [th.result for th in threads]


def run_until(thread: SimThread, pred: Callable[[], bool],
              clock: Optional[Clock] = None, limit: int = 1_000_000) -> int:
    """Advance one thread until pred() holds or it finishes, in at most
    `limit` (>= 0) steps. Returns the number of steps taken."""
    _exact_int("run_until: limit", limit, 0)
    steps = 0
    while not thread.done and not pred():
        if steps >= limit:
            raise RuntimeError(f"run_until: no progress in {limit} steps")
        step(thread, clock)
        steps += 1
    return steps


class ExploreReport(NamedTuple):
    schedules: int                 # complete schedules enumerated
    failures: list                 # (schedule, problems) per failing schedule


def _checked_run(setup, check, pick, picks: list, drained: list,
                 failures: list) -> None:
    """Drive one schedule from a fresh setup under `pick`, then check it.
    The schedule is `picks` as the drive leaves it."""
    clock = Clock()
    ctx, gens = setup(clock)
    threads = [SimThread(g) for g in gens]
    _drive(threads, clock, pick, picks, drained)
    if check is not None:
        schedule = tuple(picks)
        try:
            problems = check(ctx, threads, schedule)
        except AssertionError as exc:
            problems = [f"assertion: {exc}"]
        if problems:
            failures.append((schedule, list(problems)))


def _branching(prefix: tuple, bound: Optional[int], stack: list,
               picks: list):
    """explore's pick policy for one run: replay `prefix`; then, within
    the bound, push the schedules that take each other runnable thread and
    go on with the lowest; past the bound, name none."""
    replayed = len(prefix)

    def pick(alive):
        k = len(picks)
        if k < replayed:
            return prefix[k]
        if bound is not None and k >= bound:
            return None
        schedule = tuple(picks)
        for i in alive[:0:-1]:  # popped in thread order
            stack.append(schedule + (i,))
        return alive[0]
    return pick


def explore(setup, check=None, bound: Optional[int] = None) -> ExploreReport:
    """Exhaustively enumerate interleavings up to a step bound.

    setup(clock) -> (ctx, gens): build fresh state and the thread
        generators; called exactly once per complete schedule.
    check(ctx, threads, schedule) -> list of problem strings (or None);
        called after each complete schedule. AssertionErrors are captured
        as problems too.

    Every step counts toward `bound` (>= 0), forced or not; branching
    happens at steps with two or more runnable threads. bound=None
    enumerates every complete schedule. A schedule is the tuple of thread
    indices chosen at the branch points, which replays the run exactly.
    The search is depth first, lowest thread index first.
    """
    if bound is not None:
        _exact_int("explore: bound", bound, 0)
    failures = []
    count = 0
    stack: list[tuple[int, ...]] = [()]
    while stack:
        picks = []
        pick = _branching(stack.pop(), bound, stack, picks)
        _checked_run(setup, check, pick, picks, [], failures)
        count += 1
    return ExploreReport(count, failures)


def run_seeded(setup, check=None, seed: int = 0,
               runs: int = 1000) -> ExploreReport:
    """Drive `runs` pseudo-random schedules from one seed.

    Same setup/check contract as explore. The rng draws one pick per step
    while two or more threads are runnable. The recorded schedule is every
    pick, the last thread's drained steps included, so a failure replays
    without the rng.
    """
    _exact_int("run_seeded: runs", runs, 1)
    bits = random.Random(seed).getrandbits

    def pick(alive):  # rng.choice(alive), without its two Python frames
        n = len(alive)
        k = n.bit_length()
        i = bits(k)
        while i >= n:
            i = bits(k)
        return alive[i]

    failures = []
    for _ in range(runs):
        picks = []
        # drained steps go into the schedule too
        _checked_run(setup, check, pick, picks, picks, failures)
    return ExploreReport(runs, failures)


def op_thread(tree, clock: Clock, tid: int, ops, out: list):
    """Generator running a list of (kind, e1, e2) ops through `tree._op`,
    appending clock-stamped records to `out`. At an op boundary where
    `_drain` runs it alone, it runs the op through the counted `_op` (see
    the module docstring)."""
    new = tuple.__new__  # an OpRecord, minus its Python-level __new__
    for kind, e1, e2 in ops:
        t1 = clock.t
        if clock.solo:
            n0 = STEPS.n
            try:
                r = _tree._counted._op(tree, kind, e1, e2)
            finally:
                clock.t += STEPS.n - n0
        else:
            r = yield from _tree._op(tree, kind, e1, e2)
        out.append(new(OpRecord, (tid, kind, e1, e2, t1, clock.t, r)))
