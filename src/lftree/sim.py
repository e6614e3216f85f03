"""Deterministic scheduling of operation generators.

The tree's operation cores yield before every shared-word access, so a
scheduler that picks which generator to advance at each yield controls the
interleaving completely. `explore` enumerates interleavings exhaustively:
at every step within the step bound where two or more threads are runnable
the scheduler branches over all of them; past the bound (or once only one
thread remains) it drains deterministically, lowest index first. With no
bound the enumeration is complete. A run continues down the first branch
of every branch point it meets and leaves the other branches on a stack;
each one is later replayed from a fresh setup, so `setup` runs exactly
once per complete schedule and schedules replay bit-identically.
`run_seeded` drives the same setup/check pair through pseudo-random
schedules instead, for thread counts where enumeration is too wide.

`step` takes one step and serves the branch points. Wherever no choice is
left (past the bound, one thread left, `run`), a thread runs to completion
in one tight loop, `_drain`, which ticks the clock before every step just
as repeated `step` calls would: steps, clock stamps, schedules and picks
are the same either way.

A Clock counts scheduler steps; operation wrappers stamp their records with
it, giving small-model histories integer timestamps the history checker can
consume directly.
"""

from __future__ import annotations

import random
from typing import Callable, NamedTuple, Optional

from .verify import INSERT, REMOVE, SEARCH, OpRecord


class Clock:
    __slots__ = ("t",)

    def __init__(self):
        self.t = 0


class SimThread:
    __slots__ = ("gen", "done", "result")

    def __init__(self, gen):
        self.gen = gen
        self.done = False
        self.result = None


def step(thread: SimThread, clock: Optional[Clock] = None) -> None:
    if clock is not None:
        clock.t += 1
    try:
        next(thread.gen)
    except StopIteration as stop:
        thread.done = True
        thread.result = stop.value


def _drain(thread: SimThread, clock: Optional[Clock] = None) -> int:
    """Run a thread to completion, ticking the clock before every step as
    `step` does. Returns the number of steps taken."""
    if clock is None:
        clock = Clock()
    t0 = clock.t
    gen = thread.gen
    try:
        while True:
            clock.t += 1
            next(gen)
    except StopIteration as stop:
        thread.done = True
        thread.result = stop.value
    return clock.t - t0


def run(gen):
    """Drive one generator to completion, no interleaving."""
    th = SimThread(gen)
    _drain(th)
    return th.result


def run_round_robin(gens, clock: Optional[Clock] = None):
    """One step per runnable thread, cycling until all finish."""
    threads = [SimThread(g) for g in gens]
    alive = threads
    while len(alive) > 1:
        for th in alive:
            step(th, clock)
            if th.done:  # the round goes on over the list it started with
                alive = [t for t in alive if not t.done]
    for th in alive:  # the last one steps alone
        _drain(th, clock)
    return [th.result for th in threads]


def run_until(thread: SimThread, pred: Callable[[], bool],
              clock: Optional[Clock] = None, limit: int = 1_000_000) -> int:
    """Advance one thread until pred() holds or it finishes. Returns the
    number of steps taken."""
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


def explore(setup, check=None, bound: Optional[int] = None,
            max_schedules: Optional[int] = None) -> ExploreReport:
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

    The search is depth first, lowest thread index first. A run replays
    its schedule prefix from a fresh setup; at each new branch point it
    pushes the prefixes of the other runnable threads and goes on with the
    lowest, so it finishes as a complete schedule. Once no branch point is
    left (past the bound, or one thread left) the remaining threads run to
    completion one after the other in thread order, each in one loop; the
    steps and clock stamps are those of stepping them one at a time.
    """
    if bound is not None and bound < 0:
        raise ValueError(f"explore: bound must be >= 0, got {bound}")
    failures = []
    count = 0
    stack: list[tuple[int, ...]] = [()]
    while stack:
        schedule = stack.pop()
        clock = Clock()
        ctx, gens = setup(clock)
        threads = [SimThread(g) for g in gens]
        alive = list(range(len(threads)))
        replay = iter(schedule)
        pending = next(replay, None)
        steps = 0
        while len(alive) > 1:
            if pending is not None:
                pick = pending
                pending = next(replay, None)
            elif bound is None or steps < bound:
                for i in alive[:0:-1]:  # popped in thread order
                    stack.append(schedule + (i,))
                pick = alive[0]
                schedule += (pick,)
            else:
                break  # past the bound
            th = threads[pick]
            step(th, clock)
            steps += 1
            if th.done:
                alive.remove(pick)
        for i in alive:  # no branch point left: lowest index first
            _drain(threads[i], clock)

        count += 1
        if max_schedules is not None and count > max_schedules:
            raise RuntimeError(f"explore: more than {max_schedules} schedules")
        if check is not None:
            try:
                problems = check(ctx, threads, schedule)
            except AssertionError as exc:
                problems = [f"assertion: {exc}"]
            if problems:
                failures.append((schedule, list(problems)))
    return ExploreReport(count, failures)


def run_seeded(setup, check=None, seed: int = 0,
               runs: int = 1000) -> ExploreReport:
    """Drive `runs` pseudo-random schedules from one seed.

    Same setup/check contract as explore. The recorded schedule is the
    full pick sequence, so a failure replays without the rng. The rng
    draws one pick per step while two or more threads are runnable; the
    last one runs to completion in one loop, its picks recorded all the
    same.
    """
    if runs < 1:
        raise ValueError(f"run_seeded: runs must be >= 1, got {runs}")
    rng = random.Random(seed)
    failures = []
    for _ in range(runs):
        clock = Clock()
        ctx, gens = setup(clock)
        threads = [SimThread(g) for g in gens]
        alive = list(range(len(threads)))
        picks = []
        while len(alive) > 1:
            pick = alive[rng.randrange(len(alive))]
            picks.append(pick)
            th = threads[pick]
            step(th, clock)
            if th.done:
                alive.remove(pick)
        for i in alive:
            picks += [i] * _drain(threads[i], clock)
        if check is not None:
            try:
                problems = check(ctx, threads, tuple(picks))
            except AssertionError as exc:
                problems = [f"assertion: {exc}"]
            if problems:
                failures.append((tuple(picks), list(problems)))
    return ExploreReport(runs, failures)


def op_thread(tree, clock: Clock, tid: int, ops, out: list):
    """Generator running a list of (kind, e1, e2) ops against the tree,
    appending clock-stamped records to `out`."""
    new = tuple.__new__  # an OpRecord, minus its Python-level __new__

    def runner():
        for kind, e1, e2 in ops:
            t1 = clock.t
            if kind == SEARCH:
                r = yield from tree.search_gen(e1, e2)
            elif kind == REMOVE:
                r = yield from tree.remove_gen(e1, e2)
            elif kind == INSERT:
                r = 1 if (yield from tree.insert_gen(e1)) else 0
            else:
                raise ValueError(f"unknown op kind: {kind!r}")
            out.append(new(OpRecord, (tid, kind, e1, e2, t1, clock.t, r)))
    return runner()
