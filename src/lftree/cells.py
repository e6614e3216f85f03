"""Shared words with compare-and-set.

The tree's mutable state is plain Python data: a leaf's slots are a list
of ints, an internal node's child links a list of nodes, and its status a
tuple attribute. A load is a single indexed or attribute read, which
CPython performs atomically. CAS takes a lock from a small striped pool,
picked by the word's location, so that compare and set are atomic with
respect to every other CAS of the same word.

Comparison uses ==, which is identity for node objects (no __eq__) and
value equality for the int words and status tuples stored here.

The CAS takes its stripe with explicit acquire() and try/finally
release() rather than `with`, whose context-manager protocol (a bound
__enter__ call, then __exit__ with three arguments) costs more than the
compare and set. scripts/leaf_scan_bench.py on CPython 3.11.7 (2 shared
cores) timed a successful cas at 790-1010 ns with `with` and 700-710 ns
this way, cas_status at 940-1080 ns and 790-840 ns; a leaf freeze issues
one CAS per slot. The finally clause still releases the lock if the
comparison raises.
"""

from __future__ import annotations

import threading
from typing import Any

_STRIPES = 64
_MASK = _STRIPES - 1
_LOCKS = tuple(threading.Lock() for _ in range(_STRIPES))


def cas(words: list, i: int, expected: Any, new: Any) -> bool:
    """Set words[i] to `new` iff it currently holds `expected`."""
    lock = _LOCKS[((id(words) >> 4) + i) & _MASK]
    lock.acquire()
    try:
        cur = words[i]
        if cur is expected or cur == expected:
            words[i] = new
            return True
        return False
    finally:
        lock.release()


def cas_status(node, expected: tuple, new: tuple) -> bool:
    """Set node.status to `new` iff it currently equals `expected`."""
    lock = _LOCKS[(id(node) >> 4) & _MASK]
    lock.acquire()
    try:
        if node.status == expected:
            node.status = new
            return True
        return False
    finally:
        lock.release()


class Cell:
    """One shared word held on its own, under the same discipline: load
    is a plain read, cas takes a stripe. The tree keeps its words in lists
    and does not use it; perfbench's tests still do."""

    __slots__ = ("value",)

    def __init__(self, value: Any):
        self.value = value

    def load(self) -> Any:
        return self.value

    def cas(self, expected: Any, new: Any) -> bool:
        with _LOCKS[id(self) & _MASK]:
            cur = self.value
            if cur is expected or cur == expected:
                self.value = new
                return True
            return False

    def __repr__(self):
        return f"Cell({self.value!r})"
