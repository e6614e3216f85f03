"""Shared words with compare-and-set.

The tree's mutable state is plain Python data, and every shared word is
an entry of a list: a leaf's slots are a list of ints, an internal node's
child links a list of nodes, and its status a one-entry list holding a
tuple. A word is named by its (list, index) pair. A load is a single
indexed read, which CPython performs atomically; a write is only ever
`cas`. CAS takes a lock from a small striped pool, picked by the word's
location, so that compare and set are atomic with respect to every other
CAS of the same word.

Comparison uses ==, which is identity for node objects (no __eq__) and
value equality for the int words and status tuples stored here.

The CAS takes its stripe with explicit acquire() and try/finally
release() rather than `with`, whose context-manager protocol (a bound
__enter__ call, then __exit__ with three arguments) costs more than the
compare and set: on CPython 3.11.7 (2 shared cores) a successful cas
timed 790-1010 ns with `with` and 700-710 ns this way. scripts/layer_bench.py
now reads it at 549 and 569 ns calibrated (medians over 5 passes in two
invocations; 354 and 392 ns raw). A leaf freeze issues one CAS per slot.
The finally clause still releases the lock if the comparison raises.
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


class Cell(list):
    """One shared word held on its own: a one-entry word list, loaded by
    a plain read and written by `cas`. The tree does not use it;
    perfbench's tests still do."""

    __slots__ = ()

    def __init__(self, value: Any):
        super().__init__((value,))

    def load(self) -> Any:
        return self[0]

    def cas(self, expected: Any, new: Any) -> bool:
        return cas(self, 0, expected, new)

    def __repr__(self):
        return f"Cell({self[0]!r})"
