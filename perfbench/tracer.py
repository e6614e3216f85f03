"""Traced runs: counts, summed time and spans at lftree's layer boundaries.

Everything here wraps lftree from outside, by replacing attributes for the
duration of a traced section and restoring them afterwards:

  cells      Cell.load, Cell.cas             counts and summed time only
  nodes      LeafNode / InternalNode ctors   spans
  tree       LeafTree.search/insert/remove   spans (self time)
  rebalance  rebalance.trigger / execute     spans around the generators
  retire     RetireBin.retire                counts
  verify     HistoryIndex ctor and           counts and summed time
             HistoryIndex.certainly_present
  sim        sim.step                        counts and summed time

A span's self time is its duration minus the time of the spans and cell
calls nested in it. Spans stay in memory and are written out at the end.
Counters live per thread and are merged when read, so two threads never
update one counter. Under the schedule explorer many operation generators
interleave on one thread and a stack of open spans would mix them up, so
there (`interleaved=True`) generator entry points are counted, not timed.

An entry point that no longer exists is recorded in `absent`; metrics that
depend on it are reported as absent rather than crashing the run.
"""

from __future__ import annotations

import importlib
import threading
import time
from collections import Counter

_pc = time.perf_counter_ns


class _ThreadState:
    __slots__ = ("count", "ns", "self_ns", "stack", "spans", "tid")

    def __init__(self, tid: int):
        self.tid = tid
        self.count: Counter = Counter()
        self.ns: Counter = Counter()
        self.self_ns: Counter = Counter()
        self.stack: list = []
        # [name, start, end, parent index, child ns, own index]
        self.spans: list = []

    def open(self, name: str) -> list:
        parent = self.stack[-1][5] if self.stack else -1
        rec = [name, _pc(), 0, parent, 0, len(self.spans)]
        self.spans.append(rec)
        self.stack.append(rec)
        return rec

    def close(self, rec: list) -> None:
        rec[2] = end = _pc()
        self.stack.pop()
        dur = end - rec[1]
        if self.stack:
            self.stack[-1][4] += dur
        self.ns[rec[0]] += dur
        self.self_ns[rec[0]] += dur - rec[4]


class Tracer:
    def __init__(self, interleaved: bool = False):
        self.interleaved = interleaved
        self.absent: set[str] = set()
        self._local = threading.local()
        self._states: list[_ThreadState] = []
        self._lock = threading.Lock()
        self._patches: list[tuple[object, str, object]] = []

    # -- per-thread state ------------------------------------------------

    def _state(self) -> _ThreadState:
        try:
            return self._local.state
        except AttributeError:
            st = _ThreadState(len(self._states))
            with self._lock:
                self._states.append(st)
            self._local.state = st
            return st

    def count(self, name: str) -> int:
        return sum(s.count[name] for s in self._states)

    def ns(self, name: str) -> int:
        return sum(s.ns[name] for s in self._states)

    def self_ns(self, name: str) -> int:
        return sum(s.self_ns[name] for s in self._states)

    def span_count(self) -> int:
        return sum(len(s.spans) for s in self._states)

    # -- patching --------------------------------------------------------

    def _lookup(self, module: str, *attrs: str):
        """(owner, attribute) of lftree.<module>.<attrs...>, or None."""
        try:
            owner = importlib.import_module(f"lftree.{module}")
        except ImportError:
            return None
        for a in attrs[:-1]:
            owner = getattr(owner, a, None)
            if owner is None:
                return None
        if not hasattr(owner, attrs[-1]):
            return None
        return owner, attrs[-1]

    def _patch(self, layer: str, module: str, attrs: tuple, make) -> None:
        found = self._lookup(module, *attrs)
        if found is None:
            self.absent.add(layer)
            return
        owner, attr = found
        orig = owner.__dict__[attr]
        self._patches.append((owner, attr, orig))
        setattr(owner, attr, make(orig))

    def _timed(self, name: str):
        """Count and time a plain call; the time also counts as child
        time of the innermost open span."""
        state = self._state

        def make(orig):
            def wrapper(*args, **kwargs):
                st = state()
                t = _pc()
                try:
                    return orig(*args, **kwargs)
                finally:
                    dt = _pc() - t
                    st.count[name] += 1
                    st.ns[name] += dt
                    if st.stack:
                        st.stack[-1][4] += dt
            return wrapper
        return make

    def _span(self, name: str):
        state = self._state

        def make(orig):
            def wrapper(*args, **kwargs):
                st = state()
                st.count[name] += 1
                rec = st.open(name)
                try:
                    return orig(*args, **kwargs)
                finally:
                    st.close(rec)
            return wrapper
        return make

    def _gen_span(self, name: str):
        state = self._state
        interleaved = self.interleaved

        def spanned(st, gen):
            rec = st.open(name)
            try:
                return (yield from gen)
            finally:
                st.close(rec)

        def make(orig):
            def wrapper(*args, **kwargs):
                st = state()
                st.count[name] += 1
                gen = orig(*args, **kwargs)
                return gen if interleaved else spanned(st, gen)
            return wrapper
        return make

    def _cas(self):
        state = self._state

        def make(orig):
            def cas(cell, expected, new):
                st = state()
                t = _pc()
                ok = orig(cell, expected, new)
                dt = _pc() - t
                st.count["cells.cas"] += 1
                st.ns["cells.cas"] += dt
                if not ok:
                    st.count["cells.cas_fail"] += 1
                if st.stack:
                    st.stack[-1][4] += dt
                return ok
            return cas
        return make

    def install(self) -> None:
        p = self._patch
        p("cells", "cells", ("Cell", "load"), self._timed("cells.load"))
        p("cells", "cells", ("Cell", "cas"), self._cas())
        p("nodes", "nodes", ("LeafNode", "__init__"), self._span("nodes.leaf_new"))
        p("nodes", "nodes", ("InternalNode", "__init__"),
          self._span("nodes.internal_new"))
        p("tree", "tree", ("LeafTree", "search"), self._span("tree.search"))
        p("tree", "tree", ("LeafTree", "insert"), self._span("tree.insert"))
        p("tree", "tree", ("LeafTree", "remove"), self._span("tree.remove"))
        p("rebalance", "rebalance", ("trigger",),
          self._gen_span("rebalance.trigger"))
        p("rebalance", "rebalance", ("execute",),
          self._gen_span("rebalance.execute"))
        p("retire", "retire", ("RetireBin", "retire"), self._timed("retire.retire"))
        p("verify.index", "verify", ("HistoryIndex", "__init__"),
          self._timed("verify.index"))
        p("verify.index", "verify", ("HistoryIndex", "certainly_present"),
          self._timed("verify.certainly_present"))
        p("sim", "sim", ("step",), self._timed("sim.step"))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, orig = self._patches.pop()
            setattr(owner, attr, orig)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    def write_spans(self, path) -> None:
        """Tab-separated: thread, index, parent index, name, start ns,
        end ns, child ns."""
        with open(path, "w", encoding="ascii") as f:
            f.write("# thread\tindex\tparent\tname\tstart_ns\tend_ns\tchild_ns\n")
            for st in self._states:
                for name, start, end, parent, child, idx in st.spans:
                    f.write(f"{st.tid}\t{idx}\t{parent}\t{name}\t{start}"
                            f"\t{end}\t{child}\n")
