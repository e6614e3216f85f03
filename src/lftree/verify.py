"""Sequential oracle, conservative history checker, and trace files.

The tree's range operations are not linearizable; their contracts are
stated over the interval a call occupies. For a call over [a, b):

  O(a, b) = keys continuously present from a to b
  U(a, b) = keys present at some instant in [a, b)

  search = 0   requires  O(a, b) has no key in [e1, e2]
  search = e   requires  e in [e1, e2] and e in U(a, b)
  remove = 0   requires  O(a, b) has no key in [e1, e2]
  remove = e   requires  e in [e1, e2], e in U(a, b), and e <= every key
               of O(a, b) in [e1, e2]
  insert true  requires  e not continuously present
  insert false requires  e in U(a, b)

The checker cannot know O and U exactly from a concurrent history, so it
brackets them: certainly_present(e, a, b) under-approximates "e in O",
possibly_present(e, a, b) over-approximates "e in U". Both are computed
from successful inserts and removes of e alone, so every violation the
checker reports is a real contract violation; races it cannot decide pass.

  certainly_present: some successful insert of e responded before a, and
      every remove returning e either responded before that insert was
      invoked or was invoked after b.
  possibly_present: more successful inserts of e invoked before b than
      removes of e responded before a.

check_history walks the records once. The loop that sets malformed
records apart and tests each thread's order also files every successful
insert and remove under its key. Sorted, those tables give each inserted
key its certain-presence windows, and the rules read both bounds off them
by bisection. The range form of certainly_present bisects once per
inserted key it looks at; one walk over the keys in range serves a failed
search or remove and a remove's minimality test alike. Where no violation
stops it, that walk visits every inserted key in [e1, top] (top is e2 for
a failed op, the result - 1 for a remove's minimality test), so the check
is O(n log n) for n records only while ranges are narrow relative to the
key set: a history of delete-min removes over the whole key range is
quadratic.

Removal lifetimes must also pair off: sorting the removes of e by response
time, the i-th (1-based) needs at least i successful inserts invoked before
it responded. This catches duplicated removes that per-interval bounds
would miss.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from operator import itemgetter
from typing import Iterable, NamedTuple, Optional

SEARCH = "SEARCH"
REMOVE = "REMOVE"
INSERT = "INSERT"
KINDS = (SEARCH, REMOVE, INSERT)


class OpRecord(NamedTuple):
    """One completed operation. A plain tuple underneath, so a record
    compares equal to the 7-tuple of its fields."""

    tid: int
    kind: str
    e1: int
    e2: int
    t1: int      # invocation timestamp (ns or scheduler steps)
    t2: int      # response timestamp
    result: int  # found/removed key, 0 for none; insert: 1 added, 0 present

    def line(self) -> str:
        return _line(*self)


def _line(tid, kind, e1, e2, t1, t2, result) -> str:
    """One record's trace row, from its 7 fields by position, so an
    OpRecord and a plain 7-tuple print alike."""
    return f"{tid}\t{kind}\t{e1}\t{e2}\t{t1}\t{t2}\t{result}"


@dataclass(frozen=True)
class Violation:
    rule: str
    record: Optional[OpRecord]
    detail: str

    def __str__(self):
        r = self.record
        if r is None:
            return f"{self.rule}: {self.detail}"
        try:  # any 7 fields print as a trace row, anything else by repr
            loc = _line(*r)
        except TypeError:
            loc = repr(r)
        return f"{self.rule}: {self.detail} [{loc}]"


# The oracle's block size: a block splits in two once it holds more than
# twice this many keys.
_BLOCK = 512


class SetOracle:
    """Sequential reference semantics: a sorted set of keys where
    search/remove answer the smallest key in range.

    The keys are kept in order as a list of sorted, non-empty blocks of at
    most 2 * _BLOCK keys each, and `_tops` holds each block's last key. A
    call bisects `_tops` for the first block whose last key is >= e1, then
    bisects inside that block. So an update costs two bisections and a
    shift of at most 2 * _BLOCK keys, where one sorted list would shift
    half of all n keys. Only a block that splits in two (an insert past
    2 * _BLOCK keys) or empties (and is dropped) also shifts `_tops`, one
    entry per block. An insert past the last key appends to the last
    block."""

    def __init__(self, keys: Iterable[int] = ()):
        ordered = sorted(set(keys))
        self._blocks = [ordered[i:i + _BLOCK]
                        for i in range(0, len(ordered), _BLOCK)]
        self._tops = [block[-1] for block in self._blocks]

    def search(self, e1: int, e2: Optional[int] = None) -> int:
        return self.apply(SEARCH, e1, e1 if e2 is None else e2)

    def remove(self, e1: int, e2: Optional[int] = None) -> int:
        return self.apply(REMOVE, e1, e1 if e2 is None else e2)

    def insert(self, e: int) -> bool:
        return self.apply(INSERT, e, e) == 1

    def apply(self, kind: str, e1: int, e2: int) -> int:
        tops = self._tops
        if kind == SEARCH or kind == REMOVE:
            i = bisect_left(tops, e1)
            if i == len(tops):
                return 0
            block = self._blocks[i]
            j = bisect_left(block, e1)  # < len(block): its top is >= e1
            key = block[j]
            if key > e2:
                return 0
            if kind == REMOVE:
                del block[j]
                if not block:
                    del self._blocks[i]
                    del tops[i]
                elif j == len(block):
                    tops[i] = block[-1]
            return key
        if kind == INSERT:
            blocks = self._blocks
            i = bisect_left(tops, e1)
            if i < len(tops):
                block = blocks[i]
                j = bisect_left(block, e1)
                if block[j] == e1:
                    return 0
                block.insert(j, e1)
            elif tops:  # past the last key
                i -= 1
                block = blocks[i]
                block.append(e1)
                tops[i] = e1
            else:
                blocks.append([e1])
                tops.append(e1)
                return 1
            if len(block) > 2 * _BLOCK:
                blocks.insert(i + 1, block[_BLOCK:])
                del block[_BLOCK:]
                tops.insert(i, block[-1])
            return 1
        raise ValueError(f"unknown op kind: {kind!r}")

    def keys(self) -> list[int]:
        return [key for block in self._blocks for key in block]


# --- history checking -------------------------------------------------------


_NEVER = float("inf")
_RESPONSE = itemgetter(1)  # t2 of a (t1, t2) pair


def _windows(ins: list, rem: list) -> list:
    """The certain-presence windows of one key, from its two or more
    successful inserts `ins` as (t1, t2) and its one or more removes `rem`
    as sorted (t2, t1).

    For an insert I, let held(I) be the earliest invocation among the
    removes that responded after I was invoked (never, if none did): I
    proves presence over (a, b) iff it responded by a and held(I) >= b.
    The result lists (response of I, running maximum of held) over the
    inserts in response order, where the maximum grows, so the key is
    certainly present over (a, b) iff the last window ending by a has
    held >= b."""
    first = [_NEVER]  # reversed: first[j] = earliest invocation in rem[-j:]
    for _, rt1 in reversed(rem):
        first.append(min(rt1, first[-1]))
    top = -_NEVER
    out = []
    for it2, it1 in sorted([(t2, t1) for t1, t2 in ins]):
        held = first[len(rem) - bisect_right(rem, (it1, _NEVER))]
        if held > top:  # one that holds no longer than the last adds nothing
            top = held
            out.append((it2, top))
    return out


def _walk(records: Iterable, out: list) -> tuple:
    """The one walk over the records. Reports each malformed record to
    `out` and returns the sane ones; whether each thread's sane records
    come in time order, disjoint; `ins`, key -> (t1, t2) of its successful
    inserts, holding every key a successful insert or remove names, in
    order of first appearance (an empty list if it was never inserted);
    and `rem`, key -> (t2, t1) of its removes. Neither table is sorted."""
    sane = []
    last = {}  # tid -> response of its latest sane record
    in_order = True
    ins = {}
    rem = {}
    for r in records:
        try:
            tid, kind, e1, e2, a, b, res = r
        except (TypeError, ValueError):
            out.append(Violation("malformed-record", r,
                                 "not a record of 7 fields"))
            continue
        try:
            if not (type(tid) is type(e1) is type(e2) is type(a) is type(b)
                    is type(res) is int and a < b and 1 <= e1 <= e2
                    and (res >= 0 and (kind == SEARCH or kind == REMOVE)
                         or kind == INSERT and e1 == e2
                         and (res == 0 or res == 1))):
                out.append(Violation("malformed-record", r, _malformed(
                    tid, kind, e1, e2, a, b, res)))
                continue
            if a < last.get(tid, a):
                in_order = False
        except TypeError:  # a kind whose comparison raises
            out.append(Violation("malformed-record", r,
                                 _malformed(tid, kind, e1, e2, a, b, res)))
            continue
        sane.append(r)
        last[tid] = b
        if kind == INSERT:
            if res:
                spans = ins.get(e1)
                if spans is None:
                    ins[e1] = [(a, b)]
                else:
                    spans.append((a, b))
        elif res and kind == REMOVE:
            if res not in ins:
                ins[res] = []
            spans = rem.get(res)
            if spans is None:
                rem[res] = [(b, a)]
            else:
                spans.append((b, a))
    return sane, in_order, ins, rem


def _index(ins: dict, rem: dict, unpaired: list) -> tuple:
    """Sorts the tables in place; returns key -> its windows for every
    inserted key, and the inserted keys in order. Reports to `unpaired`
    each key whose removal lifetimes do not pair off: sorting its removes
    by response time, the i-th (1-based) needs at least i successful
    inserts invoked before it responded."""
    windows = {}
    for key, spans in ins.items():  # every key of rem is here
        if len(spans) > 1:
            spans.sort()
        ends = rem.get(key)
        if ends is None:  # never removed: its first response holds for good
            windows[key] = [(spans[0][1] if len(spans) == 1
                             else min(map(_RESPONSE, spans)), _NEVER)]
            continue
        ends.sort()
        for i, (rt2, _) in enumerate(ends):
            available = bisect_left(spans, (rt2,))
            if available <= i:
                unpaired.append(Violation(
                    "remove-unpaired", None,
                    f"{i + 1} removes of {key} responded by {rt2} but only "
                    f"{available} inserts were invoked"))
                break
        if len(spans) == 1:  # the common case: held(I) read off directly
            (it1, it2), = spans
            held = _NEVER
            for rt2, rt1 in ends:
                if rt2 > it1 and rt1 < held:
                    held = rt1
            windows[key] = [(it2, held)]
        elif spans:
            windows[key] = _windows(spans, ends)
    return windows, sorted(windows)


def _rules(records: list, ins: dict, rem: dict, windows: dict, keys: list,
           out: list) -> None:
    """Reports to `out` each contract rule a sane record breaks, in record
    order, read off the sorted tables by bisection. A key is certainly
    present over (a, b) iff the last of its windows ending by a holds to b
    or later; possibly present iff more of its inserts were invoked before
    b than its removes responded by a."""
    for r in records:
        _, kind, e1, e2, a, b, res = r
        if kind == INSERT:
            if res:
                win = windows[e1]
                j = bisect_right(win, (a, _NEVER))
                if j and win[j - 1][1] >= b:
                    out.append(Violation(
                        "insert-over-certain-present", r,
                        f"{e1} was present throughout the call"))
            elif (bisect_left(ins.get(e1, ()), (b,))
                  <= bisect_right(rem.get(e1, ()), (a, _NEVER))):
                out.append(Violation(
                    "failed-insert-never-present", r,
                    f"{e1} was never there to collide with"))
            continue
        # a search and a remove share their rules; a remove must also find
        # no key below its result that was present throughout the call
        if res:
            if not e1 <= res <= e2:
                out.append(Violation("result-outside-range", r,
                                     f"returned {res}"))
                continue
            if (bisect_left(ins.get(res, ()), (b,))
                    <= bisect_right(rem.get(res, ()), (a, _NEVER))):
                out.append(Violation(
                    f"{kind.lower()}-result-never-present", r,
                    f"{res} could not have been in the tree"))
            if res == e1 or kind == SEARCH:
                continue
            top = res - 1
        else:
            top = e2
        # the smallest inserted key in [e1, top] certainly present
        by_a = (a, _NEVER)
        for i in range(bisect_left(keys, e1), bisect_right(keys, top)):
            win = windows[keys[i]]
            j = bisect_right(win, by_a)
            if j and win[j - 1][1] >= b:
                if res:
                    out.append(Violation(
                        "remove-not-minimal", r,
                        f"{keys[i]} < {res} was present throughout"))
                else:
                    out.append(Violation(
                        f"failed-{kind.lower()}-certain-match", r,
                        f"{keys[i]} was present throughout the call"))
                break


_INTERVAL = itemgetter(4, 5)   # (t1, t2) of an OpRecord


def check_history(records: list[OpRecord]) -> list[Violation]:
    """Conservative contract check. Empty list = no provable violation.
    Malformed records are reported as violations, never raised."""
    out: list[Violation] = []
    sane, in_order, ins, rem = _walk(records, out)

    if not in_order:  # sort each thread's records and report overlaps
        by_tid: dict[int, list[OpRecord]] = {}
        for r in sane:  # a sane record may be a plain 7-tuple
            by_tid.setdefault(r[0], []).append(r)
        for tid, rs in by_tid.items():
            rs.sort(key=_INTERVAL)
            for prev, cur in zip(rs, rs[1:]):
                if cur[4] < prev[5]:
                    out.append(Violation(
                        "overlapping-thread-ops", cur,
                        f"thread {tid} invoked at {cur[4]} before "
                        f"{prev[1]} responded at {prev[5]}"))

    unpaired: list[Violation] = []
    windows, keys = _index(ins, rem, unpaired)
    _rules(sane, ins, rem, windows, keys, out)
    out += unpaired  # reported last, after every record's own
    return out


def _malformed(tid, kind, e1, e2, t1, t2, result) -> str:
    for name, value in zip(("tid", "e1", "e2", "t1", "t2", "result"),
                           (tid, e1, e2, t1, t2, result)):
        if type(value) is not int:
            return f"{name} must be an int, got {value!r}"
    if type(kind) is not str or kind not in KINDS:
        return f"unknown kind {kind!r}"
    if t2 <= t1:
        return f"response {t2} not after invocation {t1}"
    if e1 < 1 or e2 < e1:
        return f"bad key range [{e1}, {e2}]"
    if kind == INSERT:
        if e1 != e2:
            return "insert must have e1 == e2"
        if result not in (0, 1):
            return f"insert result must be 0 or 1, got {result}"
    elif result < 0:
        return f"negative result {result}"
    return ""


def snapshot_consistent(records: list[OpRecord],
                        snapshot: list[int]) -> list[str]:
    """After quiesce, with the complete history: key in snapshot iff its
    successful inserts outnumber its removes by exactly one. A record is
    read by position, so it may be an OpRecord or a plain 7-tuple."""
    net: dict[int, int] = {}
    for _, kind, e1, _, _, _, result in records:
        if kind == INSERT and result == 1:
            net[e1] = net.get(e1, 0) + 1
        elif kind == REMOVE and result > 0:
            net[result] = net.get(result, 0) - 1
    problems = []
    snap = set(snapshot)
    if len(snap) != len(snapshot):
        problems.append("snapshot contains duplicates")
    for key, n in sorted(net.items()):
        if n == 1:
            if key not in snap:
                problems.append(f"key {key} inserted but missing from "
                                f"snapshot")
        elif n == 0:
            if key in snap:
                problems.append(f"key {key} removed but still in snapshot")
        else:
            problems.append(f"key {key}: {n} net inserts")
    for key in sorted(snap.difference(net)):
        problems.append(f"key {key} in snapshot but never inserted")
    return problems


def progress_audit(records: list[OpRecord], window: int,
                   keep: int = 10) -> tuple[int, list[str]]:
    """Starvation screen: flag ops that ran longer than `window` and spans
    longer than `window` during which ops were in flight but none
    responded. Returns the number of findings and the reports of the
    first `keep`: slow ops in record order, then silent spans in time
    order. Only the kept reports are formatted. A record is read by
    position, so it may be an OpRecord or a plain 7-tuple."""
    reports = []
    count = 0
    for r in records:
        ran = r[5] - r[4]
        if ran > window:
            if count < keep:
                reports.append(f"op ran {ran} > {window}: {_line(*r)}")
            count += 1
    responses = sorted(r[5] for r in records)
    spans = sorted(map(_INTERVAL, records))
    # the gaps come in order of their start a, so one sweep over the spans
    # by t1 keeps the latest response of every op invoked by a
    j, latest = 0, float("-inf")
    for a, b in zip(responses, responses[1:]):
        while j < len(spans) and spans[j][0] <= a:
            latest = max(latest, spans[j][1])
            j += 1
        if b - a > window and latest >= b:
            if count < keep:
                reports.append(f"no response between {a} and {b}")
            count += 1
    return count, reports


# --- trace files -------------------------------------------------------------

_TRACE_COLUMNS = 7
_INT_CHARS = "-0123456789"


class TraceError(ValueError):
    pass


def write_trace(path, records: Iterable[OpRecord], comment: str = "") -> None:
    """Tab-separated rows: tid, kind, e1, e2, t1, t2, result, each read
    from its record by position, so a record may be an OpRecord or a plain
    7-tuple. `path` is a file name, or a text file already open for
    writing."""
    if not hasattr(path, "write"):
        with open(path, "w", encoding="ascii") as f:
            return write_trace(f, records, comment)
    for line in comment.splitlines():
        path.write(f"# {line}\n")
    for r in records:
        path.write(_line(*r) + "\n")


def read_trace(path) -> list[OpRecord]:
    records = []
    new = tuple.__new__  # an OpRecord, minus its Python-level __new__
    try:
        with open(path, "r", encoding="ascii") as f:
            for lineno, line in enumerate(f, 1):
                line = line.rstrip("\n")
                if not line or line.startswith("#"):
                    continue
                parts = line.split("\t")
                if len(parts) != _TRACE_COLUMNS:
                    raise TraceError(
                        f"{path}:{lineno}: expected {_TRACE_COLUMNS} "
                        f"columns, got {len(parts)}")
                tid, kind, e1, e2, t1, t2, result = parts
                # int() also takes "+", "_" and blanks, which write_trace
                # never writes: an integer field is -?[0-9]+. Another
                # character is refused here, a misplaced "-" by int()
                if not (tid.isdigit() and e1.isdigit() and e2.isdigit()
                        and t1.isdigit() and t2.isdigit()
                        and result.isdigit()):
                    for field in (tid, e1, e2, t1, t2, result):
                        if field.strip(_INT_CHARS):
                            raise TraceError(f"{path}:{lineno}: not an "
                                             f"integer: {field!r}")
                try:
                    records.append(new(OpRecord, (
                        int(tid), kind, int(e1), int(e2), int(t1), int(t2),
                        int(result))))
                except ValueError as exc:
                    raise TraceError(f"{path}:{lineno}: {exc}") from None
    except UnicodeDecodeError as exc:
        raise TraceError(f"{path}: not an ASCII trace: byte "
                         f"{exc.object[exc.start]:#04x}") from None
    return records
