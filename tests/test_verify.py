"""History checker: rule-by-rule negatives, conservatism on races,
and a brute-force feasibility cross-check on tiny histories."""

import hashlib
import os
import random
import sys
import time

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lftree import sim, verify
from lftree.harness import RunConfig, make_ops, run_stress
from lftree.nodes import TreeConfig
from lftree.tree import LeafTree
from lftree.verify import (
    INSERT,
    REMOVE,
    SEARCH,
    OpRecord,
    SetOracle,
    TraceError,
    check_history,
    progress_audit,
    read_trace,
    snapshot_consistent,
    write_trace,
)
import reference
from reference import PlainSetModel, feasible


def rules(records):
    return {v.rule for v in check_history(records)}


# --- sequential oracle --------------------------------------------------


def test_oracle_point_calls_default_to_single_key():
    o = SetOracle([3, 7])
    assert o.search(3) == 3
    assert o.search(4) == 0
    assert o.remove(7) == 7
    assert o.remove(7) == 0
    assert o.keys() == [3]


def test_oracle_range_answers_smallest():
    o = SetOracle([10, 20, 30])
    assert o.search(11, 25) == 20
    assert o.remove(5, 50) == 10
    assert o.apply(SEARCH, 5, 50) == 20
    with pytest.raises(ValueError):
        o.apply("DROP", 1, 1)


_FILL = (INSERT,) * 8 + (SEARCH, REMOVE)
_DRAIN = (REMOVE,) * 8 + (SEARCH, INSERT)


def _oracle_call(rng, key_range, kinds):
    """One random call, (method, arguments), of a kind drawn from `kinds`:
    through apply or the method of its kind, over a narrow span or one
    that reaches the end of the key range."""
    e1 = rng.randint(1, key_range)
    if rng.random() < 0.5:
        e2 = min(key_range, e1 + rng.randint(0, 8))
    else:
        e1, e2 = rng.choice((1, e1)), key_range
    kind = rng.choice(kinds)
    if kind == INSERT:
        e2 = e1
    if rng.random() < 0.5:
        return "apply", (kind, e1, e2)
    if kind == INSERT:
        return "insert", (e1,)
    return kind.lower(), (e1,) if e1 == e2 else (e1, e2)


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 2**32 - 1), st.sampled_from([2, 3, 40]),
       st.booleans())
def test_block_oracle_matches_the_sorted_list(seed, spread, prefilled):
    # past 3 * 2 * _BLOCK keys, so blocks split, then drained to empty and
    # refilled; keys spread over `spread` times the peak size
    rng = random.Random(seed)
    peak = 3 * 2 * verify._BLOCK + rng.randint(1, verify._BLOCK)
    key_range = spread * peak
    start = rng.sample(range(1, key_range + 1), peak // 2) if prefilled \
        else []
    got, want = SetOracle(start), reference.SortedListOracle(start)
    blocks = len(got._blocks)

    def call(method, args):
        assert getattr(got, method)(*args) == getattr(want, method)(*args), \
            (method, args)

    for kinds, until in ((_FILL, lambda: len(want._keys) > peak),
                         (_DRAIN, lambda: not want._keys),
                         (_FILL, lambda: len(want._keys) > peak // 2)):
        n = 0
        while not until():
            call(*_oracle_call(rng, key_range, kinds))
            blocks = max(blocks, len(got._blocks))
            n += 1
            if n % 97 == 0:
                assert got.keys() == want.keys()
        assert got.keys() == want.keys()
        # every block non-empty and within its bound, its top its last key
        assert all(0 < len(b) <= 2 * verify._BLOCK for b in got._blocks)
        assert got._tops == [b[-1] for b in got._blocks]
    assert blocks > 3


# --- malformed records --------------------------------------------------


class _RaisingKind:
    def __eq__(self, other):
        raise TypeError("not comparable")


@pytest.mark.parametrize("record,detail", [
    (OpRecord(0, "DELETE", 1, 1, 0, 1, 0), "unknown kind"),
    (OpRecord(0, SEARCH, 1, 1, 5, 5, 0), "not after invocation"),
    (OpRecord(0, SEARCH, 3, 2, 0, 1, 0), "bad key range"),
    (OpRecord(0, SEARCH, 0, 2, 0, 1, 0), "bad key range"),
    (OpRecord(0, INSERT, 1, 2, 0, 1, 1), "e1 == e2"),
    (OpRecord(0, INSERT, 1, 1, 0, 1, 2), "result must be 0 or 1"),
    (OpRecord(0, REMOVE, 1, 1, 0, 1, -1), "negative result"),
    # a field that is not an int is named, not raised
    (OpRecord(0, SEARCH, 1, 2, 0, 1, None), "result must be an int"),
    (OpRecord(0, SEARCH, "1", 2, 0, 1, 0), "e1 must be an int"),
    (OpRecord(0, REMOVE, 1, "2", 0, 1, 0), "e2 must be an int"),
    (OpRecord(0, INSERT, 1, 1, "0", 1, 1), "t1 must be an int"),
    (OpRecord(0, SEARCH, 1, 2, 0, None, 0), "t2 must be an int"),
    # an unhashable tid cannot key the per-thread order check
    (OpRecord([0], SEARCH, 1, 2, 0, 1, 0), "tid must be an int"),
    # a number that is not exactly an int compares, but is no key or time
    (OpRecord(0, SEARCH, 1.5, 2, 0, 1, 0), "e1 must be an int"),
    (OpRecord(0, SEARCH, 1, 2, 0.5, 1, 0), "t1 must be an int"),
    (OpRecord(0, INSERT, 2, 2, 0, 1, True), "result must be an int"),
    (OpRecord(True, INSERT, 2, 2, 0, 1, 1), "tid must be an int"),
    (OpRecord(0, _RaisingKind(), 1, 1, 0, 1, 0), "unknown kind"),
    # a record that does not unpack into 7 fields is named, not raised
    ((0, SEARCH, 1, 1, 0, 1), "not a record of 7 fields"),
    (None, "not a record of 7 fields"),
    # a plain tuple prints as an OpRecord does
    ((0, SEARCH, 1, 1, 1, 0, 0), "not after invocation"),
], ids=["kind", "times", "range", "key-zero", "insert-range",
        "insert-result", "negative", "result-none", "key-str", "e2-str",
        "time-str", "time-none", "tid-list", "e1-float", "time-float",
        "result-bool", "tid-bool", "kind-raises", "six-fields", "none",
        "plain-tuple"])
def test_malformed_records_are_flagged(record, detail):
    out = check_history([record])
    assert [v.rule for v in out] == ["malformed-record"]
    assert detail in out[0].detail
    text = str(out[0])
    assert text.startswith(f"malformed-record: {out[0].detail}")
    if record is not None and len(record) == 7:
        assert text.endswith(f" [{OpRecord(*record).line()}]")


def test_malformed_record_does_not_poison_the_rest():
    # the bad row is reported, the good rows are still checked
    recs = [
        OpRecord(0, "DELETE", 1, 1, 0, 1, 0),
        OpRecord(1, INSERT, 5, 5, 0, 1, 1),
        OpRecord(1, SEARCH, 5, 5, 2, 3, 5),
    ]
    assert rules(recs) == {"malformed-record"}


def test_overlapping_ops_on_one_thread():
    recs = [
        OpRecord(0, SEARCH, 1, 1, 0, 10, 0),
        OpRecord(0, SEARCH, 1, 1, 5, 15, 0),
    ]
    assert rules(recs) == {"overlapping-thread-ops"}
    # plain tuples out of thread order too: the order check reads fields by
    # position, not by name
    out = check_history([tuple(r) for r in reversed(recs)])
    assert [str(v) for v in out] == [
        "overlapping-thread-ops: thread 0 invoked at 5 before SEARCH "
        "responded at 10 [0\tSEARCH\t1\t1\t5\t15\t0]"]
    # same interval on different threads is concurrency, not malformation
    recs[1] = OpRecord(1, SEARCH, 1, 1, 5, 15, 0)
    assert rules(recs) == set()


_ROWS = st.builds(
    OpRecord, st.integers(0, 2), st.sampled_from([SEARCH, REMOVE, INSERT,
                                                   "DELETE"]),
    st.integers(0, 4), st.integers(0, 4), st.integers(0, 12),
    st.integers(0, 12), st.integers(-1, 4))


@settings(max_examples=400, deadline=None)
@given(st.lists(_ROWS, max_size=12))
def test_malformed_and_overlapping_records_are_reported_first_in_order(recs):
    # malformed rows in record order, then every thread's overlaps in order
    # of first appearance, then the contract rules
    bad = [(r, verify._malformed(*r)) for r in recs]
    sane = [r for r, why in bad if not why]
    want = [("malformed-record", r, why) for r, why in bad if why]
    want += [("overlapping-thread-ops", cur,
              f"thread {cur.tid} invoked at {cur.t1} before {prev.kind} "
              f"responded at {prev.t2}")
             for cur, prev in reference.thread_overlaps(sane)]
    got = [(v.rule, v.record, v.detail) for v in check_history(recs)]
    assert got[:len(want)] == want
    assert all(rule not in ("malformed-record", "overlapping-thread-ops")
               for rule, _, _ in got[len(want):])


# --- one minimal history per semantic rule ------------------------------


def test_failed_search_over_certain_presence():
    recs = [
        OpRecord(0, INSERT, 5, 5, 0, 10, 1),
        OpRecord(1, SEARCH, 1, 9, 20, 30, 0),
    ]
    out = check_history(recs)
    assert [v.rule for v in out] == ["failed-search-certain-match"]
    assert "5 was present throughout" in out[0].detail


@pytest.mark.parametrize("kind", [SEARCH, REMOVE])
def test_result_outside_requested_range(kind):
    recs = [
        OpRecord(0, INSERT, 7, 7, 0, 1, 1),
        OpRecord(1, kind, 1, 5, 2, 3, 7),
    ]
    assert "result-outside-range" in rules(recs)


def test_search_result_never_present():
    recs = [OpRecord(0, SEARCH, 1, 9, 0, 10, 5)]
    assert rules(recs) == {"search-result-never-present"}


def test_failed_remove_over_certain_presence():
    recs = [
        OpRecord(0, INSERT, 5, 5, 0, 10, 1),
        OpRecord(1, REMOVE, 1, 9, 20, 30, 0),
    ]
    assert rules(recs) == {"failed-remove-certain-match"}


def test_remove_result_never_present():
    recs = [OpRecord(0, REMOVE, 1, 9, 0, 10, 5)]
    # the phantom key also breaks insert/remove pairing
    assert rules(recs) == {"remove-result-never-present", "remove-unpaired"}


def test_remove_skipping_a_certainly_smaller_key():
    recs = [
        OpRecord(0, INSERT, 3, 3, 0, 1, 1),
        OpRecord(0, INSERT, 5, 5, 2, 3, 1),
        OpRecord(1, REMOVE, 1, 9, 10, 20, 5),
    ]
    out = check_history(recs)
    assert [v.rule for v in out] == ["remove-not-minimal"]
    assert "3 < 5" in out[0].detail


def test_insert_claiming_success_over_certain_presence():
    recs = [
        OpRecord(0, INSERT, 5, 5, 0, 1, 1),
        OpRecord(1, INSERT, 5, 5, 10, 20, 1),
    ]
    assert rules(recs) == {"insert-over-certain-present"}


def test_failed_insert_with_nothing_to_collide_with():
    recs = [OpRecord(0, INSERT, 5, 5, 0, 10, 0)]
    assert rules(recs) == {"failed-insert-never-present"}


def test_more_removes_than_insert_lifetimes():
    # the two removes overlap, so neither interval alone is provably wrong;
    # only the pairing argument catches the duplicate
    recs = [
        OpRecord(0, INSERT, 5, 5, 0, 1, 1),
        OpRecord(1, REMOVE, 5, 5, 2, 10, 5),
        OpRecord(2, REMOVE, 5, 5, 3, 9, 5),
    ]
    out = check_history(recs)
    assert [v.rule for v in out] == ["remove-unpaired"]
    assert "2 removes of 5" in out[0].detail


# --- races the checker must not second-guess ----------------------------


def test_search_concurrent_with_insert_may_go_either_way():
    ins = OpRecord(0, INSERT, 5, 5, 0, 100, 1)
    assert check_history([ins, OpRecord(1, SEARCH, 1, 9, 50, 60, 0)]) == []
    assert check_history([ins, OpRecord(1, SEARCH, 1, 9, 50, 60, 5)]) == []


def test_concurrent_remove_and_search_may_both_report_the_key():
    recs = [
        OpRecord(0, INSERT, 5, 5, 0, 1, 1),
        OpRecord(1, REMOVE, 1, 9, 10, 20, 5),
        OpRecord(2, SEARCH, 1, 9, 11, 19, 5),
    ]
    assert check_history(recs) == []


# --- random histories vs the brute-force feasibility oracle -------------


def _serial_history(rng, length, top=4):
    """Non-overlapping ops with results from the reference model."""
    model = PlainSetModel()
    recs = []
    t = 0
    for i in range(length):
        kind = rng.choice((SEARCH, REMOVE, INSERT))
        e1 = rng.randint(1, top)
        e2 = e1 if kind == INSERT else rng.randint(e1, top)
        t1 = t + rng.randint(0, 2)
        t2 = t1 + 1 + rng.randint(0, 2)
        t = t2
        recs.append(OpRecord(i % 3, kind, e1, e2, t1, t2,
                             model.apply(kind, e1, e2)))
    return recs, sorted(model.keys)


def _overlapping_intervals(rng, length):
    """Per-thread sequential (t1, t2) windows that interleave across
    threads."""
    clocks = [rng.randint(0, 4) for _ in range(3)]
    spans = []
    for i in range(length):
        tid = i % 3
        t1 = clocks[tid] + rng.randint(0, 2)
        t2 = t1 + 1 + rng.randint(0, 5)
        clocks[tid] = t2
        spans.append((tid, t1, t2))
    return spans


def test_serial_model_histories_are_never_flagged():
    rng = random.Random(11)
    for _ in range(200):
        recs, snap = _serial_history(rng, rng.randint(4, 12))
        assert check_history(recs) == []
        assert snapshot_consistent(recs, snap) == []


def test_feasible_concurrent_histories_are_never_flagged():
    # replaying in invocation order is consistent with real time, so
    # results drawn that way always have a serial explanation
    rng = random.Random(12)
    for _ in range(200):
        spans = _overlapping_intervals(rng, rng.randint(3, 6))
        model = PlainSetModel()
        recs = []
        for tid, t1, t2 in sorted(spans, key=lambda s: s[1]):
            kind = rng.choice((SEARCH, REMOVE, INSERT))
            e1 = rng.randint(1, 3)
            e2 = e1 if kind == INSERT else rng.randint(e1, 3)
            recs.append(OpRecord(tid, kind, e1, e2, t1, t2,
                                 model.apply(kind, e1, e2)))
        assert check_history(recs) == []
        assert feasible(recs)


def test_flagged_histories_are_truly_infeasible():
    """Soundness on random results: whenever the conservative checker
    objects, no serial order explains the history. The converse is not
    expected; the structure is not linearizable."""
    rng = random.Random(13)
    flagged = passed = 0
    for _ in range(300):
        spans = _overlapping_intervals(rng, rng.randint(3, 6))
        recs = []
        for tid, t1, t2 in spans:
            kind = rng.choice((SEARCH, REMOVE, INSERT))
            e1 = rng.randint(1, 3)
            if kind == INSERT:
                e2, result = e1, rng.randint(0, 1)
            else:
                e2 = rng.randint(e1, 3)
                result = rng.choice([0] + list(range(e1, e2 + 1)))
            recs.append(OpRecord(tid, kind, e1, e2, t1, t2, result))
        if check_history(recs):
            flagged += 1
            assert not feasible(recs)
        else:
            passed += 1
    # the sweep is only meaningful if both outcomes occur
    assert flagged > 20 and passed > 20


# --- the checker's bounds against their definitions ---------------------

_SPANS = st.lists(st.tuples(st.integers(0, 60), st.integers(1, 12)),
                  max_size=8).map(lambda xs: [(t, t + d) for t, d in xs])


@settings(max_examples=400, deadline=None)
@given(ins=_SPANS, rem=_SPANS,
       calls=st.lists(st.tuples(st.integers(0, 80), st.integers(1, 20)),
                      min_size=1, max_size=12))
# one insert of 7, invoked just as a remove of 7 responds: that remove
# does not end it, so the single-insert path must find 7 certainly present
# at the call
@example(ins=[(5, 9)], rem=[(3, 5)], calls=[(10, 1)])
def test_presence_index_matches_the_definitions(ins, rem, calls):
    # each call is a made-up op on 7 over (a, b): a successful insert is
    # faulted iff 7 is certainly present, a failed one iff not possibly,
    # and a failed search iff certainly present, which it decides alone
    # when the history holds a single insert of 7
    recs = ([OpRecord(0, INSERT, 7, 7, t1, t2, 1) for t1, t2 in ins]
            + [OpRecord(1, REMOVE, 1, 9, t1, t2, 7) for t1, t2 in rem])
    for a, d in calls:
        for call in (OpRecord(2, INSERT, 7, 7, a, a + d, 1),
                     OpRecord(2, INSERT, 7, 7, a, a + d, 0),
                     OpRecord(2, SEARCH, 7, 7, a, a + d, 0)):
            hist = recs + [call]
            assert check_history(hist) == \
                reference.check_history_by_definition(hist)


def _random_key_history(rng, keys, top_time):
    recs = []
    for k in keys:
        for _ in range(rng.randint(0, 3)):
            t1 = rng.randint(0, top_time)
            recs.append(OpRecord(0, INSERT, k, k, t1,
                                 t1 + rng.randint(1, 40), 1))
        for _ in range(rng.randint(0, 3)):
            t1 = rng.randint(0, top_time)
            recs.append(OpRecord(1, REMOVE, k, k, t1,
                                 t1 + rng.randint(1, 40), k))
    return recs


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32), nkeys=st.integers(1, 400),
       width=st.sampled_from([8, 4000]))
def test_range_queries_match_a_walk_over_the_definitions(seed, nkeys, width):
    # narrow ranges hold a few keys, wide ones most of the key set
    rng = random.Random(seed)
    keys = sorted(rng.sample(range(1, 4 * nkeys + 2), nkeys))
    recs = _random_key_history(rng, keys, 400)
    # each query is a failed search on its own thread, faulted for the
    # smallest key in range certainly present
    for tid in range(2, 202):
        e1 = rng.randint(1, 4 * nkeys + 2)
        a = rng.randint(0, 460)
        recs.append(OpRecord(tid, SEARCH, e1, e1 + rng.randint(0, width), a,
                             a + rng.randint(1, 30), 0))
    assert check_history(recs) == reference.check_history_by_definition(recs)


def _mutated(recs, rng, count):
    """Flip results at random so the checker has violations to find."""
    out = list(recs)
    for _ in range(count):
        i = rng.randrange(len(out))
        r = out[i]
        if r.kind == INSERT:
            out[i] = r._replace(result=1 - r.result)
        else:
            out[i] = r._replace(
                result=0 if r.result else rng.randint(r.e1, r.e2))
    return out


@pytest.mark.parametrize("shape", [
    dict(order=4, leaf_capacity=4, min_size=2, key_range=4096),
    dict(order=32, leaf_capacity=32, min_size=8, key_range=1 << 16),
    dict(order=64, leaf_capacity=64, min_size=16, key_range=1 << 16),
])
def test_check_history_matches_the_reference_index_on_stress_traces(shape):
    cfg = RunConfig(threads=8, ops_per_thread=1500, seed=5, **shape)
    recs = run_stress(cfg, check=False).records
    bad = _mutated(recs, random.Random(5), 400)
    got = [[str(v) for v in check_history(h)] for h in (recs, bad)]
    want = [[str(v) for v in reference.check_history_by_definition(h)]
            for h in (recs, bad)]
    assert got == want
    assert got[0] == [] and len(got[1]) > 100


# --- explored and churn histories: the definitions, and a pinned output ---

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "perfbench")


def _workloads():
    if PERFBENCH not in sys.path:
        sys.path.insert(0, PERFBENCH)
    import workloads
    return workloads


def _altered(recs, rng):
    """One field of a tenth of the records (at least one) moved a little,
    or its kind redrawn: malformed rows, thread overlaps and contract
    violations, mixed."""
    out = list(recs)
    for i in rng.sample(range(len(out)), max(1, len(out) // 10)):
        fields = list(out[i])
        f = rng.randrange(7)
        if f == 1:
            fields[1] = rng.choice((SEARCH, REMOVE, INSERT))
        else:
            fields[f] += rng.choice((-2, -1, 1, 2))
        out[i] = OpRecord(*fields)
    return out


def _explored_histories(pairs, bound):
    """The record list of every schedule explore checks, in order."""
    wl = _workloads()
    out = []
    for pair in pairs:
        def setup(clock, pair=pair):
            _, records, gens = wl._opening(clock, *pair)
            return records, gens

        def check(records, threads, schedule):
            out.append(list(records))
            return []
        sim.explore(setup, check, bound=bound)
    return out


def _churn_history():
    """churn-k4's two op lists of seed 1, round 0, round robin over one
    K=D=4, S=2 tree: 5,000 records, the large history
    scripts/layer_bench.py times."""
    cfg = _workloads().churn_config(1, 0)
    tree = LeafTree(TreeConfig(4, 4, 2))
    clock = sim.Clock()
    records = []
    sim.run_round_robin([sim.op_thread(tree, clock, tid, make_ops(cfg, tid),
                                       records) for tid in range(2)], clock)
    return records


def test_check_history_matches_the_definitions_on_explored_histories():
    # every schedule of 6 criterion-8 pairs, as run and with one result
    # flipped: tiny histories where most keys have one insert
    wl = _workloads()
    rng = random.Random(8)
    flagged = 0
    for h in _explored_histories(wl.explore_pairs()[:6], wl.EXPLORE_BOUND):
        for hist in (h, _mutated(h, rng, 1)):
            got = [str(v) for v in check_history(hist)]
            assert got == [str(v) for v in
                           reference.check_history_by_definition(hist)]
            flagged += bool(got)
    assert flagged > 300


def test_check_history_output_is_pinned():
    # sha256 over every violation's text, history by history: explore-small's
    # first 10 pairs, every schedule's history clean and altered, then three
    # mutated copies of one churn-k4 history. Taken before the checker
    # became one walk over the records; it pins the order and the text.
    wl = _workloads()
    rng = random.Random(19)
    corpus = []
    for h in _explored_histories(wl.explore_pairs()[:10], wl.EXPLORE_BOUND):
        corpus += [h, _altered(h, rng)]
    big = _churn_history()
    assert len(big) == 5000 and check_history(big) == []
    corpus += [_altered(_mutated(big, rng, 300), rng) for _ in range(3)]
    digest = hashlib.sha256()
    found = 0
    for h in corpus:
        for v in check_history(h):
            digest.update(str(v).encode() + b"\n")
            found += 1
        digest.update(b"--\n")
    assert (len(corpus), found) == (5123, 4869)  # every rule reached
    assert digest.hexdigest() == (
        "b5c5e256be7b5e3ae3dce62a0d91428900ff7e0f768861c9080a870e85f9a8c9")


# --- snapshot reconciliation --------------------------------------------


def test_snapshot_matches_net_inserts():
    recs = [
        OpRecord(0, INSERT, 5, 5, 0, 1, 1),
        OpRecord(0, INSERT, 8, 8, 2, 3, 1),
        OpRecord(0, REMOVE, 5, 5, 4, 5, 5),
        OpRecord(0, INSERT, 8, 8, 6, 7, 0),
        OpRecord(0, SEARCH, 8, 8, 8, 9, 8),
    ]
    assert snapshot_consistent(recs, [8]) == []


@pytest.mark.parametrize("snapshot,needle", [
    ([], "inserted but missing"),
    ([5, 7], "never inserted"),
    ([5, 5], "duplicates"),
], ids=["missing", "phantom", "dupes"])
def test_snapshot_mismatches(snapshot, needle):
    recs = [OpRecord(0, INSERT, 5, 5, 0, 1, 1)]
    problems = snapshot_consistent(recs, snapshot)
    assert any(needle in p for p in problems)


def test_snapshot_flags_removed_key_still_present():
    recs = [
        OpRecord(0, INSERT, 5, 5, 0, 1, 1),
        OpRecord(0, REMOVE, 5, 5, 2, 3, 5),
    ]
    assert any("removed but still" in p
               for p in snapshot_consistent(recs, [5]))


def test_snapshot_flags_double_insert_accounting():
    recs = [
        OpRecord(0, INSERT, 5, 5, 0, 1, 1),
        OpRecord(1, INSERT, 5, 5, 0, 1, 1),
    ]
    assert any("2 net inserts" in p for p in snapshot_consistent(recs, [5]))


# --- starvation screen --------------------------------------------------


def test_progress_audit_flags_slow_op_and_silent_span():
    recs = [
        OpRecord(0, SEARCH, 1, 1, 0, 100, 0),
        OpRecord(1, SEARCH, 1, 1, 90, 1000, 0),
    ]
    count, reports = progress_audit(recs, 500)
    assert count == len(reports) == 2
    assert any("op ran 910 > 500" in r for r in reports)
    assert any("no response between 100 and 1000" in r for r in reports)


def test_progress_audit_ignores_gaps_with_nothing_in_flight():
    recs = [
        OpRecord(0, SEARCH, 1, 1, 0, 100, 0),
        OpRecord(0, SEARCH, 1, 1, 800, 900, 0),
    ]
    assert progress_audit(recs, 500) == (0, [])


def test_progress_audit_quiet_on_steady_throughput():
    recs = [OpRecord(0, SEARCH, 1, 1, 10 * i, 10 * i + 8, 0)
            for i in range(50)]
    assert progress_audit(recs, 50) == (0, [])


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 60), st.integers(0, 30)),
                max_size=25),
       st.integers(0, 20), st.integers(0, 40))
def test_progress_audit_matches_the_gap_by_gap_screen(spans, window, keep):
    recs = [OpRecord(i % 3, SEARCH, 1, 1, t1, t1 + d, 0)
            for i, (t1, d) in enumerate(spans)]
    want = reference.progress_audit_by_scan(recs, window)
    assert progress_audit(recs, window, keep) == (len(want), want[:keep])


def test_progress_audit_is_near_linear():
    # one thread back to back: 50k gaps of 1 at window 1, each spanned by
    # nothing; a scan of every span per gap took seconds at 8k records
    recs = [OpRecord(0, SEARCH, 1, 1, 2 * i, 2 * i + 1, 0)
            for i in range(50_000)]
    t0 = time.perf_counter()
    assert progress_audit(recs, 1) == (0, [])
    assert time.perf_counter() - t0 < 2.0


def test_progress_audit_formats_only_the_kept_reports(monkeypatch):
    # at window 1 every op of a 2-thread run is slow and most gaps are
    # silent, yet only the first `keep` findings become strings; round
    # robin interleaves the threads on every step, where real threads may
    # barely interleave and leave no silent gap
    cfg = RunConfig(order=4, leaf_capacity=4, min_size=2, threads=2,
                    ops_per_thread=500, key_range=256, seed=3)
    tree = LeafTree(TreeConfig(4, 4, 2))
    clock = sim.Clock()
    records = []
    sim.run_round_robin([sim.op_thread(tree, clock, tid, make_ops(cfg, tid),
                                       records) for tid in range(2)], clock)
    want = reference.progress_audit_by_scan(records, 1)
    assert len(want) > len(records) > 10
    lines = []
    line = OpRecord.line
    monkeypatch.setattr(OpRecord, "line",
                        lambda r: lines.append(r) or line(r))
    assert progress_audit(records, 1, keep=10) == (len(want), want[:10])
    assert len(lines) == 10


def test_plain_tuples_are_screened_like_records():
    # check_history takes plain 7-tuples; the snapshot and progress screens
    # read records by position too, with the same findings
    cfg = RunConfig(order=4, leaf_capacity=4, min_size=2, threads=2,
                    ops_per_thread=300, key_range=64, seed=5)
    tree = LeafTree(TreeConfig(4, 4, 2))
    clock = sim.Clock()
    records = []
    sim.run_round_robin([sim.op_thread(tree, clock, tid, make_ops(cfg, tid),
                                       records) for tid in range(2)], clock)
    tuples = [tuple(r) for r in records]
    assert type(tuples[0]) is tuple and check_history(tuples) == []
    snap = tree.snapshot()
    for snapshot in (snap, [], snap + [10**6], snap[1:] + snap[:1] * 2):
        want = snapshot_consistent(records, snapshot)
        assert snapshot_consistent(tuples, snapshot) == want
        assert (want == []) == (snapshot is snap)
    for window in (1, 8, 10**9):
        for keep in (0, 10):
            want = reference.progress_audit_by_scan(records, window)
            assert progress_audit(tuples, window, keep) == (
                progress_audit(records, window, keep)) == (
                len(want), want[:keep])


# --- trace files --------------------------------------------------------


def test_trace_round_trip(tmp_path):
    path = tmp_path / "ops.trace"
    recs = [
        OpRecord(0, INSERT, 5, 5, 0, 3, 1),
        OpRecord(1, SEARCH, 1, 9, 2, 7, 5),
        OpRecord(2, REMOVE, 1, 9, 8, 11, 5),
    ]
    for comment, header in (("tiny run", "# tiny run\n"),
                            ("seed=1\nthreads=2", "# seed=1\n# threads=2\n")):
        write_trace(path, recs, comment=comment)
        text = path.read_text()
        assert text.startswith(header + recs[0].line())
        assert read_trace(path) == recs
        # plain 7-tuples are written by position, byte for byte alike
        write_trace(path, [tuple(r) for r in recs], comment=comment)
        assert path.read_text() == text
        assert read_trace(path) == recs


def test_trace_reader_skips_comments_and_blanks(tmp_path):
    path = tmp_path / "ops.trace"
    path.write_text("# header\n\n0\tSEARCH\t1\t1\t0\t1\t0\n\n")
    assert len(read_trace(path)) == 1


def test_trace_reader_reports_column_count_with_line(tmp_path):
    path = tmp_path / "ops.trace"
    path.write_text("0\tSEARCH\t1\t1\t0\t1\t0\n"
                    "# fine\n"
                    "0\tSEARCH\t1\t1\t0\t1\n")
    with pytest.raises(TraceError, match=r":3: expected 7 columns, got 6"):
        read_trace(path)


def test_trace_reader_reports_bad_integer_with_line(tmp_path):
    path = tmp_path / "ops.trace"
    # an integer field is -?[0-9]+; int() alone would also take "_", "+"
    # and blanks, and read the second row as e1=10, t1=1
    for row in ("zero\tSEARCH\t1\t1\t0\t1\t0",
                "0\tINSERT\t1_0\t 10 \t+1\t2\t1",
                "0\tINSERT\t1_0\t10\t1\t2\t1",
                "0\tINSERT\t10\t 10\t1\t2\t1",
                "0\tINSERT\t10\t10\t+1\t2\t1",
                "0\tINSERT\t10\t10\t1\t2\t1\x0c",
                "0\tINSERT\t10\t10\t1\t2\t--1",
                "0\tINSERT\t10\t10\t1\t2-\t1",
                "-\tINSERT\t10\t10\t1\t2\t1"):
        path.write_text("# a comment\n" + row + "\n")
        with pytest.raises(TraceError, match=r":2:"):
            read_trace(path)


def test_trace_reader_loads_negative_integers_for_the_checker(tmp_path):
    path = tmp_path / "ops.trace"
    path.write_text("0\tREMOVE\t1\t1\t0\t1\t-1\n"
                    "-0\tSEARCH\t007\t7\t1\t2\t0\n")
    records = read_trace(path)
    assert records == [(0, REMOVE, 1, 1, 0, 1, -1), (0, SEARCH, 7, 7, 1, 2, 0)]
    assert [v.rule for v in check_history(records)] == ["malformed-record"]
