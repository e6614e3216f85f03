"""CLI surface: subcommands, exit codes (0 pass, 1 violation, 2 usage or
config, 3 I/O), and the stress -> check pipeline."""

import dataclasses
import re

import pytest

from lftree import cli, harness, scenarios
from lftree import tree as tree_mod
from lftree.cli import main
from lftree.keyspace import EMPTY
from lftree.nodes import TreeConfig
from lftree.verify import OpRecord, SEARCH, write_trace

STRESS_SMALL = ["stress", "--threads", "1", "--ops", "2000",
                "--order", "5", "--leaf-cap", "8", "--min-size", "3",
                "--range", "64", "--seed", "5"]


def test_stress_then_check_own_trace(tmp_path, capsys):
    trace = str(tmp_path / "run.trace")
    assert main(STRESS_SMALL + ["--trace", trace]) == 0
    out = capsys.readouterr().out
    assert "all checks passed" in out
    assert f"trace written to {trace}" in out

    # a passing stress run's own trace must check clean
    assert main(["check", "--trace", trace]) == 0
    out = capsys.readouterr().out
    assert "2000 records, 0 violations" in out
    assert "all checks passed" in out


def test_single_thread_traces_reproduce_byte_for_byte(tmp_path):
    a = tmp_path / "a.trace"
    b = tmp_path / "b.trace"
    assert main(STRESS_SMALL + ["--trace", str(a)]) == 0
    assert main(STRESS_SMALL + ["--trace", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_unwritable_trace_path_exits_3_before_any_op(tmp_path, monkeypatch,
                                                     capsys):
    def no_run(*args, **kwargs):
        raise AssertionError("the run started")

    monkeypatch.setattr(harness, "run_stress", no_run)
    trace = tmp_path / "no-such-dir" / "run.trace"
    assert main(STRESS_SMALL + ["--trace", str(trace)]) == 3
    out, err = capsys.readouterr()
    assert out == ""  # no summary line
    assert "i/o error" in err


def test_stress_defaults_are_the_run_config_defaults():
    args = cli.build_parser().parse_args(["stress"])
    assert cli._run_config(args) == harness.RunConfig()


def test_check_flags_a_violating_trace(tmp_path, capsys):
    trace = tmp_path / "bad.trace"
    # a search result for a key no insert ever produced
    write_trace(trace, [OpRecord(0, SEARCH, 1, 9, 0, 1, 5)])
    assert main(["check", "--trace", str(trace)]) == 1
    assert "search-result-never-present" in capsys.readouterr().out


def test_check_flags_a_corrupted_trace(tmp_path, capsys):
    trace = tmp_path / "corrupt.trace"
    # int() takes every field of the second row; write_trace never writes it
    for row in ("not a record", "0\tINSERT\t1_0\t 10 \t+1\t2\t1"):
        trace.write_text(f"0\tSEARCH\t1\t1\t0\t1\t0\n{row}\n")
        assert main(["check", "--trace", str(trace)]) == 1
        assert "malformed trace" in capsys.readouterr().err


def test_check_flags_a_non_ascii_trace(tmp_path, capsys):
    trace = tmp_path / "latin.trace"
    trace.write_bytes(b"0\tSEARCH\t1\t1\t0\t1\t0\n# caf\xc3\xa9\n")
    assert main(["check", "--trace", str(trace)]) == 1
    assert "not an ASCII trace: byte 0xc3" in capsys.readouterr().err


def test_check_missing_file_is_an_io_error(tmp_path, capsys):
    assert main(["check", "--trace", str(tmp_path / "nope.trace")]) == 3
    assert "i/o error" in capsys.readouterr().err


def test_check_progress_window(tmp_path, capsys):
    trace = str(tmp_path / "run.trace")
    assert main(STRESS_SMALL + ["--trace", trace]) == 0
    capsys.readouterr()
    assert main(["check", "--trace", trace, "--window",
                 str(10 ** 12)]) == 0
    assert "progress audit: 0" in capsys.readouterr().out


def test_check_fails_on_progress_audit_findings(tmp_path, capsys):
    # a 1,000 ns op at a 100 ns window: a slow op and a silent gap, and no
    # history violation
    trace = tmp_path / "slow.trace"
    write_trace(trace, [OpRecord(0, SEARCH, 1, 1, 0, 10, 0),
                        OpRecord(1, SEARCH, 1, 1, 5, 1005, 0)])
    assert main(["check", "--trace", str(trace)]) == 0
    assert "all checks passed" in capsys.readouterr().out
    assert main(["check", "--trace", str(trace), "--window", "100"]) == 1
    out = capsys.readouterr().out
    assert "2 records, 0 violations" in out
    assert "progress audit: 2" in out
    assert "op ran 1000 > 100" in out
    assert "all checks passed" not in out


@pytest.mark.parametrize("argv", [
    STRESS_SMALL[:1] + ["--threads", "0"],
    ["stress", "--leaf-cap", "32", "--min-size", "20"],
    ["stress", "--order", "3", "--min-size", "8"],
    ["stress", "--mix", "1:2"],
    ["stress", "--mix", "nan:1:1"],
    ["stress", "--mix", "1e308:1e308:0"],
    ["stress", "--range", "9223372036854775808"],
    ["bench", "--range", "9223372036854775808", "--threads", "2",
     "--duration", "0.1"],
    ["bench", "--duration", "0"],
    ["bench", "--duration", "nan"],
    ["bench", "--threads", "0,2", "--duration", "0.1"],
    ["schedules", "help-storm", "--runs", "-3"],
    ["schedules", "help-storm", "--runs", "0"],
    ["schedules", "all", "--runs", "0"],
    ["schedules", "freeze-race", "--bound", "-1"],
    ["schedules", "all", "--bound", "-1"],
    ["schedules", "help-storm", "--bound", "3", "--runs", "20"],
    ["schedules", "begin-race", "--runs", "5", "--seed", "1"],
    ["schedules", "begin-race", "--seed", "1"],
], ids=["threads", "min-size", "order-below-2s-1", "mix", "mix-nan",
        "mix-overflow",
        "stress-range-above-max-key", "bench-range-above-max-key",
        "duration", "duration-nan",
        "thread-list", "runs-negative", "runs-zero", "all-runs-zero",
        "bound-negative", "all-bound-negative", "seeded-bound",
        "exhaustive-runs", "exhaustive-seed"])
def test_bad_configuration_exits_2(argv, capsys):
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert "error:" in err
    assert out == ""  # refused before any output, no partial table


def test_stress_with_a_raising_thread_does_not_pass(monkeypatch, capsys):
    class Boom(Exception):
        pass

    run = harness._run

    def patched(tree, tid, *args):
        if tid == 1:
            raise Boom("thread 1")
        return run(tree, tid, *args)

    monkeypatch.setattr(harness, "_run", patched)
    with pytest.raises(Boom):  # no exit code: a traceback, exit 1
        main(["stress", "--threads", "2"] + STRESS_SMALL[3:])
    assert "all checks passed" not in capsys.readouterr().out


def test_check_rejects_a_negative_window(tmp_path, capsys):
    trace = tmp_path / "ok.trace"
    write_trace(trace, [OpRecord(0, SEARCH, 1, 9, 0, 1, 0)])
    assert main(["check", "--trace", str(trace), "--window", "-5"]) == 2
    out, err = capsys.readouterr()
    assert "--window must be >= 0" in err
    assert out == ""


def test_unknown_subcommand_and_scenario_exit_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["schedules", "no-such-scenario"])
    assert exc.value.code == 2
    capsys.readouterr()


def test_schedules_single_scenario_reports_analytic_count(capsys):
    assert main(["schedules", "begin-race"]) == 0
    out = capsys.readouterr().out
    assert "begin-race: 20 schedules (analytic 20), ok" in out
    # then the scenario's wall time and explored schedules per second
    assert re.fullmatch(r"begin-race: 20 schedules \(analytic 20\), ok, "
                        r"\d+\.\d{3} s, [\d,]+ schedules/s\n", out)


def test_schedules_seeded_scenario(capsys):
    assert main(["schedules", "help-storm", "--runs", "50",
                 "--seed", "3"]) == 0
    out = capsys.readouterr().out
    assert "help-storm: 50 schedules (seeded), ok" in out


def test_schedules_bound_limits_exploration(capsys):
    assert main(["schedules", "freeze-race", "--bound", "4"]) == 0
    out = capsys.readouterr().out
    # bounded: branch tree of depth 4 over two threads, plus the drain
    assert "freeze-race: 16 schedules, ok" in out


def test_schedules_help_says_each_scenario_has_its_own_default(monkeypatch, capsys):
    monkeypatch.setenv("COLUMNS", "500")  # one line per option
    with pytest.raises(SystemExit) as exc:
        main(["schedules", "--help"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    # help-prep runs at bound 10 and stale-helper at 8 unless told otherwise
    assert "no bound" not in out
    assert out.count("(default: each scenario's own") == 3


def test_bench_prints_one_row_per_thread_count(capsys):
    assert main(["bench", "--threads", "1", "--duration", "0.1",
                 "--ops", "500", "--order", "5", "--leaf-cap", "8",
                 "--min-size", "3", "--range", "512"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 2  # header plus exactly one row
    assert lines[0].split() == ["threads", "ops", "elapsed", "ops/s"]
    assert lines[1].split()[0] == "1"


def test_selftest_smoke(capsys):
    # the serial oracle, then what `schedules` and `stress` print
    assert main(["selftest"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "serial oracle: 3000 ops exact"
    names = sorted(scenarios.SCENARIOS)
    assert [line.split(":")[0] for line in lines[1:-3]] == names
    assert lines[-3].startswith("20000 ops, 4 threads, ")
    assert lines[-2:] == ["all checks passed", "selftest passed"]


def test_one_wrap_of_the_op_core_sees_selftests_serial_ops(monkeypatch,
                                                           capsys):
    # selftest reaches tree._op_direct through the module, so a wrap of it
    # sees the serial-oracle ops on selftest's K=5, D=8, S=3 tree
    serial = TreeConfig(5, 8, 3)
    direct = tree_mod._op_direct
    calls = []

    def counting(t, kind, e1, e2):
        if t.config == serial:
            calls.append(kind)
        return direct(t, kind, e1, e2)

    monkeypatch.setattr(tree_mod, "_op_direct", counting)
    assert main(["selftest"]) == 0
    assert len(calls) == 3000
    capsys.readouterr()


def test_a_failing_selftest_names_its_schedule(monkeypatch, capsys):
    def broken(*_):
        return ["injected problem"]

    row = scenarios.Scenario(scenarios._begin_race_setup, broken)
    monkeypatch.setitem(scenarios.SCENARIOS, "broken", row)
    assert main(["selftest"]) == 1
    out = capsys.readouterr().out
    assert "broken: 20 schedules, FAILED" in out
    assert "  schedule (" in out
    assert "    injected problem" in out
    assert out.endswith("selftest FAILED\n")


def test_schedules_shows_a_schedule_that_leaves_a_duplicate(monkeypatch,
                                                           capsys):
    # help-prep's split leaves [10, 20] and [30, 40]; with 10 copied into
    # the second, the snapshot lists it twice, so the row's own check fails
    # the schedule with a snapshot mismatch and the structure finding
    help_prep = scenarios.SCENARIOS["help-prep"]

    def duplicating(tree, threads, schedule):
        first, last = [leaf for leaf, _, _ in tree.leaves()]
        last.slots[last.slots.index(EMPTY)] = first.slots[0]
        return help_prep.check(tree, threads, schedule)

    row = dataclasses.replace(help_prep, check=duplicating)
    monkeypatch.setitem(scenarios.SCENARIOS, "duplicating", row)
    assert main(["schedules", "duplicating"]) == 1
    out = capsys.readouterr().out
    assert out.startswith("duplicating: 1024 schedules, FAILED, ")
    assert "  schedule (" in out
    assert "    snapshot [10, 10, 20, 30, 40], wanted [10, 20, 30, 40]" in out
    assert "in two leaves" in out


def test_schedules_counts_the_failures_it_does_not_show(monkeypatch, capsys):
    def broken(*_):
        return ["injected problem"]

    row = scenarios.Scenario(scenarios._begin_race_setup, broken)
    monkeypatch.setitem(scenarios.SCENARIOS, "broken", row)
    assert main(["schedules", "broken"]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("broken: 20 schedules, FAILED, ")
    # ten failing schedules of two lines each, then the count of the rest
    assert [line[:11] for line in lines[1:21:2]] == ["  schedule "] * 10
    assert lines[2:21:2] == ["    injected problem"] * 10
    assert lines[21:] == ["  ... 10 more failing schedules"]
