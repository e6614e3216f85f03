"""Built-in schedule scenarios: every one must pass, and the enumerated
scenarios must hit their analytic or pinned interleaving counts."""

import math

import pytest

from lftree import scenarios
from lftree.cli import main


def test_scenario_registry_is_consistent():
    for name, row in scenarios.SCENARIOS.items():
        # a seeded row has no bound and no analytic count
        if row.seeded:
            assert row.bound is None and not row.analytic, name
            assert row.seed is not None, name
        else:
            assert row.seed is None, name
    with pytest.raises(ValueError, match="unknown scenario"):
        scenarios.run_scenario("no-such-thing")


# each scenario's default run, help-storm's at runs=300; freeze-race's
# 69,602 has its own test below
DEFAULT_COUNTS = {
    "begin-race": 20,
    "help-prep": 1024,
    "help-storm": 300,
    "help-swap": 376,
    "read-race": 3003,
    "stale-grandparent": 256,
    "stale-helper": 256,
}


@pytest.mark.parametrize("name, schedules", sorted(DEFAULT_COUNTS.items()),
                         ids=sorted(DEFAULT_COUNTS))
def test_scenario_passes(name, schedules):
    # seeded scenarios get a reduced run count; enumeration stays complete
    runs = 300 if scenarios.SCENARIOS[name].seeded else None
    report = scenarios.run_scenario(name, runs=runs)
    assert report.ok, report.failures[:3]
    assert report.schedules == schedules


def test_begin_race_count_is_analytic():
    # two independent 3-step window probes: C(6, 3) interleavings
    report = scenarios.run_scenario("begin-race")
    assert report.analytic == report.schedules
    assert report.schedules == math.comb(6, 3)


def _tangle_setup(clock):
    # thread 1 stops at its next step once thread 0 has set the flag, which
    # can be while thread 0 still runs, so it cuts branches: solo 4 and 4
    # steps, C(8, 4) = 70
    flag = []

    def setter():
        yield
        flag.append(1)
        yield
        yield

    def watcher():
        for _ in range(3):
            yield
            if flag:
                return

    return flag, [setter(), watcher()]


def test_analytic_count_mismatch_fails(monkeypatch, capsys):
    row = scenarios.Scenario(_tangle_setup, lambda *_: [], analytic=True)
    monkeypatch.setitem(scenarios.SCENARIOS, "tangle", row)
    report = scenarios.run_scenario("tangle")
    assert report.analytic == 70 and report.schedules != 70
    assert report.failures == [((), [f"{report.schedules} schedules, "
                                     f"analytic count is 70"])]
    # a bounded run is not held to the count
    assert scenarios.run_scenario("tangle", bound=2).ok
    assert main(["schedules", "tangle"]) == 1
    assert "analytic count is 70" in capsys.readouterr().out


def test_freeze_race_passes_and_count_is_pinned():
    # no closed form (the CAS loser rereads), so pin the full enumeration
    report = scenarios.run_scenario("freeze-race")
    assert report.ok, report.failures[:3]
    assert report.schedules == 69602


def test_bounded_runs_still_pass():
    # a bounded run is a subset of the interleavings plus the drain, so
    # every scenario's invariants must hold there too
    for name, row in sorted(scenarios.SCENARIOS.items()):
        if row.seeded:
            continue
        report = scenarios.run_scenario(name, bound=4)
        assert report.ok, (name, report.failures[:3])


def test_schedules_all_covers_every_scenario(capsys):
    # `all` gives each scenario only the flags of its kind
    assert main(["schedules", "--bound", "6", "--runs", "100"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split(":")[0] for line in lines] == sorted(scenarios.SCENARIOS)
    assert all(", ok, " in line for line in lines)
    assert "help-storm: 100 schedules (seeded)" in lines[3]
