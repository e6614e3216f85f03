"""Command line interface.

Subcommands: stress (threaded run + full post-run verification), check
(re-verify a saved trace), schedules (deterministic interleaving
scenarios), bench (throughput), selftest (quick battery).

Exit codes: 0 all checks passed, 1 a verification check failed (for
check, a history violation or a progress-audit finding), 2 bad usage or
configuration, 3 trace file I/O error.
"""

from __future__ import annotations

import argparse
import contextlib
import sys
import time

from . import harness, scenarios
from .nodes import TreeConfig
from .tree import LeafTree, _op_direct
from .verify import (SetOracle, TraceError, check_history, progress_audit,
                     read_trace, write_trace)

_MAX_SHOWN = 10


def _tree_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--order", type=int, default=32,
                   help="max children per internal node (default 32)")
    p.add_argument("--leaf-cap", type=int, default=32,
                   help="slots per leaf (default 32)")
    p.add_argument("--min-size", type=int, default=8,
                   help="sparsity threshold (default 8)")


def _workload_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--ops", type=int, default=100_000,
                   help="operations per thread (default 100000)")
    p.add_argument("--range", type=int, default=1 << 16, dest="key_range",
                   help="keys are drawn from [1, RANGE] (default 65536)")
    p.add_argument("--mix", default="50:25:25",
                   help="search:insert:remove weights (default 50:25:25)")
    p.add_argument("--seed", type=int, default=0)


def _run_config(args, threads=None, duration=0.0) -> harness.RunConfig:
    return harness.RunConfig(
        order=args.order, leaf_capacity=args.leaf_cap,
        min_size=args.min_size,
        threads=args.threads if threads is None else threads,
        ops_per_thread=args.ops, key_range=args.key_range,
        mix=harness.parse_mix(args.mix), seed=args.seed,
        duration=duration)


def _show(title: str, items, count: int = None) -> None:
    """Print a count and the first _MAX_SHOWN of `items`; `count` is the
    full number where `items` holds only a prefix."""
    if count is None:
        count = len(items)
    print(f"{title}: {count}")
    for item in items[:_MAX_SHOWN]:
        print(f"  {item}")
    if count > _MAX_SHOWN:
        print(f"  ... {count - _MAX_SHOWN} more")


def cmd_stress(args) -> int:
    cfg = _run_config(args)
    # an unwritable trace path fails here, before any op runs
    with (open(args.trace, "w", encoding="ascii") if args.trace
          else contextlib.nullcontext()) as trace:
        result = harness.run_stress(cfg)
        print(result.summary())
        if args.trace:
            write_trace(trace, result.records,
                        comment=f"lftree stress seed={cfg.seed} "
                                f"threads={cfg.threads} "
                                f"ops-per-thread={cfg.ops_per_thread}")
    if args.trace:
        print(f"trace written to {args.trace}")
    if result.ok:
        print("all checks passed")
        return 0
    _show("structure violations", result.structure_violations)
    _show("history violations", result.history_violations)
    _show("balance problems", result.balance_problems)
    return 1


def cmd_check(args) -> int:
    if args.window < 0:
        raise ValueError(f"--window must be >= 0, got {args.window}")
    records = read_trace(args.trace)  # main reports a TraceError
    violations = check_history(records)
    print(f"{len(records)} records, {len(violations)} violations")
    stalls = 0
    if args.window:
        stalls, reports = progress_audit(records, args.window, _MAX_SHOWN)
        _show("progress audit", reports, stalls)
    if violations:
        _show("history violations", violations)
    if violations or stalls:
        return 1
    print("all checks passed")
    return 0


def cmd_schedules(args) -> int:
    # sim.explore and sim.run_seeded refuse these too, but only once their
    # scenario comes up; `all` would print the scenarios before it first
    if args.bound is not None and args.bound < 0:
        raise ValueError(f"--bound must be >= 0, got {args.bound}")
    if args.runs is not None and args.runs < 1:
        raise ValueError(f"--runs must be >= 1, got {args.runs}")
    names = sorted(scenarios.SCENARIOS) if args.scenario == "all" \
        else [args.scenario]
    failed = False
    for name in names:
        t0 = time.perf_counter()
        kwargs = dict(bound=args.bound, runs=args.runs, seed=args.seed)
        if args.scenario == "all":
            kwargs = scenarios.own_args(name, **kwargs)
        # a named scenario refuses the other kind's flags before any output
        report = scenarios.run_scenario(name, **kwargs)
        elapsed = time.perf_counter() - t0
        note = ""
        if scenarios.SCENARIOS[name].seeded:
            note = " (seeded)"
        elif report.analytic is not None:
            # a drifted count is already among the scenario's failures
            note = f" (analytic {report.analytic})"
        status = "ok" if report.ok else "FAILED"
        print(f"{name}: {report.schedules} schedules{note}, {status}, "
              f"{elapsed:.3f} s, "
              f"{report.schedules / max(elapsed, 1e-9):,.0f} schedules/s")
        for schedule, problems in report.failures[:_MAX_SHOWN]:
            print(f"  schedule {schedule}:")
            for p in problems:
                print(f"    {p}")
        if not report.ok:
            failed = True
    return 1 if failed else 0


def cmd_bench(args) -> int:
    # every config is checked before any output; the header waits for the
    # first row, so a run_bench refusal leaves no partial table either
    configs = [_run_config(args, threads=int(n), duration=args.duration)
               for n in args.threads.split(",")]
    for i, cfg in enumerate(configs):
        row = harness.run_bench(cfg)
        if i == 0:
            print(f"{'threads':>8} {'ops':>10} {'elapsed':>9} {'ops/s':>12}")
        print(f"{row['threads']:>8} {row['ops']:>10} "
              f"{row['elapsed']:>8.2f}s {row['ops_per_sec']:>12,.0f}")
        if row["structure_violations"]:
            print(f"  structure violations: "
                  f"{row['structure_violations']}")
            return 1
    return 0


def cmd_selftest(args) -> int:
    failed = False

    oracle = SetOracle()
    tree = LeafTree(TreeConfig(5, 8, 3))
    wl_cfg = harness.RunConfig(order=5, leaf_capacity=8, min_size=3,
                               threads=1, ops_per_thread=3000,
                               key_range=512, seed=11)
    for kind, e1, e2 in harness.make_ops(wl_cfg, 0):
        got = _op_direct(tree, kind, e1, e2)
        want = oracle.apply(kind, e1, e2)
        if got != want:
            print(f"serial mismatch: {kind} [{e1},{e2}] -> {got}, "
                  f"oracle {want}")
            failed = True
            break
    else:
        print(f"serial oracle: {wl_cfg.ops_per_thread} ops exact")
    if tree.snapshot() != oracle.keys():
        print("serial snapshot mismatch")
        failed = True

    for report in scenarios.run_all(runs=500):
        status = "ok" if report.ok else "FAILED"
        print(f"scenario {report.name}: {report.schedules} schedules, "
              f"{status}")
        failed = failed or not report.ok

    cfg = harness.RunConfig(threads=4, ops_per_thread=5000, key_range=4096,
                            seed=3)
    result = harness.run_stress(cfg)
    print(f"stress: {result.summary()}")
    failed = failed or not result.ok

    print("selftest", "FAILED" if failed else "passed")
    return 1 if failed else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lftree",
        description="Lock-free leaf-oriented search tree: stress, trace "
                    "checking, schedule exploration, benchmarks.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("stress", help="threaded run with full verification")
    _tree_args(p)
    _workload_args(p)
    p.add_argument("--threads", type=int, default=8)
    p.add_argument("--trace", help="write the op history to this file")
    p.set_defaults(func=cmd_stress)

    p = sub.add_parser("check", help="verify a saved trace")
    p.add_argument("--trace", required=True)
    p.add_argument("--window", type=int, default=0,
                   help="also audit progress gaps longer than this many "
                        "ns; a finding fails the check")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("schedules",
                       help="deterministic interleaving scenarios")
    p.add_argument("scenario", nargs="?", default="all",
                   choices=sorted(scenarios.SCENARIOS) + ["all"])
    p.add_argument("--bound", type=int, default=None,
                   help="steps to explore exhaustively (default: each "
                        "scenario's own, none for a complete enumeration)")
    p.add_argument("--runs", type=int, default=None,
                   help="schedules per seeded scenario (default: each "
                        "scenario's own)")
    p.add_argument("--seed", type=int, default=None,
                   help="seed for seeded scenarios (default: each "
                        "scenario's own)")
    p.set_defaults(func=cmd_schedules)

    p = sub.add_parser("bench", help="throughput measurement")
    _tree_args(p)
    _workload_args(p)
    p.add_argument("--threads", default="1,2,4,8",
                   help="comma-separated thread counts (default 1,2,4,8)")
    p.add_argument("--duration", type=float, default=1.0,
                   help="seconds per thread count (default 1.0)")
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("selftest", help="quick verification battery")
    p.set_defaults(func=cmd_selftest)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except TraceError as exc:
        print(f"malformed trace: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
