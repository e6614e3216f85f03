"""lftree benchmark: one workload per process, end to end or traced.

    python3 perfbench/run.py --workload read-k32 --seed 1 --seconds 20 --trace 0

Runs from the root of a source checkout and imports lftree from `src/`, so
nothing needs installing. Prints a readable report, then one JSON line of
details (environment, raw timings, sample counts, absent metrics, problems),
and last one JSON line with `correct`, `attempted`, `failed` and `metrics`.
`failed / attempted` is the workload's error rate. With `--trace 0` the
metrics are the end-to-end ones (calibrated; see calibrate.py), with
`--trace 1` the per-layer ones from a separate traced run. Exits 2 without a
result when the checkout has no `src/lftree`.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

END_TO_END_UNITS = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "verify_s_per_100k": "s",
    "check_us_per_record": "us",
    "peak_rss_mb": "MB",
}
# Printed with their sample counts but not in the result line: on churn-k4
# an op's latency under 10 us preemption is bimodal (done within its
# interpreter slice, or waiting 80-200 us for a GIL hand-off) and p50 sits
# on the cliff between the modes, so run-to-run spreads reach 0.33, beyond
# any bound the result line may carry.
LATENCY = tuple(f"{kind}_p{q}_us" for kind in ("search", "insert", "remove")
                for q in (50, 99))


def _git_commit():
    """HEAD of the checkout, read from .git without running git; None when
    the checkout is not a repository."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="ascii") as f:
            head = f.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        try:
            with open(os.path.join(git, ref), encoding="ascii") as f:
                return f.read().strip()
        except FileNotFoundError:
            with open(os.path.join(git, "packed-refs"), encoding="ascii") as f:
                for line in f:
                    if line.rstrip().endswith(" " + ref):
                        return line.split()[0]
    except OSError:
        pass
    return None


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True,
                   choices=("read-k32", "churn-k4", "explore-small"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seconds <= 0:
        p.error("--seconds must be positive")

    if not os.path.isdir(os.path.join(SRC, "lftree")):
        print(f"perfbench: no lftree sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import workloads
    from calibrate import REF_SLICE_S

    run = {
        ("read-k32", 0): workloads.read_k32,
        ("churn-k4", 0): workloads.churn_k4,
        ("explore-small", 0): workloads.explore_small,
        ("read-k32", 1): workloads.read_k32_traced,
        ("churn-k4", 1): workloads.churn_k4_traced,
        ("explore-small", 1): workloads.explore_small_traced,
    }[args.workload, args.trace]
    res = run(args.seed, args.seconds)

    units = END_TO_END_UNITS if args.trace == 0 else workloads.LAYER_UNITS
    env = {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "calibration_ref_slice_s": REF_SLICE_S,
        "git_commit": _git_commit(),
        **res.env,
    }
    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace}")
    for k, v in env.items():
        print(f"  {k}: {v}")
    for name, unit in units.items():
        raw = res.raw.get(name)
        extra = f"   (raw {raw:.6g})" if raw is not None else ""
        mark = "   absent" if name in res.absent else ""
        print(f"  {name:44s} {res.metrics[name]:14.6g} {unit}{extra}{mark}")
    if args.trace == 0:
        print("  latency (not in the result line):")
        for name in LATENCY:
            n = res.samples[name.split("_")[0] + "_latency"]
            print(f"  {name:44s} {res.metrics[name]:14.6g} us   (n={n})")
    rate = res.failed / res.attempted if res.attempted else 1.0
    print(f"  error_rate: {rate:.6g} ({res.failed} failed of {res.attempted})")
    for problem in res.problems:
        print(f"  problem: {problem}")
    latency = {n: res.metrics[n] for n in LATENCY if n in res.metrics}
    print(json.dumps({"environment": env, "raw": res.raw, "latency_us": latency,
                      "samples": res.samples, "absent": res.absent,
                      "error_rate": rate, "problems": res.problems}))
    print(json.dumps({
        "correct": res.failed == 0,
        "attempted": res.attempted,
        "failed": res.failed,
        "metrics": {name: {"value": res.metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
