"""Benchmark of cluster-friezes: three workloads, end to end and per layer.

    python3 perfbench/run.py --workload {gate,y-walk,a-trop} --seed N \\
        --seconds S --trace {0,1}

Run from the root of a source checkout; the package is imported from its
`src/`.  Every timed run starts a fresh interpreter (`worker.py`), because
the package's memos are process-global and a second run in one process would
time dictionary lookups; runs repeat until the next one would end after
`--seconds` (at least two).  All runs of one call use the same inputs, made
from `--seed`, and must produce identical outputs.

`--trace 0` reports the end-to-end metrics, medians over the runs; set-up
is also timed by SETUP_RUNS runs that stop after it.  Times are scaled to a
reference core speed by a probe timed in each run (see `worker.py`); the
times as measured are printed above the result.
`--trace 1` alternates untraced and traced runs and reports the per-layer
metrics of the traced ones (`spans.py`), as measured, with the tracing
overhead.

The last line of stdout is one JSON object:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {name: {"value", "unit"}}}.
The lines before it say how many samples stand behind each figure.
"""

import argparse
import compileall
import json
import operator
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
PACKAGE_INIT = ROOT / "src" / "cluster_friezes" / "__init__.py"
WORKLOADS = ("gate", "y-walk", "a-trop")
MIN_RUNS = 2
# set-up is short and noisy, so it is also measured by this many runs that
# stop after set-up
SETUP_RUNS = 4
# one run of any workload takes 7..25 s here; a hung run is a failure
RUN_TIMEOUT_S = 120


def start_run(workload, seed, trace, small=False, setup_only=False):
    """One run in a fresh interpreter; returns its figures and wall time.
    `small` selects the reduced sizes of the benchmark's own tests."""
    env = {k: v for k, v in os.environ.items() if k not in ("PYTHONPATH", "PYTHONSTARTUP")}
    env["PYTHONHASHSEED"] = "0"
    argv = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
            "--seed", str(seed)]
    if trace:
        argv.append("--trace")
    if small:
        argv.append("--small")
    if setup_only:
        argv.append("--setup-only")
    started = time.monotonic()
    proc = subprocess.run(
        argv + ["--started-at", repr(started)],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=RUN_TIMEOUT_S,
    )
    elapsed = time.monotonic() - started
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{workload} run exited with {proc.returncode}")
    return json.loads(proc.stdout.splitlines()[-1]), elapsed


def tail(values):
    """(value, label) of the highest percentile with at least ten samples
    beyond it; the maximum when there are fewer than eleven samples."""
    xs = sorted(values)
    n = len(xs)
    if n < 11:
        return xs[-1], f"max of {n}"
    k = n - 11
    return xs[k], f"p{100 * (k + 1) / n:.1f} of {n}"


def unit_of(name):
    for suffix, unit in ((".calls", "count"), ("_ratio", "ratio"),
                         (".max_terms", "terms")):
        if name.endswith(suffix):
            return unit
    return "s"


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not PACKAGE_INIT.is_file():
        print(f"no package source at {PACKAGE_INIT.parent}; run from a checkout",
              file=sys.stderr)
        return 2
    if "cluster_friezes" in sys.modules:
        print("refusing to benchmark: cluster_friezes is already imported here",
              file=sys.stderr)
        return 3
    # compile once, untimed, so no run pays for writing bytecode
    compileall.compile_dir(ROOT / "src", quiet=1)
    compileall.compile_dir(HERE, quiet=1)

    plan = [False] if not args.trace else [False, True]
    runs = []  # (traced, figures)
    took = {}
    clock0 = time.monotonic()
    setups = [] if args.trace else [
        start_run(args.workload, args.seed, False, setup_only=True)[0]
        for _ in range(SETUP_RUNS)
    ]
    while True:
        traced = plan[len(runs) % len(plan)]
        if len(runs) >= max(MIN_RUNS, len(plan)):
            guess = took.get(traced, max(took.values()))
            if time.monotonic() - clock0 + guess > args.seconds:
                break
        figures, took[traced] = start_run(args.workload, args.seed, traced)
        runs.append((traced, figures))
    measured = time.monotonic() - clock0

    attempted = sum(f["attempted"] for _, f in runs) + len(runs) - 1
    failed = sum(f["failed"] for _, f in runs)
    failed += sum(1 for _, f in runs[1:] if f["digest"] != runs[0][1]["digest"])

    plain = [f for traced, f in runs if not traced]
    traced_runs = [f for traced, f in runs if traced]
    walls = [f["wall_s"] * f["wall_scale"] for f in plain]
    print(f"machine: python {platform.python_version()}, nproc {os.cpu_count()}")
    print(f"workload {args.workload}, seed {args.seed}: {len(plain)} untraced and "
          f"{len(traced_runs)} traced runs in {measured:.1f} s")
    print(f"fail_ratio: {failed}/{attempted} checks failed")
    setups += plain
    print("raw wall_s: " + ", ".join(f"{f['wall_s']:.3f}" for f in plain)
          + "; raw setup_s: " + ", ".join(f"{f['setup_s']:.3f}" for f in setups))

    metrics = {}
    if not args.trace:
        # every run has the same ops (same inputs): take each op's median
        ops = [
            1000 * statistics.median(xs)
            for xs in zip(*(map(operator.mul, f["ops_s"], f["ops_scale"]) for f in plain))
        ]
        tail_ms, tail_label = tail(ops)
        runs_label = f"median of {len(plain)} runs"
        rows = (
            ("wall_s", statistics.median(walls), "s",
             f"{runs_label}: " + ", ".join(f"{w:.3f}" for w in walls)),
            ("setup_s", statistics.median(f["setup_s"] * f["setup_scale"] for f in setups),
             "s", f"median of {len(setups)} runs"),
            ("peak_rss_mb", statistics.median(f["peak_rss_mb"] for f in plain), "MB",
             runs_label),
            ("op_p50_ms", statistics.median(ops), "ms",
             f"p50 of {len(ops)} ops, each the {runs_label}"),
            ("op_tail_ms", tail_ms, "ms", f"{tail_label} ops, each the {runs_label}"),
        )
    else:
        traced_walls = [f["wall_s"] * f["wall_scale"] for f in traced_runs]
        rows = [
            (name, statistics.median(f["layers"][name] for f in traced_runs),
             unit_of(name), f"median of {len(traced_runs)} traced runs, as measured")
            for name in traced_runs[0]["layers"]
        ]
        rows.append(("traced_wall_s", statistics.median(f["wall_s"] for f in traced_runs),
                     "s", f"median of {len(traced_runs)} traced runs, as measured"))
        rows.append(("trace_overhead_ratio",
                     statistics.median(traced_walls) / statistics.median(walls), "ratio",
                     f"{len(traced_runs)} traced over {len(plain)} untraced runs, scaled"))
    for name, value, unit, samples in rows:
        print(f"{name}: {value:.6g} {unit} ({samples})")
        metrics[name] = {"value": value, "unit": unit}
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
