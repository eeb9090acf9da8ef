"""One timed run of one workload, in the fresh interpreter it was started in.

    python3 perfbench/worker.py --workload NAME --seed N --started-at T
        [--trace | --setup-only] [--small]

`--started-at` is the parent's `time.monotonic()` just before it started
this interpreter; set-up time runs from there to the first timed call (the
monotonic clock is shared by all processes).  The last line of stdout is one
JSON object with the run's figures.

The speed of a core of a shared host drifts by up to a quarter within
seconds and by a tenth between half-minutes, as other tenants load it, and
the two cores drift independently.  So the worker pins itself to one core,
and a probe thread times a fixed loop on it every PROBE_PERIOD_S while the
workload runs.  Each time is reported as measured and with its scale to the
probe's reference speed, `PROBE_REFERENCE_S / mean probe time` over the same
interval.  On five same-input a-trop runs the measured times ranged over
+-22% of their mean and the scaled ones over +-8%.
"""

import argparse
import json
import os
import resource
import statistics
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"

PROBE_PERIOD_S = 0.01
# An op is scaled by the probes within this margin of it (about 50 probes
# around a short op); set-up, by those up to this long after it.
OP_MARGIN_S = 0.25
SETUP_MARGIN_S = 0.5
# The 1st percentile of the probe's time on a 2-vCPU Intel Xeon virtual
# machine with Python 3.11.7.
PROBE_REFERENCE_S = 2.3e-4


def spin():
    """Dict, tuple and big-integer work, the mix the package spends its
    time on, so that both slow down alike when the core is shared."""
    terms = {}
    for i in range(400):
        exp = (i % 7, i % 5, i % 3)
        terms[exp] = terms.get(exp, 0) + i * 123456789012345678901
    return sorted(terms.items())


class SpeedProbe:
    """Times `spin` every PROBE_PERIOD_S on the worker's core."""

    def __init__(self):
        self.samples = []  # (end, duration)
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, name="speed-probe", daemon=True)

    def _run(self):
        clock = time.perf_counter
        while not self._stop.wait(PROBE_PERIOD_S):
            t0 = clock()
            spin()
            t1 = clock()
            self.samples.append((t1, t1 - t0))

    def start(self):
        self._thread.start()

    def stop(self):
        self._stop.set()
        self._thread.join()

    def scale(self, start, end):
        """Reference speed over the mean speed of the probes run within
        [start, end] (a run's time is the mean of 1/speed over it)."""
        times = [d for t, d in self.samples if start <= t - d and t <= end]
        return PROBE_REFERENCE_S / statistics.fmean(times or [d for _, d in self.samples])


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--started-at", type=float, required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true",
                        help="stop after set-up, probing the core a little longer")
    parser.add_argument("--small", action="store_true")
    args = parser.parse_args(argv)

    # memos in an already imported package would time lookups, not work
    if "cluster_friezes" in sys.modules:
        print("refusing to time a workload: cluster_friezes is already imported",
              file=sys.stderr)
        return 3
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    probe = SpeedProbe()
    probe.start()
    try:
        result = measure(args, probe)
    finally:
        probe.stop()
    if result is None:
        return 3
    print(json.dumps(result))
    return 0


def measure(args, probe):
    """Set up and run the workload; the run's figures, or None when the
    package was not imported from this checkout."""
    probe_start = time.perf_counter()
    sys.path.insert(0, str(SRC))
    import workloads

    prepare, run, check = workloads.WORKLOADS[args.workload]
    inputs = prepare(args.seed, args.small)
    import cluster_friezes

    if not Path(cluster_friezes.__file__).resolve().is_relative_to(SRC):
        print(f"cluster_friezes was imported from {cluster_friezes.__file__}, "
              f"not from {SRC}", file=sys.stderr)
        return None
    tracer = None
    if args.trace:
        import spans

        tracer = spans.Tracer()
        tracer.install()
    setup_s = time.monotonic() - args.started_at
    t0 = time.perf_counter()
    if args.setup_only:
        time.sleep(SETUP_MARGIN_S)
        return {"setup_s": setup_s,
                "setup_scale": probe.scale(probe_start, t0 + SETUP_MARGIN_S)}
    try:
        outputs, ops = run(inputs)
        t1 = time.perf_counter()
    finally:
        if tracer is not None:
            tracer.uninstall()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    attempted, failed, digest = check(outputs)
    result = {
        "setup_s": setup_s,
        "setup_scale": probe.scale(probe_start, t0 + SETUP_MARGIN_S),
        "wall_s": t1 - t0,
        "wall_scale": probe.scale(t0, t1),
        "peak_rss_mb": peak_rss_mb,
        "ops_s": [end - start for start, end in ops],
        "ops_scale": [probe.scale(start - OP_MARGIN_S, end + OP_MARGIN_S)
                      for start, end in ops],
        "attempted": attempted,
        "failed": failed,
        "digest": digest,
    }
    if tracer is not None:
        result["layers"] = tracer.layer_metrics()
    return result

if __name__ == "__main__":
    sys.exit(main())
