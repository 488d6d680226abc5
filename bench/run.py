"""homlong benchmark: one workload per process, closed loop, exact checks.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--out FILE]

Workloads: longeq-carriers, search-grid, braid-cli (see workloads.py and
workloads.json). One client in one thread sends the next op when the
previous one finishes. A run is round(--seconds / CYCLE_S) whole cycles of
ops, CYCLE_S being the workload's cycle length at the commit that defined the
benchmark: a run lasts about --seconds there, and every run of every version
measures the same ops, so a faster program finishes the same work sooner.

With --trace 0 the last line of standard output is the JSON result with the
end-to-end metrics: set-up time and peak memory as measured, and throughput
and op latency as costs in reference multiply-adds (refclock.py), because on
a shared host the wall-clock figures of one version can drift by a quarter
from run to run. The wall-clock figures are printed above it, with the tail
percentile and its sample count, failed_frac and the run metadata. With
--trace 1 the first cycle runs untraced as the reference for the tracing
overhead, the others traced, and the result holds the per-layer metrics.
--out also writes everything to FILE, for compare.py.
"""

import argparse
import contextlib
import importlib
import itertools
import json
import math
import os
import platform
import random
import resource
import shutil
import statistics
import sys
import time
import traceback
import types

from refclock import RefClock, muladd_seconds

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

SETUP_REPEATS = 11
MAX_RUN_S = 120          # start no cycle past this, to exit within 180 s
TAIL_BEYOND = 10

END_TO_END_UNITS = {
    "setup_s": "s", "ops_per_mref": "1/Mref", "verdicts_per_mref": "1/Mref",
    "op_kref.p50": "kref", "op_kref.tail": "kref", "peak_rss_mb": "MB",
}
WALL_CLOCK_UNITS = {
    "ops_per_s": "1/s", "verdicts_per_s": "1/s", "op_s.p50": "s", "op_s.tail": "s",
    "failed_frac": "ratio", "ref_ns": "ns",
}


def load_library(modules):
    """Import the listed homlong submodules afresh (set-up is repeated)."""
    for name in [m for m in sys.modules if m == "homlong" or m.startswith("homlong.")]:
        del sys.modules[name]
    lib = types.SimpleNamespace()
    for sub in modules:
        setattr(lib, sub, importlib.import_module("homlong." + sub))
    return lib


class Stopwatch:
    """Times the library calls of one op; tracing is on only inside them."""

    def __init__(self, tracer):
        self.segments = []
        self.tracer = tracer

    def __call__(self, f, *args):
        tracer = self.tracer
        if tracer is not None:
            tracer.active = True
        t0 = time.perf_counter()
        try:
            return f(*args)
        finally:
            self.segments.append((t0, time.perf_counter()))
            if tracer is not None:
                tracer.active = False

    @property
    def elapsed(self):
        return sum(t1 - t0 for t0, t1 in self.segments)


def tail(latencies):
    """(percentile, value, samples beyond) for the highest whole percentile
    with at least TAIL_BEYOND samples beyond it (nearest rank)."""
    s = sorted(latencies)
    n = len(s)
    if n <= TAIL_BEYOND:
        return 100, s[-1], 0
    p = (100 * (n - TAIL_BEYOND)) // n
    rank = max(1, math.ceil(p * n / 100))
    return p, s[rank - 1], n - rank


def fraction_muladd_ns(reps=5, n=5000):
    """Median ns of one Fraction multiply-add: a machine-noise control."""
    return statistics.median(muladd_seconds(n) for _ in range(reps)) * 1e9


def commit_id():
    """HEAD of the checkout's git repository, read without running git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.exists(path):
            with open(path) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def run_cycle(workload, rng, tracer, stats, op_ids):
    """Run one cycle; return the sum of its op latencies."""
    busy = 0.0
    for op in workload.cycle(rng):
        stats["attempted"] += 1
        sw = Stopwatch(tracer)
        if tracer is not None:
            tracer.op_id = next(op_ids)
        try:
            result = op.run(sw)
        except Exception:
            # A library exception is a failed op; the loop must go on.
            stats["failed"] += 1
            stats["errors"].append("%s raised:\n%s" % (op.kind, traceback.format_exc()))
            continue
        busy += sw.elapsed
        stats["latencies"].append(sw.elapsed)
        stats["segments"].append(sw.segments)
        try:
            stats["verdicts"] += op.verify(result, tracer)
        except Exception:
            stats["failed"] += 1
            stats["errors"].append("%s: %s" % (op.kind, traceback.format_exc(limit=2)))
    return busy


def run_cycles(args, cls, workload, stats):
    """All cycles of the run; with --trace 1 the first one untraced and the
    tracer installed for the rest. Returns (per-cycle busy seconds, tracer)."""
    tracer = None
    op_ids = itertools.count()
    cycle_busy = []
    start = time.perf_counter()
    for index in range(max(1, round(args.seconds / cls.CYCLE_S)) + args.trace):
        if args.trace and index == 1:
            from spans import Tracer
            tracer = Tracer()
            tracer.install()
            stats.update(verdicts=0, latencies=[], segments=[])
        rng = random.Random("%s:%d:%d" % (args.workload, args.seed, index))
        cycle_busy.append(run_cycle(workload, rng, tracer, stats, op_ids))
        if index >= args.trace and time.perf_counter() - start > MAX_RUN_S:
            break
    return cycle_busy, tracer


def main(argv=None):
    from workloads import WORKLOADS

    ap = argparse.ArgumentParser(description="homlong benchmark")
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", help="also write the full result as JSON to this file")
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "homlong", "__init__.py")):
        print("error: no homlong sources under %s" % SRC, file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)

    cls = WORKLOADS[args.workload]
    meta = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "commit": commit_id(), "python": platform.python_version(),
        "nproc": os.cpu_count(), "loadavg_start": list(os.getloadavg()),
        "fraction_muladd_ns": fraction_muladd_ns(),
    }
    stats = {"attempted": 0, "failed": 0, "verdicts": 0, "latencies": [], "segments": [],
             "errors": []}
    clock = RefClock()
    workroot = os.path.join(ROOT, ".bench_work")
    workdir = os.path.join(workroot, "%s-%d" % (args.workload, os.getpid()))
    try:
        setup_times = []
        for _ in range(SETUP_REPEATS):
            shutil.rmtree(workdir, ignore_errors=True)
            os.makedirs(workdir)
            t0 = time.perf_counter()
            workload = cls(load_library(cls.modules), workdir)
            setup_times.append(time.perf_counter() - t0)
        t0 = time.perf_counter()
        workload.prepare()
        meta["prepare_s"] = time.perf_counter() - t0
        if args.trace:
            cycle_busy, tracer = run_cycles(args, cls, workload, stats)
        else:
            with clock:
                cycle_busy, tracer = run_cycles(args, cls, workload, stats)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(workroot)

    lat = stats["latencies"]
    failed, attempted = stats["failed"], stats["attempted"]
    meta.update(cycles=len(cycle_busy), ops=attempted, samples=len(lat),
                setup_repeats=SETUP_REPEATS, cycle_busy_s=cycle_busy)
    for err in stats["errors"][:5]:
        print("# failure: " + err.replace("\n", "\n#   "), file=sys.stderr)
    for key in ("workload", "seed", "commit", "python", "nproc", "loadavg_start",
                "fraction_muladd_ns", "prepare_s", "cycles", "ops", "samples"):
        print("# %-20s %s" % (key, meta[key]))

    if args.trace:
        from spans import metric_units
        metrics = tracer.metrics(len(cycle_busy) - 1, len(lat), sum(cycle_busy[1:]),
                                 cycle_busy[0], meta["fraction_muladd_ns"])
        units = dict(metric_units())
    else:
        # op cost in thousands of reference multiply-adds
        kref = [sum(clock.cost(t0, t1) for t0, t1 in segs) / 1e3 for segs in stats["segments"]]
        busy, busy_kref = sum(lat) or 1e-12, sum(kref) or 1e-12
        p, tail_s, beyond = tail(lat)
        wall = {
            "ops_per_s": len(lat) / busy,
            "verdicts_per_s": stats["verdicts"] / busy,
            "op_s.p50": statistics.median(lat),
            "op_s.tail": tail_s,
            "failed_frac": failed / max(attempted, 1),
            "ref_ns": clock.median_ns(),
        }
        metrics = {
            "setup_s": statistics.median(setup_times),
            "ops_per_mref": len(kref) / busy_kref * 1e3,
            "verdicts_per_mref": stats["verdicts"] / busy_kref * 1e3,
            "op_kref.p50": statistics.median(kref),
            "op_kref.tail": tail(kref)[1],
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = END_TO_END_UNITS
        meta.update(wall_clock=wall, tail_percentile=p, tail_beyond=beyond)
        for name, value in wall.items():
            print("# %-38s %.6g %s" % (name, value, WALL_CLOCK_UNITS[name]))
        print("# tail: p%d, %d of %d samples beyond" % (p, beyond, len(lat)))

    for name, value in metrics.items():
        print("%-40s %.6g %s" % (name, value, units[name]))
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(dict(result, meta=meta), fh, indent=1, sort_keys=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
