"""Compare two result sets of the benchmark. Report only; it gates nothing.

    python3 bench/compare.py PARENT_DIR CHANGE_DIR

Each directory holds the JSON files `run.py --out` wrote. For every
(workload, metric) the script prints both medians with their quartiles and a
verdict:

  improved    the change wins at least 9 in 10 pairs (ties count for
              neither) and the medians differ, in the better direction, by
              more than the parent's quartile spread;
  worse       the change's median is worse than the parent's by more than
              the metric's bound in BENCHMARK.json;
  unresolved  the run-to-run spread is wider than the bound, and not every
              run of the change is better than every run of the parent;
  same        none of these: no worse than the bound, no gain shown.

Runs pair up by seed where both sets have it, else in file order. The
wall-clock figures of untraced runs and the per-layer metrics of traced runs
have no bound and get no verdict.
"""

import glob
import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load(directory):
    """{(workload, trace): [result, ...]} from one result set."""
    runs = {}
    for path in sorted(glob.glob(os.path.join(directory, "*.json"))):
        with open(path) as fh:
            r = json.load(fh)
        runs.setdefault((r["meta"]["workload"], r["meta"]["trace"]), []).append(r)
    return runs


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def values(run):
    """Every metric of one run: the result's, then the wall-clock figures."""
    out = {k: m["value"] for k, m in run["metrics"].items()}
    out.update(run["meta"].get("wall_clock", {}))
    return out


def pairs(parent, change, metric):
    by_seed = {r["meta"]["seed"]: r for r in parent}
    matched = [(by_seed[r["meta"]["seed"]], r) for r in change if r["meta"]["seed"] in by_seed]
    if len(matched) < min(len(parent), len(change)):
        matched = list(zip(parent, change))
    return [(values(a)[metric], values(b)[metric]) for a, b in matched]


def verdict(p_vals, c_vals, pair_vals, better, bound):
    sign = 1 if better == "higher" else -1
    p1, pm, p3 = quartiles(p_vals)
    c1, cm, c3 = quartiles(c_vals)
    wins = sum(1 for a, b in pair_vals if sign * (b - a) > 0)
    if (pair_vals and wins >= 0.9 * len(pair_vals)
            and sign * (cm - pm) > p3 - p1):
        return "improved", wins
    all_better = all(sign * (c - p) > 0 for c in c_vals for p in p_vals)
    if (p3 - p1 > bound * abs(pm) or c3 - c1 > bound * abs(cm)) and not all_better:
        return "unresolved", wins
    if sign * (cm - pm) < -bound * abs(pm):
        return "worse", wins
    return "same", wins


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = {m["name"]: m for m in json.load(fh)["end_to_end"]}
    parent, change = load(argv[0]), load(argv[1])
    for side, runs in (("parent", parent), ("change", change)):
        for (wl, trace), rs in sorted(runs.items()):
            meta = [r["meta"] for r in rs]
            print("# %s %s trace=%d: %d runs, commits %s, calibration median %.0f ns, "
                  "failed %d of %d ops" % (
                      side, wl, trace, len(rs), sorted({m["commit"][:12] for m in meta}),
                      statistics.median(m["fraction_muladd_ns"] for m in meta),
                      sum(r["failed"] for r in rs), sum(r["attempted"] for r in rs)))
    print("%-16s %-40s %-34s %-34s %8s %6s %s" % (
        "workload", "metric", "parent median [q1, q3]", "change median [q1, q3]",
        "change", "wins", "verdict"))
    for key in sorted(set(parent) & set(change)):
        p_runs, c_runs = parent[key], change[key]
        for metric in values(p_runs[0]):
            if metric not in values(c_runs[0]):
                continue
            p_vals = [values(r)[metric] for r in p_runs]
            c_vals = [values(r)[metric] for r in c_runs]
            pv = pairs(p_runs, c_runs, metric)
            p1, pm, p3 = quartiles(p_vals)
            c1, cm, c3 = quartiles(c_vals)
            if metric in spec and key[1] == 0:
                v, wins = verdict(p_vals, c_vals, pv, spec[metric]["better"],
                                  spec[metric]["bound"])
                wins = "%d/%d" % (wins, len(pv))
            else:
                v, wins = "-", "-"
            delta = "%+.1f%%" % (100 * (cm - pm) / pm) if pm else "-"
            print("%-16s %-40s %-34s %-34s %8s %6s %s" % (
                key[0], metric, "%.5g [%.5g, %.5g]" % (pm, p1, p3),
                "%.5g [%.5g, %.5g]" % (cm, c1, c3), delta, wins, v))
    return 0


if __name__ == "__main__":
    sys.exit(main())
