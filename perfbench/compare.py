#!/usr/bin/env python3
"""Repeat the FPPN benchmark over seeds and compare sets of runs.

Run from the root of a checkout:

  python3 perfbench/compare.py spread [--runs 10] [--seconds S] [WORKLOAD ...]
      One run per seed for each workload.  Prints, for every end-to-end
      metric, its median and its spread: the distance between the first
      and third quartile (statistics.quantiles, n=4) as a share of the
      median.  Fails if a spread is not below a third of the metric's
      bound in BENCHMARK.json.

  python3 perfbench/compare.py selftest [--runs 5] [--seconds 2] [--slowdown 1.0]
      Three sets of runs of one workload: a baseline, a second set of the
      same code, and a set whose timed calls are slowed down inside the
      benchmark's own wrapper (--plant-slowdown).  The comparison (a
      metric regresses when its median is worse than the baseline's by
      more than its bound) must pass the second set and must flag the
      slowed set on jobs_per_s and op_p50_ms.

Both modes print a JSON summary as their last line.
"""

import argparse
import json
import statistics
import subprocess
import sys

RUN = ["python3", "perfbench/run.py"]


def load_spec():
    with open("BENCHMARK.json") as f:
        return json.load(f)


def run_once(workload, seed, seconds, extra=()):
    cmd = RUN + ["--workload", workload, "--seed", str(seed),
                 "--seconds", str(seconds), "--trace", "0"] + list(extra)
    out = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                         text=True, timeout=900)
    if out.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)}: exit {out.returncode}")
    lines = out.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"]:
        raise SystemExit(f"{' '.join(cmd)}: {result['failed']} failed")
    values = {k: v["value"] for k, v in result["metrics"].items()}
    for line in lines:
        if line.startswith("# host "):
            values["calibration_ms"] = json.loads(line[len("# host "):])["calibration_ms"]
    return values


def collect(workload, seeds, seconds, extra=()):
    runs = []
    for seed in seeds:
        runs.append(run_once(workload, seed, seconds, extra))
        print(f"  {workload} seed={seed}: " + ", ".join(
            f"{k}={v:.6g}" for k, v in runs[-1].items()), file=sys.stderr)
    return runs


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2 if q2 else float("inf")


def worse_by(metric, base, new):
    """Share by which the median of [new] is worse than that of [base]."""
    b, n = statistics.median(base), statistics.median(new)
    if metric["better"] == "lower":
        return (n - b) / b
    return (b - n) / b


def regressions(spec, base, new):
    out = {}
    for m in spec["end_to_end"]:
        name = m["name"]
        w = worse_by(m, [r[name] for r in base], [r[name] for r in new])
        out[name] = {"worse_by": round(w, 4), "regressed": w > m["bound"]}
    return out


def cmd_spread(args, spec):
    workloads = args.workloads or [w["name"] for w in spec["workloads"]]
    seconds = args.seconds or spec["run_seconds"]
    summary, ok = {}, True
    for wl in workloads:
        runs = collect(wl, range(1, args.runs + 1), seconds)
        summary[wl] = {}
        for m in spec["end_to_end"]:
            vals = [r[m["name"]] for r in runs]
            s = spread(vals)
            steady = s < m["bound"] / 3
            ok = ok and steady
            summary[wl][m["name"]] = {"median": statistics.median(vals),
                                      "spread": round(s, 4), "steady": steady}
            print(f"{wl:16} {m['name']:14} median {statistics.median(vals):12.6g}"
                  f"  spread {s:7.2%}  bound/3 {m['bound'] / 3:6.2%}"
                  f"  {'ok' if steady else 'WIDE'}")
    print(json.dumps({"steady": ok, "workloads": summary}))
    return 0 if ok else 1


def cmd_selftest(args, spec):
    wl = args.workload
    seeds = list(range(1, args.runs + 1))
    base = collect(wl, seeds, args.seconds)
    same = collect(wl, seeds, args.seconds)
    slow = collect(wl, seeds, args.seconds,
                   ["--plant-slowdown", str(args.slowdown)])
    same_cmp = regressions(spec, base, same)
    slow_cmp = regressions(spec, base, slow)
    passes_same = not any(v["regressed"] for v in same_cmp.values())
    catches_slow = all(slow_cmp[k]["regressed"] for k in ("jobs_per_s", "op_p50_ms"))
    for label, cmp in (("identical", same_cmp), ("planted", slow_cmp)):
        for name, v in cmp.items():
            print(f"{label:9} {name:14} worse by {v['worse_by']:8.2%}"
                  f"  {'REGRESSED' if v['regressed'] else 'ok'}")
    ok = passes_same and catches_slow
    print(json.dumps({"workload": wl, "slowdown": args.slowdown,
                      "identical_passes": passes_same,
                      "planted_caught": catches_slow,
                      "identical": same_cmp, "planted": slow_cmp}))
    return 0 if ok else 1


def main():
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = p.add_subparsers(dest="mode", required=True)
    s = sub.add_parser("spread")
    s.add_argument("--runs", type=int, default=10)
    s.add_argument("--seconds", type=int, default=None)
    s.add_argument("workloads", nargs="*")
    t = sub.add_parser("selftest")
    t.add_argument("--workload", default="engine-sporadic")
    t.add_argument("--runs", type=int, default=5)
    t.add_argument("--seconds", type=int, default=2)
    t.add_argument("--slowdown", type=float, default=1.0)
    args = p.parse_args()
    spec = load_spec()
    return cmd_spread(args, spec) if args.mode == "spread" else cmd_selftest(args, spec)


if __name__ == "__main__":
    sys.exit(main())
