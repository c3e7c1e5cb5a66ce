#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics.

    python3 perfbench/steady.py [--runs 10] [--first-seed 1] [WORKLOAD ...]

Runs each workload (default: all of BENCHMARK.json) once per seed through
run.py with the benchmark's run_seconds, then prints for every
end-to-end metric its median and the interquartile range as a share of
the median (statistics.quantiles(values, n=4)), next to the metric's
bound.  A spread under a third of the bound is steady, for `setup_s` as
for every other metric.  Each run's result line is kept under
perfbench/_results/.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main():
    spec = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("workloads", nargs="*", default=[w["name"] for w in spec["workloads"]])
    args = ap.parse_args()
    out_dir = os.path.join(HERE, "_results")
    os.makedirs(out_dir, exist_ok=True)
    steady = True
    for w in args.workloads:
        values = {m["name"]: [] for m in spec["end_to_end"]}
        for seed in range(args.first_seed, args.first_seed + args.runs):
            cmd = spec["command"] + ["--workload", w, "--seed", str(seed),
                                     "--seconds", str(spec["run_seconds"]), "--trace", "0"]
            out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
            last = out.stdout.strip().splitlines()[-1] if out.stdout.strip() else ""
            with open(os.path.join(out_dir, "%s-%d.json" % (w, seed)), "w") as fh:
                fh.write(out.stdout)
            if out.returncode != 0:
                print("%s seed %d: exit %d\n%s" % (w, seed, out.returncode, out.stderr[-2000:]))
                sys.exit(1)
            res = json.loads(last)
            if not res["correct"]:
                print("%s seed %d: %d of %d operations failed" % (w, seed, res["failed"], res["attempted"]))
                steady = False
            for k in values:
                values[k].append(res["metrics"][k]["value"])
        print("%s (%d runs)" % (w, args.runs))
        for m in spec["end_to_end"]:
            v = values[m["name"]]
            q1, med, q3 = statistics.quantiles(v, n=4)
            med = statistics.median(v)
            spread = (q3 - q1) / med
            ok = spread < m["bound"] / 3
            steady = steady and ok
            print("  %-16s median %12.6g  spread %6.3f  bound %.2f  %s" % (
                m["name"], med, spread, m["bound"], "ok" if ok else "NOISY"))
        sys.stdout.flush()
    sys.exit(0 if steady else 1)


if __name__ == "__main__":
    main()
