#!/usr/bin/env python3
"""Traced run of every workload, with the layer report.

    python3 perfbench/report.py [--seed 1] [--seconds S] [WORKLOAD ...]

Runs run.py --trace 1 for each workload (default: all of BENCHMARK.json)
and prints what each run reports: the workload's throughput untraced and
traced (the tracing overhead), the self time per span name (span minus
its child spans) of the workload and of the layer suite's Table 1 pass,
and every per-layer metric by name with its unit.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main():
    spec = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"])
    ap.add_argument("workloads", nargs="*", default=[w["name"] for w in spec["workloads"]])
    args = ap.parse_args()
    failed = False
    for w in args.workloads:
        cmd = spec["command"] + ["--workload", w, "--seed", str(args.seed),
                                 "--seconds", str(args.seconds), "--trace", "1"]
        out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
        lines = out.stdout.strip().splitlines()
        print("=== %s (exit %d)" % (w, out.returncode))
        for line in lines[1:-1]:
            print(line)
        if out.returncode != 0 or not lines:
            print(out.stderr[-2000:])
            failed = True
            continue
        res = json.loads(lines[-1])
        print("correct %s, %d of %d operations failed" % (res["correct"], res["failed"], res["attempted"]))
        failed = failed or not res["correct"]
        sys.stdout.flush()
    sys.exit(1 if failed else 0)


if __name__ == "__main__":
    main()
