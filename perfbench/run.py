#!/usr/bin/env python3
"""Run one workload of the repository benchmark.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Builds `cfpm` and the benchmark from source with dune (the first build
of a fresh checkout takes a while), pins CFPM_JOBS=1, then runs
`perfbench/bench.exe` pinned to one CPU (with the `cfpm serve` it
starts), when `taskset` is there.  Its standard output is passed
through: a host fingerprint line, then (last line) the result object
{"correct", "attempted", "failed", "metrics"}.  Build output goes to
standard error.  See perfbench/README.md.
"""

import argparse
import hashlib
import os
import shutil
import signal
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ("serve", "query", "stream")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def fail(msg, code):
    print("run.py: " + msg, file=sys.stderr)
    sys.exit(code)


def source_identity():
    """The git commit when there is one, else a digest of the sources."""
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10)
        if out.returncode == 0 and out.stdout.strip():
            return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    h = hashlib.sha256()
    for top in ("lib", "bin", "perfbench", "dune-project"):
        base = os.path.join(ROOT, top)
        paths = [base] if os.path.isfile(base) else sorted(
            os.path.join(d, f) for d, dirs, files in os.walk(base)
            for f in files if "/_" not in os.path.relpath(os.path.join(d, f), ROOT))
        for p in paths:
            h.update(os.path.relpath(p, ROOT).encode())
            with open(p, "rb") as fh:
                h.update(fh.read())
    return "tree-sha256:" + h.hexdigest()[:16]


def pinning():
    """taskset prefix that keeps the benchmark and its children on the
    last CPU this process may use.  Unpinned, the client and the server
    land on the same or on different CPUs from run to run, and serve's
    p99 and query's p50 jump with that."""
    taskset = shutil.which("taskset")
    try:
        cpus = sorted(os.sched_getaffinity(0))
    except AttributeError:
        cpus = []
    if taskset and cpus:
        return [taskset, "-c", str(cpus[-1])], "%d of %d" % (cpus[-1], os.cpu_count())
    return [], "none"


def clean_env():
    env = {k: v for k, v in os.environ.items() if not k.startswith("CFPM_")}
    env["CFPM_JOBS"] = "1"
    return env


def run(cmd, timeout, env, stdout):
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=stdout, start_new_session=True)
    try:
        return proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        fail("%s timed out after %d s" % (cmd[0], timeout), 4)
    except KeyboardInterrupt:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    for need in ("dune-project", "lib", "bin"):
        if not os.path.exists(os.path.join(ROOT, need)):
            fail("no %s next to perfbench/: run from a full checkout of the repository" % need, 2)

    env = clean_env()
    if run(["dune", "build", "--root", ROOT, "./perfbench/bench.exe", "./bin/cfpm.exe"],
           BUILD_TIMEOUT_S, env, sys.stderr) != 0:
        fail("build failed", 3)

    exe = os.path.join(ROOT, "_build", "default", "perfbench", "bench.exe")
    prefix, cpu = pinning()
    code = run(prefix + [exe, "--workload", args.workload, "--seed", str(args.seed),
                         "--seconds", repr(args.seconds), "--trace", str(args.trace),
                         "--commit", source_identity(), "--cpu", cpu],
               RUN_TIMEOUT_S, env, None)
    sys.exit(code)


if __name__ == "__main__":
    main()
