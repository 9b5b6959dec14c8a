#!/usr/bin/env python3
"""Build and run the end-to-end benchmark.

    python3 perfbench/run.py --workload cover-1m|fig1-sweep|serve-mixed|all
                             [--seed N] [--seconds S] [--trace 0|1]

Run from the repository root.  The benchmark executable is built from
source with dune, then run once per workload.  Its human-readable report
goes to standard output; the last line is one JSON object with the keys
correct, attempted, failed and metrics, whose metric names are checked
against BENCHMARK.json (end_to_end when untraced, per_layer when traced).
`--workload all` runs every workload in turn and ends with one merged
JSON line whose metric names are prefixed with the workload.
"""

import argparse
import json
import os
import signal
import subprocess
import sys
import threading

EXE = os.path.join("_build", "default", "perfbench", "main.exe")
DEFAULT_SEED = 20120716  # also the default of main.exe
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 175


def fail(msg, code=1):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def check_tree():
    for path in ("dune-project", "lib", os.path.join("perfbench", "dune"),
                 "BENCHMARK.json"):
        if not os.path.exists(path):
            fail("not a complete source tree (missing %s); run from the "
                 "repository root" % path, 2)
    with open("BENCHMARK.json") as f:
        return json.load(f)


def build():
    env = dict(os.environ, DUNE_CACHE="disabled")
    r = subprocess.run(
        ["dune", "build", "--root", ".", "-j", "2", "./perfbench/main.exe"],
        stdout=sys.stderr, stderr=sys.stderr, env=env,
        timeout=BUILD_TIMEOUT_S)
    if r.returncode != 0 or not os.path.exists(EXE):
        fail("build failed")


def run_one(spec, workload, args):
    cmd = [EXE, "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    timer = threading.Timer(RUN_TIMEOUT_S, proc.kill)
    timer.start()
    lines = []
    try:
        for line in proc.stdout:
            lines.append(line.rstrip("\n"))
            print(line, end="", flush=True)
    finally:
        timer.cancel()
        if proc.poll() is None:
            proc.kill()
        proc.wait()
    if proc.returncode != 0 or not lines:
        fail("%s exited with %s" % (workload, proc.returncode))
    try:
        result = json.loads(lines[-1])
    except ValueError:
        fail("%s printed no result line" % workload)
    declared = spec["per_layer" if args.trace else "end_to_end"]
    want = {m["name"]: m["unit"] for m in declared}
    got = {k: v.get("unit") for k, v in result.get("metrics", {}).items()}
    if want != got or set(result) != {"correct", "attempted", "failed",
                                      "metrics"}:
        fail("%s: result does not match BENCHMARK.json (missing %s, "
             "unexpected %s)" % (workload, sorted(set(want) - set(got)),
                                  sorted(set(got) - set(want))))
    return result


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=int, default=25)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    spec = check_tree()
    names = [w["name"] for w in spec["workloads"]]
    if args.workload != "all" and args.workload not in names:
        fail("unknown workload %r (one of %s, all)"
             % (args.workload, ", ".join(names)), 2)
    build()
    if args.workload != "all":
        run_one(spec, args.workload, args)  # its result is the last line
        return
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for w in names:
        r = run_one(spec, w, args)
        merged["correct"] = merged["correct"] and r["correct"]
        merged["attempted"] += r["attempted"]
        merged["failed"] += r["failed"]
        for k, v in r["metrics"].items():
            merged["metrics"]["%s/%s" % (w, k)] = v
    print(json.dumps(merged))


if __name__ == "__main__":
    main()
