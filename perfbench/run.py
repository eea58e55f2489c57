#!/usr/bin/env python3
"""Build and run the repository benchmark from the root of a checkout.

    python3 perfbench/run.py --workload build|replay|grid --seed N \
        --seconds S --trace 0|1
    python3 perfbench/run.py --selftest

The first run configures and builds perfbench/ (which pulls in the lp
library from src/) under .bench_build/perfbench; later runs only
re-check the build. The benchmark binary's stdout is passed through,
and its last line, the result object, is parsed strictly and checked
against BENCHMARK.json before it is printed again as the last line.
Any failure exits nonzero without printing a result.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(1)


def build(target):
    quiet = {"stdout": sys.stderr, "stderr": sys.stderr}
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        gen = ["-G", "Ninja"] if shutil.which("ninja") else []
        subprocess.run(["cmake", "-S", HERE, "-B", BUILD,
                        "-DCMAKE_BUILD_TYPE=Release"] + gen,
                       check=True, timeout=300, **quiet)
    subprocess.run(["cmake", "--build", BUILD, "--target", target,
                    "--parallel", "4"], check=True, timeout=840, **quiet)
    return os.path.join(BUILD, target)


def strict_loads(text):
    """json.loads that refuses NaN/Infinity and duplicate keys."""
    def no_constant(name):
        raise ValueError("non-finite number " + name)

    def no_duplicates(pairs):
        obj = {}
        for key, value in pairs:
            if key in obj:
                raise ValueError("duplicate key " + repr(key))
            obj[key] = value
        return obj

    return json.loads(text, parse_constant=no_constant,
                      object_pairs_hook=no_duplicates)


def is_int(v):
    return isinstance(v, int) and not isinstance(v, bool)


def check_result(line, trace):
    """The validated result object of one run; raises ValueError."""
    res = strict_loads(line)
    if not isinstance(res, dict) or set(res) != RESULT_KEYS:
        raise ValueError("result keys must be exactly %s" %
                         sorted(RESULT_KEYS))
    if not isinstance(res["correct"], bool):
        raise ValueError("'correct' must be a boolean")
    if not is_int(res["attempted"]) or res["attempted"] < 1:
        raise ValueError("'attempted' must be a whole number >= 1")
    if not is_int(res["failed"]) or not 0 <= res["failed"] <= res["attempted"]:
        raise ValueError("'failed' must be a whole number <= attempted")
    if res["correct"] != (res["failed"] == 0):
        raise ValueError("'correct' disagrees with 'failed'")
    metrics = res["metrics"]
    if not isinstance(metrics, dict) or not metrics:
        raise ValueError("'metrics' must be a non-empty object")
    for name, m in metrics.items():
        if not isinstance(m, dict) or set(m) != {"value", "unit"}:
            raise ValueError("metric %s must have exactly value and unit"
                             % name)
        if isinstance(m["value"], bool) or \
                not isinstance(m["value"], (int, float)):
            raise ValueError("metric %s value must be a number" % name)
    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    if os.path.exists(spec_path):
        with open(spec_path) as f:
            spec = strict_loads(f.read())
        defs = spec["per_layer" if trace else "end_to_end"]
        want = {d["name"]: d["unit"] for d in defs}
        got = {n: m["unit"] for n, m in metrics.items()}
        if got != want:
            raise ValueError("metrics differ from BENCHMARK.json: missing "
                             "%s, extra %s, unit mismatches %s" % (
                                 sorted(set(want) - set(got)),
                                 sorted(set(got) - set(want)),
                                 sorted(n for n in set(want) & set(got)
                                        if want[n] != got[n])))
    return res


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--selftest", action="store_true")
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int)
    ap.add_argument("--seconds", type=int)
    ap.add_argument("--trace", type=int, choices=(0, 1))
    args = ap.parse_args()
    try:
        if args.selftest:
            sys.exit(subprocess.run([build("perfbench_selftest")],
                                    timeout=120).returncode)
        if None in (args.workload, args.seed, args.seconds, args.trace):
            fail("--workload, --seed, --seconds and --trace are required")
        if args.seed < 0 or args.seconds < 1:
            fail("--seed must be >= 0 and --seconds >= 1")
        exe = build("lpbench")
        run = subprocess.run(
            [exe, "--workload", args.workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, timeout=175)
    except (OSError, subprocess.SubprocessError) as e:
        fail(str(e))
    lines = run.stdout.rstrip("\n").split("\n")
    if run.returncode != 0:
        sys.stderr.write(run.stdout)
        fail("lpbench exited with code %d" % run.returncode)
    try:
        check_result(lines[-1], args.trace == 1)
    except ValueError as e:
        sys.stderr.write(run.stdout)
        fail("bad result line: %s" % e)
    sys.stdout.write("\n".join(lines) + "\n")

if __name__ == "__main__":
    main()
