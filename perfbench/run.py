#!/usr/bin/env python3
"""Build densim's benchmark program from source and run one workload.

    python3 perfbench/run.py --workload chassis_cp --seed 1 \
        --seconds 10 --trace 0

Run from the root of a densim checkout. The first run configures and
builds perfbench/ (Release) into $CARGO_TARGET_DIR/perfbench, default
.bench_build/perfbench; later runs rebuild incrementally. The program's
record is appended, with the host fingerprint, to records.jsonl in that
build directory (compare.py reads it), a table of the metrics goes to
stdout, and the last stdout line is the result:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end_to_end metrics of BENCHMARK.json, --trace 1
the per_layer ones. See perfbench/README.md.
"""

import argparse
import json
import math
import os
import platform
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 700


def fail(message, code=2):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(code)


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(target):
        target = os.path.join(ROOT, target)
    return os.path.join(target, "perfbench")


def build(out_dir):
    """Configure once, then (re)build densim_perfbench; logs go to stderr."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(out_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out_dir, "--target",
                  "densim_perfbench", "-j", jobs])
    deadline = time.monotonic() + BUILD_TIMEOUT_S
    for step in steps:
        left = deadline - time.monotonic()
        try:
            done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr,
                                  timeout=max(left, 1), check=False)
        except subprocess.TimeoutExpired:
            fail("build timed out: " + " ".join(step))
        if done.returncode != 0:
            fail("build failed: " + " ".join(step))
    return os.path.join(out_dir, "densim_perfbench")


def host_fingerprint(build_info):
    model = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as cpuinfo:
            for line in cpuinfo:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    fingerprint = {"nproc": os.cpu_count(), "cpu_model": model}
    fingerprint.update(build_info)
    return fingerprint


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seed < 0 or not args.seconds > 0:
        fail("--seed must be >= 0 and --seconds > 0")

    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no densim sources at %s/src: run from a densim checkout"
             % ROOT)
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json"),
                  encoding="utf-8") as spec_file:
            spec = json.load(spec_file)
    except (OSError, ValueError) as err:
        fail("cannot read BENCHMARK.json: %s" % err)
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        fail("unknown workload %r" % args.workload)

    out_dir = build_dir()
    binary = build(out_dir)
    command = [binary, "--workload", args.workload, "--seed",
               str(args.seed), "--seconds", repr(args.seconds),
               "--trace", str(args.trace)]
    try:
        done = subprocess.run(command, stdout=subprocess.PIPE,
                              stderr=sys.stderr, timeout=RUN_TIMEOUT_S,
                              check=False, text=True)
    except subprocess.TimeoutExpired:
        fail("densim_perfbench exceeded %d s" % RUN_TIMEOUT_S)
    if done.returncode != 0:
        fail("densim_perfbench exited with code %d" % done.returncode,
             done.returncode)
    lines = done.stdout.strip().splitlines()
    if not lines:
        fail("densim_perfbench printed no record")
    record = json.loads(lines[-1])

    problems = list(record["failures"])
    metrics = {}
    for metric in wanted:
        got = record["metrics"].get(metric["name"])
        if got is None:
            problems.append("missing metric " + metric["name"])
        elif got["unit"] != metric["unit"]:
            problems.append("unit of %s is %s, BENCHMARK.json says %s"
                            % (metric["name"], got["unit"], metric["unit"]))
        elif got["value"] is None or not math.isfinite(got["value"]):
            problems.append("non-finite " + metric["name"])
        else:
            metrics[metric["name"]] = {"value": got["value"],
                                       "unit": got["unit"]}

    record["fingerprint"] = host_fingerprint(record.pop("build"))
    record["time"] = time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())
    with open(os.path.join(out_dir, "records.jsonl"), "a",
              encoding="utf-8") as records:
        records.write(json.dumps(record, sort_keys=True) + "\n")

    print("workload %s  seed %d  trace %d  runs %d  failed %d"
          % (args.workload, args.seed, args.trace, record["attempted"],
             record["failed"]))
    for metric in wanted:
        if metric["name"] in metrics:
            print("  %-30s %16.6g %-6s (%s is better)"
                  % (metric["name"], metrics[metric["name"]]["value"],
                     metric["unit"], metric["better"]))
    for problem in problems:
        print("  CHECK FAILED: " + problem)
    print(json.dumps({"correct": not problems,
                      "attempted": record["attempted"],
                      "failed": record["failed"],
                      "metrics": metrics}))


if __name__ == "__main__":
    main()
