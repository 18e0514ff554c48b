#!/usr/bin/env python3
"""Build and run the repository benchmark.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --selftest

The first form builds the benchmark program (perfbench/CMakeLists.txt,
which compiles the library sources under src/) into $CARGO_TARGET_DIR,
or .bench_build when that is unset, runs one workload and relays its
report. The last line of standard output is the program's JSON result;
it is printed only when the run completed and reported exactly the
metrics BENCHMARK.json lists for the mode. --trace 1 also writes the
run's spans to <build dir>/perfbench/spans-<workload>.tsv.

The second form runs every workload in turn, each ending in its own
result line. The third builds and runs the tests of the benchmark's own
code.

Exit status: 0 on success, 1 when the build, the run or an output check
fails, 2 on a usage error.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("serve_fp32", "serve_tabular", "train_online", "sim_rules")
# A run measures for --seconds, then finishes its last pass; set-up
# (repeated for at least 1.5 s) and the traced run's extra work come
# on top. At the
# benchmark's 20 s a run ends well inside the 180 s it is allowed.
RUN_MARGIN_S = 150


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(1)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build(target):
    """Configure once, then build `target`; compiler output to stderr."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("library sources not found under " + os.path.join(ROOT, "src"))
    out = build_dir()
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "--target", target, "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            fail("build step failed: " + " ".join(cmd))
    return os.path.join(out, target)


def expected_metrics(trace):
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)
    except (OSError, ValueError) as e:
        fail("cannot read BENCHMARK.json: %s" % e)
    key = "per_layer" if trace else "end_to_end"
    return {m["name"]: m["unit"] for m in spec[key]}


def check_result(line, trace):
    """Parse the program's last line and check it against BENCHMARK.json."""
    try:
        res = json.loads(line)
    except ValueError:
        fail("the run printed no JSON result")
    if set(res) != {"correct", "attempted", "failed", "metrics"}:
        fail("result has keys %s" % sorted(res))
    want = expected_metrics(trace)
    got = {k: v["unit"] for k, v in res["metrics"].items()}
    if got != want:
        missing = sorted(set(want) - set(got))
        extra = sorted(set(got) - set(want))
        wrong = sorted(k for k in set(want) & set(got) if want[k] != got[k])
        fail("metrics differ from BENCHMARK.json: missing %s, extra %s, "
             "unit mismatch %s" % (missing, extra, wrong))
    if not isinstance(res["attempted"], int) or res["attempted"] < 1:
        fail("attempted must be a whole number of at least 1")
    return res


def run_one(exe, workload, args):
    cmd = [exe, "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        cmd += ["--spans", os.path.join(build_dir(), "spans-%s.tsv" % workload)]
    timeout = args.seconds + RUN_MARGIN_S
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        fail("%s exceeded %d s" % (workload, timeout))
    lines = proc.stdout.rstrip("\n").split("\n")
    if proc.returncode not in (0, 1) or not lines[-1].startswith("{"):
        sys.stdout.write(proc.stdout)
        fail("%s failed with exit status %d" % (workload, proc.returncode))
    res = check_result(lines[-1], args.trace)
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()
    if proc.returncode != 0 or not res["correct"]:
        fail("%s: output checks failed" % workload)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int)
    ap.add_argument("--seconds", type=int)
    ap.add_argument("--trace", type=int, choices=(0, 1))
    ap.add_argument("--selftest", action="store_true")
    args = ap.parse_args()

    if args.selftest:
        tests = build("perfbench_tests")
        sys.exit(subprocess.run([tests]).returncode)
    if None in (args.workload, args.seed, args.seconds, args.trace):
        ap.error("--workload, --seed, --seconds and --trace are required")
    if args.seed < 0 or not 1 <= args.seconds <= 600:
        ap.error("--seed must be >= 0 and --seconds in [1, 600]")

    exe = build("perfbench")
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    for name in names:
        run_one(exe, name, args)


if __name__ == "__main__":
    main()
