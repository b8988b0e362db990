#!/usr/bin/env python3
"""Build and run the csbsim benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --self-check

Run from the root of a checkout.  The first run configures and builds
perfbench/CMakeLists.txt (the simulator libraries from src/ plus the
csbbench program, optimised, no sanitizer) into .bench_build/, or into
$CARGO_TARGET_DIR when that is set; later runs rebuild incrementally.
Build output goes to stderr.

The run prints csbbench's report, a line of source metadata, and as its
last line one JSON object: {"correct", "attempted", "failed",
"metrics"}.  That line is checked against BENCHMARK.json before it is
printed -- every metric the mode declares, with its unit, nothing else,
finite, and never 0 for an end-to-end metric -- and the run exits 1
without printing it when the check fails.  A copy of the result with
all metadata is written to <build dir>/results/.

--self-check checks BENCHMARK.json against the metrics csbbench emits
(names, units and directions), runs every workload briefly in both
modes, and checks that two traced runs give identical exact counts.
"""

import argparse
import fcntl
import hashlib
import json
import math
import os
import platform
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

#: Seed used while tuning, and a seed held out from tuning: a claimed
#: gain must hold on both (see perfbench/README.md).
DEFAULT_SEED = 1
HELD_OUT_SEED = 7919

#: --seconds accepted.  A run lasts about 1.15x --seconds plus set-up,
#: and must end within 180 s, so 120 is the useful limit.
MAX_SECONDS = 120


def run_timeout(seconds):
    """Wall-clock limit for one csbbench run of --seconds @seconds."""
    return seconds + 60


def fail(msg, code=2):
    print("run.py: " + msg, file=sys.stderr)
    sys.exit(code)


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return os.path.join(ROOT, target, "perfbench")


def build():
    """Configure (once) and build csbbench; return its path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("simulator sources (src/) not found next to perfbench/")
    out = build_dir()
    os.makedirs(out, exist_ok=True)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    with open(os.path.join(out, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
            steps.append(["cmake", "-S", HERE, "-B", out,
                          "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", out, "-j", jobs])
        for cmd in steps:
            r = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
            if r.returncode != 0:
                fail("build failed: " + " ".join(cmd), 1)
    return os.path.join(out, "csbbench")


def source_meta():
    """Commit, dirty flag and a content hash of the sources."""
    meta = {"commit": "unknown", "dirty": None}
    if os.path.isdir(os.path.join(ROOT, ".git")):
        def git(*args):
            return subprocess.run(["git", "-C", ROOT] + list(args),
                                  capture_output=True, text=True).stdout
        meta["commit"] = git("rev-parse", "HEAD").strip() or "unknown"
        meta["dirty"] = bool(git("status", "--porcelain", "--",
                                 "src", "perfbench").strip())
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for base, dirs, files in sorted(os.walk(os.path.join(ROOT, top))):
            dirs.sort()
            for name in sorted(files):
                path = os.path.join(base, name)
                h.update(os.path.relpath(path, ROOT).encode() + b"\0")
                with open(path, "rb") as f:
                    h.update(f.read())
    meta["source_sha256"] = h.hexdigest()
    meta["host"] = platform.node()
    meta["nproc"] = os.cpu_count()
    return meta


def load_spec():
    path = os.path.join(ROOT, "BENCHMARK.json")
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        fail("cannot read BENCHMARK.json: %s" % e)


def check_result(result, spec, trace):
    """Problems with a result line, as a list of strings."""
    problems = []
    if not isinstance(result, dict) or set(result) != {
            "correct", "attempted", "failed", "metrics"}:
        return ["result keys are not correct/attempted/failed/metrics"]
    declared = spec["per_layer" if trace else "end_to_end"]
    want = {m["name"]: m["unit"] for m in declared}
    got = result["metrics"]
    if set(got) != set(want):
        missing = sorted(set(want) - set(got))
        extra = sorted(set(got) - set(want))
        problems.append("metrics differ from BENCHMARK.json: missing %s, "
                        "undeclared %s" % (missing, extra))
    for name, m in got.items():
        if name in want and m.get("unit") != want[name]:
            problems.append("%s unit %r, BENCHMARK.json says %r"
                            % (name, m.get("unit"), want[name]))
        v = m.get("value")
        if not isinstance(v, (int, float)) or not math.isfinite(v):
            problems.append("%s is not a finite number" % name)
        elif not trace and v == 0:
            problems.append("end-to-end metric %s is 0" % name)
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        problems.append("attempted must be a whole number >= 1")
    return problems


def run_bench(binary, workload, seed, seconds, trace):
    """Run csbbench; return (stdout lines, parsed result or None)."""
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    timeout = run_timeout(seconds)
    try:
        r = subprocess.run(cmd, capture_output=True, text=True,
                           timeout=timeout, cwd=ROOT)
    except subprocess.TimeoutExpired:
        fail("csbbench timed out after %d s" % timeout, 1)
    sys.stderr.write(r.stderr)
    lines = r.stdout.splitlines()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except ValueError:
            result = None
    if r.returncode not in (0, 1) or result is None:
        print("\n".join(lines))
        fail("csbbench exited %d without a result" % r.returncode, 1)
    return lines[:-1], result


def measure(args):
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names:
        fail("unknown workload %r (BENCHMARK.json has %s)"
             % (args.workload, ", ".join(names)))
    binary = build()
    meta = source_meta()
    meta.update(workload=args.workload, seed=args.seed,
                seconds=args.seconds, trace=args.trace)
    lines, result = run_bench(binary, args.workload, args.seed,
                              args.seconds, args.trace)
    for line in lines:
        print(line)
    print("meta-source " + json.dumps(meta, sort_keys=True))
    problems = check_result(result, spec, args.trace)
    record = {"meta": meta, "report": lines, "result": result,
              "problems": problems}
    results = os.path.join(os.path.dirname(binary), "results")
    os.makedirs(results, exist_ok=True)
    name = "%s-seed%d-trace%d-%d.json" % (args.workload, args.seed,
                                          args.trace, int(time.time()))
    with open(os.path.join(results, name), "w") as f:
        json.dump(record, f, indent=1, sort_keys=True)
    if problems:
        for p in problems:
            print("run.py: " + p, file=sys.stderr)
        sys.exit(1)
    print(json.dumps(result))
    sys.exit(0 if result["correct"] else 1)


def self_check():
    spec = load_spec()
    binary = build()
    listed = json.loads(subprocess.run(
        [binary, "--list-metrics"], capture_output=True, text=True,
        check=True).stdout)
    problems = []
    if [w["name"] for w in spec["workloads"]] != listed["workloads"]:
        problems.append("workloads differ: BENCHMARK.json %s, csbbench %s"
                        % ([w["name"] for w in spec["workloads"]],
                           listed["workloads"]))
    for kind in ("end_to_end", "per_layer"):
        want = [(m["name"], m["unit"], m["better"]) for m in spec[kind]]
        got = [(m["name"], m["unit"], m["better"]) for m in listed[kind]]
        if want != got:
            problems.append("%s differs: only in BENCHMARK.json %s, only in "
                            "csbbench %s" % (kind, sorted(set(want) - set(got)),
                                             sorted(set(got) - set(want))))
    exact = [m["name"] for m in listed["per_layer"] if m["exact"]]
    for workload in listed["workloads"]:
        _, e2e = run_bench(binary, workload, DEFAULT_SEED, 1, 0)
        problems += ["%s trace 0: %s" % (workload, p)
                     for p in check_result(e2e, spec, 0)]
        counts = []
        for _ in range(2):
            _, traced = run_bench(binary, workload, DEFAULT_SEED, 1, 1)
            problems += ["%s trace 1: %s" % (workload, p)
                         for p in check_result(traced, spec, 1)]
            if not (e2e["correct"] and traced["correct"]):
                problems.append("%s: a run reported correct=false" % workload)
            counts.append({k: traced["metrics"][k]["value"] for k in exact
                           if k in traced["metrics"]})
        if counts[0] != counts[1]:
            diff = sorted(k for k in counts[0] if counts[0][k] != counts[1][k])
            problems.append("%s: exact counts differ between two traced "
                            "runs: %s" % (workload, diff))
        print("self-check: %s done" % workload, flush=True)
    for p in problems:
        print("self-check: " + p)
    print("self-check: %s" % ("FAILED" if problems else "ok"))
    sys.exit(1 if problems else 0)


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int)
    ap.add_argument("--seconds", type=int)
    ap.add_argument("--trace", type=int, choices=(0, 1))
    ap.add_argument("--self-check", action="store_true")
    args = ap.parse_args()
    if args.self_check:
        self_check()
    if None in (args.workload, args.seed, args.seconds, args.trace):
        ap.error("--workload, --seed, --seconds and --trace are required")
    if args.seed < 0 or not 1 <= args.seconds <= MAX_SECONDS:
        ap.error("--seed must be >= 0 and --seconds in 1..%d" % MAX_SECONDS)
    measure(args)


if __name__ == "__main__":
    main()
