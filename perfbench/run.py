#!/usr/bin/env python3
"""Repository benchmark: builds the harness in perfbench/ and runs one workload.

  python3 perfbench/run.py --workload paper-200 --seed 1 --seconds 10 --trace 0
  python3 perfbench/run.py --selftest

The harness (perfbench.cc) is built against libfastiov compiled from ../src
into $CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench). The last
line of stdout is the result object {"correct", "attempted", "failed",
"metrics"}; the line before it is the full report. The exit code is 0 only
when every correctness check passed. See perfbench/README.md.
"""
import argparse
import hashlib
import json
import math
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
HERE = os.path.join(ROOT, "perfbench")
WORKLOADS = ["paper-200", "host-5000", "fleet-352x200", "cluster-16x5000"]
# Wall-clock cap on one harness process: a livelock becomes a failed run.
RUN_CAP_S = 160


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build_dir():
    return os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"), "perfbench")


def build():
    """Configures (once) and builds the harness; returns the binary path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log("perfbench: no libfastiov sources (src/CMakeLists.txt) next to perfbench/")
        sys.exit(2)
    bdir = build_dir()
    steps = []
    if not os.path.isfile(os.path.join(bdir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", bdir])
    steps.append(["cmake", "--build", bdir, "-j", str(min(4, os.cpu_count() or 1))])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            log("perfbench: build failed: " + " ".join(cmd))
            sys.exit(2)
    return os.path.join(bdir, "perfbench")


def revision():
    """The git commit when known, else a content hash of the library sources."""
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            return subprocess.run(["git", "-C", ROOT, "rev-parse", "--short=12", "HEAD"],
                                  capture_output=True, text=True, check=True).stdout.strip()
        except (OSError, subprocess.CalledProcessError):
            pass
    h = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, "src")):
        dirnames.sort()
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            h.update(os.path.relpath(path, ROOT).encode())
            with open(path, "rb") as f:
                h.update(f.read())
    return "src-sha256:" + h.hexdigest()[:16]


def load_pinned():
    with open(os.path.join(HERE, "pinned.json")) as f:
        return json.load(f)


def run_harness(binary, workload, seed, seconds, trace, small=False, expect="", extra=()):
    """Runs one harness process. Returns (exit code, stdout lines)."""
    cmd = [binary, "--workload=" + workload, "--seed=%d" % seed, "--seconds=%d" % seconds,
           "--trace=%d" % trace, "--revision=" + revision()]
    if small:
        cmd.append("--small")
    if expect:
        cmd.append("--expect-digest=" + expect)
    if trace:
        tag = "%s-%d%s" % (workload, seed, "-small" if small else "")
        cmd.append("--spans-out=" + os.path.join(build_dir(), "spans-" + tag + ".json"))
    cmd.extend(extra)
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=RUN_CAP_S)
    except subprocess.TimeoutExpired as e:
        out = e.stdout.decode() if isinstance(e.stdout, bytes) else (e.stdout or "")
        launches = 1
        for line in out.splitlines():
            if line.startswith('{"plan"'):
                launches = max(1, json.loads(line)["plan"]["launches_per_pass"])
        log("perfbench: %s exceeded the %d s cap; counted as failed" % (workload, RUN_CAP_S))
        failed = {"correct": False, "attempted": launches, "failed": launches, "metrics": {}}
        return 1, out.splitlines() + [json.dumps(failed)]
    return proc.returncode, proc.stdout.splitlines()


def benchmark(args):
    binary = build()
    pinned = load_pinned()
    seed = pinned["default_seed"] if args.seed is None else args.seed
    expect = ""
    if seed == pinned["default_seed"]:
        expect = pinned["digests"]["small" if args.small else "full"][args.workload]
    extra = []
    if args.allow_unoptimized:
        extra.append("--allow-unoptimized")
    code, lines = run_harness(binary, args.workload, seed, args.seconds, args.trace,
                              args.small, expect, extra)
    for line in lines:
        print(line)
    return code


def finite_metrics(result, spec):
    """Errors for metrics missing, mis-united, non-finite, or extra."""
    errors = []
    metrics = result.get("metrics", {})
    for m in spec:
        got = metrics.get(m["name"])
        if got is None:
            errors.append("missing " + m["name"])
        elif got.get("unit") != m["unit"]:
            errors.append("%s unit %r != %r" % (m["name"], got.get("unit"), m["unit"]))
        elif not isinstance(got.get("value"), (int, float)) or not math.isfinite(got["value"]):
            errors.append("%s value %r is not finite" % (m["name"], got.get("value")))
    extra = set(metrics) - {m["name"] for m in spec}
    if extra:
        errors.append("unexpected metrics " + ", ".join(sorted(extra)))
    return errors


def selftest(args):
    """Scaled-down run of every workload: every metric is emitted with its
    unit and a finite value, the pinned digests hold, and a wrong pinned
    digest makes the gate fail."""
    binary = build()
    pinned = load_pinned()
    seed = pinned["default_seed"]
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    errors = []
    for workload in WORKLOADS:
        digest = pinned["digests"]["small"][workload]
        for trace, metric_spec in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            code, lines = run_harness(binary, workload, seed, 1, trace, True, digest)
            result = json.loads(lines[-1]) if lines else {}
            problems = finite_metrics(result, metric_spec)
            if code != 0 or not result.get("correct"):
                problems.append("exit %d, correct=%s" % (code, result.get("correct")))
            if trace == 0:
                problems += ["%s is %r, not > 0" % (n, m["value"])
                             for n, m in result.get("metrics", {}).items()
                             if not m.get("value", 0) > 0]
            errors += ["%s trace=%d: %s" % (workload, trace, p) for p in problems]
            log("selftest %-16s trace=%d %s" % (workload, trace, "ok" if not problems else "FAIL"))
        code, lines = run_harness(binary, workload, seed, 1, 0, True, "0" * 16)
        result = json.loads(lines[-1]) if lines else {}
        caught = code != 0 and result.get("correct") is False and result.get("failed", 0) > 0
        if not caught:
            errors.append("%s: a wrong pinned digest did not fail the run" % workload)
        log("selftest %-16s wrong digest %s" % (workload, "rejected" if caught else "ACCEPTED"))
    for e in errors:
        log("selftest: " + e)
    print(json.dumps({"selftest": "pass" if not errors else "fail", "errors": errors}))
    return 0 if not errors else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=None,
                        help="workload seed (default: the pinned default seed)")
    parser.add_argument("--seconds", type=int, default=10, help="timed-part budget")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1 = traced per-layer run")
    parser.add_argument("--small", action="store_true", help="scaled-down inputs")
    parser.add_argument("--allow-unoptimized", action="store_true")
    parser.add_argument("--selftest", action="store_true",
                        help="run every workload scaled down and check the harness itself")
    args = parser.parse_args()
    if args.selftest:
        return selftest(args)
    if args.workload is None:
        parser.error("--workload is required")
    return benchmark(args)


if __name__ == "__main__":
    sys.exit(main())
