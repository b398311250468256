#!/usr/bin/env python3
"""Build and run the rrperf benchmark from a source checkout.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of the repository. The first run configures and
builds perfbench/ (the simulator libraries from src/ plus the rrperf
program) into $CARGO_TARGET_DIR, or .bench_build when that is unset;
later runs only bring the build up to date. The last line of standard
output is the result JSON; build output goes to standard error.
Traced runs (--trace 1) write their spans under <build dir>/spans/.

Exit codes: rrperf's own (0 correct, 1 an output check failed), 2 when
the checkout or the build is unusable, 64 for usage errors.
"""

import argparse
import hashlib
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("cache_sweep", "sync_scale", "rrisc_mix", "serve_mixed")
# One run must end within 180 s; leave room for the build check.
RUN_TIMEOUT_S = 170


def fail(message, code=2):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(code)


def build_dir():
    path = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(ROOT, path)


def source_id():
    """The git commit when there is one, else a digest of the sources."""
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        if out.returncode == 0 and out.stdout.strip():
            return out.stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    digest = hashlib.sha1()
    for top in ("src", "examples", "perfbench"):
        for base, dirs, files in sorted(os.walk(os.path.join(ROOT, top))):
            dirs.sort()
            for name in sorted(files):
                path = os.path.join(base, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as handle:
                    digest.update(handle.read())
    return "tree-sha1:" + digest.hexdigest()


def build():
    """Configure (first time) and build rrperf; return its path."""
    for needed in ("src/CMakeLists.txt", "examples/os"):
        if not os.path.exists(os.path.join(ROOT, needed)):
            fail("no %s under %s: run from a full source checkout"
                 % (needed, ROOT))
    out = build_dir()
    jobs = str(max(1, os.cpu_count() or 1))
    steps = []
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "--target", "rrperf",
                  "-j", jobs])
    for step in steps:
        try:
            done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr)
        except OSError as error:
            fail("cannot run %s: %s" % (step[0], error))
        if done.returncode != 0:
            fail("build step failed: " + " ".join(step))
    binary = os.path.join(out, "rrperf")
    if not os.access(binary, os.X_OK):
        fail("build produced no rrperf binary")
    return binary


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    parser.add_argument("--tiny", action="store_true",
                        help="self-test size")
    parser.add_argument("--inject", choices=("digest", "failure"),
                        help="self-test: corrupt a digest or fail an op")
    try:
        args = parser.parse_args(argv)
    except SystemExit as stop:
        sys.exit(64 if stop.code else 0)
    if args.seed < 0 or not args.seconds > 0:
        fail("--seed must be >= 0 and --seconds > 0", 64)
    return args


def command(binary, args):
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--golden", os.path.join(HERE, "golden.txt"),
           "--commit", source_id()]
    if args.trace == 1:
        spans = os.path.join(build_dir(), "spans")
        os.makedirs(spans, exist_ok=True)
        cmd += ["--span-dir", spans]
    if args.tiny:
        cmd.append("--tiny")
    if args.inject:
        cmd += ["--inject", args.inject]
    return cmd


def main(argv):
    args = parse_args(argv)
    binary = build()
    sys.stdout.flush()
    try:
        done = subprocess.run(command(binary, args), timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("rrperf exceeded %d s" % RUN_TIMEOUT_S)
    return done.returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
