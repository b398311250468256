#!/usr/bin/env python3
"""Self-test of the rrperf benchmark at a tiny size.

    python3 perfbench/selftest.py

Run from the repository root. For every workload it checks that an
untraced and a traced run succeed and print exactly the metrics that
BENCHMARK.json names, each with its unit; then that a corrupted digest
and an injected failed operation are both counted and make the run
exit non-zero. Exits 0 when every check passes, 1 otherwise.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SEED = 1
SECONDS = 0.5


def run(workload, trace, *extra):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(SEED), "--seconds", str(SECONDS),
           "--trace", str(trace), "--tiny", *extra]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=600)
    lines = done.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    return done.returncode, result, done.stdout + done.stderr


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        bench = json.load(handle)
    expected = {
        0: {m["name"]: m["unit"] for m in bench["end_to_end"]},
        1: {m["name"]: m["unit"] for m in bench["per_layer"]},
    }
    problems = []

    def expect(ok, what):
        print(("ok    " if ok else "FAIL  ") + what)
        if not ok:
            problems.append(what)

    for workload in (w["name"] for w in bench["workloads"]):
        for trace in (0, 1):
            code, result, output = run(workload, trace)
            label = "%s --trace %d" % (workload, trace)
            if result is None:
                expect(False, label + ": no result line\n" + output)
                continue
            expect(code == 0 and result["correct"] and result["failed"] == 0
                   and result["attempted"] >= 1,
                   label + ": runs correct (exit %d, %d failed)"
                   % (code, result["failed"]))
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            expect(got == expected[trace],
                   label + ": every named metric with its unit")
            expect(all(isinstance(v["value"], (int, float))
                       for v in result["metrics"].values()),
                   label + ": numeric values")

        for inject in ("digest", "failure"):
            code, result, _ = run(workload, 0, "--inject", inject)
            expect(code != 0 and result is not None
                   and not result["correct"] and result["failed"] >= 1,
                   "%s --inject %s: counted and exit non-zero (exit %d)"
                   % (workload, inject, code))

    print("selftest: %s" % ("PASS" if not problems else
                            "FAIL (%d)" % len(problems)))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
