#!/usr/bin/env python3
"""Build the benchmark from source and run one workload.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --selftest

Run from the repository root.  The program (bin/isecustom.exe) and the
benchmark (perfbench/main.exe) are built with dune into _build/, then
main.exe runs the workload; its last stdout line is the result object.
Nothing is printed to stdout unless the run completes.

--selftest runs each workload at minimum length and checks that every
answer passes, that every metric BENCHMARK.json names is reported with
its unit, and that a deliberately corrupted reference is counted as a
failure.
"""

import argparse
import json
import os
import subprocess
import sys

BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 175
MAIN = os.path.join("_build", "default", "perfbench", "main.exe")


def log(msg):
    print("perfbench: " + msg, file=sys.stderr, flush=True)


def scratch_env():
    """The environment for the build and the run: temporary files (the
    compiler's, the program's) stay inside the checkout."""
    tmp = os.path.abspath(os.path.join("_perfbench", "tmp"))
    os.makedirs(tmp, exist_ok=True)
    return dict(os.environ, TMPDIR=tmp)


def build():
    try:
        proc = subprocess.run(
            ["dune", "build", "--root", ".", "--cache=disabled",
             "./perfbench/main.exe", "./bin/isecustom.exe"],
            stdout=sys.stderr, stderr=sys.stderr, env=scratch_env(), timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as err:
        log("build failed: %s" % err)
        return False
    if proc.returncode != 0:
        log("build failed with exit code %d" % proc.returncode)
        return False
    return True


def run_main(args):
    """Run main.exe; returns (exit code, stdout lines)."""
    cmd = [MAIN] + args
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                              env=scratch_env(), timeout=RUN_TIMEOUT_S, text=True)
    except subprocess.TimeoutExpired:
        log("%s timed out after %d s" % (" ".join(args), RUN_TIMEOUT_S))
        return 1, []
    except OSError as err:
        log("cannot run %s: %s" % (MAIN, err))
        return 1, []
    return proc.returncode, proc.stdout.splitlines()


def result_of(lines):
    if not lines:
        return None
    try:
        result = json.loads(lines[-1])
    except ValueError:
        return None
    if not isinstance(result, dict) or set(result) != {"correct", "attempted", "failed", "metrics"}:
        return None
    return result


def selftest():
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    problems = []

    def expect(ok, what):
        if not ok:
            problems.append(what)
            log("selftest: " + what)

    for workload in [w["name"] for w in spec["workloads"]]:
        for trace, metrics in (("0", spec["end_to_end"]), ("1", spec["per_layer"])):
            code, lines = run_main(["--workload", workload, "--seed", "1", "--seconds", "1",
                                    "--trace", trace])
            result = result_of(lines)
            tag = "%s trace %s" % (workload, trace)
            expect(code == 0 and result is not None, tag + ": no result")
            if result is None:
                continue
            expect(result["correct"] and result["failed"] == 0 and result["attempted"] >= 1,
                   tag + ": %d of %d failed" % (result["failed"], result["attempted"]))
            for m in metrics:
                got = result["metrics"].get(m["name"])
                expect(got is not None and got.get("unit") == m["unit"]
                       and isinstance(got.get("value"), (int, float)),
                       tag + ": metric %s missing or not in %s" % (m["name"], m["unit"]))
            expect(set(result["metrics"]) == {m["name"] for m in metrics},
                   tag + ": unexpected metrics reported")
        code, lines = run_main(["--workload", workload, "--seed", "1", "--seconds", "1",
                                "--trace", "0", "--corrupt-reference"])
        result = result_of(lines)
        expect(result is not None and result["failed"] >= 1 and not result["correct"],
               workload + ": a corrupted reference was not counted as a failure")
        log("selftest: %s done" % workload)
    if problems:
        log("selftest FAILED (%d problems)" % len(problems))
        return 1
    log("selftest passed")
    return 0


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", choices=["0", "1"], default="0")
    parser.add_argument("--selftest", action="store_true")
    opts = parser.parse_args()
    if not build():
        return 1
    if opts.selftest:
        return selftest()
    if not opts.workload:
        parser.error("--workload is required")
    code, lines = run_main(["--workload", opts.workload, "--seed", str(opts.seed),
                            "--seconds", str(opts.seconds), "--trace", opts.trace])
    if code != 0 or result_of(lines) is None:
        log("run failed (exit code %d)" % code)
        return code or 1
    for line in lines:
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
