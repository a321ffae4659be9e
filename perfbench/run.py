#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload sweep|exec|serve --seed N \
        --seconds S --trace 0|1

Run from the root of a source checkout.  The script builds the `vcilk`
daemon and the benchmark executable with dune (inside the checkout's
`_build`), then runs the benchmark, whose last line of output is the JSON
result.  Every process the benchmark starts lives in its own process
group, which is killed when the run ends or overruns its time limit.
"""

import argparse
import os
import signal
import subprocess
import sys
import time

BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 175
# Fixed glibc malloc thresholds for the benchmark and the daemon it
# starts.  By default glibc raises its mmap threshold when a large mmapped
# block is freed, so whether a later large block (the cost model's cache
# arrays, for one) comes from fresh zero-filled pages or from reused heap
# memory depends on the order of earlier frees, which the seed shuffles.
# Whole exec runs settled in one of two states, ~12% apart in
# `service_ms`; with these thresholds they no longer do.
MALLOC_TUNABLES = ("glibc.malloc.mmap_threshold=33554432:"
                   "glibc.malloc.trim_threshold=4294967296")
TARGETS = ["./bin/vcilk.exe", "./perfbench/vcbench.exe"]
EXE = os.path.join("_build", "default", "perfbench", "vcbench.exe")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    for needed in ["dune-project", "bin/vcilk.ml", "lib", "BENCHMARK.json"]:
        if not os.path.exists(needed):
            print(f"perfbench: {needed} not found; run from the root of a "
                  "vectorcilk source checkout", file=sys.stderr)
            return 2

    # the dune cache lives outside the checkout: keep the build inside it
    env = dict(os.environ, DUNE_CACHE="disabled")
    try:
        build = subprocess.run(
            ["dune", "build", "--root", ".", "--display", "quiet"] + TARGETS,
            stdout=sys.stderr, stderr=sys.stderr, env=env,
            timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 2
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 2

    cmd = [EXE, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    proc = subprocess.Popen(cmd, start_new_session=True,
                            env=dict(env, GLIBC_TUNABLES=MALLOC_TUNABLES))
    try:
        code = proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: run exceeded its time limit", file=sys.stderr)
        code = 3
    finally:
        # the benchmark stops its daemon itself; this catches any leftover
        # and waits until the whole group is gone
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()
        for _ in range(500):
            try:
                os.killpg(proc.pid, 0)
            except ProcessLookupError:
                break
            time.sleep(0.01)
    return code


if __name__ == "__main__":
    sys.exit(main())
