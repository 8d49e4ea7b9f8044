#!/usr/bin/env python3
"""Build the wall-clock benchmark from source, then make one run of it.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Workloads: launch_init, comm_churn, p2p_stream, and the two lost-message
reproducers comm_skew and comm_race described in perfbench/README.md.
The build goes to $CARGO_TARGET_DIR, or .bench_build when it is unset;
traced runs write their spans under <target dir>/perfbench-traces. The
last line of standard output is the run's result as one JSON object. The
exit code is the benchmark's; a failed build exits non-zero without a
result.
"""

import os
import platform
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
# A run's own watchdog stops it well before this; the margin covers start-up.
RUN_TIMEOUT_S = 175


def build(target_dir):
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", os.path.join(HERE, "Cargo.toml")]
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir)
    return subprocess.run(cmd, env=env, stdout=sys.stderr).returncode


def no_aslr_prefix():
    """`setarch <arch> -R`, when it works here: with address-space
    randomization on, hot data lands in different cache sets from run to
    run, which made run-to-run timings bimodal."""
    setarch = shutil.which("setarch")
    if setarch is None:
        return []
    prefix = [setarch, platform.machine(), "-R"]
    probe = subprocess.run(prefix + ["true"], stdout=subprocess.DEVNULL,
                           stderr=subprocess.DEVNULL)
    return prefix if probe.returncode == 0 else []


def main():
    target_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    status = build(target_dir)
    if status != 0:
        print(f"perfbench: build failed (exit {status})", file=sys.stderr)
        return status
    args = sys.argv[1:]
    if "--trace-out" not in args:
        args += ["--trace-out", os.path.join(target_dir, "perfbench-traces")]
    binary = os.path.join(target_dir, "release", "perfbench")
    # The library reads INIT_MODE as its default init mode; the benchmark
    # sets the mode of every session itself.
    env = {k: v for k, v in os.environ.items() if k != "INIT_MODE"}
    run = subprocess.run(no_aslr_prefix() + [binary] + args, env=env,
                         timeout=RUN_TIMEOUT_S)
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
