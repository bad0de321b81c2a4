#!/usr/bin/env python3
"""Build and run the repository benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  The first call configures and
builds the benchmark and the YHCCL libraries under $CARGO_TARGET_DIR (or
.bench_build) with build output on stderr; later calls rebuild
incrementally.  The benchmark's report goes to stdout and ends with one
JSON line.  The exit code is the benchmark's: non-zero when the build
fails, an output check fails or the run times out.
"""
import argparse
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("allreduce-small", "allreduce-large", "step-process")
# Guards against a hung run: a measurement takes --seconds plus set-up,
# and a run must end within 180 s when the build is already done.
RUN_TIMEOUT_S = 160


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build")
    return os.path.join(os.path.abspath(base), "perfbench")


def build():
    """Configures once, builds incrementally; returns the build directory."""
    bdir = build_dir()
    if not os.path.exists(os.path.join(bdir, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", HERE, "-B", bdir, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
            stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", bdir, "-j", str(os.cpu_count() or 1)],
                   stdout=sys.stderr, check=True)
    return bdir


def run(cmd, timeout):
    """Runs cmd in its own process group; kills the whole group on timeout."""
    proc = subprocess.Popen(cmd, start_new_session=True)
    try:
        return proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        print(f"perfbench: timed out after {timeout:.0f} s", file=sys.stderr)
        return 1


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--trace", default=0, type=int, choices=(0, 1))
    a = p.parse_args(argv)
    if a.seed < 0 or not 0 < a.seconds <= 120:
        p.error("--seed must be >= 0 and --seconds in (0, 120]")

    try:
        bdir = build()
    except (OSError, subprocess.CalledProcessError) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 1
    return run([os.path.join(bdir, "perfbench"), "--workload", a.workload,
                "--seed", str(a.seed), "--seconds", f"{a.seconds:g}",
                "--trace", str(a.trace)],
               RUN_TIMEOUT_S)


if __name__ == "__main__":
    sys.exit(main())
