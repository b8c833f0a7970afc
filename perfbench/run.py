#!/usr/bin/env python3
"""Builds and runs the repository benchmark.

    python3 perfbench/run.py --workload new_shapes|olap_scan \
        --seed N --seconds S --trace 0|1

Run from the repository root. The library is built from src/ together
with the benchmark binary lb2bench (perfbench/CMakeLists.txt) into
.bench_build/perfbench; generated JIT artifacts, run summaries and Chrome
traces go under .bench_build as well. The last line of standard output is
the result JSON printed by lb2bench; build output goes to standard error.
"""
import argparse
import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
WORKLOADS = ("new_shapes", "olap_scan")
# A run must end within 180 s; leave room for the build check and exit.
RUN_TIMEOUT_S = 170


def build():
    """Configures once, then lets the build tool decide what is stale."""
    if not os.path.exists(os.path.join(BUILD, "Makefile")):
        cfg = ["cmake", "-S", HERE, "-B", BUILD,
               "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if subprocess.run(cfg, stdout=sys.stderr).returncode != 0:
            return False
    cmd = ["cmake", "--build", BUILD, "--target", "lb2bench", "-j", "4"]
    return subprocess.run(cmd, stdout=sys.stderr).returncode == 0


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=int)
    p.add_argument("--trace", required=True, type=int, choices=(0, 1))
    a = p.parse_args()

    if not build():
        print("perfbench: build failed", file=sys.stderr)
        return 1

    out = os.path.join(ROOT, ".bench_build", "out")
    jit = os.path.join(BUILD, "jit")
    shutil.rmtree(jit, ignore_errors=True)
    os.makedirs(jit)
    os.makedirs(out, exist_ok=True)
    # The service reads its settings from LB2_* variables; drop any the
    # caller has set so every run uses the code's defaults.
    env = {k: v for k, v in os.environ.items() if not k.startswith("LB2_")}
    env["LB2_JIT_DIR"] = jit
    cmd = [os.path.join(BUILD, "lb2bench"), "--workload", a.workload,
           "--seed", str(a.seed), "--seconds", str(a.seconds),
           "--trace", str(a.trace), "--out", out]
    sys.stdout.flush()
    # Own process group, so a timeout also stops lb2bench's children
    # (oracle workers, the hardware-stamp child).
    proc = subprocess.Popen(cmd, env=env, cwd=ROOT, start_new_session=True)
    try:
        rc = proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        rc = 1
    shutil.rmtree(jit, ignore_errors=True)
    return rc


if __name__ == "__main__":
    sys.exit(main())
