#!/usr/bin/env python3
"""Build and run the Boreas repository benchmark.

Run from the root of a checkout:

    python3 perfbench/run.py --workload long-run --seed 2023 --seconds 20 --trace 0

Workloads are long-run, fleet and train (see perfbench/README.md).
--trace 0 prints the end-to-end metrics, --trace 1 the per-layer spans
of a traced replay. The last line of stdout is one JSON object with
the keys correct, attempted, failed and metrics; the exit code is 0
only when every output check passed.

The first call configures and builds the simulator from ../src and the
driver in perfbench/src into .bench_build/ (RelWithDebInfo); later calls
rebuild only what changed. Build output goes to stderr.

    python3 perfbench/run.py --make-model

re-trains the ML05 fixture perfbench/model/ml05.bundle that long-run and
fleet load.
"""

import argparse
import hashlib
import json
import os
import platform
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "boreas_perfbench")
MODEL = os.path.join(HERE, "model", "ml05.bundle")

# Settings the simulator or its benches read from the environment. The
# benchmark pins lanes and solver itself, so these are removed from the
# child's environment and named in the manifest.
ENV_KNOBS = ("BOREAS_THREADS", "BOREAS_THERMAL_SOLVER", "BOREAS_TRACE",
             "BOREAS_BENCH_SCALE")

BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def die(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(1)


def run_quiet(cmd, timeout):
    """Run a build step with its output on stderr."""
    try:
        done = subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr,
                              stderr=sys.stderr, timeout=timeout)
    except subprocess.TimeoutExpired:
        die("timed out: " + " ".join(cmd))
    if done.returncode != 0:
        die("failed: " + " ".join(cmd))


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        die("simulator sources (src/CMakeLists.txt) not found next to "
            "perfbench/")
    if shutil.which("cmake") is None:
        die("cmake not found")
    for var in ("CXXFLAGS", "LDFLAGS"):
        if "-fsanitize" in os.environ.get(var, ""):
            die(var + " requests a sanitizer build; refusing to measure it")
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        run_quiet(["cmake", "-S", HERE, "-B", BUILD,
                   "-DCMAKE_BUILD_TYPE=RelWithDebInfo"], BUILD_TIMEOUT_S)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    run_quiet(["cmake", "--build", BUILD, "--target", "boreas_perfbench",
               "-j", jobs], BUILD_TIMEOUT_S)


def describe():
    """git describe when the checkout is a repository, else a digest of
    the sources the benchmark builds."""
    if os.path.isdir(os.path.join(ROOT, ".git")) and shutil.which("git"):
        done = subprocess.run(["git", "describe", "--always", "--dirty"],
                              cwd=ROOT, capture_output=True, text=True)
        if done.returncode == 0 and done.stdout.strip():
            return done.stdout.strip()
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for base, dirs, files in sorted(os.walk(os.path.join(ROOT, top))):
            dirs.sort()
            for name in sorted(files):
                path = os.path.join(base, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return "no-git src+perfbench sha256:" + digest.hexdigest()[:16]


def child_env():
    env = dict(os.environ)
    overridden = [k for k in ENV_KNOBS if k in env]
    for k in overridden:
        del env[k]
    return env, overridden


def launcher():
    """Disable address-space randomisation for the measured process
    when setarch allows it: the 64x64 grids are power-of-two arrays,
    and their cache-set aliasing otherwise changes from run to run."""
    setarch = shutil.which("setarch")
    if setarch is None:
        return []
    cmd = [setarch, platform.machine(), "-R"]
    probe = subprocess.run(cmd + ["true"], capture_output=True)
    return cmd if probe.returncode == 0 else []


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=("long-run", "fleet",
                                               "train"))
    parser.add_argument("--seed", type=int, default=2023)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--make-model", action="store_true",
                        help="re-train the ML05 fixture and exit")
    args = parser.parse_args()
    if not args.make_model and args.workload is None:
        parser.error("--workload is required")
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    build()
    env, overridden = child_env()
    if args.make_model:
        sys.exit(subprocess.run([BINARY, "--make-model", MODEL], cwd=ROOT,
                                env=env).returncode)

    cmd = launcher() + [
        BINARY, "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", repr(args.seconds), "--trace", str(args.trace),
        "--model", MODEL, "--describe", describe(),
        "--env-overridden", ",".join(overridden) or "none"]
    try:
        done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        die("benchmark exceeded %d s" % RUN_TIMEOUT_S)
    lines = done.stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
        well_formed = set(result) == RESULT_KEYS
    except ValueError:
        well_formed = False
    if not well_formed:
        sys.stdout.write("\n".join(lines[:-1]) + "\n")
        die("benchmark printed no result line")
    sys.stdout.write(done.stdout)
    sys.exit(done.returncode)


if __name__ == "__main__":
    main()
