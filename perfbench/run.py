#!/usr/bin/env python3
"""Build and run the repo benchmark.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --self-test

Builds perfbench/ (and the library sources under src/ it links) with CMake
into $CARGO_TARGET_DIR, or .bench_build when that is unset, then runs one
workload in its own process and passes its output through. The last line
of standard output is the JSON result. Exits non-zero, without a result,
when the sources are missing or the build or the run fails.
"""

import argparse
import hashlib
import os
import shutil
import subprocess
import sys

WORKLOADS = ("sim_wire", "cluster_durable", "udp_loopback")
BUILD_TYPE = "Release"
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def source_digest(root):
    """sha256 over the library and benchmark sources (the checkout is not
    always a git repository, so this identifies the code that ran)."""
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        base = os.path.join(root, top)
        for dirpath, dirnames, filenames in os.walk(base):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, root).encode())
                with open(path, "rb") as handle:
                    digest.update(handle.read())
    return digest.hexdigest()


def git_sha(root):
    if not os.path.isdir(os.path.join(root, ".git")) or not shutil.which("git"):
        return "unknown (not a git checkout)"
    try:
        out = subprocess.run(["git", "-C", root, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() or "unknown"


def build(root, build_root):
    source = os.path.join(root, "perfbench")
    if not os.path.isfile(os.path.join(root, "src", "runtime", "peer_runtime.hpp")):
        fail("library sources (src/) not found next to perfbench/")
    build_dir = os.path.join(build_root, "perfbench-" + BUILD_TYPE.lower())
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", source, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=" + BUILD_TYPE])
    steps.append(["cmake", "--build", build_dir, "-j", jobs])
    for step in steps:
        result = subprocess.run(step, stdout=subprocess.PIPE,
                                stderr=subprocess.STDOUT, text=True)
        if result.returncode != 0:
            sys.stderr.write(result.stdout[-4000:])
            fail("build failed: " + " ".join(step))
    binary = os.path.join(build_dir, "perfbench")
    if not os.path.isfile(binary):
        fail("build produced no perfbench binary")
    return binary


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if not args.self_test and args.workload is None:
        parser.error("--workload is required")

    root = os.getcwd()
    build_root = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or
                                 os.path.join(root, ".bench_build"))
    binary = build(root, build_root)
    work_dir = os.path.join(build_root, "run")
    os.makedirs(work_dir, exist_ok=True)

    env = dict(os.environ)
    env["PERFBENCH_GIT_SHA"] = git_sha(root)
    env["PERFBENCH_SOURCE_SHA256"] = source_digest(root)
    command = [binary, "--work-dir", work_dir]
    if args.self_test:
        command.append("--self-test")
    else:
        command += ["--workload", args.workload, "--seed", str(args.seed),
                    "--seconds", str(args.seconds), "--trace", str(args.trace)]
    try:
        result = subprocess.run(command, env=env, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"run exceeded {RUN_TIMEOUT_S} s")
    sys.exit(result.returncode)


if __name__ == "__main__":
    main()
