#!/usr/bin/env python3
"""Builds and runs the repository benchmark (see README.md).

    python3 perfbench/run.py --workload sync-train --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --test        # the benchmark's own unit tests

The program is built from the checkout's sources into .bench_build/ with the
repository's own CMake project (the benchmark joins it through hook.cmake),
so it needs nothing but the checkout and the C++ toolchain. Build output goes
to stderr; the benchmark's last stdout line is its JSON result.
"""

import argparse
import hashlib
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build"


def build(target):
    """Configures and builds `target`; exits 1 on failure."""
    # Configure every time: CMake does not notice edits to the deferred
    # include on its own.
    jobs = str(min(4, os.cpu_count() or 1))
    steps = [["cmake", "-S", str(ROOT), "-B", str(BUILD), "-DCMAKE_BUILD_TYPE=Release",
              "-DCMAKE_PROJECT_adaptivefl_INCLUDE=" + str(HERE / "hook.cmake")],
             ["cmake", "--build", str(BUILD), "--target", target, "-j", jobs]]
    for cmd in steps:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                              text=True)
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout)
            sys.stderr.write("perfbench: build step failed: %s\n" % " ".join(cmd))
            sys.exit(1)
    return BUILD / target


def commit_id():
    """Short git commit with a -dirty suffix, or "none" when the checkout is
    not the top of a git tree (or git is missing)."""
    def git(*args):
        proc = subprocess.run(["git", "-C", str(ROOT)] + list(args),
                              stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                              text=True)
        return proc.stdout.strip() if proc.returncode == 0 else None
    try:
        top = git("rev-parse", "--show-toplevel")
        if top is None or Path(top).resolve() != ROOT:
            return "none"
        head = git("rev-parse", "--short", "HEAD")
        if head is None:
            return "none"
        dirty = git("status", "--porcelain", "--untracked-files=no")
        return head + ("-dirty" if dirty else "")
    except OSError:
        return "none"


def source_digest():
    """SHA-256 over the paths and bytes of the sources the benchmark builds."""
    digest = hashlib.sha256()
    files = [ROOT / "CMakeLists.txt"]
    for top in ("src", "perfbench"):
        files += sorted(p for p in (ROOT / top).rglob("*") if p.is_file())
    for path in files:
        if path.is_file():
            digest.update(str(path.relative_to(ROOT)).encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed")
    parser.add_argument("--seconds")
    parser.add_argument("--trace", choices=["0", "1"])
    parser.add_argument("--test", action="store_true",
                        help="build and run the benchmark's unit tests")
    args = parser.parse_args()

    if args.test:
        return subprocess.run([str(build("perfbench_test"))]).returncode
    if None in (args.workload, args.seed, args.seconds, args.trace):
        parser.error("--workload, --seed, --seconds and --trace are required")
    binary = build("perfbench")
    cmd = [str(binary), "--workload", args.workload, "--seed", args.seed,
           "--seconds", args.seconds, "--trace", args.trace,
           "--commit", commit_id(), "--source-digest", source_digest()]
    sys.stdout.flush()
    return subprocess.run(cmd).returncode


if __name__ == "__main__":
    sys.exit(main())
