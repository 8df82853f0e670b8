#!/usr/bin/env python3
"""Builds lls_perfbench from this checkout's sources and runs one workload.

    python3 perfbench/run.py --workload sim-steady --seed 1 --seconds 10 --trace 0

Run from the root of the source tree. lls_perfbench is configured with CMake
into $CARGO_TARGET_DIR (default .bench_build) on first use and rebuilt
incrementally afterwards; build output goes to stderr. Its stdout is
passed through unchanged: its last line is the result object
{"correct", "attempted", "failed", "metrics"}. Traced runs (--trace 1) also
write their spans to .bench_out/.

Exit status: lls_perfbench's (0 ok, 1 a correctness check failed), or 2 when
the sources or the build are missing.
"""

import argparse
import hashlib
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("sim-steady", "sim-failover", "sim-durable", "udp-loopback")


def source_id():
    """Identifies the code under test: the git commit, or a digest of the
    sources when the tree is not a git checkout."""
    if (ROOT / ".git").exists():
        try:
            sha = subprocess.run(
                ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                capture_output=True, text=True, timeout=30, check=True,
            ).stdout.strip()
            return "git:" + sha
        except (OSError, subprocess.SubprocessError):
            pass
    digest = hashlib.sha256()
    files = [ROOT / "CMakeLists.txt"]
    for top in (ROOT / "src", HERE):
        files += [p for p in top.rglob("*") if p.is_file()]
    for path in sorted(files):
        if "__pycache__" in path.parts:
            continue
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return "tree-sha256:" + digest.hexdigest()[:16]


def build(build_dir):
    jobs = str(os.cpu_count() or 1)
    if not (build_dir / "CMakeCache.txt").exists():
        subprocess.run(
            ["cmake", "-S", str(HERE), "-B", str(build_dir),
             "-DCMAKE_BUILD_TYPE=Release"],
            stdout=sys.stderr, check=True, timeout=600,
        )
    subprocess.run(
        ["cmake", "--build", str(build_dir), "--target", "lls_perfbench",
         "-j", jobs],
        stdout=sys.stderr, check=True, timeout=1200,
    )
    return build_dir / "lls_perfbench"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        print(f"perfbench: no sources at {ROOT / 'src'}; run from the root "
              "of the lls source tree", file=sys.stderr)
        return 2
    build_dir = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build")).resolve()
    try:
        binary = build(build_dir)
    except (OSError, subprocess.SubprocessError) as err:
        print(f"perfbench: build failed: {err}", file=sys.stderr)
        return 2

    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--source", source_id()]
    # lls_perfbench bounds its own run; the timeout only guards against a hang.
    try:
        run = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                             timeout=args.seconds * 3 + 120)
    except subprocess.TimeoutExpired:
        print("perfbench: lls_perfbench timed out", file=sys.stderr)
        return 1
    sys.stdout.write(run.stdout)
    sys.stdout.flush()
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
