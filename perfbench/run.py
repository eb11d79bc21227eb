#!/usr/bin/env python3
"""Build and run the repository benchmark (see perfbench/WORKLOADS.md).

Run from the root of a checkout:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --selftest

The first call configures and builds this package with CMake in Release
mode into $CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench);
later calls rebuild only what changed. Build output goes to stderr, so the
last line of stdout is the benchmark's JSON result. --selftest builds and
runs the decorator transparency tests instead (needs GoogleTest).
"""

import argparse
import hashlib
import os
import shutil
import subprocess
import sys
from pathlib import Path

WORKLOADS = ("sim_campaign", "sim_checked", "live_churn", "udp_flood")
PACKAGE = Path(__file__).resolve().parent
ROOT = PACKAGE.parent


def die(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def build_dir():
    base = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    return base.resolve() / "perfbench"


def run_step(cmd):
    done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr, check=False)
    if done.returncode != 0:
        die(f"exit {done.returncode}: {' '.join(cmd)}")


def build(target):
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        die(f"library sources not found in {ROOT / 'src'}")
    if shutil.which("cmake") is None:
        die("cmake not found")
    bdir = build_dir()
    if not (bdir / "CMakeCache.txt").is_file():
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        run_step(["cmake", "-S", str(PACKAGE), "-B", str(bdir),
                  "-DCMAKE_BUILD_TYPE=Release", *generator])
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    run_step(["cmake", "--build", str(bdir), "--target", target,
              "--parallel", jobs])
    return bdir / target


def source_digest():
    """Digest of the sources the binary is built from: the checkout the
    benchmark runs in need not be a git repository."""
    digest = hashlib.sha256()
    for base in (ROOT / "src", PACKAGE):
        for path in sorted(p for p in base.rglob("*") if p.is_file()):
            digest.update(path.relative_to(ROOT).as_posix().encode())
            digest.update(b"\0")
            digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def commit():
    if not (ROOT / ".git").exists():
        return "none"
    done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                          capture_output=True, text=True, check=False)
    return done.stdout.strip() if done.returncode == 0 else "none"


def main():
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true",
                        help="build and run the transparency tests")
    args = parser.parse_args()

    if args.selftest:
        tests = build("perfbench_tests")
        os.execv(tests, [str(tests)])
    if args.workload is None:
        parser.error("--workload is required")
    if args.seed < 0 or not 0 < args.seconds <= 3600:
        parser.error("--seed must be >= 0 and --seconds in (0, 3600]")

    binary = build("perfbench")
    traces = build_dir() / "traces"
    traces.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, PERFBENCH_COMMIT=commit(),
               PERFBENCH_SOURCE_DIGEST=source_digest())
    os.execve(binary, [str(binary), "--workload", args.workload,
                       "--seed", str(args.seed), "--seconds", str(args.seconds),
                       "--trace", str(args.trace), "--trace-dir", str(traces)],
              env)


if __name__ == "__main__":
    main()
