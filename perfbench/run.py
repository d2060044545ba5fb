#!/usr/bin/env python3
"""Builds and runs the real-engine refresh benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload paper_seq --seed 1 --seconds 24 --trace 0
    python3 perfbench/run.py --workload tenant_days --held-out --trace 1

The first call configures and compiles the repository's library together
with refresh_bench.cc into .bench_build/ (Release). Every run
prints a human-readable summary, then the full result record (machine
and provenance facts, per-DAG numbers, the traced split) as one line
starting with "RECORD ", and as its last line the result object
{"correct", "attempted", "failed", "metrics"}. The record is also
written to .bench_build/results/. See README.md in this directory.
"""

import argparse
import hashlib
import pathlib
import shutil
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD_DIR = ROOT / ".bench_build" / "perfbench"
WORK_DIR = ROOT / ".bench_build" / "work"
RESULTS_DIR = ROOT / ".bench_build" / "results"
BINARY = BUILD_DIR / "refresh_bench"
WORKLOADS = ("paper_seq", "paper_par4", "tenant_days")
# Seed kept out of every tuning run, for re-checking a claim on data the
# change was not tuned on. Tuning used seeds 1-20. Same value as
# kHeldOutSeed in refresh_bench.cc, which marks the record.
HELD_OUT_SEED = 7919
# One run must finish within 180 s; the binary gets the rest after the
# build check.
RUN_TIMEOUT_S = 170


def die(message):
    print("run.py: " + message, file=sys.stderr)
    sys.exit(2)


def run_logged(cmd):
    """Runs a build step, sending its output to stderr."""
    result = subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr, stderr=sys.stderr)
    if result.returncode != 0:
        die("command failed: " + " ".join(cmd))


def build():
    if not (ROOT / "src" / "runtime" / "controller.cc").is_file():
        die("library sources not found under " + str(ROOT / "src"))
    if shutil.which("cmake") is None:
        die("cmake not found")
    if not (BUILD_DIR / "CMakeCache.txt").is_file():
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        run_logged(["cmake", "-S", str(HERE), "-B", str(BUILD_DIR),
                    "-DCMAKE_BUILD_TYPE=Release"] + generator)
    run_logged(["cmake", "--build", str(BUILD_DIR), "--parallel", "4"])


def git_sha():
    if not (ROOT / ".git").exists() or shutil.which("git") is None:
        return "unknown"
    result = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                            capture_output=True, text=True)
    return result.stdout.strip() if result.returncode == 0 else "unknown"


def source_sha256():
    """Digest of the library and benchmark sources (paths and bytes), so a
    record names the code it measured even outside a git checkout."""
    digest = hashlib.sha256()
    for top in (ROOT / "src", HERE):
        for path in sorted(p for p in top.rglob("*") if p.is_file()):
            digest.update(str(path.relative_to(ROOT)).encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--held-out", action="store_true",
                        help="use the held-out seed %d" % HELD_OUT_SEED)
    parser.add_argument("--seconds", type=float, default=24.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.held_out and args.seed is not None:
        die("--held-out and --seed are exclusive")
    if args.workload is None:
        die("--workload is required")
    seed = HELD_OUT_SEED if args.held_out else (
        1 if args.seed is None else args.seed)

    build()
    cmd = [str(BINARY), "--work-dir", str(WORK_DIR), "--seed", str(seed),
           "--workload", args.workload,
           "--seconds", repr(args.seconds),
           "--trace", str(args.trace),
           "--git-sha", git_sha(),
           "--source-sha256", source_sha256()]
    try:
        result = subprocess.run(cmd, cwd=ROOT, capture_output=True,
                                text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        die("benchmark exceeded %d s" % RUN_TIMEOUT_S)
    sys.stderr.write(result.stderr)
    if result.returncode != 0:
        sys.stdout.write(result.stdout)
        die("benchmark exited with code %d" % result.returncode)

    lines = result.stdout.splitlines()
    if not lines or not lines[-1].startswith("{"):
        die("benchmark printed no result")
    for line in lines[:-1]:
        if line.startswith("RECORD "):
            RESULTS_DIR.mkdir(parents=True, exist_ok=True)
            name = "%s_seed%d_trace%d.json" % (args.workload, seed, args.trace)
            (RESULTS_DIR / name).write_text(line[len("RECORD "):] + "\n")
        print(line)
    print(lines[-1], flush=True)


if __name__ == "__main__":
    main()
