#!/usr/bin/env python3
"""Benchmark entry point: build the driver, make or reuse the oracle, measure.

Run from the root of the repository:

    python3 perfbench/run.py --workload ffi_paper --seed 1 --seconds 25 --trace 0

The last line of standard output is the result object
{"correct", "attempted", "failed", "metrics"}; the line before it is the
detail object (sample counts, percentiles, host fingerprint). Both are
also kept under .bench_build/perfbench-work/. See perfbench/README.md.
"""

import argparse
import hashlib
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
WORK = ROOT / ".bench_build" / "perfbench-work"
DRIVER = BUILD / "perfbench_driver"
DIGESTS = HERE / "digests"
WORKLOADS = ("ffi_paper", "topo_sweep", "nfi_store_rerun")

BUILD_TIMEOUT_S = 840
ORACLE_TIMEOUT_S = 120
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def source_hash():
    """SHA-256 over the library and driver sources: the oracle cache key."""
    h = hashlib.sha256()
    for base in (ROOT / "src", HERE / "driver"):
        for path in sorted(base.rglob("*")):
            if path.is_file():
                h.update(str(path.relative_to(ROOT)).encode())
                h.update(path.read_bytes())
    h.update((HERE / "CMakeLists.txt").read_bytes())
    return h.hexdigest()


def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        raise RuntimeError(f"library sources not found under {ROOT / 'src'}")
    jobs = str(min(4, os.cpu_count() or 1))
    if not (BUILD / "CMakeCache.txt").is_file():
        subprocess.run(["cmake", "-S", str(HERE), "-B", str(BUILD),
                        "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    subprocess.run(["cmake", "--build", str(BUILD), "-j", jobs,
                    "--target", "perfbench_driver"],
                   check=True, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)


def driver(mode, workload, seed, scale, *extra, timeout=RUN_TIMEOUT_S,
           capture=False):
    cmd = [str(DRIVER), mode, "--workload", workload, "--seed", str(seed),
           "--scale", scale, *extra]
    return subprocess.run(cmd, check=False, timeout=timeout, text=True,
                          stdout=subprocess.PIPE if capture else None)


def oracle(workload, seed, scale, digest):
    """Path of the reuse = false oracle digest.

    At paper scale a digest committed under perfbench/digests is used when
    there is one for the seed: it was made by an earlier build, so a change
    that alters the paper's numbers in a kernel both paths share still
    fails the gate. Otherwise the digest is computed once per (workload,
    scale, seed, sources) in its own process, so that its memory never
    counts toward the measured process's peak RSS."""
    committed = DIGESTS / f"{workload}-{seed}.txt"
    if scale == "paper" and committed.is_file():
        return committed
    path = WORK / "oracle" / f"{workload}-{scale}-{seed}-{digest[:16]}.txt"
    if not path.is_file():
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp = path.with_suffix(".tmp")
        r = driver("oracle", workload, seed, scale, "--oracle", str(tmp),
                   timeout=ORACLE_TIMEOUT_S)
        if r.returncode != 0:
            raise RuntimeError(f"oracle failed with status {r.returncode}")
        tmp.replace(path)
    return path


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    try:
        build()
        digest = source_hash()
        oracle_path = oracle(args.workload, args.seed, "paper", digest)
        log(f"oracle digest: {oracle_path}")
    except (RuntimeError, OSError, subprocess.SubprocessError) as e:
        log(f"set-up failed: {e}")
        return 2

    r = driver("run", args.workload, args.seed, "paper",
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--oracle", str(oracle_path), "--work", str(WORK),
               "--source-hash", digest[:16], capture=True)
    sys.stdout.write(r.stdout)
    if r.returncode != 0:
        # The driver died before printing its result: count the run as one
        # failed attempt.
        log(f"driver exited with status {r.returncode}")
        print('{"correct": false, "attempted": 1, "failed": 1, "metrics": {}}')
        return 1
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except subprocess.TimeoutExpired as e:
        log(f"timed out: {e.cmd[0]}")
        sys.exit(3)
