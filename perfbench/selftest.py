#!/usr/bin/env python3
"""Self-test of the benchmark at tiny scale (about a minute).

Run from the root of the repository:

    python3 perfbench/selftest.py

It checks that
  1. every workload, with --trace 0 and --trace 1, prints exactly the
     metrics BENCHMARK.json names for that mode, each with its unit, and
     reports its cells correct;
  2. a corrupted oracle digest makes the run report failed cells, so the
     correctness gate fails closed;
  3. a bit-flipped artifact-store file is counted as a corrupt miss and is
     recomputed, never served as a wrong cell.
Exit status 0 when every check passes, 1 otherwise.
"""

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run as bench  # noqa: E402

SEED = 7
SCALE = "tiny"
WORK = bench.WORK / "selftest"
failures = []


def check(cond, what):
    print(f"{'ok  ' if cond else 'FAIL'} {what}")
    if not cond:
        failures.append(what)


def last_json(stdout):
    lines = stdout.strip().splitlines()
    return json.loads(lines[-1]) if lines else {}


def measure(workload, trace, oracle_path, digest):
    r = bench.driver("run", workload, SEED, SCALE, "--seconds", "1",
                     "--trace", str(trace), "--oracle", str(oracle_path),
                     "--work", str(WORK), "--source-hash", digest[:16],
                     capture=True)
    check(r.returncode == 0, f"{workload} trace {trace}: driver exits 0")
    return last_json(r.stdout)


def main():
    spec = json.loads((bench.ROOT / "BENCHMARK.json").read_text())
    bench.build()
    digest = bench.source_hash()
    WORK.mkdir(parents=True, exist_ok=True)
    oracles = {w: bench.oracle(w, SEED, SCALE, digest)
               for w in bench.WORKLOADS}

    for workload in bench.WORKLOADS:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            res = measure(workload, trace, oracles[workload], digest)
            want = {m["name"]: m["unit"] for m in spec[key]}
            got = {k: v.get("unit") for k, v in res.get("metrics", {}).items()}
            check(got == want,
                  f"{workload} trace {trace}: prints every {key} metric "
                  f"with its unit")
            check(res.get("correct") is True and res.get("failed") == 0,
                  f"{workload} trace {trace}: all cells match the oracle")

    # Flip one bit of the first cell's ffi_acd in a copy of the digest.
    lines = oracles["ffi_paper"].read_text().splitlines()
    nfi, ffi = lines[1].split()
    lines[1] = f"{nfi} {ffi[:-1]}{int(ffi[-1], 16) ^ 1:x}"
    corrupt = WORK / "corrupt-oracle.txt"
    corrupt.write_text("\n".join(lines) + "\n")
    res = measure("ffi_paper", 0, corrupt, digest)
    check(res.get("failed", 0) > 0 and res.get("correct") is False,
          "a corrupted oracle digest fails the run (error_rate > 0)")

    r = bench.driver("storeflip", "nfi_store_rerun", SEED, SCALE,
                     "--oracle", str(oracles["nfi_store_rerun"]),
                     "--work", str(WORK), capture=True)
    flip = last_json(r.stdout)
    check(r.returncode == 0 and flip.get("corrupt", 0) >= 1,
          "a bit-flipped store file is counted as corrupt")
    check(flip.get("misses", 0) >= 1 and flip.get("failed") == 0,
          "the corrupt file is a miss and every cell still matches")

    print(f"{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
