#!/usr/bin/env python3
"""Emit BENCH_acd.json: machine-readable perf numbers for the ACD hot paths.

Runs the micro_model google-benchmark binary (aggregated vs direct NFI/FFI
passes, ns per communication pair), optionally a reduced-scale table1_nfi
end-to-end timing, and the sweep-engine comparison (table1_nfi and
fig6_topologies with artifact reuse vs --no-reuse, verifying the ACD cells
are bit-identical and recording the wall-clock speedup plus the engine's
cache counters and --metrics snapshot), then writes one JSON file so the
perf trajectory can be compared across commits. When micro_fold is built,
the Topology::fold strategy timings are recorded and the factorized-vs-
cold-dense speedup gated; when fig7_scaling is built, the million-rank
scaling points (p = 2^16..2^20) are lifted into the document and their
peak RSS gated below 1 GiB. When micro_obs is built,
the obs-layer primitives are timed too, and --with-table1 additionally
bounds the disabled-tracing overhead on table1_nfi (exits nonzero at
>= 1%).

Usage:
  scripts/bench_to_json.py [--build-dir build-release] [--out BENCH_acd.json]
                           [--min-time 0.5] [--with-table1] [--smoke]
                           [--skip-sweep] [--threads N]
"""

import argparse
import json
import math
import os
import shutil
import subprocess
import sys
import tempfile
import time

# Ceiling on the sparse (p = 65536) / dense (p = 256) FFI ns per event of
# BM_FfiAggregatedSparse (see check_gates and run_ffi_sparse).
SPARSE_OVER_DENSE_CAP = 3.0


def run_micro_model(binary, min_time, repetitions, smoke):
    """Run the aggregated/direct micro benchmarks; return google-benchmark
    entries keyed by benchmark name. With repetitions > 1 the medians are
    used, which suppresses scheduler/frequency jitter on shared machines."""
    cmd = [
        binary,
        # BM_FfiAggregatedSparse is timed on its own (run_ffi_sparse).
        "--benchmark_filter=Aggregated(/|Scalar|$)|Direct",
        "--benchmark_format=json",
    ]
    if smoke:
        # Short but never single-iteration: these ns/pair numbers feed
        # the committed-baseline regression caps, and a one-iteration
        # timing swings far beyond the cap on a busy runner.
        cmd.append("--benchmark_min_time=0.05")
    else:
        cmd.append(f"--benchmark_min_time={min_time}")
        if repetitions > 1:
            cmd.append(f"--benchmark_repetitions={repetitions}")
            cmd.append("--benchmark_report_aggregates_only=true")
    out = subprocess.run(cmd, check=True, capture_output=True, text=True)
    data = json.loads(out.stdout)
    entries = {}
    for b in data["benchmarks"]:
        name = b["name"]
        if name.endswith("_median"):
            entries[name[: -len("_median")]] = b
        elif b.get("run_type") != "aggregate":
            entries.setdefault(name, b)
    return entries, simd_context(data)


def run_ffi_sparse(binary, min_time, smoke):
    """Time BM_FfiAggregatedSparse (the BM_FfiAggregated pass at
    p = 65536, through the sparse accumulator) over five repetitions and
    return the medians' (sparse ns/event, sparse/dense ratio). Each of its
    iterations also runs one untimed dense p = 256 pass and reports that
    pass's ns/event as the dense_ns_per_event counter; the ratio divides
    by it rather than by a separate BM_FfiAggregated run, because the two
    passes are bound by different resources and separately timed runs
    drift apart with the load of a shared host."""
    cmd = [
        binary,
        "--benchmark_filter=^BM_FfiAggregatedSparse$",
        "--benchmark_format=json",
        "--benchmark_repetitions=5",
        "--benchmark_report_aggregates_only=true",
        f"--benchmark_min_time={0.05 if smoke else min_time}",
    ]
    out = subprocess.run(cmd, check=True, capture_output=True, text=True)
    median = next((b for b in json.loads(out.stdout)["benchmarks"]
                   if b["name"] == "BM_FfiAggregatedSparse_median"), None)
    if median is None:
        return None, None
    sparse = ns_per_pair(median)
    dense = median.get("dense_ns_per_event")
    return sparse, (sparse / dense if sparse and dense else None)


def simd_context(data):
    """The dispatched/compiled SIMD tier the bench binary stamped into its
    JSON context (AddCustomContext in the bench mains). Absent keys mean a
    binary predating the dispatch layer; report "scalar" so gates and
    baseline matching treat it as the portable tier."""
    ctx = data.get("context", {})
    return {
        "simd": ctx.get("simd", "scalar"),
        "simd_compiled": ctx.get("simd_compiled", "scalar"),
    }


def ns_per_pair(entry):
    """Items are communication pairs, so items_per_second is pairs/s."""
    ips = entry.get("items_per_second")
    return 1e9 / ips if ips else None


def run_table1(binary):
    """Reduced-scale end-to-end Table I sweep (wall-clock seconds)."""
    args = [
        binary,
        "--particles=20000",
        "--level=8",
        "--procs=256",
        "--trials=1",
    ]
    start = time.monotonic()
    subprocess.run(args, check=True, capture_output=True, text=True)
    return time.monotonic() - start


def run_micro_obs(binary, min_time, smoke):
    """ns/op for the obs primitives (disabled span, enabled span, clock,
    counter, gauge, histogram), keyed by short name."""
    cmd = [binary, "--benchmark_filter=Obs", "--benchmark_format=json"]
    # Never drop to a single iteration here: these ns-scale ops feed the
    # overhead gate, and a one-iteration "measurement" is timer
    # granularity plus first-call setup (thread-local ring registration,
    # registry warm-up) — thousands of ns, tripping the gate spuriously.
    cmd.append("--benchmark_min_time=0.05" if smoke
               else f"--benchmark_min_time={min_time}")
    out = subprocess.run(cmd, check=True, capture_output=True, text=True)
    data = json.loads(out.stdout)
    results = {}
    for b in data["benchmarks"]:
        if b.get("run_type") == "aggregate":
            continue
        name = b["name"].removeprefix("BM_Obs")
        results[name] = b["real_time"]  # ns (benchmark default unit)
    return results


def traced_table1_overhead(binary, obs_ns_per_op):
    """Measure the background-observability overhead bound on table1_nfi.

    Runs a reduced table1_nfi sweep with --trace and --metrics, counts the
    spans it actually records, and bounds the cost those same span sites
    pay in the *default* harness configuration: tracing compiled in but
    disabled, the flight recorder on (so the per-span price is
    max(SpanDisabled, SpanFlight) ns/op), plus one SamplerSample per
    sampler tick. The harness promises <1% of the run's wall clock —
    exceed it and this script exits nonzero (the CI assertion).
    """
    args = ["--particles=20000", "--level=8", "--procs=256", "--trials=1"]
    trace_path = "obs_overhead_trace.json"
    doc = run_sweep_harness(
        binary, args + [f"--trace={trace_path}", "--metrics"])
    with open(trace_path) as f:
        trace = json.load(f)
    os.remove(trace_path)
    events = [e for e in trace["traceEvents"] if e["ph"] in ("B", "E")]
    spans = len(events) // 2
    seconds = doc["elapsed_seconds"]
    span_disabled_ns = obs_ns_per_op.get("SpanDisabled", 0.0)
    span_flight_ns = obs_ns_per_op.get("SpanFlight", 0.0)
    span_cost_ns = max(span_disabled_ns, span_flight_ns)
    sampler_ns = obs_ns_per_op.get("SamplerSample", 0.0)
    ticks = doc.get("timeseries", {}).get("ticks")
    if ticks is None:  # pre-sampler binary: assume the default period
        ticks = max(1, int(seconds * 1000 / 250))
    overhead_pct = ((spans * span_cost_ns + ticks * sampler_ns)
                    / (seconds * 1e9) * 100.0)
    if overhead_pct >= 1.0:
        sys.exit(f"error: observability overhead bound {overhead_pct:.3f}%"
                 " >= 1% on table1_nfi (flight recorder + sampler on)")
    return {
        "args": args,
        "spans": spans,
        "elapsed_seconds": seconds,
        "span_disabled_ns": span_disabled_ns,
        "span_flight_ns": span_flight_ns,
        "sampler_sample_ns": sampler_ns,
        "sampler_ticks": ticks,
        "stage_profile": doc.get("stage_profile"),
        "disabled_overhead_pct": overhead_pct,
    }


def run_micro_curves(binary, min_time, smoke):
    """Per-curve encode timings (virtual per-point vs batched, ns/point)
    and the ordering-stage comparison (virtual encode + stable_sort vs
    batched encode + radix argsort) at the level-10/100k acceptance
    scenario."""
    cmd = [binary, "--benchmark_filter=Encode|Order",
           "--benchmark_format=json"]
    # Same rationale as run_micro_model: the ordering ns/point values
    # are gated against the committed baseline, so they need more than
    # one iteration to be comparable run-to-run.
    cmd.append("--benchmark_min_time=0.05" if smoke
               else f"--benchmark_min_time={min_time}")
    out = subprocess.run(cmd, check=True, capture_output=True, text=True)
    data = json.loads(out.stdout)
    per_point, batched, batched_scalar = {}, {}, {}
    order_virtual, order_radix, order_radix_scalar = {}, {}, {}
    for b in data["benchmarks"]:
        if b.get("run_type") == "aggregate":
            continue
        name, _, curve = b["name"].partition("/")
        ns = ns_per_pair(b)  # items are points here, so this is ns/point
        if name == "BM_EncodePerPoint":
            per_point[curve] = ns
        elif name == "BM_EncodeBatched":
            batched[curve] = ns
        elif name == "BM_EncodeBatchedScalar":
            batched_scalar[curve] = ns
        elif name == "BM_OrderVirtualStableSort":
            order_virtual[curve] = ns
        elif name == "BM_OrderBatchedRadix":
            order_radix[curve] = ns
        elif name == "BM_OrderBatchedRadixScalar":
            order_radix_scalar[curve] = ns
    curves = {}
    for curve in per_point:
        p, b = per_point[curve], batched.get(curve)
        curves[curve] = {
            "per_point_ns": p,
            "batched_ns": b,
            "speedup": p / b if p and b else None,
        }
        s = batched_scalar.get(curve)
        if s is not None:
            curves[curve]["batched_scalar_ns"] = s
            curves[curve]["simd_speedup"] = s / b if s and b else None
    ordering = {}
    for curve in order_virtual:
        v, r = order_virtual[curve], order_radix.get(curve)
        ordering[curve] = {
            "virtual_stable_sort_ns_per_point": v,
            "batched_radix_ns_per_point": r,
            "speedup": v / r if v and r else None,
        }
        s = order_radix_scalar.get(curve)
        if s is not None:
            ordering[curve]["batched_radix_scalar_ns_per_point"] = s
            ordering[curve]["simd_speedup"] = s / r if s and r else None
    return curves, ordering, simd_context(data)


def run_micro_fold(binary, min_time, smoke):
    """ns/distinct-pair for the Topology::fold strategies at p = 4096 (the
    old dense-table wall): factorized closed forms vs the dense path warm
    (table prebuilt) and cold (p² table rebuilt inside the timed region —
    the per-topology cost the pre-fold contract paid), plus the streamed
    graph-BFS point beyond the budget and the factorized fold at p = 2^20."""
    cmd = [binary, "--benchmark_filter=Fold", "--benchmark_format=json"]
    cmd.append("--benchmark_min_time=0" if smoke
               else f"--benchmark_min_time={min_time}")
    out = subprocess.run(cmd, check=True, capture_output=True, text=True)
    data = json.loads(out.stdout)
    factorized, cold, warm, extras = {}, {}, {}, {}
    for b in data["benchmarks"]:
        if b.get("run_type") == "aggregate":
            continue
        name, _, topo = b["name"].partition("/")
        ns = ns_per_pair(b)
        if name == "BM_FoldFactorized":
            factorized[topo] = ns
        elif name == "BM_FoldDenseCold":
            cold[topo] = ns
        elif name == "BM_FoldDenseWarm":
            warm[topo] = ns
        elif name == "BM_FoldStreamed":
            extras["streamed_ring8192_ns_per_pair"] = ns
        elif name == "BM_FoldFactorizedMillion":
            extras["factorized_torus_p2e20_ns_per_pair"] = ns
    topologies = {}
    for topo, f in factorized.items():
        entry = {"factorized_ns_per_pair": f}
        c, w = cold.get(topo), warm.get(topo)
        if c is not None:
            entry["dense_cold_ns_per_pair"] = c
            entry["cold_speedup"] = c / f if f and c else None
        if w is not None:
            entry["dense_warm_ns_per_pair"] = w
            entry["warm_speedup"] = w / f if f and w else None
        topologies[topo] = entry
    return {"procs": 4096, "topologies": topologies, **extras}


def run_fig7_scaling(build_dir, smoke):
    """The million-rank Figure 7 points the factorized fold unlocked:
    p ∈ {2^16, 2^18, 2^20} on the torus, 60k particles, one trial. Peak
    RSS comes from the child's rusage (ru_maxrss, KiB on Linux) — the CI
    assertion that no stage materializes p×p state at p = 2^20."""
    binary = os.path.join(build_dir, "bench", "fig7_scaling")
    if not os.path.exists(binary):
        return None
    args = ["--json", "--particles=60000", "--level=10",
            "--min-procs=65536", "--max-procs=1048576", "--trials=1"]
    start = time.monotonic()
    with open("fig7_million.json", "w") as out:
        proc = subprocess.Popen([binary] + args, stdout=out,
                                stderr=subprocess.DEVNULL)
        _, status, rusage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    elapsed = time.monotonic() - start
    if proc.returncode != 0:
        sys.exit(f"error: fig7_scaling exited {proc.returncode}")
    with open("fig7_million.json") as f:
        doc = json.load(f)
    os.remove("fig7_million.json")
    points = {}
    for cell in doc["study"]["cells"]:
        p = cell["procs"]
        if p not in (65536, 1048576):
            continue
        entry = points.setdefault(str(p), {})
        entry[cell["particle_curve"]] = {
            "nfi_acd": cell.get("nfi_acd"),
            "ffi_acd": cell.get("ffi_acd"),
        }
    return {
        "args": args,
        "elapsed_seconds": elapsed,
        "peak_rss_bytes": rusage.ru_maxrss * 1024,
        "points": points,
    }


def run_ext_dynamics(build_dir, smoke):
    """Incremental-vs-recompute dynamics timing. ext_dynamics drives the
    DynamicAcd engine along a drift trajectory (5% of particles per
    step), asserting each step's incremental totals are bit-identical to
    a full recompute, and attaches the median per-step speedup plus the
    median milliseconds of each side (incremental_ms_p50,
    recompute_ms_p50), so a ratio change can be traced to one side. Smoke
    runs the reduced preset (20k particles, p=256, dense accumulators);
    the full run uses the sparse-regime preset (250k, p=4096) where the
    delta path's netting matters most."""
    binary = os.path.join(build_dir, "bench", "ext_dynamics")
    if not os.path.exists(binary):
        return None
    args = ["--steps=4"] + ([] if smoke else ["--full"])
    doc = run_sweep_harness(binary, args)
    dyn = doc.get("dynamics")
    if not dyn:
        sys.exit("error: ext_dynamics: no 'dynamics' attachment in document")
    return {"args": args, "elapsed_seconds": doc["elapsed_seconds"], **dyn}


def check_gates(result, previous, smoke):
    """Regression gates against hard floors and the committed baseline.

    - The FFI aggregated path must beat the direct path by >= 1.5x (1.2x
      in smoke mode, where single-iteration timings are indicative only).
    - The same FFI pass at p = 65536 (sparse accumulator) may cost at most
      SPARSE_OVER_DENSE_CAP times the dense p = 256 pass per event. On a
      4-CPU host, ten alternating smoke-mode pairs read 1.87-2.71x for
      the source-ordered walk (histograms built sorted) and 3.29-4.32x
      for the Morton-order walk with radix-sorted runs before it (which
      itself read 3.1-3.5x in earlier runs; the stage-sort-merge
      accumulator before that 4.4-5.2x). A missing ratio fails once the
      FFI pass was measured.
    - The ordering stage (batched encode + radix argsort) must beat the
      virtual-encode + stable_sort baseline by >= 3x (1.5x smoke),
      measured as the geometric mean over the benchmarked curves: the
      cheap-encode curves (morton) sit right at 3x with high run-to-run
      variance because the comparison sort dominates both shapes, while
      hilbert clears 5x -- a per-curve floor would flap on noise.
    - When the binary dispatched a SIMD tier, the in-binary SIMD-vs-
      forced-scalar ratios must hold: Morton/Gray batched encode >= 2x
      (1.4x smoke), NFI r4 aggregation >= 1.3x (1.1x smoke), Hilbert
      ordering >= 1.1x (full runs only). Morton ordering gets no SIMD floor:
      the radix scatter dominates that shape, so its ratio is ~1x by
      construction — it is covered by the baseline comparison instead.
    - Every topology with a dense-cold fold column must show the
      factorized fold >= 5x faster (3x smoke) than cold dense — the cold
      column pays the p² table build, which is the cost that walled the
      sweep at p = 4096 before Topology::fold.
    - The million-rank fig7 run must peak below 1 GiB RSS: the factorized
      fold contract promises no O(p²) state at p = 2^20.
    - The fig7, dynamics and warm-store sections, once they ran, must
      carry their measured value (peak_rss_bytes, speedup_p50, speedup);
      a missing one fails.
    - The cell-graph scheduler must cut fig6 wall-clock >= 2x at 8
      worker threads vs 1 — enforced only on hosts with >= 8 cores.
    - A warm artifact-store rerun of table1_nfi must beat the cold run
      >= 4x (2x smoke) with nonzero store hits.
    - Committed-baseline comparison (ordering ns/point within 25%/50%,
      NFI r4 aggregated ns/pair within the same caps) runs only when the
      committed file recorded the same dispatched SIMD tier — comparing
      an avx2 run against a scalar baseline (or vice versa) would gate on
      the ISA delta, not a regression. On a tier mismatch the fallback is
      absolute ceilings, generous enough for any supported machine but
      low enough to catch a hot path falling off a cliff.
    Returns a list of failure strings; empty means all gates passed.
    """
    failures = []
    ffi_floor = 1.2 if smoke else 1.5
    order_floor = 1.5 if smoke else 3.0
    regress_cap = 0.50 if smoke else 0.25

    ffi_speedup = result.get("ffi", {}).get("speedup")
    if ffi_speedup is not None and ffi_speedup < ffi_floor:
        failures.append(f"ffi aggregated speedup {ffi_speedup:.2f}x "
                        f"< {ffi_floor}x floor")

    # Once the FFI pass was measured, a missing ratio (renamed benchmark,
    # filter mismatch, dropped counter) fails instead of skipping.
    sparse_ratio = result.get("ffi", {}).get("sparse_over_dense")
    if result.get("ffi") and sparse_ratio is None:
        failures.append("ffi sparse/dense ns per event not measured "
                        "(BM_FfiAggregatedSparse_median or its "
                        "dense_ns_per_event counter missing)")
    elif sparse_ratio is not None and sparse_ratio > SPARSE_OVER_DENSE_CAP:
        failures.append(f"ffi sparse/dense ns per event {sparse_ratio:.2f}x "
                        f"> {SPARSE_OVER_DENSE_CAP}x ceiling (sparse "
                        f"accumulator regressed)")

    speedups = [o["speedup"] for o in result.get("ordering", {}).values()
                if o.get("speedup") is not None]
    if speedups:
        geomean = math.exp(sum(math.log(s) for s in speedups) / len(speedups))
        if geomean < order_floor:
            failures.append(f"ordering: batched+radix geomean speedup "
                            f"{geomean:.2f}x < {order_floor}x floor")

    fold_floor = 3.0 if smoke else 5.0
    for topo, f in result.get("fold", {}).get("topologies", {}).items():
        s = f.get("cold_speedup")
        if s is not None and s < fold_floor:
            failures.append(f"fold/{topo}: factorized vs cold-dense speedup "
                            f"{s:.2f}x < {fold_floor}x floor")

    # The dynamics, warm-store and fig7 gates fail closed like the
    # sparse/dense one: a section that ran without its measured value
    # (renamed field, dropped attachment) is a failure, not a skip.
    for section, field in (("fig7_scaling", "peak_rss_bytes"),
                           ("dynamics", "speedup_p50"),
                           ("warm_store", "speedup")):
        if section in result and result[section].get(field) is None:
            failures.append(f"{section}: ran but recorded no {field}")

    rss = result.get("fig7_scaling", {}).get("peak_rss_bytes")
    if rss is not None and rss >= 1 << 30:
        failures.append(f"fig7_scaling: peak RSS {rss / 2**20:.0f} MiB "
                        f">= 1 GiB cap at p = 2^20")

    # The incremental dynamics engine must earn its keep: with 5% of the
    # particles moving per step, a DynamicAcd timestep (move + fold) must
    # be >= 5x faster than recomputing NFI+FFI from scratch (2x smoke —
    # the reduced preset's recompute is small enough that fixed per-step
    # costs eat into the ratio). Equality of the totals is asserted
    # inside the bench itself; this gate is purely about the speedup.
    dyn_floor = 2.0 if smoke else 5.0
    dyn_speedup = result.get("dynamics", {}).get("speedup_p50")
    if dyn_speedup is not None and dyn_speedup < dyn_floor:
        failures.append(f"dynamics: incremental timestep {dyn_speedup:.2f}x "
                        f"vs full recompute < {dyn_floor}x floor")

    # Cell-graph scheduler scaling: 8 workers must halve fig6 wall-clock
    # vs 1 worker — but only on hosts that actually have >= 8 cores
    # (same conditionality as the SIMD gates: a 1-core runner cannot
    # exhibit parallel speedup, and the bit-identity assertion inside
    # the measurement still ran).
    sched = result.get("scheduler_scaling")
    if sched and sched.get("speedup") is not None:
        if (sched.get("cpus") or 0) >= 8 and sched["speedup"] < 2.0:
            failures.append(
                f"scheduler_scaling: 8-thread speedup "
                f"{sched['speedup']:.2f}x < 2x floor on "
                f"{sched['cpus']}-core host")

    # Persistent artifact store: a warm rerun answers the expensive
    # stages (canonicalization, ordering, instances, histograms) from
    # disk, so it must beat the cold run by >= 4x (2x smoke, where the
    # shrunken grid leaves less recompute to save). Zero warm hits
    # already aborted inside the measurement.
    warm_floor = 2.0 if smoke else 4.0
    warm_speedup = result.get("warm_store", {}).get("speedup")
    if warm_speedup is not None and warm_speedup < warm_floor:
        failures.append(f"warm_store: warm rerun speedup "
                        f"{warm_speedup:.2f}x < {warm_floor}x floor")

    cur_isa = result.get("build", {}).get("simd", "scalar")
    if cur_isa != "scalar":
        encode_floor = 1.4 if smoke else 2.0
        for curve in ("morton", "gray"):
            s = result.get("curves", {}).get(curve, {}).get("simd_speedup")
            if s is not None and s < encode_floor:
                failures.append(f"encode/{curve}: simd speedup {s:.2f}x "
                                f"< {encode_floor}x floor on {cur_isa}")
        if not smoke:
            # Full runs only: the ordering ratio rides on a single radix
            # sort whose single-iteration smoke timing wobbles +-10%, right
            # at this floor.
            s = (result.get("ordering", {}).get("hilbert", {})
                 .get("simd_speedup"))
            if s is not None and s < 1.1:
                failures.append(f"ordering/hilbert: simd speedup {s:.2f}x "
                                f"< 1.1x floor on {cur_isa}")
        nfi_floor = 1.1 if smoke else 1.3
        s = result.get("nfi", {}).get("r4", {}).get("simd_speedup")
        if s is not None and s < nfi_floor:
            failures.append(f"nfi/r4: simd speedup {s:.2f}x "
                            f"< {nfi_floor}x floor on {cur_isa}")

    prev_isa = (previous or {}).get("build", {}).get("simd", "scalar")
    if previous is not None and prev_isa == cur_isa:
        old_ordering = previous.get("ordering", {})
        for curve, o in result.get("ordering", {}).items():
            new_ns = o.get("batched_radix_ns_per_point")
            old_ns = old_ordering.get(curve, {}).get(
                "batched_radix_ns_per_point")
            if new_ns and old_ns and new_ns > old_ns * (1.0 + regress_cap):
                failures.append(
                    f"ordering/{curve}: {new_ns:.2f} ns/point regressed "
                    f"> {regress_cap:.0%} over committed {old_ns:.2f}")
        new_ns = result.get("nfi", {}).get("r4", {}).get(
            "aggregated_ns_per_pair")
        old_ns = (previous.get("nfi", {}).get("r4", {})
                  .get("aggregated_ns_per_pair"))
        if new_ns and old_ns and new_ns > old_ns * (1.0 + regress_cap):
            failures.append(
                f"nfi/r4: {new_ns:.2f} ns/pair regressed "
                f"> {regress_cap:.0%} over committed {old_ns:.2f}")
    else:
        # ISA mismatch (or no committed file): the committed numbers came
        # off a different dispatch tier, so relative caps would measure
        # the ISA, not the code. Absolute ceilings only.
        order_cap = 240.0 if smoke else 120.0
        for curve, o in result.get("ordering", {}).items():
            new_ns = o.get("batched_radix_ns_per_point")
            if new_ns and new_ns > order_cap:
                failures.append(
                    f"ordering/{curve}: {new_ns:.2f} ns/point over the "
                    f"{order_cap:.0f} ns absolute cap (no {cur_isa} "
                    f"baseline committed)")
        nfi_cap = 100.0 if smoke else 50.0
        new_ns = result.get("nfi", {}).get("r4", {}).get(
            "aggregated_ns_per_pair")
        if new_ns and new_ns > nfi_cap:
            failures.append(
                f"nfi/r4: {new_ns:.2f} ns/pair over the {nfi_cap:.0f} ns "
                f"absolute cap (no {cur_isa} baseline committed)")
    return failures


def run_sweep_harness(binary, extra):
    """Run one sweep-engine bench with --json; return the parsed document."""
    out = subprocess.run([binary, "--json"] + extra, check=True,
                         capture_output=True, text=True)
    return json.loads(out.stdout)


def sweep_comparison(build_dir, name, extra, threads):
    """Time `name` with artifact reuse vs --no-reuse on the same grid.

    The two paths must produce bit-identical ACD cells (the engine folds
    exact integer histograms, so reuse never changes the arithmetic) —
    any difference is a correctness bug and aborts. A run that records
    zero hits means the engine stopped sharing artifacts across cells,
    which defeats its purpose — that also aborts, and doubles as the CI
    assertion on the hit counters. So does a live-byte peak that is not
    below the bytes the run built: the engine frees each artifact at its
    last use, and a peak equal to the total means nothing was freed.
    """
    binary = os.path.join(build_dir, "bench", name)
    if not os.path.exists(binary):
        return None
    extra = list(extra) + [f"--threads={threads}"]
    # --metrics embeds the obs registry snapshot (cache gauges, pool
    # queue-wait histograms) in the document; round-trip it into the
    # BENCH entry so the perf numbers carry their runtime behavior.
    reused = run_sweep_harness(binary, extra + ["--metrics"])
    direct = run_sweep_harness(binary, extra + ["--no-reuse"])
    if reused["study"]["cells"] != direct["study"]["cells"]:
        sys.exit(f"error: {name}: reuse and --no-reuse ACD cells differ")
    cache = reused["study"]["sweep"]
    if cache["hits"] == 0:
        sys.exit(f"error: {name}: sweep engine recorded zero cache hits")
    if not 0 < cache["peak_bytes"] < cache["built_bytes"]:
        sys.exit(f"error: {name}: live-byte peak {cache['peak_bytes']} is "
                 f"not below the {cache['built_bytes']} bytes built")
    metrics = reused.get("metrics")
    if not metrics or "sweep.cache.peak_bytes" not in metrics.get("gauges",
                                                                  {}):
        sys.exit(f"error: {name}: --metrics snapshot missing sweep gauges")
    reuse_s = reused["elapsed_seconds"]
    direct_s = direct["elapsed_seconds"]
    return {
        "args": extra,
        "cells": len(reused["study"]["cells"]),
        "reuse_seconds": reuse_s,
        "direct_seconds": direct_s,
        "speedup": direct_s / reuse_s if reuse_s > 0 else None,
        "cache": cache,
        "build": reused.get("build"),
        "metrics": metrics,
        # The flight recorder's per-stage self/total aggregate: committed
        # with the baseline so a later gate failure can be attributed to
        # the stage that slowed (scripts/attribute_regression.py).
        "stage_profile": reused.get("stage_profile"),
    }


def scheduler_scaling(build_dir, name, extra):
    """Time the cell-graph scheduler at 1 worker vs 8 on the same grid.

    Both runs use the reuse engine, so the ratio isolates the scheduler's
    concurrency (independent cells flowing through the task graph) from
    artifact sharing. The two thread counts must produce bit-identical
    ACD cells — the replay design makes thread count invisible to the
    arithmetic, and any divergence aborts. The host's cpu_count is
    recorded alongside: the >= 2x gate only binds on machines with at
    least 8 cores (a 1-core CI runner cannot exhibit parallel speedup,
    same pattern as the SIMD-conditional gates).
    """
    binary = os.path.join(build_dir, "bench", name)
    if not os.path.exists(binary):
        return None
    serial = run_sweep_harness(binary, list(extra) + ["--threads=1"])
    threaded = run_sweep_harness(binary, list(extra) + ["--threads=8"])
    if serial["study"]["cells"] != threaded["study"]["cells"]:
        sys.exit(f"error: {name}: 1-thread and 8-thread ACD cells differ")
    serial_s = serial["elapsed_seconds"]
    threaded_s = threaded["elapsed_seconds"]
    return {
        "bench": name,
        "args": list(extra),
        "cpus": os.cpu_count(),
        "cells": len(serial["study"]["cells"]),
        "serial_seconds": serial_s,
        "threads8_seconds": threaded_s,
        "speedup": serial_s / threaded_s if threaded_s > 0 else None,
    }


def warm_store_comparison(build_dir, name, extra, threads):
    """Time a cold artifact-store run vs a warm rerun of the same grid.

    The cold run starts from an empty store directory (--store-clear) and
    spills its artifacts to disk; the warm run reopens the directory and
    must answer its expensive stages from the store. Cells must be
    bit-identical across the two runs (the store round-trips exact
    serialized artifacts), and a warm run with zero store hits means
    persistence is broken — both abort. The store directory is a temp
    dir, deleted afterwards, so the measurement never leaks state into a
    later invocation.
    """
    binary = os.path.join(build_dir, "bench", name)
    if not os.path.exists(binary):
        return None
    store_dir = tempfile.mkdtemp(prefix="sfcacd_bench_store_")
    try:
        base = list(extra) + [f"--threads={threads}",
                              f"--store={store_dir}"]
        cold = run_sweep_harness(binary, base + ["--store-clear"])
        warm = run_sweep_harness(binary, base)
    finally:
        shutil.rmtree(store_dir, ignore_errors=True)
    if cold["study"]["cells"] != warm["study"]["cells"]:
        sys.exit(f"error: {name}: cold-store and warm-store ACD cells "
                 "differ")
    warm_store = warm.get("artifact_store", {})
    if warm_store.get("hits", 0) == 0:
        sys.exit(f"error: {name}: warm run recorded zero store hits")
    cold_s = cold["elapsed_seconds"]
    warm_s = warm["elapsed_seconds"]
    return {
        "bench": name,
        "args": list(extra),
        "threads": threads,
        "cells": len(warm["study"]["cells"]),
        "cold_seconds": cold_s,
        "warm_seconds": warm_s,
        "speedup": cold_s / warm_s if warm_s > 0 else None,
        "cold_store": cold.get("artifact_store"),
        "warm_store": warm_store,
    }


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--build-dir", default="build-release",
                        help="CMake build directory holding bench binaries")
    parser.add_argument("--out", default="BENCH_acd.json")
    parser.add_argument("--min-time", type=float, default=0.5,
                        help="google-benchmark min time per benchmark (s)")
    parser.add_argument("--repetitions", type=int, default=3,
                        help="benchmark repetitions (medians are reported)")
    parser.add_argument("--with-table1", action="store_true",
                        help="also time a reduced-scale table1_nfi run")
    parser.add_argument("--smoke", action="store_true",
                        help="minimal iterations; timings are indicative only")
    parser.add_argument("--skip-sweep", action="store_true",
                        help="skip the sweep-engine reuse/no-reuse comparison")
    parser.add_argument("--threads", type=int, default=1,
                        help="worker threads for the sweep benches "
                             "(1 = serial, 0 = all cores)")
    opts = parser.parse_args()

    micro = os.path.join(opts.build_dir, "bench", "micro_model")
    if not os.path.exists(micro):
        sys.exit(f"error: {micro} not found — build the bench targets first")

    entries, build = run_micro_model(micro, opts.min_time, opts.repetitions,
                                     opts.smoke)

    nfi = {}
    for radius in ("r1", "r4"):
        agg = entries.get(f"BM_NfiAggregated/{radius}")
        direct = entries.get(f"BM_NfiDirect/{radius}")
        if not agg or not direct:
            continue
        a, d = ns_per_pair(agg), ns_per_pair(direct)
        nfi[radius] = {
            "aggregated_ns_per_pair": a,
            "direct_ns_per_pair": d,
            "speedup": d / a if a and d else None,
        }
        scalar = entries.get(f"BM_NfiAggregatedScalar/{radius}")
        if scalar:
            s = ns_per_pair(scalar)
            nfi[radius]["aggregated_scalar_ns_per_pair"] = s
            nfi[radius]["simd_speedup"] = s / a if s and a else None
    ffi = {}
    agg, direct = entries.get("BM_FfiAggregated"), entries.get("BM_FfiDirect")
    if agg and direct:
        a, d = ns_per_pair(agg), ns_per_pair(direct)
        ffi = {
            "aggregated_ns_per_pair": a,
            "direct_ns_per_pair": d,
            "speedup": d / a if a and d else None,
        }
        # Same fixture at p = 65536: the events go through the sparse
        # accumulator's radix runs instead of a dense p^2 array.
        # Recorded even when missing (None), so check_gates fails closed.
        sp, ratio = run_ffi_sparse(micro, opts.min_time, opts.smoke)
        ffi["sparse_ns_per_event"] = sp
        ffi["sparse_over_dense"] = ratio

    result = {
        "benchmark": "acd_rank_pair_aggregation",
        "scenario": {
            "level": 10,
            "particles": 100000,
            "procs": 256,
            "distribution": "uniform",
            "topology": "torus",
        },
        "smoke": opts.smoke,
        "build": build,
        "nfi": nfi,
        "ffi": ffi,
    }

    micro_curves = os.path.join(opts.build_dir, "bench", "micro_curves")
    if os.path.exists(micro_curves):
        curves, ordering, curves_build = run_micro_curves(
            micro_curves, opts.min_time, opts.smoke)
        if curves_build != build:
            sys.exit("error: micro_curves and micro_model dispatched "
                     f"different SIMD tiers ({curves_build} vs {build}) — "
                     "mixed-provenance numbers are not comparable")
        result["curves"] = curves
        result["ordering"] = ordering

    micro_fold = os.path.join(opts.build_dir, "bench", "micro_fold")
    if os.path.exists(micro_fold):
        result["fold"] = run_micro_fold(micro_fold, opts.min_time, opts.smoke)

    fig7 = run_fig7_scaling(opts.build_dir, opts.smoke)
    if fig7:
        result["fig7_scaling"] = fig7

    dynamics = run_ext_dynamics(opts.build_dir, opts.smoke)
    if dynamics:
        result["dynamics"] = dynamics

    micro_obs = os.path.join(opts.build_dir, "bench", "micro_obs")
    obs = {}
    if os.path.exists(micro_obs):
        obs["ns_per_op"] = run_micro_obs(micro_obs, opts.min_time,
                                         opts.smoke)

    if opts.with_table1:
        table1 = os.path.join(opts.build_dir, "bench", "table1_nfi")
        if os.path.exists(table1):
            result["table1_nfi_reduced"] = {
                "particles": 20000,
                "level": 8,
                "procs": 256,
                "seconds": run_table1(table1),
            }
            if "SpanDisabled" in obs.get("ns_per_op", {}):
                obs["table1_nfi"] = traced_table1_overhead(
                    table1, obs["ns_per_op"])
    if obs:
        result["observability"] = obs

    if not opts.skip_sweep:
        # The engine's reuse leverage is scale-independent (it comes from
        # the grid combinatorics, not n), so smoke mode shrinks n/p to fit
        # a CI budget while still asserting bit-identity and nonzero hits.
        if opts.smoke:
            grids = {
                "table1_nfi": ["--particles=20000", "--level=8",
                               "--procs=1024"],
                "fig6_topologies": ["--particles=20000", "--level=8",
                                    "--procs=1024"],
            }
        else:
            grids = {
                "table1_nfi": [],  # paper defaults: 250k particles, p=65536
                "fig6_topologies": [],  # reduced preset: 150k, p=4096
            }
        sweeps = {}
        for name, extra in grids.items():
            comparison = sweep_comparison(opts.build_dir, name, extra,
                                          opts.threads)
            if comparison:
                sweeps[name] = comparison
        if sweeps:
            result["sweep_engine"] = sweeps
        scaling = scheduler_scaling(opts.build_dir, "fig6_topologies",
                                    grids["fig6_topologies"])
        if scaling:
            result["scheduler_scaling"] = scaling
        warm = warm_store_comparison(opts.build_dir, "table1_nfi",
                                     grids["table1_nfi"], opts.threads)
        if warm:
            result["warm_store"] = warm

    # The committed file (if any) is the regression baseline — read it
    # before overwriting.
    previous = None
    if os.path.exists(opts.out):
        try:
            with open(opts.out) as f:
                previous = json.load(f)
        except (OSError, json.JSONDecodeError):
            previous = None
    failures = check_gates(result, previous, opts.smoke)

    with open(opts.out, "w") as f:
        json.dump(result, f, indent=2)
        f.write("\n")
    print(f"wrote {opts.out}")
    print(f"  simd: {build['simd']} dispatched "
          f"({build['simd_compiled']} compiled)")
    for radius, r in nfi.items():
        speed = r["speedup"]
        simd = (f", simd {r['simd_speedup']:.2f}x"
                if r.get("simd_speedup") else "")
        print(f"  nfi/{radius}: {r['aggregated_ns_per_pair']:.2f} ns/pair "
              f"aggregated vs {r['direct_ns_per_pair']:.2f} direct "
              f"({speed:.2f}x{simd})" if speed
              else f"  nfi/{radius}: incomplete")
    if ffi and ffi.get("speedup"):
        print(f"  ffi: {ffi['aggregated_ns_per_pair']:.2f} ns/pair aggregated "
              f"vs {ffi['direct_ns_per_pair']:.2f} direct "
              f"({ffi['speedup']:.2f}x)")
    if ffi and ffi.get("sparse_over_dense"):
        print(f"  ffi sparse (p=65536): {ffi['sparse_ns_per_event']:.2f} "
              f"ns/event, {ffi['sparse_over_dense']:.2f}x dense")
    for name, s in result.get("sweep_engine", {}).items():
        print(f"  sweep/{name}: {s['reuse_seconds']:.2f}s reuse vs "
              f"{s['direct_seconds']:.2f}s direct ({s['speedup']:.2f}x), "
              f"{s['cache']['hits']} hits / {s['cache']['misses']} builds, "
              f"peak {s['cache']['peak_bytes']} of "
              f"{s['cache']['built_bytes']} bytes built")
    sched = result.get("scheduler_scaling")
    if sched and sched.get("speedup") is not None:
        print(f"  scheduler: {sched['serial_seconds']:.2f}s @1 thread vs "
              f"{sched['threads8_seconds']:.2f}s @8 "
              f"({sched['speedup']:.2f}x on {sched['cpus']} cpus)")
    warm = result.get("warm_store")
    if warm and warm.get("speedup") is not None:
        print(f"  warm_store: {warm['cold_seconds']:.2f}s cold vs "
              f"{warm['warm_seconds']:.2f}s warm "
              f"({warm['speedup']:.2f}x, "
              f"{warm['warm_store']['hits']} store hits)")
    obs_out = result.get("observability", {})
    for name, ns in sorted(obs_out.get("ns_per_op", {}).items()):
        print(f"  obs/{name}: {ns:.2f} ns/op")
    if "table1_nfi" in obs_out:
        o = obs_out["table1_nfi"]
        print(f"  obs/table1_nfi: {o['spans']} spans, disabled-tracing "
              f"overhead bound {o['disabled_overhead_pct']:.5f}% (< 1%)")
    for curve, c in sorted(result.get("curves", {}).items()):
        if c.get("speedup"):
            simd = (f", simd {c['simd_speedup']:.2f}x"
                    if c.get("simd_speedup") else "")
            print(f"  encode/{curve}: {c['per_point_ns']:.2f} ns/point "
                  f"virtual vs {c['batched_ns']:.2f} batched "
                  f"({c['speedup']:.2f}x{simd})")
    for topo, f in sorted(result.get("fold", {}).get("topologies", {})
                          .items()):
        cold = (f", {f['cold_speedup']:.0f}x vs cold-dense"
                if f.get("cold_speedup") else "")
        warm = (f", {f['warm_speedup']:.2f}x vs warm-dense"
                if f.get("warm_speedup") else "")
        print(f"  fold/{topo}: {f['factorized_ns_per_pair']:.2f} ns/pair "
              f"factorized{cold}{warm}")
    if "fig7_scaling" in result:
        f7 = result["fig7_scaling"]
        print(f"  fig7 @ 2^20 ranks: {f7['elapsed_seconds']:.1f}s, peak RSS "
              f"{f7['peak_rss_bytes'] / 2**20:.0f} MiB (< 1024)")
    if "dynamics" in result:
        dyn = result["dynamics"]
        print(f"  dynamics: incremental timestep {dyn['speedup_p50']:.2f}x "
              f"vs full recompute at move fraction "
              f"{dyn['move_fraction']:.2f} ({dyn['steps']} steps; "
              f"{dyn.get('incremental_ms_p50', float('nan')):.1f} ms vs "
              f"{dyn.get('recompute_ms_p50', float('nan')):.1f} ms)")
    for curve, o in sorted(result.get("ordering", {}).items()):
        if o.get("speedup"):
            simd = (f", simd {o['simd_speedup']:.2f}x"
                    if o.get("simd_speedup") else "")
            print(f"  ordering/{curve}: "
                  f"{o['virtual_stable_sort_ns_per_point']:.2f} ns/point "
                  f"baseline vs {o['batched_radix_ns_per_point']:.2f} "
                  f"batched+radix ({o['speedup']:.2f}x{simd})")
    if failures:
        for f in failures:
            print(f"GATE FAILED: {f}", file=sys.stderr)
        attribute_failures(previous, result)
        sys.exit(1)


def attribute_failures(previous, result):
    """On a gate failure, name the suspect stage automatically.

    Diffs the committed baseline's stage profiles against this run's
    (scripts/attribute_regression.py) so the CI log says *which stage*
    slowed, not just that a threshold tripped. Best-effort: a baseline
    predating the flight recorder has no profiles and the gate failure
    stands on its own.
    """
    if previous is None:
        return
    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    try:
        import attribute_regression
    except ImportError:
        return
    base_profiles = attribute_regression.extract_profiles(previous)
    cur_profiles = attribute_regression.extract_profiles(result)
    shared = [k for k in cur_profiles if k in base_profiles]
    if not shared:
        print("attribution: no stage profiles in both documents; "
              "re-run after committing a baseline with the flight "
              "recorder enabled", file=sys.stderr)
        return
    for label in shared:
        rows = attribute_regression.attribute(base_profiles[label],
                                              cur_profiles[label])
        attribute_regression.report(label, rows, threshold_pct=1.0,
                                    top=5, out=sys.stderr)


if __name__ == "__main__":
    main()
