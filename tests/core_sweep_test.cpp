// Sweep-engine tests at toy scale: the artifact-reusing path must be
// bit-identical to evaluating every cell from scratch, the hit/build
// counters must match the grid combinatorics exactly (they are counted
// on the coordinating thread in grid order), and every artifact must be
// freed at its last use.
#include "core/sweep.hpp"

#include <gtest/gtest.h>
#include <stdlib.h>

#include <cstring>
#include <filesystem>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/artifact_store.hpp"
#include "obs/flight.hpp"
#include "util/thread_pool.hpp"

namespace sfc::core {
namespace {

// --------------------------------------------------------------- fixtures

/// Table I in miniature: full {particle x processor} curve cross product,
/// two distributions, one torus, both interaction models.
Study toy_combination_study() {
  Study s;
  s.name = "toy_combination";
  s.particles = 900;
  s.level = 5;  // 32 x 32
  s.radius = 1;
  s.seed = 11;
  s.trials = 1;
  s.distributions = {dist::DistKind::kUniform, dist::DistKind::kNormal};
  s.particle_curves = {CurveKind::kHilbert, CurveKind::kMorton,
                       CurveKind::kRowMajor};
  s.processor_curves = s.particle_curves;
  s.topologies = {topo::TopologyKind::kTorus};
  s.proc_counts = {64};
  return s;
}

/// Figure 6 in miniature: paired curves, a topology axis that mixes
/// ranked (mesh, torus) and naturally-labeled (quadtree, hypercube)
/// networks.
Study toy_topology_study() {
  Study s;
  s.name = "toy_topology";
  s.particles = 900;
  s.level = 5;
  s.radius = 1;
  s.seed = 11;
  s.trials = 1;
  s.distributions = {dist::DistKind::kUniform};
  s.particle_curves = {CurveKind::kHilbert, CurveKind::kMorton,
                       CurveKind::kRowMajor};
  s.processor_curves.clear();  // paired mode
  s.topologies = {topo::TopologyKind::kMesh, topo::TopologyKind::kTorus,
                  topo::TopologyKind::kQuadtree,
                  topo::TopologyKind::kHypercube};
  s.proc_counts = {64};
  return s;
}

void expect_bit_identical(const StudyResult& a, const StudyResult& b) {
  ASSERT_EQ(a.cells.size(), b.cells.size());
  for (std::size_t i = 0; i < a.cells.size(); ++i) {
    // Bit-level equality, not tolerance: folds sum exact integers and the
    // float accumulation order is the same on both paths.
    EXPECT_EQ(std::memcmp(&a.cells[i], &b.cells[i], sizeof(AcdCell)), 0)
        << "cell " << i << ": (" << a.cells[i].nfi_acd << ", "
        << a.cells[i].ffi_acd << ") vs (" << b.cells[i].nfi_acd << ", "
        << b.cells[i].ffi_acd << ")";
  }
}

// ------------------------------------------------------------ equivalence

TEST(SweepEngine, CombinationGridMatchesDirectBitForBit) {
  const Study s = toy_combination_study();
  const SweepOptions reuse{nullptr, true, {}};
  const SweepOptions direct{nullptr, false, {}};
  expect_bit_identical(run_study(s, reuse), run_study(s, direct));
}

TEST(SweepEngine, TopologyGridMatchesDirectBitForBit) {
  const Study s = toy_topology_study();
  const SweepOptions reuse{nullptr, true, {}};
  const SweepOptions direct{nullptr, false, {}};
  expect_bit_identical(run_study(s, reuse), run_study(s, direct));
}

TEST(SweepEngine, MultiTrialMatchesDirectBitForBit) {
  Study s = toy_combination_study();
  s.trials = 3;
  s.distributions = {dist::DistKind::kExponential};
  const SweepOptions reuse{nullptr, true, {}};
  const SweepOptions direct{nullptr, false, {}};
  const auto a = run_study(s, reuse);
  const auto b = run_study(s, direct);
  expect_bit_identical(a, b);
  for (std::size_t i = 0; i < a.stats.size(); ++i) {
    EXPECT_DOUBLE_EQ(a.stats[i].nfi.ci95_halfwidth(),
                     b.stats[i].nfi.ci95_halfwidth());
    EXPECT_DOUBLE_EQ(a.stats[i].ffi.ci95_halfwidth(),
                     b.stats[i].ffi.ci95_halfwidth());
  }
}

TEST(SweepEngine, SparseHistogramsMatchDirectBitForBit) {
  // p = 4096 pushes the rank-pair accumulators past the dense p² budget
  // into the sorted-sparse representation — the paper-scale (p = 65536)
  // regime — so the canonical-order enumeration must also reproduce the
  // staged/compacted path bit-for-bit, including ranks with no
  // particles (p greatly exceeds n here).
  Study s = toy_combination_study();
  s.distributions = {dist::DistKind::kUniform};
  s.proc_counts = {4096};
  const SweepOptions reuse{nullptr, true, {}};
  const SweepOptions direct{nullptr, false, {}};
  expect_bit_identical(run_study(s, reuse), run_study(s, direct));
}

TEST(SweepEngine, ThreadedFoldsMatchSerialBitForBit) {
  const Study s = toy_topology_study();
  util::ThreadPool pool(4);
  const SweepOptions threaded{&pool, true, {}};
  const SweepOptions serial{nullptr, true, {}};
  expect_bit_identical(run_study(s, threaded), run_study(s, serial));
}

TEST(SweepEngine, ScalingAxisMatchesDirectBitForBit) {
  Study s = toy_topology_study();
  s.name = "toy_scaling";
  s.topologies = {topo::TopologyKind::kTorus};
  s.proc_counts = {16, 64, 256};
  const SweepOptions reuse{nullptr, true, {}};
  const SweepOptions direct{nullptr, false, {}};
  expect_bit_identical(run_study(s, reuse), run_study(s, direct));
}

// ---------------------------------------------------- artifact accounting

TEST(SweepEngine, CombinationGridCacheCounts) {
  // 2 distributions x 3 particle curves x 3 processor curves x 1 torus:
  //   sample:    1 build per distribution, consumed once by canonical
  //   canonical: cell-sorted copy + grid, 1 per distribution
  //   ordering:  rank table per (distribution, curve), looked up once
  //              per row
  //   instance:  every (distribution, curve) pair is distinct (FFI tree)
  //   histograms: built once per (distribution, particle curve), shared
  //              by the 3 processor orders
  //   topology:  the torus is ranked, so one build per processor curve,
  //              shared across distributions and particle curves
  //   fold:      one per cell, covering both models
  const Study s = toy_combination_study();
  const auto run = run_study(s, SweepOptions{});
  const SweepStats& st = run.sweep;
  EXPECT_EQ(st.stage(SweepStage::kSample).misses, 2u);
  EXPECT_EQ(st.stage(SweepStage::kSample).hits, 0u);
  EXPECT_EQ(st.stage(SweepStage::kCanonical).misses, 2u);
  EXPECT_EQ(st.stage(SweepStage::kCanonical).hits, 0u);
  EXPECT_EQ(st.stage(SweepStage::kOrdering).misses, 6u);
  EXPECT_EQ(st.stage(SweepStage::kOrdering).hits, 0u);
  EXPECT_EQ(st.stage(SweepStage::kInstance).misses, 6u);
  EXPECT_EQ(st.stage(SweepStage::kInstance).hits, 0u);
  EXPECT_EQ(st.stage(SweepStage::kNfiHistogram).misses, 6u);
  EXPECT_EQ(st.stage(SweepStage::kNfiHistogram).hits, 12u);
  EXPECT_EQ(st.stage(SweepStage::kFfiHistogram).misses, 6u);
  EXPECT_EQ(st.stage(SweepStage::kFfiHistogram).hits, 12u);
  EXPECT_EQ(st.stage(SweepStage::kTopology).misses, 3u);
  EXPECT_EQ(st.stage(SweepStage::kTopology).hits, 15u);
  EXPECT_EQ(st.stage(SweepStage::kFold).misses, 18u);
  EXPECT_EQ(st.stage(SweepStage::kFold).hits, 0u);
  EXPECT_EQ(st.evictions, 0u);
  EXPECT_GT(st.peak_bytes, 0u);
  EXPECT_LE(st.peak_bytes, st.built_bytes);
}

TEST(SweepEngine, TopologyGridCacheCounts) {
  // 3 paired curves x 4 topologies: histograms are topology-independent
  // (1 build + 3 hits per curve); mesh and torus embed an SFC ranking so
  // they rebuild per curve, while quadtree and hypercube are shared.
  const Study s = toy_topology_study();
  const auto run = run_study(s, SweepOptions{});
  const SweepStats& st = run.sweep;
  EXPECT_EQ(st.stage(SweepStage::kSample).misses, 1u);
  EXPECT_EQ(st.stage(SweepStage::kSample).hits, 0u);
  EXPECT_EQ(st.stage(SweepStage::kCanonical).misses, 1u);
  EXPECT_EQ(st.stage(SweepStage::kOrdering).misses, 3u);
  EXPECT_EQ(st.stage(SweepStage::kInstance).misses, 3u);
  EXPECT_EQ(st.stage(SweepStage::kNfiHistogram).misses, 3u);
  EXPECT_EQ(st.stage(SweepStage::kNfiHistogram).hits, 9u);
  EXPECT_EQ(st.stage(SweepStage::kFfiHistogram).misses, 3u);
  EXPECT_EQ(st.stage(SweepStage::kFfiHistogram).hits, 9u);
  EXPECT_EQ(st.stage(SweepStage::kTopology).misses, 8u);
  EXPECT_EQ(st.stage(SweepStage::kTopology).hits, 4u);
  EXPECT_EQ(st.stage(SweepStage::kFold).misses, 12u);
}

TEST(SweepEngine, ArtifactsAreFreedAtLastUse) {
  // Every artifact is freed once its last reader finishes, so the live
  // high-water mark stays below the total the run built — serially and
  // with the graph spread over eight workers. An engine that kept every
  // output until the sweep ends peaks at exactly built_bytes.
  const Study s = toy_combination_study();
  util::ThreadPool one(1);
  util::ThreadPool eight(8);
  for (util::ThreadPool* pool : {&one, &eight}) {
    SweepOptions options;
    options.pool = pool;
    const SweepStats st = run_study(s, options).sweep;
    EXPECT_GT(st.peak_bytes, 0u) << pool->size() << " threads";
    EXPECT_LT(st.peak_bytes, st.built_bytes) << pool->size() << " threads";
  }
}

TEST(SweepEngine, DuplicateAxisValuesShareEveryArtifact) {
  // Every axis repeats a value. A repeated value names the same
  // artifacts, so each distinct artifact is built once, every repeat is
  // a hit, and the cells at repeated indices are identical.
  Study s;
  s.name = "duplicate_axes";
  s.particles = 400;
  s.level = 5;
  s.seed = 23;
  s.distributions = {dist::DistKind::kUniform, dist::DistKind::kNormal,
                     dist::DistKind::kUniform};
  s.particle_curves = {CurveKind::kHilbert, CurveKind::kMorton,
                       CurveKind::kHilbert};
  s.processor_curves = {CurveKind::kRowMajor, CurveKind::kHilbert,
                        CurveKind::kRowMajor};
  s.topologies = {topo::TopologyKind::kTorus, topo::TopologyKind::kHypercube,
                  topo::TopologyKind::kTorus};
  s.proc_counts = {16, 64, 16};
  SweepOptions direct;
  direct.reuse = false;
  const StudyResult run = run_study(s, SweepOptions{});
  expect_bit_identical(run, run_study(s, direct));

  // 3^5 = 243 cells over 2 distinct values per axis. The canonical
  // sample is looked up per row, the orderings and instances per row and
  // curve, the rest per cell: 2 samples; 4 orderings and instances; 8
  // histograms of each model; a ranked torus per (p, processor curve)
  // and one hypercube per p; per histogram pair 2 tori + 1 hypercube.
  const SweepStats& st = run.sweep;
  const auto expect_counts = [&st](SweepStage stage, std::uint64_t builds,
                                   std::uint64_t hits) {
    EXPECT_EQ(st.stage(stage).misses, builds) << sweep_stage_name(stage);
    EXPECT_EQ(st.stage(stage).hits, hits) << sweep_stage_name(stage);
  };
  expect_counts(SweepStage::kSample, 2, 0);
  expect_counts(SweepStage::kCanonical, 2, 1);
  expect_counts(SweepStage::kOrdering, 4, 5);
  expect_counts(SweepStage::kInstance, 4, 5);
  expect_counts(SweepStage::kNfiHistogram, 8, 235);
  expect_counts(SweepStage::kFfiHistogram, 8, 235);
  expect_counts(SweepStage::kTopology, 6, 237);
  expect_counts(SweepStage::kFold, 24, 219);

  // On every axis, index 2 repeats index 0.
  for (std::size_t d = 0; d < 3; ++d) {
    for (std::size_t pc = 0; pc < 3; ++pc) {
      for (std::size_t pi = 0; pi < 3; ++pi) {
        for (std::size_t rc = 0; rc < 3; ++rc) {
          for (std::size_t ti = 0; ti < 3; ++ti) {
            const auto fold_dup = [](std::size_t i) { return i == 2 ? 0 : i; };
            const AcdCell& a = run.cell(d, pc, pi, rc, ti);
            const AcdCell& b = run.cell(fold_dup(d), fold_dup(pc),
                                        fold_dup(pi), fold_dup(rc),
                                        fold_dup(ti));
            EXPECT_EQ(std::memcmp(&a, &b, sizeof(AcdCell)), 0)
                << d << pc << pi << rc << ti;
          }
        }
      }
    }
  }
}

/// A fresh artifact-store directory, removed afterwards.
class SweepStoreDir {
 public:
  SweepStoreDir() {
    char tmpl[] = "/tmp/sfcacd_sweep_test_XXXXXX";
    if (::mkdtemp(tmpl) != nullptr) path_ = tmpl;
  }
  ~SweepStoreDir() {
    std::error_code ec;
    if (!path_.empty()) std::filesystem::remove_all(path_, ec);
  }
  bool ok() const { return !path_.empty(); }
  ArtifactStoreOptions options() const {
    ArtifactStoreOptions o;
    o.dir = path_;
    o.provenance = "sweep-test-build";
    return o;
  }

 private:
  std::string path_;
};

/// Count of `name` spans in the flight recorder's stage profile (0 when
/// the name never completed).
std::uint64_t span_count(const std::string& profile, const std::string& name) {
  const auto at = profile.find('"' + name + "\":{\"count\":");
  if (at == std::string::npos) return 0;
  return std::stoull(profile.substr(at + name.size() + 12));
}

TEST(SweepEngine, HistogramsShareOneWalkPerOrdering) {
#if defined(SFC_OBS_DISABLE)
  GTEST_SKIP() << "built with SFC_OBS_DISABLE: spans compile to no-ops";
#endif
  // The per-p histograms of one (sample, ordering) come from one window
  // scan and one tree walk, each under one stage span, while builds and
  // hits stay per (ordering, p). Only the processor counts the store
  // does not answer join the walk; an ordering with none left walks
  // nothing.
  Study s = toy_topology_study();
  s.trials = 2;
  s.proc_counts = {16, 64, 256};
  const SweepStoreDir dir;
  ASSERT_TRUE(dir.ok());
  obs::FlightRecorder& rec = obs::FlightRecorder::instance();
  struct Walks {
    std::uint64_t nfi = 0;
    std::uint64_t ffi = 0;
    SweepStats stats;
  };
  // The profile is read only once the run's pool (if any) has joined:
  // a worker may still be closing its task span when run_study returns.
  const auto walks_of = [&rec, &dir](const Study& study, unsigned threads,
                                     bool with_store) {
    rec.clear();
    rec.set_enabled(true);
    Walks w;
    {
      std::optional<util::ThreadPool> pool;
      std::optional<ArtifactStore> store;
      SweepOptions options;
      if (threads > 1) options.pool = &pool.emplace(threads);
      if (with_store) options.store = &store.emplace(dir.options());
      w.stats = run_study(study, options).sweep;
    }
    rec.set_enabled(false);
    const std::string profile = rec.stage_profile_json();
    w.nfi = span_count(profile, "sweep/nfi_histogram");
    w.ffi = span_count(profile, "sweep/ffi_histogram");
    rec.clear();
    return w;
  };

  // 2 trials x 3 curves = 6 (sample, ordering) pairs, 3 p each.
  for (const unsigned threads : {1u, 4u}) {
    const Walks cold = walks_of(s, threads, false);
    EXPECT_EQ(cold.nfi, 6u) << threads << " threads";
    EXPECT_EQ(cold.ffi, 6u) << threads << " threads";
    EXPECT_EQ(cold.stats.stage(SweepStage::kNfiHistogram).misses, 18u);
    EXPECT_EQ(cold.stats.stage(SweepStage::kFfiHistogram).misses, 18u);
    EXPECT_EQ(cold.stats.stage(SweepStage::kFfiHistogram).hits, 54u);
  }

  // Seed the store with p = 64 only: every ordering still misses 16 and
  // 256, so it still walks once.
  Study seed = s;
  seed.proc_counts = {64};
  const Walks seeded = walks_of(seed, 1, true);
  EXPECT_EQ(seeded.nfi, 6u);
  EXPECT_EQ(seeded.ffi, 6u);
  const Walks partial = walks_of(s, 4, true);
  EXPECT_EQ(partial.nfi, 6u);
  EXPECT_EQ(partial.ffi, 6u);
  // Everything is stored now: no ordering has a p left to walk.
  const Walks warm = walks_of(s, 1, true);
  EXPECT_EQ(warm.nfi, 0u);
  EXPECT_EQ(warm.ffi, 0u);
}

TEST(SweepEngine, WarmStoreLoadsFoldsOnly) {
  // A fold the store answers needs none of its inputs, so a warm rerun
  // plans its folds (and the cheap, coordinator-built topologies) and
  // nothing else: no sample, canonical, ordering, instance or histogram
  // is looked up, let alone loaded.
  Study s = toy_combination_study();
  s.trials = 2;
  s.proc_counts = {16, 64};
  const SweepStoreDir dir;
  ASSERT_TRUE(dir.ok());
  StudyResult cold;
  {
    ArtifactStore store(dir.options());
    SweepOptions options;
    options.store = &store;
    cold = run_study(s, options);
    EXPECT_EQ(store.stats().hits, 0u);
  }
  util::ThreadPool pool(4);
  for (util::ThreadPool* p : {static_cast<util::ThreadPool*>(nullptr), &pool}) {
    ArtifactStore store(dir.options());
    SweepOptions options;
    options.store = &store;
    options.pool = p;
    const StudyResult warm = run_study(s, options);
    expect_bit_identical(warm, cold);
    const SweepStats& st = warm.sweep;
    for (const SweepStage stage :
         {SweepStage::kSample, SweepStage::kCanonical, SweepStage::kOrdering,
          SweepStage::kInstance, SweepStage::kNfiHistogram,
          SweepStage::kFfiHistogram}) {
      EXPECT_EQ(st.stage(stage).hits + st.stage(stage).misses, 0u)
          << sweep_stage_name(stage);
    }
    EXPECT_EQ(st.stage(SweepStage::kTopology).misses,
              cold.sweep.stage(SweepStage::kTopology).misses);
    EXPECT_EQ(st.stage(SweepStage::kFold).misses,
              cold.sweep.stage(SweepStage::kFold).misses);
    // Every store load is a fold.
    const ArtifactStore::Stats io = store.stats();
    EXPECT_EQ(io.hits, st.stage(SweepStage::kFold).misses);
    EXPECT_EQ(io.misses, 0u);
    EXPECT_EQ(io.spills, 0u);
  }
}

TEST(SweepEngine, DirectPathReportsNoCacheTraffic) {
  const Study s = toy_topology_study();
  SweepOptions direct;
  direct.reuse = false;
  const auto run = run_study(s, direct);
  EXPECT_EQ(run.sweep.total_hits(), 0u);
  EXPECT_EQ(run.sweep.total_misses(), 0u);
  EXPECT_EQ(run.sweep.peak_bytes, 0u);
}

// ---------------------------------------------------------- result shape

TEST(SweepEngine, ProgressVisitsEveryCellInGridOrder) {
  Study s = toy_topology_study();
  s.trials = 2;
  std::vector<StudyCellRef> seen;
  SweepOptions options;
  options.progress = [&seen](const StudyCellRef& ref, double elapsed_ms) {
    EXPECT_GE(elapsed_ms, 0.0);
    seen.push_back(ref);
  };
  const auto run = run_study(s, options);
  ASSERT_EQ(seen.size(), s.cell_count() * s.trials);
  // Paired mode reports the particle curve as the processor curve.
  for (const StudyCellRef& ref : seen) {
    EXPECT_EQ(ref.processor_curve, ref.particle_curve);
  }
  // Grid order: topology is the innermost axis, trials outermost per
  // distribution — identical to the direct path's visit order.
  std::vector<StudyCellRef> direct_seen;
  options.reuse = false;
  options.progress = [&direct_seen](const StudyCellRef& ref, double) {
    direct_seen.push_back(ref);
  };
  run_study(s, options);
  ASSERT_EQ(direct_seen.size(), seen.size());
  for (std::size_t i = 0; i < seen.size(); ++i) {
    EXPECT_EQ(seen[i].distribution, direct_seen[i].distribution);
    EXPECT_EQ(seen[i].trial, direct_seen[i].trial);
    EXPECT_EQ(seen[i].particle_curve, direct_seen[i].particle_curve);
    EXPECT_EQ(seen[i].proc_count, direct_seen[i].proc_count);
    EXPECT_EQ(seen[i].topology, direct_seen[i].topology);
  }
}

TEST(SweepEngine, NearFieldOnlySkipsFfiStages) {
  Study s = toy_combination_study();
  s.far_field = false;
  const auto run = run_study(s, SweepOptions{});
  EXPECT_EQ(run.sweep.stage(SweepStage::kFfiHistogram).misses, 0u);
  EXPECT_EQ(run.sweep.stage(SweepStage::kFfiHistogram).hits, 0u);
  // Only the FFI tree walk needs a curve-sorted instance, so a
  // near-field-only study never builds one.
  EXPECT_EQ(run.sweep.stage(SweepStage::kInstance).misses, 0u);
  EXPECT_EQ(run.sweep.stage(SweepStage::kInstance).hits, 0u);
  EXPECT_EQ(run.sweep.stage(SweepStage::kFold).misses, 18u);
  for (const AcdCell& cell : run.cells) {
    EXPECT_EQ(cell.ffi_acd, 0.0);
    EXPECT_GT(cell.nfi_acd, 0.0);
  }
}

TEST(SweepEngine, ResultsAndOrderingIdenticalAcrossThreadCounts) {
  // The pool is a pure wall-clock lever: any thread count must reproduce
  // the serial run exactly — the result cells, the across-trial
  // statistics, the hit/build counters and built bytes, and the order in
  // which cells are reported to the progress sink.
  Study s = toy_combination_study();
  s.trials = 2;

  struct RunCapture {
    StudyResult result;
    std::vector<StudyCellRef> progress;
  };
  auto run_with = [&s](util::ThreadPool* pool) {
    RunCapture cap;
    SweepOptions options;
    options.pool = pool;
    options.progress = [&cap](const StudyCellRef& ref, double) {
      cap.progress.push_back(ref);
    };
    cap.result = run_study(s, options);
    return cap;
  };

  const RunCapture serial = run_with(nullptr);
  for (const unsigned threads : {1u, 2u, 4u, 8u}) {
    util::ThreadPool pool(threads);
    const RunCapture threaded = run_with(&pool);
    expect_bit_identical(threaded.result, serial.result);
    for (std::size_t i = 0; i < serial.result.stats.size(); ++i) {
      EXPECT_EQ(threaded.result.stats[i].nfi.mean(),
                serial.result.stats[i].nfi.mean())
          << threads << " threads, stat " << i;
      EXPECT_EQ(threaded.result.stats[i].ffi.ci95_halfwidth(),
                serial.result.stats[i].ffi.ci95_halfwidth());
    }
    for (unsigned st = 0; st < kSweepStageCount; ++st) {
      EXPECT_EQ(threaded.result.sweep.stages[st].hits,
                serial.result.sweep.stages[st].hits)
          << threads << " threads, stage " << st;
      EXPECT_EQ(threaded.result.sweep.stages[st].misses,
                serial.result.sweep.stages[st].misses);
    }
    EXPECT_EQ(threaded.result.sweep.built_bytes,
              serial.result.sweep.built_bytes);
    ASSERT_EQ(threaded.progress.size(), serial.progress.size())
        << threads << " threads";
    for (std::size_t i = 0; i < serial.progress.size(); ++i) {
      EXPECT_EQ(threaded.progress[i].distribution,
                serial.progress[i].distribution);
      EXPECT_EQ(threaded.progress[i].trial, serial.progress[i].trial);
      EXPECT_EQ(threaded.progress[i].particle_curve,
                serial.progress[i].particle_curve);
      EXPECT_EQ(threaded.progress[i].proc_count,
                serial.progress[i].proc_count);
      EXPECT_EQ(threaded.progress[i].processor_curve,
                serial.progress[i].processor_curve);
      EXPECT_EQ(threaded.progress[i].topology, serial.progress[i].topology);
    }
  }
}

TEST(SweepEngine, InvalidTorusSizeThrows) {
  Study s = toy_topology_study();
  s.topologies = {topo::TopologyKind::kTorus};
  s.proc_counts = {60};  // not a power of 4
  EXPECT_THROW(run_study(s, SweepOptions{}), std::invalid_argument);
  SweepOptions direct;
  direct.reuse = false;
  EXPECT_THROW(run_study(s, direct), std::invalid_argument);
}

}  // namespace
}  // namespace sfc::core
