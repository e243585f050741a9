// Metamorphic properties of the sweep engine over randomized study
// grids: artifact reuse, the disk store, and graph parallelism are pure
// wall-clock optimizations, so for any Study the result cells, the
// across-trial statistics, and the hit/build counters must be
// bit-identical across those execution strategies.
#include <gtest/gtest.h>
#include <stdlib.h>

#include <cstddef>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <optional>
#include <ostream>
#include <sstream>
#include <string>
#include <vector>

#include "core/artifact_store.hpp"
#include "core/sweep.hpp"
#include "distribution/distribution.hpp"
#include "sfc/curve.hpp"
#include "testing/domain.hpp"
#include "testing/gtest.hpp"
#include "topology/topology.hpp"
#include "util/thread_pool.hpp"

namespace sfc::pbt {
namespace {

util::ThreadPool& shared_pool() {
  static util::ThreadPool pool(4);
  return pool;
}

std::ostream& operator<<(std::ostream& os, const core::Study& s) {
  os << "{n=" << s.particles << ", level=" << s.level << ", radius="
     << s.radius << ", norm="
     << (s.norm == fmm::NeighborNorm::kChebyshev ? "chebyshev" : "manhattan")
     << ", seed=" << s.seed << ", trials=" << s.trials << ", dists=[";
  for (const auto d : s.distributions) os << dist::dist_name(d) << " ";
  os << "], particle_curves=[";
  for (const auto c : s.particle_curves) os << curve_name(c) << " ";
  os << "], processor_curves=[";
  for (const auto c : s.processor_curves) os << curve_name(c) << " ";
  os << "], topologies=[";
  for (const auto t : s.topologies) os << topo::topology_name(t) << " ";
  os << "], procs=[";
  for (const auto p : s.proc_counts) os << p << " ";
  return os << "]}";
}

}  // namespace

// ADL cannot find the operator<< above from the runner (core::Study's
// associated namespace is sfc::core), so register a Printer directly.
namespace detail {
template <>
struct Printer<core::Study> {
  static std::string print(const core::Study& s) {
    std::ostringstream os;
    os << s;
    return os.str();
  }
};
}  // namespace detail

namespace {

/// `count` distinct elements of `options`, keeping the original order.
template <typename T, std::size_t N>
std::vector<T> subset_of(Rand& r, const T (&options)[N], std::size_t count) {
  std::vector<bool> taken(N, false);
  for (std::size_t k = 0; k < count; ++k) {
    std::size_t i = r.below(N);
    while (taken[i]) i = (i + 1) % N;
    taken[i] = true;
  }
  std::vector<T> out;
  for (std::size_t i = 0; i < N; ++i) {
    if (taken[i]) out.push_back(options[i]);
  }
  return out;
}

Gen<core::Study> study_gen() {
  return Gen<core::Study>{
      [](Rand& r) {
        core::Study s;
        s.name = "pbt";
        s.particles = r.between(32, 120);
        s.level = static_cast<unsigned>(r.between(5, 6));
        s.radius = static_cast<unsigned>(r.between(1, 2));
        s.norm = r.coin() ? fmm::NeighborNorm::kChebyshev
                          : fmm::NeighborNorm::kManhattan;
        s.seed = r.u64();
        s.trials = static_cast<unsigned>(r.between(1, 2));
        s.distributions =
            subset_of(r, dist::kAllDistributions, r.between(1, 2));
        s.particle_curves = subset_of(r, kAllCurves, r.between(1, 2));
        s.processor_curves =
            r.coin() ? std::vector<CurveKind>{}  // paired mode
                     : subset_of(r, kAllCurves, r.between(1, 2));
        s.topologies = subset_of(r, topo::kAllTopologies, r.between(1, 3));
        const topo::Rank pc_options[] = {1, 4, 16, 64};
        s.proc_counts = subset_of(r, pc_options, r.between(1, 2));
        return s;
      },
      [](const core::Study& s, std::vector<core::Study>& out) {
        auto with = [&s](auto&& mutate) {
          core::Study smaller = s;
          mutate(smaller);
          return smaller;
        };
        if (s.distributions.size() > 1) {
          out.push_back(with(
              [](core::Study& t) { t.distributions.resize(1); }));
        }
        if (s.particle_curves.size() > 1) {
          out.push_back(with(
              [](core::Study& t) { t.particle_curves.resize(1); }));
        }
        if (!s.processor_curves.empty()) {
          out.push_back(with(
              [](core::Study& t) { t.processor_curves.clear(); }));
        }
        if (s.topologies.size() > 1) {
          out.push_back(with([](core::Study& t) { t.topologies.resize(1); }));
        }
        if (s.proc_counts.size() > 1) {
          out.push_back(with([](core::Study& t) { t.proc_counts.resize(1); }));
        }
        if (s.trials > 1) {
          out.push_back(with([](core::Study& t) { t.trials = 1; }));
        }
        if (s.particles > 32) {
          out.push_back(with([&s](core::Study& t) {
            t.particles = 32 + (s.particles - 32) / 2;
          }));
        }
      }};
}

/// study_gen with 2-4 processor counts per study: every ordering feeds
/// several histograms from one walk. The counts include p past the dense
/// budget (4096, sparse histograms), p > n, and p that do not divide n.
Gen<core::Study> multi_procs_study_gen() {
  const Gen<core::Study> base = study_gen();
  return Gen<core::Study>{
      [base](Rand& r) {
        core::Study s = base.sample(r);
        const topo::Rank pc_options[] = {1, 4, 16, 64, 256, 4096};
        s.proc_counts = subset_of(r, pc_options, r.between(2, 4));
        return s;
      },
      [base](const core::Study& s, std::vector<core::Study>& out) {
        if (s.proc_counts.size() > 2) {
          core::Study fewer = s;
          fewer.proc_counts.pop_back();
          out.push_back(fewer);
        }
        for (const core::Study& smaller : base.shrinks(s)) {
          if (smaller.proc_counts.size() >= 2) out.push_back(smaller);
        }
      }};
}

// Exact (bit-level) comparison helpers: the engine's contract is
// bit-identical results, not approximately-equal ones.

std::optional<std::string> expect_same_cells(const core::StudyResult& a,
                                             const core::StudyResult& b,
                                             const char* what) {
  if (a.cells.size() != b.cells.size()) {
    return std::string(what) + ": cell counts differ";
  }
  for (std::size_t i = 0; i < a.cells.size(); ++i) {
    if (a.cells[i].nfi_acd != b.cells[i].nfi_acd ||
        a.cells[i].ffi_acd != b.cells[i].ffi_acd) {
      return std::string(what) + ": cell " + std::to_string(i) + " differs";
    }
  }
  if (a.stats.size() != b.stats.size()) {
    return std::string(what) + ": stats sizes differ";
  }
  for (std::size_t i = 0; i < a.stats.size(); ++i) {
    const auto& sa = a.stats[i];
    const auto& sb = b.stats[i];
    if (sa.nfi.count() != sb.nfi.count() || sa.nfi.mean() != sb.nfi.mean() ||
        sa.nfi.ci95_halfwidth() != sb.nfi.ci95_halfwidth() ||
        sa.ffi.count() != sb.ffi.count() || sa.ffi.mean() != sb.ffi.mean() ||
        sa.ffi.ci95_halfwidth() != sb.ffi.ci95_halfwidth()) {
      return std::string(what) + ": stats " + std::to_string(i) + " differ";
    }
  }
  return std::nullopt;
}

/// Per-stage hits/builds and built bytes are counted on the planning
/// thread, so they must not depend on scheduling. (peak_bytes is
/// measured while the graph runs and does.)
bool same_sweep_stats(const core::SweepStats& a, const core::SweepStats& b) {
  for (unsigned i = 0; i < core::kSweepStageCount; ++i) {
    if (a.stages[i].hits != b.stages[i].hits ||
        a.stages[i].misses != b.stages[i].misses) {
      return false;
    }
  }
  return a.built_bytes == b.built_bytes;
}

TEST(SweepDiff, ReuseMatchesColdPath) {
  SFCACD_PBT_CHECK_CFG(
      study_gen(), CheckConfig{}.scaled(0.05),
      [](const core::Study& s) -> std::optional<std::string> {
        core::SweepOptions reuse;
        core::SweepOptions cold;
        cold.reuse = false;
        const core::StudyResult a = core::run_study(s, reuse);
        const core::StudyResult b = core::run_study(s, cold);
        return expect_same_cells(a, b, "reuse vs cold");
      });
}

TEST(SweepDiff, ThreadedMatchesSerial) {
  SFCACD_PBT_CHECK_CFG(
      study_gen(), CheckConfig{}.scaled(0.05),
      [](const core::Study& s) -> std::optional<std::string> {
        core::SweepOptions serial;
        core::SweepOptions threaded;
        threaded.pool = &shared_pool();
        const core::StudyResult a = core::run_study(s, serial);
        const core::StudyResult b = core::run_study(s, threaded);
        if (auto err = expect_same_cells(a, b, "threaded vs serial")) {
          return err;
        }
        if (!same_sweep_stats(a.sweep, b.sweep)) {
          return "threaded sweep counters differ from serial";
        }
        // The raw sample is freed before any fold exists, so no moment
        // holds every artifact the run built.
        for (const core::StudyResult* r : {&a, &b}) {
          if (r->sweep.peak_bytes == 0 ||
              r->sweep.peak_bytes >= r->sweep.built_bytes) {
            return "live-byte peak " + std::to_string(r->sweep.peak_bytes) +
                   " not in (0, built " +
                   std::to_string(r->sweep.built_bytes) + ")";
          }
        }
        return std::nullopt;
      });
}

TEST(SweepDiff, EveryThreadCountMatchesTheNoReuseOracle) {
  // The cell-graph scheduler at any width must agree bit-for-bit with
  // both the serial reuse engine and the from-scratch per-cell oracle,
  // and the hit/build counters must not depend on the thread count.
  SFCACD_PBT_CHECK_CFG(
      study_gen(), CheckConfig{}.scaled(0.03),
      [](const core::Study& s) -> std::optional<std::string> {
        static util::ThreadPool pool2(2);
        static util::ThreadPool pool8(8);
        core::SweepOptions oracle;
        oracle.reuse = false;
        const core::StudyResult base = core::run_study(s, oracle);
        const core::StudyResult serial =
            core::run_study(s, core::SweepOptions{});
        if (auto err = expect_same_cells(base, serial, "no-reuse vs serial")) {
          return err;
        }
        for (util::ThreadPool* pool : {&pool2, &shared_pool(), &pool8}) {
          core::SweepOptions threaded;
          threaded.pool = pool;
          const core::StudyResult t = core::run_study(s, threaded);
          const std::string what =
              "no-reuse vs " + std::to_string(pool->size()) + " threads";
          if (auto err = expect_same_cells(base, t, what.c_str())) {
            return err;
          }
          if (!same_sweep_stats(serial.sweep, t.sweep)) {
            return what + ": sweep counters depend on thread count";
          }
        }
        return std::nullopt;
      });
}

/// A fresh store directory for one property case (removed afterwards).
struct TempStoreDir {
  TempStoreDir() {
    char tmpl[] = "/tmp/sfcacd_pbt_store_XXXXXX";
    if (::mkdtemp(tmpl) != nullptr) path = tmpl;
  }
  ~TempStoreDir() {
    std::error_code ec;
    if (!path.empty()) std::filesystem::remove_all(path, ec);
  }
  core::ArtifactStoreOptions options() const {
    core::ArtifactStoreOptions o;
    o.dir = path;
    o.provenance = "pbt-fixed-build";
    return o;
  }
  std::string path;
};

TEST(SweepDiff, SeveralProcessorCountsShareOneWalkExactly) {
  // Each ordering's histograms for every p come from one shared walk.
  // Whatever the set of p — and whichever of them a pre-seeded store
  // already answers, so that only the rest join the walk — the cells
  // must match the from-scratch oracle bit for bit, and the counters
  // (built bytes included) must not depend on the thread count.
  //
  // The random studies are too small for a sparse histogram to fill
  // more than one walk chunk, so one fixed study first: p = 4096 is past
  // the dense budget, and its sealed histograms must hold the same bytes
  // whether one thread or four built them.
  {
    core::Study s;
    s.name = "sparse-bytes";
    s.particles = 20000;
    s.level = 8;
    s.seed = 5;
    s.distributions = {dist::DistKind::kUniform};
    s.particle_curves = {CurveKind::kHilbert};
    s.topologies = {topo::TopologyKind::kTorus};
    s.proc_counts = {64, 4096};
    core::SweepOptions threaded;
    threaded.pool = &shared_pool();
    const core::StudyResult serial = core::run_study(s, core::SweepOptions{});
    const core::StudyResult t = core::run_study(s, threaded);
    EXPECT_EQ(expect_same_cells(serial, t, "sparse p: threaded vs serial"),
              std::nullopt);
    EXPECT_EQ(t.sweep.built_bytes, serial.sweep.built_bytes);
    EXPECT_TRUE(same_sweep_stats(serial.sweep, t.sweep));
  }
  SFCACD_PBT_CHECK_CFG(
      multi_procs_study_gen(), CheckConfig{}.scaled(0.03),
      [](const core::Study& s) -> std::optional<std::string> {
        core::SweepOptions oracle;
        oracle.reuse = false;
        const core::StudyResult base = core::run_study(s, oracle);
        core::SweepOptions threaded;
        threaded.pool = &shared_pool();
        const core::StudyResult serial =
            core::run_study(s, core::SweepOptions{});
        const core::StudyResult t = core::run_study(s, threaded);
        if (auto err = expect_same_cells(base, serial, "no-reuse vs serial")) {
          return err;
        }
        if (auto err = expect_same_cells(base, t, "no-reuse vs threaded")) {
          return err;
        }
        if (!same_sweep_stats(serial.sweep, t.sweep)) {
          return std::string("threaded sweep counters differ from serial");
        }

        // Seed a store with every other p, then run the full study over
        // it serially and threaded (one copy of the seeded store each).
        // One topology, paired curves and one trial keep the store I/O
        // small; the processor-count axis is what matters here.
        core::Study st = s;
        st.topologies.resize(1);
        st.processor_curves.clear();
        st.trials = 1;
        const core::StudyResult st_base = core::run_study(st, oracle);
        core::Study seed = st;
        seed.proc_counts.clear();
        for (std::size_t i = 0; i < st.proc_counts.size(); i += 2) {
          seed.proc_counts.push_back(st.proc_counts[i]);
        }
        const TempStoreDir serial_dir;
        const TempStoreDir threaded_dir;
        if (serial_dir.path.empty() || threaded_dir.path.empty()) {
          return std::string("mkdtemp failed");
        }
        {
          core::ArtifactStore store(serial_dir.options());
          core::SweepOptions cold;
          cold.store = &store;
          (void)core::run_study(seed, cold);
        }
        std::filesystem::copy(serial_dir.path, threaded_dir.path,
                              std::filesystem::copy_options::recursive |
                                  std::filesystem::copy_options::
                                      overwrite_existing);
        std::optional<core::SweepStats> serial_stats;
        for (const TempStoreDir* dir : {&serial_dir, &threaded_dir}) {
          core::ArtifactStore store(dir->options());
          core::SweepOptions partial;
          partial.store = &store;
          if (dir == &threaded_dir) partial.pool = &shared_pool();
          const core::StudyResult w = core::run_study(st, partial);
          if (auto err =
                  expect_same_cells(st_base, w, "pre-seeded store run")) {
            return err;
          }
          if (store.stats().hits == 0) {
            return std::string("pre-seeded store never hit");
          }
          if (!serial_stats) {
            serial_stats = w.sweep;
          } else if (!same_sweep_stats(*serial_stats, w.sweep)) {
            return std::string(
                "pre-seeded store run: threaded counters differ from serial");
          }
        }
        return std::nullopt;
      });
}

TEST(SweepDiff, StoreRoundTripIsBitIdenticalAndWarmRunsHit) {
  SFCACD_PBT_CHECK_CFG(
      study_gen(), CheckConfig{}.scaled(0.02),
      [](const core::Study& s) -> std::optional<std::string> {
        const TempStoreDir dir;
        if (dir.path.empty()) return std::string("mkdtemp failed");
        const core::StudyResult base =
            core::run_study(s, core::SweepOptions{});
        std::uint64_t spilled = 0;
        {
          core::ArtifactStore store(dir.options());
          core::SweepOptions cold;
          cold.store = &store;
          const core::StudyResult c = core::run_study(s, cold);
          if (auto err = expect_same_cells(base, c, "cold store run")) {
            return err;
          }
          if (store.stats().hits != 0) {
            return std::string("cold run hit a fresh store");
          }
          spilled = store.stats().spills;
        }
        if (spilled == 0) return std::string("cold run persisted nothing");
        {
          // Warm rerun (threaded, through a fresh store handle):
          // deserialized artifacts must fold bit-identically.
          core::ArtifactStore store(dir.options());
          core::SweepOptions warm;
          warm.store = &store;
          warm.pool = &shared_pool();
          const core::StudyResult w = core::run_study(s, warm);
          if (auto err = expect_same_cells(base, w, "warm store run")) {
            return err;
          }
          if (store.stats().hits == 0) {
            return std::string("warm run never hit the store");
          }
        }
        return std::nullopt;
      });
}

TEST(SweepDiff, CorruptedStoreFilesAreMissesNeverWrongAnswers) {
  SFCACD_PBT_CHECK_CFG(
      study_gen(), CheckConfig{}.scaled(0.02),
      [](const core::Study& s) -> std::optional<std::string> {
        namespace fs = std::filesystem;
        const TempStoreDir dir;
        if (dir.path.empty()) return std::string("mkdtemp failed");
        const core::StudyResult base =
            core::run_study(s, core::SweepOptions{});
        {
          core::ArtifactStore store(dir.options());
          core::SweepOptions cold;
          cold.store = &store;
          (void)core::run_study(s, cold);
        }
        // Vandalize every artifact: alternately truncate (mid-payload or
        // below the header) and flip a payload bit. A warm run over this
        // rubble must recompute and still match bit-for-bit.
        std::size_t i = 0;
        for (const auto& entry : fs::directory_iterator(dir.path)) {
          if (entry.path().extension() != ".sfcart") continue;
          const auto size = fs::file_size(entry.path());
          switch (i++ % 3) {
            case 0:
              fs::resize_file(entry.path(), size > 30 ? size - 13 : 0);
              break;
            case 1:
              fs::resize_file(entry.path(), 17);  // below the header
              break;
            default: {
              std::fstream f(entry.path(), std::ios::in | std::ios::out |
                                               std::ios::binary);
              f.seekp(static_cast<std::streamoff>(size - 1));
              char byte = 0x5a;
              f.write(&byte, 1);
              break;
            }
          }
        }
        if (i == 0) return std::string("cold run wrote no artifacts");
        core::ArtifactStore store(dir.options());
        core::SweepOptions warm;
        warm.store = &store;
        const core::StudyResult w = core::run_study(s, warm);
        if (auto err = expect_same_cells(base, w, "corrupted store run")) {
          return err;
        }
        const core::ArtifactStore::Stats st = store.stats();
        if (st.corrupt == 0) {
          return std::string("no probe saw the corruption");
        }
        return std::nullopt;
      });
}

}  // namespace
}  // namespace sfc::pbt
