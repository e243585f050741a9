// measure.cpp — the untraced end-to-end measurement (--trace 0).
//
// Set-up (pool, store open and scan, a warm-up sweep) is repeated
// kSetupReps times and its median reported as setup_s; with a store, one
// untimed cold sweep fills it first, so every set-up scans a full store
// the way a restarted process finds it. The timed loop then repeats the
// workload's sweep until the window closes. With a store, sweeps come in
// pairs: a cold sweep from a cleared store (writes every artifact) and a
// rerun that reopens and scans the store and is served from it. Without
// one nothing survives between run_study calls, so every sweep is a sample
// of sweep_s and every sweep after the first is also a rerun sample. Every
// sweep's cells are compared bit for bit with the reuse = false oracle.
#include <malloc.h>
#include <sched.h>

#include <cstdio>
#include <exception>
#include <filesystem>
#include <iostream>
#include <memory>

#include "modes.hpp"
#include "util/thread_pool.hpp"

namespace perfbench {

namespace {

constexpr int kSetupReps = 15;
constexpr std::size_t kMaxUnits = 200;

/// Pins the calling thread to one CPU of its original affinity mask at a
/// time; restores the mask on destruction. Inactive when `on` is false.
class CpuRotation {
 public:
  explicit CpuRotation(bool on) {
    if (!on || sched_getaffinity(0, sizeof(mask_), &mask_) != 0) return;
    for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
      if (CPU_ISSET(cpu, &mask_)) cpus_.push_back(cpu);
    }
  }
  ~CpuRotation() {
    if (!cpus_.empty()) sched_setaffinity(0, sizeof(mask_), &mask_);
  }
  CpuRotation(const CpuRotation&) = delete;
  CpuRotation& operator=(const CpuRotation&) = delete;

  void pin(std::size_t k) const {
    if (cpus_.empty()) return;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpus_[k % cpus_.size()], &one);
    sched_setaffinity(0, sizeof(one), &one);
  }

 private:
  cpu_set_t mask_{};
  std::vector<int> cpus_;
};

}  // namespace

void emit(const RunConfig& cfg, const std::string& file,
          const std::string& detail, const std::string& result) {
  std::cout << detail << "\n";
  if (std::FILE* f = std::fopen((cfg.work_dir + "/" + file).c_str(), "w")) {
    std::fprintf(f, "%s\n", detail.c_str());
    std::fclose(f);
  }
  std::cout << result << std::endl;
}

int run_measure(const RunConfig& cfg) {
  using namespace sfc;
  const Workload& w = cfg.workload;
  const std::vector<CellBits> oracle = read_oracle(cfg.oracle_path);
  const std::string store_dir = cfg.work_dir + "/store";
  const std::size_t cells = w.study.cell_count();
  const core::Study warmup = warmup_study(w.study);

  std::uint64_t attempted = 0, failed = 0;
  std::string last_error;
  if (w.store) {
    auto filled = open_store(store_dir, /*clear=*/true);
    core::SweepOptions options;
    options.store = filled.get();
    const core::StudyResult r = core::run_study(w.study, options);
    attempted += cells;
    failed += count_mismatches(cell_bits(r), oracle);
  }

  std::unique_ptr<util::ThreadPool> pool;
  std::unique_ptr<core::ArtifactStore> store;
  std::vector<double> setup;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    store.reset();
    pool.reset();
    const double t0 = now_s();
    if (w.threads > 1) pool = std::make_unique<util::ThreadPool>(w.threads);
    if (w.store) store = open_store(store_dir, /*clear=*/false);
    // The warm-up runs on the calling thread: on the pool its few small
    // tasks made set-up times swing by 2x between processes.
    (void)core::run_study(warmup, core::SweepOptions{});
    setup.push_back(now_s() - t0);
  }

  // One unit is a sweep, or with a store a (cold, rerun) pair. A unit
  // starts only if the previous one's duration still fits the window;
  // without a store at least two sweeps run so there is a rerun sample.
  std::vector<double> sweep_s, warm_s, cpu_s, peaks;
  std::uint64_t warm_hits = 0, warm_misses = 0, warm_corrupt = 0;
  std::uint64_t written_bytes = 0;
  const bool peak_reset = reset_peak_rss();
  const auto sweep = [&](bool rerun) {
    // A cold sweep's store is cleared outside the timing; a rerun's
    // reopen, with its directory scan, is part of the rerun.
    store.reset();
    if (w.store && !rerun) store = open_store(store_dir, /*clear=*/true);

    // Hand freed heap back to the kernel so each sweep's high-water mark
    // starts from the same baseline instead of the last sweep's leftovers.
    malloc_trim(0);
    reset_peak_rss();
    const double c0 = process_cpu_s();
    const double t0 = now_s();
    std::size_t bad = cells;
    try {
      if (w.store && rerun) store = open_store(store_dir, /*clear=*/false);
      core::SweepOptions options;
      options.pool = pool.get();
      options.store = store.get();
      const core::StudyResult r = core::run_study(w.study, options);
      bad = count_mismatches(cell_bits(r), oracle);
    } catch (const std::exception& e) {
      last_error = e.what();
    }
    const double wall = now_s() - t0;
    const double cpu = process_cpu_s() - c0;
    const double peak = peak_rss_mb();
    attempted += cells;

    if (w.store && store) {
      const core::ArtifactStore::Stats st = store->stats();
      if (rerun) {
        warm_hits += st.hits;
        warm_misses += st.misses;
        warm_corrupt += st.corrupt;
        // A rerun that was not served from the store, or found a damaged
        // file, fails the store gate even when its cells are right.
        if (st.hits == 0 || st.corrupt != 0) bad = cells;
      } else {
        written_bytes += st.spilled_bytes;
      }
    }
    failed += bad;
    if (!w.store || !rerun) {
      sweep_s.push_back(wall);
      cpu_s.push_back(cpu);
      peaks.push_back(peak);
    }
    if (rerun) warm_s.push_back(wall);
  };

  // A serial workload's one thread would otherwise spend the whole run
  // on whichever CPU the kernel picked, and CPUs of a shared host differ
  // in speed from minute to minute; pinning unit k to the k-th CPU of the
  // affinity mask makes every run average over all of them. The mask is
  // restored before the host fingerprint reads it.
  {
    const CpuRotation rotation(w.threads == 1);
    const double deadline = now_s() + cfg.seconds;
    double unit_s = 0.0;
    for (std::size_t unit = 0; unit < kMaxUnits; ++unit) {
      const double start = now_s();
      const bool need_rerun = !w.store && unit < 2;
      if (unit > 0 && !need_rerun && start + unit_s > deadline) break;
      rotation.pin(unit);
      sweep(/*rerun=*/!w.store && unit > 0);
      if (w.store) sweep(/*rerun=*/true);
      unit_s = now_s() - start;
    }
  }

  const double error_rate =
      static_cast<double>(failed) / static_cast<double>(attempted);
  JsonObject detail;
  detail.add("workload", w.name)
      .add("seed", static_cast<std::uint64_t>(w.study.seed))
      .add("scale", cfg.scale)
      .add("trace", std::uint64_t{0})
      .add("threads", static_cast<std::uint64_t>(w.threads))
      .add("cells_per_sweep", static_cast<std::uint64_t>(cells))
      .add_raw("host", host_fingerprint(cfg.source_hash))
      .add("sweep_s", summarize(sweep_s))
      .add("warm_sweep_s", summarize(warm_s))
      .add("cpu_s", summarize(cpu_s))
      .add("setup_s", summarize(setup))
      .add("peak_rss_mb", summarize(peaks))
      .add("peak_rss_per_sweep", peak_reset)
      .add("error_rate", error_rate);
  if (w.store) {
    detail.add_raw("store", JsonObject()
                                .add("warm_hits", warm_hits)
                                .add("warm_misses", warm_misses)
                                .add("warm_corrupt", warm_corrupt)
                                .add("cold_written_bytes", written_bytes)
                                .str());
  }
  if (!last_error.empty()) detail.add("last_error", last_error);

  const std::vector<Metric> metrics = {
      {"sweep_s", median(sweep_s), "s"},
      {"warm_sweep_s", median(warm_s), "s"},
      {"cpu_s", median(cpu_s), "s"},
      {"peak_rss_mb", median(peaks), "MB"},
      {"setup_s", median(setup), "s"},
  };
  emit(cfg,
       "result-" + w.name + "-" + std::to_string(w.study.seed) + "-trace0.json",
       JsonObject().add_raw("detail", detail.str()).str(),
       result_line(attempted, failed, metrics));
  return 0;
}

int run_storeflip(const RunConfig& cfg) {
  using namespace sfc;
  const Workload& w = cfg.workload;
  const std::vector<CellBits> oracle = read_oracle(cfg.oracle_path);
  const std::string store_dir = cfg.work_dir + "/storeflip";

  {
    auto store = open_store(store_dir, /*clear=*/true);
    core::SweepOptions options;
    options.store = store.get();
    (void)core::run_study(w.study, options);
  }
  // Flip the last byte (payload, covered by the checksum) of the largest
  // stored artifact.
  std::string victim;
  std::uintmax_t victim_size = 0;
  for (const auto& entry : std::filesystem::directory_iterator(store_dir)) {
    if (entry.path().extension() == ".sfcart" &&
        entry.file_size() > victim_size) {
      victim = entry.path().string();
      victim_size = entry.file_size();
    }
  }
  if (victim.empty()) {
    std::cerr << "storeflip: the cold sweep stored nothing\n";
    return 1;
  }
  if (std::FILE* f = std::fopen(victim.c_str(), "r+b")) {
    std::fseek(f, static_cast<long>(victim_size - 1), SEEK_SET);
    const int byte = std::fgetc(f);
    std::fseek(f, static_cast<long>(victim_size - 1), SEEK_SET);
    std::fputc(byte ^ 0x01, f);
    std::fclose(f);
  }

  auto store = open_store(store_dir, /*clear=*/false);
  core::SweepOptions options;
  options.store = store.get();
  const core::StudyResult r = core::run_study(w.study, options);
  const core::ArtifactStore::Stats st = store->stats();
  std::cout << JsonObject()
                   .add("flipped", victim)
                   .add("hits", st.hits)
                   .add("misses", st.misses)
                   .add("corrupt", st.corrupt)
                   .add("failed",
                        static_cast<std::uint64_t>(
                            count_mismatches(cell_bits(r), oracle)))
                   .str()
            << std::endl;
  return 0;
}

}  // namespace perfbench
