// support.hpp — the pieces every benchmark mode shares: workload
// definitions, the oracle digest, timing and resource probes, summary
// statistics, the host fingerprint and a minimal JSON writer.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "core/sweep.hpp"

namespace perfbench {

// ------------------------------------------------------------- workloads

/// One benchmark workload: the study it sweeps, the worker threads it
/// sweeps with (1 = serial, no pool) and whether it runs over a
/// persistent ArtifactStore.
struct Workload {
  std::string name;
  sfc::core::Study study;
  unsigned threads = 1;
  bool store = false;
};

/// The named workload at paper scale, or at the tiny scale the self-test
/// uses (same grid axes, small particle counts and processor counts).
/// Throws std::invalid_argument for an unknown name.
Workload make_workload(const std::string& name, std::uint64_t seed,
                       bool tiny);

/// The warm-up study run during set-up: the workload's grid with 1/32 of
/// the particles on a grid two levels coarser, so every code path the
/// timed sweeps take (same topologies, same processor counts) is touched
/// once before timing.
sfc::core::Study warmup_study(const sfc::core::Study& study);

/// Worker threads a threaded workload uses: 4, capped at the CPUs in the
/// affinity mask.
unsigned bench_threads();

// ------------------------------------------------------------- oracle

/// Bit patterns of one cell's (nfi_acd, ffi_acd).
using CellBits = std::pair<std::uint64_t, std::uint64_t>;

std::vector<CellBits> cell_bits(const sfc::core::StudyResult& result);

/// Cells of `study` from SweepOptions::reuse = false. Cells are
/// independent, so the study is split into one sub-study per
/// (distribution, particle curve) and those run on `threads` threads.
std::vector<CellBits> compute_oracle(const sfc::core::Study& study,
                                     unsigned threads);

void write_oracle(const std::string& path, const std::vector<CellBits>& bits);
/// Throws std::runtime_error when the file is missing or malformed.
std::vector<CellBits> read_oracle(const std::string& path);

/// Cells of `got` that are not bit-identical to `oracle` (every cell
/// counts as failed when the cell counts differ).
std::size_t count_mismatches(const std::vector<CellBits>& got,
                             const std::vector<CellBits>& oracle);

// ------------------------------------------------------------- probes

/// Seconds on the steady clock.
double now_s();
/// User + system CPU seconds of the whole process (all threads).
double process_cpu_s();
/// Reset the process's RSS high-water mark; false where the kernel does
/// not allow it.
bool reset_peak_rss();
/// Current RSS high-water mark (VmHWM) in MiB; falls back to the
/// process-lifetime ru_maxrss.
double peak_rss_mb();

// ------------------------------------------------------------- statistics

double median(std::vector<double> v);

/// A timing summary: median plus the highest whole percentile that still
/// has at least ten samples beyond it (absent below 11 samples).
struct Summary {
  double median = 0.0;
  int percentile = 0;  ///< 0 = no percentile has ten samples beyond it
  double percentile_value = 0.0;
  std::size_t samples = 0;
};

Summary summarize(const std::vector<double>& v);

// ------------------------------------------------------------- JSON

/// Shortest round-trip decimal form of a double (non-finite → null).
std::string json_number(double v);
std::string json_string(const std::string& s);

/// Insertion-ordered JSON object.
class JsonObject {
 public:
  JsonObject& add(const std::string& key, double v);
  JsonObject& add(const std::string& key, std::uint64_t v);
  JsonObject& add(const std::string& key, bool v);
  JsonObject& add(const std::string& key, const std::string& v);
  JsonObject& add(const std::string& key, const char* v);
  JsonObject& add_raw(const std::string& key, const std::string& json);
  JsonObject& add(const std::string& key, const Summary& s);
  std::string str() const;

 private:
  std::vector<std::pair<std::string, std::string>> fields_;
};

/// A named metric in the result line: {"value": v, "unit": u}.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// The result line: exactly correct/attempted/failed/metrics.
std::string result_line(std::uint64_t attempted, std::uint64_t failed,
                        const std::vector<Metric>& metrics);

/// {"cpus":..,"cpu_model":..,"build_type":..,"simd":..,"git_sha":..,
///  "source_hash":..,"compiler":..} — absolute numbers are comparable
/// only between results whose fingerprints match.
std::string host_fingerprint(const std::string& source_hash);

}  // namespace perfbench
