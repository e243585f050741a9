// modes.hpp — the driver's run modes. Each prints its output on stdout;
// the measuring modes end with the one-line result object.
#pragma once

#include <memory>
#include <string>

#include "core/artifact_store.hpp"
#include "support.hpp"

namespace perfbench {

struct RunConfig {
  Workload workload;
  std::string scale;        ///< "paper" or "tiny"
  double seconds = 10.0;    ///< measurement window of the timed loop
  std::string oracle_path;  ///< digest written by the oracle mode
  std::string work_dir;     ///< stores and traces live here
  std::string source_hash;  ///< hash of the library sources, for the fingerprint
};

/// Untraced end-to-end measurement (--trace 0).
int run_measure(const RunConfig& cfg);

/// Traced per-layer pass (--trace 1).
int run_traced(const RunConfig& cfg);

/// Self-test: cold sweep into a store, flip one byte of a stored file,
/// warm rerun; prints {"corrupt":..,"hits":..,"misses":..,"failed":..}.
int run_storeflip(const RunConfig& cfg);

inline std::unique_ptr<sfc::core::ArtifactStore> open_store(
    const std::string& dir, bool clear) {
  sfc::core::ArtifactStoreOptions options;
  options.dir = dir;
  options.clear = clear;
  return std::make_unique<sfc::core::ArtifactStore>(options);
}

/// Print the detail line, save it as <work_dir>/<file>, then print the
/// result line last.
void emit(const RunConfig& cfg, const std::string& file,
          const std::string& detail, const std::string& result);

}  // namespace perfbench
