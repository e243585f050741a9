// study.hpp — the paper's Figure 5 study, the one experiment that is not
// an ACD grid sweep: neighbor stretch vs resolution per curve. The ACD
// tables and figures (Tables I/II, Figures 6/7) are core::Study values
// run by core::run_study (core/sweep.hpp).
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "core/acd.hpp"
#include "core/anns.hpp"
#include "core/sweep.hpp"
#include "util/stats.hpp"

namespace sfc::core {

/// Optional progress sink (long paper-scale runs report per-cell progress).
using ProgressFn = std::function<void(const std::string&)>;

// ---------------------------------------------------------------- Figure 5
struct AnnsStudyConfig {
  std::vector<unsigned> levels{1, 2, 3, 4, 5, 6, 7, 8, 9};  // 2x2 .. 512x512
  unsigned radius = 1;
  std::vector<CurveKind> curves{kPaperCurves, kPaperCurves + 4};
};

struct AnnsStudyResult {
  AnnsStudyConfig config;
  /// stats[curve][level_index].
  std::vector<std::vector<StretchStats>> stats;
};

AnnsStudyResult run_anns_study(const AnnsStudyConfig& config,
                               util::ThreadPool* pool = nullptr,
                               const ProgressFn& progress = {});

}  // namespace sfc::core
