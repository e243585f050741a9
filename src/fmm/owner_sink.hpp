// owner_sink.hpp — record a source-ordered enumeration into one histogram
// per partition.
//
// The FFI tree walk and the NFI window scan enumerate events between
// particle indices; which ranks an event connects depends only on the
// owner table of the partition. The partitions of one particle ordering
// (its processor counts) therefore share a single enumeration: the walk
// hands each event to a sink, and the sink maps it through every
// partition's owner table into that partition's histogram. The kernels
// are written once against the sink interface:
//
//   source(i)      the events that follow leave particle i's rank;
//   to(j, count)   one event, worth `count`, into particle j's rank.
//
// Both walks visit particles in an order along which every owner table
// is nondecreasing (a partition cuts one curve order into contiguous
// chunks), so each histogram sees its source rank rise. A SourceRow per
// histogram and walk chunk increments the current source's row:
//
//   * dense histograms write their own row in place — no two chunks
//     visit the same source, except the one a chunk seam splits;
//   * seam sources and sparse histograms use a p-length scratch row with
//     a touched list. When the source changes, the touched destinations
//     are sorted and leave as one (key, count) group, and the row is
//     zero again. A chunk's groups are therefore already in key order,
//     and RankPairAccumulator::append_source_groups concatenates the
//     chunk runs, merging only the group a seam splits.
//
// OneOwnerSink is the single-partition case; OwnerSinks loops over the
// partitions per event, reading their ranks from one interleaved table
// so an event's ranks share a cache line. Sinks are a few pointers: the
// kernels take them by value, so their fields live in registers.
#pragma once

#include <algorithm>
#include <array>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "core/rank_pair.hpp"
#include "obs/trace.hpp"
#include "topology/topology.hpp"
#include "util/thread_pool.hpp"

namespace sfc::fmm::detail {

/// One histogram's sink for one chunk of a source-ordered walk.
class SourceRow {
 public:
  static constexpr topo::Rank kNone = ~topo::Rank{0};

  /// `direct` is a dense histogram's count array, whose rows this chunk
  /// writes in place — except the sources `shared_lo`/`shared_hi`
  /// (kNone: none) that neighbouring chunks also visit. nullptr sends
  /// every source through the scratch row (sparse histograms, and dense
  /// ones whose sources may recur across chunks). `scratch` is a zeroed
  /// row of the calling thread, sized to p on first use; closing a group
  /// zeroes it again, so it carries over to the thread's next chunk.
  SourceRow(topo::Rank procs, std::uint64_t* direct, topo::Rank shared_lo,
            topo::Rank shared_hi, std::vector<std::uint64_t>& scratch) noexcept
      : p_(procs),
        direct_(direct),
        shared_lo_(shared_lo),
        shared_hi_(shared_hi),
        scratch_(scratch) {}

  void source(topo::Rank s) {
    if (s == src_) return;
    close();
    src_ = s;
    if (direct_ != nullptr && s != shared_lo_ && s != shared_hi_) {
      row_ = direct_ + std::size_t{s} * p_;
      grouped_ = false;
    } else {
      if (scratch_.empty()) scratch_.resize(p_);
      row_ = scratch_.data();
      grouped_ = true;
    }
  }

  /// One event of the current source. Counts are positive, so a zero
  /// scratch cell is an untouched destination.
  void add(topo::Rank dst, std::uint64_t count) {
    if (grouped_ && row_[dst] == 0) touch(dst);
    row_[dst] += count;
  }

  /// The current source's row, and whether it is the scratch row (whose
  /// first count into a destination must touch() it), for sinks that
  /// keep them in registers between source() calls.
  std::uint64_t* row() const noexcept { return row_; }
  bool grouped() const noexcept { return grouped_; }
  void touch(topo::Rank dst) { touched_.push_back(dst); }

  /// The groups recorded, in visit order (empty when every row was
  /// written in place).
  core::RankPairAccumulator::Run finish() {
    close();
    src_ = kNone;
    return std::move(groups_);
  }

 private:
  void close() {
    if (!grouped_) return;
    std::sort(touched_.begin(), touched_.end());
    const std::uint64_t base = std::uint64_t{src_} * p_;
    for (const topo::Rank dst : touched_) {
      groups_.emplace_back(base + dst, row_[dst]);
      row_[dst] = 0;
    }
    touched_.clear();
    grouped_ = false;
  }

  topo::Rank p_;
  std::uint64_t* direct_;
  topo::Rank shared_lo_;
  topo::Rank shared_hi_;
  std::vector<std::uint64_t>& scratch_;
  topo::Rank src_ = kNone;
  std::uint64_t* row_ = nullptr;
  bool grouped_ = false;
  std::vector<topo::Rank> touched_;
  core::RankPairAccumulator::Run groups_;
};

class OneOwnerSink {
 public:
  OneOwnerSink(const topo::Rank* own, SourceRow* row) noexcept
      : own_(own), src_(row) {}

  void source(std::size_t i) {
    src_->source(own_[i]);
    row_ = src_->row();
    grouped_ = src_->grouped();
  }
  void to(std::size_t j, std::uint64_t count = 1) {
    const topo::Rank dst = own_[j];
    if (grouped_ && row_[dst] == 0) src_->touch(dst);
    row_[dst] += count;
  }

 private:
  const topo::Rank* own_;
  SourceRow* src_;
  std::uint64_t* row_ = nullptr;  // src_'s current row, cached
  bool grouped_ = false;
};

class OwnerSinks {
 public:
  /// `own[i * k + m]` is particle i's rank under partition m; `rows[m]`
  /// records partition m.
  OwnerSinks(const topo::Rank* own, SourceRow* rows, std::size_t k) noexcept
      : own_(own), rows_(rows), k_(k) {}

  void source(std::size_t i) {
    const topo::Rank* a = own_ + i * k_;
    for (std::size_t m = 0; m < k_; ++m) rows_[m].source(a[m]);
  }
  void to(std::size_t j, std::uint64_t count = 1) {
    const topo::Rank* b = own_ + j * k_;
    for (std::size_t m = 0; m < k_; ++m) rows_[m].add(b[m], count);
  }

 private:
  const topo::Rank* own_;
  SourceRow* rows_;
  std::size_t k_;
};

/// The owner tables of the partitions one walk feeds.
class OwnerTables {
 public:
  /// The tables must outlive this object when there is only one.
  explicit OwnerTables(std::span<const std::vector<topo::Rank>> tables)
      : k_(tables.size()), n_(tables.empty() ? 0 : tables.front().size()) {
    assert(k_ > 0);
    if (k_ == 1) {
      single_ = tables.front().data();
      return;
    }
    packed_.resize(n_ * k_);
    for (std::size_t m = 0; m < k_; ++m) {
      assert(tables[m].size() == n_);
      for (std::size_t i = 0; i < n_; ++i) packed_[i * k_ + m] = tables[m][i];
    }
  }

  std::size_t size() const noexcept { return k_; }

  /// Particle i's rank under table m.
  topo::Rank owner(std::size_t i, std::size_t m) const noexcept {
    return k_ == 1 ? single_[i] : packed_[i * k_ + m];
  }

  /// Walk the n_ particles in `order` (nullptr: index order), split into
  /// chunks on `pool`. walk(sinks, lo, hi) records visit positions
  /// [lo, hi) into sinks[f] (an array of F sinks); sink f records into
  /// families[f][m] for table m. The chunk outputs then join each
  /// histogram under `stitch_span` (multi-chunk walks only). Every
  /// histogram must start empty.
  template <std::size_t F, typename Walk>
  void walk(util::ThreadPool* pool, const std::uint32_t* order,
            std::array<std::span<core::RankPairAccumulator>, F> families,
            const char* stitch_span, Walk&& walk) const {
    using Run = core::RankPairAccumulator::Run;
    const std::size_t n = n_;
    if (n == 0) return;
    const auto own_at = [&](std::size_t pos, std::size_t m) {
      return owner(order == nullptr ? pos : order[pos], m);
    };
    // Tables nondecreasing along the visit order; the others may revisit
    // a source, which dense rows only tolerate in a single chunk.
    std::vector<char> ordered(k_, 1);
    for (std::size_t m = 0; m < k_; ++m) {
      for (std::size_t pos = 1; pos < n && ordered[m]; ++pos) {
        ordered[m] = own_at(pos - 1, m) <= own_at(pos, m);
      }
    }
    const std::size_t workers = pool == nullptr ? 0 : pool->size();
    std::size_t chunks = 1;
    if (workers > 1) {
      chunks = std::clamp<std::size_t>(n / kMinChunk, 1, workers * 4);
    }
    const std::size_t width = F * k_;
    // lists[h * chunks + c]: histogram h's groups from chunk c.
    std::vector<Run> lists(width * chunks);
    // scratch[slot * width + h]: one zeroed row per executing thread.
    std::vector<std::vector<std::uint64_t>> scratch((workers + 1) * width);
    const auto run_chunk = [&](std::size_t c) {
      const std::size_t lo = n * c / chunks;
      const std::size_t hi = n * (c + 1) / chunks;
      const std::size_t idx = util::ThreadPool::current_worker_index();
      const std::size_t slot = idx < workers ? idx : workers;
      std::vector<SourceRow> rows;
      rows.reserve(width);
      for (std::size_t f = 0; f < F; ++f) {
        for (std::size_t m = 0; m < k_; ++m) {
          core::RankPairAccumulator& acc = families[f][m];
          std::uint64_t* direct = acc.row(0);
          topo::Rank shared_lo = SourceRow::kNone;
          topo::Rank shared_hi = SourceRow::kNone;
          if (chunks > 1 && !ordered[m]) direct = nullptr;
          if (lo > 0 && own_at(lo - 1, m) == own_at(lo, m)) {
            shared_lo = own_at(lo, m);
          }
          if (hi < n && own_at(hi, m) == own_at(hi - 1, m)) {
            shared_hi = own_at(hi - 1, m);
          }
          rows.emplace_back(acc.procs(), direct, shared_lo, shared_hi,
                            scratch[slot * width + f * k_ + m]);
        }
      }
      if (k_ == 1) {
        std::array<OneOwnerSink, F> sinks = make_sinks<F>(
            [&](std::size_t f) { return OneOwnerSink(single_, &rows[f]); });
        walk(sinks, lo, hi);
      } else {
        std::array<OwnerSinks, F> sinks = make_sinks<F>([&](std::size_t f) {
          return OwnerSinks(packed_.data(), rows.data() + f * k_, k_);
        });
        walk(sinks, lo, hi);
      }
      for (std::size_t h = 0; h < width; ++h) {
        lists[h * chunks + c] = rows[h].finish();
      }
    };
    if (chunks == 1) {
      run_chunk(0);
    } else {
      util::parallel_for_chunks(*pool, 0, chunks, 1,
                                [&](std::size_t lo, std::size_t hi) {
                                  for (std::size_t c = lo; c < hi; ++c) {
                                    run_chunk(c);
                                  }
                                });
    }
    scratch.clear();
    const auto stitch = [&] {
      for (std::size_t f = 0; f < F; ++f) {
        for (std::size_t m = 0; m < k_; ++m) {
          const std::size_t h = f * k_ + m;
          families[f][m].append_source_groups(
              std::span(lists).subspan(h * chunks, chunks), ordered[m] != 0);
        }
      }
    };
    if (chunks == 1) {
      stitch();
    } else {
      const obs::Span span(stitch_span);
      stitch();
    }
  }

 private:
  /// Smallest chunk of visit positions a walk fans out.
  static constexpr std::size_t kMinChunk = 1024;

  template <std::size_t F, typename Make>
  static auto make_sinks(Make&& make) {
    return [&]<std::size_t... f>(std::index_sequence<f...>) {
      return std::array{make(f)...};
    }(std::make_index_sequence<F>{});
  }

  std::size_t k_;
  std::size_t n_;
  const topo::Rank* single_ = nullptr;  // k_ == 1: the caller's table
  std::vector<topo::Rank> packed_;      // k_ > 1: packed_[i * k_ + m]
};

}  // namespace sfc::fmm::detail
