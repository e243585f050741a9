// rank_pair.hpp — (source rank, destination rank) → count aggregation.
//
// The ACD engines enumerate O(n · window) communication events but only
// p² distinct rank pairs exist, so the hot loops record events into one
// of these histograms and the totals are recovered by handing view() to
// Topology::fold(), which picks a structure-exploiting kernel (factorized
// closed form, dense hop table, or streamed BFS). Integer multiplication
// is exact repeated addition, so the folded totals are bit-identical to
// summing the per-event distances in any order — and identical across
// fold strategies.
//
// Storage adapts to p: a dense p² count array while p² fits the budget
// (p <= 2048 by default), and sorted (key → count) runs beyond — sweeps
// at paper scale (p = 65536) never allocate p² memory.
//
// Sparse histograms are filled one of two ways:
//
//   * Source-grouped (the FFI walk and the NFI owners scan,
//     fmm/owner_sink.hpp). The walk visits particles so that each
//     owner table's source rank never decreases; a source's events land
//     in a scratch row and leave it as one dst-sorted group, so each
//     walk chunk's output is already a sorted run.
//     append_source_groups() concatenates the chunk runs into one
//     exact-size run, merging only the source group a chunk seam splits —
//     no staging, no sort, no run merges.
//   * Staged (add()/sub(): DynamicAcd's deltas, the contiguous-partition
//     nfi_histogram, operator+=, tests). Events land in a bounded
//     unsorted staging buffer; a full buffer is radix-sorted on its
//     varying key bytes, equal keys summed and zero nets dropped, and the
//     result appended as one more run. Runs of similar size merge as they
//     appear, so a long-lived histogram holds O(log) runs and O(pairs)
//     memory; seal() merges what is left into one run (smallest first; a
//     small run merges backwards into a large one in place). Combining
//     sparse histograms hands runs over instead of re-adding pairs, so
//     merging per-worker shards is a splice.
//
// Either way a sealed histogram is one run whose capacity equals its
// size, so memory_bytes() depends on the pair multiset alone, not on
// how many workers or merges built it.
//
// Beyond the fast path, the histogram itself is the observability
// artifact for contention modeling: for_each() exposes the exact
// per-rank-pair traffic matrix of a communication set.
#pragma once

#include <algorithm>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "core/totals.hpp"
#include "topology/distance_table.hpp"
#include "topology/topology.hpp"
#include "util/thread_pool.hpp"

namespace sfc::core {

class RankPairAccumulator {
 public:
  /// (src·p + dst, count); a run is sorted by key, keys unique, counts
  /// nonzero.
  using Entry = std::pair<std::uint64_t, std::uint64_t>;
  using Run = std::vector<Entry>;

  /// Dense-mode budget: p² count entries at 8 bytes each (32 MiB).
  static constexpr std::size_t kDenseEntryBudget = std::size_t{1} << 22;

  /// Whether a histogram for `procs` ranks should use the dense p² array.
  /// When the fold strategy is not kDense the p² counts are only ever
  /// walked once by a factorized/streamed kernel, so an enlarged caller
  /// budget is clamped back to the default — million-rank runs must never
  /// attempt the dense allocation no matter what budget they inherit.
  static bool pick_dense(topo::Rank procs, std::size_t dense_budget,
                         topo::FoldStrategy strategy) noexcept {
    if (strategy != topo::FoldStrategy::kDense &&
        dense_budget > kDenseEntryBudget) {
      dense_budget = kDenseEntryBudget;
    }
    return static_cast<std::size_t>(procs) * procs <= dense_budget;
  }

  /// `dense_budget` is a test hook: pass 0 to force the sparse fallback.
  explicit RankPairAccumulator(topo::Rank procs,
                               std::size_t dense_budget = kDenseEntryBudget);

  /// Histogram destined for `net`: the dense/sparse pick threads the
  /// topology's fold strategy through pick_dense().
  RankPairAccumulator(topo::Rank procs, const topo::Topology& net,
                      std::size_t dense_budget = kDenseEntryBudget);

  topo::Rank procs() const noexcept { return p_; }
  bool dense() const noexcept { return is_dense_; }

  /// Record `count` communications from rank `src` to rank `dst`.
  void add(topo::Rank src, topo::Rank dst, std::uint64_t count = 1) {
    if (count == 0) return;
    if (is_dense_) {
      dense_[static_cast<std::size_t>(src) * p_ + dst] += count;
    } else {
      add_sparse(src, dst, count);
    }
  }

  /// Remove `count` previously recorded communications from rank `src` to
  /// rank `dst` — the retraction half of the incremental (delta) update
  /// path. Counts are unsigned, so sparse mode stages the two's-complement
  /// 0 - count and lets the modular sums of the run reduction net it out;
  /// every fold kernel is linear in the counts, so as long as the
  /// *multiset* never goes negative overall (each sub matches an earlier
  /// add), the folded totals stay exact. A per-pair count that a stale
  /// subtraction drives "negative" wraps to a huge value, which the
  /// differential dynamics suite detects immediately.
  void sub(topo::Rank src, topo::Rank dst, std::uint64_t count = 1) {
    if (count == 0) return;
    if (is_dense_) {
      dense_[static_cast<std::size_t>(src) * p_ + dst] -= count;
    } else {
      add_sparse(src, dst, std::uint64_t{0} - count);
    }
  }

  /// Dense-mode count row for a fixed source rank (nullptr in sparse
  /// mode) — lets kernels hoist the row base out of their inner loops.
  std::uint64_t* row(topo::Rank src) noexcept {
    return is_dense_ ? dense_.data() + static_cast<std::size_t>(src) * p_
                     : nullptr;
  }

  /// Merge another histogram (same processor count, not this one) into
  /// this one. A sparse target takes over the other side's runs — copied
  /// here, moved by the rvalue overload — and merges them at seal().
  RankPairAccumulator& operator+=(const RankPairAccumulator& o);
  RankPairAccumulator& operator+=(RankPairAccumulator&& o);

  /// Add the output of a source-grouped walk (fmm/owner_sink.hpp): one
  /// entry list per walk chunk, in chunk order, each a sequence of source
  /// groups sorted by destination. `ordered` says the group sources never
  /// decrease across the whole sequence, so each list is a sorted run and
  /// neighbouring lists share at most the one source group a chunk seam
  /// splits. A sparse histogram then takes the concatenation as a new run
  /// (seam groups merged), copied once into an exact-size vector; an
  /// unordered sequence is radix-sorted and reduced first. A dense
  /// histogram adds the entries. Each list is freed as it is consumed.
  void append_source_groups(std::span<Run> lists, bool ordered);

  /// Fold against a prebuilt hop table: Σ count(a,b) · table(a,b).
  /// Test/oracle path — production consumers hand view() to
  /// Topology::fold() and let the topology pick its kernel.
  CommTotals fold(const topo::DistanceTable& table) const;

  /// Fold with one distance() call per *distinct* pair — the oracle path
  /// exercising the virtual distance directly (still O(pairs)).
  CommTotals fold(const topo::Topology& net) const;

  /// Non-owning view of the histogram for Topology::fold(). Sparse mode
  /// compacts first; like for_each(), seal() a histogram shared across
  /// concurrent fold tasks before taking views. The view borrows this
  /// histogram's storage — it is invalidated by any later add().
  topo::PairCountsView view() const {
    if (is_dense_) return topo::PairCountsView::dense(p_, dense_.data());
    const Run& run = sealed_run();
    return topo::PairCountsView::sparse(p_, run.data(), run.size());
  }

  /// Merge the sparse-mode staging buffer and every run into one sorted
  /// run now, releasing the staging and sort buffers. compact() runs
  /// lazily on first fold/for_each and mutates the (mutable)
  /// representation, so a histogram shared across concurrent fold tasks
  /// must be sealed first — afterwards every const operation is a pure
  /// read. No-op in dense mode or when already sealed.
  void seal() const {
    if (!is_dense_) compact();
  }

  /// Bytes held by this histogram's backing storage (cache accounting).
  std::size_t memory_bytes() const noexcept {
    std::size_t entries = staging_.capacity() + scratch_.capacity();
    for (const Run& run : runs_) entries += run.capacity();
    return dense_.capacity() * sizeof(std::uint64_t) + entries * sizeof(Entry);
  }

  /// Total recorded communications (sum of all counts).
  std::uint64_t events() const;

  /// Invoke fn(src, dst, count) for every pair with a nonzero count.
  /// Dense mode iterates in row-major order; sparse mode in key order
  /// (the same order).
  template <typename Fn>
  void for_each(Fn&& fn) const {
    if (is_dense_) {
      std::size_t k = 0;
      for (topo::Rank a = 0; a < p_; ++a) {
        for (topo::Rank b = 0; b < p_; ++b, ++k) {
          if (dense_[k] != 0) fn(a, b, dense_[k]);
        }
      }
      return;
    }
    for (const auto& [key, count] : sealed_run()) {
      fn(static_cast<topo::Rank>(key / p_), static_cast<topo::Rank>(key % p_),
         count);
    }
  }

 private:
  friend std::optional<RankPairAccumulator> rank_pairs_deserialize(
      const std::uint8_t*, std::size_t, std::size_t&);

  /// Staging buffer cap before it is sorted into a run (1 MiB: the
  /// buffer and its sort scratch stay in cache, which measured faster
  /// than 16 MiB buffers despite the extra run merges).
  static constexpr std::size_t kStagingCap = std::size_t{1} << 16;
  /// Run count past which operator+= merges everything (runs handed over
  /// by += bypass the similar-size merging of flush()).
  static constexpr std::size_t kMaxRuns = 64;

  void add_sparse(topo::Rank src, topo::Rank dst, std::uint64_t count);
  /// Sort and reduce the staging buffer into a new run. The const members
  /// below are const because the pair *multiset* is unchanged — only its
  /// representation.
  void flush() const;
  /// Merge every run (staging flushed first) into one exact-size run and
  /// release the staging and sort buffers.
  void compact() const;
  /// The single sorted run of a compacted sparse histogram.
  const Run& sealed_run() const;

  topo::Rank p_;
  bool is_dense_;
  std::vector<std::uint64_t> dense_;  // p² counts (dense mode only)
  mutable Run staging_;               // unsorted events, < kStagingCap
  mutable Run scratch_;               // radix-sort buffer for flush()
  mutable std::vector<Run> runs_;     // sorted, reduced runs
};

// ------------------------------------------------- artifact-store codec

/// Append one self-describing record for `acc` to `out`: host-endian
/// u64s — procs, mode flag (1 = dense), nonzero-pair count, then (key,
/// count) pairs with key = src·p + dst in key order. Sparse histograms
/// compact first (seal() semantics), so serializing a shared histogram
/// follows the same sealing rule as view().
void rank_pairs_serialize(const RankPairAccumulator& acc,
                          std::vector<std::uint8_t>& out);

/// Decode the record at `offset` in [data, data+size), advancing offset
/// past it. The restored accumulator reproduces the recorded dense or
/// sparse mode exactly (via the ctor's budget hook), independent of what
/// pick_dense would choose today. The key-ordered records become the
/// sealed run (or dense cells) directly, with no re-sort. Returns nullopt
/// on malformed bytes — a truncated record, a key that is not below p² or
/// not strictly above its predecessor, or a zero count. The artifact
/// store's checksum makes that unreachable for store-read payloads, but
/// the codec still never trusts its input.
std::optional<RankPairAccumulator> rank_pairs_deserialize(
    const std::uint8_t* data, std::size_t size, std::size_t& offset);

/// Scratch aggregation of (src, dst) → modular count deltas for the
/// incremental (delta) consumers.
///
/// A delta walk touches the same few rank pairs thousands of times per
/// timestep, and most of its retract/assert pairs cancel. In dense mode
/// that is harmless (each event is one array update), but in sparse mode
/// every raw add()/sub() lands in the staging buffer and is radix-sorted
/// at the next seal. A PairDeltas nets the step's events by pair first
/// in a small, cache-resident table (open addressing, modular
/// arithmetic, so retract/assert pairs that cancel vanish here) and
/// flush_into() forwards only the surviving net entries, which then
/// merge into the histogram's run in place. On the ext_dynamics --full
/// preset that keeps the post-step FFI seal near 5 ms, against about
/// 45 ms when the raw events are staged. Every count is modular, so
/// flushing preserves the multiset exactly regardless of how events were
/// grouped.
class PairDeltas {
 public:
  explicit PairDeltas(topo::Rank procs) : p_(procs) { rehash(1024); }

  void add(topo::Rank src, topo::Rank dst, std::uint64_t count = 1) {
    accum(static_cast<std::uint64_t>(src) * p_ + dst, count);
  }
  void sub(topo::Rank src, topo::Rank dst, std::uint64_t count = 1) {
    accum(static_cast<std::uint64_t>(src) * p_ + dst,
          std::uint64_t{0} - count);
  }

  /// Distinct pairs currently held (zero-net pairs included until flush).
  std::size_t entries() const noexcept { return used_; }

  /// Forward every nonzero net delta into `acc` and reset to empty (the
  /// table keeps its capacity). add() with a modular count is exact in
  /// both accumulator modes.
  void flush_into(RankPairAccumulator& acc) {
    for (std::size_t i = 0; i < keys_.size(); ++i) {
      if (keys_[i] == kEmptyKey) continue;
      acc.add(static_cast<topo::Rank>(keys_[i] / p_),
              static_cast<topo::Rank>(keys_[i] % p_), deltas_[i]);
    }
    if (used_ != 0) {
      std::fill(keys_.begin(), keys_.end(), kEmptyKey);
      used_ = 0;
    }
  }

 private:
  /// Keys are src·p + dst < p² — never the empty sentinel.
  static constexpr std::uint64_t kEmptyKey = ~std::uint64_t{0};

  static std::size_t mix(std::uint64_t key) noexcept {
    key *= 0x9E3779B97F4A7C15ull;  // Fibonacci hashing
    return static_cast<std::size_t>(key >> 32 ^ key);
  }

  void accum(std::uint64_t key, std::uint64_t delta) {
    std::size_t i = mix(key) & mask_;
    while (keys_[i] != kEmptyKey && keys_[i] != key) i = (i + 1) & mask_;
    if (keys_[i] == key) {
      deltas_[i] += delta;
      return;
    }
    keys_[i] = key;
    deltas_[i] = delta;
    // Grow at 70% load: linear probing needs slack to stay O(1).
    if (++used_ * 10 >= keys_.size() * 7) rehash(keys_.size() * 2);
  }

  void rehash(std::size_t capacity) {
    std::vector<std::uint64_t> old_keys = std::move(keys_);
    std::vector<std::uint64_t> old_deltas = std::move(deltas_);
    keys_.assign(capacity, kEmptyKey);
    deltas_.assign(capacity, 0);
    mask_ = capacity - 1;
    used_ = 0;
    for (std::size_t i = 0; i < old_keys.size(); ++i) {
      if (old_keys[i] != kEmptyKey) accum(old_keys[i], old_deltas[i]);
    }
  }

  topo::Rank p_;
  std::vector<std::uint64_t> keys_;    // kEmptyKey = vacant slot
  std::vector<std::uint64_t> deltas_;  // modular net counts
  std::size_t used_ = 0;
  std::size_t mask_ = 0;
};

/// Per-worker shard histograms for lock-free parallel accumulation on
/// the staged paths (the contiguous-partition nfi_histogram and
/// DynamicAcd's NFI scans).
///
/// The kernels fan out over particle chunks; instead of building a fresh
/// accumulator per chunk and merging under a mutex (a p²-sized zero +
/// merge per chunk), each chunk records into the shard of the worker
/// executing it, and the shards merge into the target exactly once after
/// the fan-out. In sparse mode that merge sorts each shard's partial last
/// staging buffer into a run and moves the shard's runs into the target
/// (full buffers were sorted on the worker that filled them); the runs
/// themselves merge when the target is sealed. Counts commute, so the
/// merged multiset — and in dense mode the byte-for-byte array — is
/// independent of scheduling and chunk boundaries.
class RankPairShards {
 public:
  /// One shard per pool worker plus one for the calling thread (the
  /// serial fallback and below-cutoff ranges land there).
  RankPairShards(topo::Rank procs, unsigned workers) {
    shards_.reserve(static_cast<std::size_t>(workers) + 1);
    for (unsigned i = 0; i <= workers; ++i) shards_.emplace_back(procs);
  }

  /// The shard owned by the executing thread: workers of the pool the
  /// kernel fans out on get distinct shards; any other caller (the
  /// coordinator, a foreign pool's worker running the serial fallback)
  /// gets the last one. Within one fan-out the executors are either this
  /// pool's workers or the single calling thread, never both, so no two
  /// threads share a shard concurrently.
  RankPairAccumulator& local() noexcept {
    const std::size_t idx = util::ThreadPool::current_worker_index();
    const std::size_t last = shards_.size() - 1;
    return shards_[idx < last ? idx : last];
  }

  /// Move every shard into `acc`, in fixed shard order; the shards are
  /// left empty.
  void merge_into(RankPairAccumulator& acc) {
    for (RankPairAccumulator& shard : shards_) acc += std::move(shard);
  }

 private:
  std::vector<RankPairAccumulator> shards_;
};

}  // namespace sfc::core
