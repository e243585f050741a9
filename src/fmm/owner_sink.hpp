// owner_sink.hpp — record one enumeration into one histogram per partition.
//
// The FFI tree walk and the NFI window scan enumerate events between
// particle indices; which ranks an event connects depends only on the
// owner table of the partition. The partitions of one particle ordering
// (its processor counts) therefore share a single enumeration: the walk
// hands each event to a sink, and the sink maps it through every
// partition's owner table into that partition's histogram. The kernels
// are written once against the sink interface:
//
//   add(src, dst)      one event between particle indices;
//   to(dst), from(src) events into a fixed destination (hoisted once);
//   scan_from(src, count, scan)
//                      events out of a fixed source: scan(push) calls
//                      push(dst) per neighbor, each worth `count`.
//
// OneOwnerSink is the single-partition case with the dense-row hoisting
// of the original loops; OwnerSinks loops over the partitions per event,
// reading their ranks from one interleaved table so an event's ranks
// share a cache line. Sinks are a few pointers: the kernels take them by
// value, so their fields live in registers and a count increment cannot
// alias them.
#pragma once

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "core/rank_pair.hpp"
#include "topology/topology.hpp"

namespace sfc::fmm::detail {

class OneOwnerSink {
 public:
  OneOwnerSink(const topo::Rank* own, core::RankPairAccumulator& acc) noexcept
      : own_(own), acc_(acc), counts_(acc.row(0)), p_(acc.procs()) {}

  void add(std::size_t src, std::size_t dst) {
    acc_.add(own_[src], own_[dst]);
  }

  void to(std::size_t dst) noexcept { dst_ = own_[dst]; }

  void from(std::size_t src) {
    // Dense mode: one indexed increment off the count-array base.
    if (counts_ != nullptr) {
      ++counts_[own_[src] * p_ + dst_];
    } else {
      acc_.add(own_[src], dst_);
    }
  }

  template <typename Scan>
  void scan_from(std::size_t src, std::uint64_t count, Scan&& scan) {
    const topo::Rank s = own_[src];
    const topo::Rank* own = own_;
    if (std::uint64_t* row = acc_.row(s)) {
      scan([row, own, count](auto dst) {
        row[own[static_cast<std::size_t>(dst)]] += count;
      });
    } else {
      core::RankPairAccumulator& acc = acc_;
      scan([&acc, s, own, count](auto dst) {
        acc.add(s, own[static_cast<std::size_t>(dst)], count);
      });
    }
  }

 private:
  const topo::Rank* own_;
  core::RankPairAccumulator& acc_;
  std::uint64_t* counts_;  // dense array base, nullptr in sparse mode
  std::size_t p_;
  topo::Rank dst_ = 0;
};

class OwnerSinks {
 public:
  struct Slot {
    core::RankPairAccumulator* acc;
    std::uint64_t* counts;  // dense array base, nullptr in sparse mode
    topo::Rank p;
  };

  /// `own[i * slots.size() + k]` is particle i's rank under partition k.
  /// `rows` is scratch with one entry per slot; it and `slots` must
  /// outlive the sink.
  OwnerSinks(const topo::Rank* own, std::span<const Slot> slots,
             std::uint64_t** rows) noexcept
      : own_(own), slots_(slots.data()), k_(slots.size()), rows_(rows) {}

  void add(std::size_t src, std::size_t dst) {
    const topo::Rank* a = own_ + src * k_;
    const topo::Rank* b = own_ + dst * k_;
    for (std::size_t k = 0; k < k_; ++k) slots_[k].acc->add(a[k], b[k]);
  }

  void to(std::size_t dst) noexcept { dst_ = own_ + dst * k_; }

  void from(std::size_t src) {
    const topo::Rank* a = own_ + src * k_;
    for (std::size_t k = 0; k < k_; ++k) {
      const Slot& s = slots_[k];
      if (s.counts != nullptr) {
        ++s.counts[std::size_t{a[k]} * s.p + dst_[k]];
      } else {
        s.acc->add(a[k], dst_[k]);
      }
    }
  }

  template <typename Scan>
  void scan_from(std::size_t src, std::uint64_t count, Scan&& scan) {
    const topo::Rank* a = own_ + src * k_;
    for (std::size_t k = 0; k < k_; ++k) rows_[k] = slots_[k].acc->row(a[k]);
    scan([&](auto dst) {
      const topo::Rank* b = own_ + static_cast<std::size_t>(dst) * k_;
      for (std::size_t k = 0; k < k_; ++k) {
        if (rows_[k] != nullptr) {
          rows_[k][b[k]] += count;
        } else {
          slots_[k].acc->add(a[k], b[k], count);
        }
      }
    });
  }

 private:
  const topo::Rank* own_;
  const Slot* slots_;
  std::size_t k_;
  std::uint64_t** rows_;
  const topo::Rank* dst_ = nullptr;
};

/// The owner tables of the partitions one walk feeds; with(accs, fn)
/// calls fn(sink) with the sink recording into accs[k] for table k.
class OwnerTables {
 public:
  /// The tables must outlive this object when there is only one.
  explicit OwnerTables(std::span<const std::vector<topo::Rank>> tables)
      : k_(tables.size()) {
    assert(k_ > 0);
    if (k_ == 1) {
      single_ = tables.front().data();
      return;
    }
    const std::size_t n = tables.front().size();
    packed_.resize(n * k_);
    for (std::size_t k = 0; k < k_; ++k) {
      assert(tables[k].size() == n);
      for (std::size_t i = 0; i < n; ++i) packed_[i * k_ + k] = tables[k][i];
    }
  }

  template <typename Fn>
  void with(std::span<core::RankPairAccumulator> accs, Fn&& fn) const {
    assert(accs.size() == k_);
    if (k_ == 1) {
      fn(OneOwnerSink(single_, accs.front()));
      return;
    }
    std::vector<OwnerSinks::Slot> slots;
    slots.reserve(k_);
    for (core::RankPairAccumulator& acc : accs) {
      slots.push_back({&acc, acc.row(0), acc.procs()});
    }
    std::vector<std::uint64_t*> rows(k_);
    fn(OwnerSinks(packed_.data(), slots, rows.data()));
  }

 private:
  std::size_t k_;
  const topo::Rank* single_ = nullptr;  // k_ == 1: the caller's table
  std::vector<topo::Rank> packed_;      // k_ > 1: packed_[i * k_ + k]
};

}  // namespace sfc::fmm::detail
