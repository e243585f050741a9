#include "core/rank_pair.hpp"

#include <algorithm>
#include <cassert>
#include <cstring>
#include <utility>

#include "util/radix_sort.hpp"

namespace sfc::core {

RankPairAccumulator::RankPairAccumulator(topo::Rank procs,
                                         std::size_t dense_budget)
    : p_(procs),
      is_dense_(static_cast<std::size_t>(procs) * procs <= dense_budget) {
  if (is_dense_) {
    dense_.assign(static_cast<std::size_t>(p_) * p_, 0u);
  }
}

RankPairAccumulator::RankPairAccumulator(topo::Rank procs,
                                         const topo::Topology& net,
                                         std::size_t dense_budget)
    : p_(procs),
      is_dense_(pick_dense(procs, dense_budget, net.fold_strategy())) {
  assert(net.size() == procs);
  if (is_dense_) {
    dense_.assign(static_cast<std::size_t>(p_) * p_, 0u);
  }
}

namespace {

using Entry = RankPairAccumulator::Entry;
using Run = RankPairAccumulator::Run;

/// A run this many times smaller than the one it joins merges backwards
/// into it in place instead of into a fresh vector.
constexpr std::size_t kInPlaceRatio = 16;

/// Merge run `b` into run `a` (both sorted, keys unique): equal keys sum
/// modularly and zero sums drop out. `b` is left empty.
void merge_runs(Run& a, Run& b) {
  if (a.size() < b.size()) a.swap(b);
  if (b.empty()) return;
  if (b.size() * kInPlaceRatio > a.size()) {
    Run out;
    out.reserve(a.size() + b.size());
    std::size_t i = 0, j = 0;
    while (i < a.size() && j < b.size()) {
      if (a[i].first < b[j].first) {
        out.push_back(a[i++]);
      } else if (b[j].first < a[i].first) {
        out.push_back(b[j++]);
      } else {
        const std::uint64_t count = a[i].second + b[j].second;
        if (count != 0) out.emplace_back(a[i].first, count);
        ++i;
        ++j;
      }
    }
    out.insert(out.end(), a.begin() + static_cast<std::ptrdiff_t>(i), a.end());
    out.insert(out.end(), b.begin() + static_cast<std::ptrdiff_t>(j), b.end());
    a.swap(out);
  } else {
    // Small into large: grow `a` (with slack, so the next small run of a
    // long-lived histogram fits without reallocating), then merge from
    // the back. The write cursor w never passes the unread part of `a`
    // (w >= i + j), so nothing is overwritten before it is read.
    std::size_t i = a.size(), j = b.size(), w = i + j;
    if (a.capacity() < w) a.reserve(w + a.size() / kInPlaceRatio);
    a.resize(w);
    while (j > 0) {
      if (i > 0 && a[i - 1].first > b[j - 1].first) {
        a[--w] = a[--i];
      } else if (i > 0 && a[i - 1].first == b[j - 1].first) {
        const std::uint64_t count = a[--i].second + b[--j].second;
        if (count != 0) a[--w] = {b[j].first, count};
      } else {
        a[--w] = b[--j];
      }
    }
    // a[0, i) never moved; close the gap that summed keys left behind.
    a.erase(a.begin() + static_cast<std::ptrdiff_t>(i),
            a.begin() + static_cast<std::ptrdiff_t>(w));
  }
  b.clear();
}

/// Radix-sort `entries` by key (through `scratch`) and reduce them in
/// place to a run: equal keys summed, and fully retracted pairs dropped —
/// sub() stages modular negatives, and a pair whose adds and subs cancel
/// must not survive as a zero entry (for_each/view promise nonzero
/// counts).
void sort_reduce(Run& entries, Run& scratch) {
  util::radix_sort_by_key(
      entries, [](const Entry& e) { return e.first; }, scratch);
  std::size_t w = 0;
  for (std::size_t i = 0; i < entries.size();) {
    const std::uint64_t key = entries[i].first;
    std::uint64_t count = 0;
    for (; i < entries.size() && entries[i].first == key; ++i) {
      count += entries[i].second;
    }
    if (count != 0) entries[w++] = {key, count};
  }
  entries.resize(w);
}

/// A copy of `run` whose capacity is its size.
Run exact_copy(const Run& run) { return Run(run.begin(), run.end()); }

}  // namespace

void RankPairAccumulator::add_sparse(topo::Rank src, topo::Rank dst,
                                     std::uint64_t count) {
  staging_.emplace_back(static_cast<std::uint64_t>(src) * p_ + dst, count);
  if (staging_.size() >= kStagingCap) flush();
}

void RankPairAccumulator::flush() const {
  if (staging_.empty()) return;
  sort_reduce(staging_, scratch_);
  if (!staging_.empty()) runs_.emplace_back(staging_.begin(), staging_.end());
  staging_.clear();
  // Merge runs of similar size as they appear (a binary counter), which
  // bounds a long-lived histogram to O(log) runs and O(pairs) entries.
  while (runs_.size() >= 2 &&
         runs_[runs_.size() - 2].size() <= 2 * runs_.back().size()) {
    merge_runs(runs_[runs_.size() - 2], runs_.back());
    runs_.pop_back();
  }
}

void RankPairAccumulator::compact() const {
  // Sealed: nothing staged, no buffers held, at most one run — a pure
  // read, which is what makes concurrent folds of a sealed histogram safe.
  if (staging_.capacity() == 0 && runs_.size() <= 1) return;
  flush();
  // Merge the two smallest runs until one is left: the cascade's cost is
  // near N·log(runs), and a small run joins a large one in place.
  while (runs_.size() > 1) {
    std::sort(runs_.begin(), runs_.end(), [](const Run& a, const Run& b) {
      return a.size() > b.size();
    });
    merge_runs(runs_[runs_.size() - 2], runs_.back());
    runs_.pop_back();
  }
  // Merges leave slack; trim it so the bytes a sealed histogram holds
  // depend on its pairs alone, not on its merge history.
  if (!runs_.empty() && runs_.front().capacity() != runs_.front().size()) {
    runs_.front() = exact_copy(runs_.front());
  }
  Run().swap(staging_);
  Run().swap(scratch_);
}

const RankPairAccumulator::Run& RankPairAccumulator::sealed_run() const {
  static const Run kEmpty;
  compact();
  return runs_.empty() ? kEmpty : runs_.front();
}

RankPairAccumulator& RankPairAccumulator::operator+=(
    const RankPairAccumulator& o) {
  assert(o.p_ == p_ && &o != this);
  if (is_dense_) {
    o.for_each([this](topo::Rank a, topo::Rank b, std::uint64_t count) {
      add(a, b, count);
    });
    return *this;
  }
  if (o.is_dense_) {
    // Row-major order is key order: the nonzero cells are a sorted run.
    Run run;
    for (std::size_t k = 0; k < o.dense_.size(); ++k) {
      if (o.dense_[k] != 0) run.emplace_back(k, o.dense_[k]);
    }
    runs_.push_back(std::move(run));
  } else {
    o.flush();
    runs_.insert(runs_.end(), o.runs_.begin(), o.runs_.end());
  }
  if (runs_.size() > kMaxRuns) compact();
  return *this;
}

RankPairAccumulator& RankPairAccumulator::operator+=(RankPairAccumulator&& o) {
  if (is_dense_ || o.is_dense_) return *this += std::as_const(o);
  assert(o.p_ == p_ && &o != this);
  o.flush();
  for (Run& run : o.runs_) runs_.push_back(std::move(run));
  o.runs_.clear();
  if (runs_.size() > kMaxRuns) compact();
  return *this;
}

void RankPairAccumulator::append_source_groups(std::span<Run> lists,
                                               bool ordered) {
  if (is_dense_) {
    for (Run& list : lists) {
      for (const auto& [key, count] : list) dense_[key] += count;
      Run().swap(list);
    }
    return;
  }
  if (!ordered) {
    // Sources revisit: gather the groups and sort them into one run.
    std::size_t total = 0;
    for (const Run& list : lists) total += list.size();
    if (total == 0) return;
    Run all;
    all.reserve(total);
    for (Run& list : lists) {
      all.insert(all.end(), list.begin(), list.end());
      Run().swap(list);
    }
    Run scratch;
    sort_reduce(all, scratch);
    if (!all.empty()) runs_.push_back(exact_copy(all));
    return;
  }
  // Each list is a sorted run, and a list's first source is at least the
  // previous list's last. Equal sources at a seam are one group split in
  // two; both halves are sorted by destination, so one linear merge
  // joins them. skip[c] counts the entries of list c's head group that
  // moved into an earlier list. A group can span several chunks, so the
  // merge target is the last list that still holds entries.
  const std::uint64_t p = p_;
  std::vector<std::size_t> skip(lists.size(), 0);
  std::size_t prev = lists.size();
  for (std::size_t c = 0; c < lists.size(); ++c) {
    Run& list = lists[c];
    if (list.empty()) continue;
    const std::uint64_t src = list.front().first / p;
    if (prev != lists.size() && lists[prev].back().first / p == src) {
      Run& into = lists[prev];
      const auto group_end = [p, src](const Entry& e) {
        return e.first / p == src;
      };
      const auto head_end = static_cast<std::size_t>(
          std::partition_point(list.begin(), list.end(), group_end) -
          list.begin());
      const auto tail_begin = static_cast<std::size_t>(
          std::partition_point(into.begin(), into.end(),
                               [src, p](const Entry& e) {
                                 return e.first / p < src;
                               }) -
          into.begin());
      Run joined;
      joined.reserve(into.size() - tail_begin + head_end);
      std::size_t i = tail_begin, j = 0;
      while (i < into.size() && j < head_end) {
        if (into[i].first < list[j].first) {
          joined.push_back(into[i++]);
        } else if (list[j].first < into[i].first) {
          joined.push_back(list[j++]);
        } else {
          const std::uint64_t count = into[i].second + list[j].second;
          if (count != 0) joined.emplace_back(into[i].first, count);
          ++i;
          ++j;
        }
      }
      joined.insert(joined.end(),
                    into.begin() + static_cast<std::ptrdiff_t>(i), into.end());
      joined.insert(joined.end(),
                    list.begin() + static_cast<std::ptrdiff_t>(j),
                    list.begin() + static_cast<std::ptrdiff_t>(head_end));
      into.resize(tail_begin);
      into.insert(into.end(), joined.begin(), joined.end());
      if (head_end == list.size()) {
        Run().swap(list);
        continue;
      }
      skip[c] = head_end;
    }
    prev = c;
  }
  std::size_t total = 0;
  for (std::size_t c = 0; c < lists.size(); ++c) {
    total += lists[c].size() - skip[c];
  }
  if (total == 0) return;
  Run out;
  out.reserve(total);
  for (std::size_t c = 0; c < lists.size(); ++c) {
    out.insert(out.end(),
               lists[c].begin() + static_cast<std::ptrdiff_t>(skip[c]),
               lists[c].end());
    Run().swap(lists[c]);
  }
  runs_.push_back(std::move(out));
}

CommTotals RankPairAccumulator::fold(const topo::DistanceTable& table) const {
  CommTotals totals;
  if (is_dense_) {
    std::size_t k = 0;
    for (topo::Rank a = 0; a < p_; ++a) {
      const std::uint32_t* row = table.row(a);
      for (topo::Rank b = 0; b < p_; ++b, ++k) {
        const std::uint64_t c = dense_[k];
        if (c == 0) continue;
        totals.hops += c * row[b];
        totals.count += c;
      }
    }
    return totals;
  }
  for (const auto& [key, count] : sealed_run()) {
    totals.hops += count * table(static_cast<std::uint32_t>(key / p_),
                                 static_cast<std::uint32_t>(key % p_));
    totals.count += count;
  }
  return totals;
}

CommTotals RankPairAccumulator::fold(const topo::Topology& net) const {
  CommTotals totals;
  for_each([&totals, &net](topo::Rank a, topo::Rank b, std::uint64_t count) {
    totals.hops += count * net.distance(a, b);
    totals.count += count;
  });
  return totals;
}

namespace {

void append_u64(std::vector<std::uint8_t>& out, std::uint64_t v) {
  std::uint8_t buf[8];
  std::memcpy(buf, &v, sizeof buf);
  out.insert(out.end(), buf, buf + sizeof buf);
}

bool read_u64(const std::uint8_t* data, std::size_t size, std::size_t& offset,
              std::uint64_t& v) {
  if (offset > size || size - offset < 8) return false;
  std::memcpy(&v, data + offset, 8);
  offset += 8;
  return true;
}

}  // namespace

void rank_pairs_serialize(const RankPairAccumulator& acc,
                          std::vector<std::uint8_t>& out) {
  acc.seal();
  append_u64(out, acc.procs());
  append_u64(out, acc.dense() ? 1 : 0);
  std::uint64_t pairs = 0;
  acc.for_each([&pairs](topo::Rank, topo::Rank, std::uint64_t) { ++pairs; });
  append_u64(out, pairs);
  out.reserve(out.size() + pairs * 16);
  const std::uint64_t p = acc.procs();
  acc.for_each([&out, p](topo::Rank a, topo::Rank b, std::uint64_t count) {
    append_u64(out, static_cast<std::uint64_t>(a) * p + b);
    append_u64(out, count);
  });
}

std::optional<RankPairAccumulator> rank_pairs_deserialize(
    const std::uint8_t* data, std::size_t size, std::size_t& offset) {
  std::uint64_t procs = 0, mode = 0, pairs = 0;
  if (!read_u64(data, size, offset, procs) ||
      !read_u64(data, size, offset, mode) ||
      !read_u64(data, size, offset, pairs)) {
    return std::nullopt;
  }
  if (procs == 0 || procs > 0xffffffffull || mode > 1) return std::nullopt;
  if (pairs > (size - offset) / 16) return std::nullopt;
  const bool dense = mode == 1;
  const std::uint64_t p2 = procs * procs;
  // A dense record implies the producer actually held the p² array, so
  // p² is bounded by the dense budget plus whatever enlarged budget a
  // caller can pass — refuse anything that would be an absurd allocation.
  if (dense && p2 > (std::uint64_t{1} << 28)) return std::nullopt;
  RankPairAccumulator acc(static_cast<topo::Rank>(procs),
                          dense ? static_cast<std::size_t>(p2) : 0);
  // The record is already a sealed run: keys strictly increasing and
  // below p², counts nonzero. Anything else is malformed.
  RankPairAccumulator::Run run;
  if (!dense) run.reserve(pairs);
  std::uint64_t next_key = 0;  // smallest key the next record may carry
  for (std::uint64_t i = 0; i < pairs; ++i) {
    std::uint64_t key = 0, count = 0;
    if (!read_u64(data, size, offset, key) ||
        !read_u64(data, size, offset, count)) {
      return std::nullopt;
    }
    if (key < next_key || key >= p2 || count == 0) return std::nullopt;
    next_key = key + 1;
    if (dense) {
      acc.dense_[key] = count;
    } else {
      run.emplace_back(key, count);
    }
  }
  if (!run.empty()) acc.runs_.push_back(std::move(run));
  return acc;
}

std::uint64_t RankPairAccumulator::events() const {
  std::uint64_t n = 0;
  for_each([&n](topo::Rank, topo::Rank, std::uint64_t count) { n += count; });
  return n;
}

}  // namespace sfc::core
