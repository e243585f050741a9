#include "fmm/ffi.hpp"

#include <algorithm>

#include "fmm/cells.hpp"
#include "fmm/owner_sink.hpp"
#include "obs/trace.hpp"
#include "util/radix_sort.hpp"

namespace sfc::fmm {

template <int D>
CellTree<D>::CellTree(const std::vector<Point<D>>& particles, unsigned level)
    : finest_(level), levels_(level + 1) {
  // Finest level: one entry per occupied cell, keyed by Morton code.
  auto& finest = levels_[level];
  finest.reserve(particles.size());
  for (std::size_t i = 0; i < particles.size(); ++i) {
    finest.push_back(
        Cell{cell_key(particles[i]), static_cast<std::uint32_t>(i)});
  }
  util::radix_sort_by_key(finest, [](const Cell& c) { return c.key; });
  // Particles occupy distinct cells, but be robust: merge duplicates by
  // minimum particle index (the list is key-sorted, not index-sorted).
  auto dedup = [](std::vector<Cell>& cells) {
    std::size_t w = 0;
    for (std::size_t r = 0; r < cells.size(); ++r) {
      if (w > 0 && cells[w - 1].key == cells[r].key) {
        cells[w - 1].min_particle =
            std::min(cells[w - 1].min_particle, cells[r].min_particle);
      } else {
        cells[w++] = cells[r];
      }
    }
    cells.resize(w);
  };
  dedup(finest);

  // Coarsen: the parent key is key >> D, and shifting preserves the sorted
  // order, so each coarser level is one grouping pass.
  for (unsigned l = level; l > 0; --l) {
    const auto& fine = levels_[l];
    auto& coarse = levels_[l - 1];
    coarse.reserve(fine.size() / 2 + 1);
    for (const Cell& c : fine) {
      const std::uint64_t pk = parent_key<D>(c.key);
      if (!coarse.empty() && coarse.back().key == pk) {
        coarse.back().min_particle =
            std::min(coarse.back().min_particle, c.min_particle);
      } else {
        coarse.push_back(Cell{pk, c.min_particle});
      }
    }
  }

  // Dense lookup tables (find() fast path) for the levels that fit the
  // budget: one int32 per possible cell, up to 2^24 cells per level.
  dense_.resize(levels_.size());
  for (unsigned l = 0; l <= level; ++l) {
    const unsigned bits = static_cast<unsigned>(D) * l;
    if (bits > 24) break;
    dense_[l].assign(1ull << bits, -1);
    const auto& cells = levels_[l];
    for (std::size_t i = 0; i < cells.size(); ++i) {
      dense_[l][cells[i].key] = static_cast<std::int32_t>(i);
    }
  }
}

template <int D>
std::int64_t CellTree<D>::find_sparse(unsigned level,
                                      std::uint64_t key) const noexcept {
  const auto& cells = levels_[level];
  const auto it = std::lower_bound(
      cells.begin(), cells.end(), key,
      [](const Cell& c, std::uint64_t k) { return c.key < k; });
  if (it == cells.end() || it->key != key) return -1;
  return it - cells.begin();
}

template <int D>
std::size_t CellTree<D>::total_cells() const noexcept {
  std::size_t n = 0;
  for (const auto& l : levels_) n += l.size();
  return n;
}

namespace {

/// Interpolation hops for cells [lo, hi) of level `l` (l >= 1): each cell
/// owner sends to its parent's owner. Reference path — one virtual
/// distance() per edge.
template <int D>
core::CommTotals interp_range(const CellTree<D>& tree, const Partition& part,
                              const topo::Topology& net, unsigned l,
                              std::size_t lo, std::size_t hi) {
  core::CommTotals totals;
  const auto& cells = tree.cells(l);
  for (std::size_t i = lo; i < hi; ++i) {
    const auto idx = tree.find(l - 1, parent_key<D>(cells[i].key));
    // The parent of an occupied cell is always occupied.
    const auto& parent = tree.cells(l - 1)[static_cast<std::size_t>(idx)];
    totals.hops += net.distance(part.proc_of(cells[i].min_particle),
                                part.proc_of(parent.min_particle));
    ++totals.count;
  }
  return totals;
}

/// Interaction-list hops for cells [lo, hi) of level `l` (l >= 2).
/// Reference path.
template <int D>
core::CommTotals il_range(const CellTree<D>& tree, const Partition& part,
                          const topo::Topology& net, unsigned l,
                          std::size_t lo, std::size_t hi) {
  core::CommTotals totals;
  const auto& cells = tree.cells(l);
  std::vector<Point<D>> il;
  il.reserve(64);
  for (std::size_t i = lo; i < hi; ++i) {
    const Point<D> c = morton_point<D>(cells[i].key);
    const topo::Rank owner = part.proc_of(cells[i].min_particle);
    interaction_list(c, l, il);
    for (const Point<D>& d : il) {
      const auto idx = tree.find(l, cell_key(d));
      if (idx < 0) continue;  // unoccupied cells do not communicate
      const auto& dc = tree.cells(l)[static_cast<std::size_t>(idx)];
      totals.hops += net.distance(part.proc_of(dc.min_particle), owner);
      ++totals.count;
    }
  }
  return totals;
}

/// Record the (child owner, parent owner) interpolation events of cells
/// [lo, hi) at level `l` into `sink` (fmm/owner_sink.hpp).
template <int D, typename Sink>
void interp_range_into(const CellTree<D>& tree, Sink sink, unsigned l,
                       std::size_t lo, std::size_t hi) {
  if (lo >= hi) return;
  const auto& cells = tree.cells(l);
  const auto& parents = tree.cells(l - 1);
  // Cells are key-sorted and parent_key is a shift, so parent keys are
  // non-decreasing across the range: one lookup seeds a cursor into the
  // parent level and the rest of the range advances it in lockstep —
  // no per-cell table lookup. (The parent of an occupied cell is always
  // occupied, so the cursor always lands on a match.)
  std::size_t j = static_cast<std::size_t>(
      tree.find(l - 1, parent_key<D>(cells[lo].key)));
  for (std::size_t i = lo; i < hi; ++i) {
    const std::uint64_t pk = parent_key<D>(cells[i].key);
    while (parents[j].key != pk) ++j;
    sink.add(cells[i].min_particle, parents[j].min_particle);
  }
}

/// Record the (source owner, cell owner) interaction-list events of cells
/// [lo, hi) at level `l` into `sink`. The candidate cells stream straight
/// from the offset odometer into the key lookup — no materialized
/// interaction list, no per-cell allocation.
template <int D, typename Sink>
void il_range_into(const CellTree<D>& tree, Sink sink, unsigned l,
                   std::size_t lo, std::size_t hi) {
  const auto& cells = tree.cells(l);
  const std::int64_t side = 1ll << (l - 1);
  // Child-digit decode: Morton digit d's child of pn sits at
  // 2·pn + kChild[d], and its key is (key(pn) << D) | d — so the inner
  // loop pays zero per-candidate interleaves.
  Point<D> child_off[1u << D];
  for (std::uint32_t d = 0; d < (1u << D); ++d) {
    child_off[d] = morton_point<D>(d);
  }
  for (std::size_t i = lo; i < hi; ++i) {
    const Point<D> c = morton_point<D>(cells[i].key);
    const Point<D> par = parent_cell(c);
    sink.to(cells[i].min_particle);
    // Odometer over the parent's neighbors. Two prunes the reference
    // path skips, neither of which changes the event multiset: the zero
    // offset (the cell's own siblings, all Chebyshev-adjacent) and the
    // children of *unoccupied* parent neighbors — one parent lookup in
    // place of 2^D guaranteed-miss child lookups.
    std::int64_t off[4];  // D <= 4 (static_assert in Point)
    for (int k = 0; k < D; ++k) off[k] = -1;
    for (;;) {
      bool in = true;
      bool zero = true;
      Point<D> pn{};
      for (int k = 0; k < D; ++k) {
        const std::int64_t v = static_cast<std::int64_t>(par[k]) + off[k];
        if (v < 0 || v >= side) {
          in = false;
          break;
        }
        if (off[k] != 0) zero = false;
        pn[k] = static_cast<std::uint32_t>(v);
      }
      if (in && !zero) {
        const std::uint64_t pn_key = cell_key(pn);
        if (tree.find(l - 1, pn_key) >= 0) {
          for (std::uint32_t d = 0; d < (1u << D); ++d) {
            Point<D> child{};
            for (int k = 0; k < D; ++k) {
              child[k] = (pn[k] << 1) | child_off[d][k];
            }
            if (chebyshev(child, c) <= 1) continue;
            const auto idx = tree.find(l, (pn_key << D) | d);
            if (idx < 0) continue;  // unoccupied cells do not communicate
            sink.from(cells[static_cast<std::size_t>(idx)].min_particle);
          }
        }
      }
      int k = 0;
      while (k < D && off[k] == 1) off[k++] = -1;
      if (k == D) break;
      ++off[k];
    }
  }
}

/// Accumulate one communication family's histograms — one per owner
/// table — over all levels [first_level, finest]. Serial path: every
/// level goes straight into `accs`, one histogram per partition for the
/// whole family, folded once by the caller (building and folding a fresh
/// accumulator per chunk per level is what used to cancel the
/// aggregation savings). Parallel path: per-worker shards written without
/// synchronization — each chunk records into the shards of the worker
/// executing it, across all levels — then merged into `accs` exactly
/// once. Counts are integers and addition commutes, so the merged
/// multisets are independent of chunking and scheduling order.
template <int D, typename IntoFn>
void histogram_levels(util::ThreadPool* pool, const CellTree<D>& tree,
                      unsigned first_level, const detail::OwnerTables& owners,
                      std::span<const topo::Rank> procs,
                      std::span<core::RankPairAccumulator> accs, IntoFn into) {
  const unsigned finest = tree.finest_level();
  if (pool == nullptr || pool->size() <= 1) {
    owners.with(accs, [&](auto sink) {
      for (unsigned l = first_level; l <= finest; ++l) {
        into(sink, l, std::size_t{0}, tree.cells(l).size());
      }
    });
    return;
  }
  core::RankPairShards shards(procs, pool->size());
  for (unsigned l = first_level; l <= finest; ++l) {
    const auto chunk = [&, l](std::size_t lo, std::size_t hi) {
      owners.with(shards.locals(),
                  [&](auto sink) { into(sink, l, lo, hi); });
    };
    const std::size_t n = tree.cells(l).size();
    if (n < 4096) {
      // Below the fan-out cutoff the calling thread fills its own shards
      // while no chunks are in flight.
      chunk(0, n);
      continue;
    }
    util::parallel_for_chunks(*pool, 0, n, util::kAutoGrain, chunk);
  }
  {
    const obs::Span span("ffi/merge_shards");
    shards.merge_into(accs);
  }
}

template <int D, typename RangeFn>
core::CommTotals reduce_level(util::ThreadPool* pool, std::size_t n,
                              RangeFn fn) {
  if (pool == nullptr || pool->size() <= 1 || n < 4096) {
    return fn(std::size_t{0}, n);
  }
  return util::parallel_reduce_chunks(*pool, 0, n, util::kAutoGrain,
                                      core::CommTotals{}, fn);
}

}  // namespace

template <int D>
FfiTotals ffi_totals(const CellTree<D>& tree, const Partition& part,
                     const topo::Topology& net, util::ThreadPool* pool) {
  // One histogram per family accumulated across every level and chunk,
  // one fold per family: the fold and accumulator-construction costs are
  // O(pairs) per evaluation instead of O(pairs · levels · chunks) — the
  // overhead that used to hold the aggregated/direct ratio at ~1.1x.
  return ffi_fold(ffi_histograms<D>(tree, part, pool), net);
}

template <int D>
std::vector<FfiHistograms> ffi_histograms(const CellTree<D>& tree,
                                          std::span<const Partition> parts,
                                          util::ThreadPool* pool) {
  if (parts.empty()) return {};
  std::vector<std::vector<topo::Rank>> tables;
  std::vector<topo::Rank> procs;
  std::vector<core::RankPairAccumulator> interpolation;
  std::vector<core::RankPairAccumulator> interaction;
  for (const Partition& part : parts) {
    tables.push_back(part.owner_table());
    procs.push_back(part.processors());
    interpolation.emplace_back(part.processors());
    interaction.emplace_back(part.processors());
  }
  const detail::OwnerTables owners(tables);
  {
    const obs::Span span("ffi/interpolation");
    histogram_levels<D>(pool, tree, 1, owners, procs, interpolation,
                        [&](auto sink, unsigned l, std::size_t lo,
                            std::size_t hi) {
                          interp_range_into<D>(tree, sink, l, lo, hi);
                        });
  }
  {
    const obs::Span span("ffi/interaction");
    histogram_levels<D>(pool, tree, 2, owners, procs, interaction,
                        [&](auto sink, unsigned l, std::size_t lo,
                            std::size_t hi) {
                          il_range_into<D>(tree, sink, l, lo, hi);
                        });
  }
  std::vector<FfiHistograms> out;
  out.reserve(parts.size());
  for (std::size_t k = 0; k < parts.size(); ++k) {
    out.emplace_back(std::move(interpolation[k]), std::move(interaction[k]));
  }
  return out;
}

template <int D>
FfiHistograms ffi_histograms(const CellTree<D>& tree, const Partition& part,
                             util::ThreadPool* pool) {
  return std::move(ffi_histograms<D>(tree, std::span(&part, 1), pool).front());
}

FfiTotals ffi_fold(const FfiHistograms& hist, const topo::Topology& net) {
  FfiTotals totals;
  totals.interpolation = net.fold(hist.interpolation.view());
  totals.anterpolation = totals.interpolation;
  totals.interaction = net.fold(hist.interaction.view());
  return totals;
}

template <int D>
FfiTotals ffi_totals_direct(const CellTree<D>& tree, const Partition& part,
                            const topo::Topology& net,
                            util::ThreadPool* pool) {
  FfiTotals totals;
  for (unsigned l = 1; l <= tree.finest_level(); ++l) {
    totals.interpolation += reduce_level<D>(
        pool, tree.cells(l).size(), [&, l](std::size_t lo, std::size_t hi) {
          return interp_range<D>(tree, part, net, l, lo, hi);
        });
  }
  totals.anterpolation = totals.interpolation;

  for (unsigned l = 2; l <= tree.finest_level(); ++l) {
    totals.interaction += reduce_level<D>(
        pool, tree.cells(l).size(), [&, l](std::size_t lo, std::size_t hi) {
          return il_range<D>(tree, part, net, l, lo, hi);
        });
  }
  return totals;
}

template class CellTree<2>;
template class CellTree<3>;
template FfiTotals ffi_totals<2>(const CellTree<2>&, const Partition&,
                                 const topo::Topology&, util::ThreadPool*);
template FfiTotals ffi_totals<3>(const CellTree<3>&, const Partition&,
                                 const topo::Topology&, util::ThreadPool*);
template FfiTotals ffi_totals_direct<2>(const CellTree<2>&, const Partition&,
                                        const topo::Topology&,
                                        util::ThreadPool*);
template FfiTotals ffi_totals_direct<3>(const CellTree<3>&, const Partition&,
                                        const topo::Topology&,
                                        util::ThreadPool*);
template FfiHistograms ffi_histograms<2>(const CellTree<2>&, const Partition&,
                                         util::ThreadPool*);
template FfiHistograms ffi_histograms<3>(const CellTree<3>&, const Partition&,
                                         util::ThreadPool*);
template std::vector<FfiHistograms> ffi_histograms<2>(
    const CellTree<2>&, std::span<const Partition>, util::ThreadPool*);
template std::vector<FfiHistograms> ffi_histograms<3>(
    const CellTree<3>&, std::span<const Partition>, util::ThreadPool*);

}  // namespace sfc::fmm
