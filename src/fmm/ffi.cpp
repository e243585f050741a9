#include "fmm/ffi.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cassert>

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

/// finest_of entry of a particle that is not its finest cell's lowest.
constexpr std::uint32_t kNoCell = ~std::uint32_t{0};

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

/// Interaction-list digits by position: kMemberDigits<D>[q][o] has bit d
/// set when child d of the parent neighbor at offset o is in the
/// interaction list of a cell whose own child digit is q. Along axis k
/// the candidate sits 2·o_k + d_k − q_k cells from the cell, so it is a
/// member exactly when some axis puts it more than one cell away; the
/// zero offset (the cell's siblings) has no members. o encodes the
/// offsets in base 3, axis 0 lowest, each digit o_k + 1.
template <int D>
constexpr auto make_member_digits() {
  constexpr std::size_t kOffsets = D == 2 ? 9 : D == 3 ? 27 : 81;
  std::array<std::array<std::uint32_t, kOffsets>, (1u << D)> table{};
  for (std::uint32_t q = 0; q < (1u << D); ++q) {
    for (std::size_t o = 0; o < kOffsets; ++o) {
      for (std::uint32_t d = 0; d < (1u << D); ++d) {
        bool member = false;
        std::size_t rest = o;
        for (int k = 0; k < D; ++k, rest /= 3) {
          const int diff = 2 * (static_cast<int>(rest % 3) - 1) +
                           static_cast<int>((d >> k) & 1u) -
                           static_cast<int>((q >> k) & 1u);
          member = member || diff < -1 || diff > 1;
        }
        if (member) table[q][o] |= 1u << d;
      }
    }
  }
  return table;
}

template <int D>
constexpr auto kMemberDigits = make_member_digits<D>();

/// Record cell `key`'s interaction-list events at level `l` (l >= 2) into
/// `sink`, whose source is the cell's owner: one event per occupied
/// member, into the member's owner. The relation is symmetric — d is in
/// c's list exactly when c is in d's (same level, parents at Chebyshev
/// distance <= 1, cells at distance > 1) — so recording each pair from
/// c's side yields the same multiset as recording (owner(d), owner(c))
/// for every cell. Candidates come from the parent's neighbors: a
/// neighbor that is unoccupied is one lookup in place of 2^D
/// guaranteed-miss child lookups, and the members among an occupied
/// neighbor's children come from kMemberDigits, so no candidate is
/// tested for adjacency. Morton digit d's child of pn has key
/// (key(pn) << D) | d.
template <int D, typename Sink>
void interaction_into(const CellTree<D>& tree, Sink& sink, unsigned l,
                      std::uint64_t key) {
  const auto& cells = tree.cells(l);
  const std::int64_t side = 1ll << (l - 1);
  const Point<D> par = parent_cell(morton_point<D>(key));
  const auto& digits = kMemberDigits<D>[key & ((1u << D) - 1)];
  std::int64_t off[4];  // D <= 4 (static_assert in Point)
  for (int k = 0; k < D; ++k) off[k] = -1;
  for (std::size_t o = 0;; ++o) {
    std::uint32_t members = digits[o];
    Point<D> pn{};
    for (int k = 0; k < D && members != 0; ++k) {
      const std::int64_t v = static_cast<std::int64_t>(par[k]) + off[k];
      if (v < 0 || v >= side) members = 0;
      pn[k] = static_cast<std::uint32_t>(v);
    }
    if (members != 0) {
      const std::uint64_t pn_key = cell_key(pn);
      if (tree.find(l - 1, pn_key) >= 0) {
        for (; members != 0; members &= members - 1) {
          const auto d = static_cast<std::uint64_t>(std::countr_zero(members));
          const auto idx = tree.find(l, (pn_key << D) | d);
          if (idx < 0) continue;  // unoccupied cells do not communicate
          sink.to(cells[static_cast<std::size_t>(idx)].min_particle);
        }
      }
    }
    int k = 0;
    while (k < D && off[k] == 1) off[k++] = -1;
    if (k == D) break;
    ++off[k];
  }
}

/// Record the FFI events of the cells visited at particle positions
/// [lo, hi): particle j visits its finest cell when it is that cell's
/// lowest particle, then each ancestor whose lowest particle is j. Every
/// occupied cell is visited exactly once, by the particle that owns it,
/// so the sources rise with j. A visited cell at level l >= 1 sends its
/// interpolation event to its parent's owner; at l >= 2 it also records
/// its interaction list.
template <int D, typename Sinks>
void walk_range(const CellTree<D>& tree,
                const std::vector<std::uint32_t>& finest_of, Sinks& sinks,
                std::size_t lo, std::size_t hi) {
  auto interp = sinks[0];
  auto inter = sinks[1];
  const unsigned finest = tree.finest_level();
  for (std::size_t j = lo; j < hi; ++j) {
    std::uint32_t i = finest_of[j];
    if (i == kNoCell) continue;
    interp.source(j);
    inter.source(j);
    for (unsigned l = finest; l > 0; --l) {
      const std::uint64_t key = tree.cells(l)[i].key;
      const auto parent = static_cast<std::uint32_t>(
          tree.find(l - 1, parent_key<D>(key)));
      // The parent of an occupied cell is always occupied.
      const std::uint32_t parent_min = tree.cells(l - 1)[parent].min_particle;
      interp.to(parent_min);
      if (l >= 2) interaction_into<D>(tree, inter, l, key);
      if (parent_min != j) break;
      i = parent;
    }
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
  const std::size_t n = parts.front().particles();
  std::vector<std::vector<topo::Rank>> tables;
  std::vector<core::RankPairAccumulator> interpolation;
  std::vector<core::RankPairAccumulator> interaction;
  for (const Partition& part : parts) {
    assert(part.particles() == n);
    tables.push_back(part.owner_table());
    interpolation.emplace_back(part.processors());
    interaction.emplace_back(part.processors());
  }
  {
    const obs::Span span("ffi/walk");
    // finest_of[j]: index of the finest cell whose lowest particle is j.
    std::vector<std::uint32_t> finest_of(n, kNoCell);
    const auto& finest = tree.cells(tree.finest_level());
    for (std::size_t i = 0; i < finest.size(); ++i) {
      finest_of[finest[i].min_particle] = static_cast<std::uint32_t>(i);
    }
    const detail::OwnerTables owners(tables);
    owners.walk<2>(pool, nullptr, {std::span(interpolation),
                                   std::span(interaction)},
                   "ffi/stitch", [&](auto& sinks, std::size_t lo,
                                     std::size_t hi) {
                     walk_range<D>(tree, finest_of, sinks, lo, hi);
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
