#include "oracles/oracles.hpp"

#include <cstdint>
#include <map>
#include <stdexcept>
#include <utility>

#include "fmm/cells.hpp"

namespace sfc::oracle {
namespace {

/// Chebyshev / Manhattan membership test for the near-field ball.
template <int D>
bool within_ball(const Point<D>& a, const Point<D>& b, unsigned radius,
                 fmm::NeighborNorm norm) {
  return norm == fmm::NeighborNorm::kChebyshev
             ? chebyshev(a, b) <= radius
             : manhattan(a, b) <= radius;
}

/// Occupied cells of `sorted` viewed at level `l` (finest = `level`):
/// packed row-major cell key -> lowest sorted-particle index. Ordered
/// map: the oracle's iteration order is the key order, and ownership is
/// a min-fold so order never matters for the totals.
template <int D>
std::map<std::uint64_t, std::uint32_t> occupied_cells(
    const std::vector<Point<D>>& sorted, unsigned level, unsigned l) {
  std::map<std::uint64_t, std::uint32_t> cells;
  for (std::size_t i = 0; i < sorted.size(); ++i) {
    Point<D> c{};
    for (int d = 0; d < D; ++d) c[d] = sorted[i][d] >> (level - l);
    const std::uint64_t key = pack(c, l);
    const auto [it, inserted] =
        cells.emplace(key, static_cast<std::uint32_t>(i));
    if (!inserted && it->second > i) {
      it->second = static_cast<std::uint32_t>(i);
    }
  }
  return cells;
}

template <int D>
Point<D> parent_of(const Point<D>& cell) {
  Point<D> p{};
  for (int d = 0; d < D; ++d) p[d] = cell[d] >> 1;
  return p;
}

}  // namespace

template <int D>
core::CommTotals nfi_pairwise(const std::vector<Point<D>>& sorted,
                              const fmm::Partition& part,
                              const topo::Topology& net, unsigned radius,
                              fmm::NeighborNorm norm) {
  core::CommTotals totals;
  const std::size_t n = sorted.size();
  for (std::size_t i = 0; i < n; ++i) {
    const topo::Rank src = part.proc_of(i);
    for (std::size_t j = 0; j < n; ++j) {
      if (j == i) continue;
      if (!within_ball(sorted[i], sorted[j], radius, norm)) continue;
      totals.hops += net.distance(src, part.proc_of(j));
      ++totals.count;
    }
  }
  return totals;
}

template <int D>
fmm::FfiTotals ffi_definitional(const std::vector<Point<D>>& sorted,
                                unsigned level, const fmm::Partition& part,
                                const topo::Topology& net) {
  fmm::FfiTotals totals;
  if (sorted.empty()) return totals;

  std::vector<std::map<std::uint64_t, std::uint32_t>> levels(level + 1);
  for (unsigned l = 0; l <= level; ++l) {
    levels[l] = occupied_cells<D>(sorted, level, l);
  }

  // Interpolation: every occupied non-root cell sends to its parent
  // (anterpolation is the mirror with identical symmetric distances).
  for (unsigned l = 1; l <= level; ++l) {
    for (const auto& [key, minp] : levels[l]) {
      const Point<D> cell = unpack<D>(key, l);
      const std::uint64_t pk = pack(parent_of(cell), l - 1);
      const std::uint32_t parent_minp = levels[l - 1].at(pk);
      totals.interpolation.hops +=
          net.distance(part.proc_of(minp), part.proc_of(parent_minp));
      ++totals.interpolation.count;
      totals.anterpolation.hops +=
          net.distance(part.proc_of(parent_minp), part.proc_of(minp));
      ++totals.anterpolation.count;
    }
  }

  // Interaction lists, from the geometric definition: the same-level
  // children of the parent's neighbors that are not adjacent to (and
  // distinct from) the cell. Levels 0 and 1 have none.
  for (unsigned l = 2; l <= level; ++l) {
    const std::int64_t parent_side = std::int64_t{1} << (l - 1);
    for (const auto& [key, minp] : levels[l]) {
      const Point<D> cell = unpack<D>(key, l);
      const topo::Rank owner = part.proc_of(minp);
      const Point<D> par = parent_of(cell);
      // Odometer over the parent's {-1,0,1}^D neighbor offsets.
      int off[4];
      for (int d = 0; d < D; ++d) off[d] = -1;
      for (;;) {
        bool zero = true;
        bool in = true;
        Point<D> pn{};
        for (int d = 0; d < D; ++d) {
          if (off[d] != 0) zero = false;
          const std::int64_t v = static_cast<std::int64_t>(par[d]) + off[d];
          if (v < 0 || v >= parent_side) {
            in = false;
            break;
          }
          pn[d] = static_cast<std::uint32_t>(v);
        }
        if (!zero && in) {
          // pn's 2^D children at level l.
          for (std::uint32_t mask = 0; mask < (1u << D); ++mask) {
            Point<D> child{};
            for (int d = 0; d < D; ++d) {
              child[d] = (pn[d] << 1) | ((mask >> d) & 1u);
            }
            if (chebyshev(child, cell) <= 1) continue;  // adjacent or self
            const auto it = levels[l].find(pack(child, l));
            if (it == levels[l].end()) continue;  // unoccupied: silent
            totals.interaction.hops +=
                net.distance(part.proc_of(it->second), owner);
            ++totals.interaction.count;
          }
        }
        int d = 0;
        while (d < D && off[d] == 1) off[d++] = -1;
        if (d == D) break;
        ++off[d];
      }
    }
  }
  return totals;
}

template <int D>
fmm::FfiHistograms ffi_histograms_staged(const fmm::CellTree<D>& tree,
                                         const fmm::Partition& part) {
  fmm::FfiHistograms hist(core::RankPairAccumulator(part.processors(), 0),
                          core::RankPairAccumulator(part.processors(), 0));
  std::vector<Point<D>> members;
  for (unsigned l = 1; l <= tree.finest_level(); ++l) {
    const auto& cells = tree.cells(l);
    const auto& parents = tree.cells(l - 1);
    for (const auto& cell : cells) {
      const topo::Rank owner = part.proc_of(cell.min_particle);
      const std::int64_t pi = tree.find(l - 1, fmm::parent_key<D>(cell.key));
      if (pi < 0) throw std::logic_error("occupied cell without a parent");
      hist.interpolation.add(
          owner,
          part.proc_of(parents[static_cast<std::size_t>(pi)].min_particle));
      fmm::interaction_list(morton_point<D>(cell.key), l, members);
      for (const Point<D>& member : members) {
        const std::int64_t mi = tree.find(l, fmm::cell_key(member));
        if (mi < 0) continue;  // unoccupied cells do not communicate
        hist.interaction.add(
            part.proc_of(cells[static_cast<std::size_t>(mi)].min_particle),
            owner);
      }
    }
  }
  return hist;
}

topo::GraphTopology oracle_graph(const pbt::TopoCase& spec) {
  switch (spec.kind) {
    case topo::TopologyKind::kBus:
      return topo::build_path_graph(spec.procs);
    case topo::TopologyKind::kRing:
      return topo::build_ring_graph(spec.procs);
    case topo::TopologyKind::kMesh:
    case topo::TopologyKind::kTorus: {
      // p = 4^m: rank r sits at the ranking curve's point(r) on the
      // 2^m-sided grid, exactly as GridTopologyBase embeds it.
      unsigned m = 0;
      while ((topo::Rank{1} << (2 * m)) < spec.procs) ++m;
      if ((topo::Rank{1} << (2 * m)) != spec.procs) {
        throw std::invalid_argument("mesh/torus oracle: p not a power of 4");
      }
      const std::uint32_t side = 1u << m;
      const auto curve = make_curve<2>(spec.ranking);
      std::vector<std::pair<std::uint32_t, std::uint32_t>> coords;
      coords.reserve(spec.procs);
      for (topo::Rank r = 0; r < spec.procs; ++r) {
        const Point2 p = curve->point(r, m);
        coords.emplace_back(p[0], p[1]);
      }
      return topo::build_mesh_graph(side, coords,
                                    spec.kind == topo::TopologyKind::kTorus);
    }
    case topo::TopologyKind::kQuadtree:
      return topo::build_tree_graph(spec.procs, 4);
    case topo::TopologyKind::kHypercube:
      return topo::build_hypercube_graph(spec.procs);
  }
  throw std::invalid_argument("oracle_graph: unknown topology kind");
}

template <int D>
FrozenTotals frozen_totals(const std::vector<Point<D>>& positions,
                           unsigned level, const fmm::Partition& part,
                           const topo::Topology& net, unsigned radius,
                           fmm::NeighborNorm norm) {
  return {nfi_pairwise<D>(positions, part, net, radius, norm),
          ffi_definitional<D>(positions, level, part, net)};
}

template core::CommTotals nfi_pairwise<2>(const std::vector<Point<2>>&,
                                          const fmm::Partition&,
                                          const topo::Topology&, unsigned,
                                          fmm::NeighborNorm);
template core::CommTotals nfi_pairwise<3>(const std::vector<Point<3>>&,
                                          const fmm::Partition&,
                                          const topo::Topology&, unsigned,
                                          fmm::NeighborNorm);
template fmm::FfiTotals ffi_definitional<2>(const std::vector<Point<2>>&,
                                            unsigned, const fmm::Partition&,
                                            const topo::Topology&);
template fmm::FfiTotals ffi_definitional<3>(const std::vector<Point<3>>&,
                                            unsigned, const fmm::Partition&,
                                            const topo::Topology&);
template fmm::FfiHistograms ffi_histograms_staged<2>(const fmm::CellTree<2>&,
                                                     const fmm::Partition&);
template fmm::FfiHistograms ffi_histograms_staged<3>(const fmm::CellTree<3>&,
                                                     const fmm::Partition&);
template FrozenTotals frozen_totals<2>(const std::vector<Point<2>>&, unsigned,
                                       const fmm::Partition&,
                                       const topo::Topology&, unsigned,
                                       fmm::NeighborNorm);
template FrozenTotals frozen_totals<3>(const std::vector<Point<3>>&, unsigned,
                                       const fmm::Partition&,
                                       const topo::Topology&, unsigned,
                                       fmm::NeighborNorm);

}  // namespace sfc::oracle
