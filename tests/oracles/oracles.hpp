// oracles.hpp — brute-force reference implementations for the
// differential suites.
//
// Every function here is written straight from the paper's definitions
// with no shared machinery from the optimized paths: the NFI oracle is
// the O(n²) pairwise double loop of Definition 1, the FFI oracle
// rebuilds the occupied-cell hierarchy with std::map and re-derives the
// interaction list from its geometric definition (children of the
// parent's neighbors, non-adjacent), and the topology oracle assembles
// each interconnect as an explicit edge list for BFS. Slow on purpose —
// the property suites run them on small instances only.
#pragma once

#include <memory>
#include <vector>

#include "core/totals.hpp"
#include "fmm/ffi.hpp"
#include "fmm/nfi.hpp"
#include "fmm/partition.hpp"
#include "sfc/curve.hpp"
#include "sfc/point.hpp"
#include "testing/domain.hpp"
#include "topology/graph.hpp"
#include "topology/topology.hpp"

namespace sfc::oracle {

/// O(n²) near-field totals straight from the definition: every ordered
/// pair (i, j), i != j, with ||x_i - x_j|| <= radius under `norm`
/// contributes one communication of cost d(owner(i), owner(j)).
/// `sorted` must be the SFC-sorted particle list `part` chunks.
template <int D>
core::CommTotals nfi_pairwise(const std::vector<Point<D>>& sorted,
                              const fmm::Partition& part,
                              const topo::Topology& net, unsigned radius,
                              fmm::NeighborNorm norm);

/// Definitional far-field totals: occupied-cell sets per level built with
/// ordered maps, lowest-sorted-particle ownership, interpolation edges
/// child->parent, anterpolation the mirror, and interaction lists
/// re-derived from the geometric definition. `level` is the finest
/// refinement level of the domain.
template <int D>
fmm::FfiTotals ffi_definitional(const std::vector<Point<D>>& sorted,
                                unsigned level, const fmm::Partition& part,
                                const topo::Topology& net);

/// Reference FFI histograms of `tree` under `part`, built without the
/// production walk: cells level by level in key order, each parent found
/// by key lookup, each interaction list materialized with
/// fmm::interaction_list, and every event add()-ed into staged sparse
/// accumulators (dense_budget = 0) — (owner(cell), owner(parent)) for
/// interpolation and, from the receiving side, (owner(member),
/// owner(cell)) for interaction lists. ffi_histograms records the
/// latter from the visited cell's side, so agreement also checks that
/// the interaction-list relation is symmetric.
template <int D>
fmm::FfiHistograms ffi_histograms_staged(const fmm::CellTree<D>& tree,
                                         const fmm::Partition& part);

/// Explicit-graph twin of a closed-form topology case: rank r occupies
/// the same physical position as in `make_topology`, so every BFS hop
/// distance must equal the closed form exactly.
topo::GraphTopology oracle_graph(const pbt::TopoCase& spec);

/// Both halves of a frozen-assignment ACD snapshot, as the dynamics
/// differential needs them after every move batch.
struct FrozenTotals {
  core::CommTotals nfi;
  fmm::FfiTotals ffi;
};

/// Full-recompute reference for the incremental engine: NFI and FFI
/// totals of `positions` under the particle→rank assignment of `part`,
/// via nfi_pairwise and ffi_definitional. `positions` is whatever order
/// the engine froze (cell ownership is lowest array index, matching the
/// engine's lowest-sorted-particle rule); it is NOT re-sorted here —
/// that is the point: the oracle prices the frozen assignment.
template <int D>
FrozenTotals frozen_totals(const std::vector<Point<D>>& positions,
                           unsigned level, const fmm::Partition& part,
                           const topo::Topology& net, unsigned radius,
                           fmm::NeighborNorm norm);

extern template core::CommTotals nfi_pairwise<2>(const std::vector<Point<2>>&,
                                                 const fmm::Partition&,
                                                 const topo::Topology&,
                                                 unsigned, fmm::NeighborNorm);
extern template core::CommTotals nfi_pairwise<3>(const std::vector<Point<3>>&,
                                                 const fmm::Partition&,
                                                 const topo::Topology&,
                                                 unsigned, fmm::NeighborNorm);
extern template fmm::FfiTotals ffi_definitional<2>(
    const std::vector<Point<2>>&, unsigned, const fmm::Partition&,
    const topo::Topology&);
extern template fmm::FfiTotals ffi_definitional<3>(
    const std::vector<Point<3>>&, unsigned, const fmm::Partition&,
    const topo::Topology&);
extern template fmm::FfiHistograms ffi_histograms_staged<2>(
    const fmm::CellTree<2>&, const fmm::Partition&);
extern template fmm::FfiHistograms ffi_histograms_staged<3>(
    const fmm::CellTree<3>&, const fmm::Partition&);
extern template FrozenTotals frozen_totals<2>(const std::vector<Point<2>>&,
                                              unsigned, const fmm::Partition&,
                                              const topo::Topology&, unsigned,
                                              fmm::NeighborNorm);
extern template FrozenTotals frozen_totals<3>(const std::vector<Point<3>>&,
                                              unsigned, const fmm::Partition&,
                                              const topo::Topology&, unsigned,
                                              fmm::NeighborNorm);

}  // namespace sfc::oracle
