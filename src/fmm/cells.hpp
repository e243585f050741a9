// cells.hpp — quadtree/octree cell geometry for the FMM model.
//
// The spatial domain is a 2^k x 2^k (x 2^k) grid of finest-resolution
// cells. A cell at level L (0 = root, k = finest) has coordinates in
// [0, 2^L)^D; its children at level L+1 double each coordinate. Cells are
// keyed by their Morton code, which makes the parent key a simple shift —
// the property the far-field pass uses to coarsen occupied-cell lists
// without re-sorting.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "sfc/morton.hpp"
#include "sfc/point.hpp"
#include "util/bits.hpp"

namespace sfc::fmm {

/// Cell containing a finest-level point, viewed at a coarser level.
template <int D>
constexpr Point<D> cell_at_level(const Point<D>& finest, unsigned finest_level,
                                 unsigned level) noexcept {
  Point<D> c{};
  const unsigned shift = finest_level - level;
  for (int i = 0; i < D; ++i) c[i] = finest[i] >> shift;
  return c;
}

template <int D>
constexpr Point<D> parent_cell(const Point<D>& cell) noexcept {
  Point<D> p{};
  for (int i = 0; i < D; ++i) p[i] = cell[i] >> 1;
  return p;
}

/// True iff the two same-level cells share an edge or corner (Chebyshev
/// distance exactly 1). A cell is not adjacent to itself.
template <int D>
constexpr bool are_adjacent(const Point<D>& a, const Point<D>& b) noexcept {
  return chebyshev(a, b) == 1;
}

/// All same-level cells at Chebyshev distance 1 that lie on the level grid
/// (up to 3^D - 1 of them; fewer at the boundary).
template <int D>
void neighbors(const Point<D>& cell, unsigned level,
               std::vector<Point<D>>& out) {
  out.clear();
  const std::int64_t side = 1ll << level;
  Point<D> q{};
  // Odometer over the {-1,0,1}^D offsets.
  int off[4];  // D <= 4 (static_assert in Point)
  for (int i = 0; i < D; ++i) off[i] = -1;
  for (;;) {
    bool zero = true;
    bool in = true;
    for (int i = 0; i < D; ++i) {
      if (off[i] != 0) zero = false;
      const std::int64_t v = static_cast<std::int64_t>(cell[i]) + off[i];
      if (v < 0 || v >= side) {
        in = false;
        break;
      }
      q[i] = static_cast<std::uint32_t>(v);
    }
    if (!zero && in) out.push_back(q);
    int d = 0;
    while (d < D && off[d] == 1) off[d++] = -1;
    if (d == D) break;
    ++off[d];
  }
}

/// Visit the FMM interaction list of `cell` at `level` (paper Section
/// III, Fig. 4) without materializing it: fn(child) for every same-level
/// child of the parent's neighbors that is not adjacent to (and distinct
/// from) `cell`. Empty at levels 0 and 1, where the parent has no
/// neighbors; at most 27 visits in 2-D, 189 in 3-D. Allocation-free —
/// the FFI hot loop calls this once per occupied cell, so the candidate
/// cells go straight from the offset odometer into the key lookup.
template <int D, typename Fn>
void for_each_interaction(const Point<D>& cell, unsigned level, Fn&& fn) {
  if (level < 2) return;
  const Point<D> par = parent_cell(cell);
  const std::int64_t side = 1ll << (level - 1);
  Point<D> pn{};
  int off[4];  // D <= 4 (static_assert in Point)
  for (int i = 0; i < D; ++i) off[i] = -1;
  for (;;) {
    bool in = true;
    for (int i = 0; i < D; ++i) {
      const std::int64_t v = static_cast<std::int64_t>(par[i]) + off[i];
      if (v < 0 || v >= side) {
        in = false;
        break;
      }
      pn[i] = static_cast<std::uint32_t>(v);
    }
    if (in) {
      // Enumerate pn's 2^D children (the self-neighbor contributes the
      // cell's own siblings; the chebyshev filter drops the adjacent
      // ones, so no explicit zero-offset test is needed).
      for (std::uint32_t mask = 0; mask < (1u << D); ++mask) {
        Point<D> child{};
        for (int i = 0; i < D; ++i) {
          child[i] = (pn[i] << 1) | ((mask >> i) & 1u);
        }
        if (chebyshev(child, cell) > 1) fn(child);
      }
    }
    int d = 0;
    while (d < D && off[d] == 1) off[d++] = -1;
    if (d == D) break;
    ++off[d];
  }
}

/// Key-level sibling of for_each_interaction: fn(child_key) over the same
/// candidate set (enumeration order may differ), without materializing
/// points or Morton-encoding each candidate. The parent-neighbor key is
/// assembled from per-dimension spread components and each child key is
/// then (neighbor_key << D) | child_mask — Morton's low D bits *are* the
/// per-dimension low coordinate bits. The FFI delta path probes every
/// candidate of every touched cell, so the per-candidate encode this
/// removes is its hottest instruction stream.
template <int D, typename Fn>
void for_each_interaction_keys(const Point<D>& cell, unsigned level,
                               Fn&& fn) {
  if (level < 2) return;
  if constexpr (D != 2 && D != 3) {
    for_each_interaction<D>(cell, level,
                            [&](const Point<D>& q) { fn(cell_key<D>(q)); });
    return;
  } else {
    const Point<D> par = parent_cell(cell);
    const std::int64_t side = 1ll << (level - 1);
    // Per dimension and parent offset in {-1,0,1}: bounds, spread key
    // component, and whether each child bit lands within Chebyshev
    // distance 1 of `cell` along that dimension.
    constexpr auto kDims = static_cast<std::size_t>(D);
    bool in[kDims][3] = {};
    std::uint64_t comp[kDims][3] = {};
    bool adj[kDims][3][2] = {};
    for (int i = 0; i < D; ++i) {
      for (int o = 0; o < 3; ++o) {
        const std::int64_t v = static_cast<std::int64_t>(par[i]) + (o - 1);
        in[i][o] = v >= 0 && v < side;
        if (!in[i][o]) continue;
        const auto u = static_cast<std::uint32_t>(v);
        comp[i][o] = (D == 2 ? util::part1_by1(u) : util::part1_by2(u)) << i;
        for (int b = 0; b < 2; ++b) {
          const std::int64_t d = 2 * v + b - static_cast<std::int64_t>(cell[i]);
          adj[i][o][b] = d >= -1 && d <= 1;
        }
      }
    }
    int off[kDims];
    for (int i = 0; i < D; ++i) off[i] = 0;
    for (;;) {
      bool bounded = true;
      std::uint64_t pnk = 0;
      for (int i = 0; i < D; ++i) {
        if (!in[i][off[i]]) {
          bounded = false;
          break;
        }
        pnk |= comp[i][off[i]];
      }
      if (bounded) {
        for (std::uint32_t mask = 0; mask < (1u << D); ++mask) {
          bool adjacent = true;
          for (int i = 0; i < D; ++i) {
            adjacent &= adj[i][off[i]][(mask >> i) & 1u];
          }
          // Adjacent (or identical) children are near-field, not
          // interaction-list members — same filter as chebyshev > 1.
          if (!adjacent) fn((pnk << D) | mask);
        }
      }
      int d = 0;
      while (d < D && off[d] == 2) off[d++] = 0;
      if (d == D) break;
      ++off[d];
    }
  }
}

/// Materialized interaction list (same enumeration order as
/// for_each_interaction; the reference FFI path and the tests use this
/// form).
template <int D>
void interaction_list(const Point<D>& cell, unsigned level,
                      std::vector<Point<D>>& out) {
  out.clear();
  for_each_interaction<D>(cell, level,
                          [&out](const Point<D>& child) { out.push_back(child); });
}

/// Morton key of a cell (level-agnostic; level only bounds coordinates).
template <int D>
constexpr std::uint64_t cell_key(const Point<D>& cell) noexcept {
  return morton_index(cell);
}

template <int D>
constexpr std::uint64_t parent_key(std::uint64_t key) noexcept {
  return key >> D;
}

}  // namespace sfc::fmm
