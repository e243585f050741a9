// Differential suite for the source-grouped histogram walks: the FFI walk
// over particles in curve order and the NFI owners scan in source order.
//
// ffi_histograms visits every occupied cell once, from the particle that
// owns it, and records interaction-list events from the visited cell's
// side. The oracle (tests/oracles) walks the cells level by level in key
// order, materializes each interaction list, records each event from the
// receiving side and add()s everything into staged sparse accumulators.
// The two must agree pair for pair and byte for byte over every paper
// curve, D = 2 and 3, dense, sparse and mixed processor counts, uneven and
// weighted partitions (empty ranks), shared finest cells, and serial and
// 4-thread walks whose chunk seams split source groups. The symmetry of
// the interaction-list relation that the walk relies on is checked
// directly as a property.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <numeric>
#include <optional>
#include <ostream>
#include <random>
#include <string>
#include <tuple>
#include <vector>

#include "core/rank_pair.hpp"
#include "fmm/cells.hpp"
#include "fmm/ffi.hpp"
#include "fmm/nfi.hpp"
#include "fmm/occupancy.hpp"
#include "fmm/partition.hpp"
#include "oracles/oracles.hpp"
#include "sfc/curve.hpp"
#include "testing/domain.hpp"
#include "testing/gtest.hpp"
#include "util/thread_pool.hpp"

namespace sfc::pbt {
namespace {

using PairList = std::vector<std::tuple<topo::Rank, topo::Rank, std::uint64_t>>;

PairList pairs_of(const core::RankPairAccumulator& acc) {
  PairList out;
  acc.for_each([&out](topo::Rank a, topo::Rank b, std::uint64_t c) {
    out.emplace_back(a, b, c);
  });
  return out;
}

std::vector<std::uint8_t> bytes_of(const core::RankPairAccumulator& acc) {
  std::vector<std::uint8_t> out;
  core::rank_pairs_serialize(acc, out);
  return out;
}

/// Codec bytes of `acc` recorded as a sparse histogram, so a dense
/// production histogram compares byte for byte with the sparse oracle.
std::vector<std::uint8_t> sparse_bytes_of(const core::RankPairAccumulator& acc) {
  core::RankPairAccumulator sparse(acc.procs(), 0);
  sparse += acc;
  return bytes_of(sparse);
}

util::ThreadPool& four_threads() {
  static util::ThreadPool pool(4);
  return pool;
}

/// `n` random points of the 2^level grid (duplicates allowed: two
/// particles may share a finest cell), sorted by `kind` — stable, so
/// equal keys keep their draw order.
template <int D>
std::vector<Point<D>> curve_sorted_points(std::size_t n, unsigned level,
                                          CurveKind kind, std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  const std::uint32_t side = 1u << level;
  std::vector<Point<D>> pts(n);
  for (Point<D>& p : pts) {
    for (int k = 0; k < D; ++k) p[k] = static_cast<std::uint32_t>(rng() % side);
  }
  const auto curve = make_curve<D>(kind);
  std::vector<std::uint64_t> keys(n);
  for (std::size_t i = 0; i < n; ++i) keys[i] = curve->index(pts[i], level);
  std::vector<std::size_t> order(n);
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t a, std::size_t b) { return keys[a] < keys[b]; });
  std::vector<Point<D>> sorted;
  sorted.reserve(n);
  for (const std::size_t i : order) sorted.push_back(pts[i]);
  return sorted;
}

/// One family's production histogram against the oracle's.
void expect_same_histogram(const core::RankPairAccumulator& walk,
                           const core::RankPairAccumulator& oracle,
                           const std::string& what) {
  EXPECT_EQ(pairs_of(walk), pairs_of(oracle)) << what;
  EXPECT_EQ(sparse_bytes_of(walk), bytes_of(oracle)) << what;
  if (!walk.dense()) {
    EXPECT_EQ(bytes_of(walk), bytes_of(oracle)) << what;
    // A sealed sparse histogram holds exactly its pairs.
    std::size_t pairs = 0;
    walk.for_each([&pairs](topo::Rank, topo::Rank, std::uint64_t) { ++pairs; });
    EXPECT_EQ(walk.memory_bytes(), pairs * 2 * sizeof(std::uint64_t)) << what;
  }
}

/// The multi-partition walk, and the single-partition walk of each
/// partition, must equal the staged oracle serially and on 4 threads.
template <int D>
void expect_walk_matches_oracle(const std::vector<Point<D>>& sorted,
                                unsigned level,
                                const std::vector<fmm::Partition>& parts,
                                const std::string& what) {
  const fmm::CellTree<D> tree(sorted, level);
  std::vector<fmm::FfiHistograms> oracle;
  for (const fmm::Partition& part : parts) {
    oracle.push_back(oracle::ffi_histograms_staged<D>(tree, part));
  }
  for (util::ThreadPool* pool :
       {static_cast<util::ThreadPool*>(nullptr), &four_threads()}) {
    const std::vector<fmm::FfiHistograms> multi =
        fmm::ffi_histograms<D>(tree, parts, pool);
    ASSERT_EQ(multi.size(), parts.size());
    for (std::size_t k = 0; k < parts.size(); ++k) {
      const std::string where =
          what + " p=" + std::to_string(parts[k].processors()) +
          (parts[k].is_weighted() ? " weighted" : "") +
          (pool == nullptr ? " serial" : " 4 threads");
      expect_same_histogram(multi[k].interpolation, oracle[k].interpolation,
                            where + " interpolation");
      expect_same_histogram(multi[k].interaction, oracle[k].interaction,
                            where + " interaction");
      const fmm::FfiHistograms single =
          fmm::ffi_histograms<D>(tree, parts[k], pool);
      EXPECT_EQ(bytes_of(single.interpolation),
                bytes_of(multi[k].interpolation))
          << where << " single-partition interpolation";
      EXPECT_EQ(bytes_of(single.interaction), bytes_of(multi[k].interaction))
          << where << " single-partition interaction";
    }
  }
}

std::vector<fmm::Partition> partitions_of(std::size_t n,
                                          std::initializer_list<topo::Rank> ps) {
  std::vector<fmm::Partition> parts;
  for (const topo::Rank p : ps) parts.emplace_back(n, p);
  return parts;
}

TEST(FfiWalkDiff, PaperCurvesTwoDimensions) {
  // n = 6007 at level 8: a 4-thread walk cuts 5 chunks whose seams fall
  // inside source groups for p = 7 (~858 particles a rank) and p = 2500
  // (2–3 a rank, sparse). p = 256 is dense, p = 9000 > n is sparse with
  // empty ranks, and none of them divides n. Random points share finest
  // cells now and then.
  for (const CurveKind kind : kPaperCurves) {
    const auto sorted = curve_sorted_points<2>(6007, 8, kind, 11);
    expect_walk_matches_oracle<2>(sorted, 8,
                                  partitions_of(sorted.size(),
                                                {7, 256, 2500, 9000}),
                                  std::string(curve_name(kind)));
  }
}

TEST(FfiWalkDiff, PaperCurvesThreeDimensions) {
  // n = 3003 at level 5: two 4-thread chunks, seam at 1501 — inside a
  // two-particle group for p = 2100 (sparse).
  for (const CurveKind kind : kPaperCurves) {
    const auto sorted = curve_sorted_points<3>(3003, 5, kind, 12);
    std::string what = "3-D ";
    what += curve_name(kind);
    expect_walk_matches_oracle<3>(
        sorted, 5, partitions_of(sorted.size(), {3, 512, 2100}), what);
  }
}

TEST(FfiWalkDiff, WeightedPartitionsWithEmptyRanks) {
  // Skewed weights: a few heavy particles take whole chunks, so many
  // ranks own nothing, dense and sparse.
  const auto sorted = curve_sorted_points<2>(5000, 8, CurveKind::kHilbert, 13);
  std::vector<double> weights(sorted.size(), 1.0);
  for (std::size_t i = 0; i < weights.size(); i += 97) weights[i] = 400.0;
  // Weightless particles [1000, 4000) all join one rank, whose source
  // group spans every 4-thread chunk seam in between (sparse).
  std::vector<double> gap(sorted.size(), 1.0);
  std::fill(gap.begin() + 1000, gap.begin() + 4000, 0.0);
  const std::vector<fmm::Partition> parts = {
      fmm::Partition::weighted(weights, 300),
      fmm::Partition::weighted(weights, 3000),
      fmm::Partition::weighted(gap, 2500), fmm::Partition(sorted.size(), 40)};
  expect_walk_matches_oracle<2>(sorted, 8, parts, "weighted");
}

TEST(FfiWalkDiff, SharedFinestCellIsVisitedByItsLowestParticle) {
  // Particles 0 and 2 share a finest cell; particle 1 sits far away. One
  // rank per particle, so ownership is visible in the pairs.
  const std::vector<Point2> sorted = {{0, 0}, {7, 7}, {0, 0}};
  const fmm::CellTree<2> tree(sorted, 3);
  const fmm::Partition part(sorted.size(), 3);
  const fmm::FfiHistograms hist = fmm::ffi_histograms<2>(tree, part);
  const fmm::FfiHistograms oracle =
      oracle::ffi_histograms_staged<2>(tree, part);
  EXPECT_EQ(pairs_of(hist.interpolation), pairs_of(oracle.interpolation));
  EXPECT_EQ(pairs_of(hist.interaction), pairs_of(oracle.interaction));
  // Rank 2's particle owns no cell, so it never appears.
  hist.interpolation.for_each([](topo::Rank a, topo::Rank b, std::uint64_t) {
    EXPECT_NE(a, 2u);
    EXPECT_NE(b, 2u);
  });
  // Six occupied non-root cells (three per particle chain below the
  // root), each sending once to its parent.
  EXPECT_EQ(hist.interpolation.events(), 6u);
}

// ------------------------------------------------- NFI owners scan

TEST(NfiOwnersDiff, SourceGroupedScanMatchesStagedHistogram) {
  // The sweep's layout: particles in a scrambled (canonical) order, owner
  // tables from contiguous partitions of a curve order. The owners scan
  // visits them in source order; the contiguous-partition nfi_histogram
  // over the curve-sorted copy stages every event. Dense p = 64 and
  // sparse p = 2500 / 9000 in one scan, serially and on 4 threads.
  const auto sorted = curve_sorted_points<2>(6007, 8, CurveKind::kHilbert, 14);
  std::vector<Point2> distinct;
  {
    std::vector<std::uint64_t> seen;
    for (const Point2& p : sorted) {
      const std::uint64_t key = pack(p, 8);
      if (std::find(seen.begin(), seen.end(), key) != seen.end()) continue;
      seen.push_back(key);
      distinct.push_back(p);
    }
  }
  const std::size_t n = distinct.size();
  std::vector<std::size_t> slot(n);  // curve position -> scrambled index
  std::iota(slot.begin(), slot.end(), std::size_t{0});
  std::shuffle(slot.begin(), slot.end(), std::mt19937_64(15));
  std::vector<Point2> scrambled(n);
  for (std::size_t i = 0; i < n; ++i) scrambled[slot[i]] = distinct[i];
  const fmm::OccupancyGrid<2> sorted_grid(distinct, 8);
  const fmm::OccupancyGrid<2> scrambled_grid(scrambled, 8);

  const std::vector<topo::Rank> procs = {64, 2500, 9000};
  std::vector<std::vector<topo::Rank>> owners;
  for (const topo::Rank p : procs) {
    const std::vector<topo::Rank> by_pos = fmm::Partition(n, p).owner_table();
    std::vector<topo::Rank>& own = owners.emplace_back(n);
    for (std::size_t i = 0; i < n; ++i) own[slot[i]] = by_pos[i];
  }
  for (const unsigned radius : {1u, 3u}) {
    for (util::ThreadPool* pool :
         {static_cast<util::ThreadPool*>(nullptr), &four_threads()}) {
      const std::vector<core::RankPairAccumulator> scan =
          fmm::nfi_histogram_owners<2>(scrambled, scrambled_grid, owners,
                                       procs, radius,
                                       fmm::NeighborNorm::kChebyshev, pool);
      for (std::size_t k = 0; k < procs.size(); ++k) {
        const core::RankPairAccumulator staged = fmm::nfi_histogram<2>(
            distinct, sorted_grid, fmm::Partition(n, procs[k]), radius,
            fmm::NeighborNorm::kChebyshev, nullptr);
        const std::string where =
            "p=" + std::to_string(procs[k]) + " r=" + std::to_string(radius) +
            (pool == nullptr ? " serial" : " 4 threads");
        EXPECT_EQ(pairs_of(scan[k]), pairs_of(staged)) << where;
        EXPECT_EQ(bytes_of(scan[k]), bytes_of(staged)) << where;
        EXPECT_GT(scan[k].events(), 0u) << where;
      }
    }
  }
}

// ------------------------------------- interaction-list symmetry

template <int D>
struct TreeCase {
  unsigned level = 2;
  std::vector<Point<D>> pts;
};

template <int D>
std::ostream& operator<<(std::ostream& os, const TreeCase<D>& c) {
  return os << "{D=" << D << ", level=" << c.level << ", pts="
            << detail::Printer<std::vector<Point<D>>>::print(c.pts) << "}";
}

template <int D>
Gen<TreeCase<D>> tree_case(unsigned max_level) {
  return Gen<TreeCase<D>>{
      [max_level](Rand& r) {
        TreeCase<D> c;
        c.level = static_cast<unsigned>(r.between(2, max_level));
        const std::size_t max_n = static_cast<std::size_t>(
            std::min<std::uint64_t>(120, grid_size<D>(c.level) / 2));
        c.pts = distinct_points<D>(c.level, 1, max_n).sample(r);
        return c;
      },
      [](const TreeCase<D>& c, std::vector<TreeCase<D>>& out) {
        for (auto& pts :
             distinct_points<D>(c.level, 1, c.pts.size()).shrinks(c.pts)) {
          out.push_back(TreeCase<D>{c.level, std::move(pts)});
        }
      }};
}

/// d is in c's interaction list exactly when c is in d's, for every
/// occupied cell of the tree — the relation the walk uses to record each
/// pair from the visited cell's side.
template <int D>
bool interaction_lists_are_symmetric(const TreeCase<D>& c) {
  const fmm::CellTree<D> tree(c.pts, c.level);
  std::vector<Point<D>> list;
  std::vector<Point<D>> back;
  for (unsigned l = 2; l <= c.level; ++l) {
    for (const auto& cell : tree.cells(l)) {
      const Point<D> p = morton_point<D>(cell.key);
      fmm::interaction_list(p, l, list);
      for (const Point<D>& q : list) {
        if (tree.find(l, fmm::cell_key(q)) < 0) continue;
        fmm::interaction_list(q, l, back);
        if (std::find(back.begin(), back.end(), p) == back.end()) return false;
      }
    }
  }
  return true;
}

TEST(InteractionListProperty, MembershipIsSymmetricOnRandomTrees) {
  SFCACD_PBT_CHECK_CFG(tree_case<2>(6), CheckConfig{}.scaled(0.2),
                       interaction_lists_are_symmetric<2>);
  SFCACD_PBT_CHECK_CFG(tree_case<3>(4), CheckConfig{}.scaled(0.05),
                       interaction_lists_are_symmetric<3>);
}

}  // namespace
}  // namespace sfc::pbt
