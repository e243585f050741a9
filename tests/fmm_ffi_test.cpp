// Far-field interaction model tests: cell-tree invariants and
// hand-computed interpolation/anterpolation/interaction totals.
#include "fmm/ffi.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <random>
#include <tuple>
#include <vector>

#include "fmm/cells.hpp"
#include "topology/linear.hpp"
#include "util/thread_pool.hpp"

namespace sfc::fmm {
namespace {

TEST(CellTree, SingleParticleChainsToRoot) {
  const std::vector<Point2> particles = {make_point(5, 2)};
  const CellTree<2> tree(particles, 3);
  EXPECT_EQ(tree.finest_level(), 3u);
  for (unsigned l = 0; l <= 3; ++l) {
    ASSERT_EQ(tree.cells(l).size(), 1u) << "level " << l;
    EXPECT_EQ(tree.cells(l)[0].min_particle, 0u);
  }
  EXPECT_EQ(tree.cells(3)[0].key, cell_key(make_point(5, 2)));
  EXPECT_EQ(tree.cells(0)[0].key, 0u);
  EXPECT_EQ(tree.total_cells(), 4u);
}

TEST(CellTree, ParentOfOccupiedCellIsOccupied) {
  std::vector<Point2> particles;
  for (std::uint32_t i = 0; i < 60; ++i) {
    particles.push_back(make_point((i * 11) % 16, (i * 5 + 2) % 16));
  }
  std::sort(particles.begin(), particles.end(),
            [](const Point2& a, const Point2& b) {
              return pack(a, 4) < pack(b, 4);
            });
  particles.erase(std::unique(particles.begin(), particles.end()),
                  particles.end());
  const CellTree<2> tree(particles, 4);
  for (unsigned l = 1; l <= 4; ++l) {
    for (const auto& cell : tree.cells(l)) {
      ASSERT_GE(tree.find(l - 1, parent_key<2>(cell.key)), 0)
          << "level " << l;
    }
  }
}

TEST(CellTree, MinParticlePropagatesUpward) {
  // Two particles: index order determines ownership everywhere above.
  const std::vector<Point2> particles = {make_point(3, 3), make_point(0, 0)};
  const CellTree<2> tree(particles, 2);
  // Root and both level-1 quadrants take the min index of their subtree.
  EXPECT_EQ(tree.cells(0)[0].min_particle, 0u);
  const auto ll = tree.find(1, cell_key(make_point(0, 0)));
  const auto ur = tree.find(1, cell_key(make_point(1, 1)));
  ASSERT_GE(ll, 0);
  ASSERT_GE(ur, 0);
  EXPECT_EQ(tree.cells(1)[static_cast<std::size_t>(ll)].min_particle, 1u);
  EXPECT_EQ(tree.cells(1)[static_cast<std::size_t>(ur)].min_particle, 0u);
}

TEST(CellTree, FindReturnsMinusOneForUnoccupied) {
  const std::vector<Point2> particles = {make_point(0, 0)};
  const CellTree<2> tree(particles, 2);
  EXPECT_LT(tree.find(2, cell_key(make_point(3, 3))), 0);
  EXPECT_GE(tree.find(2, cell_key(make_point(0, 0))), 0);
}

TEST(CellTree, LevelsSortedByKey) {
  std::vector<Point2> particles;
  for (std::uint32_t i = 0; i < 40; ++i) {
    particles.push_back(make_point((i * 13 + 3) % 32, (i * 29) % 32));
  }
  std::sort(particles.begin(), particles.end(),
            [](const Point2& a, const Point2& b) {
              return pack(a, 5) < pack(b, 5);
            });
  particles.erase(std::unique(particles.begin(), particles.end()),
                  particles.end());
  const CellTree<2> tree(particles, 5);
  for (unsigned l = 0; l <= 5; ++l) {
    const auto& cells = tree.cells(l);
    for (std::size_t i = 1; i < cells.size(); ++i) {
      ASSERT_LT(cells[i - 1].key, cells[i].key) << "level " << l;
    }
  }
}

TEST(CellTree, SparseFindFallbackBeyondDenseBudget) {
  // 2-D level 13 has 2^26 cells per level > the 2^24 dense budget, so the
  // finest level must fall back to binary search — and agree with the
  // dense path used at the coarser levels.
  std::vector<Point2> particles;
  for (std::uint32_t i = 0; i < 500; ++i) {
    particles.push_back(
        make_point((i * 524287u) % 8192, (i * 37123u + 11) % 8192));
  }
  std::sort(particles.begin(), particles.end(),
            [](const Point2& a, const Point2& b) {
              return pack(a, 13) < pack(b, 13);
            });
  particles.erase(std::unique(particles.begin(), particles.end()),
                  particles.end());
  const CellTree<2> tree(particles, 13);
  // Every stored cell must be findable at every level; a neighbor key
  // that is unoccupied must return -1.
  for (unsigned l = 0; l <= 13; ++l) {
    for (const auto& cell : tree.cells(l)) {
      const auto idx = tree.find(l, cell.key);
      ASSERT_GE(idx, 0) << "level " << l;
      ASSERT_EQ(tree.cells(l)[static_cast<std::size_t>(idx)].key, cell.key);
    }
  }
  EXPECT_LT(tree.find(13, cell_key(make_point(1, 0))), 0);
}

TEST(Ffi, TwoOppositeCornersHandComputed) {
  // Particles 0:(0,0), 1:(3,3) on a 4x4 grid, 2 bus processors.
  // Interpolation: level1: (0,0)->root hop 0, (1,1)->root hop 1;
  //                level2: both cells match their parent's owner, hop 0.
  // Interaction: at level 2 the two cells are in each other's ILs, 1 hop
  // each direction.
  const std::vector<Point2> particles = {make_point(0, 0), make_point(3, 3)};
  const CellTree<2> tree(particles, 2);
  const Partition part(2, 2);
  const topo::BusTopology bus(2);
  const auto totals = ffi_totals<2>(tree, part, bus);

  EXPECT_EQ(totals.interpolation.count, 4u);
  EXPECT_EQ(totals.interpolation.hops, 1u);
  EXPECT_EQ(totals.anterpolation.count, 4u);
  EXPECT_EQ(totals.anterpolation.hops, 1u);
  EXPECT_EQ(totals.interaction.count, 2u);
  EXPECT_EQ(totals.interaction.hops, 2u);
  EXPECT_EQ(totals.total().count, 10u);
  EXPECT_EQ(totals.total().hops, 4u);
  EXPECT_DOUBLE_EQ(totals.total().acd(), 0.4);
}

TEST(Ffi, AdjacentCellsDoNotInteract) {
  // Two particles in adjacent finest cells: interaction lists must stay
  // empty at every level (ancestors are adjacent or identical too).
  const std::vector<Point2> particles = {make_point(1, 1), make_point(2, 1)};
  const CellTree<2> tree(particles, 2);
  const Partition part(2, 2);
  const topo::BusTopology bus(2);
  const auto totals = ffi_totals<2>(tree, part, bus);
  EXPECT_EQ(totals.interaction.count, 0u);
  EXPECT_GT(totals.interpolation.count, 0u);
}

TEST(Ffi, SingleParticleOnlyAccumulates) {
  const std::vector<Point2> particles = {make_point(2, 1)};
  const CellTree<2> tree(particles, 3);
  const Partition part(1, 1);
  const topo::BusTopology bus(1);
  const auto totals = ffi_totals<2>(tree, part, bus);
  EXPECT_EQ(totals.interpolation.count, 3u);  // one chain to the root
  EXPECT_EQ(totals.interpolation.hops, 0u);
  EXPECT_EQ(totals.interaction.count, 0u);
}

TEST(Ffi, ParallelMatchesSerialExactly) {
  std::vector<Point2> particles;
  for (std::uint32_t i = 0; i < 3000; ++i) {
    particles.push_back(
        make_point((i * 37 + 11) % 128, (i * 101 + i / 7) % 128));
  }
  std::sort(particles.begin(), particles.end(),
            [](const Point2& a, const Point2& b) {
              return pack(a, 7) < pack(b, 7);
            });
  particles.erase(std::unique(particles.begin(), particles.end()),
                  particles.end());
  const CellTree<2> tree(particles, 7);
  const Partition part(particles.size(), 16);
  const topo::RingTopology ring(16);

  const auto serial = ffi_totals<2>(tree, part, ring, nullptr);
  util::ThreadPool pool(4);
  const auto parallel = ffi_totals<2>(tree, part, ring, &pool);
  EXPECT_EQ(serial.interpolation, parallel.interpolation);
  EXPECT_EQ(serial.anterpolation, parallel.anterpolation);
  EXPECT_EQ(serial.interaction, parallel.interaction);
  EXPECT_GT(serial.interaction.count, 0u);
}

TEST(Ffi, ThreeDimensionalOppositeCorners) {
  const std::vector<Point3> particles = {make_point(0, 0, 0),
                                         make_point(3, 3, 3)};
  const CellTree<3> tree(particles, 2);
  const Partition part(2, 2);
  const topo::BusTopology bus(2);
  const auto totals = ffi_totals<3>(tree, part, bus);
  // Same shape as 2-D: one 1-hop interpolation at level 1, zero-hop at
  // level 2, symmetric interaction at level 2.
  EXPECT_EQ(totals.interpolation.count, 4u);
  EXPECT_EQ(totals.interpolation.hops, 1u);
  EXPECT_EQ(totals.interaction.count, 2u);
  EXPECT_EQ(totals.interaction.hops, 2u);
}

TEST(Ffi, DeeperTreesAccumulateMoreInterpolation) {
  // The same two particles at finer resolutions produce longer chains.
  auto interp_count = [](unsigned level) {
    const std::uint32_t hi = (1u << level) - 1;
    const std::vector<Point2> particles = {make_point(0, 0),
                                           make_point(hi, hi)};
    const CellTree<2> tree(particles, level);
    const Partition part(2, 2);
    const topo::BusTopology bus(2);
    return ffi_totals<2>(tree, part, bus).interpolation.count;
  };
  EXPECT_EQ(interp_count(2), 4u);
  EXPECT_EQ(interp_count(3), 6u);
  EXPECT_EQ(interp_count(5), 10u);
}

// ------------------------------------------------- several partitions

/// `n` particles in distinct cells of a 2^level grid, in a shuffled order
/// (ownership follows array position, so chunks are not spatially
/// coherent).
template <int D>
std::vector<Point<D>> scattered_particles(std::size_t n, unsigned level) {
  std::mt19937_64 rng(0x5eedu + n + level);
  const std::uint32_t side = 1u << level;
  std::vector<Point<D>> out(n);
  for (Point<D>& p : out) {
    for (int k = 0; k < D; ++k) p[k] = static_cast<std::uint32_t>(rng() % side);
  }
  std::sort(out.begin(), out.end(), [](const Point<D>& a, const Point<D>& b) {
    return cell_key(a) < cell_key(b);
  });
  out.erase(std::unique(out.begin(), out.end()), out.end());
  std::shuffle(out.begin(), out.end(), rng);
  return out;
}

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

/// One walk over several partitions must equal one walk per partition:
/// same pair multisets, same codec bytes (and so the same dense/sparse
/// mode), serially and on a 4-thread pool.
template <int D>
void expect_multi_walk_matches_single(std::size_t n, unsigned level,
                                      const std::vector<topo::Rank>& procs) {
  const std::vector<Point<D>> particles = scattered_particles<D>(n, level);
  const CellTree<D> tree(particles, level);
  std::vector<Partition> parts;
  for (const topo::Rank p : procs) parts.emplace_back(particles.size(), p);
  util::ThreadPool four(4);
  for (util::ThreadPool* pool : {static_cast<util::ThreadPool*>(nullptr), &four}) {
    const std::vector<FfiHistograms> multi =
        ffi_histograms<D>(tree, parts, pool);
    ASSERT_EQ(multi.size(), parts.size());
    for (std::size_t k = 0; k < parts.size(); ++k) {
      const FfiHistograms single = ffi_histograms<D>(tree, parts[k], pool);
      const char* where = pool == nullptr ? "serial" : "4 threads";
      EXPECT_EQ(pairs_of(multi[k].interpolation),
                pairs_of(single.interpolation))
          << "p=" << procs[k] << ", " << where;
      EXPECT_EQ(pairs_of(multi[k].interaction), pairs_of(single.interaction))
          << "p=" << procs[k] << ", " << where;
      EXPECT_EQ(bytes_of(multi[k].interpolation),
                bytes_of(single.interpolation))
          << "p=" << procs[k] << ", " << where;
      EXPECT_EQ(bytes_of(multi[k].interaction), bytes_of(single.interaction))
          << "p=" << procs[k] << ", " << where;
      EXPECT_GT(multi[k].interaction.events(), 0u);
    }
  }
}

TEST(FfiMultiPartition, TwoDimensionalMatchesSeparateWalks) {
  // ~6000 particles at level 8: the finest levels pass the 4096-cell
  // fan-out cutoff. p = 7 and 1000 do not divide n; p = 4096 is past
  // the dense budget (sparse) and past n; p = 1 is the degenerate case.
  expect_multi_walk_matches_single<2>(6000, 8, {1, 7, 64, 1000, 4096});
}

TEST(FfiMultiPartition, ThreeDimensionalMatchesSeparateWalks) {
  expect_multi_walk_matches_single<3>(3000, 5, {3, 8, 512, 4096});
}

TEST(FfiMultiPartition, MixesDenseAndSparseHistograms) {
  const std::vector<Point2> particles = scattered_particles<2>(500, 6);
  const CellTree<2> tree(particles, 6);
  const std::vector<Partition> parts = {Partition(particles.size(), 600),
                                        Partition(particles.size(), 5000)};
  const std::vector<FfiHistograms> multi = ffi_histograms<2>(tree, parts);
  // p = 600 > n stays dense; p = 5000 exceeds the dense budget.
  EXPECT_TRUE(multi[0].interaction.dense());
  EXPECT_FALSE(multi[1].interaction.dense());
  EXPECT_EQ(multi[0].interaction.events(), multi[1].interaction.events());
  EXPECT_EQ(multi[0].interpolation.events(), multi[1].interpolation.events());
}

TEST(FfiMultiPartition, SinglePartitionOverloadIsTheOneElementCase) {
  const std::vector<Point2> particles = scattered_particles<2>(800, 6);
  const CellTree<2> tree(particles, 6);
  const Partition part(particles.size(), 16);
  const std::vector<FfiHistograms> one =
      ffi_histograms<2>(tree, std::span<const Partition>(&part, 1));
  ASSERT_EQ(one.size(), 1u);
  const FfiHistograms single = ffi_histograms<2>(tree, part);
  EXPECT_EQ(bytes_of(one[0].interpolation), bytes_of(single.interpolation));
  EXPECT_EQ(bytes_of(one[0].interaction), bytes_of(single.interaction));
}

}  // namespace
}  // namespace sfc::fmm
