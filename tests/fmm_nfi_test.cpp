// Near-field interaction model tests with hand-computed communication
// totals on tiny instances.
#include "fmm/nfi.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <random>
#include <tuple>
#include <vector>

#include "fmm/cells.hpp"
#include "topology/linear.hpp"
#include "util/simd.hpp"
#include "util/thread_pool.hpp"

namespace sfc::fmm {
namespace {

core::CommTotals run_nfi(const std::vector<Point2>& particles, unsigned level,
                         topo::Rank procs, unsigned radius,
                         NeighborNorm norm = NeighborNorm::kChebyshev) {
  const OccupancyGrid<2> grid(particles, level);
  const Partition part(particles.size(), procs);
  const topo::BusTopology bus(procs);
  return nfi_totals<2>(particles, grid, part, bus, radius, norm);
}

TEST(Nfi, TwoAdjacentParticlesTwoProcessors) {
  // Ordered pairs (0 -> 1) and (1 -> 0), one bus hop each.
  const auto totals = run_nfi({make_point(0, 0), make_point(1, 0)}, 2, 2, 1);
  EXPECT_EQ(totals.count, 2u);
  EXPECT_EQ(totals.hops, 2u);
  EXPECT_DOUBLE_EQ(totals.acd(), 1.0);
}

TEST(Nfi, RadiusGatesInteraction) {
  const std::vector<Point2> particles = {make_point(0, 0), make_point(2, 0)};
  EXPECT_EQ(run_nfi(particles, 2, 2, 1).count, 0u);
  EXPECT_EQ(run_nfi(particles, 2, 2, 2).count, 2u);
  EXPECT_EQ(run_nfi(particles, 2, 2, 3).count, 2u);
}

TEST(Nfi, SingleProcessorZeroHopsButCounted) {
  // Paper: "possibly zero" distances are still communications.
  const auto totals = run_nfi({make_point(0, 0), make_point(1, 1)}, 2, 1, 1);
  EXPECT_EQ(totals.count, 2u);
  EXPECT_EQ(totals.hops, 0u);
  EXPECT_DOUBLE_EQ(totals.acd(), 0.0);
}

TEST(Nfi, ChebyshevCountsDiagonalManhattanDoesNot) {
  const std::vector<Point2> particles = {make_point(0, 0), make_point(1, 1)};
  EXPECT_EQ(run_nfi(particles, 2, 2, 1, NeighborNorm::kChebyshev).count, 2u);
  EXPECT_EQ(run_nfi(particles, 2, 2, 1, NeighborNorm::kManhattan).count, 0u);
  EXPECT_EQ(run_nfi(particles, 2, 2, 2, NeighborNorm::kManhattan).count, 2u);
}

TEST(Nfi, ThreeParticleClusterHandComputed) {
  // Particles 0:(0,0), 1:(1,0), 2:(0,1) on 3 bus processors.
  // All three pairs are Chebyshev-adjacent; bus hops: (0,1)=1 (0,2)=2
  // (1,2)=1, each counted in both directions.
  const auto totals = run_nfi(
      {make_point(0, 0), make_point(1, 0), make_point(0, 1)}, 2, 3, 1);
  EXPECT_EQ(totals.count, 6u);
  EXPECT_EQ(totals.hops, 8u);
  EXPECT_DOUBLE_EQ(totals.acd(), 8.0 / 6.0);
}

TEST(Nfi, IsolatedParticleContributesNothing) {
  const auto totals = run_nfi(
      {make_point(0, 0), make_point(1, 0), make_point(3, 3)}, 2, 3, 1);
  EXPECT_EQ(totals.count, 2u);  // only the adjacent pair communicates
}

TEST(Nfi, BoundaryWindowsAreClipped) {
  // A particle at every grid corner, radius larger than the grid: must not
  // read out of bounds and must find all pairs.
  const std::vector<Point2> particles = {make_point(0, 0), make_point(3, 0),
                                         make_point(0, 3), make_point(3, 3)};
  const auto totals = run_nfi(particles, 2, 4, 5);
  EXPECT_EQ(totals.count, 12u);  // all 4*3 ordered pairs within radius 5
}

TEST(Nfi, EmptyParticleSet) {
  const auto totals = run_nfi({}, 3, 4, 2);
  EXPECT_EQ(totals.count, 0u);
  EXPECT_EQ(totals.hops, 0u);
}

TEST(Nfi, ParallelMatchesSerialExactly) {
  // 400 particles in a 32x32 grid, radius 2: integer totals must be
  // identical no matter how the reduction is chunked.
  std::vector<Point2> particles;
  for (std::uint32_t i = 0; i < 400; ++i) {
    particles.push_back(make_point((i * 7) % 32, (i * 13 + i / 31) % 32));
  }
  // Deduplicate cells (the model assumes distinct cells).
  std::sort(particles.begin(), particles.end(),
            [](const Point2& a, const Point2& b) {
              return pack(a, 5) < pack(b, 5);
            });
  particles.erase(std::unique(particles.begin(), particles.end()),
                  particles.end());

  const OccupancyGrid<2> grid(particles, 5);
  const Partition part(particles.size(), 8);
  const topo::BusTopology bus(8);

  const auto serial = nfi_totals<2>(particles, grid, part, bus, 2,
                                    NeighborNorm::kChebyshev, nullptr);
  util::ThreadPool pool(4);
  const auto parallel = nfi_totals<2>(particles, grid, part, bus, 2,
                                      NeighborNorm::kChebyshev, &pool);
  EXPECT_EQ(serial, parallel);
  EXPECT_GT(serial.count, 0u);
}

TEST(Nfi, ThreeDimensionalPair) {
  const std::vector<Point3> particles = {make_point(0, 0, 0),
                                         make_point(1, 1, 1)};
  const OccupancyGrid<3> grid(particles, 2);
  const Partition part(2, 2);
  const topo::BusTopology bus(2);
  const auto cheb = nfi_totals<3>(particles, grid, part, bus, 1,
                                  NeighborNorm::kChebyshev, nullptr);
  EXPECT_EQ(cheb.count, 2u);
  EXPECT_EQ(cheb.hops, 2u);
  const auto manh = nfi_totals<3>(particles, grid, part, bus, 2,
                                  NeighborNorm::kManhattan, nullptr);
  EXPECT_EQ(manh.count, 0u);  // Manhattan distance is 3
}

TEST(Nfi, SimdHalfWindowMatchesForcedScalar) {
  // The dispatched half-window compaction kernel vs the per-cell scalar
  // scan, over both norms and the radii that take the SIMD path (r >= 2),
  // including a radius that clips every boundary window. Particles land
  // on edges and corners so the masked tail loads run at the row ends.
  std::vector<Point2> particles;
  for (std::uint32_t i = 0; i < 500; ++i) {
    particles.push_back(make_point((i * 17 + i / 37) % 32, (i * 29) % 32));
  }
  std::sort(particles.begin(), particles.end(),
            [](const Point2& a, const Point2& b) {
              return pack(a, 5) < pack(b, 5);
            });
  particles.erase(std::unique(particles.begin(), particles.end()),
                  particles.end());

  const OccupancyGrid<2> grid(particles, 5);
  const Partition part(particles.size(), 8);
  const topo::BusTopology bus(8);

  for (const unsigned radius : {2u, 3u, 4u, 40u}) {
    for (const NeighborNorm norm :
         {NeighborNorm::kChebyshev, NeighborNorm::kManhattan}) {
      const auto dispatched =
          nfi_totals<2>(particles, grid, part, bus, radius, norm, nullptr);
      const util::simd::ScopedForceScalar force;
      const auto scalar =
          nfi_totals<2>(particles, grid, part, bus, radius, norm, nullptr);
      EXPECT_EQ(dispatched, scalar)
          << "radius=" << radius << " norm="
          << (norm == NeighborNorm::kChebyshev ? "chebyshev" : "manhattan");
      EXPECT_GT(dispatched.count, 0u);
    }
  }
}

// ------------------------------------------------- several owner tables

/// `n` particles in distinct cells of a 2^level grid, in a shuffled order.
template <int D>
std::vector<Point<D>> scattered_particles(std::size_t n, unsigned level) {
  std::mt19937_64 rng(0xa11ceu + n + level);
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

/// One window scan over several owner tables must equal one scan per
/// table: same pair multisets and codec bytes, serially and on a
/// 4-thread pool, for every radius/norm path of dimension D. The owner
/// tables are a contiguous partition of a scrambled particle order, as
/// the sweep engine builds them.
template <int D>
void expect_multi_scan_matches_single(std::size_t n, unsigned level,
                                      const std::vector<topo::Rank>& procs,
                                      const std::vector<unsigned>& radii) {
  const std::vector<Point<D>> particles = scattered_particles<D>(n, level);
  const OccupancyGrid<D> grid(particles, level);
  std::vector<std::size_t> order(particles.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::shuffle(order.begin(), order.end(), std::mt19937_64(7));
  std::vector<std::vector<topo::Rank>> owners;
  for (const topo::Rank p : procs) {
    const std::vector<topo::Rank> by_rank =
        Partition(particles.size(), p).owner_table();
    std::vector<topo::Rank>& own = owners.emplace_back(particles.size());
    for (std::size_t i = 0; i < own.size(); ++i) own[i] = by_rank[order[i]];
  }
  util::ThreadPool four(4);
  for (const unsigned radius : radii) {
    for (const NeighborNorm norm :
         {NeighborNorm::kChebyshev, NeighborNorm::kManhattan}) {
      for (util::ThreadPool* pool :
           {static_cast<util::ThreadPool*>(nullptr), &four}) {
        const std::vector<core::RankPairAccumulator> multi =
            nfi_histogram_owners<D>(particles, grid, owners, procs, radius,
                                    norm, pool);
        ASSERT_EQ(multi.size(), procs.size());
        for (std::size_t k = 0; k < procs.size(); ++k) {
          const core::RankPairAccumulator single = nfi_histogram_owners<D>(
              particles, grid, owners[k], procs[k], radius, norm, pool);
          const std::string where =
              "p=" + std::to_string(procs[k]) + " r=" +
              std::to_string(radius) +
              (norm == NeighborNorm::kChebyshev ? " chebyshev" : " manhattan") +
              (pool == nullptr ? " serial" : " 4 threads");
          EXPECT_EQ(pairs_of(multi[k]), pairs_of(single)) << where;
          EXPECT_EQ(bytes_of(multi[k]), bytes_of(single)) << where;
          EXPECT_GT(multi[k].events(), 0u) << where;
        }
      }
    }
  }
}

TEST(NfiMultiOwners, TwoDimensionalMatchesSeparateScans) {
  // r = 1 takes the per-cell half-window scan, r = 3 the SIMD compaction
  // where the host has it. p = 7 and 1000 do not divide n; p = 4096 is
  // sparse and past n.
  expect_multi_scan_matches_single<2>(3000, 7, {1, 7, 64, 1000, 4096},
                                      {1, 3});
}

TEST(NfiMultiOwners, ThreeDimensionalMatchesSeparateScans) {
  expect_multi_scan_matches_single<3>(2000, 4, {3, 8, 4096}, {1, 2});
}

TEST(NfiMultiOwners, ForcedScalarMatchesSeparateScans) {
  const util::simd::ScopedForceScalar force;
  expect_multi_scan_matches_single<2>(1500, 6, {5, 64, 3000}, {2});
}

TEST(NfiMultiOwners, MixesDenseAndSparseHistograms) {
  const std::vector<Point2> particles = scattered_particles<2>(400, 5);
  const OccupancyGrid<2> grid(particles, 5);
  const std::vector<topo::Rank> procs = {500, 5000};
  std::vector<std::vector<topo::Rank>> owners;
  for (const topo::Rank p : procs) {
    owners.push_back(Partition(particles.size(), p).owner_table());
  }
  const std::vector<core::RankPairAccumulator> multi =
      nfi_histogram_owners<2>(particles, grid, owners, procs, 1);
  EXPECT_TRUE(multi[0].dense());
  EXPECT_FALSE(multi[1].dense());
  EXPECT_EQ(multi[0].events(), multi[1].events());
}

}  // namespace
}  // namespace sfc::fmm
