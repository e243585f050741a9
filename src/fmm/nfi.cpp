#include "fmm/nfi.hpp"

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <span>
#include <utility>

#include "core/rank_pair.hpp"
#include "fmm/nfi_window.hpp"
#include "fmm/owner_sink.hpp"
#include "obs/trace.hpp"
#include "util/simd.hpp"

namespace sfc::fmm {
namespace {

/// Reference path: accumulate the near-field communications of particles
/// [lo, hi) with one virtual distance() dispatch per event. Kept as the
/// oracle the aggregated path must bit-match (and for topologies/grids
/// the fast kernel does not cover).
template <int D>
core::CommTotals nfi_range_direct(const std::vector<Point<D>>& particles,
                                  const OccupancyGrid<D>& grid,
                                  const Partition& part,
                                  const topo::Topology& net, unsigned radius,
                                  NeighborNorm norm, std::size_t lo,
                                  std::size_t hi) {
  core::CommTotals totals;
  const std::int64_t side = 1ll << grid.level();
  const std::int64_t r = radius;

  Point<D> q{};
  std::int64_t off[4] = {};  // D <= 4 (static_assert in Point)
  for (std::size_t i = lo; i < hi; ++i) {
    const Point<D>& x = particles[i];
    const topo::Rank px = part.proc_of(i);
    // Odometer over the (2r+1)^D window around x.
    for (int d = 0; d < D; ++d) off[d] = -r;
    for (;;) {
      bool zero = true;
      bool in = true;
      std::int64_t l1 = 0;
      for (int d = 0; d < D; ++d) {
        if (off[d] != 0) zero = false;
        l1 += off[d] < 0 ? -off[d] : off[d];
        const std::int64_t v = static_cast<std::int64_t>(x[d]) + off[d];
        if (v < 0 || v >= side) {
          in = false;
          break;
        }
        q[d] = static_cast<std::uint32_t>(v);
      }
      const bool within =
          norm == NeighborNorm::kChebyshev || l1 <= r;  // window is the L∞ ball
      if (!zero && in && within) {
        const std::int32_t j = grid.particle_at(q);
        if (j != OccupancyGrid<D>::kEmpty) {
          totals.hops +=
              net.distance(px, part.proc_of(static_cast<std::size_t>(j)));
          ++totals.count;
        }
      }
      int d = 0;
      while (d < D && off[d] == r) off[d++] = -r;
      if (d == D) break;
      ++off[d];
    }
  }
  return totals;
}

/// The shared window visitor (fmm/nfi_window.hpp) takes the norm as a
/// bool so the header need not depend on this file's enum; adapt here.
template <int D, typename Fn>
inline void visit_neighbors(const OccupancyGrid<D>& grid,
                            const std::int32_t* cells, const Point<D>& x,
                            std::int64_t r, NeighborNorm norm, Fn&& fn) {
  visit_window_neighbors<D>(grid, cells, x, r,
                            norm == NeighborNorm::kChebyshev,
                            std::forward<Fn>(fn));
}

/// 2-D dense-grid kernel exploiting pair symmetry: every unordered
/// particle pair within the ball produces the two directed events
/// (own[i], own[j]) and (own[j], own[i]), so scanning only the
/// lexicographically-positive half of each window (rows above, plus the
/// right half of the center row) and recording both events per occupied
/// neighbor halves the probed cells. Each unordered pair is seen by
/// exactly one of its endpoints regardless of chunk boundaries, so the
/// chunked reduction still enumerates the exact event multiset of the
/// reference path — and integer sums commute, so totals are bit-equal.
template <typename Push>
inline void halfwindow_dense2(const std::int32_t* cells, unsigned level,
                              const Point<2>& x, std::int64_t r,
                              NeighborNorm norm, Push&& push) {
  const std::int64_t side = std::int64_t{1} << level;
  const std::int64_t x0 = x[0];
  const std::int64_t y0 = x[1];
  // Center row: dx in [1, r] (identical under both norms).
  {
    const std::int64_t xhi = x0 + r < side - 1 ? x0 + r : side - 1;
    const std::int32_t* row = cells + (static_cast<std::uint64_t>(y0) << level);
    for (std::int64_t xx = x0 + 1; xx <= xhi; ++xx) {
      const std::int32_t j = row[xx];
      if (j != OccupancyGrid<2>::kEmpty) push(j);
    }
  }
  // Rows above: dy in [1, r], x-extent clamped to the norm ball.
  const std::int64_t yhi = y0 + r < side - 1 ? y0 + r : side - 1;
  for (std::int64_t yy = y0 + 1; yy <= yhi; ++yy) {
    const std::int64_t budget =
        norm == NeighborNorm::kChebyshev ? r : r - (yy - y0);
    const std::int64_t xlo = x0 - budget > 0 ? x0 - budget : 0;
    const std::int64_t xhi = x0 + budget < side - 1 ? x0 + budget : side - 1;
    const std::int32_t* row = cells + (static_cast<std::uint64_t>(yy) << level);
    for (std::int64_t xx = xlo; xx <= xhi; ++xx) {
      const std::int32_t j = row[xx];
      if (j != OccupancyGrid<2>::kEmpty) push(j);
    }
  }
}

/// Histogram the near-field events of particles [lo, hi) into `acc` as
/// (src rank, dst rank) → count entries. The partition assigns contiguous
/// chunks, so the walk proceeds rank run by rank run — the source rank
/// and its histogram row are loop invariants hoisted out of the
/// per-particle window scans.
template <int D>
void nfi_range_into(const std::vector<Point<D>>& particles,
                    const OccupancyGrid<D>& grid, const Partition& part,
                    const std::vector<topo::Rank>& owners,
                    core::RankPairAccumulator& acc, unsigned radius,
                    NeighborNorm norm, std::size_t lo, std::size_t hi) {
  const std::int32_t* cells = grid.dense_cells();
  const std::int64_t r = radius;
  const topo::Rank* own = owners.data();

  // SIMD half-window compaction for the 2-D dense kernel: one scratch
  // buffer sized to the largest half-window, reused across every
  // particle of the range. r == 1 windows hold at most 4 cells — too
  // short to fill vector lanes — so the per-cell scan stays.
  decltype(util::simd::kernels().nfi_halfwindow2) collect = nullptr;
  std::vector<std::int32_t> scratch;
  if constexpr (D == 2) {
    if (cells != nullptr && r >= 2) {
      collect = util::simd::kernels().nfi_halfwindow2;
      if (collect != nullptr) {
        scratch.resize(static_cast<std::size_t>(2 * r * r + 2 * r + 7));
      }
    }
  }

  std::size_t i = lo;
  topo::Rank src = owners[lo];
  while (i < hi) {
    const std::size_t run_end = std::min(hi, part.chunk_begin(src + 1));
    if (run_end <= i) {
      ++src;
      continue;
    }
    std::uint64_t* row = acc.row(src);
    if constexpr (D == 2) {
      if (cells != nullptr) {
        // Hop distance is symmetric (the interconnects are undirected;
        // the metric-property tests assert it), so the directed events
        // (src, dst) and (dst, src) fold to the same 2·d(src, dst) as a
        // single count-2 entry on src's row — which keeps every update
        // on the hoisted row instead of scattering across the histogram.
        const unsigned level = grid.level();
        auto scan = [&](const Point<2>& p, auto&& push) {
          if (collect != nullptr) {
            // Same rows, same in-row order, same ids as
            // halfwindow_dense2 — the event multiset is identical.
            const std::size_t m =
                collect(cells, level, p[0], p[1],
                        static_cast<std::uint32_t>(r),
                        norm == NeighborNorm::kChebyshev, scratch.data());
            for (std::size_t k = 0; k < m; ++k) push(scratch[k]);
          } else {
            halfwindow_dense2(cells, level, p, r, norm, push);
          }
        };
        if (row != nullptr) {
          for (; i < run_end; ++i) {
            scan(particles[i], [&](std::int32_t j) {
              row[own[static_cast<std::size_t>(j)]] += 2;
            });
          }
        } else {
          for (; i < run_end; ++i) {
            scan(particles[i], [&](std::int32_t j) {
              acc.add(src, own[static_cast<std::size_t>(j)], 2);
            });
          }
        }
        ++src;
        continue;
      }
    }
    if (row != nullptr) {
      for (; i < run_end; ++i) {
        visit_neighbors<D>(grid, cells, particles[i], r, norm,
                           [&](std::size_t j) { ++row[own[j]]; });
      }
    } else {
      for (; i < run_end; ++i) {
        visit_neighbors<D>(grid, cells, particles[i], r, norm,
                           [&](std::size_t j) { acc.add(src, own[j]); });
      }
    }
    ++src;
  }
}

/// nfi_range_into for particles in arbitrary array order: the source rank
/// comes from the owner tables per particle instead of the contiguous
/// partition runs, but the emitted event multiset is identical for the
/// identical particle/owner assignment (every event is (owner of x, owner
/// of y) over the same spatial pairs, and the half-window orientation is
/// spatial, not positional). Visits the particles at positions [lo, hi)
/// of `order` (nullptr: array order) — each window scan stands alone, so
/// any visit order gives the same multiset. Events go to `sink`
/// (fmm/owner_sink.hpp), which records them for every owner table of the
/// walk.
template <int D, typename Sink>
void nfi_range_into_owners(const std::vector<Point<D>>& particles,
                           const OccupancyGrid<D>& grid, Sink sink,
                           const std::uint32_t* order, unsigned radius,
                           NeighborNorm norm, std::size_t lo, std::size_t hi) {
  const std::int32_t* cells = grid.dense_cells();
  const std::int64_t r = radius;
  const auto at = [order](std::size_t pos) -> std::size_t {
    return order == nullptr ? pos : order[pos];
  };
  const auto push = [&sink](auto j, std::uint64_t count) {
    sink.to(static_cast<std::size_t>(j), count);
  };

  if constexpr (D == 2) {
    if (cells != nullptr) {
      const unsigned level = grid.level();
      // Same SIMD compaction setup as nfi_range_into.
      decltype(util::simd::kernels().nfi_halfwindow2) collect = nullptr;
      std::vector<std::int32_t> scratch;
      if (r >= 2) {
        collect = util::simd::kernels().nfi_halfwindow2;
        if (collect != nullptr) {
          scratch.resize(static_cast<std::size_t>(2 * r * r + 2 * r + 7));
        }
      }
      for (std::size_t pos = lo; pos < hi; ++pos) {
        const std::size_t i = at(pos);
        const Point<2>& p = particles[i];
        // Half-window scan: each neighbor stands for both directed
        // events, recorded as one count-2 entry on the source's row.
        sink.source(i);
        if (collect != nullptr) {
          const std::size_t m = collect(
              cells, level, p[0], p[1], static_cast<std::uint32_t>(r),
              norm == NeighborNorm::kChebyshev, scratch.data());
          for (std::size_t k = 0; k < m; ++k) push(scratch[k], 2);
        } else {
          halfwindow_dense2(cells, level, p, r, norm,
                            [&](std::int32_t j) { push(j, 2); });
        }
      }
      return;
    }
  }
  for (std::size_t pos = lo; pos < hi; ++pos) {
    const std::size_t i = at(pos);
    sink.source(i);
    visit_neighbors<D>(grid, cells, particles[i], r, norm,
                       [&](std::size_t j) { push(j, 1); });
  }
}

/// A visit order along which every owner table is nondecreasing when the
/// tables are contiguous partitions of one particle ordering (the sweep's
/// processor counts of one curve): the tables' rank tuples then form a
/// chain, so sorting by them lexicographically — one stable counting sort
/// per table, last table first — sorts every table at once. Empty when
/// array order already is one.
std::vector<std::uint32_t> source_order(
    std::span<const std::vector<topo::Rank>> owners,
    std::span<const topo::Rank> procs) {
  const std::size_t n = owners.front().size();
  const bool sorted = std::all_of(
      owners.begin(), owners.end(), [](const std::vector<topo::Rank>& own) {
        return std::is_sorted(own.begin(), own.end());
      });
  if (sorted) return {};
  std::vector<std::uint32_t> order(n);
  std::vector<std::uint32_t> next(n);
  for (std::size_t i = 0; i < n; ++i) order[i] = static_cast<std::uint32_t>(i);
  std::vector<std::size_t> start;
  for (std::size_t m = owners.size(); m-- > 0;) {
    const std::vector<topo::Rank>& own = owners[m];
    start.assign(std::size_t{procs[m]} + 1, 0);
    for (const topo::Rank r : own) ++start[std::size_t{r} + 1];
    for (std::size_t r = 1; r < start.size(); ++r) start[r] += start[r - 1];
    for (const std::uint32_t i : order) next[start[own[i]]++] = i;
    order.swap(next);
  }
  return order;
}

/// Aggregated path for particles [lo, hi): populate a (src, dst) → count
/// histogram, then hand it to the topology's fold kernel (factorized
/// closed form, dense table, or streamed — the topology's choice).
template <int D>
core::CommTotals nfi_range_aggregated(
    const std::vector<Point<D>>& particles, const OccupancyGrid<D>& grid,
    const Partition& part, const std::vector<topo::Rank>& owners,
    const topo::Topology& net, unsigned radius, NeighborNorm norm,
    std::size_t lo, std::size_t hi) {
  core::RankPairAccumulator acc(part.processors(), net);
  nfi_range_into<D>(particles, grid, part, owners, acc, radius, norm, lo, hi);
  return net.fold(acc.view());
}

}  // namespace

template <int D>
core::CommTotals nfi_totals(const std::vector<Point<D>>& particles,
                            const OccupancyGrid<D>& grid,
                            const Partition& part, const topo::Topology& net,
                            unsigned radius, NeighborNorm norm,
                            util::ThreadPool* pool) {
  if (particles.empty()) return {};
  // Build the shared rank-of-particle array once, outside the parallel
  // region; each chunk folds through the topology's own kernel.
  const std::vector<topo::Rank> owners = part.owner_table();
  auto chunk = [&](std::size_t lo, std::size_t hi) {
    return nfi_range_aggregated<D>(particles, grid, part, owners, net, radius,
                                   norm, lo, hi);
  };
  if (pool == nullptr || pool->size() <= 1) {
    return chunk(0, particles.size());
  }
  return util::parallel_reduce_chunks(*pool, 0, particles.size(),
                                      util::kAutoGrain, core::CommTotals{},
                                      chunk);
}

template <int D>
core::RankPairAccumulator nfi_histogram(const std::vector<Point<D>>& particles,
                                        const OccupancyGrid<D>& grid,
                                        const Partition& part, unsigned radius,
                                        NeighborNorm norm,
                                        util::ThreadPool* pool) {
  core::RankPairAccumulator acc(part.processors());
  if (particles.empty()) return acc;
  const std::vector<topo::Rank> owners = part.owner_table();
  if (pool == nullptr || pool->size() <= 1) {
    nfi_range_into<D>(particles, grid, part, owners, acc, radius, norm, 0,
                      particles.size());
    return acc;
  }
  // Per-worker shards written without synchronization, merged once:
  // counts are integers and addition commutes, so the merged multiset —
  // and every fold of it — is identical regardless of scheduling order.
  core::RankPairShards shards(part.processors(), pool->size());
  util::parallel_for_chunks(
      *pool, 0, particles.size(), util::kAutoGrain,
      [&](std::size_t lo, std::size_t hi) {
        nfi_range_into<D>(particles, grid, part, owners, shards.local(),
                          radius, norm, lo, hi);
      });
  shards.merge_into(acc);
  return acc;
}

template <int D>
std::vector<core::RankPairAccumulator> nfi_histogram_owners(
    const std::vector<Point<D>>& particles, const OccupancyGrid<D>& grid,
    std::span<const std::vector<topo::Rank>> owners,
    std::span<const topo::Rank> procs, unsigned radius, NeighborNorm norm,
    util::ThreadPool* pool) {
  assert(owners.size() == procs.size());
  const obs::Span span("nfi/enumerate");
  std::vector<core::RankPairAccumulator> accs;
  accs.reserve(procs.size());
  for (const topo::Rank p : procs) accs.emplace_back(p);
  if (particles.empty() || accs.empty()) return accs;
  const std::vector<std::uint32_t> order = source_order(owners, procs);
  const std::uint32_t* visit = order.empty() ? nullptr : order.data();
  const detail::OwnerTables tables(owners);
  tables.walk<1>(pool, visit, {std::span(accs)}, "nfi/stitch",
                 [&](auto& sinks, std::size_t lo, std::size_t hi) {
                   nfi_range_into_owners<D>(particles, grid, sinks[0], visit,
                                            radius, norm, lo, hi);
                 });
  return accs;
}

template <int D>
core::RankPairAccumulator nfi_histogram_owners(
    const std::vector<Point<D>>& particles, const OccupancyGrid<D>& grid,
    const std::vector<topo::Rank>& owners, topo::Rank procs, unsigned radius,
    NeighborNorm norm, util::ThreadPool* pool) {
  return std::move(nfi_histogram_owners<D>(particles, grid,
                                           std::span(&owners, 1),
                                           std::span(&procs, 1), radius, norm,
                                           pool)
                       .front());
}

template <int D>
core::CommTotals nfi_totals_direct(const std::vector<Point<D>>& particles,
                                   const OccupancyGrid<D>& grid,
                                   const Partition& part,
                                   const topo::Topology& net, unsigned radius,
                                   NeighborNorm norm, util::ThreadPool* pool) {
  if (pool == nullptr || pool->size() <= 1) {
    return nfi_range_direct<D>(particles, grid, part, net, radius, norm, 0,
                               particles.size());
  }
  return util::parallel_reduce_chunks(
      *pool, 0, particles.size(), util::kAutoGrain, core::CommTotals{},
      [&](std::size_t lo, std::size_t hi) {
        return nfi_range_direct<D>(particles, grid, part, net, radius, norm,
                                   lo, hi);
      });
}

template core::CommTotals nfi_totals<2>(const std::vector<Point<2>>&,
                                        const OccupancyGrid<2>&,
                                        const Partition&,
                                        const topo::Topology&, unsigned,
                                        NeighborNorm, util::ThreadPool*);
template core::CommTotals nfi_totals<3>(const std::vector<Point<3>>&,
                                        const OccupancyGrid<3>&,
                                        const Partition&,
                                        const topo::Topology&, unsigned,
                                        NeighborNorm, util::ThreadPool*);
template core::CommTotals nfi_totals_direct<2>(const std::vector<Point<2>>&,
                                               const OccupancyGrid<2>&,
                                               const Partition&,
                                               const topo::Topology&, unsigned,
                                               NeighborNorm,
                                               util::ThreadPool*);
template core::CommTotals nfi_totals_direct<3>(const std::vector<Point<3>>&,
                                               const OccupancyGrid<3>&,
                                               const Partition&,
                                               const topo::Topology&, unsigned,
                                               NeighborNorm,
                                               util::ThreadPool*);
template core::RankPairAccumulator nfi_histogram<2>(
    const std::vector<Point<2>>&, const OccupancyGrid<2>&, const Partition&,
    unsigned, NeighborNorm, util::ThreadPool*);
template core::RankPairAccumulator nfi_histogram<3>(
    const std::vector<Point<3>>&, const OccupancyGrid<3>&, const Partition&,
    unsigned, NeighborNorm, util::ThreadPool*);
template core::RankPairAccumulator nfi_histogram_owners<2>(
    const std::vector<Point<2>>&, const OccupancyGrid<2>&,
    const std::vector<topo::Rank>&, topo::Rank, unsigned, NeighborNorm,
    util::ThreadPool*);
template core::RankPairAccumulator nfi_histogram_owners<3>(
    const std::vector<Point<3>>&, const OccupancyGrid<3>&,
    const std::vector<topo::Rank>&, topo::Rank, unsigned, NeighborNorm,
    util::ThreadPool*);
template std::vector<core::RankPairAccumulator> nfi_histogram_owners<2>(
    const std::vector<Point<2>>&, const OccupancyGrid<2>&,
    std::span<const std::vector<topo::Rank>>, std::span<const topo::Rank>,
    unsigned, NeighborNorm, util::ThreadPool*);
template std::vector<core::RankPairAccumulator> nfi_histogram_owners<3>(
    const std::vector<Point<3>>&, const OccupancyGrid<3>&,
    std::span<const std::vector<topo::Rank>>, std::span<const topo::Rank>,
    unsigned, NeighborNorm, util::ThreadPool*);

}  // namespace sfc::fmm
