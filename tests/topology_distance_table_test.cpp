// Flat hop-table construction validated against the virtual distance()
// oracle on every topology family, plus rank-pair aggregation: the
// histogram-and-fold path must be bit-identical to per-event summation.
#include "topology/distance_table.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <memory>
#include <tuple>
#include <utility>
#include <vector>

#include "core/acd.hpp"
#include "core/rank_pair.hpp"
#include "distribution/distribution.hpp"
#include "fmm/ffi.hpp"
#include "fmm/nfi.hpp"
#include "fmm/partition.hpp"
#include "sfc/curve.hpp"
#include "topology/dragonfly.hpp"
#include "topology/factory.hpp"
#include "topology/graph.hpp"
#include "topology/grid.hpp"
#include "topology/hypercube.hpp"
#include "topology/linear.hpp"
#include "topology/tree.hpp"
#include "util/thread_pool.hpp"

namespace sfc {
namespace {

void expect_table_matches(const topo::Topology& net) {
  const topo::Rank p = net.size();
  ASSERT_TRUE(topo::distance_table_fits(p));
  const topo::DistanceTable& t = net.dense_table();
  ASSERT_EQ(t.procs(), p);
  for (topo::Rank a = 0; a < p; ++a) {
    const std::uint32_t* row = t.row(a);
    for (topo::Rank b = 0; b < p; ++b) {
      ASSERT_EQ(t(a, b), net.distance(a, b))
          << net.name() << " p=" << p << " (" << a << "," << b << ")";
      ASSERT_EQ(row[b], t(a, b));
    }
  }
  // Lazy construction caches: repeated calls hand back the same object.
  EXPECT_EQ(&net.dense_table(), &t);
}

TEST(DistanceTable, BusAndRingAllSizes) {
  for (const topo::Rank p : {1u, 2u, 3u, 7u, 16u, 33u}) {
    expect_table_matches(topo::BusTopology(p));
    expect_table_matches(topo::RingTopology(p));
  }
}

TEST(DistanceTable, MeshAndTorusAllLevels) {
  const auto curve = sfc::make_curve<2>(CurveKind::kHilbert);
  for (const unsigned level : {1u, 2u, 3u}) {
    expect_table_matches(topo::MeshTopology<2>(level, *curve));
    expect_table_matches(topo::TorusTopology<2>(level, *curve));
  }
  const auto curve3 = sfc::make_curve<3>(CurveKind::kMorton);
  expect_table_matches(topo::MeshTopology<3>(1, *curve3));
  expect_table_matches(topo::TorusTopology<3>(2, *curve3));
}

TEST(DistanceTable, HypercubeTreeDragonfly) {
  for (const topo::Rank p : {1u, 2u, 8u, 64u}) {
    expect_table_matches(topo::HypercubeTopology(p));
  }
  for (const topo::Rank p : {1u, 4u, 16u, 64u}) {
    expect_table_matches(topo::TreeTopology(p, 4));
  }
  expect_table_matches(topo::TreeTopology(8, 2));
  for (const topo::Rank a : {1u, 2u, 3u, 5u}) {
    expect_table_matches(topo::DragonflyTopology(a));
  }
}

TEST(DistanceTable, GraphTopologyReusesApspCache) {
  expect_table_matches(topo::build_tree_graph(16, 4));
  expect_table_matches(topo::build_hypercube_graph(16));
  // Hand-built graph with internal (non-processor) vertices.
  topo::GraphTopology g(5, {{0, 1}, {1, 2}, {2, 3}, {3, 4}}, {0, 2, 4});
  expect_table_matches(g);
}

TEST(DistanceTable, EveryFactoryKind) {
  const auto curve = sfc::make_curve<2>(CurveKind::kHilbert);
  for (const auto kind :
       {topo::TopologyKind::kBus, topo::TopologyKind::kRing,
        topo::TopologyKind::kMesh, topo::TopologyKind::kTorus,
        topo::TopologyKind::kQuadtree, topo::TopologyKind::kHypercube}) {
    const auto net = topo::make_topology<2>(kind, 16, curve.get());
    expect_table_matches(*net);
  }
}

TEST(DistanceTable, BudgetGate) {
  // 4096² is exactly the 2^24-entry budget; anything larger must refuse
  // (table1_nfi sweeps p = 65536 — a table there would be 16 GiB).
  EXPECT_TRUE(topo::distance_table_fits(4096));
  EXPECT_FALSE(topo::distance_table_fits(4097));
  EXPECT_FALSE(topo::distance_table_fits(65536));
}

// ---------------------------------------------------------------------------
// RankPairAccumulator: dense and sparse representations are interchangeable.

/// Deterministic pseudo-random pair stream (no RNG dependency needed).
std::vector<std::pair<topo::Rank, topo::Rank>> pair_stream(topo::Rank p,
                                                           std::size_t n) {
  std::vector<std::pair<topo::Rank, topo::Rank>> pairs;
  pairs.reserve(n);
  std::uint64_t state = 0x9e3779b97f4a7c15ull;
  for (std::size_t i = 0; i < n; ++i) {
    state = state * 6364136223846793005ull + 1442695040888963407ull;
    pairs.emplace_back(static_cast<topo::Rank>((state >> 33) % p),
                       static_cast<topo::Rank>((state >> 13) % p));
  }
  return pairs;
}

TEST(RankPairAccumulator, DenseAndSparseAgree) {
  const topo::Rank p = 17;
  core::RankPairAccumulator dense(p);
  core::RankPairAccumulator sparse(p, 0);  // budget 0 forces sparse mode
  ASSERT_TRUE(dense.dense());
  ASSERT_FALSE(sparse.dense());
  for (const auto& [a, b] : pair_stream(p, 5000)) {
    dense.add(a, b);
    sparse.add(a, b);
  }
  EXPECT_EQ(dense.events(), 5000u);
  EXPECT_EQ(sparse.events(), 5000u);

  std::vector<std::tuple<topo::Rank, topo::Rank, std::uint64_t>> dv, sv;
  dense.for_each([&](topo::Rank a, topo::Rank b, std::uint64_t c) {
    dv.emplace_back(a, b, c);
  });
  sparse.for_each([&](topo::Rank a, topo::Rank b, std::uint64_t c) {
    sv.emplace_back(a, b, c);
  });
  EXPECT_EQ(dv, sv);

  const topo::RingTopology ring(p);
  const core::CommTotals dt = dense.fold(ring.dense_table());
  const core::CommTotals st = sparse.fold(ring.dense_table());
  EXPECT_EQ(dt.hops, st.hops);
  EXPECT_EQ(dt.count, st.count);
  // Virtual-dispatch fold (the beyond-budget path) matches the table fold.
  const core::CommTotals dv2 = dense.fold(static_cast<const topo::Topology&>(ring));
  const core::CommTotals sv2 = sparse.fold(static_cast<const topo::Topology&>(ring));
  EXPECT_EQ(dt.hops, dv2.hops);
  EXPECT_EQ(dt.count, dv2.count);
  EXPECT_EQ(st.hops, sv2.hops);
  EXPECT_EQ(st.count, sv2.count);
}

TEST(RankPairAccumulator, FoldMatchesPerEventSum) {
  const topo::Rank p = 16;
  const topo::TreeTopology tree(p, 4);
  core::RankPairAccumulator acc(p);
  std::uint64_t expect_hops = 0;
  const auto pairs = pair_stream(p, 2000);
  for (const auto& [a, b] : pairs) {
    acc.add(a, b);
    expect_hops += tree.distance(a, b);
  }
  const core::CommTotals t = acc.fold(tree.dense_table());
  EXPECT_EQ(t.count, pairs.size());
  EXPECT_EQ(t.hops, expect_hops);
}

TEST(RankPairAccumulator, MergeAcrossModes) {
  const topo::Rank p = 11;
  core::RankPairAccumulator dense(p);
  core::RankPairAccumulator sparse(p, 0);
  core::RankPairAccumulator reference(p);
  const auto pairs = pair_stream(p, 3000);
  for (std::size_t i = 0; i < pairs.size(); ++i) {
    const auto [a, b] = pairs[i];
    (i % 2 == 0 ? dense : sparse).add(a, b);
    reference.add(a, b);
  }
  dense += sparse;  // sparse histogram merged into a dense one
  EXPECT_EQ(dense.events(), reference.events());

  core::RankPairAccumulator sparse2(p, 0);
  core::RankPairAccumulator dense2(p);
  for (std::size_t i = 0; i < pairs.size(); ++i) {
    const auto [a, b] = pairs[i];
    (i % 2 == 0 ? dense2 : sparse2).add(a, b);
  }
  sparse2 += dense2;  // and the other direction
  const topo::BusTopology bus(p);
  const auto rt = reference.fold(bus.dense_table());
  const auto dt = dense.fold(bus.dense_table());
  const auto st = sparse2.fold(bus.dense_table());
  EXPECT_EQ(dt.hops, rt.hops);
  EXPECT_EQ(dt.count, rt.count);
  EXPECT_EQ(st.hops, rt.hops);
  EXPECT_EQ(st.count, rt.count);
}

TEST(RankPairAccumulator, CountMultiplicityAndZero) {
  core::RankPairAccumulator acc(4);
  acc.add(1, 2, 10);
  acc.add(1, 2);
  acc.add(3, 0, 0);  // zero-count adds are dropped
  EXPECT_EQ(acc.events(), 11u);
  std::size_t seen = 0;
  acc.for_each([&](topo::Rank a, topo::Rank b, std::uint64_t c) {
    EXPECT_EQ(a, 1u);
    EXPECT_EQ(b, 2u);
    EXPECT_EQ(c, 11u);
    ++seen;
  });
  EXPECT_EQ(seen, 1u);
}

// ---------------------------------------------------------------------------
// Sparse runs beyond the staging cap: several flushes, merges that sum
// counts and cancel retractions, run hand-over between accumulators, and
// a threaded shard fan-out must all hold exactly the dense multiset.

/// One recorded operation: count > 0 adds, sub = retraction.
struct PairOp {
  topo::Rank src = 0;
  topo::Rank dst = 0;
  std::uint64_t count = 0;
  bool sub = false;
};

/// p = 2100 puts p² past the default dense budget, so default-built
/// accumulators (the RankPairShards slots) are sparse.
constexpr topo::Rank kRunsProcs = 2100;
/// Rows at the top of the rank range hold only transient pairs: each is
/// added once and retracted exactly, about 1.5M operations later (in a
/// later staging buffer), so its net is zero and it must vanish.
constexpr topo::Rank kTransientRows = 16;

const std::vector<PairOp>& run_ops() {
  static const std::vector<PairOp> ops = [] {
    std::vector<PairOp> out;
    constexpr std::size_t kOps = 3'300'000;
    constexpr std::size_t kLag = 1'500'000;
    out.reserve(kOps);
    std::uint64_t state = 0x2545f4914f6cdd1dull;
    const auto next = [&state] {
      state = state * 6364136223846793005ull + 1442695040888963407ull;
      return state >> 17;
    };
    std::vector<PairOp> pending;  // transient adds awaiting retraction
    std::size_t retracted = 0;
    for (std::size_t i = 0; out.size() < kOps; ++i) {
      if (i % 16 == 0) {
        const std::uint64_t r = next();
        const PairOp op{static_cast<topo::Rank>(kRunsProcs - kTransientRows +
                                                r % kTransientRows),
                        static_cast<topo::Rank>((r >> 8) % kRunsProcs),
                        1 + (r >> 20) % 5, false};
        out.push_back(op);
        pending.push_back(op);
      } else if (retracted < pending.size() &&
                 out.size() >= kLag + retracted * 16) {
        PairOp op = pending[retracted++];
        op.sub = true;
        out.push_back(op);
      } else {
        const std::uint64_t r = next();
        out.push_back({static_cast<topo::Rank>(
                           r % (kRunsProcs - kTransientRows)),
                       static_cast<topo::Rank>((r >> 16) % kRunsProcs),
                       r % 7 == 0 ? 1 + (r >> 40) % 9 : 1, false});
      }
    }
    // Retract whatever is still pending so every transient pair nets out.
    for (; retracted < pending.size(); ++retracted) {
      PairOp op = pending[retracted];
      op.sub = true;
      out.push_back(op);
    }
    return out;
  }();
  return ops;
}

void apply(core::RankPairAccumulator& acc, const PairOp& op) {
  if (op.sub) {
    acc.sub(op.src, op.dst, op.count);
  } else {
    acc.add(op.src, op.dst, op.count);
  }
}

void apply_range(core::RankPairAccumulator& acc, std::size_t lo,
                 std::size_t hi, std::size_t stride = 1,
                 std::size_t phase = 0) {
  const std::vector<PairOp>& ops = run_ops();
  for (std::size_t i = lo; i < hi; ++i) {
    if (i % stride == phase) apply(acc, ops[i]);
  }
}

/// The dense accumulator every sparse construction is compared with.
const core::RankPairAccumulator& dense_reference() {
  static const core::RankPairAccumulator ref = [] {
    core::RankPairAccumulator acc(
        kRunsProcs, static_cast<std::size_t>(kRunsProcs) * kRunsProcs);
    apply_range(acc, 0, run_ops().size());
    return acc;
  }();
  return ref;
}

using PairList = std::vector<std::tuple<topo::Rank, topo::Rank, std::uint64_t>>;

PairList pairs_of(const core::RankPairAccumulator& acc) {
  PairList out;
  acc.for_each([&out](topo::Rank a, topo::Rank b, std::uint64_t c) {
    out.emplace_back(a, b, c);
  });
  return out;
}

/// for_each, events(), a view() fold and the codec bytes all match the
/// dense reference. The codec's mode word (bytes 8..16) is the one field
/// that differs by construction.
void expect_same_multiset(const core::RankPairAccumulator& sparse,
                          const char* what) {
  SCOPED_TRACE(what);
  const core::RankPairAccumulator& dense = dense_reference();
  ASSERT_TRUE(dense.dense());
  ASSERT_FALSE(sparse.dense());
  sparse.seal();
  const PairList expect = pairs_of(dense);
  const PairList got = pairs_of(sparse);
  ASSERT_EQ(got.size(), expect.size());
  EXPECT_TRUE(got == expect);
  for (const auto& [a, b, c] : got) {
    ASSERT_LT(a, kRunsProcs - kTransientRows) << "a transient pair survived";
    ASSERT_NE(c, 0u);
  }
  EXPECT_EQ(sparse.events(), dense.events());

  const topo::RingTopology ring(kRunsProcs);
  const core::CommTotals fs = ring.fold(sparse.view());
  const core::CommTotals fd = ring.fold(dense.view());
  EXPECT_EQ(fs.hops, fd.hops);
  EXPECT_EQ(fs.count, fd.count);

  std::vector<std::uint8_t> sb, db;
  core::rank_pairs_serialize(sparse, sb);
  core::rank_pairs_serialize(dense, db);
  ASSERT_EQ(sb.size(), db.size());
  EXPECT_TRUE(std::equal(sb.begin(), sb.begin() + 8, db.begin()));
  EXPECT_TRUE(std::equal(sb.begin() + 16, sb.end(), db.begin() + 16));
}

TEST(RankPairRuns, ManyFlushesMatchDense) {
  ASSERT_GT(run_ops().size(), std::size_t{3'000'000});
  core::RankPairAccumulator sparse(kRunsProcs, 0);
  apply_range(sparse, 0, run_ops().size());
  expect_same_multiset(sparse, "one sparse accumulator");
  // A second seal and the codec round trip leave the multiset unchanged.
  sparse.seal();
  std::vector<std::uint8_t> bytes;
  core::rank_pairs_serialize(sparse, bytes);
  std::size_t off = 0;
  const auto back = core::rank_pairs_deserialize(bytes.data(), bytes.size(),
                                                 off);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(off, bytes.size());
  expect_same_multiset(*back, "codec round trip");
}

TEST(RankPairRuns, SparseAndDenseMergesMatchDense) {
  const std::size_t n = run_ops().size();
  const auto dense_half = [&](std::size_t phase) {
    core::RankPairAccumulator acc(
        kRunsProcs, static_cast<std::size_t>(kRunsProcs) * kRunsProcs);
    apply_range(acc, 0, n, 2, phase);
    return acc;
  };
  {
    core::RankPairAccumulator a(kRunsProcs, 0), b(kRunsProcs, 0);
    apply_range(a, 0, n, 2, 0);
    apply_range(b, 0, n, 2, 1);
    a += b;  // copied runs
    expect_same_multiset(a, "sparse += sparse");
  }
  {
    core::RankPairAccumulator a(kRunsProcs, 0), b(kRunsProcs, 0);
    apply_range(a, 0, n / 3);
    apply_range(b, n / 3, n);
    a += std::move(b);  // moved runs, unflushed staging included
    expect_same_multiset(a, "sparse += moved sparse");
  }
  {
    core::RankPairAccumulator a(kRunsProcs, 0);
    apply_range(a, 0, n, 2, 0);
    a += dense_half(1);
    expect_same_multiset(a, "sparse += dense");
  }
  {
    core::RankPairAccumulator a = dense_half(0);
    core::RankPairAccumulator b(kRunsProcs, 0);
    apply_range(b, 0, n, 2, 1);
    a += b;
    core::RankPairAccumulator sparse(kRunsProcs, 0);
    sparse += a;  // dense result back into a sparse histogram
    EXPECT_TRUE(pairs_of(a) == pairs_of(dense_reference()));
    expect_same_multiset(sparse, "dense += sparse");
  }
}

TEST(RankPairRuns, SmallRunsMergeIntoTheSealedRunInPlace) {
  // Per-step deltas of an incremental consumer: a few thousand events
  // against a sealed aggregate of millions of pairs. Each round retracts
  // some pairs to exactly zero, bumps others and adds new ones; the first
  // round grows the run, later rounds fit in the slack it left.
  core::RankPairAccumulator sparse(kRunsProcs, 0);
  apply_range(sparse, 0, run_ops().size());
  sparse.seal();
  core::RankPairAccumulator dense = dense_reference();
  const PairList initial = pairs_of(dense);
  ASSERT_GT(initial.size(), std::size_t{1'000'000});
  for (std::size_t round = 0; round < 3; ++round) {
    for (std::size_t k = 0; k < 3000; ++k) {
      const auto& [a, b, c] =
          initial[(k * 7919 + round * 104729) % initial.size()];
      if (k % 3 == 0) {
        sparse.sub(a, b, c);
        dense.sub(a, b, c);
      } else if (k % 3 == 1) {
        sparse.add(a, b, 2);
        dense.add(a, b, 2);
      } else {
        const auto src = static_cast<topo::Rank>(kRunsProcs - 1 - round);
        const auto dst = static_cast<topo::Rank>(k % kRunsProcs);
        sparse.add(src, dst, 1 + round);
        dense.add(src, dst, 1 + round);
      }
    }
    sparse.seal();
    SCOPED_TRACE(round);
    EXPECT_TRUE(pairs_of(sparse) == pairs_of(dense));
    EXPECT_EQ(sparse.events(), dense.events());
  }
}

TEST(RankPairRuns, ShardFanOutMatchesDense) {
  util::ThreadPool pool(4);
  core::RankPairShards shards(kRunsProcs, pool.size());
  ASSERT_FALSE(shards.local().dense());
  const std::vector<PairOp>& ops = run_ops();
  util::parallel_for_chunks(pool, 0, ops.size(), 1 << 16,
                            [&](std::size_t lo, std::size_t hi) {
                              apply_range(shards.local(), lo, hi);
                            });
  core::RankPairAccumulator merged(kRunsProcs);
  ASSERT_FALSE(merged.dense());
  shards.merge_into(merged);
  expect_same_multiset(merged, "4-worker shards");
}

TEST(RankPairRuns, SealedRunHoldsExactlyItsPairs) {
  // The staged path's merges leave slack; seal() trims it, so the bytes a
  // histogram reports depend on its pairs alone.
  core::RankPairAccumulator sparse(kRunsProcs);
  apply_range(sparse, 0, run_ops().size());
  sparse.seal();
  std::size_t pairs = 0;
  sparse.for_each([&pairs](topo::Rank, topo::Rank, std::uint64_t) { ++pairs; });
  EXPECT_EQ(sparse.memory_bytes(), pairs * 2 * sizeof(std::uint64_t));
}

using PairRun = core::RankPairAccumulator::Run;

/// Source-grouped chunk lists over p = 10 (key = src·10 + dst): source 3
/// spans four chunks (one of them holding only source 3), one chunk is
/// empty, and source 6 splits once more.
std::vector<PairRun> seamed_lists() {
  return {{{12, 1}, {15, 2}, {30, 1}, {34, 1}},
          {{34, 2}, {37, 1}},
          {{31, 1}},
          {},
          {{30, 4}, {39, 1}, {66, 3}},
          {{62, 1}, {66, 1}}};
}

PairList reference_pairs(const std::vector<PairRun>& lists) {
  core::RankPairAccumulator dense(10);
  for (const PairRun& list : lists) {
    for (const auto& [key, count] : list) {
      dense.add(static_cast<topo::Rank>(key / 10),
                static_cast<topo::Rank>(key % 10), count);
    }
  }
  return pairs_of(dense);
}

TEST(RankPairRuns, SourceGroupsJoinAcrossChunkSeams) {
  const PairList expect = reference_pairs(seamed_lists());
  {
    std::vector<PairRun> lists = seamed_lists();
    core::RankPairAccumulator sparse(10, 0);
    sparse.append_source_groups(lists, true);
    EXPECT_EQ(pairs_of(sparse), expect);
    EXPECT_EQ(sparse.memory_bytes(), expect.size() * 2 * sizeof(std::uint64_t));
    for (const PairRun& list : lists) EXPECT_EQ(list.capacity(), 0u);
  }
  {
    std::vector<PairRun> lists = seamed_lists();
    core::RankPairAccumulator dense(10);
    dense.append_source_groups(lists, true);
    EXPECT_EQ(pairs_of(dense), expect);
  }
}

TEST(RankPairRuns, UnorderedSourceGroupsAreSortedAndReduced) {
  // Sources revisit (6 before 3, 3 twice): the groups are sorted and
  // equal keys summed.
  std::vector<PairRun> lists = {{{62, 1}, {66, 2}, {30, 1}},
                            {{66, 1}, {12, 5}},
                            {{30, 2}, {31, 1}}};
  const PairList expect = reference_pairs(lists);
  core::RankPairAccumulator sparse(10, 0);
  sparse.append_source_groups(lists, false);
  EXPECT_EQ(pairs_of(sparse), expect);
  EXPECT_EQ(sparse.memory_bytes(), expect.size() * 2 * sizeof(std::uint64_t));
}

// ---------------------------------------------------------------------------
// Codec: a record is a sealed run, so keys must strictly increase and
// counts be nonzero; anything else is malformed (nullopt).

std::vector<std::uint8_t> codec_record(
    std::uint64_t procs, std::uint64_t mode,
    const std::vector<std::pair<std::uint64_t, std::uint64_t>>& pairs) {
  std::vector<std::uint64_t> words = {procs, mode, pairs.size()};
  for (const auto& [key, count] : pairs) {
    words.push_back(key);
    words.push_back(count);
  }
  std::vector<std::uint8_t> bytes(words.size() * 8);
  std::memcpy(bytes.data(), words.data(), bytes.size());
  return bytes;
}

bool decodes(const std::vector<std::uint8_t>& bytes) {
  std::size_t off = 0;
  return core::rank_pairs_deserialize(bytes.data(), bytes.size(), off)
      .has_value();
}

TEST(RankPairCodec, RejectsKeysThatDoNotStrictlyIncrease) {
  for (const std::uint64_t mode : {0u, 1u}) {
    SCOPED_TRACE(mode == 1 ? "dense" : "sparse");
    EXPECT_TRUE(decodes(codec_record(8, mode, {{3, 1}, {9, 2}, {63, 5}})));
    EXPECT_FALSE(decodes(codec_record(8, mode, {{3, 1}, {9, 2}, {9, 5}})));
    EXPECT_FALSE(decodes(codec_record(8, mode, {{9, 2}, {3, 1}})));
    EXPECT_FALSE(decodes(codec_record(8, mode, {{3, 1}, {64, 1}})));
  }
}

TEST(RankPairCodec, RejectsZeroCounts) {
  for (const std::uint64_t mode : {0u, 1u}) {
    SCOPED_TRACE(mode == 1 ? "dense" : "sparse");
    EXPECT_FALSE(decodes(codec_record(8, mode, {{3, 1}, {9, 0}})));
    EXPECT_FALSE(decodes(codec_record(8, mode, {{0, 0}})));
  }
}

TEST(RankPairCodec, DecodedRecordIsSealedAndFolds) {
  std::size_t off = 0;
  const auto bytes = codec_record(8, 0, {{1, 4}, {10, 2}, {62, 7}});
  const auto acc =
      core::rank_pairs_deserialize(bytes.data(), bytes.size(), off);
  ASSERT_TRUE(acc.has_value());
  EXPECT_FALSE(acc->dense());
  EXPECT_EQ(acc->events(), 13u);
  EXPECT_TRUE(pairs_of(*acc) ==
              (PairList{{0, 1, 4}, {1, 2, 2}, {7, 6, 7}}));
}

// ---------------------------------------------------------------------------
// End-to-end: the aggregated NFI/FFI paths are bit-identical to the direct
// per-event reference on a seeded scenario, on every topology family.

std::vector<std::unique_ptr<topo::Topology>> all_topologies(
    topo::Rank p, const Curve<2>& curve) {
  std::vector<std::unique_ptr<topo::Topology>> nets;
  for (const auto kind :
       {topo::TopologyKind::kBus, topo::TopologyKind::kRing,
        topo::TopologyKind::kMesh, topo::TopologyKind::kTorus,
        topo::TopologyKind::kQuadtree, topo::TopologyKind::kHypercube}) {
    nets.push_back(topo::make_topology<2>(kind, p, &curve));
  }
  return nets;
}

void expect_models_match(const core::AcdInstance<2>& instance,
                         const fmm::Partition& part,
                         const topo::Topology& net, unsigned radius,
                         fmm::NeighborNorm norm, util::ThreadPool* pool) {
  const core::CommTotals nfi = fmm::nfi_totals<2>(
      instance.particles(), instance.grid(), part, net, radius, norm, pool);
  const core::CommTotals nfi_ref = fmm::nfi_totals_direct<2>(
      instance.particles(), instance.grid(), part, net, radius, norm, pool);
  EXPECT_EQ(nfi.hops, nfi_ref.hops) << net.name();
  EXPECT_EQ(nfi.count, nfi_ref.count) << net.name();

  const fmm::FfiTotals ffi =
      fmm::ffi_totals<2>(instance.tree(), part, net, pool);
  const fmm::FfiTotals ffi_ref =
      fmm::ffi_totals_direct<2>(instance.tree(), part, net, pool);
  EXPECT_EQ(ffi.interpolation.hops, ffi_ref.interpolation.hops) << net.name();
  EXPECT_EQ(ffi.anterpolation.hops, ffi_ref.anterpolation.hops) << net.name();
  EXPECT_EQ(ffi.interaction.hops, ffi_ref.interaction.hops) << net.name();
  EXPECT_EQ(ffi.total().count, ffi_ref.total().count) << net.name();
}

TEST(AggregatedEquivalence, AllTopologiesSeededScenario) {
  const unsigned level = 6;
  const topo::Rank p = 64;
  dist::SampleConfig cfg;
  cfg.count = 2000;
  cfg.level = level;
  cfg.seed = 42;
  auto particles = dist::sample_particles<2>(dist::DistKind::kNormal, cfg);
  const auto curve = sfc::make_curve<2>(CurveKind::kHilbert);
  const core::AcdInstance<2> instance(std::move(particles), level, *curve);
  const fmm::Partition part(instance.particles().size(), p);
  util::ThreadPool pool(4);
  for (const auto& net : all_topologies(p, *curve)) {
    expect_models_match(instance, part, *net, 2,
                        fmm::NeighborNorm::kChebyshev, nullptr);
    expect_models_match(instance, part, *net, 1,
                        fmm::NeighborNorm::kManhattan, &pool);
  }
  // Dragonfly has a = 7 → 56 ranks; it needs its own partition.
  const topo::DragonflyTopology dragonfly(7);
  const fmm::Partition dpart(instance.particles().size(), dragonfly.size());
  expect_models_match(instance, dpart, dragonfly, 2,
                      fmm::NeighborNorm::kChebyshev, nullptr);
}

TEST(AggregatedEquivalence, WeightedPartition) {
  const unsigned level = 5;
  dist::SampleConfig cfg;
  cfg.count = 600;
  cfg.level = level;
  cfg.seed = 7;
  auto particles =
      dist::sample_particles<2>(dist::DistKind::kExponential, cfg);
  const auto curve = sfc::make_curve<2>(CurveKind::kMorton);
  const core::AcdInstance<2> instance(std::move(particles), level, *curve);
  // Skewed weights: later particles cost more, so cut points differ from
  // the equal-count partition and some chunks are empty-ish.
  std::vector<double> weights(instance.particles().size());
  for (std::size_t i = 0; i < weights.size(); ++i) {
    weights[i] = 1.0 + static_cast<double>(i % 17);
  }
  const fmm::Partition part = fmm::Partition::weighted(weights, 32);
  const topo::HypercubeTopology cube(32);
  expect_models_match(instance, part, cube, 1,
                      fmm::NeighborNorm::kChebyshev, nullptr);
}

TEST(AggregatedEquivalence, ThreeDimensional) {
  const unsigned level = 3;
  dist::SampleConfig cfg;
  cfg.count = 300;
  cfg.level = level;
  cfg.seed = 3;
  auto particles = dist::sample_particles<3>(dist::DistKind::kUniform, cfg);
  const auto curve = sfc::make_curve<3>(CurveKind::kHilbert);
  const core::AcdInstance<3> instance(std::move(particles), level, *curve);
  const fmm::Partition part(instance.particles().size(), 8);
  const topo::TorusTopology<3> torus(1, *curve);
  const core::CommTotals nfi = fmm::nfi_totals<3>(
      instance.particles(), instance.grid(), part, torus, 1);
  const core::CommTotals ref = fmm::nfi_totals_direct<3>(
      instance.particles(), instance.grid(), part, torus, 1);
  EXPECT_EQ(nfi.hops, ref.hops);
  EXPECT_EQ(nfi.count, ref.count);
  const fmm::FfiTotals ffi = fmm::ffi_totals<3>(instance.tree(), part, torus);
  const fmm::FfiTotals fref =
      fmm::ffi_totals_direct<3>(instance.tree(), part, torus);
  EXPECT_EQ(ffi.total().hops, fref.total().hops);
  EXPECT_EQ(ffi.total().count, fref.total().count);
}

}  // namespace
}  // namespace sfc
