#include "core/sweep.hpp"

#include <array>
#include <atomic>
#include <cassert>
#include <cstring>
#include <deque>
#include <initializer_list>
#include <memory>
#include <optional>
#include <stdexcept>
#include <unordered_map>

#include "core/artifact_store.hpp"
#include "core/dynamic_acd.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/radix_sort.hpp"
#include "util/rng.hpp"

namespace sfc::core {

std::string_view sweep_stage_name(SweepStage stage) noexcept {
  switch (stage) {
    case SweepStage::kSample:
      return "sample";
    case SweepStage::kCanonical:
      return "canonical";
    case SweepStage::kOrdering:
      return "ordering";
    case SweepStage::kInstance:
      return "instance";
    case SweepStage::kNfiHistogram:
      return "nfi_histogram";
    case SweepStage::kFfiHistogram:
      return "ffi_histogram";
    case SweepStage::kTopology:
      return "topology";
    case SweepStage::kDelta:
      return "delta";
    case SweepStage::kFold:
      return "fold";
  }
  return "unknown";
}

namespace {

/// Chain a field list into one 64-bit content key.
std::uint64_t key_of(std::initializer_list<std::uint64_t> fields) {
  std::uint64_t h = 0x5fc4a51b9ce2ad17ull;
  for (const std::uint64_t v : fields) h = sweep_key(h, v);
  return h;
}

/// Publish the run's artifact accounting into the metrics registry:
/// built and peak live bytes, and one hit-ratio gauge per pipeline
/// stage. Gauges are set (not accumulated), so the snapshot always
/// describes the most recent run in this process.
void publish_sweep_metrics(const SweepStats& stats) {
  if (!obs::metrics_enabled()) return;
  obs::Registry& reg = obs::Registry::instance();
  reg.gauge("sweep.cache.built_bytes")
      .set(static_cast<double>(stats.built_bytes));
  reg.gauge("sweep.cache.peak_bytes")
      .set(static_cast<double>(stats.peak_bytes));
  for (unsigned i = 0; i < kSweepStageCount; ++i) {
    const auto stage = static_cast<SweepStage>(i);
    const StageCounters& c = stats.stage(stage);
    if (c.hits + c.misses == 0) continue;  // stage never ran in this study
    const std::string base =
        "sweep.stage." + std::string(sweep_stage_name(stage));
    reg.gauge(base + ".hit_ratio").set(c.hit_ratio());
  }
}

/// Span names per stage (string literals: obs::Span requires
/// static lifetime). Indexed like SweepStats::stages.
constexpr const char* kStageSpanNames[kSweepStageCount] = {
    "sweep/sample",        "sweep/canonical",     "sweep/ordering",
    "sweep/instance",      "sweep/nfi_histogram", "sweep/ffi_histogram",
    "sweep/topology",      "sweep/delta",         "sweep/fold",
};

constexpr const char* stage_span_name(SweepStage stage) noexcept {
  return kStageSpanNames[static_cast<unsigned>(stage)];
}

/// Sentinel ranking field for topologies with a natural labeling (the
/// paper applies SFC ranking only to mesh/torus) — their artifacts are
/// shared across processor-order curves.
constexpr std::uint64_t kNoRanking = ~std::uint64_t{0};

bool topology_uses_ranking(topo::TopologyKind kind) noexcept {
  return kind == topo::TopologyKind::kMesh ||
         kind == topo::TopologyKind::kTorus;
}

using Sample2 = std::vector<Point2>;

/// Cell-sorted copy of a sample plus its occupancy grid: the
/// curve-independent spatial state shared by every NFI histogram and
/// instance build of one (distribution, trial).
struct CanonicalSample2 {
  std::vector<Point2> particles;
  fmm::OccupancyGrid<2> grid;
  CanonicalSample2(std::vector<Point2> pts, unsigned level)
      : particles(std::move(pts)), grid(particles, level) {}
  std::size_t memory_bytes() const noexcept {
    return particles.capacity() * sizeof(Point2) + grid.memory_bytes();
  }
};

/// Argsort policy: the dense scatter walks the whole 4^level slot array
/// (a memset plus a full scan), so it only pays while the grid is within
/// a small factor of the sample size; past that — and always beyond the
/// dense-bits cap — a radix argsort over just the occupied keys is the
/// linear-time path.
bool dense_argsort_pays(unsigned level, std::size_t n) noexcept {
  if (2u * level > fmm::OccupancyGrid<2>::kDenseBits) return false;
  const std::uint64_t cells = grid_size<2>(level);
  return cells <= (std::uint64_t{1} << 16) || cells <= 4 * std::uint64_t{n};
}

/// Particles of `raw` sorted by row-major packed cell id. The samplers
/// place every particle in a distinct cell, so the order is unique — a
/// linear dense scatter by cell id on compact grids, a (threaded) stable
/// radix sort of (key, index) pairs beyond. Both produce the same unique
/// permutation, so the canonical artifact is independent of the path and
/// of the thread count.
std::vector<Point2> canonical_order(const Sample2& raw, unsigned level,
                                    util::ThreadPool* pool) {
  std::vector<Point2> out;
  out.reserve(raw.size());
  if (dense_argsort_pays(level, raw.size())) {
    std::vector<std::int32_t> slot(
        static_cast<std::size_t>(grid_size<2>(level)), -1);
    for (std::size_t i = 0; i < raw.size(); ++i) {
      slot[pack(raw[i], level)] = static_cast<std::int32_t>(i);
    }
    for (const std::int32_t i : slot) {
      if (i >= 0) out.push_back(raw[static_cast<std::size_t>(i)]);
    }
    return out;
  }
  std::vector<util::KeyIndex> items(raw.size());
  for (std::size_t i = 0; i < raw.size(); ++i) {
    items[i] = util::KeyIndex{pack(raw[i], level),
                              static_cast<std::uint32_t>(i)};
  }
  {
    const obs::Span span("sweep/canonical/radix");
    util::radix_sort_pairs(items, pool);
  }
  for (const util::KeyIndex& it : items) out.push_back(raw[it.index]);
  return out;
}

/// Rank table of one curve over a canonical sample: rank[i] is the
/// position canonical particle i occupies in the curve-sorted order.
struct Ordering2 {
  std::vector<std::uint32_t> rank;
  std::size_t memory_bytes() const noexcept {
    return rank.capacity() * sizeof(std::uint32_t);
  }
};

/// Curve indices are a bijection between cells and [0, 4^level), and the
/// particles occupy distinct cells, so the argsort is unique and equals
/// the stable_sort the sorting AcdInstance constructor performs. Keys
/// come from the batched encode (one virtual call for the whole sample);
/// the argsort is a dense scatter + scan on compact grids and a stable
/// LSD radix sort of (key, index) pairs beyond. Serial radix on purpose:
/// ordering builds already fan out across curves on the pool, and a
/// nested threaded sort would fight them for workers.
Ordering2 make_ordering(const std::vector<Point2>& canonical, unsigned level,
                        const Curve<2>& curve) {
  const std::vector<std::uint64_t> keys = indices_of(curve, canonical, level);
  Ordering2 out;
  out.rank.resize(canonical.size());
  if (dense_argsort_pays(level, canonical.size())) {
    std::vector<std::int32_t> slot(
        static_cast<std::size_t>(grid_size<2>(level)), -1);
    for (std::size_t i = 0; i < keys.size(); ++i) {
      slot[keys[i]] = static_cast<std::int32_t>(i);
    }
    std::uint32_t next = 0;
    for (const std::int32_t i : slot) {
      if (i >= 0) out.rank[static_cast<std::size_t>(i)] = next++;
    }
    return out;
  }
  std::vector<util::KeyIndex> items(keys.size());
  for (std::size_t i = 0; i < keys.size(); ++i) {
    items[i] = util::KeyIndex{keys[i], static_cast<std::uint32_t>(i)};
  }
  {
    const obs::Span span("sweep/order/radix");
    util::radix_sort_pairs(items);
  }
  for (std::uint32_t k = 0; k < items.size(); ++k) {
    out.rank[items[k].index] = k;
  }
  return out;
}

// ------------------------------------------------------------- cell graph

struct PlanNode;

/// Materializer of one node: sets its output and bytes.
using Builder = std::function<void(PlanNode&)>;

/// One node of the study graph: a stage artifact to materialize, either
/// by computing it or by deserializing a store payload validated and
/// pinned at plan time. The coordinator creates every node and edge
/// during the plan walk; execution only runs builders and hands outputs
/// on, so the cross-thread state is the two counters and `output`
/// (ordered by the counters' acq_rel hand-offs).
struct PlanNode {
  SweepStage stage = SweepStage::kSample;
  std::uint64_t raw_key = 0;  ///< un-mixed stage key (the store address)
  /// Runs exactly once, on whichever thread the scheduler hands the node
  /// to, and is dropped with its captures right after.
  Builder build;
  std::shared_ptr<const void> output;
  std::size_t bytes = 0;
  bool from_store = false;
  /// A shared build outside the stage counts and the store (one tree walk
  /// or window scan for every processor count of an ordering): its
  /// members move their histograms out of its output.
  bool batch = false;
  /// Set by a batch member's build: the bytes it moved out of the batch,
  /// which change owner instead of adding to the live total.
  std::size_t moved_bytes = 0;
  ArtifactStore::Mapping mapping;  ///< pinned store payload (load nodes)
  std::vector<PlanNode*> inputs;     ///< every node the builder reads
  std::vector<PlanNode*> consumers;  ///< nodes waiting for this build
  std::atomic<unsigned> pending{0};  ///< inputs not yet built
  /// Readers (consumer builds, drain jobs) not yet finished; the output
  /// is freed when it reaches zero.
  std::atomic<unsigned> uses{0};
};

template <typename T>
std::shared_ptr<const T> out_as(const PlanNode* node) {
  return std::static_pointer_cast<const T>(node->output);
}

/// One cell of the drain pass (results, statistics, progress) in grid
/// order.
struct DrainJob {
  std::size_t index = 0;
  StudyCellRef ref;
  PlanNode* fold = nullptr;
};

/// Output of a fold node: the cell's ACD contributions plus the fold's
/// span-clock wall time for the progress sink.
struct FoldOut {
  double nfi_acd = 0.0;
  double ffi_acd = 0.0;
  bool has_nfi = false;
  bool has_ffi = false;
  double ms = 0.0;
};

/// Stages with an on-disk representation. kSample is superseded by
/// kCanonical (same content, already cell-sorted); kTopology is cheap to
/// rebuild and validation must stay on the coordinator; kDelta is never
/// a sweep artifact. kFold persists its two doubles: tiny payloads, but
/// at warm-start time the folds are the one remaining recompute, so
/// skipping them is what turns a warm rerun into pure deserialization.
bool store_persistable(SweepStage stage) noexcept {
  switch (stage) {
    case SweepStage::kCanonical:
    case SweepStage::kOrdering:
    case SweepStage::kInstance:
    case SweepStage::kNfiHistogram:
    case SweepStage::kFfiHistogram:
    case SweepStage::kFold:
      return true;
    default:
      return false;
  }
}

void append_u64(std::vector<std::uint8_t>& out, std::uint64_t v) {
  std::uint8_t buf[8];
  std::memcpy(buf, &v, sizeof buf);
  out.insert(out.end(), buf, buf + sizeof buf);
}

bool read_u64(const std::uint8_t* data, std::size_t size, std::size_t& offset,
              std::uint64_t& v) {
  if (offset > size || size - offset < 8) return false;
  std::memcpy(&v, data + offset, 8);
  offset += 8;
  return true;
}

void append_bytes(std::vector<std::uint8_t>& out, const void* data,
                  std::size_t n) {
  const auto* p = static_cast<const std::uint8_t*>(data);
  out.insert(out.end(), p, p + n);
}

/// Store payload of one persistable artifact (host-endian; provenance in
/// the store header ties files to one build, so portability is not a
/// goal). Canonical and instance payloads are the particle arrays — the
/// occupancy grid and cell tree rebuild deterministically from them.
std::vector<std::uint8_t> serialize_artifact(SweepStage stage,
                                             const void* value) {
  std::vector<std::uint8_t> out;
  switch (stage) {
    case SweepStage::kCanonical: {
      const auto* canon = static_cast<const CanonicalSample2*>(value);
      append_u64(out, canon->particles.size());
      append_bytes(out, canon->particles.data(),
                   canon->particles.size() * sizeof(Point2));
      break;
    }
    case SweepStage::kOrdering: {
      const auto* ord = static_cast<const Ordering2*>(value);
      append_u64(out, ord->rank.size());
      append_bytes(out, ord->rank.data(),
                   ord->rank.size() * sizeof(std::uint32_t));
      break;
    }
    case SweepStage::kInstance: {
      const auto* inst = static_cast<const AcdInstance<2>*>(value);
      append_u64(out, inst->particles().size());
      append_bytes(out, inst->particles().data(),
                   inst->particles().size() * sizeof(Point2));
      break;
    }
    case SweepStage::kNfiHistogram:
      rank_pairs_serialize(*static_cast<const RankPairAccumulator*>(value),
                           out);
      break;
    case SweepStage::kFfiHistogram:
      fmm::ffi_histograms_serialize(
          *static_cast<const fmm::FfiHistograms*>(value), out);
      break;
    case SweepStage::kFold: {
      // The ACD contributions as exact bit patterns; the fold's wall
      // time is a property of the run, not the artifact, and is
      // re-stamped with the load time on the way back in.
      const auto* fold = static_cast<const FoldOut*>(value);
      append_u64(out, (fold->has_nfi ? 1ull : 0ull) |
                          (fold->has_ffi ? 2ull : 0ull));
      std::uint64_t bits = 0;
      std::memcpy(&bits, &fold->nfi_acd, sizeof bits);
      append_u64(out, bits);
      std::memcpy(&bits, &fold->ffi_acd, sizeof bits);
      append_u64(out, bits);
      break;
    }
    default:
      break;
  }
  return out;
}

[[noreturn]] void malformed_store_payload() {
  // Unreachable for store-read payloads (the header checksum validated
  // the exact bytes the producer wrote); reaching it means a producer
  // bug, which must not be silently recomputed around.
  throw std::runtime_error("artifact store: malformed payload");
}

/// Deserializer for a store-loaded node of `stage`. The returned builder
/// reconstructs the artifact from the pinned mapping and releases the
/// mapping immediately after.
Builder store_load_build(SweepStage stage, unsigned level) {
  switch (stage) {
    case SweepStage::kCanonical:
      return [level](PlanNode& n) {
        const obs::Span span("sweep/store/load");
        std::size_t off = 0;
        std::uint64_t count = 0;
        if (!read_u64(n.mapping.data(), n.mapping.size(), off, count) ||
            n.mapping.size() - off != count * sizeof(Point2)) {
          malformed_store_payload();
        }
        std::vector<Point2> pts(count);
        std::memcpy(pts.data(), n.mapping.data() + off,
                    count * sizeof(Point2));
        auto canon =
            std::make_shared<const CanonicalSample2>(std::move(pts), level);
        n.bytes = canon->memory_bytes();
        n.output = std::move(canon);
        n.mapping = ArtifactStore::Mapping();
      };
    case SweepStage::kOrdering:
      return [](PlanNode& n) {
        const obs::Span span("sweep/store/load");
        std::size_t off = 0;
        std::uint64_t count = 0;
        if (!read_u64(n.mapping.data(), n.mapping.size(), off, count) ||
            n.mapping.size() - off != count * sizeof(std::uint32_t)) {
          malformed_store_payload();
        }
        Ordering2 ord;
        ord.rank.resize(count);
        std::memcpy(ord.rank.data(), n.mapping.data() + off,
                    count * sizeof(std::uint32_t));
        auto built = std::make_shared<const Ordering2>(std::move(ord));
        n.bytes = built->memory_bytes();
        n.output = std::move(built);
        n.mapping = ArtifactStore::Mapping();
      };
    case SweepStage::kInstance:
      return [level](PlanNode& n) {
        const obs::Span span("sweep/store/load");
        std::size_t off = 0;
        std::uint64_t count = 0;
        if (!read_u64(n.mapping.data(), n.mapping.size(), off, count) ||
            n.mapping.size() - off != count * sizeof(Point2)) {
          malformed_store_payload();
        }
        std::vector<Point2> pts(count);
        std::memcpy(pts.data(), n.mapping.data() + off,
                    count * sizeof(Point2));
        auto built = std::make_shared<const AcdInstance<2>>(
            AcdInstance<2>::from_sorted(std::move(pts), level));
        n.bytes = built->memory_bytes();
        n.output = std::move(built);
        n.mapping = ArtifactStore::Mapping();
      };
    case SweepStage::kNfiHistogram:
      return [](PlanNode& n) {
        const obs::Span span("sweep/store/load");
        std::size_t off = 0;
        auto acc =
            rank_pairs_deserialize(n.mapping.data(), n.mapping.size(), off);
        if (!acc || off != n.mapping.size()) malformed_store_payload();
        auto built =
            std::make_shared<const RankPairAccumulator>(std::move(*acc));
        n.bytes = built->memory_bytes();
        n.output = std::move(built);
        n.mapping = ArtifactStore::Mapping();
      };
    case SweepStage::kFfiHistogram:
      return [](PlanNode& n) {
        const obs::Span span("sweep/store/load");
        std::size_t off = 0;
        auto hist = fmm::ffi_histograms_deserialize(n.mapping.data(),
                                                    n.mapping.size(), off);
        if (!hist || off != n.mapping.size()) malformed_store_payload();
        auto built =
            std::make_shared<const fmm::FfiHistograms>(std::move(*hist));
        n.bytes = built->memory_bytes();
        n.output = std::move(built);
        n.mapping = ArtifactStore::Mapping();
      };
    case SweepStage::kFold:
      return [](PlanNode& n) {
        const std::uint64_t t0 = obs::now_ns();
        const obs::Span span("sweep/store/load");
        std::size_t off = 0;
        std::uint64_t flags = 0, nfi_bits = 0, ffi_bits = 0;
        if (!read_u64(n.mapping.data(), n.mapping.size(), off, flags) ||
            !read_u64(n.mapping.data(), n.mapping.size(), off, nfi_bits) ||
            !read_u64(n.mapping.data(), n.mapping.size(), off, ffi_bits) ||
            off != n.mapping.size() || (flags & ~3ull) != 0) {
          malformed_store_payload();
        }
        auto out = std::make_shared<FoldOut>();
        out->has_nfi = (flags & 1ull) != 0;
        out->has_ffi = (flags & 2ull) != 0;
        std::memcpy(&out->nfi_acd, &nfi_bits, sizeof nfi_bits);
        std::memcpy(&out->ffi_acd, &ffi_bits, sizeof ffi_bits);
        out->ms = static_cast<double>(obs::now_ns() - t0) / 1e6;
        n.bytes = sizeof(FoldOut);
        n.output = std::move(out);
        n.mapping = ArtifactStore::Mapping();
      };
    default:
      return {};
  }
}

/// The study graph and its bookkeeping: one node per distinct artifact,
/// the per-stage hit/build counts of the plan walk, and the live-byte
/// accounting of execution. Every artifact is freed when its last reader
/// finishes and written to the store when its node completes.
class StudyGraph {
 public:
  StudyGraph(ArtifactStore* store, unsigned level)
      : store_(store), level_(level) {}

  /// Plan-walk lookup of (stage, key). A node already planned under it
  /// is a hit; otherwise a new node is a build, answered by the store
  /// when it holds a valid payload and otherwise by `plan`, which sets
  /// the builder and links the inputs (or materializes the artifact on
  /// the spot).
  template <typename PlanFn>
  PlanNode* lookup(SweepStage stage, std::uint64_t key, PlanFn&& plan) {
    StageCounters& counts = stats_.stage(stage);
    auto& planned = planned_[static_cast<unsigned>(stage)];
    if (const auto found = planned.find(key); found != planned.end()) {
      ++counts.hits;
      return found->second;
    }
    ++counts.misses;
    PlanNode* node = &nodes_.emplace_back();
    node->stage = stage;
    node->raw_key = key;
    planned.emplace(key, node);
    if (!probe_store(*node)) plan(*node);
    if (node->output != nullptr) account(*node);
    return node;
  }

  /// Whether a node is already planned under (stage, key).
  bool planned(SweepStage stage, std::uint64_t key) const {
    return planned_[static_cast<unsigned>(stage)].contains(key);
  }

  /// A new batch node for `stage`: built like any node, but not counted,
  /// keyed or persisted — its members are.
  PlanNode& add_batch(SweepStage stage) {
    PlanNode& node = nodes_.emplace_back();
    node.stage = stage;
    node.batch = true;
    return node;
  }

  /// Record that `node` reads `inputs` (null entries skipped): each input
  /// gains a use, and one not yet materialized also gates the node.
  void link(PlanNode& node, std::initializer_list<PlanNode*> inputs) {
    for (PlanNode* in : inputs) {
      if (in == nullptr) continue;
      node.inputs.push_back(in);
      in->uses.fetch_add(1, std::memory_order_relaxed);
      if (in->output == nullptr) {
        in->consumers.push_back(&node);
        node.pending.fetch_add(1, std::memory_order_relaxed);
      }
    }
  }

  /// A reader outside the graph (a drain job) takes one use of `node`.
  void use(PlanNode& node) {
    node.uses.fetch_add(1, std::memory_order_relaxed);
  }

  /// A reader of `node` has finished; the last one frees the output.
  void done_reading(PlanNode& node) {
    if (node.uses.fetch_sub(1, std::memory_order_acq_rel) == 1) {
      release(node);
    }
  }

  /// Run every node that plan time did not materialize.
  void execute(util::ThreadPool* pool) {
    std::vector<PlanNode*> roots;
    std::size_t runnable = 0;
    for (PlanNode& n : nodes_) {
      if (n.output != nullptr) {
        // A pre-built topology whose every reader came from the store.
        if (n.uses.load(std::memory_order_relaxed) == 0) release(n);
        continue;
      }
      ++runnable;
      if (n.pending.load(std::memory_order_relaxed) == 0) roots.push_back(&n);
    }
    if (pool == nullptr || pool->size() <= 1) {
      // Breadth first: interleaving frees with the next builds (depth
      // first) lets the allocator hand freed pages back to the kernel
      // only to fault them in again — on a 7,812-particle, p = 65,536
      // FFI sweep (4-CPU Xeon VM, glibc malloc), 9.6k minor faults a
      // sweep against 6.4k-6.8k in this order.
      std::vector<PlanNode*> ready(roots);
      for (std::size_t i = 0; i < ready.size(); ++i) {
        PlanNode* n = ready[i];
        complete(*n);
        for (PlanNode* c : n->consumers) {
          if (c->pending.fetch_sub(1, std::memory_order_relaxed) == 1) {
            ready.push_back(c);
          }
        }
      }
      return;
    }
    if (runnable == 0) return;
    util::Latch done(runnable);
    // Roots are snapshotted before any is submitted: once a root runs,
    // its completions drive consumers to zero, and a live scan would
    // submit those twice.
    for (PlanNode* n : roots) {
      pool->submit([this, pool, &done, n] { run_chain(*pool, done, n); });
    }
    done.wait_and_help(util::can_help(*pool) ? pool : nullptr);
  }

  /// The run's accounting. Call after the drain has read every fold.
  SweepStats stats() const {
    assert(live_bytes_.load() == 0 && "an artifact outlived its readers");
    SweepStats out = stats_;
    for (const PlanNode& n : nodes_) {
      if (!n.batch) out.built_bytes += n.bytes;
    }
    out.peak_bytes = peak_bytes_.load(std::memory_order_relaxed);
    return out;
  }

 private:
  // Store probe for a planned build: a validated payload turns the node
  // into a cheap deserialize; the mapping pins the bytes until then.
  bool probe_store(PlanNode& node) {
    if (store_ == nullptr || node.batch || !store_persistable(node.stage)) {
      return false;
    }
    auto mapping = store_->load(node.stage, node.raw_key);
    if (!mapping) return false;
    node.mapping = std::move(*mapping);
    node.from_store = true;
    node.build = store_load_build(node.stage, level_);
    return true;
  }

  /// Build `node` and continue depth first with one consumer it made
  /// ready; the others go to the pool.
  void run_chain(util::ThreadPool& pool, util::Latch& done, PlanNode* node) {
    while (node != nullptr) {
      complete(*node);
      PlanNode* next = nullptr;
      for (PlanNode* c : node->consumers) {
        // acq_rel: the consumer's build must observe every input,
        // whichever thread finished last.
        if (c->pending.fetch_sub(1, std::memory_order_acq_rel) != 1) continue;
        if (next == nullptr) {
          next = c;
        } else {
          pool.submit([this, &pool, &done, c] { run_chain(pool, done, c); });
        }
      }
      done.count_down();
      node = next;
    }
  }

  /// Materialize `node`, persist it, and hand back the inputs it read.
  void complete(PlanNode& node) {
    node.build(node);
    node.build = nullptr;
    live_bytes_.fetch_sub(node.moved_bytes, std::memory_order_relaxed);
    account(node);
    if (store_ != nullptr && !node.from_store && !node.batch &&
        store_persistable(node.stage) &&
        !store_->contains(node.stage, node.raw_key)) {
      const std::vector<std::uint8_t> payload =
          serialize_artifact(node.stage, node.output.get());
      store_->save(node.stage, node.raw_key, payload.data(), payload.size());
    }
    for (PlanNode* in : node.inputs) done_reading(*in);
    // No consumer can have started yet, so zero uses means no reader.
    if (node.uses.load(std::memory_order_relaxed) == 0) release(node);
  }

  void account(const PlanNode& node) {
    const std::size_t live =
        live_bytes_.fetch_add(node.bytes, std::memory_order_relaxed) +
        node.bytes;
    std::size_t peak = peak_bytes_.load(std::memory_order_relaxed);
    while (live > peak &&
           !peak_bytes_.compare_exchange_weak(peak, live,
                                              std::memory_order_relaxed)) {
    }
  }

  void release(PlanNode& node) {
    node.output.reset();
    // A batch's bytes all moved to its members, which release them.
    if (!node.batch) {
      live_bytes_.fetch_sub(node.bytes, std::memory_order_relaxed);
    }
  }

  ArtifactStore* store_;
  unsigned level_;
  std::deque<PlanNode> nodes_;  // deque: node addresses must be stable
  std::array<std::unordered_map<std::uint64_t, PlanNode*>, kSweepStageCount>
      planned_;
  SweepStats stats_;
  std::atomic<std::size_t> live_bytes_{0};
  std::atomic<std::size_t> peak_bytes_{0};
};

// Builders of the computed stages. Each captures the nodes it reads.

Builder sample_builder(dist::DistKind kind, std::size_t count, unsigned level,
                       std::uint64_t seed) {
  return [=](PlanNode& n) {
    const obs::Span span(stage_span_name(SweepStage::kSample));
    dist::SampleConfig cfg;
    cfg.count = count;
    cfg.level = level;
    cfg.seed = seed;
    auto pts =
        std::make_shared<const Sample2>(dist::sample_particles<2>(kind, cfg));
    n.bytes = pts->capacity() * sizeof(Point2);
    n.output = std::move(pts);
  };
}

Builder canonical_builder(const PlanNode* sample, unsigned level,
                          util::ThreadPool* pool) {
  return [=](PlanNode& n) {
    const obs::Span span(stage_span_name(SweepStage::kCanonical));
    const auto raw = out_as<Sample2>(sample);
    auto canon = std::make_shared<const CanonicalSample2>(
        canonical_order(*raw, level, pool), level);
    n.bytes = canon->memory_bytes();
    n.output = std::move(canon);
  };
}

/// Ordering-stage throughput for the sweep.stage.order.ns_per_particle
/// gauge: every computed ordering adds its wall time and particle count.
struct OrderThroughput {
  std::atomic<std::uint64_t> ns{0};
  std::atomic<std::uint64_t> particles{0};
};

Builder ordering_builder(const PlanNode* canonical, CurveKind kind,
                         unsigned level, OrderThroughput* throughput) {
  return [=](PlanNode& n) {
    const obs::Span span(stage_span_name(SweepStage::kOrdering));
    const std::uint64_t t0 = obs::now_ns();
    const auto canon = out_as<CanonicalSample2>(canonical);
    const auto curve = make_curve<2>(kind);
    auto built = std::make_shared<const Ordering2>(
        make_ordering(canon->particles, level, *curve));
    throughput->ns.fetch_add(obs::now_ns() - t0, std::memory_order_relaxed);
    throughput->particles.fetch_add(canon->particles.size(),
                                    std::memory_order_relaxed);
    n.bytes = built->memory_bytes();
    n.output = std::move(built);
  };
}

/// The FFI tree walk is the one consumer that needs the particles
/// physically in curve order; they are scattered through the rank table
/// instead of re-sorted (the sequence is identical).
Builder instance_builder(const PlanNode* canonical, const PlanNode* ordering,
                         unsigned level) {
  return [=](PlanNode& n) {
    const obs::Span span(stage_span_name(SweepStage::kInstance));
    const auto canon = out_as<CanonicalSample2>(canonical);
    const auto ord = out_as<Ordering2>(ordering);
    std::vector<Point2> sorted(canon->particles.size());
    for (std::size_t i = 0; i < sorted.size(); ++i) {
      sorted[ord->rank[i]] = canon->particles[i];
    }
    auto built = std::make_shared<const AcdInstance<2>>(
        AcdInstance<2>::from_sorted(std::move(sorted), level));
    n.bytes = built->memory_bytes();
    n.output = std::move(built);
  };
}

/// Output of a batch node: member k's histogram in slots[k], which that
/// member's build moves out (hence mutable behind the shared const
/// output; members move distinct slots, so they never race).
template <typename Hist>
struct HistogramBatch {
  mutable std::vector<Hist> slots;
};

/// The processor counts of a batch's members in slot order; the plan walk
/// appends to it, the batch build reads it.
using BatchProcs = std::shared_ptr<std::vector<topo::Rank>>;

/// All missing NFI histograms of one (sample, ordering) from one window
/// scan over the canonical sample.
Builder nfi_batch_builder(const PlanNode* canonical, const PlanNode* ordering,
                          BatchProcs procs, unsigned radius,
                          fmm::NeighborNorm norm, util::ThreadPool* pool) {
  return [=](PlanNode& n) {
    const obs::Span span(stage_span_name(SweepStage::kNfiHistogram));
    const auto canon = out_as<CanonicalSample2>(canonical);
    const auto ord = out_as<Ordering2>(ordering);
    // Owner of canonical particle i: the partition chunk its curve rank
    // falls in, per processor count.
    const std::size_t count = canon->particles.size();
    std::vector<std::vector<topo::Rank>> owners;
    for (const topo::Rank p : *procs) {
      const std::vector<topo::Rank> by_rank =
          fmm::Partition(count, p).owner_table();
      std::vector<topo::Rank>& own = owners.emplace_back(count);
      for (std::size_t i = 0; i < count; ++i) own[i] = by_rank[ord->rank[i]];
    }
    auto batch = std::make_shared<HistogramBatch<RankPairAccumulator>>();
    batch->slots = fmm::nfi_histogram_owners<2>(
        canon->particles, canon->grid, owners, *procs, radius, norm, pool);
    for (const RankPairAccumulator& hist : batch->slots) {
      hist.seal();
      n.bytes += hist.memory_bytes();
    }
    n.output = std::move(batch);
  };
}

/// All missing FFI histograms of one (sample, ordering) from one walk of
/// the instance's cell tree.
Builder ffi_batch_builder(const PlanNode* instance, BatchProcs procs,
                          util::ThreadPool* pool) {
  return [=](PlanNode& n) {
    const obs::Span span(stage_span_name(SweepStage::kFfiHistogram));
    const auto inst = out_as<AcdInstance<2>>(instance);
    std::vector<fmm::Partition> parts;
    for (const topo::Rank p : *procs) {
      parts.emplace_back(inst->particles().size(), p);
    }
    auto batch = std::make_shared<HistogramBatch<fmm::FfiHistograms>>();
    batch->slots = fmm::ffi_histograms<2>(inst->tree(), parts, pool);
    for (const fmm::FfiHistograms& hist : batch->slots) {
      hist.interpolation.seal();
      hist.interaction.seal();
      n.bytes += hist.memory_bytes();
    }
    n.output = std::move(batch);
  };
}

/// A per-p histogram node fed by a batch: takes its slot.
template <typename Hist>
Builder member_builder(const PlanNode* batch, std::size_t slot) {
  return [=](PlanNode& n) {
    auto hist = std::make_shared<const Hist>(
        std::move(out_as<HistogramBatch<Hist>>(batch)->slots[slot]));
    n.bytes = hist->memory_bytes();
    n.moved_bytes = n.bytes;
    n.output = std::move(hist);
  };
}

Builder fold_builder(const PlanNode* net, const PlanNode* nfi,
                     const PlanNode* ffi) {
  return [=](PlanNode& n) {
    const std::uint64_t t0 = obs::now_ns();
    const obs::Span span(stage_span_name(SweepStage::kFold));
    const auto network = out_as<topo::Topology>(net);
    auto out = std::make_shared<FoldOut>();
    if (nfi != nullptr) {
      out->nfi_acd =
          network->fold(out_as<RankPairAccumulator>(nfi)->view()).acd();
      out->has_nfi = true;
    }
    if (ffi != nullptr) {
      out->ffi_acd =
          fmm::ffi_fold(*out_as<fmm::FfiHistograms>(ffi), *network)
              .total()
              .acd();
      out->has_ffi = true;
    }
    out->ms = static_cast<double>(obs::now_ns() - t0) / 1e6;
    n.bytes = sizeof(FoldOut);
    n.output = std::move(out);
  };
}

/// Topologies are built at plan time: they are cheap, and
/// make_topology's argument validation must throw on the coordinator,
/// never inside a pool task.
void build_topology(PlanNode& node, topo::TopologyKind kind, topo::Rank procs,
                    CurveKind ranking_kind, topo::FoldStrategy planned_fold) {
  const obs::Span span(stage_span_name(SweepStage::kTopology));
  const auto ranking = make_curve<2>(ranking_kind);
  std::shared_ptr<const topo::Topology> net =
      topo::make_topology<2>(kind, procs, ranking.get());
  // Payload estimate: per-rank coordinates plus the hop table only a
  // dense-strategy fold would materialize (factorized kernels never touch
  // p×p state).
  node.bytes = static_cast<std::size_t>(procs) * 2 * sizeof(topo::Rank);
  if (planned_fold == topo::FoldStrategy::kDense) {
    node.bytes +=
        static_cast<std::size_t>(procs) * procs * sizeof(std::uint32_t);
  }
  node.output = std::move(net);
}

/// The artifact-reusing engine path: plan the whole study as a graph on
/// the coordinator (grid order), run it on the pool, then drain results
/// serially in grid order — so independent cells execute concurrently
/// end-to-end while results, statistics and progress order stay
/// bit-identical to the from-scratch path.
StudyResult run_reuse(const Study& s, const SweepOptions& o) {
  StudyResult result;
  result.study = s;
  result.cells.assign(s.cell_count(), AcdCell{});
  result.stats.assign(s.cell_count(), AcdCellStats{});

  StudyGraph graph(o.store, s.level);
  util::ThreadPool* pool = o.pool;
  const double trials = s.trials;
  OrderThroughput order_throughput;

  // ---- plan -------------------------------------------------------
  // One pass over the study grid on the coordinator. Every lookup of a
  // stage key either shares the node already planned under it or plans
  // the one build of that artifact. A cell derives its fold key from the
  // raw stage keys before planning anything the fold reads, and plans
  // those inputs only when the store does not answer the fold — a warm
  // rerun plans its folds and the cheap topologies, nothing else.
  //
  // The row and curve nodes (canonical; ordering and instance) are
  // looked up when a build first needs them, or — once another row or
  // curve planned them — when a cell first plans its inputs, so a cold
  // run looks each up once per row and curve. The per-p histograms one
  // (sample, ordering) is missing share one batch node per model: one
  // window scan and one tree walk feed every processor count.
  std::vector<DrainJob> drain;
  for (std::size_t d = 0; d < s.distributions.size(); ++d) {
    for (unsigned t = 0; t < s.trials; ++t) {
      const std::uint64_t sample_key =
          key_of({static_cast<std::uint64_t>(s.distributions[d]), s.particles,
                  s.level, s.seed, t});

      // Canonical spatial state for this (distribution, trial): the
      // cell-sorted sample and its occupancy grid, which every curve of
      // the row shares. The raw sample is needed only to compute it.
      PlanNode* canonical = nullptr;
      const auto need_canonical = [&] {
        if (canonical != nullptr) return canonical;
        canonical = graph.lookup(
            SweepStage::kCanonical, sample_key, [&](PlanNode& node) {
              PlanNode* sample = graph.lookup(
                  SweepStage::kSample, sample_key, [&](PlanNode& sn) {
                    sn.build = sample_builder(s.distributions[d], s.particles,
                                              s.level,
                                              util::substream_seed(s.seed, t));
                  });
              node.build = canonical_builder(sample, s.level, pool);
              graph.link(node, {sample});
            });
        return canonical;
      };

      for (std::size_t pc = 0; pc < s.particle_curves.size(); ++pc) {
        const CurveKind pkind = s.particle_curves[pc];
        const std::uint64_t curve_key =
            sweep_key(sample_key, static_cast<std::uint64_t>(pkind));
        PlanNode* ordering = nullptr;
        const auto need_ordering = [&] {
          if (ordering != nullptr) return ordering;
          ordering = graph.lookup(
              SweepStage::kOrdering, curve_key, [&](PlanNode& node) {
                PlanNode* canon = need_canonical();
                node.build = ordering_builder(canon, pkind, s.level,
                                              &order_throughput);
                graph.link(node, {canon});
              });
          return ordering;
        };
        // Only the FFI tree walk reads an instance.
        PlanNode* instance = nullptr;
        const auto need_instance = [&] {
          if (instance != nullptr) return instance;
          instance = graph.lookup(
              SweepStage::kInstance, curve_key, [&](PlanNode& node) {
                PlanNode* canon = need_canonical();
                PlanNode* ord = need_ordering();
                node.build = instance_builder(canon, ord, s.level);
                graph.link(node, {canon, ord});
              });
          return instance;
        };

        // A histogram node the store does not answer joins its model's
        // batch, which is created with the first such node.
        PlanNode* nfi_batch = nullptr;
        BatchProcs nfi_procs;
        const auto plan_nfi = [&](PlanNode& node, topo::Rank procs) {
          if (nfi_batch == nullptr) {
            PlanNode* canon = need_canonical();
            PlanNode* ord = need_ordering();
            nfi_procs = std::make_shared<std::vector<topo::Rank>>();
            nfi_batch = &graph.add_batch(SweepStage::kNfiHistogram);
            nfi_batch->build = nfi_batch_builder(canon, ord, nfi_procs,
                                                 s.radius, s.norm, pool);
            graph.link(*nfi_batch, {canon, ord});
          }
          node.build = member_builder<RankPairAccumulator>(nfi_batch,
                                                           nfi_procs->size());
          nfi_procs->push_back(procs);
          graph.link(node, {nfi_batch});
        };
        PlanNode* ffi_batch = nullptr;
        BatchProcs ffi_procs;
        const auto plan_ffi = [&](PlanNode& node, topo::Rank procs) {
          if (ffi_batch == nullptr) {
            PlanNode* inst = need_instance();
            ffi_procs = std::make_shared<std::vector<topo::Rank>>();
            ffi_batch = &graph.add_batch(SweepStage::kFfiHistogram);
            ffi_batch->build = ffi_batch_builder(inst, ffi_procs, pool);
            graph.link(*ffi_batch, {inst});
          }
          node.build = member_builder<fmm::FfiHistograms>(ffi_batch,
                                                          ffi_procs->size());
          ffi_procs->push_back(procs);
          graph.link(node, {ffi_batch});
        };

        for (std::size_t pi = 0; pi < s.proc_counts.size(); ++pi) {
          const topo::Rank procs = s.proc_counts[pi];
          const std::uint64_t nfi_key =
              s.near_field ? key_of({curve_key, procs, s.radius,
                                     static_cast<std::uint64_t>(s.norm)})
                           : 0;
          const std::uint64_t ffi_key =
              s.far_field ? key_of({curve_key, procs}) : 0;
          for (std::size_t rc = 0; rc < s.processor_order_count(); ++rc) {
            const CurveKind rkind =
                s.paired_curves() ? pkind : s.processor_curves[rc];
            for (std::size_t ti = 0; ti < s.topologies.size(); ++ti) {
              const topo::TopologyKind tkind = s.topologies[ti];
              // The planned fold strategy is part of the artifact
              // identity: a strategy change (new kernel, budget change)
              // must not resurrect payloads sized for the old plan.
              const topo::FoldStrategy planned_fold =
                  topo::planned_fold_strategy(tkind, procs);
              const std::uint64_t topo_key =
                  key_of({static_cast<std::uint64_t>(tkind), procs,
                          topology_uses_ranking(tkind)
                              ? static_cast<std::uint64_t>(rkind)
                              : kNoRanking,
                          static_cast<std::uint64_t>(planned_fold)});
              PlanNode* net = graph.lookup(
                  SweepStage::kTopology, topo_key, [&](PlanNode& node) {
                    build_topology(node, tkind, procs, rkind, planned_fold);
                  });

              // Every cell whose fold the store does not answer looks up
              // its histograms; only the first lookup of each key builds.
              PlanNode* nfi = nullptr;
              PlanNode* ffi = nullptr;
              bool inputs_planned = false;
              const auto plan_inputs = [&] {
                inputs_planned = true;
                // Row and curve nodes another row or curve planned are
                // hits now; unplanned ones wait for a build to need them.
                if (graph.planned(SweepStage::kCanonical, sample_key)) {
                  need_canonical();
                }
                if (graph.planned(SweepStage::kOrdering, curve_key)) {
                  need_ordering();
                }
                if (s.far_field &&
                    graph.planned(SweepStage::kInstance, curve_key)) {
                  need_instance();
                }
                if (s.near_field) {
                  nfi = graph.lookup(
                      SweepStage::kNfiHistogram, nfi_key,
                      [&](PlanNode& node) { plan_nfi(node, procs); });
                }
                if (s.far_field) {
                  ffi = graph.lookup(
                      SweepStage::kFfiHistogram, ffi_key,
                      [&](PlanNode& node) { plan_ffi(node, procs); });
                }
              };
              // The fold is keyed by its inputs (histograms ⊕ topology),
              // so a warm store answers it — at warm start the folds are
              // the only remaining compute.
              PlanNode* fold = graph.lookup(
                  SweepStage::kFold, key_of({nfi_key, ffi_key, topo_key}),
                  [&](PlanNode& node) {
                    plan_inputs();
                    node.build = fold_builder(net, nfi, ffi);
                    graph.link(node, {net, nfi, ffi});
                  });
              // A fold another cell planned (a repeated axis value):
              // this cell still looks up its inputs, as hits.
              if (!inputs_planned && !fold->from_store) plan_inputs();
              graph.use(*fold);
              const std::size_t rc_index = s.paired_curves() ? pc : rc;
              drain.push_back(DrainJob{result.index(d, pc, pi, rc, ti),
                                       StudyCellRef{d, t, pc, pi, rc_index, ti},
                                       fold});
            }
          }
        }
      }
    }
  }

  // ---- execute ----------------------------------------------------
  graph.execute(pool);
  if (o.store != nullptr) o.store->publish_metrics();

  // ---- drain ------------------------------------------------------
  // Results, statistics, and progress callbacks in plan (= grid) order:
  // the float accumulation order matches the from-scratch path exactly,
  // so cells are bit-identical whatever the thread count.
  for (const DrainJob& job : drain) {
    const auto out = out_as<FoldOut>(job.fold);
    if (out->has_nfi) {
      result.cells[job.index].nfi_acd += out->nfi_acd / trials;
      result.stats[job.index].nfi.add(out->nfi_acd);
    }
    if (out->has_ffi) {
      result.cells[job.index].ffi_acd += out->ffi_acd / trials;
      result.stats[job.index].ffi.add(out->ffi_acd);
    }
    if (o.progress) o.progress(job.ref, out->ms);
    graph.done_reading(*job.fold);
  }

  result.sweep = graph.stats();
  publish_sweep_metrics(result.sweep);
  const std::uint64_t ordered = order_throughput.particles.load();
  if (obs::metrics_enabled() && ordered > 0) {
    obs::Registry::instance()
        .gauge("sweep.stage.order.ns_per_particle")
        .set(static_cast<double>(order_throughput.ns.load()) /
             static_cast<double>(ordered));
    // Which sort path the ordering stage's record counts selected:
    // mirrors the calibrated (or overridden) threaded-radix cutoff next
    // to the per-particle cost it gates.
    obs::Registry::instance()
        .gauge("sweep.stage.order.radix_threshold")
        .set(static_cast<double>(util::detail::threaded_radix_min()));
  }
  return result;
}

/// The from-scratch path: the legacy per-cell pipeline in the same grid
/// order — the equivalence oracle and the speedup baseline.
StudyResult run_direct(const Study& s, const SweepOptions& o) {
  StudyResult result;
  result.study = s;
  result.cells.assign(s.cell_count(), AcdCell{});
  result.stats.assign(s.cell_count(), AcdCellStats{});

  util::ThreadPool* pool = o.pool;
  const double trials = s.trials;
  const std::size_t nrc = s.processor_order_count();

  for (std::size_t d = 0; d < s.distributions.size(); ++d) {
    for (unsigned t = 0; t < s.trials; ++t) {
      dist::SampleConfig cfg;
      cfg.count = s.particles;
      cfg.level = s.level;
      cfg.seed = util::substream_seed(s.seed, t);
      const auto particles =
          dist::sample_particles<2>(s.distributions[d], cfg);
      for (std::size_t pc = 0; pc < s.particle_curves.size(); ++pc) {
        const auto curve = make_curve<2>(s.particle_curves[pc]);
        const AcdInstance<2> instance(particles, s.level, *curve);
        for (std::size_t pi = 0; pi < s.proc_counts.size(); ++pi) {
          const topo::Rank procs = s.proc_counts[pi];
          const fmm::Partition part(instance.particles().size(), procs);
          for (std::size_t rc = 0; rc < nrc; ++rc) {
            const std::size_t rc_index = s.paired_curves() ? pc : rc;
            const CurveKind rkind = s.paired_curves()
                                        ? s.particle_curves[pc]
                                        : s.processor_curves[rc];
            const auto ranking = make_curve<2>(rkind);
            for (std::size_t ti = 0; ti < s.topologies.size(); ++ti) {
              const std::uint64_t t0 = obs::now_ns();
              const auto net = topo::make_topology<2>(s.topologies[ti],
                                                      procs, ranking.get());
              const std::size_t index = result.index(d, pc, pi, rc, ti);
              if (s.near_field) {
                const double acd =
                    instance.nfi(part, *net, s.radius, s.norm, pool).acd();
                result.cells[index].nfi_acd += acd / trials;
                result.stats[index].nfi.add(acd);
              }
              if (s.far_field) {
                const double acd =
                    instance.ffi(part, *net, pool).total().acd();
                result.cells[index].ffi_acd += acd / trials;
                result.stats[index].ffi.add(acd);
              }
              if (o.progress) {
                o.progress(StudyCellRef{d, t, pc, pi, rc_index, ti},
                           static_cast<double>(obs::now_ns() - t0) / 1e6);
              }
            }
          }
        }
      }
    }
  }
  return result;
}

}  // namespace

StudyResult run_study(const Study& study, const SweepOptions& options) {
  return options.reuse ? run_reuse(study, options)
                       : run_direct(study, options);
}

// ----------------------------------------------------------------- dynamics

DynamicsResult run_dynamics(const DynamicsStudy& study,
                            const DynamicsOptions& options) {
  DynamicsResult result;
  result.study = study;
  result.steps.reserve(study.steps);

  const auto curve = make_curve<2>(study.curve);
  const auto net =
      topo::make_topology<2>(study.topology, study.procs, curve.get());

  dist::SampleConfig cfg;
  cfg.count = study.particles;
  cfg.level = study.level;
  cfg.seed = study.seed;
  const std::vector<Point2> sample =
      dist::sample_particles<2>(study.distribution, cfg);

  DynamicAcd<2>::Options frozen_opts;
  frozen_opts.radius = study.radius;
  frozen_opts.norm = study.norm;
  frozen_opts.repartition_threshold = 2.0;  // never re-partition
  DynamicAcd<2>::Options lazy_opts = frozen_opts;
  lazy_opts.repartition_threshold = study.repartition_threshold;

  // The frozen engine keeps the order its constructor produced, so its
  // particle array is the frozen index space the drift moves address.
  DynamicAcd<2> frozen(sample, study.level, *curve, study.procs, frozen_opts,
                       options.pool);
  DynamicAcd<2> lazy(sample, study.level, *curve, study.procs, lazy_opts,
                     options.pool);

  for (unsigned s = 0; s < study.steps; ++s) {
    const std::vector<ParticleMove2> moves =
        drift_moves<2>(frozen.particles(), study.level, study.seed, s,
                       study.move_fraction);
    const obs::Span span(stage_span_name(SweepStage::kDelta));
    // The lazy engine's array order diverges once it re-partitions, so
    // its copy of the batch is re-keyed through the pre-move positions
    // (a move is physically position-keyed; frozen.particles() still
    // holds the pre-move state here).
    std::vector<ParticleMove2> lazy_moves;
    lazy_moves.reserve(moves.size());
    for (const ParticleMove2& mv : moves) {
      const std::int32_t idx = lazy.index_at(frozen.particles()[mv.index]);
      lazy_moves.push_back({static_cast<std::uint32_t>(idx), mv.to});
    }
    frozen.move_particles(moves, options.pool);
    lazy.move_particles(lazy_moves, options.pool);

    DynamicsStepResult& r = result.steps.emplace_back();
    r.moves = moves.size();
    r.frozen_nfi = frozen.nfi(*net);
    r.frozen_ffi = frozen.ffi(*net);
    r.lazy_nfi = lazy.nfi(*net);
    r.lazy_ffi = lazy.ffi(*net);
    r.frozen_displaced = frozen.displaced_fraction();
    r.lazy_displaced = lazy.displaced_fraction();
    r.lazy_repartitions = lazy.repartitions();
    // The re-sort-every-step baseline: a from-scratch AcdInstance of
    // the post-move configuration.
    const AcdInstance<2> inst(frozen.particles(), study.level, *curve);
    const fmm::Partition part(study.particles, study.procs);
    r.reorder_nfi =
        inst.nfi(part, *net, study.radius, study.norm, options.pool);
    r.reorder_ffi = inst.ffi(part, *net, options.pool);
  }
  return result;
}

}  // namespace sfc::core
