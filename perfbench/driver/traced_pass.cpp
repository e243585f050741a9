// traced_pass.cpp — the per-layer pass (--trace 1).
//
// The pass does not go through run_study. It evaluates the workload's
// grid by calling each layer's public functions directly, once per
// distinct artifact, with a span around every call:
//
//   distribution.sample   dist::sample_particles          per distribution
//   sfc.sort_by_curve     core::sort_by_curve             per (dist, curve)
//   fmm.instance          AcdInstance::from_sorted        per (dist, curve)
//   fmm.nfi.histogram     fmm::nfi_histogram_owners       per (dist, curve, p)
//   fmm.ffi.histogram     fmm::ffi_histograms             per (dist, curve, p)
//   core.rank_pair.seal   RankPairAccumulator::seal       per histogram
//   topology.make         topo::make_topology             per cell
//   topology.fold.<kind>  Topology::fold / fmm::ffi_fold  per cell
//
// and checks the cells it folds against the oracle. It runs three times:
// spans off, spans on, spans off; the mean of the untraced walls is the
// reference for trace.overhead_frac. Probes follow, each under its own
// span: the model the workload does not evaluate, ffi_histograms at the
// workload's p and at p = 1024 on one tree, folds onto the topologies the
// workload does not use, the histogram merge and a save/reopen/load round
// trip through an ArtifactStore (both over the first distribution's
// histograms), and thread-pool latency bursts. Last come one serial and
// one threaded run_study, for the engine's own counters and the scaling
// baseline. Everything runs on the calling thread except the pool probes
// and the threaded sweep.
#include <algorithm>
#include <atomic>
#include <bit>
#include <cctype>
#include <fstream>
#include <iostream>
#include <map>
#include <optional>

#include "core/acd.hpp"
#include "core/rank_pair.hpp"
#include "fmm/ffi.hpp"
#include "fmm/nfi.hpp"
#include "modes.hpp"
#include "spans.hpp"
#include "topology/factory.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace perfbench {

std::string SpanRecorder::chrome_trace_json() const {
  const std::uint64_t t0 = spans_.empty() ? 0 : spans_.front().start_ns;
  std::string out = "{\"traceEvents\": [";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    if (i > 0) out += ",\n";
    JsonObject e;
    e.add("name", s.name)
        .add("ph", "X")
        .add("pid", std::uint64_t{1})
        .add("tid", std::uint64_t{1})
        .add("ts", static_cast<double>(s.start_ns - t0) * 1e-3)
        .add("dur", static_cast<double>(s.duration_ns()) * 1e-3);
    if (!s.detail.empty()) {
      e.add_raw("args", JsonObject().add("detail", s.detail).str());
    }
    out += e.str();
  }
  return out + "], \"displayTimeUnit\": \"ms\"}\n";
}

namespace {

using namespace sfc;
using Hist = core::RankPairAccumulator;
using Scope = SpanRecorder::Scope;

constexpr topo::Rank kDenseProbeProcs = 1024;
constexpr double kMiB = 1024.0 * 1024.0;

std::string kind_name(topo::TopologyKind kind) {
  std::string name(topo::topology_name(kind));
  for (char& c : name) c = static_cast<char>(std::tolower(c));
  return name;
}

/// One distinct histogram artifact of the pipeline.
struct Artifact {
  std::size_t dist = 0;
  std::size_t curve = 0;
  topo::Rank procs = 0;
  std::optional<Hist> nfi;
  std::optional<fmm::FfiHistograms> ffi;
};

/// Which histogram family of which artifact a fold consumed.
struct FoldUse {
  std::size_t artifact = 0;
  bool ffi = false;
};

struct Pipeline {
  std::vector<CellBits> cells;
  std::vector<Artifact> artifacts;
  /// The (first distribution, first curve) instance, kept for the probes.
  std::optional<core::AcdInstance<2>> first_instance;
  std::size_t samples = 0;
  std::size_t instances = 0;
  double instance_bytes = 0.0;
  std::map<topo::TopologyKind, std::vector<FoldUse>> folds;
};

Pipeline run_pipeline(const core::Study& s, SpanRecorder& rec) {
  Pipeline out;
  core::StudyResult layout;  // only for StudyResult::index
  layout.study = s;
  out.cells.assign(s.cell_count(), CellBits{0, 0});

  for (std::size_t d = 0; d < s.distributions.size(); ++d) {
    dist::SampleConfig cfg;
    cfg.count = s.particles;
    cfg.level = s.level;
    cfg.seed = util::substream_seed(s.seed, 0);  // trial 0 of run_study
    std::vector<Point2> particles;
    {
      Scope span(rec, "distribution.sample",
                 std::string(dist::dist_name(s.distributions[d])));
      particles = dist::sample_particles<2>(s.distributions[d], cfg);
    }
    ++out.samples;

    for (std::size_t pc = 0; pc < s.particle_curves.size(); ++pc) {
      const auto curve = make_curve<2>(s.particle_curves[pc]);
      std::vector<Point2> sorted;
      {
        Scope span(rec, "sfc.sort_by_curve", std::string(curve->name()));
        sorted = core::sort_by_curve<2>(particles, s.level, *curve);
      }
      std::optional<core::AcdInstance<2>> instance;
      {
        Scope span(rec, "fmm.instance", std::string(curve->name()));
        instance.emplace(
            core::AcdInstance<2>::from_sorted(std::move(sorted), s.level));
      }
      ++out.instances;
      out.instance_bytes += static_cast<double>(instance->memory_bytes());

      for (std::size_t pi = 0; pi < s.proc_counts.size(); ++pi) {
        const topo::Rank p = s.proc_counts[pi];
        const fmm::Partition part(instance->particles().size(), p);
        Artifact a;
        a.dist = d;
        a.curve = pc;
        a.procs = p;
        const std::string at = "p=" + std::to_string(p);
        if (s.near_field) {
          {
            Scope span(rec, "fmm.nfi.histogram", at);
            a.nfi.emplace(fmm::nfi_histogram_owners<2>(
                instance->particles(), instance->grid(), part.owner_table(),
                p, s.radius, s.norm, nullptr));
          }
          Scope span(rec, "core.rank_pair.seal", "nfi");
          a.nfi->seal();
        }
        if (s.far_field) {
          {
            Scope span(rec, "fmm.ffi.histogram", at);
            a.ffi.emplace(fmm::ffi_histograms<2>(instance->tree(), part));
          }
          Scope span(rec, "core.rank_pair.seal", "ffi");
          a.ffi->interpolation.seal();
          a.ffi->interaction.seal();
        }
        const std::size_t ai = out.artifacts.size();
        out.artifacts.push_back(std::move(a));
        const Artifact& art = out.artifacts.back();

        for (std::size_t rc = 0; rc < s.processor_order_count(); ++rc) {
          const auto ranking = make_curve<2>(
              s.paired_curves() ? s.particle_curves[pc]
                                : s.processor_curves[rc]);
          for (std::size_t ti = 0; ti < s.topologies.size(); ++ti) {
            const topo::TopologyKind kind = s.topologies[ti];
            std::unique_ptr<topo::Topology> net;
            {
              Scope span(rec, "topology.make", kind_name(kind));
              net = topo::make_topology<2>(kind, p, ranking.get());
            }
            const std::string fold = "topology.fold." + kind_name(kind);
            double nfi_acd = 0.0;
            double ffi_acd = 0.0;
            if (art.nfi) {
              Scope span(rec, fold, "nfi");
              nfi_acd = net->fold(art.nfi->view()).acd();
              out.folds[kind].push_back({ai, false});
            }
            if (art.ffi) {
              Scope span(rec, fold, "ffi");
              ffi_acd = fmm::ffi_fold(*art.ffi, *net).total().acd();
              out.folds[kind].push_back({ai, true});
            }
            out.cells[layout.index(d, pc, pi, rc, ti)] = {
                std::bit_cast<std::uint64_t>(nfi_acd),
                std::bit_cast<std::uint64_t>(ffi_acd)};
          }
        }
      }
      if (d == 0 && pc == 0) out.first_instance = std::move(instance);
    }
  }
  return out;
}

/// Work counts of one histogram.
struct HistCounts {
  std::uint64_t events = 0;
  std::uint64_t pairs = 0;
  double bytes = 0.0;

  HistCounts& operator+=(const HistCounts& o) {
    events += o.events;
    pairs += o.pairs;
    bytes += o.bytes;
    return *this;
  }
};

HistCounts count(const Hist& h) {
  HistCounts c;
  c.events = h.events();
  h.for_each([&c](topo::Rank, topo::Rank, std::uint64_t) { ++c.pairs; });
  c.bytes = static_cast<double>(h.memory_bytes());
  return c;
}

HistCounts count(const fmm::FfiHistograms& h) {
  HistCounts c = count(h.interpolation);
  c += count(h.interaction);
  return c;
}

struct PoolProbe {
  std::vector<double> queue_wait_us;
  std::vector<double> latch_wake_us;
};

/// Submit-to-start latency over a burst of empty tasks, and the delay
/// from the last task's count_down to Latch::wait_and_help returning.
PoolProbe probe_pool(unsigned threads, SpanRecorder& rec) {
  constexpr std::size_t kBurst = 4096;
  constexpr int kRounds = 256;
  constexpr int kTasks = 8;
  util::ThreadPool pool(threads);
  PoolProbe out;
  {
    Scope span(rec, "util.thread_pool.burst");
    std::vector<std::uint64_t> submitted(kBurst), started(kBurst);
    for (std::size_t i = 0; i < kBurst; ++i) {
      submitted[i] = SpanRecorder::clock_ns();
      pool.submit([&started, i] { started[i] = SpanRecorder::clock_ns(); });
    }
    pool.wait_idle();
    for (std::size_t i = 0; i < kBurst; ++i) {
      out.queue_wait_us.push_back(
          static_cast<double>(started[i] - submitted[i]) * 1e-3);
    }
  }
  Scope span(rec, "util.thread_pool.latch");
  for (int r = 0; r < kRounds; ++r) {
    util::Latch latch(kTasks);
    std::atomic<std::uint64_t> last_done{0};
    for (int t = 0; t < kTasks; ++t) {
      pool.submit([&latch, &last_done] {
        const std::uint64_t now = SpanRecorder::clock_ns();
        std::uint64_t prev = last_done.load();
        while (prev < now && !last_done.compare_exchange_weak(prev, now)) {
        }
        latch.count_down();
      });
    }
    latch.wait_and_help(&pool);
    const std::uint64_t returned = SpanRecorder::clock_ns();
    out.latch_wake_us.push_back(
        static_cast<double>(returned - last_done.load()) * 1e-3);
  }
  return out;
}

struct StoreProbe {
  core::ArtifactStore::Stats stats;
  std::uint64_t mismatched = 0;
};

/// Probe (miss), save, reopen (directory scan) and load (hit) each given
/// histogram through an ArtifactStore, checking each loaded
/// payload against the saved one.
StoreProbe probe_store(const std::vector<const Artifact*>& artifacts,
                       const std::string& dir, SpanRecorder& rec) {
  struct Saved {
    core::SweepStage stage;
    std::uint64_t key;
    std::size_t size;
    std::uint64_t checksum;
  };
  std::vector<Saved> saved;
  auto store = open_store(dir, /*clear=*/true);
  std::vector<std::uint8_t> payload;
  for (const Artifact* ap : artifacts) {
    const Artifact& a = *ap;
    const std::uint64_t base = core::sweep_key(
        core::sweep_key(a.dist, a.curve), static_cast<std::uint64_t>(a.procs));
    for (const bool ffi : {false, true}) {
      if (ffi ? !a.ffi : !a.nfi) continue;
      payload.clear();
      if (ffi) {
        fmm::ffi_histograms_serialize(*a.ffi, payload);
      } else {
        core::rank_pairs_serialize(*a.nfi, payload);
      }
      const core::SweepStage stage = ffi ? core::SweepStage::kFfiHistogram
                                         : core::SweepStage::kNfiHistogram;
      {
        Scope span(rec, "core.artifact_store.probe");
        (void)store->load(stage, base);
      }
      {
        Scope span(rec, "core.artifact_store.save");
        store->save(stage, base, payload.data(), payload.size());
      }
      saved.push_back({stage, base, payload.size(),
                       core::ArtifactStore::checksum(payload.data(),
                                                     payload.size())});
    }
  }
  const core::ArtifactStore::Stats written = store->stats();
  store.reset();

  StoreProbe out;
  {
    Scope span(rec, "core.artifact_store.open");
    store = open_store(dir, /*clear=*/false);
  }
  for (const Saved& s : saved) {
    Scope span(rec, "core.artifact_store.load");
    const auto mapping = store->load(s.stage, s.key);
    if (!mapping || mapping->size() != s.size ||
        core::ArtifactStore::checksum(mapping->data(), mapping->size()) !=
            s.checksum) {
      ++out.mismatched;
    }
  }
  out.stats = store->stats();
  out.stats.misses += written.misses;
  out.stats.corrupt += written.corrupt;
  out.stats.spills = written.spills;
  out.stats.spilled_bytes = written.spilled_bytes;
  return out;
}

}  // namespace

int run_traced(const RunConfig& cfg) {
  const Workload& w = cfg.workload;
  const core::Study& s = w.study;
  const std::vector<CellBits> oracle = read_oracle(cfg.oracle_path);
  const std::size_t cells = s.cell_count();
  const unsigned threads = bench_threads();
  std::uint64_t attempted = 0, failed = 0;
  const auto check = [&](const std::vector<CellBits>& got) {
    attempted += cells;
    failed += count_mismatches(got, oracle);
  };

  SpanRecorder rec;

  // The traced pipeline, bracketed by two untraced ones whose mean wall is
  // the untraced reference (first-touch costs and drift cancel).
  const auto untraced_pass = [&] {
    const double t0 = now_s();
    const Pipeline untraced = run_pipeline(s, rec);
    const double wall = now_s() - t0;
    check(untraced.cells);
    return wall;
  };
  double untraced_s = untraced_pass();
  rec.set_enabled(true);
  std::optional<Pipeline> pipe;
  int pipe_root = -1;
  {
    Scope root(rec, "pipeline", w.name);
    pipe_root = root.id();
    pipe.emplace(run_pipeline(s, rec));
  }
  check(pipe->cells);
  rec.set_enabled(false);
  untraced_s = 0.5 * (untraced_s + untraced_pass());
  rec.set_enabled(true);

  HistCounts nfi, ffi;
  std::vector<HistCounts> nfi_of(pipe->artifacts.size());
  std::vector<HistCounts> ffi_of(pipe->artifacts.size());
  for (std::size_t i = 0; i < pipe->artifacts.size(); ++i) {
    const Artifact& a = pipe->artifacts[i];
    if (a.nfi) nfi += nfi_of[i] = count(*a.nfi);
    if (a.ffi) ffi += ffi_of[i] = count(*a.ffi);
  }
  std::map<topo::TopologyKind, std::uint64_t> fold_pairs;
  for (const auto& [kind, uses] : pipe->folds) {
    for (const FoldUse& u : uses) {
      fold_pairs[kind] += (u.ffi ? ffi_of : nfi_of)[u.artifact].pairs;
    }
  }

  // ------------------------------------------------------------ probes
  const topo::Rank p_max =
      *std::max_element(s.proc_counts.begin(), s.proc_counts.end());
  const core::AcdInstance<2>& inst = *pipe->first_instance;
  StoreProbe store_probe;
  {
    Scope probes(rec, "probes", w.name);
    const fmm::Partition part(inst.particles().size(), p_max);
    if (!s.near_field) {
      Hist h = [&] {
        Scope span(rec, "fmm.nfi.histogram", "probe r=1");
        return fmm::nfi_histogram_owners<2>(inst.particles(), inst.grid(),
                                            part.owner_table(), p_max, 1,
                                            s.norm, nullptr);
      }();
      {
        Scope span(rec, "core.rank_pair.seal", "nfi probe");
        h.seal();
      }
      nfi += count(h);
    }
    if (!s.far_field) {
      fmm::FfiHistograms h = [&] {
        Scope span(rec, "fmm.ffi.histogram", "probe");
        return fmm::ffi_histograms<2>(inst.tree(), part);
      }();
      {
        Scope span(rec, "core.rank_pair.seal", "ffi probe");
        h.interpolation.seal();
        h.interaction.seal();
      }
      ffi += count(h);
    }
    {
      Scope span(rec, "probe.ffi_histograms.workload_p");
      (void)fmm::ffi_histograms<2>(inst.tree(), part);
    }
    {
      Scope span(rec, "probe.ffi_histograms.p1024");
      (void)fmm::ffi_histograms<2>(
          inst.tree(),
          fmm::Partition(inst.particles().size(), kDenseProbeProcs));
    }

    // Folds onto every topology the workload does not evaluate, ranking
    // mesh/torus processors by the artifact's particle curve.
    for (const topo::TopologyKind kind : topo::kAllTopologies) {
      if (pipe->folds.count(kind) != 0) continue;
      const std::string fold = "topology.fold." + kind_name(kind);
      for (std::size_t i = 0; i < pipe->artifacts.size(); ++i) {
        const Artifact& a = pipe->artifacts[i];
        const auto ranking = make_curve<2>(s.particle_curves[a.curve]);
        const auto net = topo::make_topology<2>(kind, a.procs, ranking.get());
        if (a.nfi) {
          Scope span(rec, fold, "nfi probe");
          (void)net->fold(a.nfi->view());
          fold_pairs[kind] += nfi_of[i].pairs;
        }
        if (a.ffi) {
          Scope span(rec, fold, "ffi probe");
          (void)fmm::ffi_fold(*a.ffi, *net);
          fold_pairs[kind] += ffi_of[i].pairs;
        }
      }
    }

    // The merge and store probes take the first distribution's artifacts
    // (every curve and p), which bounds their cost on the paper grids.
    std::vector<const Artifact*> first_dist;
    for (const Artifact& a : pipe->artifacts) {
      if (a.dist == 0) first_dist.push_back(&a);
    }

    // operator+= of every same-p histogram into one running total.
    for (const topo::Rank p : s.proc_counts) {
      Hist total(p);
      Scope span(rec, "core.rank_pair.merge", "p=" + std::to_string(p));
      for (const Artifact* ap : first_dist) {
        const Artifact& a = *ap;
        if (a.procs != p) continue;
        if (a.nfi) total += *a.nfi;
        if (a.ffi) {
          total += a.ffi->interpolation;
          total += a.ffi->interaction;
        }
      }
      total.seal();
    }

    store_probe =
        probe_store(first_dist, cfg.work_dir + "/trace-store", rec);
  }
  const double pipe_s = rec.duration_s(pipe_root);
  std::map<std::string, double> self = rec.self_s_by_name(pipe_root);
  double layer_self_s = 0.0;
  for (const auto& [name, secs] : self) layer_self_s += secs;
  const auto pipe_total = [&](const std::string& name) {
    return rec.total_s(name, pipe_root);
  };
  const double particles = static_cast<double>(s.particles);
  const double sample_ns = pipe_total("distribution.sample") * 1e9 /
                           (particles * static_cast<double>(pipe->samples));
  const double sort_ns = pipe_total("sfc.sort_by_curve") * 1e9 /
                         (particles * static_cast<double>(pipe->instances));
  const double instance_ns = pipe_total("fmm.instance") * 1e9 /
                             (particles * static_cast<double>(pipe->instances));
  const double instance_mb = pipe->instance_bytes / kMiB;
  const double make_s = pipe_total("topology.make");
  pipe.reset();  // free the histograms before the full sweeps

  PoolProbe pool_probe = probe_pool(threads, rec);

  // ------------------------------------------------------- run_study
  double serial_s = 0.0;
  core::SweepStats sweep;
  {
    Scope span(rec, "core.sweep.serial", w.name);
    const double t0 = now_s();
    const core::StudyResult r = core::run_study(s, core::SweepOptions{});
    serial_s = now_s() - t0;
    sweep = r.sweep;
    check(cell_bits(r));
  }
  double threaded_s = 0.0, threaded_cpu = 0.0;
  {
    util::ThreadPool pool(threads);
    core::SweepOptions options;
    options.pool = &pool;
    Scope span(rec, "core.sweep.threaded", w.name);
    const double c0 = process_cpu_s();
    const double t0 = now_s();
    const core::StudyResult r = core::run_study(s, options);
    threaded_s = now_s() - t0;
    threaded_cpu = process_cpu_s() - c0;
    check(cell_bits(r));
  }
  attempted += store_probe.stats.hits + store_probe.mismatched;
  failed += store_probe.mismatched;

  // ------------------------------------------------------- metrics
  const double nfi_s = rec.total_s("fmm.nfi.histogram");
  const double ffi_s = rec.total_s("fmm.ffi.histogram");
  const auto per = [](double num, double den) {
    return den > 0.0 ? num / den : 0.0;
  };
  std::vector<Metric> m = {
      {"distribution.sample_ns_per_particle", sample_ns, "ns"},
      {"sfc.sort_by_curve_ns_per_particle", sort_ns, "ns"},
      {"fmm.instance_ns_per_particle", instance_ns, "ns"},
      {"fmm.instance_mb", instance_mb, "MB"},
      {"nfi.histogram_s", nfi_s, "s"},
      {"nfi.events", static_cast<double>(nfi.events), "count"},
      {"nfi.distinct_pairs", static_cast<double>(nfi.pairs), "count"},
      {"nfi.ns_per_event", per(nfi_s * 1e9, static_cast<double>(nfi.events)),
       "ns"},
      {"ffi.histogram_s", ffi_s, "s"},
      {"ffi.events", static_cast<double>(ffi.events), "count"},
      {"ffi.distinct_pairs", static_cast<double>(ffi.pairs), "count"},
      {"ffi.ns_per_event", per(ffi_s * 1e9, static_cast<double>(ffi.events)),
       "ns"},
      {"ffi.histogram_mb", ffi.bytes / kMiB, "MB"},
      {"rank_pair.sparse_over_dense",
       per(rec.total_s("probe.ffi_histograms.workload_p"),
           rec.total_s("probe.ffi_histograms.p1024")),
       "ratio"},
      {"rank_pair.seal_s", rec.total_s("core.rank_pair.seal"), "s"},
      {"rank_pair.merge_s", rec.total_s("core.rank_pair.merge"), "s"},
      {"rank_pair.pairs_per_event",
       per(static_cast<double>(nfi.pairs + ffi.pairs),
           static_cast<double>(nfi.events + ffi.events)),
       "ratio"},
  };
  for (const topo::TopologyKind kind : topo::kAllTopologies) {
    const std::string name = kind_name(kind);
    m.push_back({"topology.fold_ns_per_pair." + name,
                 per(rec.total_s("topology.fold." + name) * 1e9,
                     static_cast<double>(fold_pairs[kind])),
                 "ns"});
  }
  m.push_back({"topology.make_s", make_s, "s"});
  for (unsigned i = 0; i < core::kSweepStageCount; ++i) {
    const auto stage = static_cast<core::SweepStage>(i);
    if (stage == core::SweepStage::kDelta) continue;  // dynamics only
    const std::string name(core::sweep_stage_name(stage));
    m.push_back({"sweep.builds." + name,
                 static_cast<double>(sweep.stage(stage).misses), "count"});
    m.push_back({"sweep.hits." + name,
                 static_cast<double>(sweep.stage(stage).hits), "count"});
  }
  const core::ArtifactStore::Stats& st = store_probe.stats;
  const double save_s = rec.total_s("core.artifact_store.save");
  const double load_s = rec.total_s("core.artifact_store.load");
  m.insert(
      m.end(),
      {
          {"sweep.peak_mb", static_cast<double>(sweep.peak_bytes) / kMiB, "MB"},
          {"sweep.evictions", static_cast<double>(sweep.evictions), "count"},
          {"sweep.engine_s", serial_s - layer_self_s, "s"},
          {"store.open_s", rec.total_s("core.artifact_store.open"), "s"},
          {"store.save_mb_per_s",
           per(static_cast<double>(st.spilled_bytes) / kMiB, save_s), "MB/s"},
          {"store.load_mb_per_s",
           per(static_cast<double>(st.read_bytes) / kMiB, load_s), "MB/s"},
          {"store.written_mb", static_cast<double>(st.spilled_bytes) / kMiB,
           "MB"},
          {"store.read_mb", static_cast<double>(st.read_bytes) / kMiB, "MB"},
          {"store.hits", static_cast<double>(st.hits), "count"},
          {"store.misses", static_cast<double>(st.misses), "count"},
          {"store.corrupt", static_cast<double>(st.corrupt), "count"},
          {"pool.queue_wait_us", median(pool_probe.queue_wait_us), "us"},
          {"pool.latch_wake_us", median(pool_probe.latch_wake_us), "us"},
          {"pool.utilization",
           per(threaded_cpu, threaded_s * static_cast<double>(threads)),
           "ratio"},
          {"pool.scaling_efficiency",
           per(serial_s, threaded_s * static_cast<double>(threads)), "ratio"},
          {"trace.coverage", per(layer_self_s, pipe_s), "ratio"},
          {"trace.overhead_frac", per(pipe_s, untraced_s) - 1.0, "ratio"},
          {"error_rate",
           per(static_cast<double>(failed), static_cast<double>(attempted)),
           "ratio"},
      });

  const std::string trace_file = cfg.work_dir + "/trace-" + w.name + "-" +
                                 std::to_string(s.seed) + ".json";
  std::ofstream(trace_file) << rec.chrome_trace_json();

  JsonObject self_json;
  for (const auto& [name, secs] : self) self_json.add(name, secs);
  JsonObject detail;
  detail.add("workload", w.name)
      .add("seed", static_cast<std::uint64_t>(s.seed))
      .add("scale", cfg.scale)
      .add("trace", std::uint64_t{1})
      .add("threads", static_cast<std::uint64_t>(threads))
      .add_raw("host", host_fingerprint(cfg.source_hash))
      .add("untraced_pipeline_s", untraced_s)
      .add("traced_pipeline_s", pipe_s)
      .add_raw("pipeline_self_s", self_json.str())
      .add("serial_sweep_s", serial_s)
      .add("threaded_sweep_s", threaded_s)
      .add("pool.queue_wait_us", summarize(pool_probe.queue_wait_us))
      .add("pool.latch_wake_us", summarize(pool_probe.latch_wake_us))
      .add("chrome_trace", trace_file);
  emit(cfg,
       "result-" + w.name + "-" + std::to_string(s.seed) + "-trace1.json",
       JsonObject().add_raw("detail", detail.str()).str(),
       result_line(attempted, failed, m));
  return 0;
}

}  // namespace perfbench
