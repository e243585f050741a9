#include "support.hpp"

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <charconv>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <exception>
#include <fstream>
#include <mutex>
#include <stdexcept>
#include <thread>

#include "util/version.hpp"

namespace perfbench {

using sfc::core::Study;
using sfc::core::StudyResult;

// ------------------------------------------------------------- workloads

unsigned bench_threads() {
  cpu_set_t set;
  CPU_ZERO(&set);
  int cpus = 4;
  if (sched_getaffinity(0, sizeof(set), &set) == 0) cpus = CPU_COUNT(&set);
  return static_cast<unsigned>(std::clamp(cpus, 1, 4));
}

Workload make_workload(const std::string& name, std::uint64_t seed,
                       bool tiny) {
  using sfc::dist::kAllDistributions;
  using sfc::topo::TopologyKind;
  Workload w;
  w.name = name;
  Study& s = w.study;
  s.name = name;
  s.seed = seed;
  s.trials = 1;
  if (name == "ffi_paper") {
    // Table II's uniform block at paper defaults: FFI only, full curve
    // cross product. (All three distributions take ~6 s a sweep, too few
    // sweeps per run to be steady on a shared host.)
    s.particles = tiny ? 4000 : 250000;
    s.level = tiny ? 7 : 10;
    s.near_field = false;
    s.distributions = {sfc::dist::DistKind::kUniform};
    s.processor_curves = s.particle_curves;
    s.topologies = {TopologyKind::kTorus};
    s.proc_counts = {tiny ? 256u : 65536u};
    w.threads = bench_threads();
  } else if (name == "topo_sweep") {
    // Figure 6/7 shaped grid: paired curves over every topology and four
    // processor counts, all with dense histograms (p^2 <= 2^22).
    s.particles = tiny ? 3000 : 150000;
    s.level = tiny ? 7 : 10;
    s.radius = 2;
    s.distributions = {sfc::dist::DistKind::kUniform};
    s.topologies.assign(sfc::topo::kAllTopologies,
                        sfc::topo::kAllTopologies + 6);
    s.proc_counts = tiny ? std::vector<sfc::topo::Rank>{16, 64}
                         : std::vector<sfc::topo::Rank>{16, 64, 256, 1024};
    w.threads = bench_threads();
  } else if (name == "nfi_store_rerun") {
    // Table I at paper defaults, serial, over the persistent store.
    s.particles = tiny ? 4000 : 250000;
    s.level = tiny ? 7 : 10;
    s.radius = 1;
    s.far_field = false;
    s.distributions.assign(kAllDistributions, kAllDistributions + 3);
    s.processor_curves = s.particle_curves;
    s.topologies = {TopologyKind::kTorus};
    s.proc_counts = {tiny ? 256u : 65536u};
    w.threads = 1;
    w.store = true;
  } else {
    throw std::invalid_argument("unknown workload: " + name);
  }
  return w;
}

Study warmup_study(const Study& study) {
  Study s = study;
  s.name = study.name + "-warmup";
  s.particles = std::max<std::size_t>(64, study.particles / 32);
  s.level = study.level > 5 ? study.level - 2 : study.level;
  return s;
}

// ------------------------------------------------------------- oracle

std::vector<CellBits> cell_bits(const StudyResult& result) {
  std::vector<CellBits> bits;
  bits.reserve(result.cells.size());
  for (const auto& c : result.cells) {
    bits.emplace_back(std::bit_cast<std::uint64_t>(c.nfi_acd),
                      std::bit_cast<std::uint64_t>(c.ffi_acd));
  }
  return bits;
}

std::vector<CellBits> compute_oracle(const Study& study, unsigned threads) {
  StudyResult layout;  // only for StudyResult::index over the full grid
  layout.study = study;
  std::vector<CellBits> bits(study.cell_count());

  const std::size_t nd = study.distributions.size();
  const std::size_t nc = study.particle_curves.size();
  std::atomic<std::size_t> next{0};
  std::mutex error_mutex;
  std::exception_ptr error;

  const auto worker = [&] {
    for (std::size_t job = next++; job < nd * nc; job = next++) {
      const std::size_t d = job / nc;
      const std::size_t pc = job % nc;
      Study sub = study;
      sub.distributions = {study.distributions[d]};
      sub.particle_curves = {study.particle_curves[pc]};
      try {
        sfc::core::SweepOptions options;
        options.reuse = false;
        const StudyResult r = sfc::core::run_study(sub, options);
        const std::vector<CellBits> sub_bits = cell_bits(r);
        for (std::size_t pi = 0; pi < study.proc_counts.size(); ++pi) {
          for (std::size_t rc = 0; rc < study.processor_order_count(); ++rc) {
            for (std::size_t ti = 0; ti < study.topologies.size(); ++ti) {
              bits[layout.index(d, pc, pi, rc, ti)] =
                  sub_bits[r.index(0, 0, pi, rc, ti)];
            }
          }
        }
      } catch (...) {
        std::lock_guard<std::mutex> lock(error_mutex);
        if (!error) error = std::current_exception();
      }
    }
  };
  std::vector<std::thread> pool;
  for (unsigned t = 1; t < std::max(threads, 1u); ++t) pool.emplace_back(worker);
  worker();
  for (auto& t : pool) t.join();
  if (error) std::rethrow_exception(error);
  return bits;
}

void write_oracle(const std::string& path, const std::vector<CellBits>& bits) {
  std::ofstream out(path);
  out << "sfcacd-perfbench-oracle 1 " << bits.size() << "\n";
  char line[40];
  for (const auto& [nfi, ffi] : bits) {
    std::snprintf(line, sizeof line, "%016" PRIx64 " %016" PRIx64 "\n", nfi,
                  ffi);
    out << line;
  }
  if (!out) throw std::runtime_error("cannot write oracle " + path);
}

std::vector<CellBits> read_oracle(const std::string& path) {
  std::ifstream in(path);
  std::string magic;
  int version = 0;
  std::size_t n = 0;
  if (!(in >> magic >> version >> n) || magic != "sfcacd-perfbench-oracle" ||
      version != 1) {
    throw std::runtime_error("missing or malformed oracle " + path);
  }
  std::vector<CellBits> bits(n);
  for (auto& [nfi, ffi] : bits) {
    if (!(in >> std::hex >> nfi >> ffi)) {
      throw std::runtime_error("truncated oracle " + path);
    }
  }
  return bits;
}

std::size_t count_mismatches(const std::vector<CellBits>& got,
                             const std::vector<CellBits>& oracle) {
  if (got.size() != oracle.size()) return std::max(got.size(), oracle.size());
  std::size_t bad = 0;
  for (std::size_t i = 0; i < got.size(); ++i) bad += got[i] != oracle[i];
  return bad;
}

// ------------------------------------------------------------- probes

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double process_cpu_s() {
  rusage u{};
  getrusage(RUSAGE_SELF, &u);
  const auto secs = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return secs(u.ru_utime) + secs(u.ru_stime);
}

bool reset_peak_rss() {
  std::ofstream f("/proc/self/clear_refs");
  f << "5";
  f.flush();
  return static_cast<bool>(f);
}

double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;
    }
  }
  rusage u{};
  getrusage(RUSAGE_SELF, &u);
  return static_cast<double>(u.ru_maxrss) / 1024.0;
}

// ------------------------------------------------------------- statistics

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

Summary summarize(const std::vector<double>& v) {
  Summary s;
  s.samples = v.size();
  s.median = median(v);
  const std::size_t n = v.size();
  if (n < 11) return s;
  // Nearest rank k = ceil(q n / 100) leaves n - k samples beyond the
  // q-th percentile; the largest q with n - k >= 10.
  int q = static_cast<int>(100 * (n - 10) / n);
  while (q > 50) {
    const std::size_t k = (static_cast<std::size_t>(q) * n + 99) / 100;
    if (n - k >= 10) break;
    --q;
  }
  if (q <= 50) return s;
  std::vector<double> sorted = v;
  std::sort(sorted.begin(), sorted.end());
  s.percentile = q;
  s.percentile_value =
      sorted[(static_cast<std::size_t>(q) * n + 99) / 100 - 1];
  return s;
}

// ------------------------------------------------------------- JSON

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  const auto r = std::to_chars(buf, buf + sizeof buf, v);
  return std::string(buf, r.ptr);
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char esc[8];
      std::snprintf(esc, sizeof esc, "\\u%04x", c);
      out += esc;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

JsonObject& JsonObject::add(const std::string& key, double v) {
  return add_raw(key, json_number(v));
}
JsonObject& JsonObject::add(const std::string& key, std::uint64_t v) {
  return add_raw(key, std::to_string(v));
}
JsonObject& JsonObject::add(const std::string& key, bool v) {
  return add_raw(key, v ? "true" : "false");
}
JsonObject& JsonObject::add(const std::string& key, const std::string& v) {
  return add_raw(key, json_string(v));
}
JsonObject& JsonObject::add(const std::string& key, const char* v) {
  return add_raw(key, json_string(v));
}
JsonObject& JsonObject::add_raw(const std::string& key,
                                const std::string& json) {
  fields_.emplace_back(key, json);
  return *this;
}
JsonObject& JsonObject::add(const std::string& key, const Summary& s) {
  JsonObject o;
  o.add("median", s.median);
  if (s.percentile > 0) {
    std::string name = "p";
    name += std::to_string(s.percentile);
    o.add(name, s.percentile_value);
  }
  o.add("samples", static_cast<std::uint64_t>(s.samples));
  return add_raw(key, o.str());
}

std::string JsonObject::str() const {
  std::string out = "{";
  for (std::size_t i = 0; i < fields_.size(); ++i) {
    if (i > 0) out += ", ";
    out += json_string(fields_[i].first) + ": " + fields_[i].second;
  }
  return out + "}";
}

std::string result_line(std::uint64_t attempted, std::uint64_t failed,
                        const std::vector<Metric>& metrics) {
  JsonObject m;
  for (const Metric& metric : metrics) {
    m.add_raw(metric.name, JsonObject()
                               .add("value", metric.value)
                               .add("unit", metric.unit)
                               .str());
  }
  return JsonObject()
      .add("correct", failed == 0 && attempted > 0)
      .add("attempted", attempted)
      .add("failed", failed)
      .add_raw("metrics", m.str())
      .str();
}

std::string host_fingerprint(const std::string& source_hash) {
  cpu_set_t set;
  CPU_ZERO(&set);
  std::uint64_t cpus = 0;
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    cpus = static_cast<std::uint64_t>(CPU_COUNT(&set));
  }
  std::string model = "unknown";
  std::ifstream cpuinfo("/proc/cpuinfo");
  for (std::string line; std::getline(cpuinfo, line);) {
    if (line.rfind("model name", 0) == 0) {
      const std::size_t colon = line.find(':');
      if (colon != std::string::npos) model = line.substr(colon + 2);
      break;
    }
  }
  return JsonObject()
      .add("cpus", cpus)
      .add("cpu_model", model)
      .add("build_type", sfc::kBuildType)
      .add("simd", sfc::util::simd::isa_name(sfc::util::simd::active_isa()))
      .add("git_sha", sfc::kGitSha)
      .add("source_hash", source_hash)
      .add("compiler", sfc::kCompiler)
      .str();
}

}  // namespace perfbench
