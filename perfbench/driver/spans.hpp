// spans.hpp — the traced pass's in-memory span recorder.
//
// Spans are opened and closed by the benchmark around its calls into the
// library's layers (the library itself is not instrumented). They nest
// through an explicit open-span stack, stay in memory, and are written
// out once as a Chrome trace. Self time — a span's duration minus the
// part its children cover — is what trace.coverage sums.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

class SpanRecorder {
 public:
  struct Span {
    std::string name;
    std::string detail;
    std::uint64_t start_ns = 0;
    std::uint64_t end_ns = 0;
    int parent = -1;  ///< index into spans(), -1 for a root
    std::uint64_t duration_ns() const noexcept { return end_ns - start_ns; }
  };

  static std::uint64_t clock_ns() noexcept {
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
  }

  /// A disabled recorder records nothing; Scope then costs one branch.
  void set_enabled(bool on) noexcept { enabled_ = on; }

  /// RAII span: opens on construction, closes on destruction.
  class Scope {
   public:
    Scope(SpanRecorder& rec, std::string name, std::string detail = {})
        : rec_(rec), id_(rec.begin(std::move(name), std::move(detail))) {}
    ~Scope() { rec_.end(id_); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    int id() const noexcept { return id_; }

   private:
    SpanRecorder& rec_;
    int id_;
  };

  const std::vector<Span>& spans() const noexcept { return spans_; }

  /// Whether span `i` has `root` as an ancestor (or is `root`).
  bool under(int i, int root) const noexcept {
    for (; i >= 0; i = spans_[static_cast<std::size_t>(i)].parent) {
      if (i == root) return true;
    }
    return false;
  }

  /// Summed duration in seconds of the spans named `name` under `root`
  /// (-1 = anywhere).
  double total_s(const std::string& name, int root = -1) const {
    std::uint64_t ns = 0;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      if (spans_[i].name == name &&
          (root < 0 || under(static_cast<int>(i), root))) {
        ns += spans_[i].duration_ns();
      }
    }
    return static_cast<double>(ns) * 1e-9;
  }

  double duration_s(int id) const {
    return static_cast<double>(
               spans_[static_cast<std::size_t>(id)].duration_ns()) *
           1e-9;
  }

  /// Self time in seconds of every span strictly under `root`, summed by
  /// span name. Spans are recorded on one thread, so children never
  /// overlap and self time is duration minus the children's durations.
  std::map<std::string, double> self_s_by_name(int root) const {
    std::vector<std::uint64_t> child_ns(spans_.size(), 0);
    for (const Span& s : spans_) {
      if (s.parent >= 0) {
        child_ns[static_cast<std::size_t>(s.parent)] += s.duration_ns();
      }
    }
    std::map<std::string, double> self;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      if (static_cast<int>(i) == root || !under(static_cast<int>(i), root)) {
        continue;
      }
      self[spans_[i].name] +=
          static_cast<double>(spans_[i].duration_ns() - child_ns[i]) * 1e-9;
    }
    return self;
  }

  /// One Chrome trace JSON ("X" complete events, microseconds).
  std::string chrome_trace_json() const;

 private:
  int begin(std::string name, std::string detail) {
    if (!enabled_) return -1;
    const int parent = open_.empty() ? -1 : open_.back();
    spans_.push_back({std::move(name), std::move(detail), clock_ns(), 0,
                      parent});
    open_.push_back(static_cast<int>(spans_.size() - 1));
    return open_.back();
  }

  void end(int id) {
    if (id < 0) return;
    spans_[static_cast<std::size_t>(id)].end_ns = clock_ns();
    open_.pop_back();
  }

  bool enabled_ = false;
  std::vector<Span> spans_;
  std::vector<int> open_;
};

}  // namespace perfbench
