// In-memory span recorder for the benchmark's traced runs.
//
// A span is one call into a psd layer made by the benchmark itself: name,
// start, end (steady_clock ns since the recorder was made), the span that
// was open when it began (its parent), and the request it belongs to.
// Spans are appended to a vector and written out once, at the end of the
// run, as tab-separated lines
//
//   index  parent  request  name  start_ns  end_ns
//
// which perfbench/psdbench/spans.py rolls up into per-layer self times.
// A disabled recorder (the untraced replay) keeps nothing and costs one
// branch per call site.
#pragma once

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

namespace psdbench {

using Clock = std::chrono::steady_clock;

inline std::int64_t ns_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(b - a).count();
}

class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled), origin_(Clock::now()) {}

  [[nodiscard]] bool enabled() const { return enabled_; }

  /// Opens a span under the innermost open one; returns its index, or -1
  /// when disabled. `name` must be a string literal (stored by pointer).
  int begin(const char* name, std::int64_t request) {
    if (!enabled_) return -1;
    const int parent = open_.empty() ? -1 : open_.back();
    spans_.push_back({name, request, parent, now_ns(), -1});
    open_.push_back(static_cast<int>(spans_.size()) - 1);
    return open_.back();
  }

  void end(int index) {
    if (index < 0) return;
    spans_[static_cast<std::size_t>(index)].end_ns = now_ns();
    // Spans close in LIFO order; tolerate a mismatched close by unwinding
    // to it so one bad call site cannot corrupt every later parent link.
    while (!open_.empty()) {
      const int top = open_.back();
      open_.pop_back();
      if (top == index) break;
    }
  }

  /// Renames a span once its outcome is known (a θ lookup that turned out
  /// to be a solve, and of which kind).
  void rename(int index, const char* name) {
    if (index >= 0) spans_[static_cast<std::size_t>(index)].name = name;
  }

  /// Writes every closed span; returns false when the file cannot be
  /// written.
  bool write(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      if (s.end_ns < 0) continue;
      std::fprintf(f, "%zu\t%d\t%lld\t%s\t%lld\t%lld\n", i, s.parent,
                   static_cast<long long>(s.request), s.name,
                   static_cast<long long>(s.start_ns),
                   static_cast<long long>(s.end_ns));
    }
    return std::fclose(f) == 0;
  }

 private:
  struct Span {
    const char* name;
    std::int64_t request;
    int parent;
    std::int64_t start_ns;
    std::int64_t end_ns;
  };

  [[nodiscard]] std::int64_t now_ns() const {
    return ns_between(origin_, Clock::now());
  }

  bool enabled_;
  Clock::time_point origin_;
  std::vector<Span> spans_;
  std::vector<int> open_;
};

/// RAII span: opens on construction, closes on scope exit.
class Scope {
 public:
  Scope(Tracer& t, const char* name, std::int64_t request)
      : t_(t), index_(t.begin(name, request)) {}
  ~Scope() { t_.end(index_); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Tracer& t_;
  int index_;
};

}  // namespace psdbench
