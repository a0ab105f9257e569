// In-memory host-time spans recorded by the benchmark around each call it
// makes into a layer. Spans of one point share a point id; a span's self
// time is its duration minus the part its children cover.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

class Spans {
 public:
  struct Span {
    std::string name;
    int parent = -1;       // index into spans(); -1 for a root
    uint64_t point_id = 0;
    int64_t start_ns = 0;  // host steady-clock ns since the recorder began
    int64_t end_ns = -1;   // -1 while open
  };

  Spans();

  // Opens a span under the innermost open span; returns its index.
  int Begin(std::string name, uint64_t point_id = 0);
  void End(int index);

  const std::vector<Span>& spans() const { return spans_; }
  // Total self time (ns) per span name over all closed spans.
  std::map<std::string, int64_t> SelfTimeByName() const;
  // The spans as one JSON document: {"spans": [{...}, ...]}.
  std::string ToJson() const;

 private:
  int64_t NowNs() const;

  std::chrono::steady_clock::time_point origin_;
  std::vector<Span> spans_;
  std::vector<int> open_;
};

// RAII span; a null `spans` (an untraced run) records nothing.
class ScopedSpan {
 public:
  ScopedSpan(Spans* spans, std::string name, uint64_t point_id = 0)
      : spans_(spans),
        index_(spans != nullptr ? spans->Begin(std::move(name), point_id)
                                : -1) {}
  ~ScopedSpan() {
    if (spans_ != nullptr) spans_->End(index_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Spans* spans_;
  int index_;
};

}  // namespace perfbench
