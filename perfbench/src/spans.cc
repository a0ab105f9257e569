#include "spans.h"

#include <algorithm>
#include <sstream>

#include "common/check.h"

namespace perfbench {

Spans::Spans() : origin_(std::chrono::steady_clock::now()) {}

int64_t Spans::NowNs() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - origin_)
      .count();
}

int Spans::Begin(std::string name, uint64_t point_id) {
  Span span;
  span.name = std::move(name);
  span.parent = open_.empty() ? -1 : open_.back();
  // Children inherit the point id of the span that caused them.
  span.point_id = point_id != 0 || span.parent < 0
                      ? point_id
                      : spans_[static_cast<size_t>(span.parent)].point_id;
  span.start_ns = NowNs();
  spans_.push_back(std::move(span));
  open_.push_back(static_cast<int>(spans_.size()) - 1);
  return open_.back();
}

void Spans::End(int index) {
  ORBIT_CHECK_MSG(!open_.empty() && open_.back() == index,
                  "spans must close innermost first");
  spans_[static_cast<size_t>(index)].end_ns = NowNs();
  open_.pop_back();
}

std::map<std::string, int64_t> Spans::SelfTimeByName() const {
  // Children of one parent never overlap (the recorder is a strict stack),
  // so the covered part is the sum of the children's durations.
  std::vector<int64_t> covered(spans_.size(), 0);
  for (const Span& s : spans_) {
    if (s.parent >= 0 && s.end_ns >= 0)
      covered[static_cast<size_t>(s.parent)] += s.end_ns - s.start_ns;
  }
  std::map<std::string, int64_t> self;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    if (s.end_ns < 0) continue;
    self[s.name] += std::max<int64_t>(0, s.end_ns - s.start_ns - covered[i]);
  }
  return self;
}

std::string Spans::ToJson() const {
  std::ostringstream os;
  os << "{\"spans\": [";
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    os << (i == 0 ? "\n" : ",\n") << "  {\"id\": " << i << ", \"name\": \""
       << s.name << "\", \"parent\": " << s.parent
       << ", \"point\": " << s.point_id << ", \"start_ns\": " << s.start_ns
       << ", \"end_ns\": " << s.end_ns << "}";
  }
  os << "\n]}\n";
  return os.str();
}

}  // namespace perfbench
