#include "telemetry/flight.h"

#include <sstream>

namespace orbit::telemetry {

uint32_t FlightRecorder::Component(const std::string& name) {
  Ring ring;
  ring.name = name;
  ring.recs.resize(capacity_);
  rings_.push_back(std::move(ring));
  return static_cast<uint32_t>(rings_.size() - 1);
}

void FlightRecorder::TriggerDump(SimTime at, const std::string& reason) {
  if (dumps_.size() >= kMaxDumps) {
    ++suppressed_;
    return;
  }
  std::ostringstream os;
  os << "=== flight dump #" << dumps_.size() << " t=" << at
     << "ns reason: " << reason << " ===\n";
  for (const Ring& ring : rings_) {
    const uint64_t kept =
        ring.total < capacity_ ? ring.total : static_cast<uint64_t>(capacity_);
    os << "-- " << ring.name << " (last " << kept << " of " << ring.total
       << " events) --\n";
    // Oldest retained event first: the ring cursor is total % capacity.
    const uint64_t start = ring.total - kept;
    for (uint64_t i = 0; i < kept; ++i) {
      const Rec& rec = ring.recs[(start + i) % capacity_];
      os << "  t=" << rec.at << " " << rec.event << " a=" << rec.a
         << " b=" << rec.b << "\n";
    }
  }
  dumps_.push_back(os.str());
}

std::string FlightRecorder::DumpText() const {
  std::string out;
  for (const std::string& d : dumps_) out += d;
  if (suppressed_ > 0) {
    out += "=== " + std::to_string(suppressed_) +
           " further dump trigger(s) suppressed ===\n";
  }
  return out;
}

}  // namespace orbit::telemetry
