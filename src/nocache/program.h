// The NoCache baseline: a plain L3 forwarder with no caching logic, the
// paper's lower-bound comparison scheme.
#pragma once

#include <cstdint>

#include "rmt/switch.h"

namespace orbit::nocache {

class ForwardProgram : public rmt::SwitchProgram {
 public:
  rmt::IngressResult Ingress(sim::Packet& pkt, rmt::SwitchDevice& sw) override;
  std::string program_name() const override { return "nocache"; }
  // Telemetry: value sizes of forwarded read replies into the shared
  // "value.bytes" histogram (the no-cache reference distribution).
  void OnSinkAttached(telemetry::Sink& sink) override;

  uint64_t forwarded() const { return forwarded_; }

 private:
  uint64_t forwarded_ = 0;
  telemetry::Sink* sink_ = nullptr;
  uint32_t hist_value_ = 0;
};

}  // namespace orbit::nocache
