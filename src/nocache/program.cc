#include "nocache/program.h"

#include "proto/message.h"
#include "telemetry/sink.h"

namespace orbit::nocache {

rmt::IngressResult ForwardProgram::Ingress(sim::Packet& pkt,
                                           rmt::SwitchDevice& sw) {
  (void)sw;
  ++forwarded_;
  if (sink_ != nullptr && pkt.msg.op == proto::Op::kReadRep)
    sink_->Record(hist_value_, static_cast<int64_t>(pkt.msg.value.size()));
  return rmt::IngressResult::ToAddr(pkt.dst);
}

void ForwardProgram::OnSinkAttached(telemetry::Sink& sink) {
  sink_ = &sink;
  hist_value_ = sink.Hist("value.bytes", "bytes");
}

}  // namespace orbit::nocache
