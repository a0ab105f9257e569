// Link drop-reason counters for the snapshot exporter.
//
// RegisterNetDropCounters sums every link's drops into three network-wide
// reason totals (net.drop.{queue_overflow,loss,link_down}); in multi-switch
// runs that hides *where* a hop lost packets, so RegisterLinkDropCounters
// walks the network's links in creation order and registers one counter
// per direction per drop reason, named
//
//   net.link.<idx>.<from>-><to>.drop.{queue_overflow,injected_loss,link_down}
//
// The index disambiguates nodes with identical names (all clients print as
// "client"); names come from Node::name() so leaf/spine hops are readable.
// Both are pull-based over Link::ChannelStats: registering costs nothing
// per packet.
#pragma once

#include "sim/network.h"
#include "telemetry/counters.h"
#include "telemetry/sink.h"

namespace orbit::telemetry {

void RegisterLinkDropCounters(Registry& reg, const sim::Network& net);
void RegisterNetDropCounters(Registry& reg, const sim::Network& net);

// Telemetry attachment for every link (both directions), in creation
// order. Interns per-direction sites `link.<idx>.<from>-><to>`, always-on
// queue-depth histograms `link.<idx>.<from>-><to>.queue_bytes`, and the
// shared hop-class latency histogram `hop.link.ns`. Call after the
// topology is fully wired — links created later are not instrumented.
void AttachLinkSink(Sink& sink, sim::Network& net);

}  // namespace orbit::telemetry
