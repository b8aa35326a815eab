#include "timed_transport.hpp"

#include <variant>

#include "gossip/codec.hpp"
#include "trace.hpp"

namespace perfbench {

using namespace updp2p;

void FrameCapture::add(common::PeerId from, const net::DatagramBytes& bytes) {
  const auto probe = gossip::probe_frame(bytes);
  if (!probe) return;
  std::vector<Frame>* into = &others;
  if (probe->kind == gossip::WireKind::kPush) {
    into = &pushes;
  } else if (probe->kind == gossip::WireKind::kPullResponse) {
    if (pull_responses.size() >= cap_per_kind) return;
    const auto payload = gossip::decode(bytes);
    const auto* response =
        payload ? std::get_if<gossip::PullResponse>(&*payload) : nullptr;
    if (response == nullptr || response->missing.empty()) return;
    into = &pull_responses;
  }
  if (into->size() < cap_per_kind) into->push_back(Frame{from, bytes});
}

bool TimedTransport::send(common::PeerId to,
                          std::span<const std::byte> payload) {
  const Scope span(SpanName::kNetSend);
  return inner_.send(to, payload);
}

std::size_t TimedTransport::drain(std::vector<net::InboundDatagram>& out) {
  const std::size_t before = out.size();
  std::size_t drained = 0;
  {
    const Scope span(SpanName::kNetDrain);
    drained = inner_.drain(out);
  }
  ++counters_.drains;
  if (drained == 0) ++counters_.empty_drains;
  counters_.datagrams_drained += drained;
  if (capture_ != nullptr && !capture_->full()) {
    for (std::size_t i = before; i < out.size(); ++i) {
      capture_->add(out[i].from, out[i].bytes);
    }
  }
  return drained;
}

}  // namespace perfbench
