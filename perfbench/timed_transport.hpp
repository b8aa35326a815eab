// A timing decorator over net::Transport, written in the benchmark: it
// forwards every call to the wrapped endpoint, records net.send /
// net.drain spans while tracing, always counts drains (empty or not) and
// datagrams, and can copy the frames it drains into a FrameCapture for the
// codec/node/store replays of the traced run. PeerRuntime takes the
// decorator as its Transport, so the runtime code path is unchanged.
#pragma once

#include <cstdint>
#include <vector>

#include "net/transport.hpp"

namespace perfbench {

/// Counts at the transport boundary, summed over every decorated endpoint.
struct NetCounters {
  std::uint64_t drains = 0;
  std::uint64_t empty_drains = 0;
  std::uint64_t datagrams_drained = 0;
};

/// Frames drained at the transport boundary, kept by kind (capped), in
/// arrival order, with their sender.
struct FrameCapture {
  struct Frame {
    updp2p::common::PeerId from;
    updp2p::net::DatagramBytes bytes;
  };
  std::size_t cap_per_kind = 4000;
  std::vector<Frame> pushes;
  std::vector<Frame> pull_responses;  ///< value-carrying responses only
  std::vector<Frame> others;          ///< acks, pull requests, queries

  void add(updp2p::common::PeerId from,
           const updp2p::net::DatagramBytes& bytes);
  [[nodiscard]] bool full() const noexcept {
    return pushes.size() >= cap_per_kind &&
           pull_responses.size() >= cap_per_kind &&
           others.size() >= cap_per_kind;
  }
};

class TimedTransport final : public updp2p::net::Transport {
 public:
  TimedTransport(updp2p::net::Transport& inner, NetCounters& counters)
      : inner_(inner), counters_(counters) {}

  /// Starts (non-null) or stops (nullptr) copying drained frames.
  void set_capture(FrameCapture* capture) noexcept { capture_ = capture; }

  [[nodiscard]] updp2p::common::PeerId self() const noexcept override {
    return inner_.self();
  }
  bool send(updp2p::common::PeerId to,
            std::span<const std::byte> payload) override;
  std::size_t drain(std::vector<updp2p::net::InboundDatagram>& out) override;
  void recycle(updp2p::net::DatagramBytes&& bytes) override {
    inner_.recycle(std::move(bytes));
  }
  void set_listening(bool listening) override {
    inner_.set_listening(listening);
  }
  [[nodiscard]] bool listening() const noexcept override {
    return inner_.listening();
  }
  [[nodiscard]] const updp2p::net::TransportStats& stats()
      const noexcept override {
    return inner_.stats();
  }

 private:
  updp2p::net::Transport& inner_;
  NetCounters& counters_;
  FrameCapture* capture_ = nullptr;
};

}  // namespace perfbench
