#include "gossip/codec.hpp"

#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "version/version_id.hpp"

namespace updp2p::gossip {
namespace {

using common::PeerId;
using common::Rng;

version::VersionedValue sample_value(std::uint64_t seed = 1) {
  version::VersionedValue value;
  value.key = "calendar/fri-10am";
  value.payload = "standup @ 10:30";
  version::VersionIdFactory factory(PeerId(3), Rng(seed));
  value.id = factory.mint(12.5);
  value.history.observe(PeerId(3), 7);
  value.history.observe(PeerId(900), 2);
  value.tombstone = false;
  value.written_at = 12.5;
  return value;
}

TEST(Codec, VarintRoundTrip) {
  for (const std::uint64_t value :
       {0ULL, 1ULL, 127ULL, 128ULL, 300ULL, 16'383ULL, 16'384ULL,
        0xFFFFFFFFULL, ~0ULL}) {
    WireBytes out;
    put_varint(out, value);
    std::size_t offset = 0;
    const auto back = get_varint(out, offset);
    ASSERT_TRUE(back.has_value()) << value;
    EXPECT_EQ(*back, value);
    EXPECT_EQ(offset, out.size());
  }
}

TEST(Codec, VarintRejectsTruncation) {
  WireBytes out;
  put_varint(out, ~0ULL);
  out.pop_back();
  std::size_t offset = 0;
  EXPECT_FALSE(get_varint(out, offset).has_value());
}

TEST(Codec, PushRoundTrip) {
  PushMessage push;
  push.value = sample_value();
  push.flooding_list = {PeerId(1), PeerId(42), PeerId(65'000)};
  push.round = 5;
  const auto bytes = encode(GossipPayload{push});
  const auto decoded = decode(bytes);
  ASSERT_TRUE(decoded.has_value());
  const auto* back = std::get_if<PushMessage>(&*decoded);
  ASSERT_NE(back, nullptr);
  EXPECT_EQ(back->value, push.value);
  EXPECT_EQ(back->flooding_list, push.flooding_list);
  EXPECT_EQ(back->round, 5u);
}

TEST(Codec, PushWithTombstoneRoundTrip) {
  PushMessage push;
  version::VersionedValue tombstone = sample_value();
  tombstone.tombstone = true;
  tombstone.payload.clear();
  push.value = std::move(tombstone);
  const auto decoded = decode(encode(GossipPayload{push}));
  ASSERT_TRUE(decoded.has_value());
  EXPECT_TRUE(std::get<PushMessage>(*decoded).value->tombstone);
}

TEST(Codec, PullRequestRoundTrip) {
  PullRequest request;
  request.summary.observe(PeerId(1), 10);
  request.summary.observe(PeerId(2), 20);
  version::VersionIdFactory factory(PeerId(5), Rng(8));
  request.have.push_back(factory.mint(1.0));
  request.have.push_back(factory.mint(2.0));
  request.store_digest = common::Digest128{0x1234, 0x5678};
  const auto decoded = decode(encode(GossipPayload{request}));
  ASSERT_TRUE(decoded.has_value());
  const auto& back = std::get<PullRequest>(*decoded);
  EXPECT_EQ(back.summary, request.summary);
  EXPECT_EQ(back.have, request.have);
  EXPECT_EQ(back.store_digest, request.store_digest);
}

TEST(Codec, EmptyPullRequestRoundTrip) {
  const auto decoded = decode(encode(GossipPayload{PullRequest{}}));
  ASSERT_TRUE(decoded.has_value());
  EXPECT_TRUE(std::get<PullRequest>(*decoded).summary.empty());
}

TEST(Codec, PullResponseRoundTrip) {
  PullResponse response;
  response.summary.observe(PeerId(7), 3);
  response.confident = false;
  response.missing.push_back(sample_value(1));
  response.missing.push_back(sample_value(2));
  const auto decoded = decode(encode(GossipPayload{response}));
  ASSERT_TRUE(decoded.has_value());
  const auto& back = std::get<PullResponse>(*decoded);
  EXPECT_EQ(back.summary, response.summary);
  EXPECT_FALSE(back.confident);
  ASSERT_EQ(back.missing.size(), 2u);
  EXPECT_EQ(back.missing[0], response.missing[0]);
  EXPECT_EQ(back.missing[1], response.missing[1]);
}

TEST(Codec, AckRoundTrip) {
  version::VersionIdFactory factory(PeerId(9), Rng(4));
  AckMessage ack{factory.mint(1.0)};
  const auto decoded = decode(encode(GossipPayload{ack}));
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(std::get<AckMessage>(*decoded).acked, ack.acked);
}

TEST(Codec, QueryRequestRoundTrip) {
  QueryRequest request{"catalogue/item-7", 123'456'789};
  const auto decoded = decode(encode(GossipPayload{request}));
  ASSERT_TRUE(decoded.has_value());
  const auto& back = std::get<QueryRequest>(*decoded);
  EXPECT_EQ(back.key, request.key);
  EXPECT_EQ(back.nonce, request.nonce);
}

TEST(Codec, QueryReplyRoundTrip) {
  QueryReply reply;
  reply.key = "doc";
  reply.nonce = 42;
  reply.confident = false;
  reply.versions.push_back(sample_value(5));
  reply.versions.push_back(sample_value(6));
  const auto decoded = decode(encode(GossipPayload{reply}));
  ASSERT_TRUE(decoded.has_value());
  const auto& back = std::get<QueryReply>(*decoded);
  EXPECT_EQ(back.key, "doc");
  EXPECT_EQ(back.nonce, 42u);
  EXPECT_FALSE(back.confident);
  ASSERT_EQ(back.versions.size(), 2u);
  EXPECT_EQ(back.versions[0], reply.versions[0]);
}

TEST(Codec, EmptyQueryReplyRoundTrip) {
  QueryReply reply;
  reply.key = "missing";
  reply.nonce = 1;
  const auto decoded = decode(encode(GossipPayload{reply}));
  ASSERT_TRUE(decoded.has_value());
  EXPECT_TRUE(std::get<QueryReply>(*decoded).versions.empty());
}

TEST(Codec, RejectsOutOfRangePeerIds) {
  // Decoded peer ids index population-sized dense arrays; ids at or above
  // kMaxWirePeerId must be rejected before they can command huge resizes.
  PushMessage push;
  push.value = sample_value();
  push.flooding_list = {PeerId(static_cast<std::uint32_t>(kMaxWirePeerId))};
  EXPECT_FALSE(decode(encode(GossipPayload{push})).has_value());

  PullRequest request;
  request.summary.observe(PeerId(static_cast<std::uint32_t>(kMaxWirePeerId)),
                          1);
  EXPECT_FALSE(decode(encode(GossipPayload{request})).has_value());

  PushMessage in_range;
  in_range.value = sample_value();
  in_range.flooding_list = {
      PeerId(static_cast<std::uint32_t>(kMaxWirePeerId - 1))};
  EXPECT_TRUE(decode(encode(GossipPayload{in_range})).has_value());
}

TEST(Codec, HostileHistoryOrderFoldsToCanonicalVector) {
  // Encoders write history entries in ascending peer order, but a frame is
  // hostile input: descending ids, a repeated id and a zero counter must
  // decode to the max-per-peer vector and re-encode ascending.
  version::VersionedValue value = sample_value();
  value.history = {};
  PushMessage push;
  push.value = value;
  push.round = 3;
  const WireBytes empty_history = encode(GossipPayload{push});
  // Offset of the history's entry count: header, key, payload, id digest.
  const std::size_t at =
      4 + 1 + value.key.size() + 1 + value.payload.size() + 16;
  ASSERT_EQ(empty_history[at], std::byte{0});
  const auto with_history = [&](std::initializer_list<std::uint64_t> fields) {
    WireBytes frame(empty_history.begin(),
                    empty_history.begin() + static_cast<std::ptrdiff_t>(at));
    put_varint(frame, fields.size() / 2);
    for (const std::uint64_t field : fields) put_varint(frame, field);
    frame.insert(frame.end(),
                 empty_history.begin() + static_cast<std::ptrdiff_t>(at) + 1,
                 empty_history.end());
    return frame;
  };

  const WireBytes hostile =
      with_history({900, 2, 300, 5, 900, 7, 40, 0, 3, 1, 300, 4});
  const auto decoded = decode(hostile);
  ASSERT_TRUE(decoded.has_value());
  const auto* back = std::get_if<PushMessage>(&*decoded);
  ASSERT_NE(back, nullptr);

  version::VersionVector expected;
  expected.observe(PeerId(3), 1);
  expected.observe(PeerId(300), 5);
  expected.observe(PeerId(900), 7);
  EXPECT_EQ(back->value->history, expected);
  EXPECT_EQ(back->value->history.to_string(), "{3:1, 300:5, 900:7}");
  EXPECT_EQ(encode(*decoded), with_history({3, 1, 300, 5, 900, 7}));
}

TEST(Codec, RejectsBadMagic) {
  auto bytes = encode(GossipPayload{PullRequest{}});
  bytes[0] = std::byte{0x00};
  EXPECT_FALSE(decode(bytes).has_value());
}

TEST(Codec, RejectsWrongVersion) {
  auto bytes = encode(GossipPayload{PullRequest{}});
  bytes[2] = std::byte{99};
  EXPECT_FALSE(decode(bytes).has_value());
}

TEST(Codec, RejectsUnknownKind) {
  auto bytes = encode(GossipPayload{PullRequest{}});
  bytes[3] = std::byte{77};
  EXPECT_FALSE(decode(bytes).has_value());
}

TEST(Codec, RejectsEmptyAndTinyInput) {
  EXPECT_FALSE(decode({}).has_value());
  const WireBytes tiny{std::byte{0xD5}, std::byte{0x2B}};
  EXPECT_FALSE(decode(tiny).has_value());
}

TEST(Codec, RejectsEveryTruncation) {
  PushMessage push;
  push.value = sample_value();
  push.flooding_list = {PeerId(1), PeerId(2)};
  push.round = 3;
  const auto bytes = encode(GossipPayload{push});
  for (std::size_t cut = 0; cut < bytes.size(); ++cut) {
    const std::span<const std::byte> prefix(bytes.data(), cut);
    EXPECT_FALSE(decode(prefix).has_value()) << "cut at " << cut;
  }
}

TEST(Codec, SurvivesRandomGarbage) {
  Rng rng(1234);
  for (int trial = 0; trial < 2'000; ++trial) {
    WireBytes garbage(rng.uniform_below(64));
    for (auto& byte : garbage) {
      byte = static_cast<std::byte>(rng.uniform_below(256));
    }
    // Must not crash; decoding may or may not succeed (random bytes can
    // accidentally be a valid tiny frame).
    (void)decode(garbage);
  }
}

TEST(Codec, SurvivesRandomCorruptionOfValidFrames) {
  PushMessage push;
  push.value = sample_value();
  push.flooding_list = {PeerId(1), PeerId(2), PeerId(3)};
  const auto bytes = encode(GossipPayload{push});
  Rng rng(777);
  for (int trial = 0; trial < 2'000; ++trial) {
    auto corrupted = bytes;
    const std::size_t index = rng.pick_index(corrupted.size());
    corrupted[index] = static_cast<std::byte>(rng.uniform_below(256));
    (void)decode(corrupted);  // must not crash / hang
  }
}

TEST(Codec, EncodedSizeIsCompact) {
  // A push with a 100-entry list stays close to the analytical wire model.
  PushMessage push;
  push.value = sample_value();
  for (std::uint32_t i = 0; i < 100; ++i) {
    push.flooding_list.insert(PeerId(i));
  }
  const auto bytes = encode(GossipPayload{push});
  // value (~70 B) + one chunk header + 100 delta varints (all gap 1, so one
  // byte each) + framing: well under 400 bytes.
  EXPECT_LT(bytes.size(), 400u);
}

// Property: encode∘decode == identity over randomized payloads.
class CodecProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(CodecProperty, RandomPayloadRoundTrip) {
  Rng rng(GetParam());
  for (int trial = 0; trial < 100; ++trial) {
    PushMessage push;
    version::VersionedValue value;
    value.key = "k" + std::to_string(rng.uniform_below(1000));
    value.payload.assign(rng.uniform_below(200), 'x');
    version::VersionIdFactory factory(
        PeerId(static_cast<std::uint32_t>(rng.uniform_below(100))),
        rng.split());
    value.id = factory.mint(rng.uniform01());
    const auto entries = rng.uniform_below(10);
    for (std::uint64_t i = 0; i < entries; ++i) {
      value.history.observe(
          PeerId(static_cast<std::uint32_t>(rng.uniform_below(1'000'000))),
          rng.uniform_below(1'000'000) + 1);
    }
    value.tombstone = rng.bernoulli(0.2);
    value.written_at = rng.uniform01() * 1e6;
    push.value = std::move(value);
    push.round = static_cast<common::Round>(rng.uniform_below(100));
    const auto peers = rng.uniform_below(50);
    for (std::uint64_t i = 0; i < peers; ++i) {
      push.flooding_list.insert(
          PeerId(static_cast<std::uint32_t>(rng.uniform_below(1'000'000))));
    }
    const auto decoded = decode(encode(GossipPayload{push}));
    ASSERT_TRUE(decoded.has_value());
    const auto& back = std::get<PushMessage>(*decoded);
    EXPECT_EQ(back.value, push.value);
    EXPECT_EQ(back.flooding_list, push.flooding_list);
    EXPECT_EQ(back.round, push.round);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CodecProperty,
                         ::testing::Values(1, 2, 3, 42, 1000));

// --- zero-copy wire path ----------------------------------------------------

GossipPayload sample_push(std::uint64_t seed = 1) {
  PushMessage push;
  push.value = sample_value(seed);
  push.flooding_list = {PeerId(1), PeerId(42), PeerId(65'000)};
  push.round = 5;
  return GossipPayload{std::move(push)};
}

TEST(Codec, EncodedSizeMatchesEncodeExactly) {
  // The invariant OutboundMessage::size_bytes rests on, across payload
  // shapes: empty lists, multi-chunk lists, bitmap-dense lists, every kind.
  std::vector<GossipPayload> payloads;
  payloads.push_back(sample_push());
  payloads.emplace_back(PushMessage{});  // all-default fields
  PushMessage dense;
  dense.value = sample_value(2);
  for (std::uint32_t i = 0; i < 10'000; ++i) {
    dense.flooding_list.insert(PeerId(65'536 + i));  // bitmap chunk
  }
  payloads.emplace_back(std::move(dense));
  PullRequest request;
  request.summary.observe(PeerId(1), 10);
  request.have.push_back(sample_value(3).id);
  payloads.emplace_back(std::move(request));
  PullResponse response;
  response.missing.push_back(sample_value(4));
  payloads.emplace_back(std::move(response));
  payloads.emplace_back(AckMessage{sample_value(5).id});
  payloads.emplace_back(QueryRequest{"k", 1 << 20});
  QueryReply reply;
  reply.key = "k";
  reply.nonce = 7;
  reply.versions.push_back(sample_value(6));
  payloads.emplace_back(std::move(reply));

  for (const GossipPayload& payload : payloads) {
    EXPECT_EQ(encoded_size(payload), encode(payload).size())
        << payload_kind(payload);
  }
}

TEST(Codec, EncodeIntoReusesWarmCapacity) {
  const GossipPayload payload = sample_push();
  const WireBytes reference = encode(payload);
  WireBytes warm;
  encode_into(payload, warm);
  EXPECT_EQ(warm, reference);
  const std::byte* data = warm.data();
  const std::size_t capacity = warm.capacity();
  encode_into(payload, warm);  // second fill must reuse the allocation
  EXPECT_EQ(warm, reference);
  EXPECT_EQ(warm.data(), data);
  EXPECT_EQ(warm.capacity(), capacity);
}

TEST(Codec, ProbeReadsKindAndIdentityWithoutFullDecode) {
  const GossipPayload push = sample_push();
  const auto push_probe = probe_frame(encode(push));
  ASSERT_TRUE(push_probe.has_value());
  EXPECT_EQ(push_probe->kind, WireKind::kPush);
  EXPECT_EQ(push_probe->version, std::get<PushMessage>(push).value->id);

  const AckMessage ack{sample_value(9).id};
  const auto ack_probe = probe_frame(encode(GossipPayload{ack}));
  ASSERT_TRUE(ack_probe.has_value());
  EXPECT_EQ(ack_probe->kind, WireKind::kAck);
  EXPECT_EQ(ack_probe->version, ack.acked);

  const auto query_probe =
      probe_frame(encode(GossipPayload{QueryRequest{"k", 99}}));
  ASSERT_TRUE(query_probe.has_value());
  EXPECT_EQ(query_probe->kind, WireKind::kQueryRequest);
  EXPECT_EQ(query_probe->nonce, 99u);

  EXPECT_FALSE(probe_frame({}).has_value());
}

TEST(Codec, ProbeSucceedsOnPushWithGarbageTail) {
  // The trust contract in one frame: the probed prefix is intact, the
  // flooding list is garbage. The probe must accept (duplicate
  // classification never reads the tail); the full decode must reject.
  WireBytes frame = encode(sample_push());
  frame.back() = std::byte{0xFF};  // corrupt the peerset chunk count region
  frame.push_back(std::byte{0xEE});
  const auto probe = probe_frame(frame);
  ASSERT_TRUE(probe.has_value());
  EXPECT_EQ(probe->kind, WireKind::kPush);
  EXPECT_EQ(probe->version, std::get<PushMessage>(sample_push()).value->id);
  EXPECT_FALSE(decode(frame).has_value());
}

TEST(Codec, DecodePushIntoStreamsTheListAndClearsOnFailure) {
  const GossipPayload payload = sample_push();
  const WireBytes frame = encode(payload);
  common::ChunkedPeerSet list;
  list.insert(PeerId(7777));  // stale scratch contents must vanish
  const auto push = decode_push_into(frame, list);
  ASSERT_TRUE(push.has_value());
  const auto& expected = std::get<PushMessage>(payload);
  EXPECT_EQ(push->value, *expected.value);
  EXPECT_EQ(push->round, expected.round);
  EXPECT_EQ(list, expected.flooding_list.set());

  // Non-push frames and malformed frames both reject with a cleared list.
  const auto not_push =
      decode_push_into(encode(GossipPayload{PullRequest{}}), list);
  EXPECT_FALSE(not_push.has_value());
  EXPECT_TRUE(list.empty());
  WireBytes truncated = frame;
  truncated.pop_back();
  list.insert(PeerId(8888));
  EXPECT_FALSE(decode_push_into(truncated, list).has_value());
  EXPECT_TRUE(list.empty());
}

}  // namespace
}  // namespace updp2p::gossip
