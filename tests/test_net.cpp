// The network ingestion front end: the CRC against a bytewise reference,
// wire codec round-trips for all four domains, malformed-frame handling
// (truncation at every header boundary, CRC corruption, oversized
// payloads), split-read reassembly and the bytes of its payload views, the
// client's partial writes and reply bound, the multi-tenant TCP/UDS server
// (auth, stream isolation, concurrent quota enforcement), and clean
// shutdown with in-flight frames (the TSan job runs this binary).
#include <gtest/gtest.h>

#include <pthread.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <csignal>
#include <cstdint>
#include <cstring>
#include <optional>
#include <random>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "wire_corpus.hpp"

#include "av/factory.hpp"
#include "config/monitor_loader.hpp"
#include "config/scenario.hpp"
#include "config/spec.hpp"
#include "ecg/factory.hpp"
#include "net/client.hpp"
#include "net/codec.hpp"
#include "net/server.hpp"
#include "net/wire.hpp"
#include "serve/domains.hpp"
#include "serve/monitor.hpp"
#include "tvnews/factory.hpp"
#include "video/factory.hpp"

namespace omg::net {
namespace {

// ------------------------------------------------------------------ wire ---

TEST(Wire, Crc32KnownVector) {
  const std::string text = "123456789";
  EXPECT_EQ(Crc32({reinterpret_cast<const std::uint8_t*>(text.data()),
                   text.size()}),
            0xCBF43926u);
  EXPECT_EQ(Crc32({}), 0u);
}

/// The bytewise table loop Crc32 must agree with.
std::uint32_t BytewiseCrc32(std::span<const std::uint8_t> bytes) {
  static const std::array<std::uint32_t, 256> table = [] {
    std::array<std::uint32_t, 256> built{};
    for (std::uint32_t i = 0; i < 256; ++i) {
      std::uint32_t crc = i;
      for (int bit = 0; bit < 8; ++bit) {
        crc = (crc >> 1) ^ ((crc & 1u) ? 0xEDB88320u : 0u);
      }
      built[i] = crc;
    }
    return built;
  }();
  std::uint32_t crc = 0xFFFFFFFFu;
  for (const std::uint8_t byte : bytes) {
    crc = (crc >> 8) ^ table[(crc ^ byte) & 0xFFu];
  }
  return crc ^ 0xFFFFFFFFu;
}

// Every length up to 64 covers each tail the 8-byte steps leave, random
// lengths up to 70 KB cover frame-sized inputs, and the 8 start offsets
// cover every alignment of the word loads.
TEST(Wire, Crc32MatchesTheBytewiseReference) {
  constexpr std::size_t kMaxLength = 70 * 1024;
  std::mt19937 rng(18);
  std::vector<std::uint8_t> buffer(kMaxLength + 8);
  for (std::uint8_t& byte : buffer) byte = static_cast<std::uint8_t>(rng());
  std::vector<std::size_t> lengths;
  for (std::size_t length = 0; length <= 64; ++length) {
    lengths.push_back(length);
  }
  std::uniform_int_distribution<std::size_t> random_length(65, kMaxLength);
  for (int i = 0; i < 32; ++i) lengths.push_back(random_length(rng));
  for (const std::size_t length : lengths) {
    for (std::size_t offset = 0; offset < 8; ++offset) {
      const std::span<const std::uint8_t> bytes =
          std::span<const std::uint8_t>(buffer).subspan(offset, length);
      ASSERT_EQ(Crc32(bytes), BytewiseCrc32(bytes))
          << "length " << length << ", offset " << offset;
    }
  }
}

TEST(Wire, HeaderRoundTripPreservesEveryField) {
  FrameHeader header;
  header.type = FrameType::kData;
  header.seq = 77;
  header.session = 0x1122334455667788ull;
  header.stream = 42;
  header.set_domain_tag("video");
  header.count = 25;
  header.set_hint(2.5);

  const std::vector<std::uint8_t> bytes = EncodeFrame(header, {});
  ASSERT_EQ(bytes.size(), FrameHeader::kBytes);
  const serve::Result<FrameHeader> decoded = DecodeHeader(bytes);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded.value().type, FrameType::kData);
  EXPECT_EQ(decoded.value().seq, 77u);
  EXPECT_EQ(decoded.value().session, 0x1122334455667788ull);
  EXPECT_EQ(decoded.value().stream, 42u);
  EXPECT_EQ(decoded.value().domain_tag(), "video");
  EXPECT_EQ(decoded.value().count, 25u);
  EXPECT_EQ(decoded.value().hint(), 2.5);
}

TEST(Wire, DecodeHeaderTruncatedAtEveryBoundary) {
  FrameHeader header;
  header.set_domain_tag("ecg");
  const std::vector<std::uint8_t> bytes = EncodeFrame(header, {});
  for (std::size_t length = 0; length < FrameHeader::kBytes; ++length) {
    const serve::Result<FrameHeader> decoded =
        DecodeHeader({bytes.data(), length});
    ASSERT_FALSE(decoded.ok()) << "length " << length;
    EXPECT_EQ(decoded.error().code, serve::ErrorCode::kTruncatedFrame)
        << "length " << length;
  }
  EXPECT_TRUE(DecodeHeader(bytes).ok());
}

TEST(Wire, DecodeHeaderRejectsMagicVersionAndType) {
  const std::vector<std::uint8_t> good = EncodeFrame(FrameHeader{}, {});

  std::vector<std::uint8_t> bad_magic = good;
  bad_magic[0] = 'X';
  EXPECT_EQ(DecodeHeader(bad_magic).error().code,
            serve::ErrorCode::kBadMagic);

  std::vector<std::uint8_t> bad_version = good;
  bad_version[4] = 0x7F;  // version low byte
  EXPECT_EQ(DecodeHeader(bad_version).error().code,
            serve::ErrorCode::kBadVersion);

  std::vector<std::uint8_t> bad_type = good;
  bad_type[6] = 0xEE;  // type low byte
  EXPECT_EQ(DecodeHeader(bad_type).error().code,
            serve::ErrorCode::kUnknownFrameType);
}

TEST(Wire, DecodeFrameCatchesCrcAndOversize) {
  const std::vector<std::uint8_t> payload = {1, 2, 3, 4, 5, 6, 7, 8};
  FrameHeader header;
  header.count = 1;
  std::vector<std::uint8_t> bytes = EncodeFrame(header, payload);

  EXPECT_TRUE(DecodeFrame(bytes).ok());
  // Truncated payload: the declared length overruns the buffer.
  EXPECT_EQ(DecodeFrame({bytes.data(), bytes.size() - 1}).error().code,
            serve::ErrorCode::kTruncatedFrame);

  std::vector<std::uint8_t> corrupted = bytes;
  corrupted.back() ^= 0xFF;
  EXPECT_EQ(DecodeFrame(corrupted).error().code,
            serve::ErrorCode::kCrcMismatch);

  EXPECT_EQ(DecodeFrame(bytes, 4).error().code,
            serve::ErrorCode::kOversizedFrame);
}

// ----------------------------------------------------------------- codecs ---

TEST(Codec, RoundTripsAllFourDomains) {
  const serve::DomainRegistry registry = serve::MakeDefaultDomainRegistry();
  for (const std::string domain : {"video", "av", "ecg", "tvnews"}) {
    const PayloadCodec* codec = registry.CodecFor(domain);
    ASSERT_NE(codec, nullptr) << domain;

    std::vector<serve::AnyExample> batch;
    for (std::size_t i = 0; i < 7; ++i) {
      serve::Result<serve::AnyExample> example =
          MakeSyntheticExample(domain, i);
      ASSERT_TRUE(example.ok()) << domain;
      batch.push_back(std::move(example.value()));
    }
    const std::vector<std::uint8_t> payload = EncodeBatch(*codec, batch);
    const serve::Result<std::vector<serve::AnyExample>> decoded =
        DecodeBatch(*codec, payload, static_cast<std::uint32_t>(batch.size()));
    ASSERT_TRUE(decoded.ok()) << domain;
    ASSERT_EQ(decoded.value().size(), batch.size()) << domain;
    for (std::size_t i = 0; i < batch.size(); ++i) {
      EXPECT_EQ(decoded.value()[i].domain(), domain);
      EXPECT_EQ(decoded.value()[i].DebugString(), batch[i].DebugString())
          << domain << " example " << i;
    }
  }
}

TEST(Codec, RoundTripPreservesVideoGeometry) {
  const serve::DomainRegistry registry = serve::MakeDefaultDomainRegistry();
  const PayloadCodec* codec = registry.CodecFor("video");
  ASSERT_NE(codec, nullptr);
  video::VideoExample example;
  example.frame_index = 9;
  example.timestamp = 1.25;
  example.detections.push_back(
      {geometry::Box2D{0.1, 0.2, 0.3, 0.4}, "car", 0.875, 3});
  std::vector<serve::AnyExample> batch;
  batch.push_back(serve::AnyExample::Make(std::move(example)));

  const std::vector<std::uint8_t> payload = EncodeBatch(*codec, batch);
  serve::Result<std::vector<serve::AnyExample>> decoded =
      DecodeBatch(*codec, payload, 1);
  ASSERT_TRUE(decoded.ok());
  const video::VideoExample& got = decoded.value()[0].Get<video::VideoExample>();
  EXPECT_EQ(got.frame_index, 9u);
  EXPECT_EQ(got.timestamp, 1.25);
  ASSERT_EQ(got.detections.size(), 1u);
  EXPECT_EQ(got.detections[0].label, "car");
  EXPECT_EQ(got.detections[0].confidence, 0.875);
  EXPECT_EQ(got.detections[0].truth_id, 3);
  EXPECT_EQ(got.detections[0].box.x_min, 0.1);
  EXPECT_EQ(got.detections[0].box.y_max, 0.4);
}

TEST(Codec, RejectsCountMismatchAndTrailingGarbage) {
  const serve::DomainRegistry registry = serve::MakeDefaultDomainRegistry();
  const PayloadCodec* codec = registry.CodecFor("ecg");
  ASSERT_NE(codec, nullptr);
  std::vector<serve::AnyExample> batch;
  batch.push_back(std::move(MakeSyntheticExample("ecg", 0).value()));
  std::vector<std::uint8_t> payload = EncodeBatch(*codec, batch);

  // Declared count exceeds the encoded examples: decode underruns.
  EXPECT_EQ(DecodeBatch(*codec, payload, 2).error().code,
            serve::ErrorCode::kMalformedPayload);
  // Bytes beyond the declared count: trailing garbage.
  payload.push_back(0);
  EXPECT_EQ(DecodeBatch(*codec, payload, 1).error().code,
            serve::ErrorCode::kMalformedPayload);
}

// A decoder that claims many examples over a short payload must not reserve
// holders for the claim: the probe sees the batch's capacity before the
// first decode.
TEST(Codec, DecodeReservesNoMoreHoldersThanPayloadBytes) {
  std::optional<std::size_t> first_capacity;
  PayloadCodec probe;
  probe.domain = "probe";
  probe.decode = [&first_capacity](WireReader&,
                                   std::vector<serve::AnyExample>& out) {
    if (!first_capacity) first_capacity = out.capacity();
    return false;
  };
  const std::vector<std::uint8_t> payload(16, 0);
  const serve::Result<std::vector<serve::AnyExample>> decoded =
      DecodeBatch(probe, payload, 1u << 20);
  ASSERT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.code(), serve::ErrorCode::kMalformedPayload);
  ASSERT_TRUE(first_capacity.has_value());
  EXPECT_LE(*first_capacity, 16u);
}

// -------------------------------------------------------------- assembler ---

std::vector<std::uint8_t> MakeDataFrame(std::uint64_t seq,
                                        std::uint8_t fill) {
  FrameHeader header;
  header.type = FrameType::kData;
  header.seq = seq;
  header.count = 4;
  header.set_domain_tag("video");
  const std::vector<std::uint8_t> payload(24, fill);
  return EncodeFrame(header, payload);
}

TEST(Assembler, ReassemblesFramesFedByteAtATime) {
  std::vector<std::uint8_t> stream;
  for (std::uint64_t seq = 1; seq <= 3; ++seq) {
    const std::vector<std::uint8_t> frame =
        MakeDataFrame(seq, static_cast<std::uint8_t>(seq));
    stream.insert(stream.end(), frame.begin(), frame.end());
  }

  FrameAssembler assembler(1 << 20);
  std::vector<std::uint64_t> seen;
  for (const std::uint8_t byte : stream) {
    assembler.Feed({&byte, 1});
    for (;;) {
      FrameAssembler::Step step = assembler.Next();
      if (step.NeedMore()) break;
      ASSERT_TRUE(step.frame.has_value());
      const std::uint64_t seq = step.frame->header.seq;
      seen.push_back(seq);
      EXPECT_EQ(step.frame->payload.size(), 24u);
      EXPECT_TRUE(std::ranges::all_of(
          step.frame->payload,
          [seq](std::uint8_t byte) { return byte == seq; }))
          << "frame " << seq;
    }
  }
  EXPECT_EQ(seen, (std::vector<std::uint64_t>{1, 2, 3}));
  EXPECT_FALSE(assembler.MidFrame());
}

// Each Feed carries several whole frames and a partial one. The views from
// one Feed are all read after its last Next and before the next Feed,
// which compacts the buffer they point into.
TEST(Assembler, ViewsFromOneFeedAreEachReadBeforeTheNextFeed) {
  std::vector<std::uint8_t> stream;
  for (std::uint64_t seq = 1; seq <= 24; ++seq) {
    const std::vector<std::uint8_t> frame =
        MakeDataFrame(seq, static_cast<std::uint8_t>(seq));
    stream.insert(stream.end(), frame.begin(), frame.end());
  }
  constexpr std::size_t kSlice = 200;  // a frame is 88 bytes
  FrameAssembler assembler(1 << 20);
  std::uint64_t next = 1;
  std::size_t most_in_one_feed = 0;
  for (std::size_t at = 0; at < stream.size(); at += kSlice) {
    assembler.Feed(std::span(stream).subspan(
        at, std::min(kSlice, stream.size() - at)));
    std::vector<FrameView> views;
    for (FrameAssembler::Step step = assembler.Next(); step.frame;
         step = assembler.Next()) {
      views.push_back(*step.frame);
    }
    most_in_one_feed = std::max(most_in_one_feed, views.size());
    for (const FrameView& view : views) {
      EXPECT_EQ(view.header.seq, next);
      EXPECT_EQ(view.payload.size(), 24u);
      EXPECT_TRUE(std::ranges::all_of(
          view.payload, [next](std::uint8_t byte) { return byte == next; }))
          << "frame " << next;
      ++next;
    }
  }
  EXPECT_EQ(next, 25u);
  EXPECT_GE(most_in_one_feed, 2u);
  EXPECT_FALSE(assembler.MidFrame());
}

TEST(Assembler, CrcMismatchSkipsOneFrameAndRecovers) {
  std::vector<std::uint8_t> corrupt = MakeDataFrame(1, 0xAA);
  corrupt.back() ^= 0xFF;  // payload corruption, framing intact
  const std::vector<std::uint8_t> good = MakeDataFrame(2, 0xBB);

  FrameAssembler assembler(1 << 20);
  assembler.Feed(corrupt);
  assembler.Feed(good);

  FrameAssembler::Step first = assembler.Next();
  ASSERT_TRUE(first.failure.has_value());
  EXPECT_EQ(first.failure->error.code, serve::ErrorCode::kCrcMismatch);
  EXPECT_EQ(first.failure->lost_examples, 4u);
  EXPECT_FALSE(first.failure->fatal);

  FrameAssembler::Step second = assembler.Next();
  ASSERT_TRUE(second.frame.has_value());
  EXPECT_EQ(second.frame->header.seq, 2u);
}

TEST(Assembler, FatalFailurePoisonsTheStream) {
  std::vector<std::uint8_t> bad = MakeDataFrame(1, 0x11);
  bad[0] = 'X';  // bad magic: framing untrustworthy

  FrameAssembler assembler(1 << 20);
  assembler.Feed(bad);
  FrameAssembler::Step step = assembler.Next();
  ASSERT_TRUE(step.failure.has_value());
  EXPECT_EQ(step.failure->error.code, serve::ErrorCode::kBadMagic);
  EXPECT_TRUE(step.failure->fatal);

  // A poisoned assembler repeats the failure even over fresh good bytes.
  assembler.Feed(MakeDataFrame(2, 0x22));
  FrameAssembler::Step after = assembler.Next();
  ASSERT_TRUE(after.failure.has_value());
  EXPECT_TRUE(after.failure->fatal);
}

TEST(Assembler, OversizedDeclaredLengthIsFatal) {
  FrameHeader header;
  header.type = FrameType::kData;
  const std::vector<std::uint8_t> payload(256, 0x55);
  const std::vector<std::uint8_t> frame = EncodeFrame(header, payload);

  FrameAssembler assembler(/*max_frame_bytes=*/64);
  assembler.Feed(frame);
  FrameAssembler::Step step = assembler.Next();
  ASSERT_TRUE(step.failure.has_value());
  EXPECT_EQ(step.failure->error.code, serve::ErrorCode::kOversizedFrame);
  EXPECT_TRUE(step.failure->fatal);
}

// ----------------------------------------------------------------- corpus ---

// The shared corrupt-frame table (wire_corpus.hpp) against the one-shot
// decoder: every corruption class gets its documented code, and the two
// boundary-valid cases (zero-count DATA, exactly-max payload) decode.
TEST(Corpus, DecodeFrameVerdictsMatchTheTable) {
  constexpr std::size_t kMaxFrameBytes = 4096;
  const std::vector<std::uint8_t> good = MakeDataFrame(7, 0xC3);
  for (const testing::CorruptFrameCase& c :
       testing::CorruptFrameCorpus(good, 4, kMaxFrameBytes)) {
    const serve::Result<Frame> decoded = DecodeFrame(c.bytes, kMaxFrameBytes);
    if (c.valid) {
      EXPECT_TRUE(decoded.ok()) << c.name;
      continue;
    }
    ASSERT_FALSE(decoded.ok()) << c.name;
    EXPECT_EQ(decoded.code(), c.expected) << c.name;
  }
}

// The same table against the streaming assembler: truncations are NeedMore
// (not errors), corruptions carry the table's fatality and — the decode
// accounting contract — lost_examples is the header count only when the
// header passed its own CRC, never when the count field itself may be
// corrupt.
TEST(Corpus, AssemblerVerdictsAndAccountingMatchTheTable) {
  constexpr std::size_t kMaxFrameBytes = 4096;
  const std::vector<std::uint8_t> good = MakeDataFrame(7, 0xC3);
  for (const testing::CorruptFrameCase& c :
       testing::CorruptFrameCorpus(good, 4, kMaxFrameBytes)) {
    FrameAssembler assembler(kMaxFrameBytes);
    assembler.Feed(c.bytes);
    const FrameAssembler::Step step = assembler.Next();
    if (c.truncated) {
      EXPECT_TRUE(step.NeedMore()) << c.name;
      continue;
    }
    if (c.valid) {
      EXPECT_TRUE(step.frame.has_value()) << c.name;
      continue;
    }
    ASSERT_TRUE(step.failure.has_value()) << c.name;
    EXPECT_EQ(step.failure->error.code, c.expected) << c.name;
    EXPECT_EQ(step.failure->fatal, c.fatal) << c.name;
    EXPECT_EQ(step.failure->lost_examples, c.lost_examples) << c.name;
  }
}

// Regression (header CRC, wire v2): a frame whose count field is corrupted
// must report zero lost examples — the bogus count is untrustworthy in
// either direction, so it must not inflate or deflate decode_errors.
TEST(Assembler, CorruptedCountFieldReportsZeroLostExamples) {
  std::vector<std::uint8_t> frame = MakeDataFrame(1, 0x5C);
  frame[40] ^= 0xFF;  // count field, little-endian low byte
  FrameAssembler assembler(1 << 20);
  assembler.Feed(frame);
  const FrameAssembler::Step step = assembler.Next();
  ASSERT_TRUE(step.failure.has_value());
  EXPECT_EQ(step.failure->error.code, serve::ErrorCode::kCrcMismatch);
  EXPECT_TRUE(step.failure->fatal);
  EXPECT_EQ(step.failure->lost_examples, 0u);
}

// ----------------------------------------------------------------- server ---

TEST(Server, ValidTenantNames) {
  EXPECT_TRUE(IngestServer::ValidTenantName("alpha"));
  EXPECT_TRUE(IngestServer::ValidTenantName("Tenant_01-x"));
  EXPECT_FALSE(IngestServer::ValidTenantName(""));
  EXPECT_FALSE(IngestServer::ValidTenantName("has space"));
  EXPECT_FALSE(IngestServer::ValidTenantName("slash/y"));
  EXPECT_FALSE(IngestServer::ValidTenantName("quote\"z"));
  EXPECT_FALSE(IngestServer::ValidTenantName(std::string(65, 'a')));
}

/// A two-domain scenario monitor for server tests.
config::ScenarioMonitor MakeHosted(const serve::DomainRegistry& domains) {
  const config::ScenarioSpec scenario =
      config::ConfigLoader::Load(config::SpecDocument::Parse(R"(
[scenario]
name = "net-test"
[runtime]
shards = 2
window = 32
settle_lag = 4
queue_capacity = 1024
[suite video]
assertions = [video.multibox]
[suite ecg]
assertions = [ecg.oscillation]
[stream cam]
domain = video
[stream ward]
domain = ecg
)"));
  return config::BuildScenarioMonitor(scenario, domains);
}

std::string TestSocketPath(const char* tag) {
  return "/tmp/omg_net_" + std::string(tag) + "_" +
         std::to_string(::getpid()) + ".sock";
}

std::vector<serve::AnyExample> SyntheticBatch(const std::string& domain,
                                              std::size_t count) {
  std::vector<serve::AnyExample> batch;
  for (std::size_t i = 0; i < count; ++i) {
    batch.push_back(std::move(MakeSyntheticExample(domain, i).value()));
  }
  return batch;
}

// A socket call that fails is a typed error carrying errno's text, never
// an abort: a client connecting to a path nothing listens on, and a server
// binding a listener in a directory that does not exist.
TEST(Server, SocketFailuresAreTypedErrors) {
  const std::string missing = "/nonexistent-omg-dir/omg.sock";
  const serve::Result<ClientConnection> conn =
      ClientConnection::ConnectUds(missing);
  ASSERT_FALSE(conn.ok());
  EXPECT_NE(conn.error().message.find("connect '" + missing + "'"),
            std::string::npos)
      << conn.error().message;

  const serve::DomainRegistry domains = serve::MakeDefaultDomainRegistry();
  config::ScenarioMonitor hosted = MakeHosted(domains);
  IngestServerOptions options;
  options.uds_path = missing;
  IngestServer server(options, *hosted.monitor, domains);
  const serve::Result<ServerEndpoints> endpoints = server.Start();
  ASSERT_FALSE(endpoints.ok());
  EXPECT_NE(endpoints.error().message.find("bind/listen '" + missing + "'"),
            std::string::npos)
      << endpoints.error().message;
}

TEST(Server, HelloBindDataFlushStatsOverUds) {
  const serve::DomainRegistry domains = serve::MakeDefaultDomainRegistry();
  config::ScenarioMonitor hosted = MakeHosted(domains);

  IngestServerOptions options;
  options.uds_path = TestSocketPath("uds");
  IngestServer server(options, *hosted.monitor, domains);
  for (const config::BoundStream& stream : hosted.streams) {
    server.ExposeStream(stream.handle);
  }
  const serve::Result<ServerEndpoints> endpoints = server.Start();
  ASSERT_TRUE(endpoints.ok());

  serve::Result<ClientConnection> conn =
      ClientConnection::ConnectUds(endpoints.value().uds_path);
  ASSERT_TRUE(conn.ok());
  ClientConnection client = std::move(conn.value());

  // Control before HELLO is a typed error, not a closed connection.
  EXPECT_EQ(client.BindStream("video", "cam").error().code,
            serve::ErrorCode::kNotAuthenticated);

  const serve::Result<std::uint64_t> session = client.Hello("any", "");
  ASSERT_TRUE(session.ok());
  EXPECT_GT(session.value(), 0u);

  EXPECT_EQ(client.BindStream("video", "nope").error().code,
            serve::ErrorCode::kUnknownStream);
  const serve::Result<std::uint64_t> binding =
      client.BindStream("video", "cam");
  ASSERT_TRUE(binding.ok());

  const PayloadCodec* codec = domains.CodecFor("video");
  ASSERT_NE(codec, nullptr);
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(client
                    .SendBatch(*codec, binding.value(),
                               SyntheticBatch("video", 8))
                    .ok());
  }
  ASSERT_TRUE(client.Flush().ok());

  const serve::Result<std::vector<std::uint64_t>> stats = client.Stats();
  ASSERT_TRUE(stats.ok());
  ASSERT_EQ(stats.value().size(), 8u);
  const std::uint64_t offered = stats.value()[0];
  const std::uint64_t admitted = stats.value()[1];
  const std::uint64_t scored = stats.value()[4];
  EXPECT_EQ(offered, 32u);
  EXPECT_EQ(admitted, 32u);
  EXPECT_EQ(scored, 32u);

  EXPECT_TRUE(client.Goodbye().ok());
  server.Stop();
  EXPECT_EQ(hosted.monitor->Metrics().examples_seen, 32u);
}

TEST(Server, TcpTransportServes) {
  const serve::DomainRegistry domains = serve::MakeDefaultDomainRegistry();
  config::ScenarioMonitor hosted = MakeHosted(domains);

  IngestServerOptions options;
  options.tcp = true;  // ephemeral port
  IngestServer server(options, *hosted.monitor, domains);
  for (const config::BoundStream& stream : hosted.streams) {
    server.ExposeStream(stream.handle);
  }
  const serve::Result<ServerEndpoints> endpoints = server.Start();
  ASSERT_TRUE(endpoints.ok());
  ASSERT_GT(endpoints.value().tcp_port, 0);

  serve::Result<ClientConnection> conn =
      ClientConnection::ConnectTcp("127.0.0.1", endpoints.value().tcp_port);
  ASSERT_TRUE(conn.ok());
  ClientConnection client = std::move(conn.value());
  ASSERT_TRUE(client.Hello("tenant", "").ok());
  const serve::Result<std::uint64_t> binding =
      client.BindStream("ecg", "ward");
  ASSERT_TRUE(binding.ok());
  const PayloadCodec* codec = domains.CodecFor("ecg");
  ASSERT_TRUE(client
                  .SendBatch(*codec, binding.value(),
                             SyntheticBatch("ecg", 16))
                  .ok());
  const serve::Result<std::vector<std::uint64_t>> stats = client.Stats();
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats.value()[0], 16u);  // offered
  EXPECT_EQ(stats.value()[4], 16u);  // scored
  server.Stop();
}

TEST(Server, AuthAndTenantIsolation) {
  const serve::DomainRegistry domains = serve::MakeDefaultDomainRegistry();
  config::ScenarioMonitor hosted = MakeHosted(domains);

  IngestServerOptions options;
  options.uds_path = TestSocketPath("auth");
  options.tenants.push_back({.name = "alpha", .token = "a-secret"});
  options.tenants.push_back({.name = "beta", .token = "b-secret"});
  IngestServer server(options, *hosted.monitor, domains);
  // cam belongs to alpha; ward is open to any authenticated tenant.
  server.ExposeStream(hosted.streams[0].handle, "alpha");
  server.ExposeStream(hosted.streams[1].handle);
  ASSERT_TRUE(server.Start().ok());

  ClientConnection beta = std::move(
      ClientConnection::ConnectUds(options.uds_path).value());
  // A closed roster rejects unknown tenants and wrong tokens.
  EXPECT_EQ(beta.Hello("gamma", "x").error().code,
            serve::ErrorCode::kUnknownTenant);
  EXPECT_EQ(beta.Hello("beta", "wrong").error().code,
            serve::ErrorCode::kAuthFailed);
  ASSERT_TRUE(beta.Hello("beta", "b-secret").ok());

  // Another tenant's stream reads as unknown — the roster does not leak.
  EXPECT_EQ(beta.BindStream("video", "cam").error().code,
            serve::ErrorCode::kUnknownStream);
  EXPECT_TRUE(beta.BindStream("ecg", "ward").ok());

  ClientConnection alpha = std::move(
      ClientConnection::ConnectUds(options.uds_path).value());
  ASSERT_TRUE(alpha.Hello("alpha", "a-secret").ok());
  EXPECT_TRUE(alpha.BindStream("video", "cam").ok());
  server.Stop();
}

TEST(Server, ConcurrentTenantQuotaEnforcement) {
  const serve::DomainRegistry domains = serve::MakeDefaultDomainRegistry();
  config::ScenarioMonitor hosted = MakeHosted(domains);

  IngestServerOptions options;
  options.uds_path = TestSocketPath("quota");
  // `limited` can burst 64 examples and refills a negligible trickle;
  // `free` is unlimited. Both hammer concurrently.
  options.tenants.push_back(
      {.name = "limited", .token = "", .quota_eps = 1.0, .burst = 64.0});
  TenantOptions unlimited;
  unlimited.name = "free";
  options.tenants.push_back(unlimited);
  IngestServer server(options, *hosted.monitor, domains);
  server.ExposeStream(hosted.streams[0].handle);  // cam (video)
  server.ExposeStream(hosted.streams[1].handle);  // ward (ecg)
  ASSERT_TRUE(server.Start().ok());

  const auto drive = [&options, &domains](const std::string& tenant,
                                          const std::string& domain,
                                          const std::string& stream) {
    ClientConnection client = std::move(
        ClientConnection::ConnectUds(options.uds_path).value());
    ASSERT_TRUE(client.Hello(tenant, "").ok());
    const std::uint64_t binding =
        client.BindStream(domain, stream).value();
    const PayloadCodec* codec = domains.CodecFor(domain);
    const std::vector<serve::AnyExample> batch = SyntheticBatch(domain, 16);
    const std::vector<std::uint8_t> payload = EncodeBatch(*codec, batch);
    for (int i = 0; i < 32; ++i) {
      ASSERT_TRUE(
          client.SendEncoded(binding, domain, 16, payload).ok());
    }
    ASSERT_TRUE(client.Flush().ok());
    ASSERT_TRUE(client.Goodbye().ok());
  };
  std::thread limited(drive, "limited", "video", "cam");
  std::thread free_rider(drive, "free", "ecg", "ward");
  limited.join();
  free_rider.join();

  // Both connections closed after FLUSH+GOODBYE, so stats are settled.
  const IngestServerStats stats = server.Stats();
  server.Stop();
  const TenantStats& lim = stats.tenants.at("limited");
  const TenantStats& fr = stats.tenants.at("free");
  EXPECT_EQ(lim.offered, 512u);
  EXPECT_EQ(fr.offered, 512u);
  // The limited tenant admitted its burst (64 = 4 frames) plus at most a
  // trickle of refill; everything else was rejected before the queues.
  EXPECT_GE(lim.admitted, 64u);
  EXPECT_LE(lim.admitted, 128u);
  EXPECT_GE(lim.quota_rejected, 384u);
  EXPECT_EQ(fr.quota_rejected, 0u);
  EXPECT_EQ(fr.admitted, 512u);
  for (const TenantStats* tenant : {&lim, &fr}) {
    EXPECT_EQ(tenant->offered, tenant->admitted + tenant->shed +
                                   tenant->quota_rejected +
                                   tenant->decode_errors);
  }
  // The monitor only ever saw admitted examples.
  hosted.monitor->Flush();
  EXPECT_EQ(hosted.monitor->Metrics().examples_seen,
            lim.admitted + fr.admitted);
}

TEST(Server, ShedFloorHintBypassesExhaustedQuota) {
  const serve::DomainRegistry domains = serve::MakeDefaultDomainRegistry();
  config::ScenarioMonitor hosted = MakeHosted(domains);

  IngestServerOptions options;
  options.uds_path = TestSocketPath("floor");
  options.tenants.push_back({.name = "t",
                             .token = "",
                             .quota_eps = 1.0,
                             .burst = 16.0,
                             .shed_floor = 1.0,
                             .has_shed_floor = true});
  IngestServer server(options, *hosted.monitor, domains);
  server.ExposeStream(hosted.streams[0].handle);
  ASSERT_TRUE(server.Start().ok());

  ClientConnection client = std::move(
      ClientConnection::ConnectUds(options.uds_path).value());
  ASSERT_TRUE(client.Hello("t", "").ok());
  const std::uint64_t binding = client.BindStream("video", "cam").value();
  const PayloadCodec* codec = domains.CodecFor("video");
  const std::vector<std::uint8_t> payload =
      EncodeBatch(*codec, SyntheticBatch("video", 16));

  // Burst (16) admits the first frame; the second, unhinted, is rejected;
  // the third rides through on a hint above the tenant's shed floor.
  ASSERT_TRUE(client.SendEncoded(binding, "video", 16, payload, 0.0).ok());
  ASSERT_TRUE(client.SendEncoded(binding, "video", 16, payload, 0.0).ok());
  ASSERT_TRUE(client.SendEncoded(binding, "video", 16, payload, 2.0).ok());
  ASSERT_TRUE(client.Flush().ok());

  const serve::Result<std::vector<std::uint64_t>> stats = client.Stats();
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats.value()[0], 48u);  // offered
  EXPECT_EQ(stats.value()[1], 32u);  // admitted (burst + bypass)
  EXPECT_EQ(stats.value()[2], 16u);  // quota_rejected
  server.Stop();
}

TEST(Server, MalformedDataFramesAreCountedNotFatal) {
  const serve::DomainRegistry domains = serve::MakeDefaultDomainRegistry();
  config::ScenarioMonitor hosted = MakeHosted(domains);

  IngestServerOptions options;
  options.uds_path = TestSocketPath("malformed");
  IngestServer server(options, *hosted.monitor, domains);
  server.ExposeStream(hosted.streams[0].handle);
  ASSERT_TRUE(server.Start().ok());

  ClientConnection client = std::move(
      ClientConnection::ConnectUds(options.uds_path).value());
  ASSERT_TRUE(client.Hello("t", "").ok());
  const std::uint64_t binding = client.BindStream("video", "cam").value();
  const PayloadCodec* codec = domains.CodecFor("video");
  const std::vector<std::uint8_t> good =
      EncodeBatch(*codec, SyntheticBatch("video", 8));

  // Garbage payload under an intact frame: malformed, connection lives.
  const std::vector<std::uint8_t> garbage(32, 0xFF);
  ASSERT_TRUE(client.SendEncoded(binding, "video", 8, garbage).ok());
  // Wrong domain tag for the binding.
  ASSERT_TRUE(client.SendEncoded(binding, "ecg", 8, good).ok());
  // A good frame after both still serves.
  ASSERT_TRUE(client.SendEncoded(binding, "video", 8, good).ok());
  ASSERT_TRUE(client.Flush().ok());

  const serve::Result<std::vector<std::uint64_t>> stats = client.Stats();
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats.value()[0], 24u);  // offered
  EXPECT_EQ(stats.value()[1], 8u);   // admitted
  EXPECT_EQ(stats.value()[3], 16u);  // decode errors
  EXPECT_EQ(stats.value()[4], 8u);   // scored
  server.Stop();
}

// Raw-socket plumbing for tests that must put hand-crafted (corrupt) bytes
// on the wire — ClientConnection refuses to build them.
int RawConnect(const std::string& path) {
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::strncpy(addr.sun_path, path.c_str(), sizeof(addr.sun_path) - 1);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

bool RawWriteAll(int fd, std::span<const std::uint8_t> bytes) {
  std::size_t written = 0;
  while (written < bytes.size()) {
    const ssize_t n =
        ::write(fd, bytes.data() + written, bytes.size() - written);
    if (n <= 0) return false;
    written += static_cast<std::size_t>(n);
  }
  return true;
}

/// Reads frames off `fd` via `assembler` until one whole reply arrives,
/// copied out of the assembler (its payload view ends at the next Feed).
std::optional<Frame> RawReadFrame(int fd, FrameAssembler& assembler) {
  for (;;) {
    FrameAssembler::Step step = assembler.Next();
    if (step.frame.has_value()) {
      const std::span<const std::uint8_t> payload = step.frame->payload;
      return Frame{step.frame->header, {payload.begin(), payload.end()}};
    }
    if (step.failure.has_value()) return std::nullopt;
    std::uint8_t buffer[512];
    const ssize_t n = ::read(fd, buffer, sizeof(buffer));
    if (n <= 0) return std::nullopt;
    assembler.Feed({buffer, static_cast<std::size_t>(n)});
  }
}

/// Control round-trip over a raw fd; returns the ACK's first value.
std::optional<std::uint64_t> RawRoundtrip(
    int fd, FrameAssembler& assembler, FrameType type,
    std::span<const std::uint8_t> payload, std::uint64_t session = 0) {
  FrameHeader header;
  header.type = type;
  header.session = session;
  if (!RawWriteAll(fd, EncodeFrame(header, payload))) return std::nullopt;
  const std::optional<Frame> reply = RawReadFrame(fd, assembler);
  if (!reply.has_value() || reply->header.type != FrameType::kAck) {
    return std::nullopt;
  }
  WireReader reader(reply->payload);
  std::uint32_t count = 0;
  std::uint64_t value = 0;
  if (!reader.U32(count) || count == 0 || !reader.U64(value)) return 0;
  return value;
}

// Regression for the tenant accounting identity under wire corruption: a
// payload-corrupt frame charges its (CRC-verified) count to offered and
// decode_errors; a frame whose count FIELD is corrupted fails the header
// CRC and charges nothing — the bogus count must not leak into either side
// of offered == admitted + shed + quota_rejected + decode_errors.
TEST(Server, CorruptCountHeaderCannotSkewTenantAccounting) {
  const serve::DomainRegistry domains = serve::MakeDefaultDomainRegistry();
  config::ScenarioMonitor hosted = MakeHosted(domains);

  IngestServerOptions options;
  options.uds_path = TestSocketPath("corrupt-count");
  IngestServer server(options, *hosted.monitor, domains);
  server.ExposeStream(hosted.streams[0].handle);
  ASSERT_TRUE(server.Start().ok());

  const int fd = RawConnect(options.uds_path);
  ASSERT_GE(fd, 0);
  FrameAssembler replies(1 << 20);
  WireWriter hello;
  hello.String("t");
  hello.String("");
  const std::optional<std::uint64_t> session =
      RawRoundtrip(fd, replies, FrameType::kHello, hello.bytes());
  ASSERT_TRUE(session.has_value());
  WireWriter bind;
  bind.String("video");
  bind.String("cam");
  const std::optional<std::uint64_t> binding =
      RawRoundtrip(fd, replies, FrameType::kBindStream, bind.bytes(),
                   *session);
  ASSERT_TRUE(binding.has_value());

  const PayloadCodec* codec = domains.CodecFor("video");
  const std::vector<serve::AnyExample> batch = SyntheticBatch("video", 8);
  const std::vector<std::uint8_t> payload = EncodeBatch(*codec, batch);
  FrameHeader data;
  data.type = FrameType::kData;
  data.session = *session;
  data.stream = *binding;
  data.set_domain_tag("video");
  data.count = 8;
  const std::vector<std::uint8_t> good = EncodeFrame(data, payload);

  // 1. Payload corruption: framing intact, count trusted — 8 offered, 8
  //    decode errors.
  std::vector<std::uint8_t> payload_corrupt = good;
  payload_corrupt.at(payload_corrupt.size() - 1) ^= 0xFF;
  ASSERT_TRUE(RawWriteAll(fd, payload_corrupt));
  // 2. Count-field corruption: header CRC fails, nothing countable, fatal.
  std::vector<std::uint8_t> count_corrupt = good;
  count_corrupt[40] ^= 0xFF;
  ASSERT_TRUE(RawWriteAll(fd, count_corrupt));

  // The server drops the connection at the fatal frame; EOF on our side
  // proves both frames were processed (they are handled in order).
  std::uint8_t drain[64];
  while (::read(fd, drain, sizeof(drain)) > 0) {
  }
  ::close(fd);

  const TenantStats totals = server.Stats().totals;
  EXPECT_EQ(totals.offered, 8u);
  EXPECT_EQ(totals.decode_errors, 8u);
  EXPECT_EQ(totals.admitted, 0u);
  EXPECT_EQ(totals.offered, totals.admitted + totals.shed +
                                totals.quota_rejected + totals.decode_errors);
  server.Stop();
}

TEST(Server, CleanShutdownWithInFlightFrames) {
  const serve::DomainRegistry domains = serve::MakeDefaultDomainRegistry();
  config::ScenarioMonitor hosted = MakeHosted(domains);

  IngestServerOptions options;
  options.uds_path = TestSocketPath("shutdown");
  IngestServer server(options, *hosted.monitor, domains);
  server.ExposeStream(hosted.streams[0].handle);
  ASSERT_TRUE(server.Start().ok());

  ClientConnection client = std::move(
      ClientConnection::ConnectUds(options.uds_path).value());
  ASSERT_TRUE(client.Hello("t", "").ok());
  const std::uint64_t binding = client.BindStream("video", "cam").value();
  const PayloadCodec* codec = domains.CodecFor("video");
  const std::vector<std::uint8_t> payload =
      EncodeBatch(*codec, SyntheticBatch("video", 16));
  for (int i = 0; i < 64; ++i) {
    if (!client.SendEncoded(binding, "video", 16, payload).ok()) break;
  }
  // Stop with frames still in socket buffers and shard queues; everything
  // processed must still reconcile at the wire.
  server.Stop();
  client.Close();

  const IngestServerStats stats = server.Stats();
  const TenantStats& totals = stats.totals;
  EXPECT_EQ(totals.offered, totals.admitted + totals.shed +
                                totals.quota_rejected + totals.decode_errors);
  hosted.monitor->Flush();
  const runtime::MetricsSnapshot snapshot = hosted.monitor->Metrics();
  EXPECT_EQ(totals.admitted,
            snapshot.examples_seen + snapshot.TotalShedExamples() +
                snapshot.TotalDroppedExamples() +
                snapshot.TotalErroredExamples());
}

TEST(Server, PerTenantNamedMetricsReachTheRegistry) {
  const serve::DomainRegistry domains = serve::MakeDefaultDomainRegistry();
  config::ScenarioMonitor hosted = MakeHosted(domains);

  IngestServerOptions options;
  options.uds_path = TestSocketPath("named");
  IngestServer server(options, *hosted.monitor, domains);
  server.ExposeStream(hosted.streams[0].handle);
  ASSERT_TRUE(server.Start().ok());

  ClientConnection client = std::move(
      ClientConnection::ConnectUds(options.uds_path).value());
  ASSERT_TRUE(client.Hello("acme", "").ok());
  const std::uint64_t binding = client.BindStream("video", "cam").value();
  const PayloadCodec* codec = domains.CodecFor("video");
  ASSERT_TRUE(client
                  .SendBatch(*codec, binding, SyntheticBatch("video", 8))
                  .ok());
  ASSERT_TRUE(client.Flush().ok());
  ASSERT_TRUE(client.Stats().ok());
  server.Stop();

  const runtime::MetricsSnapshot snapshot = hosted.monitor->Metrics();
  ASSERT_TRUE(snapshot.named.contains("tenant/acme/offered"));
  EXPECT_EQ(snapshot.named.at("tenant/acme/offered"), 8u);
  EXPECT_EQ(snapshot.named.at("tenant/acme/admitted"), 8u);
}

// ----------------------------------------------------------------- client ---

/// A UDS listener at `path` (replacing any stale socket file), or -1.
int RawListen(const std::string& path) {
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::strncpy(addr.sun_path, path.c_str(), sizeof(addr.sun_path) - 1);
  ::unlink(path.c_str());
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0 ||
      ::listen(fd, 4) != 0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

/// This process's socket connected to the UDS listener at `path`, or -1.
/// ClientConnection keeps its descriptor private; the peer address finds it.
int FdConnectedTo(const std::string& path) {
  for (int fd = 0; fd < 1024; ++fd) {
    sockaddr_un peer{};
    socklen_t length = sizeof(peer);
    if (::getpeername(fd, reinterpret_cast<sockaddr*>(&peer), &length) == 0 &&
        peer.sun_family == AF_UNIX && path == peer.sun_path) {
      return fd;
    }
  }
  return -1;
}

extern "C" void IgnoreSignal(int) {}

// A 1 MB payload through an 8 KB send buffer, read slowly in 4 KB pieces.
// SIGUSR1, installed without SA_RESTART, interrupts the blocked sendmsg:
// after some bytes have gone out it returns a partial count, from which
// SendEncoded must resume. What arrives is EncodeFrame's frame, byte for
// byte.
TEST(Client, SendEncodedResumesPartialWritesByteForByte) {
  const std::string path = TestSocketPath("sendmsg");
  const int listener = RawListen(path);
  ASSERT_GE(listener, 0);
  serve::Result<ClientConnection> conn = ClientConnection::ConnectUds(path);
  ASSERT_TRUE(conn.ok());
  ClientConnection client = std::move(conn.value());
  const int server = ::accept(listener, nullptr, nullptr);
  ASSERT_GE(server, 0);
  const int client_fd = FdConnectedTo(path);
  ASSERT_GE(client_fd, 0);
  const int send_buffer = 4096;  // the kernel doubles it
  ASSERT_EQ(::setsockopt(client_fd, SOL_SOCKET, SO_SNDBUF, &send_buffer,
                         sizeof(send_buffer)),
            0);

  std::vector<std::uint8_t> payload(1 << 20);
  for (std::size_t i = 0; i < payload.size(); ++i) {
    payload[i] = static_cast<std::uint8_t>(i * 131 + (i >> 12));
  }
  FrameHeader header;  // what SendEncoded builds on a fresh connection
  header.type = FrameType::kData;
  header.seq = 1;
  header.stream = 3;
  header.set_domain_tag("av");
  header.count = 5;
  header.set_hint(0.5);
  const std::vector<std::uint8_t> expected = EncodeFrame(header, payload);

  struct sigaction interrupt {};
  interrupt.sa_handler = IgnoreSignal;
  sigemptyset(&interrupt.sa_mask);
  interrupt.sa_flags = 0;
  struct sigaction previous {};
  ASSERT_EQ(::sigaction(SIGUSR1, &interrupt, &previous), 0);
  std::optional<serve::Result<bool>> sent;
  std::thread sender(
      [&] { sent = client.SendEncoded(3, "av", 5, payload, 0.5); });
  std::vector<std::uint8_t> received;
  std::uint8_t piece[4096];
  while (received.size() < expected.size()) {
    ::pthread_kill(sender.native_handle(), SIGUSR1);
    std::this_thread::sleep_for(std::chrono::microseconds(100));
    const ssize_t n = ::read(server, piece, sizeof(piece));
    if (n <= 0) break;
    received.insert(received.end(), piece, piece + n);
  }
  sender.join();
  ::sigaction(SIGUSR1, &previous, nullptr);
  ::close(server);
  ::close(listener);
  ::unlink(path.c_str());

  ASSERT_TRUE(sent.has_value());
  ASSERT_TRUE(sent->ok()) << sent->error().message;
  EXPECT_EQ(client.bytes_sent(), expected.size());
  ASSERT_EQ(received.size(), expected.size());
  EXPECT_TRUE(received == expected);
}

// The length a reply header claims is the peer's word: a header with a
// valid CRC that claims 64 MiB is refused as oversized before the client
// allocates anything for it.
TEST(Client, RejectsAReplyLongerThanAnyReply) {
  const std::string path = TestSocketPath("huge-reply");
  const int listener = RawListen(path);
  ASSERT_GE(listener, 0);
  serve::Result<ClientConnection> conn = ClientConnection::ConnectUds(path);
  ASSERT_TRUE(conn.ok());
  ClientConnection client = std::move(conn.value());
  std::thread peer([listener] {
    const int fd = ::accept(listener, nullptr, nullptr);
    if (fd < 0) return;
    FrameAssembler requests(1 << 20);
    const std::optional<Frame> hello = RawReadFrame(fd, requests);
    FrameHeader reply;
    reply.type = FrameType::kAck;
    reply.seq = hello ? hello->header.seq : 0;
    reply.payload_length = 64u << 20;  // claimed, never sent
    RawWriteAll(fd, EncodeHeader(reply));
    ::close(fd);
  });
  const serve::Result<std::uint64_t> session = client.Hello("t", "");
  peer.join();
  ::close(listener);
  ::unlink(path.c_str());

  ASSERT_FALSE(session.ok());
  EXPECT_EQ(session.error().code, serve::ErrorCode::kOversizedFrame);
}

TEST(LoadClient, FourConnectionsReconcileOverUdsAndTcp) {
  const serve::DomainRegistry domains = serve::MakeDefaultDomainRegistry();
  for (const bool uds : {true, false}) {
    SCOPED_TRACE(uds ? "uds" : "tcp");
    config::ScenarioMonitor hosted = MakeHosted(domains);
    IngestServerOptions options;
    if (uds) {
      options.uds_path = TestSocketPath("load");
    } else {
      options.tcp = true;  // ephemeral loopback port
    }
    IngestServer server(options, *hosted.monitor, domains);
    for (const config::BoundStream& stream : hosted.streams) {
      server.ExposeStream(stream.handle);
    }
    const serve::Result<ServerEndpoints> endpoints = server.Start();
    ASSERT_TRUE(endpoints.ok());

    LoadClientOptions load;
    if (uds) {
      load.uds_path = endpoints.value().uds_path;
    } else {
      load.tcp_port = endpoints.value().tcp_port;
    }
    // Two connections per stream, each sending 15 whole 64-example frames.
    load.streams = {{"bench", "", "cam", "video", 0.0},
                    {"bench", "", "ward", "ecg", 0.0}};
    load.connections = 4;
    load.batch = 64;
    load.examples_per_connection = 1000;
    const serve::Result<LoadReport> report = RunLoadClient(load, domains);
    server.Stop();

    ASSERT_TRUE(report.ok());
    EXPECT_EQ(report.value().connection_errors, 0u);
    EXPECT_TRUE(report.value().reconciled);
    EXPECT_EQ(report.value().offered, 3840u);
    EXPECT_EQ(report.value().scored, 3840u);
  }
}

}  // namespace
}  // namespace omg::net
