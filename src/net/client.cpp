#include "net/client.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/uio.h>
#include <sys/un.h>
#include <unistd.h>

#include <array>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <thread>
#include <utility>

#include "common/check.hpp"
#include "common/example_gen.hpp"
#include "obs/clock.hpp"
#include "serve/domain_registry.hpp"

namespace omg::net {

namespace {

serve::Error Errno(const std::string& what) {
  return serve::Error{serve::ErrorCode::kInvalidArgument,
                      what + ": " + std::strerror(errno)};
}

/// The largest payload a server reply can carry: an ERROR's u16 code and
/// a u32-prefixed message of at most WireReader::kMaxStringBytes. ACKs
/// carry a u32 count and a handful of u64 values.
constexpr std::size_t kMaxReplyBytes = 2 + 4 + WireReader::kMaxStringBytes;

}  // namespace

// ------------------------------------------------------ ClientConnection ---

ClientConnection::ClientConnection(ClientConnection&& other) noexcept
    : fd_(std::exchange(other.fd_, -1)),
      session_(other.session_),
      next_seq_(other.next_seq_),
      bytes_sent_(other.bytes_sent_) {}

ClientConnection& ClientConnection::operator=(
    ClientConnection&& other) noexcept {
  if (this != &other) {
    Close();
    fd_ = std::exchange(other.fd_, -1);
    session_ = other.session_;
    next_seq_ = other.next_seq_;
    bytes_sent_ = other.bytes_sent_;
  }
  return *this;
}

void ClientConnection::Close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

serve::Result<ClientConnection> ClientConnection::ConnectUds(
    const std::string& path) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (path.size() >= sizeof(addr.sun_path)) {
    return serve::Error{serve::ErrorCode::kInvalidArgument,
                        "UDS path '" + path + "' exceeds sockaddr_un"};
  }
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  const int fd = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) return Errno("socket(AF_UNIX)");
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                sizeof(addr)) < 0) {
    const serve::Error error = Errno("connect '" + path + "'");
    ::close(fd);
    return error;
  }
  return ClientConnection(fd);
}

serve::Result<ClientConnection> ClientConnection::ConnectTcp(
    const std::string& host, std::uint16_t port) {
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    return serve::Error{serve::ErrorCode::kInvalidArgument,
                        "'" + host + "' is not an IPv4 address"};
  }
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) return Errno("socket(AF_INET)");
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                sizeof(addr)) < 0) {
    const serve::Error error =
        Errno("connect " + host + ":" + std::to_string(port));
    ::close(fd);
    return error;
  }
  return ClientConnection(fd);
}

serve::Result<bool> ClientConnection::WriteFrame(
    FrameHeader header, std::span<const std::uint8_t> payload) {
  if (fd_ < 0) {
    return serve::Error{serve::ErrorCode::kInvalidArgument,
                        "connection is closed"};
  }
  header.payload_length = static_cast<std::uint32_t>(payload.size());
  header.payload_crc32 = Crc32(payload);
  const std::array<std::uint8_t, FrameHeader::kBytes> head =
      EncodeHeader(header);
  // Header and payload go out in one sendmsg; after a partial write the
  // iovecs are advanced past what was sent and the rest is resent.
  iovec parts[2] = {
      {const_cast<std::uint8_t*>(head.data()), head.size()},
      {const_cast<std::uint8_t*>(payload.data()), payload.size()}};
  std::size_t first = 0;  // first part with bytes left
  std::size_t left = head.size() + payload.size();
  while (left > 0) {
    msghdr message{};
    message.msg_iov = parts + first;
    message.msg_iovlen = 2 - first;
    const ssize_t n = ::sendmsg(fd_, &message, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return Errno("sendmsg");
    }
    auto sent = static_cast<std::size_t>(n);
    left -= sent;
    while (sent > 0 && sent >= parts[first].iov_len) {
      sent -= parts[first].iov_len;
      ++first;
    }
    if (sent > 0) {
      parts[first].iov_base =
          static_cast<std::uint8_t*>(parts[first].iov_base) + sent;
      parts[first].iov_len -= sent;
    }
  }
  bytes_sent_ += head.size() + payload.size();
  return true;
}

serve::Result<Frame> ClientConnection::ReadReply() {
  const auto read_exact = [this](std::uint8_t* out,
                                 std::size_t size) -> serve::Result<bool> {
    std::size_t got = 0;
    while (got < size) {
      const ssize_t n = ::recv(fd_, out + got, size - got, 0);
      if (n == 0) {
        return serve::Error{serve::ErrorCode::kTruncatedFrame,
                            "server closed mid-reply"};
      }
      if (n < 0) {
        if (errno == EINTR) continue;
        return Errno("recv");
      }
      got += static_cast<std::size_t>(n);
    }
    return true;
  };
  std::uint8_t header_bytes[FrameHeader::kBytes];
  serve::Result<bool> io = read_exact(header_bytes, sizeof(header_bytes));
  if (!io.ok()) return io.error();
  serve::Result<FrameHeader> header =
      DecodeHeader({header_bytes, sizeof(header_bytes)});
  if (!header.ok()) return header.error();
  // The length is the peer's claim: refuse one no reply can have before
  // allocating for it.
  if (header.value().payload_length > kMaxReplyBytes) {
    return serve::Error{serve::ErrorCode::kOversizedFrame,
                        "reply claims " +
                            std::to_string(header.value().payload_length) +
                            " payload bytes; the largest reply has " +
                            std::to_string(kMaxReplyBytes)};
  }
  Frame frame;
  frame.header = header.value();
  frame.payload.resize(frame.header.payload_length);
  if (!frame.payload.empty()) {
    io = read_exact(frame.payload.data(), frame.payload.size());
    if (!io.ok()) return io.error();
  }
  if (Crc32(frame.payload) != frame.header.payload_crc32) {
    return serve::Error{serve::ErrorCode::kCrcMismatch,
                        "reply payload CRC32 mismatch"};
  }
  return frame;
}

serve::Result<std::vector<std::uint64_t>> ClientConnection::Roundtrip(
    FrameType type, std::span<const std::uint8_t> payload) {
  FrameHeader header;
  header.type = type;
  header.seq = next_seq_++;
  header.session = session_;
  const serve::Result<bool> sent = WriteFrame(header, payload);
  if (!sent.ok()) return sent.error();
  serve::Result<Frame> reply = ReadReply();
  if (!reply.ok()) return reply.error();
  if (reply.value().header.seq != header.seq) {
    return serve::Error{serve::ErrorCode::kInvalidArgument,
                        "reply seq does not echo the request"};
  }
  WireReader reader(reply.value().payload);
  if (reply.value().header.type == FrameType::kError) {
    std::uint16_t code = 0;
    std::string message;
    if (!reader.U16(code) || !reader.String(message)) {
      return serve::Error{serve::ErrorCode::kMalformedPayload,
                          "ERROR reply payload malformed"};
    }
    return serve::Error{static_cast<serve::ErrorCode>(code),
                        std::move(message)};
  }
  if (reply.value().header.type != FrameType::kAck) {
    return serve::Error{serve::ErrorCode::kUnknownFrameType,
                        "reply is neither ACK nor ERROR"};
  }
  std::uint32_t count = 0;
  if (!reader.U32(count)) {
    return serve::Error{serve::ErrorCode::kMalformedPayload,
                        "ACK payload malformed"};
  }
  std::vector<std::uint64_t> values(count);
  for (std::uint32_t i = 0; i < count; ++i) {
    if (!reader.U64(values[i])) {
      return serve::Error{serve::ErrorCode::kMalformedPayload,
                          "ACK payload truncated"};
    }
  }
  return values;
}

serve::Result<std::uint64_t> ClientConnection::Hello(
    std::string_view tenant, std::string_view token) {
  WireWriter payload;
  payload.String(tenant);
  payload.String(token);
  serve::Result<std::vector<std::uint64_t>> values =
      Roundtrip(FrameType::kHello, payload.bytes());
  if (!values.ok()) return values.error();
  if (values.value().size() != 1) {
    return serve::Error{serve::ErrorCode::kMalformedPayload,
                        "HELLO ack carries no session id"};
  }
  session_ = values.value()[0];
  return session_;
}

serve::Result<std::uint64_t> ClientConnection::BindStream(
    std::string_view domain, std::string_view stream) {
  WireWriter payload;
  payload.String(domain);
  payload.String(stream);
  serve::Result<std::vector<std::uint64_t>> values =
      Roundtrip(FrameType::kBindStream, payload.bytes());
  if (!values.ok()) return values.error();
  if (values.value().size() != 1) {
    return serve::Error{serve::ErrorCode::kMalformedPayload,
                        "BIND ack carries no binding id"};
  }
  return values.value()[0];
}

serve::Result<bool> ClientConnection::SendEncoded(
    std::uint64_t binding, std::string_view domain, std::uint32_t count,
    std::span<const std::uint8_t> payload, double hint) {
  FrameHeader header;
  header.type = FrameType::kData;
  header.seq = next_seq_++;
  header.session = session_;
  header.stream = binding;
  header.set_domain_tag(domain);
  header.count = count;
  header.set_hint(hint);
  return WriteFrame(header, payload);
}

serve::Result<bool> ClientConnection::SendBatch(
    const PayloadCodec& codec, std::uint64_t binding,
    std::span<const serve::AnyExample> batch, double hint) {
  const std::vector<std::uint8_t> payload = EncodeBatch(codec, batch);
  return SendEncoded(binding, codec.domain,
                     static_cast<std::uint32_t>(batch.size()), payload,
                     hint);
}

serve::Result<bool> ClientConnection::Flush() {
  WireWriter payload;
  serve::Result<std::vector<std::uint64_t>> values =
      Roundtrip(FrameType::kFlush, payload.bytes());
  if (!values.ok()) return values.error();
  return true;
}

serve::Result<std::vector<std::uint64_t>> ClientConnection::Stats() {
  WireWriter payload;
  serve::Result<std::vector<std::uint64_t>> values =
      Roundtrip(FrameType::kStats, payload.bytes());
  if (!values.ok()) return values.error();
  if (values.value().size() != 8) {
    return serve::Error{serve::ErrorCode::kMalformedPayload,
                        "STATS ack does not carry 8 counters"};
  }
  return values;
}

serve::Result<bool> ClientConnection::Goodbye() {
  WireWriter payload;
  serve::Result<std::vector<std::uint64_t>> values =
      Roundtrip(FrameType::kGoodbye, payload.bytes());
  Close();
  if (!values.ok()) return values.error();
  return true;
}

// ------------------------------------------------------------- synthetics ---

serve::Result<serve::AnyExample> MakeSyntheticExample(
    std::string_view domain, std::size_t index) {
  // The shared generator module owns the definition so the load client,
  // harness, bench, and trace recorder all emit identical synthetics.
  return common::MakeSyntheticExample(domain, index);
}

// ------------------------------------------------------------ load client ---

namespace {

serve::Result<ClientConnection> ConnectPer(const LoadClientOptions& options) {
  if (!options.uds_path.empty()) {
    return ClientConnection::ConnectUds(options.uds_path);
  }
  return ClientConnection::ConnectTcp(options.tcp_host, options.tcp_port);
}

/// One connection's worth of work, run on its own thread.
struct ConnectionDrive {
  ClientConnection conn;
  const LoadStreamSpec* spec = nullptr;
  std::vector<std::uint8_t> payload;  ///< pre-encoded batch template
  std::uint32_t batch = 0;
  std::size_t frames = 0;
  std::uint64_t offered = 0;
  bool failed = false;
  std::string failure;
};

}  // namespace

serve::Result<LoadReport> RunLoadClient(const LoadClientOptions& options,
                                        const serve::DomainRegistry& domains) {
  if (options.streams.empty()) {
    return serve::Error{serve::ErrorCode::kInvalidArgument,
                        "load client needs at least one stream spec"};
  }
  if (options.connections == 0 || options.batch == 0) {
    return serve::Error{serve::ErrorCode::kInvalidArgument,
                        "load client needs connections >= 1 and batch >= 1"};
  }
  // Set everything up front — connect, authenticate, bind, pre-encode each
  // spec's batch payload — so the drive phase is pure sends and failures
  // surface before any load is offered.
  std::vector<ConnectionDrive> drives(options.connections);
  std::vector<std::uint64_t> bindings(options.connections, 0);
  for (std::size_t i = 0; i < options.connections; ++i) {
    ConnectionDrive& drive = drives[i];
    drive.spec = &options.streams[i % options.streams.size()];
    const PayloadCodec* codec = domains.CodecFor(drive.spec->domain);
    if (codec == nullptr) {
      return serve::Error{serve::ErrorCode::kUnknownDomain,
                          "domain '" + drive.spec->domain +
                              "' has no payload codec"};
    }
    serve::Result<ClientConnection> conn = ConnectPer(options);
    if (!conn.ok()) return conn.error();
    drive.conn = std::move(conn.value());
    serve::Result<std::uint64_t> session =
        drive.conn.Hello(drive.spec->tenant, drive.spec->token);
    if (!session.ok()) return session.error();
    serve::Result<std::uint64_t> binding =
        drive.conn.BindStream(drive.spec->domain, drive.spec->stream);
    if (!binding.ok()) return binding.error();
    bindings[i] = binding.value();
    std::vector<serve::AnyExample> batch;
    batch.reserve(options.batch);
    for (std::size_t j = 0; j < options.batch; ++j) {
      serve::Result<serve::AnyExample> example =
          MakeSyntheticExample(drive.spec->domain, i * options.batch + j);
      if (!example.ok()) return example.error();
      batch.push_back(std::move(example.value()));
    }
    drive.payload = EncodeBatch(*codec, batch);
    drive.batch = static_cast<std::uint32_t>(options.batch);
    drive.frames = std::max<std::size_t>(
        1, options.examples_per_connection / options.batch);
  }

  const std::uint64_t start_ns = obs::Clock::NowNs();
  std::vector<std::thread> threads;
  threads.reserve(options.connections);
  for (std::size_t i = 0; i < options.connections; ++i) {
    threads.emplace_back([&, i] {
      ConnectionDrive& drive = drives[i];
      const double interval_s =
          options.rate_eps > 0.0
              ? static_cast<double>(options.batch) / options.rate_eps
              : 0.0;
      std::uint64_t next_ns = obs::Clock::NowNs();
      for (std::size_t f = 0; f < drive.frames; ++f) {
        if (interval_s > 0.0) {
          const std::uint64_t now_ns = obs::Clock::NowNs();
          if (next_ns > now_ns) {
            std::this_thread::sleep_for(
                std::chrono::nanoseconds(next_ns - now_ns));
          }
          next_ns += static_cast<std::uint64_t>(interval_s * 1e9);
        }
        const serve::Result<bool> sent = drive.conn.SendEncoded(
            bindings[i], drive.spec->domain, drive.batch, drive.payload,
            drive.spec->hint);
        if (!sent.ok()) {
          drive.failed = true;
          drive.failure = sent.error().message;
          return;
        }
        drive.offered += drive.batch;
      }
      // Per-connection FLUSH: its ACK proves every DATA frame this
      // connection sent was processed (the server handles one connection's
      // frames in order), so the later STATS pass races with nothing.
      const serve::Result<bool> flushed = drive.conn.Flush();
      if (!flushed.ok()) {
        drive.failed = true;
        drive.failure = flushed.error().message;
      }
    });
  }
  for (std::thread& thread : threads) thread.join();

  LoadReport report;
  report.elapsed_seconds =
      obs::Clock::ToSeconds(obs::Clock::ElapsedNs(start_ns, obs::Clock::NowNs()));
  for (ConnectionDrive& drive : drives) {
    report.offered += drive.offered;
    report.wire_bytes += drive.conn.bytes_sent();
    if (drive.failed) ++report.connection_errors;
  }
  if (options.verify && report.connection_errors == 0) {
    serve::Result<std::vector<std::uint64_t>> stats = drives[0].conn.Stats();
    if (!stats.ok()) return stats.error();
    const std::vector<std::uint64_t>& values = stats.value();
    report.server_offered = values[0];
    report.server_admitted = values[1];
    report.server_quota_rejected = values[2];
    report.server_decode_errors = values[3];
    report.scored = values[4];
    report.shed = values[5];
    report.dropped = values[6];
    report.errored = values[7];
    report.reconciled =
        report.server_offered == report.offered &&
        report.offered == report.scored + report.shed + report.dropped +
                              report.errored + report.server_quota_rejected +
                              report.server_decode_errors;
  }
  for (ConnectionDrive& drive : drives) {
    if (drive.conn.connected()) {
      (void)drive.conn.Goodbye();
    }
  }
  return report;
}

}  // namespace omg::net
