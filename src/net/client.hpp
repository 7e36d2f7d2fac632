// net wire clients: a blocking per-connection client and a paced
// multi-connection load generator.
//
// ClientConnection speaks the docs/WIRE_PROTOCOL.md frame vocabulary over
// one TCP or UDS connection with blocking I/O: control calls (Hello, Bind,
// Flush, Stats, Goodbye) send one frame and wait for the matching ACK/ERROR
// (matched by echoed seq); DATA sends are fire-and-forget. Every failure is
// a typed serve::Result error — an ERROR reply surfaces as its wire code.
//
// RunLoadClient drives an IngestServer the way the saturation bench drives
// the in-process facade: N concurrent connections, each bound to one
// stream spec (round-robin), each offering examples at a paced rate in
// fixed-size batches, then a FLUSH + STATS pass that checks the wire
// accounting identity:
//
//   offered == scored + shed + dropped + errored
//              + quota_rejected + decode_errors
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "net/codec.hpp"
#include "net/wire.hpp"
#include "serve/any_example.hpp"
#include "serve/result.hpp"

namespace omg::serve {
class DomainRegistry;
}  // namespace omg::serve

namespace omg::net {

/// One blocking wire connection; see the file comment. Move-only; the
/// destructor closes the socket.
class ClientConnection {
 public:
  ClientConnection() = default;
  ~ClientConnection() { Close(); }
  ClientConnection(ClientConnection&& other) noexcept;
  ClientConnection& operator=(ClientConnection&& other) noexcept;
  ClientConnection(const ClientConnection&) = delete;
  ClientConnection& operator=(const ClientConnection&) = delete;

  /// Connects to an IngestServer's Unix-domain socket.
  static serve::Result<ClientConnection> ConnectUds(const std::string& path);
  /// Connects to an IngestServer's TCP listener.
  static serve::Result<ClientConnection> ConnectTcp(const std::string& host,
                                                    std::uint16_t port);

  /// Authenticates as `tenant`; returns the server-assigned session id.
  serve::Result<std::uint64_t> Hello(std::string_view tenant,
                                     std::string_view token);

  /// Binds exposed stream `stream` of `domain`; returns the binding id to
  /// put in DATA headers.
  serve::Result<std::uint64_t> BindStream(std::string_view domain,
                                          std::string_view stream);

  /// Sends one DATA frame from a pre-encoded payload (fire-and-forget;
  /// success means the bytes were written, not that the server admitted
  /// them — see Stats()). `count` must match the payload's example count.
  serve::Result<bool> SendEncoded(std::uint64_t binding,
                                  std::string_view domain,
                                  std::uint32_t count,
                                  std::span<const std::uint8_t> payload,
                                  double hint = 0.0);

  /// Encodes `batch` with `codec` and sends it as one DATA frame.
  serve::Result<bool> SendBatch(const PayloadCodec& codec,
                                std::uint64_t binding,
                                std::span<const serve::AnyExample> batch,
                                double hint = 0.0);

  /// Drains the server's monitor (server-side Monitor::Flush), then ACKs.
  serve::Result<bool> Flush();

  /// Flushes, then returns the server's 8 accounting counters:
  /// [offered, admitted, quota_rejected, decode_errors,
  ///  scored, shed, dropped, errored] (examples).
  serve::Result<std::vector<std::uint64_t>> Stats();

  /// Orderly shutdown: GOODBYE, await the ACK, close.
  serve::Result<bool> Goodbye();

  /// Closes the socket (idempotent; in-flight frames are abandoned).
  void Close();

  bool connected() const { return fd_ >= 0; }
  /// Total frame bytes written (headers included).
  std::uint64_t bytes_sent() const { return bytes_sent_; }

 private:
  explicit ClientConnection(int fd) : fd_(fd) {}

  /// Sends `header` (payload length and CRC filled in) and `payload` as one
  /// frame, blocking until every byte is written.
  serve::Result<bool> WriteFrame(FrameHeader header,
                                 std::span<const std::uint8_t> payload);
  /// Reads one whole reply frame (blocking). A claimed payload longer than
  /// any reply is kOversizedFrame, refused before allocating.
  serve::Result<Frame> ReadReply();
  /// Sends a control frame and decodes the matching ACK's values (an ERROR
  /// reply becomes its typed error).
  serve::Result<std::vector<std::uint64_t>> Roundtrip(
      FrameType type, std::span<const std::uint8_t> payload);

  int fd_ = -1;
  std::uint64_t session_ = 0;
  std::uint64_t next_seq_ = 1;
  std::uint64_t bytes_sent_ = 0;
};

/// One stream a load connection drives.
struct LoadStreamSpec {
  std::string tenant;
  std::string token;
  std::string stream;  ///< exposed stream name
  std::string domain;  ///< the stream's domain tag
  double hint = 0.0;   ///< DATA severity hint
};

/// RunLoadClient configuration.
struct LoadClientOptions {
  /// Connect target: UDS when `uds_path` is set, else TCP.
  std::string uds_path;
  std::string tcp_host = "127.0.0.1";
  std::uint16_t tcp_port = 0;
  /// Stream specs; connection i drives streams[i % streams.size()].
  std::vector<LoadStreamSpec> streams;
  std::size_t connections = 1;
  /// Offered examples/second per connection (0 = unpaced, send flat out).
  double rate_eps = 0.0;
  /// Examples per DATA frame.
  std::size_t batch = 32;
  /// Examples offered per connection (rounded down to whole batches,
  /// minimum one batch).
  std::size_t examples_per_connection = 1024;
  /// After the drive: FLUSH everywhere, STATS once, check the identity.
  bool verify = true;
};

/// What a load run did and what the server said about it.
struct LoadReport {
  std::uint64_t offered = 0;     ///< client-side examples sent
  std::uint64_t wire_bytes = 0;  ///< frame bytes written (all connections)
  double elapsed_seconds = 0.0;
  std::uint64_t connection_errors = 0;  ///< connections that died mid-run

  // Server STATS counters (zeros when verify was off).
  std::uint64_t server_offered = 0;
  std::uint64_t server_admitted = 0;
  std::uint64_t server_quota_rejected = 0;
  std::uint64_t server_decode_errors = 0;
  std::uint64_t scored = 0;
  std::uint64_t shed = 0;
  std::uint64_t dropped = 0;
  std::uint64_t errored = 0;

  /// True when offered == scored + shed + dropped + errored +
  /// quota_rejected + decode_errors held exactly.
  bool reconciled = false;
};

/// Drives a server per `options`; see the file comment. Fails fast (typed)
/// when no connection can be established or a spec names a domain without
/// a codec.
serve::Result<LoadReport> RunLoadClient(const LoadClientOptions& options,
                                        const serve::DomainRegistry& domains);

/// Deterministic synthetic example for `domain` ("video", "av", "ecg",
/// "tvnews"), varying with `index`. kUnknownDomain for anything else.
/// Forwards to common::MakeSyntheticExample (src/common/example_gen.hpp),
/// the shared definition all synthetic producers draw from.
serve::Result<serve::AnyExample> MakeSyntheticExample(std::string_view domain,
                                                      std::size_t index);

}  // namespace omg::net
