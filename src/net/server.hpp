// net::IngestServer — the multi-tenant network front door of the facade.
//
// One IngestServer turns a serve::Monitor into a network service: frames
// arrive over TCP (loopback) and/or a Unix-domain socket, are reassembled
// per connection (net::FrameAssembler), decoded through the domain
// registry's payload codecs, and handed straight to Monitor::ObserveBatch.
// Received bytes are copied once, from the stack recv buffer into the
// connection's assembler; each frame's payload is a view into that buffer,
// valid until the next recv slice is fed, and is decoded from there
// straight into the batch's AnyExample holders. A DATA frame allocates
// nothing but that batch: the codec is resolved once per BIND and the
// tenant's metric keys once per tenant.
//
// Threading: one acceptor thread owns the listening sockets; N handler
// threads each run an epoll loop over their share of the connections
// (round-robin assignment at accept). All monitor calls happen on handler
// threads; replies are buffered per connection and drained under EPOLLOUT.
//
// Sessions and tenants: a connection must HELLO (tenant name + token)
// before binding streams or sending DATA. Configured tenants get token
// authentication and a token-bucket admission quota enforced *before* the
// monitor's shard queues; a DATA frame whose severity hint clears the
// tenant's shed floor rides through an exhausted quota (important traffic
// is never quota-shed). A server constructed with no tenants is *open*:
// any well-formed tenant name is accepted and nothing is quota-limited,
// but per-tenant accounting still applies.
//
// Accounting: every offered example lands in exactly one counter —
//   offered == admitted + monitor_shed + quota_rejected + decode_errors
// per tenant at the wire, and the monitor's own identity covers the
// admitted share (scored + dropped + errored + shed). Per-tenant counters
// are mirrored into the monitor's metrics registry under
// "tenant/<name>/<outcome>" named keys, which the Prometheus exporter
// renders as one tenant/outcome-labeled family.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "common/mutex.hpp"
#include "net/wire.hpp"
#include "serve/monitor.hpp"
#include "serve/result.hpp"

namespace omg::serve {
class DomainRegistry;
}  // namespace omg::serve

namespace omg::net {

/// One tenant's authentication and admission contract.
struct TenantOptions {
  /// Tenant id; must satisfy ValidTenantName (it becomes a metrics label).
  std::string name;
  /// Shared secret checked at HELLO (empty = no token required).
  std::string token;
  /// Admission quota, examples per second (0 = unlimited).
  double quota_eps = 0.0;
  /// Token-bucket burst capacity in examples (0 = one second of quota).
  double burst = 0.0;
  /// DATA frames with a severity hint >= this floor bypass an exhausted
  /// quota. The default (infinity, set at construction) never bypasses.
  double shed_floor = 0.0;
  /// True when shed_floor was explicitly configured.
  bool has_shed_floor = false;
};

/// Server construction options.
struct IngestServerOptions {
  /// Unix-domain socket path (empty = no UDS listener). An existing socket
  /// file at the path is replaced.
  std::string uds_path;
  /// Also listen on loopback TCP.
  bool tcp = false;
  /// TCP port (0 = ephemeral; read the bound port off Start()'s result).
  std::uint16_t tcp_port = 0;
  /// Connection-handler threads (each an epoll loop).
  std::size_t handler_threads = 2;
  /// Largest accepted frame payload, bytes.
  std::size_t max_frame_bytes = 4u << 20;
  /// Tenant roster; empty = open server (see the file comment).
  std::vector<TenantOptions> tenants;
};

/// Where a started server is reachable.
struct ServerEndpoints {
  std::string uds_path;     ///< empty when no UDS listener
  std::uint16_t tcp_port = 0;  ///< 0 when no TCP listener
};

/// One tenant's wire-level counters (examples).
struct TenantStats {
  std::uint64_t offered = 0;         ///< examples in received DATA frames
  std::uint64_t admitted = 0;        ///< handed to the monitor and queued
  std::uint64_t shed = 0;            ///< monitor admission shed (kShed)
  std::uint64_t quota_rejected = 0;  ///< refused by the tenant quota
  std::uint64_t decode_errors = 0;   ///< lost to malformed/corrupt frames
};

/// Point-in-time server counters.
struct IngestServerStats {
  std::uint64_t connections_seen = 0;
  std::uint64_t connections_active = 0;
  std::uint64_t frames = 0;  ///< complete frames received (all types)
  /// Whole-server totals (includes pre-HELLO traffic no tenant owns).
  TenantStats totals;
  std::map<std::string, TenantStats> tenants;
};

/// The epoll-based TCP/UDS ingestion server; see the file comment.
class IngestServer {
 public:
  /// `monitor` and `domains` must outlive the server. Tenant options are
  /// validated here (names, quotas); violations throw CheckError.
  IngestServer(IngestServerOptions options, serve::Monitor& monitor,
               const serve::DomainRegistry& domains);
  /// Stops the server (idempotent with Stop).
  ~IngestServer();

  IngestServer(const IngestServer&) = delete;
  IngestServer& operator=(const IngestServer&) = delete;

  /// Makes a registered monitor stream bindable over the wire as
  /// `handle.name()`. A non-empty `tenant` restricts binding to that
  /// tenant (other tenants see kUnknownStream). Call before Start().
  void ExposeStream(const serve::StreamHandle& handle,
                    std::string tenant = {});

  /// Binds the listeners and spawns the acceptor + handler threads.
  /// Socket-layer failures (path too long, port busy) are typed
  /// kInvalidArgument errors, not aborts.
  serve::Result<ServerEndpoints> Start();

  /// Closes the listeners, drains the handler threads, and closes every
  /// connection. Idempotent; called by the destructor.
  void Stop();

  /// Point-in-time counters (callable while serving).
  IngestServerStats Stats() const;

  /// True when `name` is a legal tenant id: [A-Za-z0-9_-]{1,64}. Legal
  /// names need no escaping anywhere they surface (metrics labels, named
  /// counter keys, trace args).
  static bool ValidTenantName(std::string_view name);

 private:
  struct TenantState;
  struct ExposedStream;
  struct Connection;
  struct Handler;

  void AcceptLoop();
  void HandlerLoop(Handler& handler);
  /// Accepts everything pending on `listen_fd`, assigning connections to
  /// handlers round-robin.
  void DrainAccept(int listen_fd, bool uds);
  /// Adopts connections queued on `handler` into its epoll set.
  void AdoptPending(Handler& handler);
  /// Reads until EAGAIN, reassembling and processing frames. Returns false
  /// when the connection must close.
  bool HandleReadable(Handler& handler, Connection& conn);
  /// Dispatches one complete frame. Returns false to close the connection.
  bool ProcessFrame(Handler& handler, Connection& conn,
                    const FrameView& frame);
  bool OnHello(Handler& handler, Connection& conn, const FrameView& frame);
  bool OnBindStream(Handler& handler, Connection& conn,
                    const FrameView& frame);
  void OnData(Connection& conn, const FrameView& frame);
  /// Queues a reply frame and tries to flush it. Returns false when the
  /// connection broke mid-write.
  bool SendFrame(Handler& handler, Connection& conn, FrameType type,
                 std::uint64_t seq, std::span<const std::uint64_t> values,
                 const serve::Error* error);
  /// Writes buffered outbound bytes; arms/disarms EPOLLOUT as needed.
  bool FlushOutbound(Handler& handler, Connection& conn);
  void CloseConnection(Handler& handler, Connection& conn);
  /// Where an offered example ended up, wire-side. Indexes the tenant's
  /// named-metric keys.
  enum class WireOutcome {
    kOffered,
    kAdmitted,
    kShed,
    kQuotaRejected,
    kDecodeError,
  };
  /// Bumps the global counter, the connection's tenant counter, and the
  /// monitor's "tenant/<name>/<outcome>" named metric.
  void Account(Connection& conn, WireOutcome outcome, std::uint64_t examples);
  /// Account(kDecodeError) plus a kWireReject trace carrying `code` — the
  /// path for examples lost to malformed frames or refused batches.
  void AccountReject(Connection& conn, std::uint64_t examples,
                     serve::ErrorCode code);
  /// Resolves (open servers: creates) the tenant for a HELLO.
  TenantState* ResolveTenant(const std::string& name);

  IngestServerOptions options_;
  serve::Monitor& monitor_;
  const serve::DomainRegistry& domains_;

  mutable Mutex tenants_mutex_;  ///< map shape (open-server inserts)
  std::map<std::string, std::unique_ptr<TenantState>> tenants_
      OMG_GUARDED_BY(tenants_mutex_);
  /// Written only before Start() (ExposeStream checks), read lock-free by
  /// handler threads afterwards — immutable-after-start, so unguarded.
  std::map<std::string, ExposedStream> streams_;

  std::vector<std::unique_ptr<Handler>> handlers_;
  std::thread acceptor_;
  int uds_listen_fd_ = -1;
  int tcp_listen_fd_ = -1;
  int stop_event_fd_ = -1;  ///< wakes the acceptor
  bool started_ = false;
  std::atomic<bool> stopping_{false};

  std::atomic<std::uint64_t> next_conn_id_{1};
  std::atomic<std::uint64_t> next_session_{1};
  std::atomic<std::uint64_t> connections_seen_{0};
  std::atomic<std::uint64_t> connections_active_{0};
  std::atomic<std::uint64_t> frames_{0};
  std::atomic<std::size_t> next_handler_{0};

  // Wire-outcome totals (cover pre-HELLO traffic no tenant owns).
  std::atomic<std::uint64_t> offered_{0};
  std::atomic<std::uint64_t> admitted_{0};
  std::atomic<std::uint64_t> shed_{0};
  std::atomic<std::uint64_t> quota_rejected_{0};
  std::atomic<std::uint64_t> decode_errors_{0};

  std::shared_ptr<obs::Tracer> tracer_;  ///< cached off the monitor
};

}  // namespace omg::net
