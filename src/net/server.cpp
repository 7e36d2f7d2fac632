#include "net/server.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cerrno>
#include <cstring>
#include <iterator>
#include <limits>
#include <utility>

#include "common/check.hpp"
#include "net/codec.hpp"
#include "obs/clock.hpp"
#include "serve/domain_registry.hpp"

namespace omg::net {

namespace {

serve::Error Errno(serve::ErrorCode code, const std::string& what) {
  return serve::Error{code, what + ": " + std::strerror(errno)};
}

/// Transport tag for kConnOpen traces.
constexpr std::uint64_t kTransportTcp = 0;
constexpr std::uint64_t kTransportUds = 1;

/// The <outcome> of "tenant/<name>/<outcome>" metric keys, in WireOutcome
/// order.
constexpr const char* kOutcomeNames[] = {"offered", "admitted", "shed",
                                         "quota_rejected", "decode_errors"};

}  // namespace

// ------------------------------------------------------------- internals ---

/// Shared across every connection of one tenant: the token bucket is one
/// budget however many connections the tenant spreads its load over.
struct IngestServer::TenantState {
  static_assert(std::size(kOutcomeNames) ==
                    static_cast<std::size_t>(WireOutcome::kDecodeError) + 1,
                "one metric key per WireOutcome");

  explicit TenantState(TenantOptions options_in)
      : options(std::move(options_in)) {
    for (std::size_t i = 0; i < metric_keys.size(); ++i) {
      metric_keys[i] = "tenant/" + options.name + "/" + kOutcomeNames[i];
    }
  }

  TenantOptions options;
  /// The "tenant/<name>/<outcome>" named-metric keys, indexed by
  /// WireOutcome and built once, so accounting a frame builds no string.
  std::array<std::string, std::size(kOutcomeNames)> metric_keys;
  Mutex mutex;
  double tokens OMG_GUARDED_BY(mutex) = 0.0;
  std::uint64_t last_refill_ns OMG_GUARDED_BY(mutex) = 0;
  TenantStats stats OMG_GUARDED_BY(mutex);

  /// Refills by elapsed time, then tries to spend `examples` tokens.
  /// `hint` >= the tenant's shed floor bypasses an exhausted bucket (the
  /// bucket is drained to zero so the bypass still consumes budget).
  bool Admit(std::uint64_t examples, double hint) {
    if (options.quota_eps <= 0.0) return true;  // unlimited
    MutexLock lock(mutex);
    const std::uint64_t now = obs::Clock::NowNs();
    const double burst =
        options.burst > 0.0 ? options.burst : options.quota_eps;
    if (last_refill_ns == 0) {
      // A fresh bucket starts full so a new tenant can burst immediately.
      last_refill_ns = now;
      tokens = burst;
    }
    tokens = std::min(
        burst, tokens + obs::Clock::ToSeconds(now - last_refill_ns) *
                            options.quota_eps);
    last_refill_ns = now;
    const double cost = static_cast<double>(examples);
    if (tokens >= cost) {
      tokens -= cost;
      return true;
    }
    if (options.has_shed_floor && hint >= options.shed_floor) {
      tokens = 0.0;
      return true;
    }
    return false;
  }
};

/// One wire-bindable monitor stream.
struct IngestServer::ExposedStream {
  serve::StreamHandle handle;
  std::string tenant;  ///< empty = bindable by any tenant
};

/// Per-connection state, owned by exactly one handler thread.
struct IngestServer::Connection {
  Connection(int fd_in, std::uint64_t id_in, bool uds_in,
             std::size_t max_frame_bytes)
      : fd(fd_in), id(id_in), uds(uds_in), assembler(max_frame_bytes) {}

  int fd;
  std::uint64_t id;
  bool uds;
  FrameAssembler assembler;

  /// One BIND: the stream and its domain's codec (null when the domain
  /// has none), resolved once so DATA frames look neither up by name.
  struct Binding {
    const ExposedStream* stream;
    const PayloadCodec* codec;
  };

  bool authenticated = false;
  std::uint64_t session = 0;
  TenantState* tenant = nullptr;
  /// Binding id i + 1 is bindings[i]; ids are handed out in BIND order.
  std::vector<Binding> bindings;

  std::vector<std::uint8_t> outbound;
  std::size_t outbound_sent = 0;
  bool write_armed = false;
  bool closing = false;  ///< GOODBYE acked; close once outbound drains

  std::uint64_t frames = 0;
};

/// One handler thread's world: its epoll set, its wake eventfd, and the
/// connections it owns. Connections are handed over through `pending`.
struct IngestServer::Handler {
  int epoll_fd = -1;
  int wake_fd = -1;
  std::thread thread;
  Mutex pending_mutex;
  std::vector<std::unique_ptr<Connection>> pending
      OMG_GUARDED_BY(pending_mutex);
  std::map<int, std::unique_ptr<Connection>> connections;
};

// ----------------------------------------------------------- construction ---

IngestServer::IngestServer(IngestServerOptions options,
                           serve::Monitor& monitor,
                           const serve::DomainRegistry& domains)
    : options_(std::move(options)),
      monitor_(monitor),
      domains_(domains),
      tracer_(monitor.tracer()) {
  common::Check(options_.handler_threads >= 1,
                "ingest server needs at least one handler thread");
  common::Check(options_.max_frame_bytes > 0,
                "ingest server needs a positive frame limit");
  for (TenantOptions& tenant : options_.tenants) {
    common::Check(ValidTenantName(tenant.name),
                  "invalid tenant name '" + tenant.name +
                      "' (want [A-Za-z0-9_-]{1,64})");
    common::Check(tenant.quota_eps >= 0.0 && tenant.burst >= 0.0,
                  "tenant '" + tenant.name + "' has a negative quota");
    if (!tenant.has_shed_floor) {
      tenant.shed_floor = std::numeric_limits<double>::infinity();
    }
    auto state = std::make_unique<TenantState>(tenant);
    const bool inserted =
        tenants_.emplace(tenant.name, std::move(state)).second;
    common::Check(inserted, "duplicate tenant '" + tenant.name + "'");
  }
}

IngestServer::~IngestServer() { Stop(); }

bool IngestServer::ValidTenantName(std::string_view name) {
  if (name.empty() || name.size() > 64) return false;
  for (const char c : name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_' || c == '-';
    if (!ok) return false;
  }
  return true;
}

void IngestServer::ExposeStream(const serve::StreamHandle& handle,
                                std::string tenant) {
  common::Check(!started_, "ExposeStream must precede Start()");
  common::Check(handle.valid(), "cannot expose an invalid stream handle");
  MutexLock lock(tenants_mutex_);
  common::Check(tenant.empty() || tenants_.count(tenant) > 0 ||
                    options_.tenants.empty(),
                "stream '" + std::string(handle.name()) +
                    "' is restricted to undeclared tenant '" + tenant + "'");
  const std::string name(handle.name());
  const bool inserted =
      streams_.emplace(name, ExposedStream{handle, std::move(tenant)}).second;
  common::Check(inserted, "stream '" + name + "' exposed twice");
}

// ---------------------------------------------------------------- sockets ---

namespace {

serve::Result<int> MakeUdsListener(const std::string& path) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (path.size() >= sizeof(addr.sun_path)) {
    return serve::Error{serve::ErrorCode::kInvalidArgument,
                        "UDS path '" + path + "' exceeds sockaddr_un"};
  }
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  const int fd =
      ::socket(AF_UNIX, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
  if (fd < 0) {
    return Errno(serve::ErrorCode::kInvalidArgument, "socket(AF_UNIX)");
  }
  ::unlink(path.c_str());  // replace a stale socket file
  if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) <
          0 ||
      ::listen(fd, 128) < 0) {
    const serve::Error error =
        Errno(serve::ErrorCode::kInvalidArgument, "bind/listen '" + path +
                                                      "'");
    ::close(fd);
    return error;
  }
  return fd;
}

serve::Result<std::pair<int, std::uint16_t>> MakeTcpListener(
    std::uint16_t port) {
  const int fd =
      ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
  if (fd < 0) {
    return Errno(serve::ErrorCode::kInvalidArgument, "socket(AF_INET)");
  }
  const int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) <
          0 ||
      ::listen(fd, 128) < 0) {
    const serve::Error error = Errno(serve::ErrorCode::kInvalidArgument,
                                     "bind/listen 127.0.0.1:" +
                                         std::to_string(port));
    ::close(fd);
    return error;
  }
  sockaddr_in bound{};
  socklen_t bound_len = sizeof(bound);
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&bound), &bound_len) <
      0) {
    const serve::Error error =
        Errno(serve::ErrorCode::kInvalidArgument, "getsockname");
    ::close(fd);
    return error;
  }
  return std::pair<int, std::uint16_t>{fd, ntohs(bound.sin_port)};
}

void Wake(int event_fd) {
  const std::uint64_t one = 1;
  [[maybe_unused]] const ssize_t n = ::write(event_fd, &one, sizeof(one));
}

void DrainEventFd(int event_fd) {
  std::uint64_t value;
  while (::read(event_fd, &value, sizeof(value)) > 0) {
  }
}

}  // namespace

serve::Result<ServerEndpoints> IngestServer::Start() {
  if (started_) {
    return serve::Error{serve::ErrorCode::kInvalidArgument,
                        "ingest server already started"};
  }
  if (options_.uds_path.empty() && !options_.tcp) {
    return serve::Error{serve::ErrorCode::kInvalidArgument,
                        "ingest server needs a UDS path or tcp=true"};
  }
  ServerEndpoints endpoints;
  if (!options_.uds_path.empty()) {
    serve::Result<int> fd = MakeUdsListener(options_.uds_path);
    if (!fd.ok()) return fd.error();
    uds_listen_fd_ = fd.value();
    endpoints.uds_path = options_.uds_path;
  }
  if (options_.tcp) {
    serve::Result<std::pair<int, std::uint16_t>> bound =
        MakeTcpListener(options_.tcp_port);
    if (!bound.ok()) {
      Stop();
      return bound.error();
    }
    tcp_listen_fd_ = bound.value().first;
    endpoints.tcp_port = bound.value().second;
  }
  stop_event_fd_ = ::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC);
  common::Check(stop_event_fd_ >= 0, "eventfd failed");
  stopping_.store(false, std::memory_order_release);
  handlers_.clear();
  for (std::size_t i = 0; i < options_.handler_threads; ++i) {
    auto handler = std::make_unique<Handler>();
    handler->epoll_fd = ::epoll_create1(EPOLL_CLOEXEC);
    handler->wake_fd = ::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC);
    common::Check(handler->epoll_fd >= 0 && handler->wake_fd >= 0,
                  "epoll/eventfd setup failed");
    epoll_event event{};
    event.events = EPOLLIN;
    event.data.fd = handler->wake_fd;
    common::Check(::epoll_ctl(handler->epoll_fd, EPOLL_CTL_ADD,
                              handler->wake_fd, &event) == 0,
                  "epoll_ctl(wake) failed");
    handlers_.push_back(std::move(handler));
  }
  for (auto& handler : handlers_) {
    Handler* raw = handler.get();
    handler->thread = std::thread([this, raw] { HandlerLoop(*raw); });
  }
  acceptor_ = std::thread([this] { AcceptLoop(); });
  started_ = true;
  return endpoints;
}

void IngestServer::Stop() {
  if (stopping_.exchange(true, std::memory_order_acq_rel)) {
    // A concurrent or repeated Stop: wait for the first caller's joins by
    // serialising on the threads below only if we own them (we don't).
    return;
  }
  if (stop_event_fd_ >= 0) Wake(stop_event_fd_);
  for (auto& handler : handlers_) {
    if (handler->wake_fd >= 0) Wake(handler->wake_fd);
  }
  if (acceptor_.joinable()) acceptor_.join();
  for (auto& handler : handlers_) {
    if (handler->thread.joinable()) handler->thread.join();
    if (handler->epoll_fd >= 0) ::close(handler->epoll_fd);
    if (handler->wake_fd >= 0) ::close(handler->wake_fd);
  }
  handlers_.clear();
  if (uds_listen_fd_ >= 0) {
    ::close(uds_listen_fd_);
    uds_listen_fd_ = -1;
    ::unlink(options_.uds_path.c_str());
  }
  if (tcp_listen_fd_ >= 0) {
    ::close(tcp_listen_fd_);
    tcp_listen_fd_ = -1;
  }
  if (stop_event_fd_ >= 0) {
    ::close(stop_event_fd_);
    stop_event_fd_ = -1;
  }
  started_ = false;
}

// --------------------------------------------------------------- acceptor ---

void IngestServer::AcceptLoop() {
  const int epoll_fd = ::epoll_create1(EPOLL_CLOEXEC);
  common::Check(epoll_fd >= 0, "acceptor epoll_create1 failed");
  const auto watch = [epoll_fd](int fd) {
    if (fd < 0) return;
    epoll_event event{};
    event.events = EPOLLIN;
    event.data.fd = fd;
    common::Check(::epoll_ctl(epoll_fd, EPOLL_CTL_ADD, fd, &event) == 0,
                  "acceptor epoll_ctl failed");
  };
  watch(uds_listen_fd_);
  watch(tcp_listen_fd_);
  watch(stop_event_fd_);
  epoll_event events[8];
  while (!stopping_.load(std::memory_order_acquire)) {
    const int ready = ::epoll_wait(epoll_fd, events, 8, -1);
    if (ready < 0) {
      if (errno == EINTR) continue;
      break;
    }
    for (int i = 0; i < ready; ++i) {
      const int fd = events[i].data.fd;
      if (fd == stop_event_fd_) {
        DrainEventFd(stop_event_fd_);
        continue;  // loop condition sees stopping_
      }
      DrainAccept(fd, fd == uds_listen_fd_);
    }
  }
  ::close(epoll_fd);
}

void IngestServer::DrainAccept(int listen_fd, bool uds) {
  for (;;) {
    const int fd =
        ::accept4(listen_fd, nullptr, nullptr, SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd < 0) {
      if (errno == EINTR) continue;
      return;  // EAGAIN or a transient accept error: wait for epoll
    }
    const std::uint64_t id =
        next_conn_id_.fetch_add(1, std::memory_order_relaxed);
    connections_seen_.fetch_add(1, std::memory_order_relaxed);
    connections_active_.fetch_add(1, std::memory_order_relaxed);
    if (tracer_ != nullptr) {
      tracer_->EmitControl(obs::TraceEventKind::kConnOpen,
                           obs::TracePhase::kInstant,
                           obs::TraceEvent::kNoStream,
                           uds ? kTransportUds : kTransportTcp, id);
    }
    auto conn = std::make_unique<Connection>(fd, id, uds,
                                             options_.max_frame_bytes);
    Handler& handler =
        *handlers_[next_handler_.fetch_add(1, std::memory_order_relaxed) %
                   handlers_.size()];
    {
      MutexLock lock(handler.pending_mutex);
      handler.pending.push_back(std::move(conn));
    }
    Wake(handler.wake_fd);
  }
}

// --------------------------------------------------------------- handlers ---

void IngestServer::HandlerLoop(Handler& handler) {
  epoll_event events[64];
  while (!stopping_.load(std::memory_order_acquire)) {
    const int ready = ::epoll_wait(handler.epoll_fd, events, 64, -1);
    if (ready < 0) {
      if (errno == EINTR) continue;
      break;
    }
    for (int i = 0; i < ready; ++i) {
      const int fd = events[i].data.fd;
      if (fd == handler.wake_fd) {
        DrainEventFd(handler.wake_fd);
        AdoptPending(handler);
        continue;
      }
      const auto it = handler.connections.find(fd);
      if (it == handler.connections.end()) continue;  // closed this round
      Connection& conn = *it->second;
      bool keep = true;
      if (events[i].events & (EPOLLHUP | EPOLLERR)) {
        keep = false;
      }
      if (keep && (events[i].events & EPOLLIN)) {
        keep = HandleReadable(handler, conn);
      }
      if (keep && (events[i].events & EPOLLOUT)) {
        keep = FlushOutbound(handler, conn);
        if (keep && conn.closing &&
            conn.outbound_sent == conn.outbound.size()) {
          keep = false;  // GOODBYE fully acked
        }
      }
      if (!keep) CloseConnection(handler, conn);
    }
  }
  // Orderly teardown: connections die with the server, in-flight partial
  // frames are discarded (the monitor keeps whatever was already admitted).
  std::vector<int> fds;
  fds.reserve(handler.connections.size());
  for (const auto& [fd, conn] : handler.connections) fds.push_back(fd);
  for (const int fd : fds) {
    CloseConnection(handler, *handler.connections.at(fd));
  }
}

void IngestServer::AdoptPending(Handler& handler) {
  std::vector<std::unique_ptr<Connection>> adopted;
  {
    MutexLock lock(handler.pending_mutex);
    adopted.swap(handler.pending);
  }
  for (auto& conn : adopted) {
    epoll_event event{};
    event.events = EPOLLIN;
    event.data.fd = conn->fd;
    if (::epoll_ctl(handler.epoll_fd, EPOLL_CTL_ADD, conn->fd, &event) !=
        0) {
      ::close(conn->fd);
      connections_active_.fetch_sub(1, std::memory_order_relaxed);
      continue;
    }
    handler.connections.emplace(conn->fd, std::move(conn));
  }
}

bool IngestServer::HandleReadable(Handler& handler, Connection& conn) {
  std::uint8_t buffer[64 * 1024];
  for (;;) {
    const ssize_t n = ::recv(conn.fd, buffer, sizeof(buffer), 0);
    if (n == 0) return false;  // peer closed
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) break;
      return false;
    }
    conn.assembler.Feed({buffer, static_cast<std::size_t>(n)});
    for (;;) {
      FrameAssembler::Step step = conn.assembler.Next();
      if (step.frame) {
        frames_.fetch_add(1, std::memory_order_relaxed);
        ++conn.frames;
        if (!ProcessFrame(handler, conn, *step.frame)) {
          return false;
        }
        continue;
      }
      if (step.failure) {
        // A skipped frame's examples never reach OnData, so its offered
        // bump happens here: the tenant identity offered == admitted +
        // shed + quota_rejected + decode_errors must hold under wire
        // corruption too. lost_examples is trustworthy — it is only
        // nonzero when the header passed its own CRC.
        if (step.failure->lost_examples > 0) {
          Account(conn, WireOutcome::kOffered, step.failure->lost_examples);
        }
        AccountReject(conn, step.failure->lost_examples,
                      step.failure->error.code);
        if (step.failure->fatal) return false;
        continue;  // payload CRC mismatch: frame skipped, keep reading
      }
      break;  // need more bytes
    }
  }
  return true;
}

// ----------------------------------------------------------------- frames ---

bool IngestServer::ProcessFrame(Handler& handler, Connection& conn,
                                const FrameView& frame) {
  switch (frame.header.type) {
    case FrameType::kHello:
      return OnHello(handler, conn, frame);
    case FrameType::kBindStream:
      return OnBindStream(handler, conn, frame);
    case FrameType::kData:
      OnData(conn, frame);
      return true;
    case FrameType::kFlush: {
      if (!conn.authenticated) {
        const serve::Error error{serve::ErrorCode::kNotAuthenticated,
                                 "FLUSH before HELLO"};
        return SendFrame(handler, conn, FrameType::kError, frame.header.seq,
                         {}, &error);
      }
      monitor_.Flush();
      return SendFrame(handler, conn, FrameType::kAck, frame.header.seq, {},
                       nullptr);
    }
    case FrameType::kStats: {
      if (!conn.authenticated) {
        const serve::Error error{serve::ErrorCode::kNotAuthenticated,
                                 "STATS before HELLO"};
        return SendFrame(handler, conn, FrameType::kError, frame.header.seq,
                         {}, &error);
      }
      monitor_.Flush();
      const runtime::MetricsSnapshot snapshot = monitor_.Metrics();
      const std::uint64_t values[8] = {
          offered_.load(std::memory_order_relaxed),
          admitted_.load(std::memory_order_relaxed),
          quota_rejected_.load(std::memory_order_relaxed),
          decode_errors_.load(std::memory_order_relaxed),
          snapshot.examples_seen,
          snapshot.TotalShedExamples(),
          snapshot.TotalDroppedExamples(),
          snapshot.TotalErroredExamples(),
      };
      return SendFrame(handler, conn, FrameType::kAck, frame.header.seq,
                       values, nullptr);
    }
    case FrameType::kGoodbye: {
      conn.closing = true;
      if (!SendFrame(handler, conn, FrameType::kAck, frame.header.seq, {},
                     nullptr)) {
        return false;
      }
      // Close now if the ACK went out whole; else EPOLLOUT finishes it.
      return conn.outbound_sent != conn.outbound.size();
    }
    case FrameType::kAck:
    case FrameType::kError:
    case FrameType::kTraceHeader:  // a trace-file artifact, never live
      return true;  // non-client-request types: ignore on receive
  }
  return true;
}

bool IngestServer::OnHello(Handler& handler, Connection& conn,
                           const FrameView& frame) {
  const std::uint64_t seq = frame.header.seq;
  const auto fail = [&](serve::ErrorCode code, std::string message) {
    const serve::Error error{code, std::move(message)};
    return SendFrame(handler, conn, FrameType::kError, seq, {}, &error);
  };
  WireReader reader(frame.payload);
  std::string tenant_name;
  std::string token;
  if (!reader.String(tenant_name) || !reader.String(token) ||
      !reader.AtEnd()) {
    return fail(serve::ErrorCode::kMalformedPayload,
                "HELLO payload malformed");
  }
  if (!ValidTenantName(tenant_name)) {
    return fail(serve::ErrorCode::kUnknownTenant,
                "invalid tenant name '" + tenant_name + "'");
  }
  TenantState* tenant = ResolveTenant(tenant_name);
  if (tenant == nullptr) {
    return fail(serve::ErrorCode::kUnknownTenant,
                "tenant '" + tenant_name +
                    "' is not declared on this server");
  }
  if (!tenant->options.token.empty() && tenant->options.token != token) {
    return fail(serve::ErrorCode::kAuthFailed,
                "token mismatch for tenant '" + tenant_name + "'");
  }
  conn.authenticated = true;
  conn.tenant = tenant;
  conn.session = next_session_.fetch_add(1, std::memory_order_relaxed);
  const std::uint64_t values[1] = {conn.session};
  return SendFrame(handler, conn, FrameType::kAck, seq, values, nullptr);
}

bool IngestServer::OnBindStream(Handler& handler, Connection& conn,
                                const FrameView& frame) {
  const std::uint64_t seq = frame.header.seq;
  const auto fail = [&](serve::ErrorCode code, std::string message) {
    const serve::Error error{code, std::move(message)};
    return SendFrame(handler, conn, FrameType::kError, seq, {}, &error);
  };
  WireReader reader(frame.payload);
  std::string domain;
  std::string stream;
  if (!reader.String(domain) || !reader.String(stream) || !reader.AtEnd()) {
    return fail(serve::ErrorCode::kMalformedPayload,
                "BIND payload malformed");
  }
  if (!conn.authenticated) {
    return fail(serve::ErrorCode::kNotAuthenticated, "BIND before HELLO");
  }
  const auto it = streams_.find(stream);
  // A stream restricted to another tenant reads as unknown — bindings must
  // not leak the roster across tenants.
  if (it == streams_.end() ||
      (!it->second.tenant.empty() &&
       it->second.tenant != conn.tenant->options.name)) {
    return fail(serve::ErrorCode::kUnknownStream,
                "no stream '" + stream + "' exposed to this tenant");
  }
  if (it->second.handle.domain() != domain) {
    return fail(serve::ErrorCode::kUnknownDomain,
                "stream '" + stream + "' serves domain '" +
                    std::string(it->second.handle.domain()) + "', not '" +
                    domain + "'");
  }
  conn.bindings.push_back({&it->second, domains_.CodecFor(domain)});
  const std::uint64_t values[1] = {
      static_cast<std::uint64_t>(conn.bindings.size())};
  return SendFrame(handler, conn, FrameType::kAck, seq, values, nullptr);
}

void IngestServer::OnData(Connection& conn, const FrameView& frame) {
  const std::uint64_t count = frame.header.count;
  Account(conn, WireOutcome::kOffered, count);
  if (!conn.authenticated) {
    AccountReject(conn, count, serve::ErrorCode::kNotAuthenticated);
    return;
  }
  const std::uint64_t id = frame.header.stream;
  if (id == 0 || id > conn.bindings.size()) {
    AccountReject(conn, count, serve::ErrorCode::kUnknownStream);
    return;
  }
  const Connection::Binding& binding = conn.bindings[id - 1];
  const ExposedStream& exposed = *binding.stream;
  if (exposed.handle.domain() != frame.header.domain_tag()) {
    AccountReject(conn, count, serve::ErrorCode::kUnknownDomain);
    return;
  }
  const PayloadCodec* codec = binding.codec;
  if (codec == nullptr) {
    AccountReject(conn, count, serve::ErrorCode::kUnknownDomain);
    return;
  }
  const double hint = frame.header.hint();
  if (!conn.tenant->Admit(count, hint)) {
    Account(conn, WireOutcome::kQuotaRejected, count);
    if (tracer_ != nullptr) {
      tracer_->EmitControl(
          obs::TraceEventKind::kWireReject, obs::TracePhase::kInstant,
          exposed.handle.id(), count,
          static_cast<std::uint64_t>(serve::ErrorCode::kQuotaExceeded));
    }
    return;
  }
  serve::Result<std::vector<serve::AnyExample>> batch =
      DecodeBatch(*codec, frame.payload, frame.header.count);
  if (!batch.ok()) {
    AccountReject(conn, count, batch.code());
    return;
  }
  serve::Result<serve::ObserveOutcome> outcome = monitor_.ObserveBatch(
      exposed.handle, std::move(batch.value()), hint);
  if (!outcome.ok()) {
    AccountReject(conn, count, outcome.code());
    return;
  }
  if (outcome.value() == serve::ObserveOutcome::kAdmitted) {
    Account(conn, WireOutcome::kAdmitted, count);
    if (tracer_ != nullptr) {
      tracer_->EmitControl(obs::TraceEventKind::kFrameDecode,
                           obs::TracePhase::kInstant, exposed.handle.id(),
                           count, frame.payload.size());
    }
  } else {
    Account(conn, WireOutcome::kShed, count);
  }
}

// ---------------------------------------------------------------- replies ---

bool IngestServer::SendFrame(Handler& handler, Connection& conn,
                             FrameType type, std::uint64_t seq,
                             std::span<const std::uint64_t> values,
                             const serve::Error* error) {
  WireWriter payload;
  if (type == FrameType::kError) {
    common::Check(error != nullptr, "ERROR frame without an error");
    payload.U16(static_cast<std::uint16_t>(error->code));
    payload.String(error->message);
  } else {
    payload.U32(static_cast<std::uint32_t>(values.size()));
    for (const std::uint64_t value : values) payload.U64(value);
  }
  FrameHeader header;
  header.type = type;
  header.seq = seq;
  header.session = conn.session;
  const std::vector<std::uint8_t> encoded =
      EncodeFrame(header, payload.bytes());
  conn.outbound.insert(conn.outbound.end(), encoded.begin(), encoded.end());
  return FlushOutbound(handler, conn);
}

bool IngestServer::FlushOutbound(Handler& handler, Connection& conn) {
  while (conn.outbound_sent < conn.outbound.size()) {
    const ssize_t n =
        ::send(conn.fd, conn.outbound.data() + conn.outbound_sent,
               conn.outbound.size() - conn.outbound_sent, MSG_NOSIGNAL);
    if (n > 0) {
      conn.outbound_sent += static_cast<std::size_t>(n);
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      if (!conn.write_armed) {
        epoll_event event{};
        event.events = EPOLLIN | EPOLLOUT;
        event.data.fd = conn.fd;
        ::epoll_ctl(handler.epoll_fd, EPOLL_CTL_MOD, conn.fd, &event);
        conn.write_armed = true;
      }
      return true;  // EPOLLOUT resumes the flush
    }
    return false;  // broken pipe
  }
  conn.outbound.clear();
  conn.outbound_sent = 0;
  if (conn.write_armed) {
    epoll_event event{};
    event.events = EPOLLIN;
    event.data.fd = conn.fd;
    ::epoll_ctl(handler.epoll_fd, EPOLL_CTL_MOD, conn.fd, &event);
    conn.write_armed = false;
  }
  return true;
}

void IngestServer::CloseConnection(Handler& handler, Connection& conn) {
  if (tracer_ != nullptr) {
    tracer_->EmitControl(obs::TraceEventKind::kConnClose,
                         obs::TracePhase::kInstant,
                         obs::TraceEvent::kNoStream, conn.id, conn.frames);
  }
  ::epoll_ctl(handler.epoll_fd, EPOLL_CTL_DEL, conn.fd, nullptr);
  ::close(conn.fd);
  connections_active_.fetch_sub(1, std::memory_order_relaxed);
  handler.connections.erase(conn.fd);  // destroys conn
}

// ------------------------------------------------------------- accounting ---

void IngestServer::Account(Connection& conn, WireOutcome outcome,
                           std::uint64_t examples) {
  if (examples == 0 && outcome != WireOutcome::kOffered) return;
  std::uint64_t TenantStats::*slot = nullptr;
  std::atomic<std::uint64_t>* global = nullptr;
  switch (outcome) {
    case WireOutcome::kOffered:
      slot = &TenantStats::offered;
      global = &offered_;
      break;
    case WireOutcome::kAdmitted:
      slot = &TenantStats::admitted;
      global = &admitted_;
      break;
    case WireOutcome::kShed:
      slot = &TenantStats::shed;
      global = &shed_;
      break;
    case WireOutcome::kQuotaRejected:
      slot = &TenantStats::quota_rejected;
      global = &quota_rejected_;
      break;
    case WireOutcome::kDecodeError:
      slot = &TenantStats::decode_errors;
      global = &decode_errors_;
      break;
  }
  global->fetch_add(examples, std::memory_order_relaxed);
  if (conn.tenant == nullptr) return;
  {
    MutexLock lock(conn.tenant->mutex);
    conn.tenant->stats.*slot += examples;
  }
  monitor_.RecordNamedMetric(
      conn.tenant->metric_keys[static_cast<std::size_t>(outcome)], examples);
}

void IngestServer::AccountReject(Connection& conn, std::uint64_t examples,
                                 serve::ErrorCode code) {
  Account(conn, WireOutcome::kDecodeError, examples);
  if (tracer_ != nullptr) {
    tracer_->EmitControl(obs::TraceEventKind::kWireReject,
                         obs::TracePhase::kInstant,
                         obs::TraceEvent::kNoStream, examples,
                         static_cast<std::uint64_t>(code));
  }
}

IngestServer::TenantState* IngestServer::ResolveTenant(
    const std::string& name) {
  MutexLock lock(tenants_mutex_);
  const auto it = tenants_.find(name);
  if (it != tenants_.end()) return it->second.get();
  if (!options_.tenants.empty()) return nullptr;  // closed roster
  // Open server: admit any well-formed tenant on first HELLO, unlimited.
  TenantOptions options;
  options.name = name;
  options.shed_floor = std::numeric_limits<double>::infinity();
  auto state = std::make_unique<TenantState>(std::move(options));
  TenantState* raw = state.get();
  tenants_.emplace(name, std::move(state));
  return raw;
}

IngestServerStats IngestServer::Stats() const {
  IngestServerStats stats;
  stats.connections_seen = connections_seen_.load(std::memory_order_relaxed);
  stats.connections_active =
      connections_active_.load(std::memory_order_relaxed);
  stats.frames = frames_.load(std::memory_order_relaxed);
  stats.totals.offered = offered_.load(std::memory_order_relaxed);
  stats.totals.admitted = admitted_.load(std::memory_order_relaxed);
  stats.totals.shed = shed_.load(std::memory_order_relaxed);
  stats.totals.quota_rejected =
      quota_rejected_.load(std::memory_order_relaxed);
  stats.totals.decode_errors =
      decode_errors_.load(std::memory_order_relaxed);
  MutexLock lock(tenants_mutex_);
  for (const auto& [name, tenant] : tenants_) {
    MutexLock tenant_lock(tenant->mutex);
    stats.tenants.emplace(name, tenant->stats);
  }
  return stats;
}

}  // namespace omg::net
