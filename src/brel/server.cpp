#include "brel/server.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <list>
#include <mutex>
#include <sstream>
#include <stdexcept>
#include <thread>
#include <vector>

#include "brel/lock_stats.hpp"
#include "brel/memo_exchange.hpp"
#include "brel/memo_snapshot.hpp"

namespace brel {

namespace wire {
namespace {

/// Poll tick while waiting for bytes: bounds how stale the `stop` flag
/// can get, so a drain never waits on an idle connection for longer
/// than this.
constexpr int kPollMs = 100;

/// Send all of [data, data+len); MSG_NOSIGNAL so a vanished peer is a
/// return code, not a SIGPIPE.
bool send_all(int fd, const char* data, std::size_t len) {
  while (len > 0) {
    const ssize_t n = ::send(fd, data, len, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    data += static_cast<std::size_t>(n);
    len -= static_cast<std::size_t>(n);
  }
  return true;
}

/// Receive exactly `len` bytes (or consume them when `sink` is null).
/// `stop` aborts only between chunks when `abortable` — used for the
/// header wait; payloads are always finished to keep the stream framed.
enum class RecvStatus { Ok, Eof, Error, Stopped };

RecvStatus recv_exact(int fd, char* sink, std::size_t len,
                      const std::atomic<bool>* stop, bool abortable) {
  char discard[4096];
  std::size_t got = 0;
  while (got < len) {
    pollfd pfd{fd, POLLIN, 0};
    const int pr = ::poll(&pfd, 1, kPollMs);
    if (pr < 0) {
      if (errno == EINTR) continue;
      return RecvStatus::Error;
    }
    if (pr == 0) {
      // Idle tick.  Honor `stop` only here — with NO bytes pending and
      // none of this message read — so a frame already in flight (or
      // already buffered, e.g. sent just before a drain began) is still
      // read in full and gets its reply (SHUTDOWN, during a drain)
      // instead of a silently closed connection.
      if (abortable && got == 0 && stop != nullptr &&
          stop->load(std::memory_order_acquire)) {
        return RecvStatus::Stopped;
      }
      continue;
    }
    char* dst = sink != nullptr ? sink + got : discard;
    const std::size_t want =
        sink != nullptr ? len - got : std::min(len - got, sizeof discard);
    const ssize_t n = ::recv(fd, dst, want, 0);
    if (n == 0) return got == 0 ? RecvStatus::Eof : RecvStatus::Error;
    if (n < 0) {
      if (errno == EINTR || errno == EAGAIN || errno == EWOULDBLOCK) continue;
      return RecvStatus::Error;
    }
    got += static_cast<std::size_t>(n);
  }
  return RecvStatus::Ok;
}

}  // namespace

bool write_frame(int fd, const std::string& payload) {
  // Responses are not bounded by max_frame_bytes; a body the 32-bit
  // length prefix cannot express must fail the write, not silently
  // truncate the prefix and desynchronize the peer's framing.
  if (payload.size() > UINT32_MAX) return false;
  const auto len = static_cast<std::uint32_t>(payload.size());
  char header[4] = {static_cast<char>(len >> 24), static_cast<char>(len >> 16),
                    static_cast<char>(len >> 8), static_cast<char>(len)};
  // Small frames go out in ONE send: a separate 4-byte header write
  // interacts with Nagle + delayed ACK into a ~40ms stall per direction
  // — invisible while the solve dominates, but it would put a hard
  // floor under memo-warm round trips.  (Connected sockets also set
  // TCP_NODELAY; belt and suspenders, since callers may hand us fds
  // from elsewhere.)
  constexpr std::size_t kCoalesceBytes = 1u << 16;
  if (payload.size() <= kCoalesceBytes) {
    std::string frame;
    frame.reserve(sizeof header + payload.size());
    frame.append(header, sizeof header);
    frame.append(payload);
    return send_all(fd, frame.data(), frame.size());
  }
  return send_all(fd, header, sizeof header) &&
         send_all(fd, payload.data(), payload.size());
}

ReadStatus read_frame(int fd, std::string& payload, std::size_t max_bytes,
                      const std::atomic<bool>* stop) {
  char header[4];
  switch (recv_exact(fd, header, sizeof header, stop, /*abortable=*/true)) {
    case RecvStatus::Ok:
      break;
    case RecvStatus::Eof:
    case RecvStatus::Stopped:
      return ReadStatus::Eof;
    case RecvStatus::Error:
      return ReadStatus::Error;
  }
  const std::uint32_t len =
      (static_cast<std::uint32_t>(static_cast<unsigned char>(header[0])) << 24) |
      (static_cast<std::uint32_t>(static_cast<unsigned char>(header[1])) << 16) |
      (static_cast<std::uint32_t>(static_cast<unsigned char>(header[2])) << 8) |
      static_cast<std::uint32_t>(static_cast<unsigned char>(header[3]));
  if (len > max_bytes) {
    // Drain the oversized payload so the next frame starts aligned.
    if (recv_exact(fd, nullptr, len, stop, /*abortable=*/false) !=
        RecvStatus::Ok) {
      return ReadStatus::Error;
    }
    payload.clear();
    return ReadStatus::Oversize;
  }
  payload.resize(len);
  if (len > 0 &&
      recv_exact(fd, payload.data(), len, stop, /*abortable=*/false) !=
          RecvStatus::Ok) {
    return ReadStatus::Error;
  }
  return ReadStatus::Ok;
}

int connect_tcp(const std::string& host, std::uint16_t port) {
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) return -1;
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) !=
      0) {
    ::close(fd);
    return -1;
  }
  // Request/reply traffic in small frames: never trade latency for
  // segment count (cf. the Nagle note in write_frame).
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
  return fd;
}

}  // namespace wire

namespace {

/// One accepted connection: its service thread plus the flag the
/// listener uses to reap finished threads without blocking on live ones.
struct Conn {
  std::thread thread;
  std::atomic<bool> done{false};
};

[[nodiscard]] int listen_on(const std::string& host, std::uint16_t port,
                            std::uint16_t& bound_port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) throw std::runtime_error("server: socket() failed");
  const int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    ::close(fd);
    throw std::runtime_error("server: bad bind address " + host);
  }
  if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) != 0 ||
      ::listen(fd, 128) != 0) {
    const int err = errno;
    ::close(fd);
    throw std::runtime_error(std::string("server: bind/listen failed: ") +
                             std::strerror(err));
  }
  sockaddr_in actual{};
  socklen_t alen = sizeof actual;
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&actual), &alen) != 0) {
    ::close(fd);
    throw std::runtime_error("server: getsockname failed");
  }
  bound_port = ntohs(actual.sin_port);
  return fd;
}

}  // namespace

struct Server::Impl {
  explicit Impl(ServerOptions opts_in)
      : opts(std::move(opts_in)), pool(opts.pool) {
    if (opts.resume_pending == static_cast<std::size_t>(-1)) {
      opts.resume_pending = opts.max_pending / 2;
    }
    if (opts.resume_pending >= opts.max_pending && opts.max_pending > 0) {
      opts.resume_pending = opts.max_pending - 1;
    }
    if (opts.latency_ring == 0) opts.latency_ring = 1;
    latency_ring.assign(opts.latency_ring, 0);
  }

  ServerOptions opts;
  SolverPool pool;

  int listen_fd = -1;
  int metrics_fd = -1;
  std::uint16_t bound_port = 0;
  std::uint16_t bound_metrics_port = 0;
  bool started = false;
  bool waited = false;

  std::thread listener;
  std::thread metrics_listener;
  std::mutex conns_mutex;
  std::list<std::unique_ptr<Conn>> conns;

  std::atomic<bool> draining{false};

  // Counters (relaxed: they are monotone tallies, never coordination).
  std::atomic<std::uint64_t> accepted{0};
  std::atomic<std::uint64_t> answered{0};
  std::atomic<std::uint64_t> rejected_busy{0};
  std::atomic<std::uint64_t> rejected_shutdown{0};
  std::atomic<std::uint64_t> timed_out{0};
  std::atomic<std::uint64_t> request_errors{0};
  std::atomic<std::uint64_t> protocol_errors{0};
  std::atomic<std::uint64_t> connections_opened{0};
  std::atomic<std::uint64_t> connections_open{0};
  std::atomic<std::uint64_t> memo_hits_total{0};
  std::atomic<std::uint64_t> reorders_total{0};
  std::atomic<std::uint64_t> delta_runs{0};
  std::atomic<std::uint64_t> delta_reused{0};
  std::atomic<std::uint64_t> delta_researched{0};
  std::atomic<std::uint64_t> peer_pulls_served{0};
  std::atomic<std::uint64_t> peer_pushes_received{0};

  /// Tier 2 (nullptr when no peers were configured).  Created in
  /// start() once the bound port is known (the default self identity),
  /// disconnected from the memo's hooks and stopped in wait() after the
  /// connection threads joined, BEFORE the pool drains.
  std::unique_ptr<MemoExchange> exchange;

  // Admission state (hysteresis; see admit()/release()).  Transitions
  // are serialized by `admission_mutex`; the atomics exist so gather()
  // and render_stats() can read without taking it.  Two independent
  // atomics are NOT enough here: a delayed admit() could observe
  // overload, lose the CPU while release() drained residency below the
  // low watermark (clearing `shedding`), and then store a stale
  // shedding=true with nothing in flight left to ever clear it —
  // permanent BUSY.  Under the mutex that interleaving cannot happen,
  // and admission is micro-seconds against multi-millisecond solves.
  std::mutex admission_mutex;
  std::atomic<std::size_t> inflight{0};
  std::atomic<bool> shedding{false};

  // Fixed ring of the most recent per-request latencies (µs).
  mutable std::mutex latency_mutex;
  std::vector<std::uint64_t> latency_ring;
  std::uint64_t latency_count = 0;

  std::chrono::steady_clock::time_point started_at{};

  /// Admit one SOLVE into residency, or return false (reply BUSY).
  /// While `shedding`, everything is rejected until release() drops
  /// residency to the low watermark — the hysteresis that keeps a
  /// saturating client from flapping admission open/closed per request.
  bool admit() {
    std::lock_guard<std::mutex> lk(admission_mutex);
    const std::size_t cur = inflight.load(std::memory_order_relaxed);
    if (shedding.load(std::memory_order_relaxed)) {
      if (cur > opts.resume_pending) return false;
      // Residency already reached the low watermark (belt-and-braces:
      // release() normally clears the flag itself) — reopen and admit.
      shedding.store(false, std::memory_order_relaxed);
    }
    if (cur >= opts.max_pending) {
      shedding.store(true, std::memory_order_relaxed);
      return false;
    }
    inflight.store(cur + 1, std::memory_order_relaxed);
    return true;
  }

  void release() {
    std::lock_guard<std::mutex> lk(admission_mutex);
    const std::size_t now = inflight.load(std::memory_order_relaxed) - 1;
    inflight.store(now, std::memory_order_relaxed);
    if (now <= opts.resume_pending) {
      shedding.store(false, std::memory_order_relaxed);
    }
  }

  void record_latency(std::uint64_t us) {
    std::lock_guard<std::mutex> lk(latency_mutex);
    latency_ring[latency_count % latency_ring.size()] = us;
    ++latency_count;
  }

  void fold_result_stats(const PoolResult& result) {
    memo_hits_total.fetch_add(result.stats.memo_hits,
                              std::memory_order_relaxed);
    reorders_total.fetch_add(result.stats.reorders, std::memory_order_relaxed);
    if (result.stats.delta_active) {
      delta_runs.fetch_add(1, std::memory_order_relaxed);
    }
    delta_reused.fetch_add(result.stats.delta_reused,
                           std::memory_order_relaxed);
    delta_researched.fetch_add(result.stats.delta_researched,
                               std::memory_order_relaxed);
  }

  [[nodiscard]] ServerMetrics gather() const {
    ServerMetrics m;
    m.accepted = accepted.load(std::memory_order_relaxed);
    m.answered = answered.load(std::memory_order_relaxed);
    m.rejected_busy = rejected_busy.load(std::memory_order_relaxed);
    m.rejected_shutdown = rejected_shutdown.load(std::memory_order_relaxed);
    m.timed_out = timed_out.load(std::memory_order_relaxed);
    m.request_errors = request_errors.load(std::memory_order_relaxed);
    m.protocol_errors = protocol_errors.load(std::memory_order_relaxed);
    m.connections_opened = connections_opened.load(std::memory_order_relaxed);
    m.connections_open = connections_open.load(std::memory_order_relaxed);
    m.queue_depth = pool.queue_depth();
    m.inflight = inflight.load(std::memory_order_relaxed);
    m.shedding = shedding.load(std::memory_order_relaxed);
    m.memo_hits_total = memo_hits_total.load(std::memory_order_relaxed);
    m.reorders = reorders_total.load(std::memory_order_relaxed);
    m.delta_runs = delta_runs.load(std::memory_order_relaxed);
    m.delta_reused = delta_reused.load(std::memory_order_relaxed);
    m.delta_researched = delta_researched.load(std::memory_order_relaxed);
    {
      std::lock_guard<std::mutex> lk(latency_mutex);
      m.latency_samples = latency_count;
      const std::size_t n = static_cast<std::size_t>(
          std::min<std::uint64_t>(latency_count, latency_ring.size()));
      if (n > 0) {
        std::vector<std::uint64_t> sorted(latency_ring.begin(),
                                          latency_ring.begin() +
                                              static_cast<std::ptrdiff_t>(n));
        std::sort(sorted.begin(), sorted.end());
        m.latency_p50_us = sorted[(n - 1) / 2];
        m.latency_p99_us = sorted[(n * 99) / 100 < n ? (n * 99) / 100 : n - 1];
      }
    }
    if (started) {
      m.uptime_seconds =
          std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                        started_at)
              .count();
    }
    if (const auto& memo = pool.memo()) {
      m.memo_hits_run = memo->hits_from(MemoOrigin::kRun);
      m.memo_hits_snapshot = memo->hits_from(MemoOrigin::kSnapshot);
      m.memo_hits_peer = memo->hits_from(MemoOrigin::kPeer);
    }
    const MemoSnapshotInfo snap = pool.snapshot_info();
    m.snapshot_entries_loaded = snap.entries_loaded;
    m.snapshot_entries_saved = snap.entries_saved;
    if (snap.loaded_saved_at > 0) {
      const std::uint64_t now_unix = static_cast<std::uint64_t>(
          std::chrono::duration_cast<std::chrono::seconds>(
              std::chrono::system_clock::now().time_since_epoch())
              .count());
      m.snapshot_age_seconds = now_unix > snap.loaded_saved_at
                                   ? now_unix - snap.loaded_saved_at
                                   : 0;
    }
    if (exchange != nullptr) {
      const PeerExchangeStats ps = exchange->stats();
      m.peer_pulls = ps.pulls;
      m.peer_pull_hits = ps.pull_hits;
      m.peer_pull_failures = ps.pull_failures;
      m.peer_pushes = ps.pushes;
      m.peer_push_failures = ps.push_failures;
      m.peer_push_dropped = ps.push_dropped;
    }
    m.peer_pulls_served = peer_pulls_served.load(std::memory_order_relaxed);
    m.peer_pushes_received =
        peer_pushes_received.load(std::memory_order_relaxed);
    return m;
  }

  [[nodiscard]] std::string render_stats() const {
    const ServerMetrics m = gather();
    std::ostringstream os;
    os << "accepted " << m.accepted << '\n'
       << "answered " << m.answered << '\n'
       << "rejected_busy " << m.rejected_busy << '\n'
       << "rejected_shutdown " << m.rejected_shutdown << '\n'
       << "timed_out " << m.timed_out << '\n'
       << "request_errors " << m.request_errors << '\n'
       << "protocol_errors " << m.protocol_errors << '\n'
       << "connections_opened " << m.connections_opened << '\n'
       << "connections_open " << m.connections_open << '\n'
       << "queue_depth " << m.queue_depth << '\n'
       << "inflight " << m.inflight << '\n'
       << "shedding " << (m.shedding ? 1 : 0) << '\n'
       << "workers " << pool.worker_count() << '\n';
    if (const auto& memo = pool.memo()) {
      const std::uint64_t probes = memo->probes();
      const std::uint64_t hits = memo->hits();
      os << "memo_entries " << memo->size() << '\n'
         << "memo_probes " << probes << '\n'
         << "memo_hits " << hits << '\n';
      char rate[32];
      std::snprintf(rate, sizeof rate, "%.4f",
                    probes > 0 ? static_cast<double>(hits) /
                                     static_cast<double>(probes)
                               : 0.0);
      os << "memo_hit_rate " << rate << '\n';
    }
    os << "memo_hits_served " << m.memo_hits_total << '\n'
       << "memo_hits_run " << m.memo_hits_run << '\n'
       << "memo_hits_snapshot " << m.memo_hits_snapshot << '\n'
       << "memo_hits_peer " << m.memo_hits_peer << '\n'
       << "snapshot_entries_loaded " << m.snapshot_entries_loaded << '\n'
       << "snapshot_entries_saved " << m.snapshot_entries_saved << '\n'
       << "snapshot_age_seconds " << m.snapshot_age_seconds << '\n'
       << "peer_pulls " << m.peer_pulls << '\n'
       << "peer_pull_hits " << m.peer_pull_hits << '\n'
       << "peer_pull_failures " << m.peer_pull_failures << '\n'
       << "peer_pushes " << m.peer_pushes << '\n'
       << "peer_push_failures " << m.peer_push_failures << '\n'
       << "peer_push_dropped " << m.peer_push_dropped << '\n'
       << "peer_pulls_served " << m.peer_pulls_served << '\n'
       << "peer_pushes_received " << m.peer_pushes_received << '\n'
       << "reorders " << m.reorders << '\n'
       << "delta_runs " << m.delta_runs << '\n'
       << "delta_reused " << m.delta_reused << '\n'
       << "delta_researched " << m.delta_researched << '\n'
       << "lock_wait_memo_ns "
       << LockStatsRegistry::instance().wait_ns(lock_names::kMemo) << '\n'
       << "lock_wait_pool_ns "
       << LockStatsRegistry::instance().wait_ns(lock_names::kPool) << '\n'
       << "lock_wait_inject_ns "
       << LockStatsRegistry::instance().wait_ns(lock_names::kInject) << '\n'
       << "latency_samples " << m.latency_samples << '\n'
       << "latency_p50_us " << m.latency_p50_us << '\n'
       << "latency_p99_us " << m.latency_p99_us << '\n';
    char up[32];
    std::snprintf(up, sizeof up, "%.3f", m.uptime_seconds);
    os << "uptime_seconds " << up << '\n';
    return os.str();
  }

  /// Serve one SOLVE frame: admission, deadline mapping, pool round
  /// trip, framed reply.  `header_args` is everything after "SOLVE" on
  /// the request's first line; `body` the relation text.
  void handle_solve(int fd, const std::string& header_args, std::string body,
                    std::chrono::steady_clock::time_point received) {
    if (draining.load(std::memory_order_acquire)) {
      rejected_shutdown.fetch_add(1, std::memory_order_relaxed);
      (void)wire::write_frame(fd, "SHUTDOWN draining");
      return;
    }

    RequestOptions request;
    if (opts.default_deadline.count() > 0) {
      request.deadline = received + opts.default_deadline;
    }
    std::istringstream args(header_args);
    std::string tok;
    while (args >> tok) {
      if (tok.rfind("deadline_ms=", 0) == 0) {
        // strtoull alone is not a validator: it accepts "-5" (wrapping
        // it to a huge value), and values past the cap would overflow
        // the steady_clock representation in `received + ms` — so
        // reject sign characters, ERANGE, and anything above 24h.
        constexpr unsigned long long kMaxDeadlineMs = 24ull * 60 * 60 * 1000;
        const char* value = tok.c_str() + 12;
        char* end = nullptr;
        errno = 0;
        const unsigned long long ms = std::strtoull(value, &end, 10);
        if (value[0] < '0' || value[0] > '9' || end == nullptr ||
            *end != '\0' || errno == ERANGE || ms > kMaxDeadlineMs) {
          protocol_errors.fetch_add(1, std::memory_order_relaxed);
          (void)wire::write_frame(fd, "ERROR bad deadline_ms value");
          return;
        }
        request.deadline =
            received + std::chrono::milliseconds(static_cast<long long>(ms));
      } else if (tok == "priority=interactive") {
        request.priority = RequestPriority::Interactive;
      } else if (tok == "priority=batch") {
        request.priority = RequestPriority::Batch;
      } else {
        protocol_errors.fetch_add(1, std::memory_order_relaxed);
        (void)wire::write_frame(fd, "ERROR unknown SOLVE option: " + tok);
        return;
      }
    }
    if (body.empty()) {
      protocol_errors.fetch_add(1, std::memory_order_relaxed);
      (void)wire::write_frame(fd, "ERROR empty relation body");
      return;
    }

    if (!admit()) {
      rejected_busy.fetch_add(1, std::memory_order_relaxed);
      (void)wire::write_frame(fd, "BUSY");
      return;
    }
    accepted.fetch_add(1, std::memory_order_relaxed);

    std::string reply;
    bool timeout_reply = false;
    bool error_reply = false;
    try {
      auto future = pool.submit(std::move(body), request);
      const PoolResult result = future.get();
      fold_result_stats(result);
      timeout_reply = result.deadline_expired;
      std::ostringstream os;
      char cost[64];
      std::snprintf(cost, sizeof cost, "%.17g", result.cost);
      os << (timeout_reply ? "TIMEOUT" : "OK") << " cost=" << cost
         << " explored=" << result.stats.relations_explored
         << " memo_hits=" << result.stats.memo_hits
         << " worker=" << result.worker_id
         << " queue_us=" << result.queue_ns / 1000 << '\n';
      write_portable_solution(os, result.solution);
      reply = os.str();
    } catch (const std::exception& e) {
      error_reply = true;
      reply = std::string("ERROR ") + e.what();
    }

    // The answer is produced and the write attempted before residency is
    // released — accepted == answered is the drain invariant; a reply the
    // CLIENT abandoned (write failure) still counts as answered.
    if (timeout_reply) timed_out.fetch_add(1, std::memory_order_relaxed);
    if (error_reply) request_errors.fetch_add(1, std::memory_order_relaxed);
    (void)wire::write_frame(fd, reply);
    record_latency(static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::microseconds>(
            std::chrono::steady_clock::now() - received)
            .count()));
    answered.fetch_add(1, std::memory_order_relaxed);
    release();
  }

  /// Validate the fingerprint preamble of a MEMO_PULL/MEMO_PUSH body
  /// against the pool memo's.  Writes the ERROR reply itself on any
  /// mismatch and returns false.  Exchange verbs bypass admission
  /// control — they are bounded local map operations, not solves, and
  /// shedding them would starve exactly the warm-up that relieves load.
  bool check_exchange_preamble(int fd, std::istream& in) {
    const auto& memo = pool.memo();
    if (memo == nullptr) {
      protocol_errors.fetch_add(1, std::memory_order_relaxed);
      (void)wire::write_frame(fd, "ERROR no memo on this server");
      return false;
    }
    const std::optional<MemoFingerprint> theirs = read_memo_fingerprint(in);
    if (!theirs.has_value()) {
      protocol_errors.fetch_add(1, std::memory_order_relaxed);
      (void)wire::write_frame(fd, "ERROR malformed memo fingerprint");
      return false;
    }
    // Compare against the POOL'S configured objective, not the memo's
    // current binding: the fingerprint is static config, and a fresh
    // server must accept exchange traffic before its first solve binds
    // the memo.  A still-unbound memo adopts the (matching) fingerprint
    // here — bind() is idempotent and our own solves bind the same one.
    const MemoFingerprint ours{opts.pool.solver.cost.id(),
                               opts.pool.solver.exact};
    if (!(ours == *theirs)) {
      // Not a protocol error: both sides speak the protocol, they just
      // serve different objectives — reuse between them is unsound.
      (void)wire::write_frame(fd, "ERROR memo fingerprint mismatch");
      return false;
    }
    memo->bind(ours);
    return true;
  }

  /// MEMO_PULL: body is fingerprint preamble + one canonical key; the
  /// reply is "OK entry\n" + the export-policy record, or MISS.  Answers
  /// from the LOCAL memo only (export_entry, never lookup) — a miss here
  /// must not fault to OUR peers, or two servers could pull each other
  /// in a cycle.
  void handle_memo_pull(int fd, const std::string& body) {
    std::istringstream in(body);
    if (!check_exchange_preamble(fd, in)) {
      return;
    }
    try {
      const GlobalMemoKey key = read_memo_key(in);
      const std::optional<MemoExportEntry> entry =
          pool.memo()->export_entry(key);
      if (!entry.has_value()) {
        (void)wire::write_frame(fd, "MISS");
        return;
      }
      std::ostringstream os;
      os << "OK entry\n";
      write_memo_entry(os, *entry);
      peer_pulls_served.fetch_add(1, std::memory_order_relaxed);
      (void)wire::write_frame(fd, os.str());
    } catch (const std::invalid_argument& e) {
      protocol_errors.fetch_add(1, std::memory_order_relaxed);
      (void)wire::write_frame(fd, std::string("ERROR ") + e.what());
    }
  }

  /// MEMO_PUSH: body is fingerprint preamble + one export-policy record;
  /// install it (the codec already rejects any shape outside the export
  /// policy, so a partial/tainted record cannot enter here either).
  void handle_memo_push(int fd, const std::string& body) {
    std::istringstream in(body);
    if (!check_exchange_preamble(fd, in)) {
      return;
    }
    try {
      const MemoExportEntry entry = read_memo_entry(in);
      (void)pool.memo()->install(entry, MemoOrigin::kPeer);
      peer_pushes_received.fetch_add(1, std::memory_order_relaxed);
      (void)wire::write_frame(fd, "OK installed");
    } catch (const std::invalid_argument& e) {
      protocol_errors.fetch_add(1, std::memory_order_relaxed);
      (void)wire::write_frame(fd, std::string("ERROR ") + e.what());
    }
  }

  void serve_connection(int fd) {
    std::string payload;
    for (;;) {
      const wire::ReadStatus rs =
          wire::read_frame(fd, payload, opts.max_frame_bytes, &draining);
      if (rs == wire::ReadStatus::Eof || rs == wire::ReadStatus::Error) break;
      if (rs == wire::ReadStatus::Oversize) {
        protocol_errors.fetch_add(1, std::memory_order_relaxed);
        if (!wire::write_frame(fd, "ERROR frame exceeds max_frame_bytes")) {
          break;
        }
        continue;
      }
      const auto received = std::chrono::steady_clock::now();
      const std::size_t nl = payload.find('\n');
      const std::string header =
          nl == std::string::npos ? payload : payload.substr(0, nl);
      std::string body =
          nl == std::string::npos ? std::string() : payload.substr(nl + 1);

      if (header == "PING") {
        if (!wire::write_frame(fd, "OK ping")) break;
      } else if (header == "STATS") {
        if (!wire::write_frame(fd, "OK stats\n" + render_stats())) break;
      } else if (header == "SOLVE" || header.rfind("SOLVE ", 0) == 0) {
        handle_solve(fd, header.size() > 5 ? header.substr(6) : std::string(),
                     std::move(body), received);
      } else if (header == "MEMO_PULL") {
        handle_memo_pull(fd, body);
      } else if (header == "MEMO_PUSH") {
        handle_memo_push(fd, body);
      } else {
        protocol_errors.fetch_add(1, std::memory_order_relaxed);
        const std::string verb = header.substr(0, header.find(' '));
        if (!wire::write_frame(fd, "ERROR unknown request: " + verb)) break;
      }
    }
    ::close(fd);
    connections_open.fetch_sub(1, std::memory_order_relaxed);
  }

  /// Join and drop connections whose threads already finished (bounds
  /// the list by the CONCURRENT connection count, not the lifetime
  /// total).  Caller must hold conns_mutex.
  void reap_finished_locked() {
    for (auto it = conns.begin(); it != conns.end();) {
      if ((*it)->done.load(std::memory_order_acquire)) {
        (*it)->thread.join();
        it = conns.erase(it);
      } else {
        ++it;
      }
    }
  }

  void listener_loop() {
    for (;;) {
      pollfd pfd{listen_fd, POLLIN, 0};
      const int pr = ::poll(&pfd, 1, wire::kPollMs);
      if (draining.load(std::memory_order_acquire)) break;
      if (pr <= 0) {
        // Idle tick: reap here too, so a burst followed by quiet does
        // not leave exited-but-unjoined threads lingering until the
        // next accept (or shutdown).
        std::lock_guard<std::mutex> lk(conns_mutex);
        reap_finished_locked();
        continue;
      }
      const int fd = ::accept(listen_fd, nullptr, nullptr);
      if (fd < 0) continue;
      // Reply latency over segment count (cf. write_frame's Nagle note).
      const int one = 1;
      ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
      connections_opened.fetch_add(1, std::memory_order_relaxed);
      connections_open.fetch_add(1, std::memory_order_relaxed);
      std::lock_guard<std::mutex> lk(conns_mutex);
      reap_finished_locked();
      auto conn = std::make_unique<Conn>();
      Conn* raw = conn.get();
      conn->thread = std::thread([this, fd, raw] {
        serve_connection(fd);
        raw->done.store(true, std::memory_order_release);
      });
      conns.push_back(std::move(conn));
    }
    ::close(listen_fd);
    listen_fd = -1;
  }

  void metrics_loop() {
    for (;;) {
      pollfd pfd{metrics_fd, POLLIN, 0};
      const int pr = ::poll(&pfd, 1, wire::kPollMs);
      if (draining.load(std::memory_order_acquire)) break;
      if (pr <= 0) continue;
      const int fd = ::accept(metrics_fd, nullptr, nullptr);
      if (fd < 0) continue;
      const std::string text = render_stats();
      (void)wire::send_all(fd, text.data(), text.size());
      ::close(fd);
    }
    ::close(metrics_fd);
    metrics_fd = -1;
  }
};

Server::Server(ServerOptions options)
    : impl_(std::make_unique<Impl>(std::move(options))) {}

Server::~Server() {
  begin_drain();
  wait();
}

void Server::start() {
  Impl& im = *impl_;
  if (im.started) throw std::runtime_error("server: already started");
  im.listen_fd = listen_on(im.opts.host, im.opts.port, im.bound_port);
  if (im.opts.metrics_port >= 0) {
    try {
      im.metrics_fd =
          listen_on(im.opts.host,
                    static_cast<std::uint16_t>(im.opts.metrics_port),
                    im.bound_metrics_port);
    } catch (...) {
      // No listener thread owns listen_fd yet — close it here or leak.
      ::close(im.listen_fd);
      im.listen_fd = -1;
      throw;
    }
  }
  // Tier-2 hookup, after binding (the default self identity needs the
  // resolved port) and before any traffic: root misses fault through the
  // exchange, fresh completions feed its push queue.
  if (!im.opts.memo_peers.empty() && im.pool.memo() != nullptr) {
    PeerExchangeOptions px;
    px.self = im.opts.memo_self.empty()
                  ? im.opts.host + ':' + std::to_string(im.bound_port)
                  : im.opts.memo_self;
    px.peers = im.opts.memo_peers;
    px.pull_timeout_ms = im.opts.memo_pull_timeout_ms;
    im.exchange = std::make_unique<MemoExchange>(*im.pool.memo(), px);
    im.exchange->start();
    im.pool.memo()->set_fault_tier(im.exchange.get());
    im.pool.memo()->set_complete_listener(
        [ex = im.exchange.get()](const GlobalMemoKey& key) {
          ex->enqueue_push(key);
        });
  }
  // The slots claim their malloc arenas before the listener and the
  // connection threads it spawns can take them (SolverPool::wait_started).
  im.pool.wait_started();
  im.started = true;
  im.started_at = std::chrono::steady_clock::now();
  im.listener = std::thread([&im] { im.listener_loop(); });
  if (im.metrics_fd >= 0) {
    im.metrics_listener = std::thread([&im] { im.metrics_loop(); });
  }
}

std::uint16_t Server::port() const noexcept { return impl_->bound_port; }

std::uint16_t Server::metrics_port() const noexcept {
  return impl_->bound_metrics_port;
}

void Server::begin_drain() {
  impl_->draining.store(true, std::memory_order_release);
}

void Server::wait() {
  Impl& im = *impl_;
  if (im.waited || !im.started) return;
  im.waited = true;
  begin_drain();
  if (im.listener.joinable()) im.listener.join();
  if (im.metrics_listener.joinable()) im.metrics_listener.join();
  // The listener is gone, so the connection list is frozen; joining it
  // waits for every accepted request's answer (a connection thread only
  // exits after writing the replies of everything it admitted).
  for (;;) {
    std::unique_ptr<Conn> conn;
    {
      std::lock_guard<std::mutex> lk(im.conns_mutex);
      if (im.conns.empty()) break;
      conn = std::move(im.conns.front());
      im.conns.pop_front();
    }
    conn->thread.join();
  }
  // Exchange teardown between the connection drain and the pool drain:
  // disconnect the memo's hooks first (no worker may fault into a
  // stopped exchange), then join the push thread.  The pool's shutdown
  // below — including the tier-1 snapshot flush — runs with tier 2
  // fully quiesced, so the drain order is answer → stop gossip → flush.
  if (im.exchange != nullptr) {
    if (const auto& memo = im.pool.memo()) {
      memo->set_fault_tier(nullptr);
      memo->set_complete_listener(nullptr);
    }
    im.exchange->stop();
  }
  im.pool.shutdown();
}

ServerMetrics Server::metrics() const { return impl_->gather(); }

std::string Server::stats_text() const { return impl_->render_stats(); }

}  // namespace brel
