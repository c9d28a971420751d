// Integration tests for the socket service front end (server.hpp): a
// real Server on an ephemeral loopback port, driven through real
// sockets by the same wire helpers the tools use.
//
// The load-bearing properties:
//   - framed answers are BIT-IDENTICAL to single-solve runs of the same
//     relation (portable-solution equality, concurrent clients);
//   - malformed and oversized frames get clean ERROR replies and the
//     CONNECTION SURVIVES them;
//   - admission control: BUSY past max_pending, admission reopens once
//     residency falls to the low watermark;
//   - deadline-expired requests answer TIMEOUT frames (best-so-far
//     body), not dropped connections;
//   - graceful drain: begin_drain() during load answers every accepted
//     request (accepted == answered) and rejects late frames with
//     SHUTDOWN.

#include <gtest/gtest.h>

#include <unistd.h>

#include <chrono>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "benchgen/paper_relations.hpp"
#include "benchgen/relation_suite.hpp"
#include "brel/memo_exchange.hpp"
#include "brel/memo_snapshot.hpp"
#include "brel/search.hpp"
#include "brel/server.hpp"
#include "relation/relation_io.hpp"

namespace brel {
namespace {

/// RAII client connection speaking the framed protocol.
class Client {
 public:
  explicit Client(std::uint16_t port)
      : fd_(wire::connect_tcp("127.0.0.1", port)) {}
  ~Client() {
    if (fd_ >= 0) ::close(fd_);
  }
  [[nodiscard]] bool connected() const { return fd_ >= 0; }

  /// One request/reply round trip; returns the reply payload ("" on
  /// transport failure).
  std::string request(const std::string& payload) {
    if (!wire::write_frame(fd_, payload)) return "";
    std::string reply;
    if (wire::read_frame(fd_, reply, static_cast<std::size_t>(-1)) !=
        wire::ReadStatus::Ok) {
      return "";
    }
    return reply;
  }

  /// Fire-and-forget send half (for drain tests that reply later).
  bool send(const std::string& payload) {
    return wire::write_frame(fd_, payload);
  }
  std::string receive() {
    std::string reply;
    if (wire::read_frame(fd_, reply, static_cast<std::size_t>(-1)) !=
        wire::ReadStatus::Ok) {
      return "";
    }
    return reply;
  }

 private:
  int fd_;
};

std::string verb_of(const std::string& reply) {
  const std::size_t nl = reply.find('\n');
  const std::string line =
      nl == std::string::npos ? reply : reply.substr(0, nl);
  return line.substr(0, line.find(' '));
}

std::string body_of(const std::string& reply) {
  const std::size_t nl = reply.find('\n');
  return nl == std::string::npos ? std::string() : reply.substr(nl + 1);
}

/// Parse one "key value" line out of a STATS body; -1 when absent.
long long stat_of(const std::string& stats, const std::string& key) {
  std::istringstream in(stats);
  std::string line;
  while (std::getline(in, line)) {
    std::istringstream fields(line);
    std::string k;
    long long v;
    if ((fields >> k >> v) && k == key) return v;
  }
  return -1;
}

/// The server counts `answered` just AFTER it writes the reply frame, so
/// a client can hold its last reply a beat before the counter moves.
/// Poll until `answered` reaches `expected` — bounded, so a request that
/// was never answered still fails the assertions that follow — and
/// return that snapshot.
ServerMetrics metrics_after_answers(const Server& server,
                                    std::uint64_t expected) {
  const auto give_up =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  ServerMetrics m = server.metrics();
  while (m.answered < expected && std::chrono::steady_clock::now() < give_up) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
    m = server.metrics();
  }
  return m;
}

/// The schedule-independent engine configuration (cf.
/// test_solver_pool.cpp): results are a pure function of the relation,
/// so server answers can be compared bit-for-bit with local solves.
SolverOptions deterministic_options(std::size_t max_depth) {
  SolverOptions options;
  options.cost = sum_of_bdd_sizes();
  options.max_relations = static_cast<std::size_t>(-1);
  options.use_cost_bound = false;
  options.max_depth = max_depth;
  return options;
}

ServerOptions deterministic_server(std::size_t workers) {
  ServerOptions options;
  options.pool.workers = workers;
  options.pool.solver = deterministic_options(6);
  // Overlapping concurrent relations + a shared memo can differ by
  // schedule; the bit-identical contract needs the memo off.
  options.pool.share_memo = false;
  return options;
}

std::string suite_text(std::size_t index) {
  BddManager mgr{0};
  std::vector<std::uint32_t> inputs;
  std::vector<std::uint32_t> outputs;
  const BooleanRelation r =
      make_benchmark_relation(mgr, relation_suite()[index], inputs, outputs);
  return write_relation_bdd(r);
}

std::string fig1_text() {
  BddManager mgr{0};
  RelationSpace space = make_space(mgr, 2, 2);
  return write_relation_bdd(fig1_relation(mgr, space));
}

PortableSolution reference_solution(const std::string& text,
                                    const SolverOptions& options) {
  BddManager mgr{0};
  const BooleanRelation r = read_relation(mgr, text);
  const SolveResult solved = SearchEngine(r, options).run();
  return make_portable_solution(make_memo_space(r), solved.function,
                                solved.cost);
}

TEST(ServerTest, EphemeralPortAndPing) {
  Server server(deterministic_server(1));
  server.start();
  ASSERT_NE(server.port(), 0);
  Client client(server.port());
  ASSERT_TRUE(client.connected());
  EXPECT_EQ(client.request("PING"), "OK ping");
}

TEST(ServerTest, ConcurrentClientsAreBitIdenticalToSingleSolve) {
  Server server(deterministic_server(2));
  server.start();
  const std::uint16_t port = server.port();

  // First 6 suite instances at depth 6, two round-robin client threads.
  std::vector<std::string> texts;
  for (std::size_t i = 0; i < 6; ++i) texts.push_back(suite_text(i));

  std::vector<std::string> replies(texts.size());
  std::vector<std::thread> clients;
  for (std::size_t t = 0; t < 2; ++t) {
    clients.emplace_back([&, t] {
      Client client(port);
      ASSERT_TRUE(client.connected());
      for (std::size_t i = t; i < texts.size(); i += 2) {
        replies[i] = client.request("SOLVE\n" + texts[i]);
      }
    });
  }
  for (std::thread& t : clients) t.join();

  for (std::size_t i = 0; i < texts.size(); ++i) {
    ASSERT_EQ(verb_of(replies[i]), "OK") << relation_suite()[i].name;
    std::istringstream body(body_of(replies[i]));
    const PortableSolution served = read_portable_solution(body);
    EXPECT_EQ(served, reference_solution(texts[i], deterministic_options(6)))
        << relation_suite()[i].name;
  }

  const ServerMetrics m = metrics_after_answers(server, texts.size());
  EXPECT_EQ(m.accepted, texts.size());
  EXPECT_EQ(m.answered, texts.size());
  EXPECT_EQ(m.protocol_errors, 0u);
}

TEST(ServerTest, MalformedAndOversizedFramesKeepTheConnectionAlive) {
  ServerOptions options = deterministic_server(1);
  options.max_frame_bytes = 512;
  Server server(options);
  server.start();
  Client client(server.port());
  ASSERT_TRUE(client.connected());

  // Unknown verb.
  EXPECT_EQ(verb_of(client.request("FROBNICATE now")), "ERROR");
  // Empty SOLVE body.
  EXPECT_EQ(verb_of(client.request("SOLVE")), "ERROR");
  // Bad SOLVE option.
  EXPECT_EQ(verb_of(client.request("SOLVE deadline_ms=soon\nx")), "ERROR");
  // Negative deadline (strtoull would silently wrap it positive).
  EXPECT_EQ(verb_of(client.request("SOLVE deadline_ms=-5\nx")), "ERROR");
  // Deadline beyond unsigned long long (ERANGE).
  EXPECT_EQ(verb_of(client.request(
                "SOLVE deadline_ms=99999999999999999999999999\nx")),
            "ERROR");
  // Large-but-representable deadline past the 24h cap (would overflow
  // the steady_clock representation when added to now()).
  EXPECT_EQ(verb_of(client.request("SOLVE deadline_ms=10000000000000\nx")),
            "ERROR");
  // Relation that fails to parse: the ERROR comes through the pool.
  EXPECT_EQ(verb_of(client.request("SOLVE\n.i 1\n.o 1\n.r\nxx 1\n.e\n")),
            "ERROR");
  // Oversized frame (beyond max_frame_bytes): drained, clean reply.
  EXPECT_EQ(verb_of(client.request(std::string(2048, 'a'))), "ERROR");
  // Zero-length frame.
  EXPECT_EQ(verb_of(client.request("")), "ERROR");

  // ...and the SAME connection still serves real work.
  const std::string reply = client.request("SOLVE\n" + fig1_text());
  EXPECT_EQ(verb_of(reply), "OK");

  const ServerMetrics m = metrics_after_answers(server, 2);
  EXPECT_EQ(m.protocol_errors, 8u);  // the pool parse error counts apart
  EXPECT_EQ(m.request_errors, 1u);
  EXPECT_EQ(m.accepted, 2u);  // bad relation + fig1 both passed admission
  EXPECT_EQ(m.answered, 2u);
}

TEST(ServerTest, DeadlineExpiredRequestsAnswerTimeoutFrames) {
  ServerOptions options;
  options.pool.workers = 1;
  options.pool.solver.cost = sum_of_bdd_sizes();
  options.pool.solver.max_relations = static_cast<std::size_t>(-1);
  options.pool.solver.use_cost_bound = false;  // int3 cannot drain
  Server server(options);
  server.start();
  Client client(server.port());
  ASSERT_TRUE(client.connected());

  const std::string reply =
      client.request("SOLVE deadline_ms=30\n" + suite_text(2));
  EXPECT_EQ(verb_of(reply), "TIMEOUT");
  // The TIMEOUT body is a well-formed portable solution (the engine's
  // best-so-far incumbent).
  std::istringstream body(body_of(reply));
  const PortableSolution best = read_portable_solution(body);
  EXPECT_FALSE(best.outputs.empty());

  // The connection survives a timed-out request.
  EXPECT_EQ(verb_of(client.request("SOLVE\n" + fig1_text())), "OK");

  const ServerMetrics m = metrics_after_answers(server, 2);
  EXPECT_EQ(m.timed_out, 1u);
  EXPECT_EQ(m.accepted, 2u);
  EXPECT_EQ(m.answered, 2u);
}

TEST(ServerTest, BusyPastTheBoundAndReadmissionAtTheLowWatermark) {
  ServerOptions options;
  options.pool.workers = 1;
  options.pool.solver.cost = sum_of_bdd_sizes();
  options.pool.solver.max_relations = static_cast<std::size_t>(-1);
  options.pool.solver.use_cost_bound = false;
  options.pool.solver.timeout = std::chrono::milliseconds(400);
  options.max_pending = 1;  // resume_pending defaults to 0
  Server server(options);
  server.start();

  Client slow(server.port());
  Client probe(server.port());
  ASSERT_TRUE(slow.connected());
  ASSERT_TRUE(probe.connected());

  // Occupy the only residency slot with a ~400ms request.
  ASSERT_TRUE(slow.send("SOLVE\n" + suite_text(2)));
  // STATS is not admission-controlled: wait until the slot is taken.
  while (stat_of(body_of(probe.request("STATS")), "inflight") < 1) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }

  // Past the high watermark: immediate BUSY, nothing queued.
  EXPECT_EQ(probe.request("SOLVE\n" + fig1_text()), "BUSY");
  EXPECT_EQ(probe.request("SOLVE\n" + fig1_text()), "BUSY");

  // The slow request answers with OK: its pool-wide engine timeout is a
  // budget stop, not a per-request deadline, so no TIMEOUT verb...
  EXPECT_EQ(verb_of(slow.receive()), "OK");
  // ...and residency falls to 0 == the low watermark.  The shed flag
  // clears AFTER the reply frame is written, so the client can observe
  // the OK a beat before readmission — wait for the flag, then probe.
  while (server.metrics().shedding) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(verb_of(probe.request("SOLVE\n" + fig1_text())), "OK");

  const ServerMetrics m = metrics_after_answers(server, 2);
  EXPECT_EQ(m.rejected_busy, 2u);
  EXPECT_EQ(m.accepted, 2u);
  EXPECT_EQ(m.answered, 2u);
}

TEST(ServerTest, DrainAnswersEverythingAcceptedAndRejectsLateFrames) {
  ServerOptions options;
  options.pool.workers = 1;
  options.pool.solver.cost = sum_of_bdd_sizes();
  options.pool.solver.max_relations = static_cast<std::size_t>(-1);
  options.pool.solver.use_cost_bound = false;
  options.pool.solver.timeout = std::chrono::milliseconds(300);
  Server server(options);
  server.start();

  Client inflight_client(server.port());
  Client late_client(server.port());
  ASSERT_TRUE(inflight_client.connected());
  ASSERT_TRUE(late_client.connected());

  // A ~300ms request in flight, plus a second frame buffered behind it
  // on the same connection when the drain begins.
  ASSERT_TRUE(inflight_client.send("SOLVE\n" + suite_text(2)));
  ASSERT_TRUE(inflight_client.send("SOLVE\n" + fig1_text()));
  while (server.metrics().inflight < 1) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }

  server.begin_drain();

  // A frame arriving during the drain is REJECTED, not silently lost.
  const std::string late = late_client.request("SOLVE\n" + fig1_text());
  // (Its connection may also have been closed by the drain first —
  // both are clean outcomes; what must not happen is an accepted-then
  // -unanswered request.)
  if (!late.empty()) {
    EXPECT_EQ(verb_of(late), "SHUTDOWN");
  }

  // The accepted in-flight request answers through the drain; the
  // buffered frame behind it was never admitted, so it is REJECTED with
  // SHUTDOWN — answered, not dropped, the connection told why.
  EXPECT_EQ(verb_of(inflight_client.receive()), "OK");
  EXPECT_EQ(verb_of(inflight_client.receive()), "SHUTDOWN");

  server.wait();
  const ServerMetrics m = server.metrics();
  EXPECT_EQ(m.accepted, 1u);
  EXPECT_EQ(m.answered, m.accepted);  // the drain contract
  EXPECT_GE(m.rejected_shutdown, 1u);
  EXPECT_EQ(m.connections_open, 0u);
}

TEST(ServerTest, StatsFrameAndMetricsPortReport) {
  ServerOptions options = deterministic_server(1);
  options.metrics_port = 0;  // ephemeral
  Server server(options);
  server.start();
  ASSERT_NE(server.metrics_port(), 0);

  Client client(server.port());
  ASSERT_TRUE(client.connected());
  EXPECT_EQ(verb_of(client.request("SOLVE\n" + fig1_text())), "OK");

  const std::string stats = body_of(client.request("STATS"));
  EXPECT_EQ(stat_of(stats, "accepted"), 1);
  EXPECT_EQ(stat_of(stats, "answered"), 1);
  EXPECT_EQ(stat_of(stats, "shedding"), 0);
  EXPECT_GE(stat_of(stats, "latency_samples"), 1);
  EXPECT_NE(stats.find("latency_p50_us"), std::string::npos);
  EXPECT_NE(stats.find("uptime_seconds"), std::string::npos);

  // The metrics port serves the same block, unframed, to any client.
  const int fd = wire::connect_tcp("127.0.0.1", server.metrics_port());
  ASSERT_GE(fd, 0);
  std::string text;
  char buf[4096];
  for (;;) {
    const ssize_t n = ::read(fd, buf, sizeof buf);
    if (n <= 0) break;
    text.append(buf, static_cast<std::size_t>(n));
  }
  ::close(fd);
  EXPECT_EQ(stat_of(text, "accepted"), 1);
  EXPECT_NE(text.find("workers"), std::string::npos);
}

TEST(ServerTest, PortableSolutionTextRoundTrips) {
  // The response-body format itself: write → read is the identity, cost
  // infinity (the empty deadline-expired solution) included.
  PortableSolution empty;
  empty.cost = std::numeric_limits<double>::infinity();
  std::ostringstream out;
  write_portable_solution(out, empty);
  std::istringstream in(out.str());
  EXPECT_EQ(read_portable_solution(in), empty);

  const std::string text = fig1_text();
  const PortableSolution solved =
      reference_solution(text, deterministic_options(6));
  std::ostringstream out2;
  write_portable_solution(out2, solved);
  std::istringstream in2(out2.str());
  EXPECT_EQ(read_portable_solution(in2), solved);

  // Malformed bodies are rejected, not misread.
  std::istringstream bad1("nonsense");
  EXPECT_THROW((void)read_portable_solution(bad1), std::invalid_argument);
  // Truncated: two outputs declared, none present.
  std::istringstream bad2(".cost 1\n.outputs 2\n");
  EXPECT_THROW((void)read_portable_solution(bad2), std::invalid_argument);
}

/// The `explored=` figure of an OK/TIMEOUT status line; -1 when absent.
long long explored_of(const std::string& reply) {
  const std::size_t pos = reply.find(" explored=");
  if (pos == std::string::npos) return -1;
  return std::strtoll(reply.c_str() + pos + 10, nullptr, 10);
}

/// The canonical memo key of a relation text (any manager, any offset —
/// that independence is what GlobalMemoTest pins).
GlobalMemoKey key_of(const std::string& text) {
  BddManager mgr{0};
  const BooleanRelation r = read_relation(mgr, text);
  return make_memo_key(make_memo_space(r), r.characteristic());
}

/// One of 256 distinct single-valued 2-in/2-out relations: input vertex
/// v maps to output vertex (f >> 2v) & 3.  A parametric family this size
/// makes consistent-hash ownership tests deterministic — some member of
/// the family lands in any ring slice.
std::string param_text(unsigned f) {
  BddManager mgr{0};
  RelationSpace space = make_space(mgr, 2, 2);
  const char* verts[4] = {"00", "01", "10", "11"};
  std::vector<std::pair<std::string, std::vector<std::string>>> rows;
  for (unsigned v = 0; v < 4; ++v) {
    rows.push_back({verts[v], {verts[(f >> (2 * v)) & 3u]}});
  }
  return write_relation_bdd(
      BooleanRelation::from_table(mgr, space.inputs, space.outputs, rows));
}

TEST(ServerMemoExchangeTest, PullAndPushVerbsCarryTheExportPolicy) {
  ServerOptions options = deterministic_server(1);
  options.pool.share_memo = true;
  Server server(options);
  server.start();
  Client client(server.port());
  ASSERT_TRUE(client.connected());

  const std::string text = fig1_text();
  const GlobalMemoKey key = key_of(text);
  const MemoFingerprint fp{sum_of_bdd_sizes().id(), false};

  // A key the memo never saw answers MISS — even before the first
  // solve (the preamble validates against the pool's static objective,
  // not the memo's binding, so cold peers are reachable).
  std::ostringstream miss;
  miss << "MEMO_PULL\n";
  write_memo_fingerprint(miss, fp);
  write_memo_key(miss, key_of(suite_text(0)));
  EXPECT_EQ(client.request(miss.str()), "MISS");

  // Warm the memo, then PULL the canonical key: the reply carries the
  // export-policy record whose solution is the solve's own.
  const std::string solve_reply = client.request("SOLVE\n" + text);
  ASSERT_EQ(verb_of(solve_reply), "OK");
  std::ostringstream pull;
  pull << "MEMO_PULL\n";
  write_memo_fingerprint(pull, fp);
  write_memo_key(pull, key);
  const std::string pull_reply = client.request(pull.str());
  ASSERT_EQ(verb_of(pull_reply), "OK");
  std::istringstream entry_in(body_of(pull_reply));
  const MemoExportEntry entry = read_memo_entry(entry_in);
  EXPECT_EQ(entry.key, key);
  EXPECT_EQ(entry.solution, reference_solution(text, options.pool.solver));

  // A mismatched fingerprint is refused before the key is even read.
  std::ostringstream clash;
  clash << "MEMO_PULL\n";
  write_memo_fingerprint(clash, MemoFingerprint{"some-other-objective", true});
  write_memo_key(clash, key);
  EXPECT_EQ(verb_of(client.request(clash.str())), "ERROR");

  // PUSH the pulled record into a second, cold server: its next solve
  // of the same relation is a root hit at zero exploration with a
  // bit-identical body.
  Server receiver(options);
  receiver.start();
  Client client_b(receiver.port());
  ASSERT_TRUE(client_b.connected());
  std::ostringstream push;
  push << "MEMO_PUSH\n";
  write_memo_fingerprint(push, fp);
  write_memo_entry(push, entry);
  EXPECT_EQ(client_b.request(push.str()), "OK installed");
  const std::string warm_reply = client_b.request("SOLVE\n" + text);
  ASSERT_EQ(verb_of(warm_reply), "OK");
  EXPECT_EQ(explored_of(warm_reply), 0);
  EXPECT_EQ(body_of(warm_reply), body_of(solve_reply));

  // A smuggled non-export shape is rejected by the codec, not
  // installed: flip the record's shape token and push it.
  std::ostringstream record;
  write_memo_entry(record, entry);
  std::string smuggled = record.str();
  const std::size_t shape_at = smuggled.find(' ') + 1;
  smuggled.replace(shape_at, smuggled.find(' ', shape_at) - shape_at,
                   "truncated");
  std::ostringstream bad_push;
  bad_push << "MEMO_PUSH\n";
  write_memo_fingerprint(bad_push, fp);
  bad_push << smuggled;
  EXPECT_EQ(verb_of(client_b.request(bad_push.str())), "ERROR");

  const std::string stats = body_of(client_b.request("STATS"));
  EXPECT_EQ(stat_of(stats, "peer_pushes_received"), 1);
  EXPECT_EQ(stat_of(stats, "memo_hits_peer"), 1);
}

TEST(ServerMemoExchangeTest, PeeredServerPullsOwnedRootsAndGossipsBack) {
  ServerOptions options_a = deterministic_server(1);
  options_a.pool.share_memo = true;
  Server a(options_a);
  a.start();
  const std::string addr_a = "127.0.0.1:" + std::to_string(a.port());

  ServerOptions options_b = options_a;
  options_b.memo_peers = {addr_a};
  Server b(options_b);
  b.start();
  const std::string addr_b = "127.0.0.1:" + std::to_string(b.port());

  // Ring oracle: the same member list b's exchange was built from
  // computes the same ownership (that agreement is the whole design).
  GlobalMemo scratch;
  PeerExchangeOptions ring;
  ring.self = addr_b;
  ring.peers = {addr_a};
  MemoExchange oracle(scratch, ring);

  // Two relations b does NOT own — their root misses must leave for a.
  std::string pulled_text;  // warmed on a first: b's miss pulls a hit
  std::string gossip_text;  // solved cold on b: completion pushes to a
  for (unsigned f = 0; f < 256 && gossip_text.empty(); ++f) {
    const std::string text = param_text(f);
    if (oracle.owns(key_of(text))) continue;
    (pulled_text.empty() ? pulled_text : gossip_text) = text;
  }
  ASSERT_FALSE(pulled_text.empty());
  ASSERT_FALSE(gossip_text.empty());

  Client client_a(a.port());
  Client client_b(b.port());
  ASSERT_TRUE(client_a.connected());
  ASSERT_TRUE(client_b.connected());

  // Warm a, then solve the same relation on b: the root miss faults
  // through b's exchange tier and comes back as a peer hit at zero
  // exploration, bit-identical to a's answer.
  const std::string reply_a = client_a.request("SOLVE\n" + pulled_text);
  ASSERT_EQ(verb_of(reply_a), "OK");
  const std::string reply_b = client_b.request("SOLVE\n" + pulled_text);
  ASSERT_EQ(verb_of(reply_b), "OK");
  EXPECT_EQ(explored_of(reply_b), 0);
  EXPECT_EQ(body_of(reply_b), body_of(reply_a));
  const std::string stats_b = body_of(client_b.request("STATS"));
  EXPECT_GE(stat_of(stats_b, "peer_pulls"), 1);
  EXPECT_GE(stat_of(stats_b, "peer_pull_hits"), 1);
  EXPECT_GE(stat_of(stats_b, "memo_hits_peer"), 1);

  // A cold solve on b of an a-owned key gossips the completion to its
  // owner: a receives the push (async — poll briefly), after which a
  // serves the relation it never solved at zero exploration.
  const std::string cold_b = client_b.request("SOLVE\n" + gossip_text);
  ASSERT_EQ(verb_of(cold_b), "OK");
  EXPECT_GT(explored_of(cold_b), 0);
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  long long pushes_received = 0;
  while (std::chrono::steady_clock::now() < deadline) {
    pushes_received =
        stat_of(body_of(client_a.request("STATS")), "peer_pushes_received");
    if (pushes_received >= 1) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  ASSERT_GE(pushes_received, 1);
  const std::string warm_a = client_a.request("SOLVE\n" + gossip_text);
  ASSERT_EQ(verb_of(warm_a), "OK");
  EXPECT_EQ(explored_of(warm_a), 0);
  EXPECT_EQ(body_of(warm_a), body_of(cold_b));
}

}  // namespace
}  // namespace brel
