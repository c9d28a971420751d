// brel_server — socket service front end over a SolverPool.
//
// Listens on a TCP port and serves length-prefixed request frames (see
// src/brel/server.hpp for the frame grammar): SOLVE frames carry a
// `.br`/`.bdd` relation and answer a portable solution, STATS frames
// (and any plain connection to --metrics-port) answer the metrics
// block, PING answers "OK ping".  SIGTERM/SIGINT begin a graceful
// drain: accepting stops, every accepted request is answered, a serve
// summary is printed, and the exit status is 0 iff accepted == answered.
//
//   brel_server [options]
//     --port=N                listen port (default 7117; 0 = ephemeral,
//                             printed on stdout)
//     --host=A                bind address (default 127.0.0.1)
//     --metrics-port=N        plain-text stats listener (off by default;
//                             0 = ephemeral); `nc host port` works
//     --workers=N             pool slots (0 = one per hardware thread)
//     --max-pending=N         admission bound: BUSY past N resident
//                             requests (default 64)
//     --resume-pending=N      low watermark: admission reopens at N
//                             (default max-pending/2)
//     --max-frame-bytes=N     oversized-frame bound (default 4 MiB)
//     --deadline-ms=N         default deadline for SOLVE frames that
//                             carry none (default: none)
//     --cost=size|size2|cubes|lits|balance   objective (default size)
//     --max-relations=N       per-request exploration budget (default 10)
//     --max-depth=N           truncate the tree below depth N
//     --no-bound              disable the line-6 cost bound
//     --no-memo               disable the cross-solve memo
//     --incremental           delta-driven re-solve across requests
//     --totalize              repair partial request relations
//     --memo-load=PATH        restore a tier-1 memo snapshot at start
//     --memo-save=PATH        write a memo snapshot after the drain
//     --memo-peers=H:P,...    tier-2 memo ring: the other members
//     --memo-self=H:P         this member's ring identity (default:
//                             the bound host:port)
//     --memo-pull-timeout-ms=N  MEMO_PULL round-trip deadline (250)

#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <string>

#include "brel/delta_context.hpp"
#include "brel/server.hpp"
#include "brel/solver.hpp"

namespace {

// Signal handlers may only flip this; the main loop polls it and runs
// the actual drain outside async-signal context.
volatile std::sig_atomic_t g_stop = 0;

void on_signal(int) { g_stop = 1; }

[[noreturn]] void usage(int code) {
  std::fprintf(code == 0 ? stdout : stderr,
               "usage: brel_server [--port=N] [--host=A] [--metrics-port=N]\n"
               "                   [--workers=N] [--max-pending=N]\n"
               "                   [--resume-pending=N] [--max-frame-bytes=N]\n"
               "                   [--deadline-ms=N]\n"
               "                   [--cost=size|size2|cubes|lits|balance]\n"
               "                   [--max-relations=N] [--max-depth=N]\n"
               "                   [--no-bound] [--no-memo] [--incremental]\n"
               "                   [--totalize] [--memo-load=PATH]\n"
               "                   [--memo-save=PATH] [--memo-peers=H:P,...]\n"
               "                   [--memo-self=H:P]\n"
               "                   [--memo-pull-timeout-ms=N]\n");
  std::exit(code);
}

brel::CostFunction cost_by_name(const std::string& name) {
  if (name == "size") return brel::sum_of_bdd_sizes();
  if (name == "size2") return brel::sum_of_squared_bdd_sizes();
  if (name == "cubes") return brel::cube_count_cost();
  if (name == "lits") return brel::literal_count_cost();
  if (name == "balance") return brel::support_balance_cost();
  std::fprintf(stderr, "unknown cost '%s'\n", name.c_str());
  usage(2);
}

}  // namespace

int main(int argc, char** argv) {
  brel::ServerOptions options;
  options.port = 7117;
  std::string cost = "size";
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value_of = [&](const char* prefix) -> const char* {
      const std::size_t len = std::strlen(prefix);
      return arg.compare(0, len, prefix) == 0 ? arg.c_str() + len : nullptr;
    };
    if (arg == "--help" || arg == "-h") {
      usage(0);
    } else if (const char* v = value_of("--port=")) {
      options.port = static_cast<std::uint16_t>(std::strtoul(v, nullptr, 10));
    } else if (const char* v = value_of("--host=")) {
      options.host = v;
    } else if (const char* v = value_of("--metrics-port=")) {
      options.metrics_port = static_cast<int>(std::strtol(v, nullptr, 10));
    } else if (const char* v = value_of("--workers=")) {
      options.pool.workers =
          static_cast<std::size_t>(std::strtoul(v, nullptr, 10));
    } else if (const char* v = value_of("--max-pending=")) {
      options.max_pending =
          static_cast<std::size_t>(std::strtoul(v, nullptr, 10));
    } else if (const char* v = value_of("--resume-pending=")) {
      options.resume_pending =
          static_cast<std::size_t>(std::strtoul(v, nullptr, 10));
    } else if (const char* v = value_of("--max-frame-bytes=")) {
      options.max_frame_bytes =
          static_cast<std::size_t>(std::strtoul(v, nullptr, 10));
    } else if (const char* v = value_of("--deadline-ms=")) {
      options.default_deadline =
          std::chrono::milliseconds(std::strtol(v, nullptr, 10));
    } else if (const char* v = value_of("--cost=")) {
      cost = v;
    } else if (const char* v = value_of("--max-relations=")) {
      options.pool.solver.max_relations =
          static_cast<std::size_t>(std::strtoul(v, nullptr, 10));
    } else if (const char* v = value_of("--max-depth=")) {
      options.pool.solver.max_depth =
          static_cast<std::size_t>(std::strtoul(v, nullptr, 10));
    } else if (arg == "--no-bound") {
      options.pool.solver.use_cost_bound = false;
    } else if (arg == "--no-memo") {
      options.pool.share_memo = false;
    } else if (arg == "--incremental") {
      options.pool.incremental = true;
    } else if (arg == "--totalize") {
      options.pool.totalize = true;
    } else if (const char* v = value_of("--memo-load=")) {
      options.pool.memo_load_path = v;
    } else if (const char* v = value_of("--memo-save=")) {
      options.pool.memo_save_path = v;
    } else if (const char* v = value_of("--memo-peers=")) {
      // Comma-separated host:port list.
      std::string rest = v;
      while (!rest.empty()) {
        const std::size_t comma = rest.find(',');
        const std::string item = rest.substr(0, comma);
        if (!item.empty()) {
          options.memo_peers.push_back(item);
        }
        if (comma == std::string::npos) break;
        rest.erase(0, comma + 1);
      }
    } else if (const char* v = value_of("--memo-self=")) {
      options.memo_self = v;
    } else if (const char* v = value_of("--memo-pull-timeout-ms=")) {
      options.memo_pull_timeout_ms =
          static_cast<int>(std::strtol(v, nullptr, 10));
    } else {
      std::fprintf(stderr, "unknown option '%s'\n", arg.c_str());
      usage(2);
    }
  }
  options.pool.solver.cost = cost_by_name(cost);
  if (brel::resolve_incremental(options.pool.incremental)) {
    // The same option set as brel_cli --incremental.  Pool slots run
    // SearchEngine directly and ignore partition_inputs, so requests are
    // not pre-split into input blocks (see solver_pool.hpp).
    options.pool.solver.partition_inputs = 4;
  }

  brel::Server server(options);
  try {
    server.start();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "brel_server: %s\n", e.what());
    return 2;
  }

  std::signal(SIGTERM, on_signal);
  std::signal(SIGINT, on_signal);

  std::printf("brel_server listening on %s:%u", options.host.c_str(),
              static_cast<unsigned>(server.port()));
  if (server.metrics_port() != 0) {
    std::printf(" (metrics %u)", static_cast<unsigned>(server.metrics_port()));
  }
  std::printf("\n");
  std::fflush(stdout);

  // Park until a signal arrives; the real work happens on the server's
  // listener/connection threads.
  while (g_stop == 0) {
    struct timespec ts {0, 100 * 1000 * 1000};
    ::nanosleep(&ts, nullptr);
  }

  std::fprintf(stderr, "brel_server: draining...\n");
  server.begin_drain();
  server.wait();

  const brel::ServerMetrics m = server.metrics();
  std::printf(
      "# served: accepted=%llu answered=%llu busy=%llu shutdown=%llu "
      "timeout=%llu request_errors=%llu protocol_errors=%llu "
      "connections=%llu uptime=%.3fs\n",
      static_cast<unsigned long long>(m.accepted),
      static_cast<unsigned long long>(m.answered),
      static_cast<unsigned long long>(m.rejected_busy),
      static_cast<unsigned long long>(m.rejected_shutdown),
      static_cast<unsigned long long>(m.timed_out),
      static_cast<unsigned long long>(m.request_errors),
      static_cast<unsigned long long>(m.protocol_errors),
      static_cast<unsigned long long>(m.connections_opened), m.uptime_seconds);
  if (!options.pool.memo_load_path.empty() ||
      !options.pool.memo_save_path.empty() || !options.memo_peers.empty()) {
    std::printf(
        "# memo tiers: snapshot_loaded=%llu snapshot_saved=%llu "
        "hits_run=%llu hits_snapshot=%llu hits_peer=%llu "
        "peer_pulls=%llu peer_pull_hits=%llu peer_pushes=%llu\n",
        static_cast<unsigned long long>(m.snapshot_entries_loaded),
        static_cast<unsigned long long>(m.snapshot_entries_saved),
        static_cast<unsigned long long>(m.memo_hits_run),
        static_cast<unsigned long long>(m.memo_hits_snapshot),
        static_cast<unsigned long long>(m.memo_hits_peer),
        static_cast<unsigned long long>(m.peer_pulls),
        static_cast<unsigned long long>(m.peer_pull_hits),
        static_cast<unsigned long long>(m.peer_pushes));
  }
  // The drain contract: everything admitted was answered.
  if (m.accepted != m.answered) {
    std::fprintf(stderr, "brel_server: DRAIN LOST %llu request(s)\n",
                 static_cast<unsigned long long>(m.accepted - m.answered));
    return 1;
  }
  return 0;
}
