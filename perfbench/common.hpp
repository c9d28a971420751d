#pragma once
// Shared pieces of the repo benchmark: seeded inputs, the correctness
// checker, span tracing, latency statistics and the result every workload
// phase returns.

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "brel/memo_backend.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double ms_between(Clock::time_point a,
                                       Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

// ---------------------------------------------------------------- inputs

/// A well-mixed 32-bit seed derived from (run seed, stream, index), so
/// every input of a run is a pure function of the run's --seed.
[[nodiscard]] std::uint32_t derive_seed(std::uint32_t seed,
                                        std::uint32_t stream,
                                        std::uint64_t index);

/// A seeded synthetic relation (make_benchmark_relation) in the wire
/// form the program receives: the compact `.bdd` text (relation_io.hpp).
[[nodiscard]] std::string make_relation_text(std::size_t inputs,
                                             std::size_t outputs,
                                             std::uint32_t seed);

// --------------------------------------------------------------- checker

/// Parse `text` into a fresh manager, import `solution` with
/// import_pool_solution and check BooleanRelation::is_compatible.  With
/// `complement_first_output` the first output is complemented before the
/// check (the self-test's deliberately wrong function).  Never throws: a
/// parse or import failure is an incompatible answer.
[[nodiscard]] bool check_answer(const std::string& text,
                                const brel::PortableSolution& solution,
                                bool complement_first_output = false);

/// An answer kept for the correctness gate, which runs after the timed
/// loop.  `input` indexes the workload's input texts.
struct Answer {
  std::size_t input = 0;
  brel::PortableSolution solution;
};

/// Check every answer; returns the number of incompatible ones.
[[nodiscard]] std::size_t count_incompatible(
    const std::vector<std::string>& texts, const std::vector<Answer>& answers);

// --------------------------------------------------------------- tracing

/// One traced interval around a call the benchmark makes into a layer.
struct Span {
  std::uint64_t id = 0;
  std::uint64_t parent = 0;  ///< 0 = a request's root span
  std::uint64_t request = 0;
  const char* name = "";
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
};

/// In-memory span recorder.  A disabled tracer records nothing and its
/// scopes cost one branch.  Scopes nest per thread: a scope opened while
/// another is open on the same thread becomes its child.  Threads record
/// into private buffers, merged by spans().
class Tracer {
 public:
  explicit Tracer(bool enabled);
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  [[nodiscard]] bool enabled() const noexcept { return enabled_; }

  class Scope {
   public:
    Scope(Tracer& tracer, const char* name, std::uint64_t request);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer* tracer_ = nullptr;  ///< null when tracing is off
    std::size_t index_ = 0;     ///< position in the thread buffer
  };

  /// All spans recorded so far, ordered by id.
  [[nodiscard]] std::vector<Span> spans() const;

 private:
  struct Buffer {
    std::vector<Span> spans;
    std::vector<std::size_t> open;  ///< indices of open scopes
  };
  Buffer& buffer();

  bool enabled_;
  std::uint64_t serial_;
  std::atomic<std::uint64_t> next_id_{1};
  mutable std::mutex mutex_;
  std::vector<std::unique_ptr<Buffer>> buffers_;  // guarded by mutex_
};

/// The isolated per-layer calls of a traced request, each under its own
/// span: parse `text` into a scratch manager (relation.read), minimize
/// every output projection (isf.minimize), quick-solve the relation
/// (quick.solve) and serialize `answer` (relation.write).
void isolated_layer_calls(Tracer& tracer, std::uint64_t request,
                          const std::string& text,
                          const brel::PortableSolution& answer);

/// Sum of the durations of spans named `name`, in ms.
[[nodiscard]] double span_total_ms(const std::vector<Span>& spans,
                                   const std::string& name);

/// Empty when every non-root span nests in time under a parent span of
/// its own request and every root span is a "request"; otherwise the
/// first violation.
[[nodiscard]] std::string check_span_nesting(const std::vector<Span>& spans);

/// Write the spans as JSON lines (one object per span).
void write_spans(const std::string& path, const std::vector<Span>& spans);

// ------------------------------------------------------------- placement

/// Pin the calling thread to the `slot`-th CPU (modulo their count) of the
/// process's original affinity mask; threads it creates inherit the pin.
/// Set-up repeats rotate over the CPUs, because on a shared host one CPU
/// can run 1.5x slower than another for minutes, and a process tends to
/// stay on the CPU it started on.
void pin_thread(std::size_t slot);

/// Let the calling thread run on every CPU of the original mask again.
void unpin_thread();

// ------------------------------------------------------------ host gauge

/// A fixed computation owned by the benchmark, timed between requests to
/// read how fast the host runs at the moment.  On a shared host the speed
/// of every CPU moves by 10-40% over seconds to minutes, with the load
/// that other tenants put on the shared cache and memory.  The gauge is a
/// small BDD package of its own (unique table, computed table, apply) that
/// builds the same adder functions on every sample, so it meets that load
/// much as the program's BDD code does; it shares no code with the
/// program, so a change to the program never moves it.
class HostGauge {
 public:
  HostGauge();

  /// Time one sample and keep it.
  void sample();

  /// Median sample of this phase, in ms.
  [[nodiscard]] double median_ms() const;

  /// `kReferenceMs` / median_ms(): how much faster than the reference
  /// host the gauge ran during the phase.
  [[nodiscard]] double speed() const;

  /// The gauge reading of the reference host, about that of a quiet
  /// 4-vCPU Xeon VM.
  static constexpr double kReferenceMs = 1.25;

  /// The program's times move as speed() to this power: the gauge, all
  /// cache-bound table work, feels the shared cache more than the program
  /// does.  Two sets of ten 30-second batch_cold runs, measured while the
  /// host ran at speed() 1.39 and 0.90 (medians), came closest (2-7%
  /// apart on throughput, p50 and p95) at 0.75; 0.5 left them 12-19%
  /// apart and 1.0 4-9% apart.  Within one set the slope reads lower
  /// (0.34-0.95, 0.57 pooled over three workloads) because the gauge's
  /// own noise and the seeds' differences dilute it.
  static constexpr double kProgramExponent = 0.75;

 private:
  std::uint32_t apply(int op, std::uint32_t a, std::uint32_t b);
  std::uint32_t node(std::uint32_t var, std::uint32_t lo, std::uint32_t hi);
  std::uint32_t adder(int bits);

  std::vector<std::uint32_t> var_;
  std::vector<std::uint32_t> lo_;
  std::vector<std::uint32_t> hi_;
  std::vector<std::uint32_t> unique_;  // open addressing; 0 = empty
  std::vector<std::uint64_t> cache_key_;
  std::vector<std::uint32_t> cache_value_;
  std::vector<double> samples_ms_;
  std::uint64_t sink_ = 0;
};

// ------------------------------------------------------------ statistics

/// Nearest-rank percentile of an ascending-sorted sample (0 when empty).
[[nodiscard]] double percentile(const std::vector<double>& sorted, double p);

[[nodiscard]] double median(std::vector<double> values);

/// Peak resident set of this process, in MB (VmHWM).
[[nodiscard]] double peak_rss_mb();

// ---------------------------------------------------------------- result

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What one measured phase of a workload produced.
struct PhaseResult {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;        ///< not OK-and-compatible
  std::uint64_t incompatible = 0;  ///< subset of failed
  double setup_s = 0.0;
  double throughput_rps = 0.0;
  double latency_p50_ms = 0.0;
  double latency_p95_ms = 0.0;
  std::size_t latency_samples = 0;
  /// Summed solution cost of the distinct inputs answered in the scored
  /// prefix (a repeated input counts once).
  double cost_total = 0.0;
  double slo_share = 0.0;
  /// VmHWM after a fixed amount of work: the scored prefix on closed
  /// loops (whose request count follows throughput), the whole phase on
  /// the open loop (whose request count is fixed).
  double peak_rss_mb = 0.0;
  double slo_ms = 0.0;       ///< the workload's fixed latency limit
  double offered_rps = 0.0;  ///< open-loop rate; 0 for closed loops
  /// HostGauge::speed() over the requests; the timings above are scaled
  /// by it (scale_to_reference).
  double host_speed = 1.0;
  /// The scaled timings as measured, before scaling.
  double wall_setup_s = 0.0;
  double wall_throughput_rps = 0.0;
  double wall_latency_p50_ms = 0.0;
  double wall_latency_p95_ms = 0.0;
  std::vector<Metric> layers;  ///< per-layer metrics (traced phases only)
  std::vector<Span> spans;     ///< traced phases only
  /// Input texts of the scored prefix, for the self-test's
  /// different-seed check.
  std::vector<std::string> scored_inputs;
};

/// How long a phase measures, and the fixed prefix of requests whose
/// counters (cost, exploration) are summed.  A phase always completes its
/// prefix, even past `seconds`.
struct PhaseBudget {
  double seconds = 10.0;
  bool traced = false;
  /// Requests in the scored prefix; 0 = the workload's own size.  Only
  /// the self-test shortens it.
  std::size_t scored = 0;
};

/// Scale setup_s, the latency percentiles and a closed loop's
/// throughput_rps to the reference host, by speed()^kProgramExponent,
/// keeping the measured values in wall_*.  The gauge samples during the
/// requests, which follow the set-up directly; the set-up alone is too
/// short to sample the host steadily.
void scale_to_reference(PhaseResult& out, const HostGauge& gauge);

/// Latency percentiles and SLO share from raw samples; `ok` marks the
/// samples that count as OK-and-compatible.
void summarize_latency(PhaseResult& out, std::vector<double> latencies_ms,
                       const std::vector<bool>& ok, double slo_ms);

}  // namespace perfbench
