// brel_perfbench: runs one workload of the repo benchmark and prints its
// metrics; the last stdout line is one JSON object
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// holding the end-to-end metrics (--trace 0) or the per-layer metrics
// (--trace 1).  The line before it is the full record (seed, build type,
// compiler, host threads, workload shape, host speed, the scaled timings
// as measured, every metric).
//
//   brel_perfbench --workload batch_cold|eco_stream|service_open
//                  --seed N --seconds S --trace 0|1 [--trace-out PATH]
//   brel_perfbench --selftest
//
// Exit status 1 on any incompatible answer or a failed self-test.

#include <cmath>
#include <cstdio>
#include <map>

#include <malloc.h>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "brel/lock_stats.hpp"
#include "brel/quick_solver.hpp"
#include "relation/relation_io.hpp"
#include "workloads.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif
#ifndef PERFBENCH_COMPILER
#define PERFBENCH_COMPILER "unknown"
#endif

namespace perfbench {

const std::vector<LayerMetricSpec>& layer_metric_specs() {
  static const std::vector<LayerMetricSpec> specs = {
      {"bdd.cache_lookups", "count"},
      {"bdd.cache_hit_rate", "ratio"},
      {"bdd.nodes_created", "count"},
      {"bdd.gc_runs", "count"},
      {"bdd.peak_nodes", "count"},
      {"isf.minimize_calls", "count"},
      {"isf.minimize_ms", "ms"},
      {"quick.solve_calls", "count"},
      {"quick.solve_ms", "ms"},
      {"search.solve_ms", "ms"},
      {"search.explored", "count"},
      {"search.splits", "count"},
      {"search.conflicts", "count"},
      {"search.pruned_by_cost", "count"},
      {"relation.read_ms", "ms"},
      {"relation.write_ms", "ms"},
      {"memo.probes", "count"},
      {"memo.hits", "count"},
      {"memo.hit_share", "ratio"},
      {"memo.publishes", "count"},
      {"memo.entries", "count"},
      {"delta.reused", "count"},
      {"delta.researched", "count"},
      {"delta.reuse_share", "ratio"},
      {"pool.queue_ms", "ms"},
      {"pool.engine_ms", "ms"},
      {"pool.lock_wait_ms", "ms"},
      {"server.rtt_ms", "ms"},
      {"server.ping_rtt_ms", "ms"},
      {"server.busy", "count"},
      {"server.errors", "count"},
      {"gen.late_ms", "ms"},
      {"trace.overhead_p50_ms", "ms"},
      {"trace.overhead_throughput_share", "ratio"},
  };
  return specs;
}

void set_layer(PhaseResult& out, const std::string& name, double value) {
  for (const LayerMetricSpec& spec : layer_metric_specs()) {
    if (name == spec.name) {
      out.layers.push_back({name, value, spec.unit});
      return;
    }
  }
  throw std::logic_error("unknown per-layer metric " + name);
}

namespace {

using WorkloadFn = PhaseResult (*)(std::uint32_t, const PhaseBudget&);

WorkloadFn workload_by_name(const std::string& name) {
  if (name == "batch_cold") return run_batch_cold;
  if (name == "eco_stream") return run_eco_stream;
  if (name == "service_open") return run_service_open;
  return nullptr;
}

std::string number(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string metrics_json(const std::vector<Metric>& metrics) {
  std::string s = "{";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) s += ", ";
    s += "\"" + metrics[i].name + "\": {\"value\": " +
         number(metrics[i].value) + ", \"unit\": \"" + metrics[i].unit +
         "\"}";
  }
  return s + "}";
}

std::vector<Metric> end_to_end(const PhaseResult& r) {
  const double ok_share =
      r.attempted == 0 ? 0.0
                       : static_cast<double>(r.attempted - r.failed) /
                             static_cast<double>(r.attempted);
  return {
      {"setup_s", r.setup_s, "s"},
      {"throughput_rps", r.throughput_rps, "1/s"},
      {"latency_p50_ms", r.latency_p50_ms, "ms"},
      {"latency_p95_ms", r.latency_p95_ms, "ms"},
      {"cost_total", r.cost_total, "cost"},
      {"ok_share", ok_share, "ratio"},
      {"slo_share", r.slo_share, "ratio"},
      {"peak_rss_mb", r.peak_rss_mb, "MB"},
  };
}

/// Every per-layer metric in spec order; the ones the phase did not set
/// read 0.
std::vector<Metric> per_layer(const PhaseResult& traced,
                              const PhaseResult& untraced) {
  std::map<std::string, double> set;
  for (const Metric& m : traced.layers) {
    // Times scale to the reference host, as the end-to-end ones do.
    set[m.name] = m.unit == "ms" ? m.value * std::pow(traced.host_speed,
                                                      HostGauge::kProgramExponent)
                                 : m.value;
  }
  set["trace.overhead_p50_ms"] =
      traced.latency_p50_ms - untraced.latency_p50_ms;
  set["trace.overhead_throughput_share"] =
      untraced.throughput_rps == 0.0
          ? 0.0
          : (untraced.throughput_rps - traced.throughput_rps) /
                untraced.throughput_rps;
  std::vector<Metric> out;
  for (const LayerMetricSpec& spec : layer_metric_specs()) {
    out.push_back({spec.name, set[spec.name], spec.unit});
  }
  return out;
}

int run_workload(const std::string& name, std::uint32_t seed, double seconds,
                 bool trace, const std::string& trace_out) {
  const WorkloadFn fn = workload_by_name(name);
  if (fn == nullptr) {
    std::fprintf(stderr, "unknown workload '%s'\n", name.c_str());
    return 2;
  }
  std::vector<Metric> metrics;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::uint64_t incompatible = 0;
  PhaseResult shown;
  if (!trace) {
    shown = fn(seed, {seconds, false});
    metrics = end_to_end(shown);
    attempted = shown.attempted;
    failed = shown.failed;
    incompatible = shown.incompatible;
  } else {
    // Traced phase first, then an untraced phase of equal length from a
    // fresh program state; their difference is the tracing overhead.
    const PhaseResult traced = fn(seed, {seconds / 2, true});
    const PhaseResult untraced = fn(seed, {seconds / 2, false});
    metrics = per_layer(traced, untraced);
    attempted = traced.attempted + untraced.attempted;
    failed = traced.failed + untraced.failed;
    incompatible = traced.incompatible + untraced.incompatible;
    if (!trace_out.empty()) write_spans(trace_out, traced.spans);
    const std::string nesting = check_span_nesting(traced.spans);
    if (!nesting.empty()) {
      std::fprintf(stderr, "trace: %s\n", nesting.c_str());
      return 1;
    }
    std::printf("%s traced: %zu spans; overhead p50 %+.4f ms\n", name.c_str(),
                traced.spans.size(),
                traced.latency_p50_ms - untraced.latency_p50_ms);
    shown = traced;
  }

  for (const Metric& m : metrics) {
    std::printf("%-14s %-34s %16.6f %s\n", name.c_str(), m.name.c_str(),
                m.value, m.unit.c_str());
  }
  std::printf(
      "{\"record\": {\"workload\": \"%s\", \"seed\": %u, \"seconds\": %s, "
      "\"trace\": %d, \"build_type\": \"%s\", \"compiler\": \"%s\", "
      "\"ndebug\": %s, \"lock_stats\": %s, \"nproc\": %u, "
      "\"latency_samples\": %zu, \"slo_ms\": %s, \"offered_rps\": %s, "
      "\"gauge_reference_ms\": %s, \"host_speed\": %s, "
      "\"program_exponent\": %s, \"wall\": {\"setup_s\": %s, "
      "\"throughput_rps\": %s, \"latency_p50_ms\": %s, "
      "\"latency_p95_ms\": %s}, \"metrics\": %s}}\n",
      name.c_str(), seed, number(seconds).c_str(), trace ? 1 : 0,
      PERFBENCH_BUILD_TYPE, PERFBENCH_COMPILER,
#ifdef NDEBUG
      "true",
#else
      "false",
#endif
      brel::lock_stats_compiled() ? "true" : "false",
      std::thread::hardware_concurrency(), shown.latency_samples,
      number(shown.slo_ms).c_str(), number(shown.offered_rps).c_str(),
      number(HostGauge::kReferenceMs).c_str(),
      number(shown.host_speed).c_str(),
      number(HostGauge::kProgramExponent).c_str(),
      number(shown.wall_setup_s).c_str(),
      number(shown.wall_throughput_rps).c_str(),
      number(shown.wall_latency_p50_ms).c_str(),
      number(shown.wall_latency_p95_ms).c_str(),
      metrics_json(metrics).c_str());
  std::printf(
      "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
      "\"metrics\": %s}\n",
      incompatible == 0 ? "true" : "false",
      static_cast<unsigned long long>(attempted),
      static_cast<unsigned long long>(failed), metrics_json(metrics).c_str());
  std::fflush(stdout);
  if (incompatible != 0) {
    std::fprintf(stderr, "%s: %llu incompatible answer(s)\n", name.c_str(),
                 static_cast<unsigned long long>(incompatible));
    return 1;
  }
  return 0;
}

// ------------------------------------------------------------ self-test

int selftest() {
  int failures = 0;
  const auto expect = [&](bool cond, const std::string& what) {
    std::printf("%s  %s\n", cond ? "ok  " : "FAIL", what.c_str());
    if (!cond) ++failures;
  };
  const auto layer = [](const PhaseResult& r, const std::string& name) {
    for (const Metric& m : r.layers) {
      if (m.name == name) return m.value;
    }
    return -1.0;
  };

  // Same-seed determinism of the scored counters; a different seed
  // changes the inputs.  seconds = 0 runs exactly a short scored prefix.
  const std::vector<std::string> deterministic = {
      "search.explored",    "search.splits",     "search.conflicts",
      "isf.minimize_calls", "quick.solve_calls", "memo.probes",
      "memo.hits",          "memo.publishes",    "memo.entries",
      "delta.reused",       "delta.researched",  "bdd.nodes_created",
      "bdd.cache_lookups"};
  for (const auto& [name, fn] :
       std::vector<std::pair<std::string, WorkloadFn>>{
           {"batch_cold", run_batch_cold}, {"eco_stream", run_eco_stream}}) {
    const PhaseResult a = fn(7, {0.0, true, 16});
    const PhaseResult b = fn(7, {0.0, true, 16});
    const PhaseResult c = fn(8, {0.0, false, 16});
    expect(a.incompatible == 0 && b.incompatible == 0 && c.incompatible == 0,
           name + ": every answer compatible");
    expect(a.cost_total == b.cost_total && a.cost_total > 0,
           name + ": same seed, same cost_total (" +
               std::to_string(a.cost_total) + ")");
    for (const std::string& counter : deterministic) {
      if (layer(a, counter) < 0) continue;  // not a layer of this workload
      expect(layer(a, counter) == layer(b, counter),
             name + ": same seed, same " + counter + " (" +
                 std::to_string(layer(a, counter)) + ")");
    }
    expect(a.scored_inputs != c.scored_inputs,
           name + ": a different seed changes the inputs");
    const std::string nesting = check_span_nesting(a.spans);
    expect(!a.spans.empty() && nesting.empty(),
           name + ": spans nest under their own request " + nesting);
  }

  // The checker rejects a wrong function: one output complemented.
  {
    const std::string text = make_relation_text(6, 3, 11);
    brel::BddManager mgr{0};
    const brel::BooleanRelation r = brel::read_relation(mgr, text);
    const brel::MultiFunction f = brel::quick_solve(r);
    const brel::PortableSolution s =
        brel::make_portable_solution(brel::make_memo_space(r), f, 0.0);
    expect(check_answer(text, s), "checker accepts a quick_solve answer");
    expect(!check_answer(text, s, true),
           "checker rejects the answer with one output complemented");
  }

  // Service traffic: span nesting across generator threads.
  {
    const PhaseResult s = run_service_open(7, {0.0, true, 200});
    expect(s.incompatible == 0 && s.failed == 0,
           "service_open: every request answered OK and compatible");
    const std::string nesting = check_span_nesting(s.spans);
    expect(!s.spans.empty() && nesting.empty(),
           "service_open: spans nest under their own request " + nesting);
  }
  std::printf("selftest: %s\n", failures == 0 ? "passed" : "FAILED");
  return failures == 0 ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

namespace {

int run_main(int argc, char** argv) {
  std::string workload;
  std::string trace_out;
  std::uint32_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) throw std::invalid_argument(arg + " needs a value");
      return argv[++i];
    };
    if (arg == "--selftest") {
      return perfbench::selftest();
    } else if (arg == "--workload") {
      workload = value();
    } else if (arg == "--seed") {
      seed = static_cast<std::uint32_t>(std::stoul(value()));
    } else if (arg == "--seconds") {
      seconds = std::stod(value());
    } else if (arg == "--trace") {
      trace = value() == "1";
    } else if (arg == "--trace-out") {
      trace_out = value();
    } else {
      throw std::invalid_argument("unknown argument '" + arg + "'");
    }
  }
  if (workload.empty() || seconds < 0) {
    throw std::invalid_argument(
        "usage: brel_perfbench --workload NAME --seed N --seconds S "
        "--trace 0|1 [--trace-out PATH] | --selftest");
  }
  return perfbench::run_workload(workload, seed, seconds, trace, trace_out);
}

}  // namespace

int main(int argc, char** argv) {
  // Keep freed memory in the process, as a long-running service's heap
  // does once warm: fresh BDD managers then reuse pages instead of taking
  // first-touch page faults, whose cost on a shared VM host swings by 2x
  // from one process to the next (set-up time was 70% page faults).
  mallopt(M_MMAP_THRESHOLD, 32 << 20);
  mallopt(M_TRIM_THRESHOLD, 1 << 30);
  try {
    return run_main(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "brel_perfbench: %s\n", e.what());
    return 2;
  }
}
