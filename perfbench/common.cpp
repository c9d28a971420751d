#include "common.hpp"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <unordered_map>

#include <sched.h>

#include "benchgen/relation_suite.hpp"
#include "brel/quick_solver.hpp"
#include "brel/solver_pool.hpp"
#include "relation/relation_io.hpp"

namespace perfbench {

std::uint32_t derive_seed(std::uint32_t seed, std::uint32_t stream,
                          std::uint64_t index) {
  // splitmix64 over the packed triple.
  std::uint64_t z = (static_cast<std::uint64_t>(seed) << 32) ^
                    (static_cast<std::uint64_t>(stream) << 24) ^ index;
  z += 0x9e3779b97f4a7c15ULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  z ^= z >> 31;
  return static_cast<std::uint32_t>(z ^ (z >> 32));
}

std::string make_relation_text(std::size_t inputs, std::size_t outputs,
                               std::uint32_t seed) {
  brel::BddManager mgr{0, 14};
  std::vector<std::uint32_t> in_vars;
  std::vector<std::uint32_t> out_vars;
  const brel::RelationBenchmark bench{"perfbench", inputs, outputs, seed};
  const brel::BooleanRelation r =
      brel::make_benchmark_relation(mgr, bench, in_vars, out_vars);
  return brel::write_relation_bdd(r);
}

bool check_answer(const std::string& text,
                  const brel::PortableSolution& solution,
                  bool complement_first_output) {
  try {
    brel::BddManager mgr{0, 14};
    const brel::BooleanRelation r = brel::read_relation(mgr, text);
    brel::PoolResult reply;
    reply.solution = solution;
    brel::MultiFunction f = brel::import_pool_solution(mgr, r, reply);
    if (f.num_outputs() != r.num_outputs()) return false;
    if (complement_first_output && !f.outputs.empty()) {
      f.outputs[0] = !f.outputs[0];
    }
    return r.is_compatible(f);
  } catch (const std::exception&) {
    return false;
  }
}

std::size_t count_incompatible(const std::vector<std::string>& texts,
                               const std::vector<Answer>& answers) {
  // Repeated requests often get byte-identical answers; check each
  // distinct (input, solution) pair once.
  std::map<std::size_t, std::vector<const brel::PortableSolution*>> seen;
  std::size_t bad = 0;
  for (const Answer& a : answers) {
    auto& done = seen[a.input];
    if (std::any_of(done.begin(), done.end(),
                    [&](const brel::PortableSolution* s) {
                      return *s == a.solution;
                    })) {
      continue;
    }
    done.push_back(&a.solution);
    if (!check_answer(texts.at(a.input), a.solution)) ++bad;
  }
  return bad;
}

// --------------------------------------------------------------- tracing

namespace {

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

}  // namespace

Tracer::Tracer(bool enabled) : enabled_(enabled) {
  static std::atomic<std::uint64_t> serials{1};
  serial_ = serials.fetch_add(1, std::memory_order_relaxed);
}

Tracer::Buffer& Tracer::buffer() {
  // One buffer per (tracer, thread), found by the tracer's serial number
  // (never its address, which a later tracer may reuse).  Tracers are few
  // and short-lived, so the lookup walks a tiny list.
  thread_local std::vector<std::pair<std::uint64_t, Buffer*>> mine;
  for (const auto& [serial, buf] : mine) {
    if (serial == serial_) return *buf;
  }
  std::lock_guard<std::mutex> lock(mutex_);
  buffers_.push_back(std::make_unique<Buffer>());
  Buffer* buf = buffers_.back().get();
  mine.emplace_back(serial_, buf);
  return *buf;
}

Tracer::Scope::Scope(Tracer& tracer, const char* name,
                     std::uint64_t request) {
  if (!tracer.enabled_) return;
  tracer_ = &tracer;
  Buffer& buf = tracer.buffer();
  Span span;
  span.id = tracer.next_id_.fetch_add(1, std::memory_order_relaxed);
  span.parent = buf.open.empty() ? 0 : buf.spans[buf.open.back()].id;
  span.request = request;
  span.name = name;
  span.start_ns = now_ns();
  index_ = buf.spans.size();
  buf.spans.push_back(span);
  buf.open.push_back(index_);
}

Tracer::Scope::~Scope() {
  if (tracer_ == nullptr) return;
  Buffer& buf = tracer_->buffer();
  buf.spans[index_].end_ns = now_ns();
  buf.open.pop_back();
}

std::vector<Span> Tracer::spans() const {
  std::vector<Span> all;
  std::lock_guard<std::mutex> lock(mutex_);
  for (const auto& buf : buffers_) {
    all.insert(all.end(), buf->spans.begin(), buf->spans.end());
  }
  std::sort(all.begin(), all.end(),
            [](const Span& a, const Span& b) { return a.id < b.id; });
  return all;
}

void isolated_layer_calls(Tracer& tracer, std::uint64_t request,
                          const std::string& text,
                          const brel::PortableSolution& answer) {
  brel::BddManager scratch{0};
  std::optional<brel::BooleanRelation> r;
  {
    Tracer::Scope span(tracer, "relation.read", request);
    r.emplace(brel::read_relation(scratch, text));
  }
  const brel::IsfMinimizer minimizer{};
  for (std::size_t o = 0; o < r->num_outputs(); ++o) {
    const brel::Isf isf = r->project_output(o);
    Tracer::Scope span(tracer, "isf.minimize", request);
    (void)minimizer.minimize(isf);
  }
  {
    Tracer::Scope span(tracer, "quick.solve", request);
    (void)brel::quick_solve(*r, minimizer);
  }
  std::ostringstream os;
  Tracer::Scope span(tracer, "relation.write", request);
  brel::write_portable_solution(os, answer);
}

double span_total_ms(const std::vector<Span>& spans, const std::string& name) {
  std::int64_t ns = 0;
  for (const Span& s : spans) {
    if (name == s.name) ns += s.end_ns - s.start_ns;
  }
  return static_cast<double>(ns) / 1e6;
}

std::string check_span_nesting(const std::vector<Span>& spans) {
  std::unordered_map<std::uint64_t, const Span*> by_id;
  for (const Span& s : spans) by_id.emplace(s.id, &s);
  for (const Span& s : spans) {
    if (s.end_ns < s.start_ns) {
      return std::string("span ") + s.name + " ends before it starts";
    }
    if (s.parent == 0) {
      if (std::string(s.name) != "request") {
        return std::string("root span ") + s.name + " is not a request";
      }
      continue;
    }
    const auto it = by_id.find(s.parent);
    if (it == by_id.end()) {
      return std::string("span ") + s.name + " has no recorded parent";
    }
    const Span& p = *it->second;
    if (p.request != s.request) {
      return std::string("span ") + s.name + " of request " +
             std::to_string(s.request) + " nests under request " +
             std::to_string(p.request);
    }
    if (s.start_ns < p.start_ns || s.end_ns > p.end_ns) {
      return std::string("span ") + s.name + " leaves its parent " + p.name;
    }
  }
  return {};
}

void write_spans(const std::string& path, const std::vector<Span>& spans) {
  std::ofstream out(path);
  for (const Span& s : spans) {
    out << "{\"id\":" << s.id << ",\"parent\":" << s.parent
        << ",\"request\":" << s.request << ",\"name\":\"" << s.name
        << "\",\"start_ns\":" << s.start_ns << ",\"end_ns\":" << s.end_ns
        << "}\n";
  }
}

// ------------------------------------------------------------- placement

namespace {

/// The affinity mask the process started with, as a CPU list.
const std::vector<int>& usable_cpus() {
  static const std::vector<int> cpus = [] {
    std::vector<int> out;
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof set, &set) == 0) {
      for (int c = 0; c < CPU_SETSIZE; ++c) {
        if (CPU_ISSET(c, &set)) out.push_back(c);
      }
    }
    return out;
  }();
  return cpus;
}

}  // namespace

void pin_thread(std::size_t slot) {
  const std::vector<int>& cpus = usable_cpus();
  if (cpus.empty()) return;
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpus[slot % cpus.size()], &set);
  (void)sched_setaffinity(0, sizeof set, &set);
}

void unpin_thread() {
  const std::vector<int>& cpus = usable_cpus();
  if (cpus.empty()) return;
  cpu_set_t set;
  CPU_ZERO(&set);
  for (const int c : cpus) CPU_SET(c, &set);
  (void)sched_setaffinity(0, sizeof set, &set);
}

// ------------------------------------------------------------ host gauge

namespace {

constexpr std::uint32_t kGaugeUniqueSlots = 1u << 18;
constexpr std::uint32_t kGaugeCacheSlots = 1u << 16;
constexpr std::uint32_t kGaugeTerminalVar = 1u << 30;

std::uint64_t mix64(std::uint64_t z) {
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

}  // namespace

HostGauge::HostGauge()
    : unique_(kGaugeUniqueSlots),
      cache_key_(kGaugeCacheSlots),
      cache_value_(kGaugeCacheSlots) {}

std::uint32_t HostGauge::node(std::uint32_t var, std::uint32_t lo,
                              std::uint32_t hi) {
  if (lo == hi) return lo;
  const std::uint64_t h = mix64((static_cast<std::uint64_t>(var) << 48) ^
                                (static_cast<std::uint64_t>(lo) << 24) ^ hi);
  for (std::uint32_t s = h & (kGaugeUniqueSlots - 1);;
       s = (s + 1) & (kGaugeUniqueSlots - 1)) {
    const std::uint32_t n = unique_[s];
    if (n == 0) {
      const auto created = static_cast<std::uint32_t>(var_.size());
      var_.push_back(var);
      lo_.push_back(lo);
      hi_.push_back(hi);
      unique_[s] = created;
      return created;
    }
    if (var_[n] == var && lo_[n] == lo && hi_[n] == hi) return n;
  }
}

/// op 0 = and, 1 = or, 2 = xor; nodes 0 and 1 are the constants.
std::uint32_t HostGauge::apply(int op, std::uint32_t a, std::uint32_t b) {
  if (op == 0) {
    if (a == 0 || b == 0) return 0;
    if (a == 1 || a == b) return b;
    if (b == 1) return a;
  } else if (op == 1) {
    if (a == 1 || b == 1) return 1;
    if (a == 0 || a == b) return b;
    if (b == 0) return a;
  } else {
    if (a == 0) return b;
    if (b == 0) return a;
    if (a == b) return 0;
  }
  if (a > b) std::swap(a, b);
  const std::uint64_t key = (static_cast<std::uint64_t>(op) << 60) ^
                            (static_cast<std::uint64_t>(a) << 30) ^ b;
  const std::uint32_t slot = mix64(key) & (kGaugeCacheSlots - 1);
  if (cache_key_[slot] == key) return cache_value_[slot];
  const std::uint32_t v = std::min(var_[a], var_[b]);
  const bool at_a = var_[a] == v;
  const bool at_b = var_[b] == v;
  const std::uint32_t lo =
      apply(op, at_a ? lo_[a] : a, at_b ? lo_[b] : b);
  const std::uint32_t hi =
      apply(op, at_a ? hi_[a] : a, at_b ? hi_[b] : b);
  const std::uint32_t r = node(v, lo, hi);
  cache_key_[slot] = key;
  cache_value_[slot] = r;
  return r;
}

/// From empty tables: the sum bits of a + b, each compared with c, under
/// the interleaved order a0 b0 c0 a1 b1 c1 ...
std::uint32_t HostGauge::adder(int bits) {
  var_.assign(2, kGaugeTerminalVar);
  lo_.assign({0, 1});
  hi_.assign({0, 1});
  std::fill(unique_.begin(), unique_.end(), 0);
  std::fill(cache_key_.begin(), cache_key_.end(), ~0ULL);
  std::uint32_t carry = 0;
  std::uint32_t equal = 1;
  std::uint32_t any = 0;
  for (int i = 0; i < bits; ++i) {
    const auto base = static_cast<std::uint32_t>(3 * i);
    const std::uint32_t a = node(base, 0, 1);
    const std::uint32_t b = node(base + 1, 0, 1);
    const std::uint32_t c = node(base + 2, 0, 1);
    const std::uint32_t half = apply(2, a, b);
    const std::uint32_t sum = apply(2, half, carry);
    carry = apply(1, apply(0, a, b), apply(0, carry, half));
    equal = apply(0, equal, apply(2, apply(2, sum, c), 1));
    any = apply(2, any, apply(1, sum, c));
  }
  return apply(1, equal, any) + static_cast<std::uint32_t>(var_.size());
}

void HostGauge::sample() {
  // An untimed build first brings the tables into cache, so a sample does
  // not depend on how much of the cache the program's last request used.
  sink_ += adder(19);
  const auto t0 = Clock::now();
  for (int bits = 16; bits < 20; ++bits) sink_ += adder(bits);
  samples_ms_.push_back(ms_between(t0, Clock::now()));
}

double HostGauge::median_ms() const { return median(samples_ms_); }

double HostGauge::speed() const {
  const double ms = median_ms();
  return ms > 0.0 ? kReferenceMs / ms : 1.0;
}

// ------------------------------------------------------------ statistics

double percentile(const std::vector<double>& sorted, double p) {
  if (sorted.empty()) return 0.0;
  const auto rank = static_cast<std::size_t>(
      std::ceil(p * static_cast<double>(sorted.size())));
  return sorted[std::clamp<std::size_t>(rank, 1, sorted.size()) - 1];
}

double median(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  if (values.empty()) return 0.0;
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2]
                    : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB -> MB
    }
  }
  return 0.0;
}

void scale_to_reference(PhaseResult& out, const HostGauge& gauge) {
  out.host_speed = gauge.speed();
  out.wall_setup_s = out.setup_s;
  out.wall_throughput_rps = out.throughput_rps;
  out.wall_latency_p50_ms = out.latency_p50_ms;
  out.wall_latency_p95_ms = out.latency_p95_ms;
  const double scale =
      std::pow(out.host_speed, HostGauge::kProgramExponent);
  out.setup_s *= scale;
  // An open loop's throughput is its offered rate, which the host does
  // not set.
  if (out.offered_rps == 0.0) out.throughput_rps /= scale;
  out.latency_p50_ms *= scale;
  out.latency_p95_ms *= scale;
}

void summarize_latency(PhaseResult& out, std::vector<double> latencies_ms,
                       const std::vector<bool>& ok, double slo_ms) {
  std::size_t within = 0;
  for (std::size_t i = 0; i < latencies_ms.size(); ++i) {
    if (ok[i] && latencies_ms[i] <= slo_ms) ++within;
  }
  out.slo_share = out.attempted == 0 ? 0.0
                                     : static_cast<double>(within) /
                                           static_cast<double>(out.attempted);
  std::sort(latencies_ms.begin(), latencies_ms.end());
  out.latency_samples = latencies_ms.size();
  out.latency_p50_ms = percentile(latencies_ms, 0.50);
  out.latency_p95_ms = percentile(latencies_ms, 0.95);
}

}  // namespace perfbench
