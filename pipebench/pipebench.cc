// pipebench: times mvrob's pipeline end to end and layer by layer.
//
// One pipeline iteration takes a workload spec through
//   workloads  MakeNamedWorkload (spec -> TransactionSet),
//   mvcc       ConcurrentEngine construction,
//   core       RobustnessAnalyzer + Algorithm 2 + a certifying Check,
//   mvcc       a closed-loop engine round that stops at a fixed number of
//              committed programs,
// and iterations repeat until --seconds have passed. Every phase is a span
// (name, start, end, parent); the end-to-end metrics aggregate the spans
// and rounds of the run. With --trace 1, every other round also times each
// call into the engine, and the run reports per-layer metrics instead.
//
// The benchmark owns the client loop (it does not call RunConcurrent) so
// that each engine call can be timed; it retries exactly as RunConcurrent
// does. Correctness gates run outside every timed window. See README.md.

#include <sched.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <bit>
#include <chrono>
#include <cerrno>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <optional>
#include <random>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "common/json.h"
#include "common/metrics.h"
#include "common/version.h"
#include "core/analyzer.h"
#include "core/optimal_allocation.h"
#include "iso/allocation.h"
#include "mvcc/concurrent_engine.h"
#include "mvcc/roundtrip.h"
#include "workloads/registry.h"

namespace mvrob {
namespace {

using Clock = std::chrono::steady_clock;

int64_t NanosBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(b - a).count();
}

// ---------------------------------------------------------------------------
// Workloads.

struct WorkloadDef {
  const char* name;
  // Generator spec. The generator seed is pinned: Algorithm 2's cost moves
  // by ~15% between synthetic seeds, which would drown the code's own
  // changes. --seed drives each client's program order instead.
  const char* spec;
  // Client threads, clamped to the usable CPU count.
  size_t clients;
  // Committed programs per engine round. The engine keeps every session
  // record, so a round bounded by commits (not time) bounds memory.
  uint64_t round_commits;
};

constexpr WorkloadDef kWorkloads[] = {
    // Algorithm 2 does almost all the work (~1500 robustness checks).
    {"synth-alloc", "synthetic:n=800,seed=3", 1, 20000},
    // The exact SSI commit test dominates the engine; one client, because
    // at 4 clients it ran at 1.5k-12k commits/s with 71-97% of attempts
    // aborted.
    {"smallbank-ssi", "smallbank:c=64", 1, 40000},
    // RC/SI only, uniform keys, one client per core: the engine's
    // concurrency costs (session table, shard latches, commit mutex, GC).
    {"ycsb-rcsi", "ycsb:a,n=64,k=1024,theta=0,seed=1", 4, 200000},
};

// ---------------------------------------------------------------------------
// Spans: kept in memory, written out when the benchmark ends.

struct Span {
  std::string name;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int parent = -1;
};

class SpanLog {
 public:
  explicit SpanLog(Clock::time_point epoch) : epoch_(epoch) {}

  int Open(std::string name, int parent) {
    spans_.push_back({std::move(name), Now(), 0, parent});
    return static_cast<int>(spans_.size()) - 1;
  }
  void Close(int id) { spans_[id].end_ns = Now(); }

  const std::vector<Span>& spans() const { return spans_; }
  double Seconds(int id) const {
    return static_cast<double>(spans_[id].end_ns - spans_[id].start_ns) * 1e-9;
  }

 private:
  int64_t Now() const { return NanosBetween(epoch_, Clock::now()); }

  Clock::time_point epoch_;
  std::vector<Span> spans_;
};

class ScopedSpan {
 public:
  ScopedSpan(SpanLog& log, std::string name, int parent)
      : log_(log), id_(log.Open(std::move(name), parent)) {}
  ~ScopedSpan() { log_.Close(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  int id() const { return id_; }

 private:
  SpanLog& log_;
  int id_;
};

// ---------------------------------------------------------------------------
// Per-call histograms: log-linear buckets, 8 per power of two (12.5%
// resolution), plain counters because each client owns its own.

class CallHistogram {
 public:
  static constexpr size_t kBuckets = 62 * 8;

  void Add(uint64_t ns) {
    ++count_;
    sum_ns_ += ns;
    ++buckets_[Index(ns)];
  }
  void Merge(const CallHistogram& other) {
    count_ += other.count_;
    sum_ns_ += other.sum_ns_;
    for (size_t i = 0; i < kBuckets; ++i) buckets_[i] += other.buckets_[i];
  }
  uint64_t count() const { return count_; }
  uint64_t sum_ns() const { return sum_ns_; }
  double mean_ns() const {
    return count_ == 0 ? 0.0
                       : static_cast<double>(sum_ns_) /
                             static_cast<double>(count_);
  }
  /// The q-quantile, interpolated by rank within its bucket; 0 when empty.
  double Quantile(double q) const {
    if (count_ == 0) return 0.0;
    const auto rank =
        static_cast<uint64_t>(q * static_cast<double>(count_ - 1));
    uint64_t seen = 0;
    for (size_t i = 0; i < kBuckets; ++i) {
      if (seen + buckets_[i] > rank) {
        const double within = (static_cast<double>(rank - seen) + 0.5) /
                              static_cast<double>(buckets_[i]);
        return static_cast<double>(Lower(i)) +
               within * static_cast<double>(Lower(i + 1) - Lower(i));
      }
      seen += buckets_[i];
    }
    return static_cast<double>(Lower(kBuckets - 1));
  }
  uint64_t bucket(size_t i) const { return buckets_[i]; }
  static uint64_t Lower(size_t i) {
    if (i < 8) return i;
    const size_t msb = i / 8 + 2;
    return (8 + i % 8) << (msb - 3);
  }

 private:
  static size_t Index(uint64_t ns) {
    if (ns < 8) return static_cast<size_t>(ns);
    const int msb = 63 - std::countl_zero(ns);
    return static_cast<size_t>(msb - 2) * 8 + ((ns >> (msb - 3)) & 7);
  }

  uint64_t count_ = 0;
  uint64_t sum_ns_ = 0;
  std::array<uint64_t, kBuckets> buckets_{};
};

enum Call : size_t {
  kBegin,
  kRead,
  kWrite,
  kCommitRC,
  kCommitSI,
  kCommitSSI,
  kAbort,
  kNumCalls
};
constexpr const char* kCallNames[kNumCalls] = {
    "begin", "read", "write", "commit_rc", "commit_si", "commit_ssi", "abort"};

Call CommitCall(IsolationLevel level) {
  switch (level) {
    case IsolationLevel::kRC:
      return kCommitRC;
    case IsolationLevel::kSI:
      return kCommitSI;
    case IsolationLevel::kSSI:
      return kCommitSSI;
  }
  return kCommitSSI;
}

// ---------------------------------------------------------------------------
// The engine round: closed-loop clients, each on its own thread.

struct ClientTally {
  uint64_t commits = 0;
  uint64_t attempts = 0;
  uint64_t aborts_no_wait = 0;
  uint64_t aborts_write_conflict = 0;
  uint64_t aborts_commit = 0;
  bool timed_out = false;
  int64_t wall_ns = 0;
  std::vector<uint64_t> latency_ns;
  std::array<CallHistogram, kNumCalls> calls;
};

struct RoundResult {
  bool traced = false;
  uint64_t target = 0;
  double seconds = 0;
  ClientTally total;  // Counts and histograms merged over clients.
  double mean_us = 0;
  double p50_us = 0;
  double p99_us = 0;
  uint64_t latency_samples = 0;
  EngineStats engine;
  size_t sessions = 0;
  size_t versions = 0;
  uint64_t gc_epochs = 0;
  uint64_t gc_reclaimed = 0;
};

/// Same seed mixing as RunConcurrent, so that client w's program order
/// matches RunConcurrent's worker w for the same seed.
uint64_t MixSeed(uint64_t seed, uint64_t worker) {
  uint64_t z = seed + 0x9e3779b97f4a7c15ull * (worker + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

/// Runs programs from `mine` in order, cycling, until `target` commit.
/// Retries like RunConcurrent: a no-wait kBlocked write aborts, yields and
/// retries; an engine abort retries. With kTraced each engine call is
/// timed into the tally's per-call histograms.
template <bool kTraced>
void RunClient(ConcurrentEngine& engine, const TransactionSet& programs,
               const Allocation& alloc, const std::vector<TxnId>& mine,
               uint64_t target, size_t w, Clock::time_point give_up,
               ClientTally& tally) {
  auto timed = [&](Call call, auto&& fn) {
    if constexpr (kTraced) {
      const Clock::time_point t0 = Clock::now();
      auto result = fn();
      tally.calls[call].Add(
          static_cast<uint64_t>(NanosBetween(t0, Clock::now())));
      return result;
    } else {
      return fn();
    }
  };
  Value next_value = (static_cast<Value>(w) << 40) + 1;
  tally.latency_ns.reserve(target);
  const Clock::time_point client_start = Clock::now();
  size_t cursor = 0;
  while (tally.commits < target) {
    const TxnId t = mine[cursor];
    cursor = cursor + 1 == mine.size() ? 0 : cursor + 1;
    const Transaction& program = programs.txn(t);
    const IsolationLevel level = alloc.level(t);
    const Clock::time_point program_start = Clock::now();
    bool committed = false;
    while (!committed) {
      timed(kBegin, [&] { return engine.Begin(w, level); });
      ++tally.attempts;
      bool aborted = false;
      for (int i = 0; !aborted && !committed; ++i) {
        const Operation& op = program.op(i);
        if (op.IsRead()) {
          timed(kRead, [&] { return engine.Read(w, op.object); });
        } else if (op.IsWrite()) {
          const WriteResult result = timed(
              kWrite, [&] { return engine.Write(w, op.object, next_value++); });
          if (result.status == StepStatus::kBlocked) {
            timed(kAbort, [&] {
              engine.Abort(w);
              return 0;
            });
            ++tally.aborts_no_wait;
            aborted = true;
            std::this_thread::yield();
          } else if (result.status == StepStatus::kAborted) {
            ++tally.aborts_write_conflict;
            aborted = true;
          }
        } else {
          const CommitResult result =
              timed(CommitCall(level), [&] { return engine.Commit(w); });
          if (result.status == StepStatus::kOk) {
            committed = true;
          } else {
            ++tally.aborts_commit;
            aborted = true;
          }
        }
      }
    }
    ++tally.commits;
    const Clock::time_point program_end = Clock::now();
    tally.latency_ns.push_back(
        static_cast<uint64_t>(NanosBetween(program_start, program_end)));
    if (program_end > give_up) {
      tally.timed_out = true;
      break;
    }
  }
  tally.wall_ns = NanosBetween(client_start, Clock::now());
}

/// Exact quantile of `values` (reordered in place).
double QuantileOf(std::vector<uint64_t>& values, double q) {
  if (values.empty()) return 0.0;
  const auto k =
      static_cast<size_t>(q * static_cast<double>(values.size() - 1));
  std::nth_element(values.begin(), values.begin() + static_cast<long>(k),
                   values.end());
  return static_cast<double>(values[k]);
}

RoundResult RunRound(ConcurrentEngine& engine, const TransactionSet& programs,
                     const Allocation& alloc,
                     const std::vector<std::vector<TxnId>>& orders,
                     uint64_t target, bool traced,
                     std::chrono::seconds give_up_after) {
  const size_t clients = orders.size();
  std::vector<ClientTally> tallies(clients);
  std::atomic<bool> go{false};
  const Clock::time_point give_up = Clock::now() + give_up_after;
  std::vector<std::thread> threads;
  threads.reserve(clients);
  for (size_t w = 0; w < clients; ++w) {
    const uint64_t share = target / clients + (w < target % clients ? 1 : 0);
    threads.emplace_back([&, w, share] {
      while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
      if (traced) {
        RunClient<true>(engine, programs, alloc, orders[w], share, w, give_up,
                        tallies[w]);
      } else {
        RunClient<false>(engine, programs, alloc, orders[w], share, w,
                         give_up, tallies[w]);
      }
    });
  }
  const Clock::time_point start = Clock::now();
  go.store(true, std::memory_order_release);
  for (std::thread& thread : threads) thread.join();
  const Clock::time_point end = Clock::now();

  RoundResult round;
  round.traced = traced;
  round.target = target;
  round.seconds = static_cast<double>(NanosBetween(start, end)) * 1e-9;
  std::vector<uint64_t> latencies;
  latencies.reserve(target);
  for (ClientTally& tally : tallies) {
    ClientTally& total = round.total;
    total.commits += tally.commits;
    total.attempts += tally.attempts;
    total.aborts_no_wait += tally.aborts_no_wait;
    total.aborts_write_conflict += tally.aborts_write_conflict;
    total.aborts_commit += tally.aborts_commit;
    total.timed_out = total.timed_out || tally.timed_out;
    total.wall_ns += tally.wall_ns;
    for (size_t c = 0; c < kNumCalls; ++c) total.calls[c].Merge(tally.calls[c]);
    latencies.insert(latencies.end(), tally.latency_ns.begin(),
                     tally.latency_ns.end());
  }
  round.latency_samples = latencies.size();
  double latency_sum = 0;
  for (uint64_t ns : latencies) latency_sum += static_cast<double>(ns);
  round.mean_us =
      latencies.empty()
          ? 0.0
          : latency_sum * 1e-3 / static_cast<double>(latencies.size());
  round.p50_us = QuantileOf(latencies, 0.50) * 1e-3;
  round.p99_us = QuantileOf(latencies, 0.99) * 1e-3;
  round.engine = engine.stats();
  round.sessions = engine.num_sessions();
  round.versions = engine.TotalVersions();
  round.gc_epochs = engine.gc_epochs();
  round.gc_reclaimed = engine.gc_reclaimed();
  return round;
}

// ---------------------------------------------------------------------------
// Gates: correctness checks that fail the run and name what broke.

struct Gate {
  std::string name;
  bool passed = true;
  std::string detail;
};

class Gates {
 public:
  Gate& Get(std::string_view name) {
    for (Gate& gate : gates_) {
      if (gate.name == name) return gate;
    }
    gates_.push_back({std::string(name), true, ""});
    return gates_.back();
  }
  void Fail(std::string_view name, std::string detail) {
    Gate& gate = Get(name);
    if (gate.passed) gate.detail = std::move(detail);
    gate.passed = false;
  }
  void Pass(std::string_view name, std::string detail) {
    Gate& gate = Get(name);
    if (gate.passed) gate.detail = std::move(detail);
  }
  bool all_passed() const {
    return std::all_of(gates_.begin(), gates_.end(),
                       [](const Gate& gate) { return gate.passed; });
  }
  const std::vector<Gate>& gates() const { return gates_; }

 private:
  std::vector<Gate> gates_;
};

std::string Str(uint64_t value) { return std::to_string(value); }

void CheckRoundAccounting(const RoundResult& round, Gates& gates) {
  const ClientTally& t = round.total;
  const uint64_t counted_aborts =
      t.aborts_no_wait + t.aborts_write_conflict + t.aborts_commit;
  if (t.timed_out) {
    gates.Fail("engine_accounting",
               "an engine round did not reach its commit target in time");
  } else if (t.commits != round.target ||
             round.engine.commits != round.target) {
    gates.Fail("engine_accounting",
               "commits " + Str(t.commits) + " (engine " +
                   Str(round.engine.commits) + ") != target " +
                   Str(round.target));
  } else if (t.attempts != t.commits + counted_aborts) {
    gates.Fail("engine_accounting", "attempts " + Str(t.attempts) +
                                        " != commits " + Str(t.commits) +
                                        " + aborts " + Str(counted_aborts));
  } else if (round.engine.begins != t.attempts) {
    gates.Fail("engine_accounting", "engine begins " +
                                        Str(round.engine.begins) +
                                        " != attempts " + Str(t.attempts));
  } else {
    gates.Pass("engine_accounting",
               "every round: commits == target, attempts == commits + aborts");
  }
}

/// Props 4.1/4.2: the allocation is the optimum iff it is robust and
/// lowering any single transaction by one level breaks robustness.
void CheckMinimal(const RobustnessAnalyzer& analyzer, const Allocation& alloc,
                  Gates& gates) {
  uint64_t lowered = 0;
  for (TxnId t = 0; t < alloc.size(); ++t) {
    const IsolationLevel level = alloc.level(t);
    if (level == IsolationLevel::kRC) continue;
    const auto lower =
        static_cast<IsolationLevel>(static_cast<uint8_t>(level) - 1);
    ++lowered;
    if (analyzer.Check(alloc.With(t, lower)).robust) {
      gates.Fail("allocation_minimal",
                 "lowering " + analyzer.txns().txn(t).name() + " to " +
                     IsolationLevelToString(lower) + " stays robust");
      return;
    }
  }
  gates.Pass("allocation_minimal",
             "each of " + Str(lowered) +
                 " single-level lowerings breaks robustness");
}

void CheckRoundTrip(const TransactionSet& txns, const Allocation& alloc,
                    size_t clients, uint64_t seed, Gates& gates) {
  RoundTripOptions options;
  options.runs = 3;
  options.seed = seed;
  options.engine_threads = static_cast<int>(clients);
  StatusOr<RoundTripReport> report = ValidateEngineRuns(txns, alloc, options);
  if (!report.ok()) {
    gates.Fail("engine_roundtrip", report.status().ToString());
  } else if (report->disagreements != 0 || !report->allocation_robust ||
             report->runs != static_cast<uint64_t>(options.runs)) {
    gates.Fail("engine_roundtrip", report->ToString());
  } else {
    gates.Pass("engine_roundtrip",
               Str(report->runs) + " recorded runs at " + Str(clients) +
                   " engine threads, 0 disagreements");
  }
}

/// Leaf spans (phases with no child span) must cover >= 95% of each
/// pipeline span: a gap means some layer is not measured.
void CheckSpanCoverage(const SpanLog& log, const std::vector<int>& pipelines,
                       Gates& gates) {
  const std::vector<Span>& spans = log.spans();
  std::vector<bool> has_child(spans.size(), false);
  for (const Span& span : spans) {
    if (span.parent >= 0) has_child[span.parent] = true;
  }
  auto root_of = [&](int id) {
    while (spans[id].parent >= 0) id = spans[id].parent;
    return id;
  };
  double worst = 1.0;
  for (int pipeline : pipelines) {
    int64_t covered = 0;
    for (size_t i = 0; i < spans.size(); ++i) {
      if (!has_child[i] && static_cast<int>(i) != pipeline &&
          root_of(static_cast<int>(i)) == pipeline) {
        covered += spans[i].end_ns - spans[i].start_ns;
      }
    }
    const int64_t total = spans[pipeline].end_ns - spans[pipeline].start_ns;
    worst = std::min(worst, total > 0 ? static_cast<double>(covered) /
                                            static_cast<double>(total)
                                      : 1.0);
  }
  const std::string detail =
      "leaf spans cover >= " + std::to_string(worst) +
      " of every pipeline span";
  if (worst < 0.95) {
    gates.Fail("span_coverage", detail);
  } else {
    gates.Pass("span_coverage", detail);
  }
}

// ---------------------------------------------------------------------------
// Provenance and process measurements.

/// The CPUs this process may run on, in order.
std::vector<int> AllowedCpus() {
  std::vector<int> cpus;
  cpu_set_t set;
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    for (int c = 0; c < CPU_SETSIZE; ++c) {
      if (CPU_ISSET(c, &set)) cpus.push_back(c);
    }
  }
  if (cpus.empty()) cpus.push_back(0);
  return cpus;
}

/// Pins the calling thread (and the threads it starts next) to `cpus`.
void PinTo(const std::vector<int>& cpus) {
  cpu_set_t set;
  CPU_ZERO(&set);
  for (int c : cpus) CPU_SET(c, &set);
  sched_setaffinity(0, sizeof(set), &set);
}

std::string CpuModel() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const size_t colon = line.find(':');
      if (colon != std::string::npos) {
        const size_t begin = line.find_first_not_of(' ', colon + 1);
        return begin == std::string::npos ? "" : line.substr(begin);
      }
    }
  }
  return "unknown";
}

double PeakRssMb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0.0;
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

// On a shared VM (measured on a 4-vCPU Xeon KVM guest) the host slows a
// changing share of a run's samples by up to ~1.6x. A run's median then
// flips between the slow and the fast mode; the mean moves smoothly with
// the share, so every end-to-end time except setup_s is the mean of its
// samples in the run.
double Mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double sum = 0;
  for (double value : values) sum += value;
  return sum / static_cast<double>(values.size());
}

// ---------------------------------------------------------------------------
// The run.

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  uint64_t round_commits = 0;  // 0 = the workload's own target.
  std::string spec;            // Empty = the workload's own spec.
  std::string trace_out;
};

[[noreturn]] void Usage(const std::string& error) {
  std::fprintf(stderr,
               "pipebench: %s\n"
               "usage: pipebench --workload NAME [--seed N] [--seconds S] "
               "[--trace 0|1] [--round-commits N] [--spec SPEC] "
               "[--trace-out PATH]\nworkloads:",
               error.c_str());
  for (const WorkloadDef& def : kWorkloads) {
    std::fprintf(stderr, " %s", def.name);
  }
  std::fprintf(stderr, "\n");
  std::exit(2);
}

uint64_t ParseUint(const std::string& flag, const std::string& text) {
  char* end = nullptr;
  errno = 0;
  const unsigned long long value = std::strtoull(text.c_str(), &end, 10);
  if (text.empty() || text[0] == '-' || *end != '\0' || errno != 0) {
    Usage(flag + " expects a non-negative integer, got '" + text + "'");
  }
  return value;
}

Args ParseArgs(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) Usage(flag + " needs a value");
    const std::string value = argv[++i];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = ParseUint(flag, value);
    } else if (flag == "--seconds") {
      args.seconds = static_cast<double>(ParseUint(flag, value));
      if (args.seconds < 1 || args.seconds > 60) {
        Usage("--seconds must be in [1, 60]");
      }
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") Usage("--trace expects 0 or 1");
      args.trace = value == "1";
    } else if (flag == "--round-commits") {
      args.round_commits = ParseUint(flag, value);
      if (args.round_commits == 0) Usage("--round-commits must be positive");
    } else if (flag == "--spec") {
      args.spec = value;
    } else if (flag == "--trace-out") {
      args.trace_out = value;
    } else {
      Usage("unknown flag " + flag);
    }
  }
  if (args.workload.empty()) Usage("--workload is required");
  return args;
}

const WorkloadDef* FindWorkload(std::string_view name) {
  for (const WorkloadDef& def : kWorkloads) {
    if (name == def.name) return &def;
  }
  return nullptr;
}

/// What one pipeline iteration leaves behind for the gates.
struct Iteration {
  std::unique_ptr<Workload> workload;
  std::unique_ptr<RobustnessAnalyzer> analyzer;
  OptimalAllocationResult allocation;
  bool certified = false;
  // Span ids.
  int pipeline = -1, setup = -1, make = -1, engine_new = -1, alloc = -1,
      analyzer_build = -1, algorithm2 = -1, certify = -1;
};

class Report {
 public:
  void Metric(const std::string& name, double value, const char* unit) {
    metrics_.push_back({name, value, unit});
  }
  void Write(JsonWriter& json) const {
    json.BeginObject();
    for (const Entry& entry : metrics_) {
      json.Key(entry.name);
      json.BeginObject();
      json.Key("value");
      json.RawValue(Number(entry.value));
      json.Key("unit");
      json.String(entry.unit);
      json.EndObject();
    }
    json.EndObject();
  }
  static std::string Number(double value) {
    char buffer[40];
    std::snprintf(buffer, sizeof(buffer), "%.10g", value);
    return buffer;
  }

 private:
  struct Entry {
    std::string name;
    double value;
    const char* unit;
  };
  std::vector<Entry> metrics_;
};

int Run(const Args& args) {
  const WorkloadDef* def = FindWorkload(args.workload);
  if (def == nullptr) Usage("unknown workload '" + args.workload + "'");
  const BuildInfo& build = GetBuildInfo();
  if (build.sanitizer != "none" || build.build_type == "Debug" ||
      build.build_type.empty()) {
    std::fprintf(stderr,
                 "pipebench: refusing to report timings from a %s build "
                 "with sanitizer '%s'; build RelWithDebInfo or Release\n",
                 std::string(build.build_type).c_str(),
                 std::string(build.sanitizer).c_str());
    return 3;
  }
  const std::string spec = args.spec.empty() ? def->spec : args.spec;
  const std::vector<int> cpus = AllowedCpus();
  const size_t nproc = cpus.size();
  const size_t clients = std::min(def->clients, nproc);
  const uint64_t round_commits =
      args.round_commits != 0 ? args.round_commits : def->round_commits;
  constexpr int kMinIterations = 2;
  constexpr auto kRoundGiveUp = std::chrono::seconds(60);

  const Clock::time_point run_start = Clock::now();
  const Clock::time_point deadline =
      run_start + std::chrono::duration_cast<Clock::duration>(
                      std::chrono::duration<double>(args.seconds));
  SpanLog log(run_start);
  Gates gates;
  std::vector<RoundResult> rounds;
  std::vector<int> pipelines;
  std::optional<Iteration> first;  // Kept for the whole-run gates.
  uint64_t triples_examined = 0;
  uint64_t bitset_words_scanned = 0;
  std::vector<double> setup_s, alloc_s, pipeline_s, make_s, engine_new_s,
      analyzer_build_s, algorithm2_s, certify_s;

  for (int i = 0; i < kMinIterations || Clock::now() < deadline; ++i) {
    // In a traced run, odd iterations time every engine call; even ones
    // give the untraced rate that the tracing overhead is measured against.
    const bool traced = args.trace && i % 2 == 1;
    // Each iteration runs on the next CPU in turn: on a shared VM the
    // speed of a CPU drifts with its neighbours' load, and a run that
    // stayed on one CPU would measure that CPU rather than the code.
    PinTo({cpus[static_cast<size_t>(i) % cpus.size()]});
    Iteration it;
    std::optional<MetricsRegistry> registry;
    if (traced) registry.emplace();
    std::unique_ptr<ConcurrentEngine> engine;
    {
      ScopedSpan pipeline(log, "pipeline", -1);
      it.pipeline = pipeline.id();
      {
        ScopedSpan setup(log, "setup", pipeline.id());
        it.setup = setup.id();
        {
          ScopedSpan make(log, "workloads.make", setup.id());
          it.make = make.id();
          StatusOr<Workload> made = MakeNamedWorkload(spec);
          if (!made.ok()) {
            std::fprintf(stderr, "pipebench: bad spec '%s': %s\n", spec.c_str(),
                         made.status().ToString().c_str());
            return 2;
          }
          it.workload = std::make_unique<Workload>(std::move(made).value());
        }
        {
          ScopedSpan engine_new(log, "mvcc.engine_new", setup.id());
          it.engine_new = engine_new.id();
          engine = std::make_unique<ConcurrentEngine>(
              it.workload->txns.num_objects(), clients);
        }
      }
      const TransactionSet& txns = it.workload->txns;
      {
        ScopedSpan alloc(log, "alloc", pipeline.id());
        it.alloc = alloc.id();
        CheckOptions check;
        if (registry) check.metrics = &*registry;
        {
          ScopedSpan span(log, "core.analyzer_build", alloc.id());
          it.analyzer_build = span.id();
          it.analyzer = std::make_unique<RobustnessAnalyzer>(txns);
        }
        {
          ScopedSpan span(log, "core.algorithm2", alloc.id());
          it.algorithm2 = span.id();
          it.allocation = ComputeOptimalAllocation(*it.analyzer, check);
        }
        {
          ScopedSpan span(log, "core.certify", alloc.id());
          it.certify = span.id();
          it.certified =
              it.analyzer->Check(it.allocation.allocation, check).robust;
        }
      }
      std::vector<std::vector<TxnId>> orders(clients);
      {
        ScopedSpan span(log, "mvcc.engine_phase", pipeline.id());
        for (size_t w = 0; w < clients; ++w) {
          for (TxnId t = static_cast<TxnId>(w); t < txns.size();
               t += static_cast<TxnId>(clients)) {
            orders[w].push_back(t);
          }
          std::shuffle(orders[w].begin(), orders[w].end(),
                       std::mt19937_64(MixSeed(args.seed, w)));
        }
        // Clients inherit the pinning; several clients get every CPU.
        if (clients > 1) PinTo(cpus);
        rounds.push_back(RunRound(*engine, txns, it.allocation.allocation,
                                  orders, round_commits, traced,
                                  kRoundGiveUp));
      }
    }
    engine.reset();
    if (registry) {
      triples_examined = registry->counter("analyzer.triples_examined").value();
      bitset_words_scanned =
          registry->counter("analyzer.bitset_words_scanned").value();
    }

    // Gates for this iteration, outside every timed window.
    CheckRoundAccounting(rounds.back(), gates);
    if (!it.certified) {
      gates.Fail("allocation_certified",
                 "iteration " + std::to_string(i) +
                     ": Algorithm 1 rejects the Algorithm 2 allocation");
    } else if (first &&
               !(it.allocation.allocation == first->allocation.allocation)) {
      gates.Fail("allocation_certified",
                 "iteration " + std::to_string(i) +
                     " chose a different allocation than iteration 0");
    } else {
      gates.Pass("allocation_certified",
                 "every iteration's allocation is certified robust");
    }
    if (rounds.back().total.timed_out) break;

    pipelines.push_back(it.pipeline);
    pipeline_s.push_back(log.Seconds(it.pipeline));
    setup_s.push_back(log.Seconds(it.setup));
    make_s.push_back(log.Seconds(it.make));
    engine_new_s.push_back(log.Seconds(it.engine_new));
    alloc_s.push_back(log.Seconds(it.alloc));
    analyzer_build_s.push_back(log.Seconds(it.analyzer_build));
    algorithm2_s.push_back(log.Seconds(it.algorithm2));
    certify_s.push_back(log.Seconds(it.certify));
    if (!first) first = std::move(it);
  }

  // Peak memory of the pipeline itself, before the gates allocate theirs.
  const double peak_rss_mb = PeakRssMb();

  // Whole-run gates, outside every timed window.
  PinTo(cpus);
  if (!first) {
    std::fprintf(stderr, "pipebench: %s\n",
                 gates.gates().front().detail.c_str());
    return 1;
  }
  const Allocation& alloc = first->allocation.allocation;
  const Clock::time_point gates_start = Clock::now();
  CheckMinimal(*first->analyzer, alloc, gates);
  CheckRoundTrip(first->workload->txns, alloc, clients, args.seed, gates);
  CheckSpanCoverage(log, pipelines, gates);
  const double gates_s = NanosBetween(gates_start, Clock::now()) * 1e-9;

  // Aggregate rounds.
  std::vector<double> mean_us, p50_us, p99_us;
  double untraced_commits = 0, untraced_s = 0, traced_commits = 0, traced_s = 0;
  ClientTally all, traced_total;
  uint64_t latency_samples = 0;
  size_t traced_rounds = 0;
  double sessions = 0, versions = 0, gc_epochs = 0, gc_reclaimed = 0;
  for (const RoundResult& round : rounds) {
    all.commits += round.total.commits;
    all.attempts += round.total.attempts;
    if (!round.traced) {
      untraced_commits += static_cast<double>(round.target);
      untraced_s += round.seconds;
      mean_us.push_back(round.mean_us);
      p50_us.push_back(round.p50_us);
      p99_us.push_back(round.p99_us);
      latency_samples += round.latency_samples;
      continue;
    }
    traced_commits += static_cast<double>(round.target);
    traced_s += round.seconds;
    ++traced_rounds;
    ClientTally& t = traced_total;
    t.commits += round.total.commits;
    t.attempts += round.total.attempts;
    t.aborts_no_wait += round.total.aborts_no_wait;
    t.aborts_write_conflict += round.total.aborts_write_conflict;
    t.aborts_commit += round.total.aborts_commit;
    t.wall_ns += round.total.wall_ns;
    for (size_t c = 0; c < kNumCalls; ++c) {
      t.calls[c].Merge(round.total.calls[c]);
    }
    sessions += static_cast<double>(round.sessions);
    versions += static_cast<double>(round.versions);
    gc_epochs += static_cast<double>(round.gc_epochs);
    gc_reclaimed += static_cast<double>(round.gc_reclaimed);
  }

  Report end_to_end;
  end_to_end.Metric("setup_s", Median(setup_s), "s");
  end_to_end.Metric("alloc_s", Mean(alloc_s), "s");
  end_to_end.Metric("pipeline_s", Mean(pipeline_s), "s");
  end_to_end.Metric("commits_per_s",
                    untraced_s > 0 ? untraced_commits / untraced_s : 0.0,
                    "1/s");
  // The median program latency is reported in the detail line only: on
  // ycsb-rcsi it sits where the session-table lock either convoys or not,
  // and moves by up to 2x between runs while the mean moves by ~5%.
  end_to_end.Metric("txn_mean_us", Mean(mean_us), "us");
  end_to_end.Metric("txn_p99_us", Mean(p99_us), "us");
  end_to_end.Metric("attempts_per_commit",
                    all.commits == 0 ? 0.0
                                     : static_cast<double>(all.attempts) /
                                           static_cast<double>(all.commits),
                    "ratio");
  end_to_end.Metric("peak_rss_mb", peak_rss_mb, "MB");

  Report per_layer;
  if (args.trace) {
    const double n = std::max<size_t>(traced_rounds, 1);
    const double wall =
        static_cast<double>(std::max<int64_t>(traced_total.wall_ns, 1));
    per_layer.Metric("workloads.make_s", Mean(make_s), "s");
    per_layer.Metric("core.analyzer_build_s", Mean(analyzer_build_s), "s");
    per_layer.Metric("core.algorithm2_s", Mean(algorithm2_s), "s");
    per_layer.Metric("core.certify_s", Mean(certify_s), "s");
    per_layer.Metric("core.robustness_checks",
                     static_cast<double>(first->allocation.robustness_checks),
                     "count");
    per_layer.Metric("core.triples_examined",
                     static_cast<double>(triples_examined), "count");
    per_layer.Metric("core.bitset_words_scanned",
                     static_cast<double>(bitset_words_scanned), "count");
    per_layer.Metric("mvcc.engine_new_s", Mean(engine_new_s), "s");
    double busy = 0;
    for (size_t c = 0; c < kNumCalls; ++c) {
      const CallHistogram& h = traced_total.calls[c];
      const std::string prefix = std::string("mvcc.") + kCallNames[c];
      const double share = static_cast<double>(h.sum_ns()) / wall;
      busy += share;
      per_layer.Metric(prefix + ".busy_share", share, "ratio");
      per_layer.Metric(prefix + ".mean_ns", h.mean_ns(), "ns");
      if (c == kCommitSSI) {
        per_layer.Metric(prefix + ".p99_ns", h.Quantile(0.99), "ns");
      }
    }
    const ClientTally& t = traced_total;
    per_layer.Metric("mvcc.attempts", static_cast<double>(t.attempts) / n,
                     "count");
    per_layer.Metric("mvcc.aborts_no_wait",
                     static_cast<double>(t.aborts_no_wait) / n, "count");
    per_layer.Metric("mvcc.aborts_write_conflict",
                     static_cast<double>(t.aborts_write_conflict) / n, "count");
    per_layer.Metric("mvcc.aborts_commit",
                     static_cast<double>(t.aborts_commit) / n, "count");
    per_layer.Metric("mvcc.commit_ratio",
                     t.attempts == 0 ? 0.0
                                     : static_cast<double>(t.commits) /
                                           static_cast<double>(t.attempts),
                     "ratio");
    per_layer.Metric("mvcc.sessions_retained", sessions / n, "count");
    per_layer.Metric("mvcc.versions_end", versions / n, "count");
    per_layer.Metric("mvcc.gc_epochs", gc_epochs / n, "count");
    per_layer.Metric("mvcc.gc_reclaimed", gc_reclaimed / n, "count");
    per_layer.Metric("bench.client_share", 1.0 - busy, "ratio");
    per_layer.Metric("bench.trace_overhead",
                     traced_s > 0 && untraced_s > 0
                         ? (untraced_commits / untraced_s) /
                               (traced_commits / traced_s)
                         : 0.0,
                     "ratio");
  }

  // The detail line: provenance, gates, sample counts and every metric.
  JsonWriter detail;
  detail.BeginObject();
  detail.Key("workload");
  detail.String(def->name);
  detail.Key("spec");
  detail.String(spec);
  detail.Key("seed");
  detail.Uint(args.seed);
  detail.Key("trace");
  detail.Bool(args.trace);
  detail.Key("clients");
  detail.Uint(clients);
  detail.Key("round_commits");
  detail.Uint(round_commits);
  detail.Key("iterations");
  detail.Uint(pipelines.size());
  detail.Key("rounds");
  detail.Uint(rounds.size());
  detail.Key("txn_latency_samples");
  detail.Uint(latency_samples);
  detail.Key("txn_p50_us");
  detail.RawValue(Report::Number(Mean(p50_us)));
  detail.Key("abort_ratio");
  detail.RawValue(Report::Number(
      all.attempts == 0 ? 0.0
                        : 1.0 - static_cast<double>(all.commits) /
                                    static_cast<double>(all.attempts)));
  detail.Key("allocation");
  detail.BeginObject();
  for (IsolationLevel level : kAllIsolationLevels) {
    detail.Key(IsolationLevelToString(level));
    detail.Uint(alloc.CountAt(level));
  }
  detail.EndObject();
  detail.Key("provenance");
  detail.BeginObject();
  detail.Key("nproc");
  detail.Uint(nproc);
  detail.Key("cpu_model");
  detail.String(CpuModel());
  detail.Key("build_type");
  detail.String(build.build_type);
  detail.Key("sanitizer");
  detail.String(build.sanitizer);
  detail.Key("git_describe");
  detail.String(build.git_describe);
  detail.Key("compiler");
  detail.String(build.compiler);
  detail.EndObject();
  detail.Key("gates_s");
  detail.RawValue(Report::Number(gates_s));
  detail.Key("gates");
  detail.BeginObject();
  for (const Gate& gate : gates.gates()) {
    detail.Key(gate.name);
    detail.BeginObject();
    detail.Key("passed");
    detail.Bool(gate.passed);
    detail.Key("detail");
    detail.String(gate.detail);
    detail.EndObject();
  }
  detail.EndObject();
  detail.Key("end_to_end");
  end_to_end.Write(detail);
  detail.Key("per_layer");
  per_layer.Write(detail);
  detail.EndObject();
  std::printf("%s\n", detail.str().c_str());

  if (args.trace && !args.trace_out.empty()) {
    JsonWriter trace;
    trace.BeginObject();
    trace.Key("workload");
    trace.String(def->name);
    trace.Key("seed");
    trace.Uint(args.seed);
    trace.Key("spans");
    trace.BeginArray();
    const std::vector<Span>& spans = log.spans();
    for (size_t i = 0; i < spans.size(); ++i) {
      trace.BeginObject();
      trace.Key("id");
      trace.Uint(i);
      trace.Key("name");
      trace.String(spans[i].name);
      trace.Key("start_ns");
      trace.Int(spans[i].start_ns);
      trace.Key("end_ns");
      trace.Int(spans[i].end_ns);
      trace.Key("parent");
      trace.Int(spans[i].parent);
      trace.EndObject();
    }
    trace.EndArray();
    trace.Key("calls");
    trace.BeginObject();
    for (size_t c = 0; c < kNumCalls; ++c) {
      const CallHistogram& h = traced_total.calls[c];
      trace.Key(std::string("mvcc.") + kCallNames[c]);
      trace.BeginObject();
      trace.Key("count");
      trace.Uint(h.count());
      trace.Key("sum_ns");
      trace.Uint(h.sum_ns());
      trace.Key("p50_ns");
      trace.RawValue(Report::Number(h.Quantile(0.5)));
      trace.Key("p99_ns");
      trace.RawValue(Report::Number(h.Quantile(0.99)));
      trace.Key("buckets");  // [lower bound ns, count] for non-empty buckets.
      trace.BeginArray();
      for (size_t i = 0; i < CallHistogram::kBuckets; ++i) {
        if (h.bucket(i) == 0) continue;
        trace.BeginArray();
        trace.Uint(CallHistogram::Lower(i));
        trace.Uint(h.bucket(i));
        trace.EndArray();
      }
      trace.EndArray();
      trace.EndObject();
    }
    trace.EndObject();
    trace.EndObject();
    std::ofstream out(args.trace_out);
    out << trace.str() << "\n";
    if (!out) {
      gates.Fail("trace_written", "cannot write " + args.trace_out);
    }
  }

  for (const Gate& gate : gates.gates()) {
    if (!gate.passed) {
      std::fprintf(stderr, "pipebench: gate %s FAILED: %s\n", gate.name.c_str(),
                   gate.detail.c_str());
    }
  }
  const bool correct = gates.all_passed();
  JsonWriter result;
  result.BeginObject();
  result.Key("correct");
  result.Bool(correct);
  const uint64_t attempted =
      static_cast<uint64_t>(rounds.size()) * round_commits;
  result.Key("attempted");
  result.Uint(attempted);
  result.Key("failed");
  result.Uint(attempted - all.commits);
  result.Key("metrics");
  (args.trace ? per_layer : end_to_end).Write(result);
  result.EndObject();
  std::printf("%s\n", result.str().c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace mvrob

int main(int argc, char** argv) {
  return mvrob::Run(mvrob::ParseArgs(argc, argv));
}
