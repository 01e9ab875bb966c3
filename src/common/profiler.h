#ifndef MVROB_COMMON_PROFILER_H_
#define MVROB_COMMON_PROFILER_H_

#include <sys/types.h>

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"

namespace mvrob {

class MetricsRegistry;

/// --- Thread role registry -------------------------------------------------
///
/// Every long-lived thread registers itself under a stable dotted role name
/// ("engine.worker.3", "serve.driver", "http", ...).
/// Registration is what makes a thread visible to the sampling profiler,
/// the remote stack capture used by /debug/stacks, and the watchdog's
/// stall dumps. It is cheap (one mutex acquisition per thread lifetime,
/// nothing per operation) and installs no timers by itself, so registered
/// threads in a profiler-detached run behave bit-identically to an
/// unregistered build.
///
/// Scopes nest: an inner scope on an already-registered thread just
/// relabels the role for its lifetime (RunCli registers "main"; a worker
/// loop registering a more specific role wins while it is alive).
class ProfiledThreadScope {
 public:
  explicit ProfiledThreadScope(std::string_view role);
  ~ProfiledThreadScope();

  ProfiledThreadScope(const ProfiledThreadScope&) = delete;
  ProfiledThreadScope& operator=(const ProfiledThreadScope&) = delete;

 private:
  void* entry_ = nullptr;  // ThreadEntry* this scope claimed; null if nested.
  bool nested_ = false;
  char saved_role_[64] = {};
};

/// Role of the calling thread ("?" when unregistered). For log/crash context.
std::string CurrentThreadRole();

/// One captured stack: innermost frame first, signal/profiler frames
/// already trimmed.
struct ThreadStack {
  std::string role;
  pid_t tid = 0;
  std::vector<void*> frames;
};

/// Interrupts the target registered thread with SIGPROF and copies its
/// current stack. Returns false if the tid is not registered or the thread
/// did not respond within ~200ms. Safe to call whether or not the profiler
/// is running.
bool CaptureThreadStackByTid(pid_t tid, ThreadStack* out);

/// Captures every registered thread (skipping the caller's own profiler
/// internals). Order: registry slot order.
std::vector<ThreadStack> CaptureAllThreadStacks();

/// Best-effort symbol name for a program counter: demangled function name
/// via dladdr, falling back to "module+0xoff" / "0xaddr". Cached.
std::string SymbolizeFrame(void* pc);

/// Human-readable rendering of captured stacks (one block per thread) for
/// the /debug/stacks endpoint and watchdog dumps.
std::string RenderThreadStacksText(const std::vector<ThreadStack>& stacks);

/// Single line "outer;...;inner" rendering of one stack (watchdog logs).
std::string RenderStackFolded(const std::vector<void*>& frames);

/// Async-signal-safe: dumps the most recent ring samples of every
/// registered thread to `fd` using only write(2) and
/// backtrace_symbols_fd(3). Crash-handler use only; output is best-effort
/// (torn role strings under concurrency are acceptable).
void DumpRecentProfilerSamplesToFd(int fd);

/// --- Sampling profiler ----------------------------------------------------
///
/// A process-wide, dependency-free sampling CPU profiler. While running it
/// arms one POSIX interval timer per registered thread on that thread's
/// CPU clock; each expiry delivers SIGPROF to the owning thread, whose
/// handler captures a stack with backtrace(3) into a lock-free per-thread
/// ring (signal handler is the only producer, the collector thread the
/// only consumer). The collector drains rings every ~100ms, aggregates
/// samples into folded stacks keyed by thread role, and publishes
/// profile.* metrics. Symbolization is lazy: raw program counters are
/// stored until a snapshot is rendered.
///
/// When not started, nothing is armed and no signals fire: runs are
/// bit-identical with and without the profiler linked in, matching the
/// tracer/metrics null-pointer convention.
struct ProfilerOptions {
  /// Samples per second of *on-CPU time* per thread (1..1000).
  int hz = 97;
  /// Optional sink for profile.samples / profile.drops / profile.threads
  /// and top-symbol self-time share gauges. Null disables metric export
  /// (samples are still collected).
  MetricsRegistry* metrics = nullptr;
};

class Profiler {
 public:
  /// Folded-stack key ("role;outer;...;leaf") -> sample count.
  using Counts = std::map<std::string, uint64_t>;

  /// Starts the process-wide profiler. Fails if already running or if hz
  /// is out of range. Timer creation failures on individual threads are
  /// logged and skipped, not fatal.
  static Status Start(const ProfilerOptions& options);

  /// Stops sampling, joins the collector, and folds any residual ring
  /// contents into the aggregate. Counts remain readable after Stop.
  static void Stop();

  static bool active();

  /// Symbolized aggregate since the last Start (or across the whole run if
  /// stopped). Includes samples still sitting in rings.
  static Counts CountsSnapshot();

  /// Windowed view: after - before, dropping non-positive rows.
  static Counts DiffCounts(const Counts& after, const Counts& before);

  /// Renders counts in folded-stack text format, one "key count" per line,
  /// sorted by key (stable across runs for tooling).
  static std::string RenderFolded(const Counts& counts);

  /// Lifetime totals across all Start/Stop cycles.
  static uint64_t samples_total();
  static uint64_t drops_total();
};

}  // namespace mvrob

#endif  // MVROB_COMMON_PROFILER_H_
