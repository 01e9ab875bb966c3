#include "common/profiler.h"

#include <unistd.h>

#include <atomic>
#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/metrics.h"
#include "iso/allocation.h"
#include "mvcc/driver.h"
#include "mvcc/engine.h"
#include "txn/parser.h"
#include "txn/transaction_set.h"

namespace mvrob {
namespace {

TransactionSet Parse(const std::string& text) {
  StatusOr<TransactionSet> txns = ParseTransactionSet(text);
  EXPECT_TRUE(txns.ok()) << txns.status().ToString();
  return *std::move(txns);
}

constexpr const char* kHotSpot =
    "T1: R[x] W[x]\nT2: R[x] W[x]\nT3: R[x] W[x]\nT4: W[x] W[y]";

// Burns CPU until at least `target` total samples were taken (or a wall
// cap passes — keeps the test bounded on a loaded machine).
void BurnUntilSampled(uint64_t start_samples, uint64_t target) {
  const auto until =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  volatile uint64_t sink = 0;
  while (Profiler::samples_total() - start_samples < target &&
         std::chrono::steady_clock::now() < until) {
    for (int i = 0; i < 100'000; ++i) {
      sink = sink + static_cast<uint64_t>(i) * i;
    }
  }
}

// ---------------------------------------------------------------------------
// Thread role registry.

TEST(ProfilerTest, ScopesRegisterRelabelAndRestoreRoles) {
  EXPECT_EQ(CurrentThreadRole(), "?");
  {
    ProfiledThreadScope outer("test.outer");
    EXPECT_EQ(CurrentThreadRole(), "test.outer");
    {
      // Nested scopes relabel the same registration.
      ProfiledThreadScope inner("test.inner");
      EXPECT_EQ(CurrentThreadRole(), "test.inner");
    }
    EXPECT_EQ(CurrentThreadRole(), "test.outer");
  }
  EXPECT_EQ(CurrentThreadRole(), "?");
}

TEST(ProfilerTest, CaptureOwnStackByTid) {
  ProfiledThreadScope scope("test.self");
  ThreadStack stack;
  ASSERT_TRUE(CaptureThreadStackByTid(gettid(), &stack));
  EXPECT_EQ(stack.role, "test.self");
  EXPECT_EQ(stack.tid, gettid());
  EXPECT_FALSE(stack.frames.empty());
  const std::string text = RenderThreadStacksText({stack});
  EXPECT_NE(text.find("role=test.self"), std::string::npos);
  EXPECT_NE(text.find("#0"), std::string::npos);
}

TEST(ProfilerTest, CaptureRemoteThreadStack) {
  std::atomic<bool> ready{false};
  std::atomic<bool> quit{false};
  std::atomic<pid_t> worker_tid{0};
  std::thread worker([&] {
    ProfiledThreadScope scope("test.remote");
    worker_tid.store(gettid());
    ready.store(true);
    while (!quit.load()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
  });
  while (!ready.load()) std::this_thread::yield();

  ThreadStack stack;
  const bool captured = CaptureThreadStackByTid(worker_tid.load(), &stack);
  quit.store(true);
  worker.join();
  ASSERT_TRUE(captured);
  EXPECT_EQ(stack.role, "test.remote");
  EXPECT_FALSE(stack.frames.empty());
}

TEST(ProfilerTest, CaptureUnknownTidFails) {
  ThreadStack stack;
  EXPECT_FALSE(CaptureThreadStackByTid(/*tid=*/1, &stack));
}

TEST(ProfilerTest, SymbolizeNamesExportedFunctions) {
  // The test binary links with ENABLE_EXPORTS, so dladdr can name its own
  // extern functions; libc exports malloc.
  EXPECT_NE(SymbolizeFrame(reinterpret_cast<void*>(&malloc)).find("malloc"),
            std::string::npos);
  EXPECT_EQ(SymbolizeFrame(nullptr), "0x0");
}

// ---------------------------------------------------------------------------
// Sampling.

TEST(ProfilerTest, SamplerCollectsFoldedStacksByRole) {
  ProfiledThreadScope scope("test.sampled");
  const uint64_t before = Profiler::samples_total();
  ProfilerOptions options;
  options.hz = 499;
  ASSERT_TRUE(Profiler::Start(options).ok());
  EXPECT_TRUE(Profiler::active());
  // Double-start is rejected while running.
  EXPECT_FALSE(Profiler::Start(options).ok());

  BurnUntilSampled(before, /*target=*/20);
  Profiler::Stop();
  EXPECT_FALSE(Profiler::active());
  ASSERT_GT(Profiler::samples_total(), before);

  const Profiler::Counts counts = Profiler::CountsSnapshot();
  ASSERT_FALSE(counts.empty());
  uint64_t sampled_role = 0;
  for (const auto& [key, count] : counts) {
    if (key.rfind("test.sampled;", 0) == 0) sampled_role += count;
    // No stack may end in the profiler's own signal plumbing.
    EXPECT_EQ(key.find("SigprofHandler"), std::string::npos) << key;
  }
  EXPECT_GT(sampled_role, 0u)
      << "no samples attributed to the busy thread:\n"
      << Profiler::RenderFolded(counts);

  // Folded rendering: "key count" lines, sorted, newline-terminated.
  const std::string folded = Profiler::RenderFolded(counts);
  EXPECT_FALSE(folded.empty());
  EXPECT_EQ(folded.back(), '\n');
}

TEST(ProfilerTest, StartValidatesRate) {
  EXPECT_FALSE(Profiler::Start({.hz = 0}).ok());
  EXPECT_FALSE(Profiler::Start({.hz = -5}).ok());
  EXPECT_FALSE(Profiler::Start({.hz = 100'000}).ok());
  EXPECT_FALSE(Profiler::active());
}

TEST(ProfilerTest, DiffCountsDropsNonPositiveRows) {
  Profiler::Counts before{{"a;f", 3}, {"b;g", 5}};
  Profiler::Counts after{{"a;f", 7}, {"b;g", 5}, {"c;h", 2}};
  Profiler::Counts diff = Profiler::DiffCounts(after, before);
  ASSERT_EQ(diff.size(), 2u);
  EXPECT_EQ(diff["a;f"], 4u);
  EXPECT_EQ(diff["c;h"], 2u);
  EXPECT_EQ(diff.count("b;g"), 0u);
}

TEST(ProfilerTest, PublishesMetricsWhenGivenARegistry) {
  MetricsRegistry registry;
  ProfiledThreadScope scope("test.metrics");
  const uint64_t before = Profiler::samples_total();
  ProfilerOptions options;
  options.hz = 499;
  options.metrics = &registry;
  ASSERT_TRUE(Profiler::Start(options).ok());
  BurnUntilSampled(before, /*target=*/10);
  Profiler::Stop();
  EXPECT_GT(registry.counter("profile.samples").value(), 0u);
  const std::string json = registry.SnapshotJson();
  EXPECT_NE(json.find("profile.threads"), std::string::npos);
}

// Named to run under the TSan stage of ci.sh (matches the Concurrent
// filter): signal-handler producers, the collector consumer, remote
// captures and scope churn all race against each other here.
TEST(ProfilerTest, ConcurrentScopesSamplingAndCapture) {
  const uint64_t before = Profiler::samples_total();
  ProfilerOptions options;
  options.hz = 499;
  ASSERT_TRUE(Profiler::Start(options).ok());

  std::atomic<bool> quit{false};
  std::vector<std::thread> workers;
  for (int i = 0; i < 4; ++i) {
    workers.emplace_back([&, i] {
      ProfiledThreadScope scope("test.concurrent." + std::to_string(i));
      volatile uint64_t sink = 0;
      while (!quit.load()) {
        for (int j = 0; j < 50'000; ++j) sink = sink + static_cast<uint64_t>(j);
        // Scope churn: nested relabel while signals fire.
        ProfiledThreadScope nested("test.nested." + std::to_string(i));
        for (int j = 0; j < 50'000; ++j) sink = sink + static_cast<uint64_t>(j);
      }
    });
  }
  // Remote captures while the workers are being sampled.
  for (int i = 0; i < 5; ++i) {
    (void)CaptureAllThreadStacks();
    (void)Profiler::CountsSnapshot();
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  quit.store(true);
  for (std::thread& worker : workers) worker.join();
  Profiler::Stop();
  EXPECT_GE(Profiler::samples_total(), before);
}

// ---------------------------------------------------------------------------
// The cost contract: a detached profiler changes nothing, and an attached
// one never changes scheduling or outcomes of the deterministic driver
// (mirrors TxnTraceTest.TracingDoesNotChangeTheRun).

DriverReport HotSpotRun() {
  TransactionSet txns = Parse(kHotSpot);
  Engine engine(txns.num_objects());
  RandomRunOptions options;
  options.concurrency = 4;
  options.seed = 11;
  return RunRandom(engine, txns, Allocation::AllSI(txns.size()), options);
}

TEST(ProfilerTest, ProfilingDoesNotChangeTheRun) {
  const DriverReport plain = HotSpotRun();

  ProfiledThreadScope scope("test.differential");
  ProfilerOptions options;
  options.hz = 997;
  ASSERT_TRUE(Profiler::Start(options).ok());
  const DriverReport profiled = HotSpotRun();
  Profiler::Stop();

  EXPECT_EQ(plain.committed, profiled.committed);
  EXPECT_EQ(plain.attempts, profiled.attempts);
  EXPECT_EQ(plain.blocked_steps, profiled.blocked_steps);
  EXPECT_EQ(plain.deadlock_victims, profiled.deadlock_victims);
  EXPECT_EQ(plain.lock_conflicts, profiled.lock_conflicts);
}

}  // namespace
}  // namespace mvrob
