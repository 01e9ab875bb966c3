// Differential tests for the bitset robustness analyzer: on ~200 random
// workloads and several allocations each, RobustnessAnalyzer::Check must be
// indistinguishable from the reference CheckRobustness — same verdict, same
// (lowest) witness triple, same audited triples_examined — and every
// reported witness must verify end-to-end as a real counterexample
// schedule.
//
// The ParallelDifferentialTest and ParallelAllocationTest suites keep the
// names they had when they also compared thread counts, so their recorded
// test ids stay stable; every check runs on the calling thread.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <vector>

#include "common/metrics.h"
#include "common/rng.h"
#include "core/analyzer.h"
#include "core/optimal_allocation.h"
#include "core/robustness.h"
#include "core/split_schedule.h"
#include "workloads/synthetic.h"

namespace mvrob {
namespace {

Allocation MixedAllocation(size_t n, uint64_t seed) {
  Rng rng(seed * 6151 + 11);
  std::vector<IsolationLevel> levels(n);
  for (size_t i = 0; i < n; ++i) {
    levels[i] = kAllIsolationLevels[rng.Index(3)];
  }
  return Allocation(std::move(levels));
}

TransactionSet MakeWorkload(uint64_t seed) {
  SyntheticParams params;
  params.num_txns = 3 + static_cast<int>(seed % 10);
  params.num_objects = 3 + static_cast<int>(seed % 6);
  params.min_ops = 1;
  params.max_ops = 5;
  params.write_fraction = 0.45;
  params.hotspot_fraction = 0.4;
  params.num_hotspots = 2;
  params.at_most_one_access = seed % 2 == 0;
  params.seed = seed * 977;
  return GenerateSynthetic(params);
}

// Every checker variant must produce this exact result.
void ExpectSameResult(const TransactionSet& txns, const Allocation& alloc,
                      const RobustnessResult& expected,
                      const RobustnessResult& actual, const char* which) {
  SCOPED_TRACE(which);
  ASSERT_EQ(expected.robust, actual.robust)
      << txns.ToString() << alloc.ToString(txns);
  EXPECT_EQ(expected.triples_examined, actual.triples_examined)
      << txns.ToString() << alloc.ToString(txns);
  if (!expected.robust) {
    ASSERT_TRUE(actual.counterexample.has_value());
    // The lowest-(t1, t2, tm) witness is unique across implementations.
    EXPECT_EQ(expected.counterexample->t1, actual.counterexample->t1);
    EXPECT_EQ(expected.counterexample->t2, actual.counterexample->t2);
    EXPECT_EQ(expected.counterexample->tm, actual.counterexample->tm);
    Status verified = VerifyCounterexample(txns, alloc, *actual.counterexample);
    EXPECT_TRUE(verified.ok()) << verified;
  } else {
    EXPECT_FALSE(actual.counterexample.has_value());
  }
}

class ParallelDifferentialTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ParallelDifferentialTest, ParallelEqualsSequentialEqualsReference) {
  const uint64_t seed = GetParam();
  TransactionSet txns = MakeWorkload(seed);
  RobustnessAnalyzer analyzer(txns);

  for (uint64_t salt = 0; salt < 5; ++salt) {
    Allocation alloc =
        salt < 3 ? Allocation(txns.size(), kAllIsolationLevels[salt])
                 : MixedAllocation(txns.size(), seed * 13 + salt);
    SCOPED_TRACE(alloc.ToString(txns));
    RobustnessResult reference = CheckRobustness(txns, alloc);

    RobustnessResult fast = analyzer.Check(alloc);
    ExpectSameResult(txns, alloc, reference, fast, "analyzer");

    // The options-taking facade builds its own analyzer.
    RobustnessResult facade = CheckRobustness(txns, alloc, CheckOptions{});
    ExpectSameResult(txns, alloc, reference, facade, "facade");
  }
}

// Attaching a metrics registry must be invisible to the analysis: the
// result is bit-identical to the uninstrumented run, and the audited
// counters agree with the result.
TEST_P(ParallelDifferentialTest, MetricsDoNotPerturbResults) {
  const uint64_t seed = GetParam();
  TransactionSet txns = MakeWorkload(seed);
  Allocation alloc = seed % 2 == 0 ? Allocation::AllSI(txns.size())
                                   : MixedAllocation(txns.size(), seed + 3);
  RobustnessResult reference = CheckRobustness(txns, alloc);

  MetricsRegistry registry;
  CheckOptions options;
  options.metrics = &registry;
  RobustnessResult instrumented = CheckRobustness(txns, alloc, options);
  ExpectSameResult(txns, alloc, reference, instrumented, "instrumented");
  EXPECT_EQ(registry.counter("analyzer.triples_examined").value(),
            instrumented.triples_examined)
      << txns.ToString() << alloc.ToString(txns);
  EXPECT_EQ(registry.counter("analyzer.checks").value(), 1u);
  EXPECT_EQ(registry.counter("analyzer.counterexamples_found").value(),
            instrumented.robust ? 0u : 1u);
  // The check's one observation holds every row it scanned.
  EXPECT_EQ(registry.histogram("analyzer.rows_per_check").count(), 1u);
  EXPECT_EQ(registry.histogram("analyzer.rows_per_check").sum(),
            registry.counter("analyzer.rows_scanned").value());
}

// FindAllCounterexamples lists chains in ascending (t1, t2, tm) order, so a
// smaller limit returns a prefix of a larger one, the first chain is the
// analyzer's lowest witness, and the list is empty iff the set is robust.
TEST_P(ParallelDifferentialTest, FindAllCounterexamplesIsThreadInvariant) {
  const uint64_t seed = GetParam();
  TransactionSet txns = MakeWorkload(seed);
  Allocation alloc = seed % 3 == 0 ? Allocation::AllRC(txns.size())
                     : seed % 3 == 1
                         ? Allocation::AllSI(txns.size())
                         : MixedAllocation(txns.size(), seed * 29 + 7);
  RobustnessResult lowest = RobustnessAnalyzer(txns).Check(alloc);

  std::vector<CounterexampleChain> all =
      FindAllCounterexamples(txns, alloc, 64);
  ASSERT_EQ(all.empty(), lowest.robust) << txns.ToString();
  if (!all.empty()) {
    EXPECT_EQ(all[0].t1, lowest.counterexample->t1);
    EXPECT_EQ(all[0].t2, lowest.counterexample->t2);
    EXPECT_EQ(all[0].tm, lowest.counterexample->tm);
  }
  for (const CounterexampleChain& chain : all) {
    Status verified = VerifyCounterexample(txns, alloc, chain);
    EXPECT_TRUE(verified.ok()) << verified;
  }
  for (size_t limit : {size_t{1}, size_t{8}}) {
    std::vector<CounterexampleChain> prefix =
        FindAllCounterexamples(txns, alloc, limit);
    ASSERT_EQ(prefix.size(), std::min(limit, all.size())) << "limit " << limit;
    for (size_t i = 0; i < prefix.size(); ++i) {
      EXPECT_EQ(prefix[i].t1, all[i].t1);
      EXPECT_EQ(prefix[i].t2, all[i].t2);
      EXPECT_EQ(prefix[i].tm, all[i].tm);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, ParallelDifferentialTest,
                         ::testing::Range<uint64_t>(0, 200));

// Algorithm 2 with a metrics sink attached lands on the identical (unique)
// optimal allocation, with the identical number of checks, and that
// allocation is robust by the reference checker.
class ParallelAllocationTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ParallelAllocationTest, OptimalAllocationIsThreadInvariant) {
  TransactionSet txns = MakeWorkload(GetParam() * 3 + 1);
  OptimalAllocationResult plain = ComputeOptimalAllocation(txns);
  MetricsRegistry registry;
  CheckOptions options;
  options.metrics = &registry;
  OptimalAllocationResult observed = ComputeOptimalAllocation(txns, options);
  EXPECT_EQ(plain.allocation.levels(), observed.allocation.levels())
      << txns.ToString();
  EXPECT_EQ(plain.robustness_checks, observed.robustness_checks);
  EXPECT_TRUE(CheckRobustness(txns, plain.allocation).robust)
      << txns.ToString() << plain.allocation.ToString(txns);
}

INSTANTIATE_TEST_SUITE_P(Sweep, ParallelAllocationTest,
                         ::testing::Range<uint64_t>(0, 25));

// The closed-form audited counter matches a literal enumeration of the
// canonical scan order.
TEST(TriplesContractTest, ClosedFormMatchesEnumeration) {
  EXPECT_EQ(internal::TriplesWhenRobust(0), 0u);
  EXPECT_EQ(internal::TriplesWhenRobust(1), 0u);
  for (size_t n : {2u, 3u, 5u, 8u}) {
    uint64_t count = 0;
    for (TxnId t1 = 0; t1 < n; ++t1) {
      for (TxnId t2 = 0; t2 < n; ++t2) {
        if (t2 == t1) continue;
        for (TxnId tm = 0; tm < n; ++tm) {
          if (tm == t1) continue;
          ++count;
          EXPECT_EQ(internal::TriplesUpToWitness(n, t1, t2, tm), count)
              << "n=" << n << " (" << t1 << "," << t2 << "," << tm << ")";
        }
      }
    }
    EXPECT_EQ(internal::TriplesWhenRobust(n), count) << "n=" << n;
  }
}

// CheckOptions::cancel: a raised flag strips the verdict; an unraised flag
// leaves results bit-identical to the reference.
TEST(CancellationTest, RaisedCancelYieldsNoVerdict) {
  TransactionSet txns = MakeWorkload(7);
  Allocation alloc = Allocation::AllRC(txns.size());
  RobustnessAnalyzer analyzer(txns);
  std::atomic<bool> cancel{true};

  MetricsRegistry registry;
  CheckOptions options;
  options.metrics = &registry;
  options.cancel = &cancel;
  RobustnessResult result = analyzer.Check(alloc, options);
  EXPECT_TRUE(result.cancelled);
  EXPECT_TRUE(result.robust);
  EXPECT_FALSE(result.counterexample.has_value());
  EXPECT_EQ(result.triples_examined, 0u);
  EXPECT_EQ(registry.counter("analyzer.checks_cancelled").value(), 1u);
  EXPECT_EQ(registry.counter("analyzer.counterexamples_found").value(), 0u);

  cancel.store(false);
  RobustnessResult reference = CheckRobustness(txns, alloc);
  CheckOptions live_options;
  live_options.cancel = &cancel;
  RobustnessResult live = analyzer.Check(alloc, live_options);
  EXPECT_FALSE(live.cancelled);
  ExpectSameResult(txns, alloc, reference, live, "uncancelled");
}

}  // namespace
}  // namespace mvrob
