// Property tests for RobustnessAnalyzer::CheckChange, the one-transaction
// delta check behind Algorithm 2: on randomized sets and several robust
// bases, its verdict for every (t, level) equals the full Check and the
// reference CheckRobustness, and every witness it reports is a valid
// multiversion split schedule through t. Also pins the word-wise inner-chain
// search against MixedIsoGraph, and the counter/cancellation contract.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <string>
#include <vector>

#include "common/metrics.h"
#include "common/rng.h"
#include "core/analyzer.h"
#include "core/mixed_iso_graph.h"
#include "core/optimal_allocation.h"
#include "core/split_schedule.h"
#include "workloads/synthetic.h"

namespace mvrob {
namespace {

constexpr double kWriteFractions[] = {0.2, 0.4, 0.6, 0.8};

// n in 4..16 over 3..8 objects, with the read/write mix and contention
// varying across seeds.
TransactionSet MakeSet(uint64_t seed) {
  SyntheticParams params;
  params.num_txns = 4 + static_cast<int>(seed % 13);
  params.num_objects = 3 + static_cast<int>((seed / 3) % 6);
  params.min_ops = 1;
  params.max_ops = 2 + static_cast<int>(seed % 3);
  params.write_fraction = kWriteFractions[seed % 4];
  params.hotspot_fraction = 0.15 * static_cast<double>(seed % 4);
  params.seed = seed;
  return GenerateSynthetic(params);
}

Allocation RandomAllocation(size_t n, Rng& rng) {
  std::vector<IsolationLevel> levels;
  for (size_t t = 0; t < n; ++t) {
    levels.push_back(kAllIsolationLevels[rng.Index(3)]);
  }
  return Allocation(std::move(levels));
}

Allocation PointwiseMax(const Allocation& a, const Allocation& b) {
  std::vector<IsolationLevel> levels;
  for (TxnId t = 0; t < a.size(); ++t) {
    levels.push_back(std::max(a.level(t), b.level(t)));
  }
  return Allocation(std::move(levels));
}

// A_SSI, the Algorithm 2 optimum and random allocations, each certified
// robust by the reference checker.
std::vector<Allocation> RobustBases(const TransactionSet& txns, uint64_t seed) {
  const size_t n = txns.size();
  const Allocation optimum = ComputeOptimalAllocation(txns).allocation;
  std::vector<Allocation> candidates = {Allocation::AllSSI(n), optimum};
  Rng rng(seed * 7919 + 1);
  for (int i = 0; i < 6; ++i) {
    Allocation random = RandomAllocation(n, rng);
    candidates.push_back(random);
    candidates.push_back(PointwiseMax(random, optimum));
  }
  std::vector<Allocation> bases;
  for (Allocation& candidate : candidates) {
    if (CheckRobustness(txns, candidate).robust) {
      bases.push_back(std::move(candidate));
    }
  }
  return bases;
}

class DeltaCheckPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(DeltaCheckPropertyTest, VerdictMatchesFullAndReferenceCheck) {
  const TransactionSet txns = MakeSet(GetParam());
  const size_t n = txns.size();
  const RobustnessAnalyzer analyzer(txns);
  const std::vector<Allocation> bases = RobustBases(txns, GetParam());
  ASSERT_GE(bases.size(), 2u);  // A_SSI and the optimum at least.
  for (const Allocation& base : bases) {
    for (TxnId t = 0; t < n; ++t) {
      for (IsolationLevel level : kAllIsolationLevels) {
        const Allocation changed = base.With(t, level);
        const RobustnessResult delta = analyzer.CheckChange(base, t, level);
        const RobustnessResult full = analyzer.Check(changed);
        const RobustnessResult reference = CheckRobustness(txns, changed);
        const std::string where =
            txns.ToString() + "base " + base.ToString(txns) + ", " +
            txns.txn(t).name() + " -> " + IsolationLevelToString(level);
        ASSERT_FALSE(delta.cancelled);
        EXPECT_EQ(delta.robust, full.robust) << where;
        EXPECT_EQ(full.robust, reference.robust) << where;
        EXPECT_LE(delta.triples_examined, internal::TriplesWhenRobust(n));
        EXPECT_EQ(delta.counterexample.has_value(), !delta.robust) << where;
        if (!delta.counterexample.has_value()) continue;
        const CounterexampleChain& chain = *delta.counterexample;
        EXPECT_TRUE(chain.t1 == t || chain.t2 == t || chain.tm == t) << where;
        Status verified = VerifyCounterexample(txns, changed, chain);
        EXPECT_TRUE(verified.ok()) << where << verified;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, DeltaCheckPropertyTest,
                         ::testing::Range<uint64_t>(0, 52));

TEST(DeltaCheckTest, UnchangedSsiMembershipScansOnlyRowT) {
  const TransactionSet txns = MakeSet(12);
  const size_t n = txns.size();
  const RobustnessAnalyzer analyzer(txns);
  const Allocation base = Allocation::AllSSI(n);
  for (TxnId t = 0; t < n; ++t) {
    const RobustnessResult same =
        analyzer.CheckChange(base, t, IsolationLevel::kSSI);
    EXPECT_TRUE(same.robust);
    EXPECT_EQ(same.triples_examined, (n - 1) * (n - 1));
  }
}

TEST(DeltaCheckTest, CountsOneCheckAndTheVisitedTriples) {
  const TransactionSet txns = MakeSet(40);
  const RobustnessAnalyzer analyzer(txns);
  const Allocation base = Allocation::AllSSI(txns.size());
  for (IsolationLevel level : {IsolationLevel::kRC, IsolationLevel::kSI}) {
    MetricsRegistry registry;
    CheckOptions options;
    options.metrics = &registry;
    const RobustnessResult result =
        analyzer.CheckChange(base, 0, level, options);
    EXPECT_EQ(registry.counter("analyzer.checks").value(), 1u);
    EXPECT_EQ(registry.counter("analyzer.triples_examined").value(),
              result.triples_examined);
    EXPECT_GE(registry.counter("analyzer.rows_scanned").value(), 1u);
    EXPECT_EQ(registry.histogram("analyzer.rows_per_thread").sum(),
              registry.counter("analyzer.rows_scanned").value());
    EXPECT_EQ(registry.counter("analyzer.counterexamples_found").value(),
              result.robust ? 0u : 1u);
    EXPECT_EQ(registry.histogram("phase.analyzer.delta_scan_us").count(), 1u);
  }
}

TEST(DeltaCheckTest, CancelledCheckCarriesNoVerdict) {
  const TransactionSet txns = MakeSet(25);
  const RobustnessAnalyzer analyzer(txns);
  std::atomic<bool> cancel{true};
  MetricsRegistry registry;
  CheckOptions options;
  options.cancel = &cancel;
  options.metrics = &registry;
  const Allocation base = Allocation::AllSSI(txns.size());
  const RobustnessResult result =
      analyzer.CheckChange(base, 1, IsolationLevel::kRC, options);
  EXPECT_TRUE(result.cancelled);
  EXPECT_TRUE(result.robust);
  EXPECT_FALSE(result.counterexample.has_value());
  EXPECT_EQ(result.triples_examined, 0u);
  EXPECT_EQ(registry.counter("analyzer.checks_cancelled").value(), 1u);

  // Algorithm 2 stops at the cancelled check and keeps a robust start.
  const OptimalAllocationResult stopped =
      ComputeOptimalAllocation(analyzer, options);
  EXPECT_EQ(stopped.allocation, base);
  EXPECT_EQ(stopped.robustness_checks, 1u);
}

// Random triples over sparse conflict graphs (many objects, few operations)
// so that inner chains of several transactions occur.
TEST(WordwiseInnerChainTest, AgreesWithMixedIsoGraph) {
  size_t chains = 0;
  size_t long_chains = 0;
  for (uint64_t seed = 0; seed < 40; ++seed) {
    SyntheticParams params;
    params.num_txns = 6 + static_cast<int>(seed % 20);
    params.num_objects = params.num_txns;
    params.min_ops = 1;
    params.max_ops = 2;
    params.write_fraction = 0.5;
    params.seed = seed;
    const TransactionSet txns = GenerateSynthetic(params);
    const size_t n = txns.size();
    const BitMatrix conflict = BuildConflictMatrix(txns);
    Rng rng(seed);
    for (int trial = 0; trial < 60; ++trial) {
      const TxnId t1 = static_cast<TxnId>(rng.Index(n));
      const TxnId t2 = static_cast<TxnId>(rng.Index(n));
      const TxnId tm = static_cast<TxnId>(rng.Index(n));
      if (t1 == t2 || t1 == tm) continue;
      const std::optional<std::vector<TxnId>> expected =
          MixedIsoGraph(txns, t1, {t2, tm}, &conflict).FindInnerChain(t2, tm);
      const std::optional<std::vector<TxnId>> wordwise =
          FindInnerChainWordwise(conflict, t1, t2, tm);
      ASSERT_EQ(wordwise.has_value(), expected.has_value())
          << txns.ToString() << t1 << " " << t2 << " " << tm;
      if (!wordwise.has_value()) continue;
      ++chains;
      ASSERT_EQ(wordwise->size(), expected->size());
      if (wordwise->size() >= 2) ++long_chains;
      // A valid inner chain: graph nodes, consecutive conflicts.
      TxnId previous = t2;
      for (TxnId node : *wordwise) {
        EXPECT_TRUE(node != t1 && node != t2 && node != tm);
        EXPECT_FALSE(conflict.Test(node, t1));
        EXPECT_TRUE(conflict.Test(previous, node));
        previous = node;
      }
      EXPECT_TRUE(previous == tm || conflict.Test(previous, tm));
    }
  }
  EXPECT_GT(chains, 0u);
  EXPECT_GT(long_chains, 0u);  // The sweep reaches multi-node chains.
}

}  // namespace
}  // namespace mvrob
