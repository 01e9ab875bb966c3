#ifndef MVROB_CORE_ANALYZER_H_
#define MVROB_CORE_ANALYZER_H_

#include <atomic>
#include <cstdint>
#include <limits>
#include <optional>
#include <utility>
#include <vector>

#include "common/bitset.h"
#include "core/conflict.h"
#include "core/robustness.h"

namespace mvrob {

/// Bitset-kernel implementation of Algorithm 1.
///
/// CheckRobustness (the reference implementation) re-derives conflict
/// information and rebuilds the mixed-iso-graph inside the triple loop;
/// this class precomputes, once per transaction set,
///  - pairwise conflict and rw matrices as dense bit rows,
///  - per-pair indices (first write of Ti ww-conflicting with Tj, first
///    read of Ti on an object Tj writes, last operation of Ti conflicting
///    with Tj), which turn the per-triple operation search into O(1)
///    lookups,
///  - derived candidate rows (ww_never, rw_before_ww, si_candidates =
///    ww_never & rw_into), so the inner Tm loop of Algorithm 1 collapses
///    into a word-wise AND of candidate masks followed by a set-bit walk
///    over the few survivors, and
///  - per-pivot connected components of the mixed-iso-graph (lazily, since
///    they are allocation-independent), which turn reachability into a
///    word-wise component-bitmask intersection.
///
/// The payoff is twofold: a single decision drops from the reference
/// checker's per-triple operation loops to a handful of word operations
/// per (T1, T2) pair, and Algorithm 2 (up to 2·|T| CheckChange delta
/// checks over the *same* set) reuses every cache. Check's results —
/// verdict, lowest counterexample triple, and the audited
/// triples_examined — are bit-identical to CheckRobustness
/// (property-tested).
///
/// Thread safety: Check and CheckChange scan on the calling thread and
/// fill the lazy per-t1 caches as they go, so calls on one analyzer must
/// not run concurrently. Distinct analyzers are independent.
class RobustnessAnalyzer {
 public:
  /// `metrics` (nullable) records the matrix-build phase timers and, as a
  /// default sink, Check-time counters; per-call CheckOptions::metrics
  /// takes precedence for the latter. Collection never changes results.
  explicit RobustnessAnalyzer(const TransactionSet& txns,
                              MetricsRegistry* metrics = nullptr);

  /// Same, with a group-level ConflictPruner (core/conflict.h): pairs the
  /// pruner rules out skip the per-operation scans during matrix
  /// construction. The pruner must be sound (see ConflictPruner), in
  /// which case every matrix — and therefore every Check result — is
  /// identical to the unpruned analyzer's. The referenced pruner tables
  /// only need to outlive the constructor.
  RobustnessAnalyzer(const TransactionSet& txns, const ConflictPruner& pruner,
                     MetricsRegistry* metrics);

  /// Algorithm 1 for one allocation; equivalent to CheckRobustness.
  RobustnessResult Check(const Allocation& alloc) const;

  /// Same, with cancellation, a watchdog and a metrics sink from
  /// `options`. The lowest (t1, t2, tm) witness wins, and triples_examined
  /// follows the audited contract of RobustnessResult.
  RobustnessResult Check(const Allocation& alloc,
                         const CheckOptions& options) const;

  /// Decides robustness of base.With(t, level) for a `base` the caller
  /// already knows to be robust, visiting only the triples (T1, T2, Tm)
  /// that contain t. Sound because Definition 3.1's conditions for a
  /// triple read only the levels of T1, T2 and Tm (the operation indices
  /// and pivot components are level-independent): a triple without t has
  /// the verdict it has under `base`, and `base` has no witness. Moreover
  /// the levels of T2 and Tm matter only through conditions (6)-(8), which
  /// apply only when T1 is SSI, so besides row T1 = t the scan visits the
  /// SSI rows, and those only when the change moves t into or out of SSI.
  ///
  /// The verdict equals Check(base.With(t, level)).robust. A non-robust
  /// result carries *a* witness containing t (not necessarily the lowest
  /// triple, and with the inner chain from FindInnerChainWordwise);
  /// triples_examined counts the triples containing t in the rows visited
  /// (row t up to its witness, the other rows whole). Cancellation,
  /// watchdog heartbeats (one per row) and the analyzer.* counters follow
  /// Check. Passing a non-robust `base` gives no meaningful verdict.
  RobustnessResult CheckChange(const Allocation& base, TxnId t,
                               IsolationLevel level,
                               const CheckOptions& options = {}) const;

  const TransactionSet& txns() const { return txns_; }

  /// The pairwise conflict matrix (symmetric, zero diagonal); equals
  /// BuildConflictMatrix(txns()). Shared with MixedIsoGraph during
  /// witness recovery so conflict tests stay O(1).
  const BitMatrix& conflict_matrix() const { return conflict_; }

 private:
  static constexpr int kNever = std::numeric_limits<int>::max();

  // Conflicts between a pivot's component structure and other transactions.
  struct PivotCache {
    // Row x (one per transaction): bitmask over the pivot-graph components
    // that contain a transaction conflicting with x. reachable(t2, tm)
    // through the graph iff the rows of t2 and tm intersect.
    BitMatrix comp_conf;
  };

  const PivotCache& PivotFor(TxnId t1) const;
  bool Reachable(TxnId t1, TxnId t2, TxnId tm) const;

  /// Tm candidates for an RC-allocated t1 and split threshold k (= the
  /// pair's first_rw index): first_ww_idx[t1][tm] > k and condition (5)
  /// holds (rw into t1, or a conflicting op of T1 after k). Allocation-
  /// independent given (t1, k), so cached across Algorithm 2's checks.
  ConstBitSpan RcCandidatesFor(TxnId t1, int k) const;

  /// Scans one t1 row: returns the lowest-(t2, tm) witness chain of the
  /// row, or nullopt. When `cancel` is non-null and raised, the scan
  /// abandons at the next t2 boundary (Check maps this to a cancelled
  /// result). The number of 64-bit words touched by the row's word-wise
  /// mask operations is added to `words_scanned`.
  /// `reference_inner` picks how a witness's inner chain is recovered:
  /// MixedIsoGraph (Check, whose counterexamples match CheckRobustness) or
  /// FindInnerChainWordwise (CheckChange).
  std::optional<CounterexampleChain> CheckRow(
      const Allocation& alloc, ConstBitSpan ssi_mask, TxnId t1,
      const std::atomic<bool>* cancel, uint64_t* words_scanned,
      bool reference_inner) const;

  /// CheckChange's scan of an SSI row t1 != t: the triples with T2 = t,
  /// then those with Tm = t. Words touched are added to `words_scanned`.
  std::optional<CounterexampleChain> CheckRowThrough(
      const Allocation& alloc, ConstBitSpan ssi_mask, TxnId t1, TxnId t,
      uint64_t* words_scanned) const;

  /// Turns a triple that passes every mask and Reachable into its
  /// counterexample chain (operations plus inner chain), or nullopt.
  std::optional<CounterexampleChain> Witness(const Allocation& alloc,
                                             TxnId t1, TxnId t2, TxnId tm,
                                             bool reference_inner) const;

  int first_ww_idx(TxnId i, TxnId j) const {
    return first_ww_idx_[i * txns_.size() + j];
  }
  int first_rw_idx(TxnId i, TxnId j) const {
    return first_rw_idx_[i * txns_.size() + j];
  }
  int last_conflict_idx(TxnId i, TxnId j) const {
    return last_conflict_idx_[i * txns_.size() + j];
  }

  const TransactionSet& txns_;
  // Default observability sink for Check (overridden per call by
  // CheckOptions::metrics); also receives the build-phase timers.
  MetricsRegistry* metrics_ = nullptr;
  // conflict_ row i: transactions with an operation conflicting with Ti
  // (symmetric, diagonal clear).
  BitMatrix conflict_;
  // rw_ row i: {j : Ti reads an object Tj writes}.
  BitMatrix rw_;
  // rw_into_ row i: {j : Tj reads an object Ti writes} (transpose of rw_).
  BitMatrix rw_into_;
  // ww_never_ row i: {j : no write of Ti touches Tj's write set}.
  BitMatrix ww_never_;
  // rw_before_ww_ row i: {j : first_rw_idx[i][j] < first_ww_idx[i][j]},
  // with first_rw present. The T2-side pair condition for RC-allocated Ti.
  BitMatrix rw_before_ww_;
  // si_candidates_ row i = ww_never_ & rw_into_: the allocation-independent
  // Tm candidates when Ti is allocated SI/SSI.
  BitMatrix si_candidates_;
  // Flat n*n index tables (i * n + j); kNever / -1 sentinels as documented.
  std::vector<int> first_ww_idx_;
  std::vector<int> first_rw_idx_;
  std::vector<int> last_conflict_idx_;

  // Lazy per-t1 caches, filled by the first scan that needs them.
  mutable std::vector<std::optional<PivotCache>> pivot_cache_;
  mutable std::vector<std::vector<std::pair<int, DenseBitset>>> rc_cache_;
};

}  // namespace mvrob

#endif  // MVROB_CORE_ANALYZER_H_
