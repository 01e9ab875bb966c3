#ifndef MVROB_ADAPT_CONTROLLER_H_
#define MVROB_ADAPT_CONTROLLER_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <mutex>
#include <string>
#include <vector>

#include "core/optimal_allocation.h"
#include "core/robustness.h"
#include "iso/allocation.h"
#include "mvcc/observer.h"
#include "promote/optimizer.h"
#include "txn/transaction_set.h"

namespace mvrob {

class MetricsRegistry;
class TxnTracer;

/// The adaptive-allocation layer behind `mvrob serve --adapt`: a controller
/// that closes the loop from the live per-level telemetry (PR 4) back into
/// the paper's allocation machinery. On a cadence it summarizes the
/// windowed per-level series into relative cost weights, re-runs
/// Algorithm 2 (and, with a promotion budget, the promotion optimizer
/// under those weights), certifies the winning (workload, allocation) pair
/// with Algorithm 1, and installs it into a generation-counted slot the
/// driver reads at every engine-epoch boundary. Serialized execution is
/// preserved by construction: nothing reaches the slot without a fresh
/// robustness certificate.

/// The mutex-guarded generation-counted slot holding the pair the driver
/// executes. The controller is the only writer; the driver and the witness
/// thread snapshot it at each epoch / check boundary. It holds a full
/// (TransactionSet, Allocation) pair — not just the allocation — because a
/// promotion decision changes the executed workload (promoted reads carry
/// an extra write). Promotion preserves object interning and transaction
/// names/ids, so ObjectIds and TxnIds mean the same thing across
/// generations.
class ActiveAllocation {
 public:
  ActiveAllocation(TransactionSet txns, Allocation alloc);

  /// Copies the current pair out; returns its generation.
  uint64_t Snapshot(TransactionSet* txns, Allocation* alloc) const;
  /// Copies only the allocation (cheap; for status endpoints).
  uint64_t SnapshotAllocation(TransactionSet* txns, Allocation* alloc) const {
    return Snapshot(txns, alloc);
  }

  uint64_t generation() const;

  /// Replaces the pair; returns the new generation. Takes effect at the
  /// driver's next epoch boundary (the driver snapshots per epoch).
  uint64_t Install(TransactionSet txns, Allocation alloc);

 private:
  mutable std::mutex mu_;
  TransactionSet txns_;
  Allocation alloc_;
  uint64_t generation_ = 0;
};

/// Windowed summary of one isolation level's live series at one instant.
struct LevelObservation {
  uint64_t commits = 0;
  /// Sum over the per-cause abort series (write conflict, SSI, deadlock,
  /// lock conflict, user).
  uint64_t aborts = 0;
  uint64_t p95_latency_us = 0;
};

/// All levels, indexed by static_cast<size_t>(IsolationLevel).
struct LevelObservations {
  LevelObservation per_level[kAllIsolationLevels.size()];
};

/// Reads every level's trailing-window totals from the live instruments at
/// `now` (explicit time point so tests can drive a fake clock; null
/// instrument pointers contribute zero).
LevelObservations ObserveLevels(const LiveTelemetry& live,
                                std::chrono::steady_clock::time_point now);

/// Integer cost weights for the allocation machinery (RC is always free).
struct AdaptWeights {
  int si = 1;
  int ssi = 2;

  friend bool operator==(const AdaptWeights&, const AdaptWeights&) = default;
};

/// Derives weights from the observation: each level's cost score is its
/// windowed p95 commit latency inflated by its abort ratio,
///
///   score(L) = (1 + aborts_L / (commits_L + aborts_L)) * max(p95_L, 1)
///
/// and the weight of SI/SSI is its score relative to RC, rounded to the
/// nearest integer and clamped (SI to [1, 64], SSI to [weight_si, 128] so
/// the preference order RC < SI < SSI survives noise). A level with no
/// traffic in the window — or an unobserved RC baseline — falls back to
/// the default weight for that slot (1 for SI, 2 for SSI). Deterministic:
/// fixed series in, fixed weights out.
AdaptWeights DeriveWeights(const LevelObservations& obs);

/// One controller decision, kept in a bounded history for /allocation.
struct AdaptDecision {
  uint64_t id = 0;
  uint64_t decided_at_us = 0;  // Wall clock.
  AdaptWeights weights;
  /// Chosen allocation, rendered against its workload ("T1=RC T2=SI ...").
  std::string allocation_text;
  /// Promoted reads in base coordinates ("R1[x]"); empty = base workload.
  std::vector<std::string> promotions;
  /// Weighted cost of the chosen allocation under `weights`.
  int64_t cost_weighted = 0;
  /// Algorithm 1 invocations spent on this decision (Algorithm 2 +
  /// optimizer + the final certification).
  uint64_t robustness_checks = 0;
  /// The final certificate's verdict. Always true for installed decisions.
  bool robust = false;
  /// Whether the decision changed the active pair (a swap).
  bool installed = false;
  /// Slot generation after the decision.
  uint64_t generation = 0;
  /// Top conflict pairs observed by the txn tracer at decision time
  /// ("T1->T2 ww first_updater_wins x12"); empty without a tracer. The
  /// live conflict evidence the decision's weights were derived under.
  std::vector<std::string> top_conflicts;
};

struct AdaptControllerOptions {
  /// Seconds between decisions.
  int interval_s = 30;
  /// Promotion budget per decision; 0 = allocation-only (never rewrites
  /// the workload).
  int promotion_budget = 0;
  /// Forwarded to every Algorithm 1/2 run; `check.cancel` should be the
  /// serve stop flag so shutdown never waits behind a scan.
  CheckOptions check;
  /// Optional sinks. The registry receives adapt.* counters and gauges,
  /// plus the adapt.decision_latency_us windowed histogram timing each
  /// full observe -> weigh -> allocate -> certify -> install cycle.
  MetricsRegistry* metrics = nullptr;
  /// Optional read-only txn tracer: each decision journals the tracer's
  /// top-k conflict pairs (AdaptDecision::top_conflicts and the
  /// adapt.decision log line), citing the live conflict evidence the
  /// decision was made under. Null leaves the journal empty.
  const TxnTracer* tracer = nullptr;
  /// Conflict pairs journaled per decision.
  size_t top_conflicts = 3;
  /// Decisions retained for the /allocation history (oldest dropped).
  size_t history_limit = 32;
};

/// The controller. Owns the decision loop; thread-safe status access for
/// the HTTP handler.
class AdaptController {
 public:
  /// `base` is the un-promoted workload every decision starts from.
  /// `live` may be null (weights stay at their defaults). `active` must
  /// outlive the controller.
  AdaptController(TransactionSet base, const LiveTelemetry* live,
                  ActiveAllocation* active, AdaptControllerOptions options);

  /// Runs one observe → weigh → allocate → certify → install cycle at
  /// `now`. Returns false iff the cycle was cancelled via
  /// options.check.cancel (no decision recorded); a completed cycle —
  /// including one whose candidate failed certification and was refused —
  /// returns true.
  bool DecideOnce(std::chrono::steady_clock::time_point now);

  /// Decision loop for the serve controller thread: decides immediately,
  /// then every options.interval_s seconds until `stop` is set (same
  /// stop/mutex/cv protocol as the witness thread).
  void Run(const std::atomic<bool>& stop, std::mutex& stop_mu,
           std::condition_variable& stop_cv);

  uint64_t decisions() const;
  uint64_t swaps() const;

  /// The full /allocation payload (schema v1, docs/formats.md): current
  /// allocation, weights, promotions, bounded decision history.
  std::string StatusJson() const;

 private:
  bool DecideLocked(std::chrono::steady_clock::time_point now);

  const TransactionSet base_;
  const LiveTelemetry* live_;
  ActiveAllocation* active_;
  const AdaptControllerOptions options_;

  mutable std::mutex mu_;
  uint64_t decisions_ = 0;
  uint64_t swaps_ = 0;
  AdaptWeights last_weights_;
  /// The controller's view of what it last installed (the slot's initial
  /// pair until the first swap). Tracked here so change detection never
  /// needs to compare TransactionSets.
  Allocation installed_alloc_;
  std::vector<OpRef> installed_promotions_;
  std::deque<AdaptDecision> history_;
};

/// The /allocation payload for a serve process without a controller
/// (--adapt off): same schema v1 with "adapt":false, empty weights
/// defaults, no history.
std::string StaticAllocationJson(const ActiveAllocation& active);

}  // namespace mvrob

#endif  // MVROB_ADAPT_CONTROLLER_H_
