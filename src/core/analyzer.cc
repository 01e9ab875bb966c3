#include "core/analyzer.h"

#include <algorithm>

#include "common/metrics.h"
#include "common/watchdog.h"
#include "core/mixed_iso_graph.h"
#include "txn/conflict.h"

namespace mvrob {

RobustnessAnalyzer::RobustnessAnalyzer(const TransactionSet& txns,
                                       MetricsRegistry* metrics)
    : RobustnessAnalyzer(txns, ConflictPruner{}, metrics) {}

RobustnessAnalyzer::RobustnessAnalyzer(const TransactionSet& txns,
                                       const ConflictPruner& pruner,
                                       MetricsRegistry* metrics)
    : txns_(txns), metrics_(metrics) {
  const size_t n = txns.size();
  conflict_ = BitMatrix(n, n);
  rw_ = BitMatrix(n, n);
  rw_into_ = BitMatrix(n, n);
  ww_never_ = BitMatrix(n, n);
  rw_before_ww_ = BitMatrix(n, n);
  si_candidates_ = BitMatrix(n, n);
  first_ww_idx_.assign(n * n, kNever);
  first_rw_idx_.assign(n * n, kNever);
  last_conflict_idx_.assign(n * n, -1);
  pivot_cache_.resize(n);
  rc_cache_.resize(n);

  {
    PhaseTimer matrix_timer(metrics_, "analyzer.build_conflict_matrix");
    for (TxnId i = 0; i < n; ++i) {
      const Transaction& ti = txns.txn(i);
      for (TxnId j = 0; j < n; ++j) {
        if (i == j) continue;
        // A sound pruner clearing the pair means no operation-level
        // conflict exists; the sentinel defaults already encode that.
        if (!pruner.MayConflict(i, j)) continue;
        const Transaction& tj = txns.txn(j);
        int& first_ww = first_ww_idx_[i * n + j];
        int& first_rw = first_rw_idx_[i * n + j];
        int& last_conflict = last_conflict_idx_[i * n + j];
        for (int k = 0; k < ti.num_ops(); ++k) {
          const Operation& op = ti.op(k);
          if (op.IsCommit()) continue;
          bool writes_j = tj.Writes(op.object);
          if (op.IsWrite()) {
            if (writes_j && first_ww == kNever) first_ww = k;
            if (writes_j || tj.Reads(op.object)) last_conflict = k;
          } else if (writes_j) {
            rw_.Set(i, j);
            if (first_rw == kNever) first_rw = k;
            last_conflict = k;
          }
        }
        if (rw_.Test(i, j) || first_ww != kNever || last_conflict >= 0) {
          conflict_.Set(i, j);
        }
      }
    }
  }
  // Close conflict_ under symmetry (the scan sees rw via Ti's reads only)
  // and derive the candidate rows.
  PhaseTimer masks_timer(metrics_, "analyzer.build_candidate_masks");
  for (TxnId i = 0; i < n; ++i) {
    for (TxnId j = i + 1; j < n; ++j) {
      if (conflict_.Test(i, j) || conflict_.Test(j, i)) {
        conflict_.Set(i, j);
        conflict_.Set(j, i);
      }
      if (rw_.Test(i, j)) rw_into_.Set(j, i);
      if (rw_.Test(j, i)) rw_into_.Set(i, j);
    }
  }
  for (TxnId i = 0; i < n; ++i) {
    for (TxnId j = 0; j < n; ++j) {
      int first_ww = first_ww_idx_[i * n + j];
      if (first_ww == kNever) ww_never_.Set(i, j);
      int first_rw = first_rw_idx_[i * n + j];
      if (first_rw != kNever && first_rw < first_ww) rw_before_ww_.Set(i, j);
    }
    BitSpan si = si_candidates_.row(i);
    si.CopyFrom(ww_never_.row(i));
    si.AndWith(rw_into_.row(i));
  }
}

const RobustnessAnalyzer::PivotCache& RobustnessAnalyzer::PivotFor(
    TxnId t1) const {
  std::optional<PivotCache>& slot = pivot_cache_[t1];
  if (slot.has_value()) return *slot;

  const size_t n = txns_.size();
  // Nodes: transactions not conflicting with t1 (conflict_ is symmetric,
  // so this is the complement of t1's row). Components by a word-wise BFS
  // from the lowest unvisited node: expanding a level ORs the conflict rows
  // of its nodes, and the OR over the whole component is exactly the set of
  // transactions conflicting with one of its nodes.
  DenseBitset unvisited(n);
  unvisited.SetAll();
  unvisited.AndNotWith(conflict_.row(t1));
  unvisited.Reset(t1);

  std::vector<DenseBitset> touching;  // Per kept component.
  DenseBitset frontier(n);
  DenseBitset next(n);
  for (size_t root = unvisited.FindFirst(); root < n;
       root = unvisited.FindNext(root + 1)) {
    DenseBitset reach(n);
    frontier.ResetAll();
    frontier.Set(root);
    unvisited.Reset(root);
    while (frontier.Any()) {
      next.ResetAll();
      frontier.ForEachSetBit([&](size_t x) { next.OrWith(conflict_.row(x)); });
      reach.OrWith(next);
      next.AndWith(unvisited);
      unvisited.AndNotWith(next);
      std::swap(frontier, next);
    }
    // A component touching fewer than two transactions never links a
    // distinct (t2, tm) pair, so it needs no column.
    if (reach.Count() >= 2) touching.push_back(std::move(reach));
  }

  PivotCache cache;
  cache.comp_conf = BitMatrix(n, touching.size());
  for (size_t c = 0; c < touching.size(); ++c) {
    touching[c].ForEachSetBit([&](size_t x) { cache.comp_conf.Set(x, c); });
  }
  slot = std::move(cache);
  return *slot;
}

bool RobustnessAnalyzer::Reachable(TxnId t1, TxnId t2, TxnId tm) const {
  if (t2 == tm || conflict_.Test(t2, tm)) return true;
  const PivotCache& cache = PivotFor(t1);
  return cache.comp_conf.row(t2).Intersects(cache.comp_conf.row(tm));
}

ConstBitSpan RobustnessAnalyzer::RcCandidatesFor(TxnId t1, int k) const {
  std::vector<std::pair<int, DenseBitset>>& slots = rc_cache_[t1];
  for (const std::pair<int, DenseBitset>& entry : slots) {
    if (entry.first == k) return entry.second.span();
  }
  const size_t n = txns_.size();
  DenseBitset mask(n);
  for (TxnId tm = 0; tm < n; ++tm) {
    if (tm == t1) continue;
    if (first_ww_idx(t1, tm) > k &&
        (rw_into_.Test(t1, tm) || last_conflict_idx(t1, tm) > k)) {
      mask.Set(tm);
    }
  }
  slots.emplace_back(k, std::move(mask));
  return slots.back().second.span();
}

std::optional<CounterexampleChain> RobustnessAnalyzer::CheckRow(
    const Allocation& alloc, ConstBitSpan ssi_mask, TxnId t1,
    const std::atomic<bool>* cancel, uint64_t* words_scanned,
    bool reference_inner) const {
  const size_t n = txns_.size();
  const uint64_t words_per_row = (n + 63) / 64;
  uint64_t mask_ops = 0;  // Word-wise row operations; flushed on return.
  bool t1_rc = alloc.level(t1) == IsolationLevel::kRC;
  bool s1 = ssi_mask.Test(t1);

  // T2 candidates: b1 exists (rw row), the T2-side ww constraint of
  // Definition 3.1 (2)/(3), and — under double SSI — condition (7).
  DenseBitset pair_mask(n);
  pair_mask.CopyFrom(rw_.row(t1));
  pair_mask.AndWith(t1_rc ? rw_before_ww_.row(t1) : ww_never_.row(t1));
  mask_ops += 2;
  DenseBitset ssi_rw_out(n);  // Condition (8)'s exclusion: SSI Tm read by T1.
  if (s1) {
    DenseBitset ssi_rw_in(n);
    ssi_rw_in.CopyFrom(ssi_mask);
    ssi_rw_in.AndWith(rw_into_.row(t1));
    pair_mask.AndNotWith(ssi_rw_in);
    ssi_rw_out.CopyFrom(ssi_mask);
    ssi_rw_out.AndWith(rw_.row(t1));
    mask_ops += 5;
  }

  DenseBitset tm_mask(n);
  for (size_t t2 = pair_mask.FindFirst(); t2 < n;
       t2 = pair_mask.FindNext(t2 + 1)) {
    if (cancel != nullptr && cancel->load(std::memory_order_relaxed)) {
      *words_scanned += mask_ops * words_per_row;
      return std::nullopt;  // Caller marks the result cancelled.
    }
    // Tm candidates for this pair: allocation-independent base (ww
    // constraint towards Tm + condition (5)) minus the SSI exclusions
    // (6) and (8).
    if (t1_rc) {
      tm_mask.CopyFrom(RcCandidatesFor(t1, first_rw_idx(t1, t2)));
    } else {
      tm_mask.CopyFrom(si_candidates_.row(t1));
    }
    ++mask_ops;
    if (s1) {
      tm_mask.AndNotWith(ssi_rw_out);
      ++mask_ops;
      if (ssi_mask.Test(t2)) {
        tm_mask.AndNotWith(ssi_mask);
        ++mask_ops;
      }
    }
    for (size_t tm = tm_mask.FindFirst(); tm < n;
         tm = tm_mask.FindNext(tm + 1)) {
      if (!Reachable(t1, static_cast<TxnId>(t2), static_cast<TxnId>(tm))) {
        continue;
      }
      std::optional<CounterexampleChain> chain =
          Witness(alloc, t1, static_cast<TxnId>(t2), static_cast<TxnId>(tm),
                  reference_inner);
      if (!chain.has_value()) continue;
      *words_scanned += mask_ops * words_per_row;
      return chain;
    }
  }
  *words_scanned += mask_ops * words_per_row;
  return std::nullopt;
}

std::optional<CounterexampleChain> RobustnessAnalyzer::Witness(
    const Allocation& alloc, TxnId t1, TxnId t2, TxnId tm,
    bool reference_inner) const {
  // Witness recovery with the reference operation search.
  CounterexampleChain chain;
  if (!internal::FindChainOperations(txns_, alloc, t1, t2, tm, &chain)) {
    return std::nullopt;  // Defensive; the indices guarantee success.
  }
  std::optional<std::vector<TxnId>> inner =
      reference_inner
          ? MixedIsoGraph(txns_, t1, {t2, tm}, &conflict_)
                .FindInnerChain(t2, tm)
          : FindInnerChainWordwise(conflict_, t1, t2, tm);
  if (!inner.has_value()) return std::nullopt;
  chain.inner = std::move(inner).value();
  return chain;
}

std::optional<CounterexampleChain> RobustnessAnalyzer::CheckRowThrough(
    const Allocation& alloc, ConstBitSpan ssi_mask, TxnId t1, TxnId t,
    uint64_t* words_scanned) const {
  // t1 is SSI, so its pair and Tm conditions are CheckRow's SI/SSI ones
  // with (6)-(8) applied; only the bits of t differ from the base.
  const size_t n = txns_.size();
  const bool t_ssi = ssi_mask.Test(t);
  uint64_t mask_ops = 2;
  DenseBitset ssi_rw_out(n);  // Condition (8)'s exclusion.
  ssi_rw_out.CopyFrom(ssi_mask);
  ssi_rw_out.AndWith(rw_.row(t1));
  std::optional<CounterexampleChain> chain;

  // T2 = t: the pair conditions, then a walk over the row's Tm candidates.
  if (rw_.Test(t1, t) && ww_never_.Test(t1, t) &&
      !(t_ssi && rw_into_.Test(t1, t))) {
    DenseBitset tm_mask(n);
    tm_mask.CopyFrom(si_candidates_.row(t1));
    tm_mask.AndNotWith(ssi_rw_out);
    mask_ops += 2;
    if (t_ssi) {
      tm_mask.AndNotWith(ssi_mask);
      ++mask_ops;
    }
    for (size_t tm = tm_mask.FindFirst(); tm < n && !chain.has_value();
         tm = tm_mask.FindNext(tm + 1)) {
      if (Reachable(t1, t, static_cast<TxnId>(tm))) {
        chain = Witness(alloc, t1, t, static_cast<TxnId>(tm),
                        /*reference_inner=*/false);
      }
    }
  }

  // Tm = t, T2 != t: t's candidacy is one bit test, T2-independent except
  // for condition (6), then a walk over the row's T2 candidates.
  if (!chain.has_value() && si_candidates_.Test(t1, t) &&
      !ssi_rw_out.Test(t)) {
    DenseBitset pair_mask(n);
    pair_mask.CopyFrom(rw_.row(t1));
    pair_mask.AndWith(ww_never_.row(t1));
    DenseBitset ssi_rw_in(n);  // Condition (7)'s exclusion.
    ssi_rw_in.CopyFrom(ssi_mask);
    ssi_rw_in.AndWith(rw_into_.row(t1));
    pair_mask.AndNotWith(ssi_rw_in);
    mask_ops += 5;
    pair_mask.Reset(t);
    for (size_t t2 = pair_mask.FindFirst(); t2 < n && !chain.has_value();
         t2 = pair_mask.FindNext(t2 + 1)) {
      if (t_ssi && ssi_mask.Test(t2)) continue;  // Condition (6).
      if (Reachable(t1, static_cast<TxnId>(t2), t)) {
        chain = Witness(alloc, t1, static_cast<TxnId>(t2), t,
                        /*reference_inner=*/false);
      }
    }
  }
  *words_scanned += mask_ops * ((n + 63) / 64);
  return chain;
}

RobustnessResult RobustnessAnalyzer::Check(const Allocation& alloc) const {
  return Check(alloc, CheckOptions{});
}

namespace {

void RecordCheckMetrics(MetricsRegistry* metrics,
                        const RobustnessResult& result, uint64_t words_scanned,
                        uint64_t rows_scanned) {
  metrics->counter("analyzer.checks").Increment();
  metrics->counter("analyzer.triples_examined").Add(result.triples_examined);
  metrics->counter("analyzer.bitset_words_scanned").Add(words_scanned);
  metrics->counter("analyzer.rows_scanned").Add(rows_scanned);
  metrics->histogram("analyzer.rows_per_check").Observe(rows_scanned);
  if (result.cancelled) {
    metrics->counter("analyzer.checks_cancelled").Increment();
  } else if (!result.robust) {
    metrics->counter("analyzer.counterexamples_found").Increment();
  }
}

}  // namespace

RobustnessResult RobustnessAnalyzer::Check(const Allocation& alloc,
                                           const CheckOptions& options) const {
  MetricsRegistry* metrics =
      options.metrics != nullptr ? options.metrics : metrics_;
  RobustnessResult result;
  const size_t n = txns_.size();
  if (n < 2) {
    if (metrics != nullptr) metrics->counter("analyzer.checks").Increment();
    return result;
  }
  PhaseTimer scan_timer(metrics, "analyzer.triple_scan");
  // One heartbeat per completed row: rows complete many times a second on
  // any healthy check, so a silent wedge inside the scan trips the deadline.
  WatchdogScope watch(options.watchdog, "analyzer.triple_scan",
                      std::chrono::seconds(30));

  DenseBitset ssi_mask(n);
  for (TxnId t = 0; t < n; ++t) {
    if (alloc.level(t) == IsolationLevel::kSSI) ssi_mask.Set(t);
  }

  uint64_t words_scanned = 0;
  uint64_t rows_scanned = 0;
  const std::atomic<bool>* cancel = options.cancel;
  auto cancelled = [cancel] {
    return cancel != nullptr && cancel->load(std::memory_order_relaxed);
  };
  for (TxnId t1 = 0; t1 < n && !cancelled(); ++t1) {
    std::optional<CounterexampleChain> chain =
        CheckRow(alloc, ssi_mask, t1, cancel, &words_scanned,
                 /*reference_inner=*/true);
    ++rows_scanned;
    watch.Heartbeat();
    if (chain.has_value()) {
      result.robust = false;
      result.triples_examined =
          internal::TriplesUpToWitness(n, chain->t1, chain->t2, chain->tm);
      result.counterexample = std::move(chain);
      break;
    }
  }
  if (cancelled()) {
    // Partial scan: strip any verdict so nothing downstream trusts it.
    result = RobustnessResult{};
    result.cancelled = true;
  } else if (result.robust) {
    result.triples_examined = internal::TriplesWhenRobust(n);
  }
  if (metrics != nullptr) {
    RecordCheckMetrics(metrics, result, words_scanned, rows_scanned);
  }
  return result;
}

RobustnessResult RobustnessAnalyzer::CheckChange(
    const Allocation& base, TxnId t, IsolationLevel level,
    const CheckOptions& options) const {
  MetricsRegistry* metrics =
      options.metrics != nullptr ? options.metrics : metrics_;
  RobustnessResult result;
  const size_t n = txns_.size();
  if (n < 2) {
    if (metrics != nullptr) metrics->counter("analyzer.checks").Increment();
    return result;
  }
  PhaseTimer scan_timer(metrics, "analyzer.delta_scan");
  WatchdogScope watch(options.watchdog, "analyzer.delta_scan",
                      std::chrono::seconds(30));
  const Allocation alloc = base.With(t, level);
  DenseBitset ssi_mask(n);
  for (TxnId x = 0; x < n; ++x) {
    if (alloc.level(x) == IsolationLevel::kSSI) ssi_mask.Set(x);
  }
  const std::atomic<bool>* cancel = options.cancel;
  auto cancelled = [cancel] {
    return cancel != nullptr && cancel->load(std::memory_order_relaxed);
  };
  const uint64_t m = n - 1;
  uint64_t words_scanned = 0;
  uint64_t rows_scanned = 0;
  uint64_t triples = 0;

  // Row T1 = t: every triple of the row contains t.
  std::optional<CounterexampleChain> chain =
      CheckRow(alloc, ssi_mask, t, cancel, &words_scanned,
               /*reference_inner=*/false);
  ++rows_scanned;
  watch.Heartbeat();
  triples += chain.has_value()
                 ? internal::TriplesUpToWitness(n, t, chain->t2, chain->tm) -
                       t * m * m
                 : m * m;
  // Rows T1 != t see t's level only through (6)-(8), i.e. only when T1 is
  // SSI and only if t's membership in SSI changes.
  const bool ssi_changes = (base.level(t) == IsolationLevel::kSSI) !=
                           (level == IsolationLevel::kSSI);
  if (ssi_changes) {
    for (size_t t1 = ssi_mask.FindFirst();
         t1 < n && !chain.has_value() && !cancelled();
         t1 = ssi_mask.FindNext(t1 + 1)) {
      if (t1 == t) continue;
      chain = CheckRowThrough(alloc, ssi_mask, static_cast<TxnId>(t1), t,
                              &words_scanned);
      ++rows_scanned;
      watch.Heartbeat();
      triples += 2 * m - 1;  // T2 = t (m triples) or Tm = t, T2 != t.
    }
  }

  if (cancelled()) {
    result.cancelled = true;  // Partial scan: no verdict.
  } else {
    result.triples_examined = triples;
    if (chain.has_value()) {
      result.robust = false;
      result.counterexample = std::move(chain);
    }
  }
  if (metrics != nullptr) {
    RecordCheckMetrics(metrics, result, words_scanned, rows_scanned);
  }
  return result;
}

}  // namespace mvrob
