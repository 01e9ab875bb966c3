#include "mvcc/txn_trace.h"

#include <algorithm>
#include <tuple>
#include <utility>

#include "common/json.h"
#include "common/metrics.h"

namespace mvrob {

namespace {

const char* TraceOpKindToString(TraceOpKind kind) {
  switch (kind) {
    case TraceOpKind::kRead:
      return "read";
    case TraceOpKind::kWrite:
      return "write";
    case TraceOpKind::kBlocked:
      return "blocked";
  }
  return "?";
}

}  // namespace

bool TxnTracer::ConflictKey::operator<(const ConflictKey& other) const {
  return std::tie(victim, conflicting, victim_level, conflicting_level, type,
                  cause) < std::tie(other.victim, other.conflicting,
                                    other.victim_level, other.conflicting_level,
                                    other.type, other.cause);
}

TxnTracer::TxnTracer(TxnTracerOptions options)
    : options_([&options] {
        if (options.sample_every_n == 0) options.sample_every_n = 1;
        if (options.ring_capacity == 0) options.ring_capacity = 1;
        return options;
      }()),
      epoch_(std::chrono::steady_clock::now()) {
  if (options_.metrics != nullptr) {
    MetricsRegistry& metrics = *options_.metrics;
    m_flows_started_ = &metrics.counter("trace.flows_started");
    m_flows_sampled_ = &metrics.counter("trace.flows_sampled");
    m_attempts_ = &metrics.counter("trace.attempts_sampled");
    m_attributed_[static_cast<size_t>(ConflictType::kWW)] =
        &metrics.counter("trace.aborts_attributed{type=ww}");
    m_attributed_[static_cast<size_t>(ConflictType::kWR)] =
        &metrics.counter("trace.aborts_attributed{type=wr}");
    m_attributed_[static_cast<size_t>(ConflictType::kRW)] =
        &metrics.counter("trace.aborts_attributed{type=rw}");
    m_dropped_ = &metrics.counter("trace.completed_dropped");
  }
}

uint64_t TxnTracer::NowUs() const {
  if (options_.clock_us != nullptr) return options_.clock_us();
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now() - epoch_)
          .count());
}

std::string TxnTracer::TxnNameLocked(TxnId txn) const {
  if (txn < txn_names_.size()) return txn_names_[txn];
  return "txn" + std::to_string(txn);
}

std::string TxnTracer::ObjectNameLocked(ObjectId object) const {
  if (object < object_names_.size()) return object_names_[object];
  return "obj" + std::to_string(object);
}

void TxnTracer::BeginRun(const TransactionSet& txns) {
  std::lock_guard<std::mutex> lock(mu_);
  sessions_.clear();
  txn_names_.clear();
  txn_names_.reserve(txns.size());
  for (TxnId t = 0; t < txns.size(); ++t) {
    txn_names_.push_back(txns.txn(t).name());
  }
  object_names_.clear();
  object_names_.reserve(txns.num_objects());
  for (ObjectId o = 0; o < txns.num_objects(); ++o) {
    object_names_.push_back(txns.ObjectName(o));
  }
}

uint64_t TxnTracer::StartFlow(TxnId txn, IsolationLevel level) {
  std::lock_guard<std::mutex> lock(mu_);
  const uint64_t instance = instances_++;
  if (m_flows_started_ != nullptr) m_flows_started_->Increment();
  if (instance % options_.sample_every_n != 0) return 0;
  ++flows_sampled_;
  if (m_flows_sampled_ != nullptr) m_flows_sampled_->Increment();
  const uint64_t flow_id = ++next_flow_id_;
  TxnTrace& trace = live_[flow_id];
  trace.flow_id = flow_id;
  trace.txn = txn;
  trace.name = TxnNameLocked(txn);
  trace.level = level;
  return flow_id;
}

void TxnTracer::BeginAttempt(uint64_t flow_id, SessionId session, TxnId txn,
                             IsolationLevel level) {
  if (session == kInvalidSessionId) return;
  std::lock_guard<std::mutex> lock(mu_);
  if (session >= sessions_.size()) sessions_.resize(session + 1);
  sessions_[session] = SessionInfo{txn, level, flow_id};
  if (flow_id == 0) return;
  auto it = live_.find(flow_id);
  if (it == live_.end()) return;
  TxnTrace& trace = it->second;
  if (trace.attempts.size() >= options_.max_attempts_per_flow) {
    ++trace.attempts_dropped;
    return;
  }
  TxnAttempt attempt;
  attempt.session = session;
  attempt.tid = MetricsRegistry::CurrentThreadId();
  attempt.begin_us = NowUs();
  trace.attempts.push_back(std::move(attempt));
  if (m_attempts_ != nullptr) m_attempts_->Increment();
}

void TxnTracer::EndFlow(uint64_t flow_id, bool committed) {
  if (flow_id == 0) return;
  std::lock_guard<std::mutex> lock(mu_);
  auto it = live_.find(flow_id);
  if (it == live_.end()) return;
  TxnTrace trace = std::move(it->second);
  live_.erase(it);
  trace.committed = committed;
  completed_.push_back(std::move(trace));
  while (completed_.size() > options_.ring_capacity) {
    completed_.pop_front();
    ++completed_dropped_;
    if (m_dropped_ != nullptr) m_dropped_->Increment();
  }
}

TxnAttempt* TxnTracer::SampledAttemptLocked(SessionId session) {
  if (session >= sessions_.size() || sessions_[session].flow == 0) {
    return nullptr;
  }
  auto it = live_.find(sessions_[session].flow);
  if (it == live_.end() || it->second.attempts.empty() ||
      it->second.attempts.back().session != session) {
    return nullptr;
  }
  return &it->second.attempts.back();
}

void TxnTracer::OnEvent(const EngineEvent& event) {
  if (event.kind == EngineEventKind::kBegin) return;  // See BeginAttempt.
  std::lock_guard<std::mutex> lock(mu_);
  if (event.kind == EngineEventKind::kAbort &&
      event.attribution.cause != TraceAbortCause::kUser) {
    AttributeAbortLocked(event.session, event.attribution);
  }
  TxnAttempt* attempt = SampledAttemptLocked(event.session);
  if (attempt == nullptr) return;
  TraceOp op{TraceOpKind::kRead, event.object, kInvalidSessionId};
  switch (event.kind) {
    case EngineEventKind::kBegin:
      return;
    case EngineEventKind::kRead:
      break;
    case EngineEventKind::kWrite:
      op.kind = TraceOpKind::kWrite;
      break;
    case EngineEventKind::kBlocked:
      op.kind = TraceOpKind::kBlocked;
      op.blocker = event.version_writer;
      break;
    case EngineEventKind::kCommit:
    case EngineEventKind::kAbort:
      attempt->end_us = NowUs();
      attempt->committed = event.kind == EngineEventKind::kCommit;
      attempt->abort_reason = event.reason;
      return;
  }
  if (attempt->ops.size() >= options_.max_ops_per_attempt) {
    ++attempt->ops_dropped;
    return;
  }
  attempt->ops.push_back(op);
}

void TxnTracer::AttributeAbortLocked(SessionId victim,
                                     const ConflictAttribution& attribution) {
  ++aborts_attributed_;
  Counter* counter = m_attributed_[static_cast<size_t>(attribution.type)];
  if (counter != nullptr) counter->Increment();

  SessionInfo victim_info;
  if (victim < sessions_.size()) victim_info = sessions_[victim];
  SessionInfo conflicting_info;
  bool conflicting_known = false;
  if (attribution.conflicting_session != kInvalidSessionId &&
      attribution.conflicting_session < sessions_.size()) {
    conflicting_info = sessions_[attribution.conflicting_session];
    conflicting_known = conflicting_info.txn != kInvalidTxnId;
  }

  ConflictKey key;
  key.victim = victim_info.txn == kInvalidTxnId ? "?"
                                                : TxnNameLocked(victim_info.txn);
  key.conflicting =
      conflicting_known ? TxnNameLocked(conflicting_info.txn) : "?";
  key.victim_level = victim_info.level;
  key.conflicting_level = conflicting_info.level;
  key.type = attribution.type;
  key.cause = attribution.cause;
  ++conflicts_[key];

  TxnAttempt* attempt = SampledAttemptLocked(victim);
  if (attempt == nullptr) return;
  attempt->attributed = true;
  attempt->attribution = attribution;
  attempt->conflicting_txn = key.conflicting;
  attempt->conflicting_level = conflicting_info.level;
}

uint64_t TxnTracer::flows_started() const {
  std::lock_guard<std::mutex> lock(mu_);
  return instances_;
}

uint64_t TxnTracer::flows_sampled() const {
  std::lock_guard<std::mutex> lock(mu_);
  return flows_sampled_;
}

uint64_t TxnTracer::aborts_attributed() const {
  std::lock_guard<std::mutex> lock(mu_);
  return aborts_attributed_;
}

std::vector<TxnTrace> TxnTracer::CompletedTraces() const {
  std::lock_guard<std::mutex> lock(mu_);
  return std::vector<TxnTrace>(completed_.begin(), completed_.end());
}

std::vector<TraceConflictRow> TxnTracer::TopConflicts(size_t k) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<TraceConflictRow> rows;
  rows.reserve(conflicts_.size());
  for (const auto& [key, count] : conflicts_) {
    TraceConflictRow row;
    row.victim = key.victim;
    row.victim_level = key.victim_level;
    row.conflicting = key.conflicting;
    row.conflicting_level = key.conflicting_level;
    row.type = key.type;
    row.cause = key.cause;
    row.count = count;
    rows.push_back(std::move(row));
  }
  // Stable: equal counts keep the deterministic map order.
  std::stable_sort(rows.begin(), rows.end(),
                   [](const TraceConflictRow& a, const TraceConflictRow& b) {
                     return a.count > b.count;
                   });
  if (rows.size() > k) rows.resize(k);
  return rows;
}

void TxnTracer::WriteAttemptJsonLocked(const TxnAttempt& attempt,
                                       JsonWriter& json) const {
  json.BeginObject();
  json.Key("session");
  json.Uint(attempt.session);
  json.Key("begin_us");
  json.Uint(attempt.begin_us);
  json.Key("end_us");
  json.Uint(attempt.end_us);
  json.Key("committed");
  json.Bool(attempt.committed);
  json.Key("abort_reason");
  json.String(AbortReasonToString(attempt.abort_reason));
  json.Key("ops");
  json.BeginArray();
  for (const TraceOp& op : attempt.ops) {
    json.BeginObject();
    json.Key("kind");
    json.String(TraceOpKindToString(op.kind));
    json.Key("object");
    json.String(ObjectNameLocked(op.object));
    if (op.kind == TraceOpKind::kBlocked) {
      json.Key("blocker");
      json.Uint(op.blocker);
    }
    json.EndObject();
  }
  json.EndArray();
  if (attempt.ops_dropped > 0) {
    json.Key("ops_dropped");
    json.Uint(attempt.ops_dropped);
  }
  if (attempt.attributed) {
    json.Key("attribution");
    json.BeginObject();
    json.Key("conflicting");
    json.String(attempt.conflicting_txn);
    json.Key("conflicting_session");
    json.Uint(attempt.attribution.conflicting_session);
    json.Key("conflicting_level");
    json.String(IsolationLevelToString(attempt.conflicting_level));
    json.Key("object");
    json.String(ObjectNameLocked(attempt.attribution.object));
    json.Key("version_ts");
    json.Uint(attempt.attribution.version_ts);
    json.Key("type");
    json.String(ConflictTypeToString(attempt.attribution.type));
    json.Key("cause");
    json.String(TraceAbortCauseToString(attempt.attribution.cause));
    json.EndObject();
  }
  json.EndObject();
}

std::string TxnTracer::StatusJson() const {
  std::lock_guard<std::mutex> lock(mu_);
  JsonWriter json;
  json.BeginObject();
  json.Key("version");
  json.Uint(1);
  json.Key("sample_every_n");
  json.Uint(options_.sample_every_n);
  json.Key("ring_capacity");
  json.Uint(options_.ring_capacity);
  json.Key("flows_started");
  json.Uint(instances_);
  json.Key("flows_sampled");
  json.Uint(flows_sampled_);
  json.Key("flows_live");
  json.Uint(live_.size());
  json.Key("aborts_attributed");
  json.Uint(aborts_attributed_);
  json.Key("completed_dropped");
  json.Uint(completed_dropped_);
  json.Key("conflicts");
  json.BeginArray();
  for (const auto& [key, count] : conflicts_) {
    json.BeginObject();
    json.Key("victim");
    json.String(key.victim);
    json.Key("victim_level");
    json.String(IsolationLevelToString(key.victim_level));
    json.Key("conflicting");
    json.String(key.conflicting);
    json.Key("conflicting_level");
    json.String(IsolationLevelToString(key.conflicting_level));
    json.Key("type");
    json.String(ConflictTypeToString(key.type));
    json.Key("cause");
    json.String(TraceAbortCauseToString(key.cause));
    json.Key("count");
    json.Uint(count);
    json.EndObject();
  }
  json.EndArray();
  json.Key("traces");
  json.BeginArray();
  for (const TxnTrace& trace : completed_) {
    json.BeginObject();
    json.Key("flow_id");
    json.Uint(trace.flow_id);
    json.Key("txn");
    json.String(trace.name);
    json.Key("level");
    json.String(IsolationLevelToString(trace.level));
    json.Key("committed");
    json.Bool(trace.committed);
    json.Key("attempts");
    json.BeginArray();
    for (const TxnAttempt& attempt : trace.attempts) {
      WriteAttemptJsonLocked(attempt, json);
    }
    json.EndArray();
    if (trace.attempts_dropped > 0) {
      json.Key("attempts_dropped");
      json.Uint(trace.attempts_dropped);
    }
    json.EndObject();
  }
  json.EndArray();
  json.EndObject();
  return json.str();
}

void TxnTracer::WriteChromeEvents(JsonWriter& json) const {
  std::lock_guard<std::mutex> lock(mu_);
  for (const TxnTrace& trace : completed_) {
    const std::string span_name =
        trace.name + " (" + IsolationLevelToString(trace.level) + ")";
    for (size_t i = 0; i < trace.attempts.size(); ++i) {
      const TxnAttempt& attempt = trace.attempts[i];
      json.BeginObject();
      json.Key("name");
      json.String(span_name);
      json.Key("cat");
      json.String("txn");
      json.Key("ph");
      json.String("X");
      json.Key("ts");
      json.Uint(attempt.begin_us);
      json.Key("dur");
      json.Uint(attempt.end_us - attempt.begin_us);
      json.Key("pid");
      json.Uint(1);
      json.Key("tid");
      json.Uint(attempt.tid);
      json.Key("args");
      json.BeginObject();
      json.Key("flow_id");
      json.Uint(trace.flow_id);
      json.Key("attempt");
      json.Uint(i);
      json.Key("session");
      json.Uint(attempt.session);
      json.Key("committed");
      json.Bool(attempt.committed);
      json.Key("abort_reason");
      json.String(AbortReasonToString(attempt.abort_reason));
      if (attempt.attributed) {
        json.Key("conflicting");
        json.String(attempt.conflicting_txn);
        json.Key("conflict_object");
        json.String(ObjectNameLocked(attempt.attribution.object));
        json.Key("conflict_type");
        json.String(ConflictTypeToString(attempt.attribution.type));
        json.Key("conflict_cause");
        json.String(TraceAbortCauseToString(attempt.attribution.cause));
      }
      json.EndObject();
      json.EndObject();
    }
    // Flow events stitch the retries of one logical txn into a single
    // arrow chain: start at the first attempt's end, step through middle
    // attempts, finish at the last attempt's start.
    if (trace.attempts.size() < 2) continue;
    for (size_t i = 0; i < trace.attempts.size(); ++i) {
      const TxnAttempt& attempt = trace.attempts[i];
      const bool first = i == 0;
      const bool last = i + 1 == trace.attempts.size();
      json.BeginObject();
      json.Key("name");
      json.String("retry");
      json.Key("cat");
      json.String("txn");
      json.Key("ph");
      json.String(first ? "s" : (last ? "f" : "t"));
      if (last) {
        json.Key("bp");
        json.String("e");
      }
      json.Key("id");
      json.Uint(trace.flow_id);
      json.Key("ts");
      json.Uint(first ? attempt.end_us : attempt.begin_us);
      json.Key("pid");
      json.Uint(1);
      json.Key("tid");
      json.Uint(attempt.tid);
      json.EndObject();
    }
  }
}

}  // namespace mvrob
