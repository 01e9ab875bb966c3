#include "mvcc/recorder.h"

#include <algorithm>
#include <map>
#include <sstream>

#include "common/json.h"
#include "common/string_util.h"

namespace mvrob {

namespace {

StatusOr<AbortReason> ParseAbortReason(std::string_view text) {
  if (text == "none") return AbortReason::kNone;
  if (text == "write_conflict") return AbortReason::kWriteConflict;
  if (text == "ssi_dangerous_structure") {
    return AbortReason::kSsiDangerousStructure;
  }
  if (text == "user") return AbortReason::kUser;
  return Status::InvalidArgument(StrCat("unknown abort reason '", text, "'"));
}

// Session display form "S<id+1>", matching the exported transaction names.
std::string SessionName(SessionId session) {
  return StrCat("S", session + 1);
}

StatusOr<SessionId> ParseSessionName(std::string_view token) {
  if (token.size() < 2 || token[0] != 'S') {
    return Status::InvalidArgument(
        StrCat("expected session 'S<k>', got '", token, "'"));
  }
  StatusOr<uint64_t> id = ParseUint64(token.substr(1));
  if (!id.ok() || *id == 0) {
    return Status::InvalidArgument(
        StrCat("invalid session id in '", token, "'"));
  }
  return static_cast<SessionId>(*id - 1);
}

}  // namespace

ScheduleRecorder::ScheduleRecorder(size_t capacity)
    : capacity_(capacity == 0 ? 1 : capacity) {
  buffer_.reserve(std::min<size_t>(capacity_, 1024));
}

void ScheduleRecorder::OnEvent(const EngineEvent& event) {
  EngineEvent recorded = event;
  recorded.attribution = {};
  std::lock_guard<std::mutex> lock(mu_);
  ++total_;
  if (buffer_.size() < capacity_) {
    buffer_.push_back(recorded);
    return;
  }
  // Ring overwrite: drop the oldest event.
  buffer_[start_] = recorded;
  start_ = (start_ + 1) % capacity_;
}

std::vector<EngineEvent> ScheduleRecorder::Events() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<EngineEvent> events;
  events.reserve(buffer_.size());
  for (size_t i = 0; i < buffer_.size(); ++i) {
    events.push_back(buffer_[(start_ + i) % buffer_.size()]);
  }
  return events;
}

uint64_t ScheduleRecorder::total_recorded() const {
  std::lock_guard<std::mutex> lock(mu_);
  return total_;
}

uint64_t ScheduleRecorder::dropped() const {
  std::lock_guard<std::mutex> lock(mu_);
  return total_ > buffer_.size() ? total_ - buffer_.size() : 0;
}

void ScheduleRecorder::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  buffer_.clear();
  start_ = 0;
  total_ = 0;
}

std::string ScheduleRecorder::ToText(
    const TransactionSet& object_names) const {
  std::vector<EngineEvent> events = Events();
  std::string out = "# mvrob recorded schedule v1\n";
  out += StrCat("# events=", events.size(), " dropped=", dropped(), "\n");
  out += "objects";
  for (size_t o = 0; o < object_names.num_objects(); ++o) {
    out += StrCat(" ", object_names.ObjectName(static_cast<ObjectId>(o)));
  }
  out += "\n";
  for (const EngineEvent& event : events) {
    switch (event.kind) {
      case EngineEventKind::kBegin:
        out += StrCat("begin ", SessionName(event.session), " ",
                      IsolationLevelToString(event.level),
                      " snapshot=", event.version_ts, " step=", event.step,
                      "\n");
        break;
      case EngineEventKind::kRead:
        out += StrCat("read ", SessionName(event.session), " ",
                      object_names.ObjectName(event.object),
                      " value=", event.value, " src=",
                      event.own_write
                          ? std::string("own")
                          : (event.version_writer == kInvalidSessionId
                                 ? std::string("init")
                                 : SessionName(event.version_writer)),
                      " ts=", event.version_ts, " step=", event.step, "\n");
        break;
      case EngineEventKind::kWrite:
        out += StrCat("write ", SessionName(event.session), " ",
                      object_names.ObjectName(event.object),
                      " value=", event.value, " step=", event.step, "\n");
        break;
      case EngineEventKind::kBlocked:
        out += StrCat("blocked ", SessionName(event.session), " ",
                      object_names.ObjectName(event.object),
                      " by=", SessionName(event.version_writer),
                      " step=", event.step, "\n");
        break;
      case EngineEventKind::kCommit:
        out += StrCat("commit ", SessionName(event.session),
                      " ts=", event.commit_ts, " step=", event.step, "\n");
        break;
      case EngineEventKind::kAbort:
        out += StrCat("abort ", SessionName(event.session),
                      " reason=", AbortReasonToString(event.reason),
                      " step=", event.step, "\n");
        break;
    }
  }
  // Version-order trailer: per object, the committed writers in commit
  // order — the <<_s edges of the formal image, for human inspection
  // (the parser skips comments).
  std::map<SessionId, Timestamp> commit_ts;
  for (const EngineEvent& event : events) {
    if (event.kind == EngineEventKind::kCommit) {
      commit_ts[event.session] = event.commit_ts;
    }
  }
  std::map<ObjectId, std::vector<SessionId>> writers;
  for (const EngineEvent& event : events) {
    if (event.kind == EngineEventKind::kWrite &&
        commit_ts.contains(event.session)) {
      writers[event.object].push_back(event.session);
    }
  }
  for (auto& [object, sessions] : writers) {
    std::sort(sessions.begin(), sessions.end(),
              [&](SessionId a, SessionId b) {
                return commit_ts[a] < commit_ts[b];
              });
    out += StrCat("# version-order ", object_names.ObjectName(object), ":");
    for (SessionId id : sessions) out += StrCat(" ", SessionName(id));
    out += "\n";
  }
  return out;
}

std::string ScheduleRecorder::ToChromeTrace(
    const TransactionSet& object_names) const {
  std::vector<EngineEvent> events = Events();
  // Session lifetimes for the per-session spans.
  struct Lifetime {
    uint64_t begin = 0;
    uint64_t end = 0;
    IsolationLevel level = IsolationLevel::kRC;
    bool ended = false;
  };
  std::map<SessionId, Lifetime> lifetimes;
  for (const EngineEvent& event : events) {
    auto [it, inserted] = lifetimes.try_emplace(event.session);
    Lifetime& life = it->second;
    if (inserted || event.kind == EngineEventKind::kBegin) {
      if (event.kind == EngineEventKind::kBegin) life.level = event.level;
      if (inserted) life.begin = event.step;
    }
    life.end = std::max(life.end, event.step);
    if (event.kind == EngineEventKind::kCommit ||
        event.kind == EngineEventKind::kAbort) {
      life.ended = true;
    }
  }

  JsonWriter json;
  json.BeginObject();
  json.Key("displayTimeUnit");
  json.String("ms");
  json.Key("traceEvents");
  json.BeginArray();
  auto emit_common = [&](std::string_view name, std::string_view phase,
                         uint64_t ts, SessionId session) {
    json.Key("name");
    json.String(name);
    json.Key("cat");
    json.String("mvcc");
    json.Key("ph");
    json.String(phase);
    json.Key("ts");
    json.Uint(ts);
    json.Key("pid");
    json.Uint(1);
    json.Key("tid");
    json.Uint(session + 1);
  };
  // Thread-name metadata + lifetime span per session.
  for (const auto& [session, life] : lifetimes) {
    json.BeginObject();
    json.Key("name");
    json.String("thread_name");
    json.Key("ph");
    json.String("M");
    json.Key("pid");
    json.Uint(1);
    json.Key("tid");
    json.Uint(session + 1);
    json.Key("args");
    json.BeginObject();
    json.Key("name");
    json.String(StrCat(SessionName(session), " (",
                       IsolationLevelToString(life.level), ")"));
    json.EndObject();
    json.EndObject();

    json.BeginObject();
    emit_common(StrCat(SessionName(session), " ",
                       IsolationLevelToString(life.level)),
                "X", life.begin, session);
    json.Key("dur");
    json.Uint(life.end - life.begin + 1);
    json.EndObject();
  }
  for (const EngineEvent& event : events) {
    std::string name;
    switch (event.kind) {
      case EngineEventKind::kBegin:
        name = StrCat("begin ", IsolationLevelToString(event.level));
        break;
      case EngineEventKind::kRead:
        name = StrCat("R[", object_names.ObjectName(event.object),
                      "]=", event.value, "@",
                      event.own_write
                          ? std::string("own")
                          : (event.version_writer == kInvalidSessionId
                                 ? std::string("init")
                                 : SessionName(event.version_writer)));
        break;
      case EngineEventKind::kWrite:
        name = StrCat("W[", object_names.ObjectName(event.object),
                      "]=", event.value);
        break;
      case EngineEventKind::kBlocked:
        name = StrCat("BLOCKED[", object_names.ObjectName(event.object),
                      "] by ", SessionName(event.version_writer));
        break;
      case EngineEventKind::kCommit:
        name = StrCat("C ts=", event.commit_ts);
        break;
      case EngineEventKind::kAbort:
        name = StrCat("ABORT ", AbortReasonToString(event.reason));
        break;
    }
    json.BeginObject();
    emit_common(name, "X", event.step, event.session);
    json.Key("dur");
    json.Uint(1);
    json.EndObject();
  }
  json.EndArray();
  json.EndObject();
  return json.str();
}

StatusOr<std::vector<EngineEvent>> ParseRecordedSchedule(
    std::string_view text, const TransactionSet& object_names) {
  std::vector<EngineEvent> events;
  std::istringstream stream{std::string(text)};
  std::string raw_line;
  bool saw_objects = false;
  int line_number = 0;
  while (std::getline(stream, raw_line)) {
    ++line_number;
    std::string_view line = StripWhitespace(raw_line);
    if (line.empty() || line.starts_with("#")) continue;
    std::vector<std::string> tokens(SplitAndTrim(line, ' '));
    auto fail = [&](std::string_view why) {
      return Status::InvalidArgument(
          StrCat("recorded schedule line ", line_number, ": ", why));
    };
    if (tokens[0] == "objects") {
      // The header must agree with the supplied object universe, name by
      // name — object ids in the events are positional.
      if (tokens.size() - 1 != object_names.num_objects()) {
        return fail(StrCat("object universe mismatch: file has ",
                           tokens.size() - 1, ", expected ",
                           object_names.num_objects()));
      }
      for (size_t o = 1; o < tokens.size(); ++o) {
        if (tokens[o] !=
            object_names.ObjectName(static_cast<ObjectId>(o - 1))) {
          return fail(StrCat("object ", o - 1, " is '", tokens[o],
                             "', expected '",
                             object_names.ObjectName(
                                 static_cast<ObjectId>(o - 1)),
                             "'"));
        }
      }
      saw_objects = true;
      continue;
    }
    if (!saw_objects) return fail("missing 'objects' header line");
    if (tokens.size() < 2) return fail("truncated event line");

    EngineEvent event;
    StatusOr<SessionId> session = ParseSessionName(tokens[1]);
    if (!session.ok()) return fail(session.status().message());
    event.session = *session;

    // key=value fields after the positional ones.
    std::map<std::string, std::string> fields;
    size_t positional_end = tokens.size();
    for (size_t i = 2; i < tokens.size(); ++i) {
      size_t eq = tokens[i].find('=');
      if (eq == std::string::npos) continue;
      fields[tokens[i].substr(0, eq)] = tokens[i].substr(eq + 1);
      positional_end = std::min(positional_end, i);
    }
    auto uint_field = [&](const std::string& key,
                          uint64_t* value) -> Status {
      auto it = fields.find(key);
      if (it == fields.end()) {
        return Status::InvalidArgument(StrCat("missing field ", key, "="));
      }
      StatusOr<uint64_t> parsed = ParseUint64(it->second);
      if (!parsed.ok()) return parsed.status();
      *value = *parsed;
      return Status::Ok();
    };
    auto object_field = [&](size_t index) -> StatusOr<ObjectId> {
      if (index >= positional_end || index >= tokens.size()) {
        return Status::InvalidArgument("missing object name");
      }
      ObjectId object = object_names.FindObject(tokens[index]);
      if (object == kInvalidObjectId) {
        return Status::InvalidArgument(
            StrCat("unknown object '", tokens[index], "'"));
      }
      return object;
    };
    Status step = uint_field("step", &event.step);
    if (!step.ok()) return fail(step.message());

    const std::string& kind = tokens[0];
    if (kind == "begin") {
      event.kind = EngineEventKind::kBegin;
      if (tokens.size() < 3) return fail("begin needs a level");
      StatusOr<IsolationLevel> level = ParseIsolationLevel(tokens[2]);
      if (!level.ok()) return fail(level.status().message());
      event.level = *level;
      Status snapshot = uint_field("snapshot", &event.version_ts);
      if (!snapshot.ok()) return fail(snapshot.message());
    } else if (kind == "read") {
      event.kind = EngineEventKind::kRead;
      StatusOr<ObjectId> object = object_field(2);
      if (!object.ok()) return fail(object.status().message());
      event.object = *object;
      auto value = fields.find("value");
      if (value == fields.end()) return fail("missing field value=");
      StatusOr<int64_t> parsed_value = ParseInt64(value->second);
      if (!parsed_value.ok()) return fail(parsed_value.status().message());
      event.value = *parsed_value;
      Status ts = uint_field("ts", &event.version_ts);
      if (!ts.ok()) return fail(ts.message());
      auto src = fields.find("src");
      if (src == fields.end()) return fail("missing field src=");
      if (src->second == "init") {
        event.version_writer = kInvalidSessionId;
      } else if (src->second == "own") {
        event.version_writer = event.session;
        event.own_write = true;
      } else {
        StatusOr<SessionId> writer = ParseSessionName(src->second);
        if (!writer.ok()) return fail(writer.status().message());
        event.version_writer = *writer;
      }
    } else if (kind == "write") {
      event.kind = EngineEventKind::kWrite;
      StatusOr<ObjectId> object = object_field(2);
      if (!object.ok()) return fail(object.status().message());
      event.object = *object;
      auto value = fields.find("value");
      if (value == fields.end()) return fail("missing field value=");
      StatusOr<int64_t> parsed_value = ParseInt64(value->second);
      if (!parsed_value.ok()) return fail(parsed_value.status().message());
      event.value = *parsed_value;
    } else if (kind == "blocked") {
      event.kind = EngineEventKind::kBlocked;
      StatusOr<ObjectId> object = object_field(2);
      if (!object.ok()) return fail(object.status().message());
      event.object = *object;
      auto by = fields.find("by");
      if (by == fields.end()) return fail("missing field by=");
      StatusOr<SessionId> blocker = ParseSessionName(by->second);
      if (!blocker.ok()) return fail(blocker.status().message());
      event.version_writer = *blocker;
    } else if (kind == "commit") {
      event.kind = EngineEventKind::kCommit;
      Status ts = uint_field("ts", &event.commit_ts);
      if (!ts.ok()) return fail(ts.message());
    } else if (kind == "abort") {
      event.kind = EngineEventKind::kAbort;
      auto reason = fields.find("reason");
      if (reason == fields.end()) return fail("missing field reason=");
      StatusOr<AbortReason> parsed = ParseAbortReason(reason->second);
      if (!parsed.ok()) return fail(parsed.status().message());
      event.reason = *parsed;
    } else {
      return fail(StrCat("unknown event kind '", kind, "'"));
    }
    events.push_back(event);
  }
  return events;
}

StatusOr<ExportedRun> BuildRunFromRecording(
    const std::vector<EngineEvent>& events,
    const TransactionSet& object_names) {
  std::vector<SessionRecord> sessions;
  auto session_of = [&](const EngineEvent& event) -> StatusOr<SessionRecord*> {
    if (event.session >= sessions.size()) {
      return Status::InvalidArgument(
          StrCat("event for session S", event.session + 1,
                 " before its begin — truncated recording?"));
    }
    SessionRecord* record = &sessions[event.session];
    if (record->state != TxnState::kActive) {
      return Status::InvalidArgument(
          StrCat("event for finished session S", event.session + 1));
    }
    return record;
  };
  for (const EngineEvent& event : events) {
    switch (event.kind) {
      case EngineEventKind::kBegin: {
        if (event.session != sessions.size()) {
          return Status::InvalidArgument(
              StrCat("begin of S", event.session + 1, " out of order (",
                     sessions.size(), " sessions so far)"));
        }
        SessionRecord record;
        record.level = event.level;
        record.snapshot_ts = event.version_ts;
        sessions.push_back(std::move(record));
        break;
      }
      case EngineEventKind::kRead: {
        StatusOr<SessionRecord*> record = session_of(event);
        if (!record.ok()) return record.status();
        (*record)->reads.push_back(SessionReadRecord{
            event.object, event.version_ts, event.version_writer,
            event.step});
        if ((*record)->first_step == 0) (*record)->first_step = event.step;
        break;
      }
      case EngineEventKind::kWrite: {
        StatusOr<SessionRecord*> record = session_of(event);
        if (!record.ok()) return record.status();
        (*record)->writes.push_back(
            SessionWriteRecord{event.object, event.step});
        (*record)->write_buffer[event.object] = event.value;
        if ((*record)->first_step == 0) (*record)->first_step = event.step;
        break;
      }
      case EngineEventKind::kBlocked:
        break;  // No state change; kept for timeline fidelity only.
      case EngineEventKind::kCommit: {
        StatusOr<SessionRecord*> record = session_of(event);
        if (!record.ok()) return record.status();
        (*record)->state = TxnState::kCommitted;
        (*record)->commit_ts = event.commit_ts;
        (*record)->commit_step = event.step;
        break;
      }
      case EngineEventKind::kAbort: {
        StatusOr<SessionRecord*> record = session_of(event);
        if (!record.ok()) return record.status();
        (*record)->state = TxnState::kAborted;
        (*record)->abort_reason = event.reason;
        break;
      }
    }
  }
  return ExportCommittedSessions(sessions, object_names);
}

}  // namespace mvrob
