// SsiTracker: the retention rule on hand-built registries, and a property
// test of the deterministic engine's SSI verdicts against the slow oracle —
// the exact test over every committed SSI session of the run.
#include <atomic>
#include <deque>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "mvcc/driver.h"
#include "mvcc/observer.h"
#include "mvcc/ssi_tracker.h"
#include "workloads/registry.h"

namespace mvrob {
namespace {

// ---------------------------------------------------------------------------
// Retention rule.

class SsiTrackerTest : public ::testing::Test {
 protected:
  // A committed SSI session with the given first step and commit; the
  // commit timestamp is the commit step, which keeps both orders equal.
  SsiMember Committed(SessionId id, uint64_t first_step,
                      uint64_t commit_step) {
    SessionRecord& record = records_.emplace_back();
    record.level = IsolationLevel::kSSI;
    record.state = TxnState::kCommitted;
    record.first_step = first_step;
    record.commit_step = commit_step;
    record.commit_ts = commit_step;
    return SsiMember{id, &record, commit_step, commit_step};
  }

  static std::vector<SessionId> Ids(const SsiTracker& tracker) {
    std::vector<SessionId> ids;
    for (const SsiMember& member : tracker.members()) ids.push_back(member.id);
    return ids;
  }

  std::deque<SessionRecord> records_;
};

TEST_F(SsiTrackerTest, OverlapChainPrunesToItsTail) {
  // Member i runs over steps [2i+1, 2i+4), so it overlaps i-1 and i+1: the
  // 1000 members form one overlap component, which a component rule would
  // keep whole because its last member commits after m.
  constexpr SessionId kChain = 1000;
  SsiTracker tracker;
  for (SessionId i = 0; i < kChain; ++i) {
    ASSERT_FALSE(tracker.TryCommit(Committed(i, 2 * i + 1, 2 * i + 4)).found);
  }
  ASSERT_EQ(tracker.size(), kChain);
  const uint64_t m = 2 * kChain + 1;
  ASSERT_GT(tracker.members().back().commit_step, m);
  tracker.Prune(m);
  EXPECT_LE(tracker.size(), 3u);
  EXPECT_EQ(Ids(tracker), (std::vector<SessionId>{kChain - 2, kChain - 1}));
}

TEST_F(SsiTrackerTest, MemberTwoHopsFromActiveSessionSurvives) {
  // The active session A (first step 10 = m) overlaps y, and y overlaps x,
  // which committed at step 9 <= m. With y -> x and A -> y
  // rw-antidependencies and x committing first, A's commit completes the
  // structure A -> y -> x, so x must survive the prune; z overlaps only x
  // and is dropped.
  constexpr ObjectId kO1 = 0;
  constexpr ObjectId kO2 = 1;
  SsiTracker tracker;
  const SsiMember z = Committed(0, 1, 7);
  const SsiMember x = Committed(1, 2, 9);
  records_[1].write_buffer[kO2] = 1;
  const SsiMember y = Committed(3, 8, 12);
  records_[2].reads.push_back({kO2, 0, kInvalidSessionId, 8});
  records_[2].write_buffer[kO1] = 2;
  for (const SsiMember& member : {z, x, y}) {
    ASSERT_FALSE(tracker.TryCommit(member).found);
  }

  tracker.Prune(/*m=*/10);
  EXPECT_EQ(Ids(tracker), (std::vector<SessionId>{1, 3}));

  SessionRecord& active = records_.emplace_back();
  active.level = IsolationLevel::kSSI;
  active.first_step = 10;
  active.reads.push_back({kO1, 0, kInvalidSessionId, 10});
  const SsiConflictDetail detail =
      tracker.TryCommit(SsiMember{2, &active, 20, 20});
  ASSERT_TRUE(detail.found);
  EXPECT_EQ(detail.peer, 3u);
  EXPECT_EQ(detail.object, kO1);
  EXPECT_EQ(detail.version_ts, 0u);
}

TEST_F(SsiTrackerTest, RefusedCandidateLeavesRegistryUnchanged) {
  // Write skew: x reads o1 and writes o2, the candidate (id 1, between x
  // and y) reads o2 and writes o1, y overlaps both. The candidate's commit
  // is refused and the registry keeps exactly x and y, in id order.
  SsiTracker tracker;
  const SsiMember x = Committed(0, 1, 10);
  records_[0].reads.push_back({0, 0, kInvalidSessionId, 1});
  records_[0].write_buffer[1] = 1;
  const SsiMember y = Committed(2, 3, 11);
  ASSERT_FALSE(tracker.TryCommit(x).found);
  ASSERT_FALSE(tracker.TryCommit(y).found);

  const SsiMember candidate = Committed(1, 2, 12);
  records_[2].reads.push_back({1, 0, kInvalidSessionId, 2});
  records_[2].write_buffer[0] = 2;
  EXPECT_TRUE(tracker.TryCommit(candidate).found);
  EXPECT_EQ(Ids(tracker), (std::vector<SessionId>{0, 2}));
}

// ---------------------------------------------------------------------------
// Oracle property test.

// The oracle's member list: every committed SSI session of `sessions` and
// the candidate with its hypothetical commit, in session-id order — the
// list the deterministic engine rebuilt from all sessions on every SSI
// commit before SsiTracker kept its own.
std::vector<SsiMember> OracleMembers(
    const std::deque<SessionRecord>& sessions, SessionId candidate,
    Timestamp candidate_commit_ts, uint64_t candidate_commit_step) {
  std::vector<SsiMember> members;
  for (SessionId id = 0; id < sessions.size(); ++id) {
    const SessionRecord& record = sessions[id];
    if (record.level != IsolationLevel::kSSI) continue;
    if (id == candidate) {
      members.push_back(
          SsiMember{id, &record, candidate_commit_ts, candidate_commit_step});
    } else if (record.state == TxnState::kCommitted) {
      members.push_back(
          SsiMember{id, &record, record.commit_ts, record.commit_step});
    }
  }
  return members;
}

// Rebuilds every session of a deterministic engine run from its event
// stream alone, and checks each SSI commit verdict and abort attribution
// against FindDangerousStructure over all committed SSI sessions. Sets
// `stop` once `target` SSI sessions have committed.
class SsiOracle final : public EngineObserver {
 public:
  SsiOracle(uint64_t target, std::atomic<bool>* stop)
      : target_(target), stop_(stop) {}

  void OnEvent(const EngineEvent& event) override {
    if (event.kind == EngineEventKind::kBegin) {
      ASSERT_EQ(event.session, sessions_.size());
      sessions_.emplace_back().level = event.level;
      return;
    }
    SessionRecord& record = sessions_[event.session];
    switch (event.kind) {
      case EngineEventKind::kRead:
        if (record.first_step == 0) record.first_step = event.step;
        record.reads.push_back({event.object, event.version_ts,
                                event.version_writer, event.step});
        break;
      case EngineEventKind::kWrite:
        if (record.first_step == 0) record.first_step = event.step;
        record.write_buffer[event.object] = event.value;
        break;
      case EngineEventKind::kCommit:
        record.state = TxnState::kCommitted;
        record.commit_ts = event.commit_ts;
        record.commit_step = event.step;
        clock_ = event.commit_ts;
        if (record.level == IsolationLevel::kSSI) CheckCommit(event.session);
        break;
      case EngineEventKind::kAbort:
        record.state = TxnState::kAborted;
        if (event.reason == AbortReason::kSsiDangerousStructure) {
          CheckAbort(event);
        }
        break;
      default:
        break;
    }
  }

  uint64_t ssi_commits() const { return ssi_commits_; }
  uint64_t ssi_aborts() const { return ssi_aborts_; }

 private:
  void CheckCommit(SessionId session) {
    const SessionRecord& record = sessions_[session];
    const SsiConflictDetail oracle = SsiTracker::FindDangerousStructure(
        OracleMembers(sessions_, session, record.commit_ts,
                            record.commit_step),
        session);
    EXPECT_FALSE(oracle.found) << "session " << session << " committed";
    if (++ssi_commits_ >= target_) stop_->store(true);
  }

  void CheckAbort(const EngineEvent& event) {
    // An abort leaves the clock and the step where they were; the refused
    // commit would have taken the next of each.
    const SsiConflictDetail oracle = SsiTracker::FindDangerousStructure(
        OracleMembers(sessions_, event.session, clock_ + 1,
                            event.step + 1),
        event.session);
    ++ssi_aborts_;
    ASSERT_TRUE(oracle.found) << "session " << event.session << " aborted";
    EXPECT_EQ(event.attribution.conflicting_session, oracle.peer);
    EXPECT_EQ(event.attribution.object, oracle.object);
    EXPECT_EQ(event.attribution.version_ts, oracle.version_ts);
  }

  std::deque<SessionRecord> sessions_;
  Timestamp clock_ = 0;
  uint64_t ssi_commits_ = 0;
  uint64_t ssi_aborts_ = 0;
  uint64_t target_;
  std::atomic<bool>* stop_;
};

// SSI commits per run: past kPruneThreshold, so every run prunes.
constexpr uint64_t kSsiCommitsPerRun = 2 * SsiTracker::kPruneThreshold;

// Runs 20 seeds of `spec` against the oracle; returns the SSI aborts it
// checked.
uint64_t CheckAgainstOracle(const std::string& spec) {
  StatusOr<Workload> workload = MakeNamedWorkload(spec);
  EXPECT_TRUE(workload.ok()) << workload.status().ToString();
  if (!workload.ok()) return 0;
  const TransactionSet& programs = workload->txns;
  uint64_t ssi_aborts = 0;
  for (uint64_t seed = 1; seed <= 20; ++seed) {
    // A mixed allocation, half SSI, and a concurrency in [2, 16].
    Rng rng(seed);
    std::vector<IsolationLevel> levels(programs.size());
    for (IsolationLevel& level : levels) {
      level = rng.Bernoulli(0.5)
                  ? IsolationLevel::kSSI
                  : kAllIsolationLevels[rng.Index(2)];
    }
    std::atomic<bool> stop{false};
    SsiOracle oracle(kSsiCommitsPerRun, &stop);
    Engine engine(programs.num_objects(), EngineOptions{.observers = {&oracle}});
    RandomRunOptions options;
    options.concurrency = static_cast<int>(rng.Uniform(2, 16));
    options.seed = seed;
    options.continuous = true;
    options.stop = &stop;
    options.max_steps = 1'000'000;
    RunRandom(engine, programs, Allocation(std::move(levels)), options);
    if (::testing::Test::HasFailure()) {
      ADD_FAILURE() << spec << " seed " << seed;
      break;
    }
    EXPECT_EQ(oracle.ssi_commits(), kSsiCommitsPerRun)
        << spec << " seed " << seed;
    EXPECT_EQ(oracle.ssi_aborts(), engine.stats().aborts_ssi);
    ssi_aborts += oracle.ssi_aborts();
  }
  return ssi_aborts;
}

// SmallBank and TPC-C at these sizes rarely complete a dangerous structure,
// so they check commit verdicts; auction and synthetic check aborts too.
TEST(SsiTrackerOracleTest, SmallBank) { CheckAgainstOracle("smallbank:c=64"); }

TEST(SsiTrackerOracleTest, Auction) {
  EXPECT_GT(CheckAgainstOracle("auction"), 0u);
}

TEST(SsiTrackerOracleTest, Tpcc) { CheckAgainstOracle("tpcc:w=2"); }

TEST(SsiTrackerOracleTest, Synthetic) {
  EXPECT_GT(CheckAgainstOracle("synthetic:n=400"), 0u);
}

}  // namespace
}  // namespace mvrob
