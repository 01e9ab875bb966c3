#ifndef MVROB_MVCC_SSI_TRACKER_H_
#define MVROB_MVCC_SSI_TRACKER_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "mvcc/version_store.h"

namespace mvrob {

struct SessionRecord;

/// Attribution of an SSI abort: the session on the other side of an
/// rw-antidependency adjacent to the aborting candidate in the dangerous
/// structure that refused the commit, and the object carrying that edge.
struct SsiConflictDetail {
  SessionId peer = kInvalidSessionId;
  ObjectId object = kInvalidObjectId;
  /// Commit timestamp of the version the edge's reader observed (0 for a
  /// read of the reader's own buffered write).
  Timestamp version_ts = 0;
  /// The verdict: committing the candidate completes a dangerous structure.
  bool found = false;
};

/// A session as the SSI test sees it: its record with the commit timestamp
/// and step it has — or, for the committing candidate, would have.
struct SsiMember {
  SessionId id = kInvalidSessionId;
  const SessionRecord* record = nullptr;
  Timestamp commit_ts = 0;
  uint64_t commit_step = 0;
};

/// The SSI commit test of both engines, and the committed SSI sessions it
/// runs against.
///
/// Postgres' SSI implementation tracks rw-antidependencies conservatively
/// (per-transaction in/out flags) and may abort on false positives. This
/// tracker instead evaluates the *exact* condition of Definition 2.4 at
/// each SSI commit: committing is refused iff it would complete a dangerous
/// structure T1 -> T2 -> T3 among committed SSI sessions (including the
/// commit-order optimization C3 <= C1, C3 < C2). Exactness matters for the
/// conformance tests: every committed trace must map to a formal schedule
/// allowed under the session allocation — no more, no less.
///
/// Each engine owns one tracker; the concurrent engine guards it with its
/// commit mutex. Member records must stay at stable addresses and must not
/// change once committed.
class SsiTracker {
 public:
  /// Registry size at which the engines call Prune after an SSI commit.
  static constexpr size_t kPruneThreshold = 128;

  /// Decides the SSI commit of `candidate` (with its hypothetical commit
  /// timestamp and step). The candidate is inserted at its session-id
  /// position and the members are scanned by FindDangerousStructure. It
  /// stays a member iff no structure is found; on a refusal the registry is
  /// left as it was. Keeping id order makes the attribution the one a scan
  /// over all committed SSI sessions in id order reports.
  SsiConflictDetail TryCommit(const SsiMember& candidate);

  /// The retention rule. `m` is a lower bound on the first step of every
  /// active or future SSI session. Let h = min(m, the least first step of
  /// the members with commit_step > m); every member with commit_step <= h
  /// or first_step == 0 is dropped.
  ///
  /// Why that is safe: a dangerous structure completed by a commit contains
  /// the committing session c (Definition 2.4: the commit is the last event
  /// of the three), and every other member is at most two Concurrent() hops
  /// from c. Concurrent() is overlap of [first_step, commit_step), and
  /// every future candidate has first_step >= m. So a one-hop partner y has
  /// commit_step > m: a member now, or a session that commits later with
  /// first_step >= m. A two-hop member x overlaps such a y, so
  /// x.commit_step > y.first_step >= h. A member with first_step == 0 did
  /// no operation and overlaps nothing. Dropped members therefore appear in
  /// no structure a future commit can complete, and TryCommit's verdicts
  /// and attributions are unchanged.
  void Prune(uint64_t m);

  const std::vector<SsiMember>& members() const { return members_; }
  size_t size() const { return members_.size(); }

  /// The exact test over an explicit member list. `members` holds the
  /// committed SSI sessions and the candidate with its hypothetical
  /// commit. `found` is true iff committing the candidate completes a
  /// dangerous structure among them; the other fields then attribute the
  /// first structure in member order. The referenced records must not
  /// change while the check runs.
  static SsiConflictDetail FindDangerousStructure(
      const std::vector<SsiMember>& members, SessionId candidate);

 private:
  /// Committed SSI sessions in session-id order.
  std::vector<SsiMember> members_;
};

}  // namespace mvrob

#endif  // MVROB_MVCC_SSI_TRACKER_H_
