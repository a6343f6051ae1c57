#ifndef PERFBENCH_CHECKS_H_
#define PERFBENCH_CHECKS_H_

// Output checks computed apart from the program: they see only what the
// clients were told (read results, commit outcomes, watch caches) and the
// replicas' final stores, never the program's own bookkeeping.

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "txn/types.h"

namespace perfbench {

using transedge::Key;

/// Value every preloaded key starts with.
inline const char kInitialTag[] = "t0";

/// Every tag a writer put into a write set, with the outcome its client
/// saw. A tag is unique to one write attempt on one group.
class TagLedger {
 public:
  enum class Outcome { kPending, kCommitted, kAborted };

  void Issued(const std::string& tag, uint32_t group);
  void Resolved(const std::string& tag, bool committed);

  /// Null when the tag was never issued.
  const std::pair<uint32_t, Outcome>* Find(const std::string& tag) const;

 private:
  std::map<std::string, std::pair<uint32_t, Outcome>> tags_;
};

/// What one snapshot read returned for the keys of `group` (nullopt for a
/// key the result did not carry or reported absent).
struct SnapshotRead {
  uint32_t group = 0;
  std::vector<std::optional<std::string>> tags;
};

enum class SnapshotVerdict {
  kConsistent,  // One tag on every key, initial or from a non-aborted write.
  kTorn,        // Every tag valid on its own, but not one tag on all keys.
  kInvalid,     // A missing key, an unknown tag, a tag of another group,
                // or a tag whose writer saw an abort.
};

/// Checks one snapshot read against the ledger as it stands when the
/// writers have all resolved.
SnapshotVerdict CheckSnapshot(const SnapshotRead& read,
                              const TagLedger& ledger);

/// One committed read-write transaction on a group, as its client saw it:
/// the tags its read phase returned on the group's keys, and the tag it
/// wrote to all of them.
struct CommittedWrite {
  uint32_t group = 0;
  std::vector<std::optional<std::string>> read_tags;
  std::string wrote;
};

struct ChainReport {
  std::vector<std::string> violations;
  /// group -> tag at the end of its chain (groups with no commit are
  /// absent: they still hold kInitialTag).
  std::map<uint32_t, std::string> last_tag;
};

/// Per group, the committed writes must form one chain from kInitialTag:
/// each write read a single tag on all keys, no two writes read the same
/// tag (no lost update), every write is reachable from the initial tag,
/// and the number of links equals `commits_counted`, the commits the
/// clients counted.
ChainReport CheckChains(const std::vector<CommittedWrite>& writes,
                        uint64_t commits_counted);

/// Watch stream checks: per watcher and key, observed write sequence
/// numbers never go back; after draining, each cache holds the last
/// committed sequence of every hot key.
class WatchChecker {
 public:
  /// Records that `watcher`'s cache now holds write `seq` of `key`. True
  /// when that is newer than what it held before (or the first write
  /// seen); a write older than one it held is recorded as a violation.
  bool Observe(uint32_t watcher, const Key& key, uint64_t seq);

  /// Compares one watcher's final cache (key -> sequence it holds, absent
  /// when the cache lacks the key) with the last committed sequence of
  /// each key.
  void CheckFinal(uint32_t watcher,
                  const std::map<Key, std::optional<uint64_t>>& cache,
                  const std::map<Key, uint64_t>& last_committed);

  const std::vector<std::string>& violations() const { return violations_; }

 private:
  std::map<std::pair<uint32_t, Key>, uint64_t> seen_;
  std::vector<std::string> violations_;
};

/// Sequence number of a hot-key write tag ("w<seq>"); 0 for kInitialTag,
/// nullopt for anything else.
std::optional<uint64_t> HotSeqOf(const std::string& tag);
std::string HotTag(uint64_t seq);

/// Feeds each checker a fabricated violation (a torn and an aborted-tag
/// snapshot, a lost update, a regressed and a stale watch cache) and a
/// clean input. Returns the failures: empty when every checker rejects
/// what it must and accepts what it must.
std::vector<std::string> CheckerSelfTest();

}  // namespace perfbench

#endif  // PERFBENCH_CHECKS_H_
