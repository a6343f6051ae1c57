#include "checks.h"

#include <cstdlib>

namespace perfbench {

void TagLedger::Issued(const std::string& tag, uint32_t group) {
  tags_[tag] = {group, Outcome::kPending};
}

void TagLedger::Resolved(const std::string& tag, bool committed) {
  auto it = tags_.find(tag);
  if (it != tags_.end()) {
    it->second.second = committed ? Outcome::kCommitted : Outcome::kAborted;
  }
}

const std::pair<uint32_t, TagLedger::Outcome>* TagLedger::Find(
    const std::string& tag) const {
  auto it = tags_.find(tag);
  return it == tags_.end() ? nullptr : &it->second;
}

SnapshotVerdict CheckSnapshot(const SnapshotRead& read,
                              const TagLedger& ledger) {
  bool one_tag = true;
  for (const auto& tag : read.tags) {
    if (!tag.has_value()) return SnapshotVerdict::kInvalid;
    if (*tag != *read.tags.front()) one_tag = false;
    if (*tag == kInitialTag) continue;
    const auto* entry = ledger.Find(*tag);
    if (entry == nullptr || entry->first != read.group ||
        entry->second == TagLedger::Outcome::kAborted) {
      return SnapshotVerdict::kInvalid;
    }
  }
  return one_tag ? SnapshotVerdict::kConsistent : SnapshotVerdict::kTorn;
}

ChainReport CheckChains(const std::vector<CommittedWrite>& writes,
                        uint64_t commits_counted) {
  ChainReport report;
  // group -> (tag read -> tag written)
  std::map<uint32_t, std::map<std::string, std::string>> next;
  std::map<uint32_t, uint64_t> links;
  for (const CommittedWrite& w : writes) {
    ++links[w.group];
    const auto& first = w.read_tags.empty() ? std::nullopt : w.read_tags[0];
    bool single = first.has_value();
    for (const auto& tag : w.read_tags) single = single && tag == first;
    if (!single) {
      report.violations.push_back("group " + std::to_string(w.group) +
                                  ": commit of " + w.wrote +
                                  " read more than one tag");
      continue;
    }
    if (!next[w.group].emplace(*first, w.wrote).second) {
      report.violations.push_back(
          "group " + std::to_string(w.group) + ": lost update, " +
          next[w.group][*first] + " and " + w.wrote + " both read " + *first);
    }
  }
  if (writes.size() != commits_counted) {
    report.violations.push_back(
        "committed writes recorded (" + std::to_string(writes.size()) +
        ") differ from commits counted (" + std::to_string(commits_counted) +
        ")");
  }
  for (const auto& [group, chain] : next) {
    std::string tag = kInitialTag;
    uint64_t walked = 0;
    for (auto it = chain.find(tag); it != chain.end() && walked <= chain.size();
         it = chain.find(tag)) {
      tag = it->second;
      ++walked;
    }
    if (walked != links[group]) {
      report.violations.push_back(
          "group " + std::to_string(group) + ": " + std::to_string(walked) +
          " of " + std::to_string(links[group]) +
          " commits chain from the initial tag");
    }
    report.last_tag[group] = tag;
  }
  return report;
}

bool WatchChecker::Observe(uint32_t watcher, const Key& key, uint64_t seq) {
  auto [it, inserted] = seen_.emplace(std::make_pair(watcher, key), seq);
  if (inserted) return true;
  if (seq == it->second) return false;
  if (seq > it->second) {
    it->second = seq;
    return true;
  }
  violations_.push_back("watcher " + std::to_string(watcher) + " key " + key +
                        " went back from write " + std::to_string(it->second) +
                        " to " + std::to_string(seq));
  return false;
}

void WatchChecker::CheckFinal(
    uint32_t watcher, const std::map<Key, std::optional<uint64_t>>& cache,
    const std::map<Key, uint64_t>& last_committed) {
  for (const auto& [key, seq] : last_committed) {
    auto it = cache.find(key);
    if (it == cache.end() || it->second != seq) {
      std::string held = it == cache.end() || !it->second.has_value()
                             ? std::string("nothing")
                             : "write " + std::to_string(*it->second);
      violations_.push_back("watcher " + std::to_string(watcher) + " key " +
                            key + " holds " + held + ", last committed is " +
                            std::to_string(seq));
    }
  }
}

std::optional<uint64_t> HotSeqOf(const std::string& tag) {
  if (tag == kInitialTag) return 0;
  if (tag.size() < 2 || tag[0] != 'w') return std::nullopt;
  char* end = nullptr;
  uint64_t seq = std::strtoull(tag.c_str() + 1, &end, 10);
  if (end == nullptr || *end != '\0') return std::nullopt;
  return seq;
}

std::string HotTag(uint64_t seq) { return "w" + std::to_string(seq); }

std::vector<std::string> CheckerSelfTest() {
  std::vector<std::string> failures;
  auto expect = [&](bool ok, const char* what) {
    if (!ok) failures.push_back(what);
  };

  TagLedger ledger;
  ledger.Issued("a", 0);
  ledger.Issued("b", 0);
  ledger.Issued("x", 1);
  ledger.Resolved("a", true);
  ledger.Resolved("b", false);
  ledger.Resolved("x", true);
  auto snap = [](uint32_t g, std::vector<std::string> tags) {
    SnapshotRead read;
    read.group = g;
    for (auto& t : tags) read.tags.emplace_back(std::move(t));
    return read;
  };
  expect(CheckSnapshot(snap(0, {"a", "a", "a"}), ledger) ==
             SnapshotVerdict::kConsistent,
         "snapshot checker rejected a consistent read");
  expect(CheckSnapshot(snap(0, {"a", kInitialTag, "a"}), ledger) ==
             SnapshotVerdict::kTorn,
         "snapshot checker accepted a torn read");
  expect(CheckSnapshot(snap(0, {"b", "b", "b"}), ledger) ==
             SnapshotVerdict::kInvalid,
         "snapshot checker accepted an aborted write's tag");
  expect(CheckSnapshot(snap(0, {"x", "x", "x"}), ledger) ==
             SnapshotVerdict::kInvalid,
         "snapshot checker accepted another group's tag");

  auto write = [](uint32_t g, std::string from, std::string to) {
    CommittedWrite w;
    w.group = g;
    w.read_tags = {from, from};
    w.wrote = std::move(to);
    return w;
  };
  std::vector<CommittedWrite> chain = {write(0, kInitialTag, "a"),
                                       write(0, "a", "c")};
  ChainReport clean = CheckChains(chain, 2);
  expect(clean.violations.empty() && clean.last_tag[0] == "c",
         "chain checker rejected a clean chain");
  std::vector<CommittedWrite> lost = chain;
  lost.push_back(write(0, "a", "d"));  // Second writer of the same base.
  expect(!CheckChains(lost, 3).violations.empty(),
         "chain checker accepted a lost update");
  expect(!CheckChains(chain, 3).violations.empty(),
         "chain checker accepted a commit count mismatch");

  WatchChecker watch;
  expect(watch.Observe(0, "k", 3) && watch.Observe(0, "k", 4),
         "watch checker rejected an advancing stream");
  expect(!watch.Observe(0, "k", 2) && watch.violations().size() == 1,
         "watch checker accepted a regression");
  WatchChecker final_check;
  final_check.CheckFinal(0, {{"k", 4}}, {{"k", 4}});
  expect(final_check.violations().empty(),
         "watch checker rejected an up-to-date cache");
  final_check.CheckFinal(1, {{"k", 3}}, {{"k", 4}});
  expect(final_check.violations().size() == 1,
         "watch checker accepted a stale cache");
  return failures;
}

}  // namespace perfbench
