#include "workload.h"

#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <ctime>
#include <deque>
#include <memory>

#include "checks.h"
#include "core/client.h"
#include "core/watch_client.h"
#include "crypto/sha256.h"

namespace perfbench {

namespace {

using Clock = std::chrono::steady_clock;
using transedge::Rng;
using transedge::ToBytes;
using transedge::ToString;
using transedge::WriteOp;

/// The paper's deployment (§5.1): 5 clusters of 7 replicas on PBFT,
/// 15 ms batches, replicas 300 us apart within a site and 1 ms between
/// sites, 150 us jitter, and the cost model the figure benches use.
void PaperTopology(Spec* s) {
  core::SystemConfig& c = s->config;
  c.num_partitions = 5;
  c.f = 2;
  c.consensus_kind = core::ConsensusKind::kPbft;
  c.batch_interval = sim::Millis(15);
  c.max_batch_size = 2000;
  c.merkle_depth = 13;
  c.cost.admit_per_txn = sim::Micros(2);
  c.cost.validate_per_txn = sim::Micros(6);
  c.cost.apply_per_txn = sim::Micros(3);
  c.cost.batch_overhead = sim::Millis(10);
  c.cost.batch_quadratic_ns = 3.0;
  c.cost.ro_serve_per_key = sim::Micros(3);
  // Followers adopt the leader's post-batch tree instead of re-hashing
  // it: host time only, simulated costs are charged identically.
  c.simulate_shared_merkle = true;
  s->env.intra_site_latency = sim::Micros(300);
  s->env.inter_site_latency = sim::Millis(1);
  s->env.latency_jitter = sim::Micros(150);
}

constexpr sim::Time kHotThinkMax = sim::Millis(4);
/// Past this, an unanswered operation is reported as a violation.
constexpr sim::Time kMaxDrain = sim::Seconds(30);

double CpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) / 1e9;
}

std::optional<std::string> TagOf(
    const std::map<Key, std::optional<transedge::Value>>& values,
    const Key& key) {
  auto it = values.find(key);
  if (it == values.end() || !it->second.has_value()) return std::nullopt;
  return ToString(*it->second);
}

/// Issues every client operation of a trial and records what the clients
/// were told. Operations chain through completion callbacks: each loop
/// issues its next operation from the callback of the previous one.
class LoadGenerator {
 public:
  LoadGenerator(const Spec& spec, const Dataset& data, core::System* system,
         uint64_t seed)
      : spec_(spec),
        data_(data),
        system_(system),
        rng_(seed * 0x9e3779b97f4a7c15ULL + 0x7f4a),
        hot_seq_(data.hot.size(), 0),
        hot_issued_(data.hot.size()),
        hot_committed_(data.hot.size(), 0) {}

  bool measuring = false;
  bool stopped = false;

  std::vector<core::Client*> readers, dist_writers, local_writers, hot_writers;
  std::vector<core::WatchClient*> watchers;

  /// Staggers the first operation of every loop over the first 10 ms.
  void Start() {
    sim::Environment& env = system_->env();
    uint32_t slot = 0;
    auto stagger = [&] { return sim::Micros((slot++ * 997) % 10000); };
    for (core::Client* c : readers) {
      env.Schedule(stagger(), [this, c] { Read(c); });
    }
    for (core::Client* c : dist_writers) {
      env.Schedule(stagger(), [this, c] { Write(c, false); });
    }
    for (core::Client* c : local_writers) {
      env.Schedule(stagger(), [this, c] { Write(c, true); });
    }
    for (uint32_t k = 0; k < hot_writers.size(); ++k) {
      env.Schedule(stagger(), [this, k] { HotWrite(k); });
    }
    if (!data_.hot.empty()) {
      for (core::WatchClient* wc : watchers) {
        env.Schedule(stagger(), [this, wc] {
          wc->Watch(data_.hot.front(), data_.hot.back());
        });
      }
    }
  }

  /// Runs after watcher `w` handled `msg`: each hot key whose cached
  /// write advanced is checked for regressions and yields a lag sample.
  void OnWatchMessage(uint32_t w, const sim::MessagePtr& msg) {
    auto type = static_cast<transedge::wire::MessageType>(msg->type());
    if (type != transedge::wire::MessageType::kWatchSubscribeReply &&
        type != transedge::wire::MessageType::kWatchDelta) {
      return;
    }
    const auto& cache = watchers[w]->cache();
    for (uint32_t k = 0; k < data_.hot.size(); ++k) {
      auto it = cache.find(data_.hot[k]);
      if (it == cache.end() || !it->second.found) continue;
      std::optional<uint64_t> seq = HotSeqOf(ToString(it->second.value));
      if (!seq.has_value()) {
        Violation("watcher cache holds a value no writer wrote");
        continue;
      }
      if (!watch_checker_.Observe(w, data_.hot[k], *seq)) continue;
      if (*seq > hot_issued_[k].size()) {
        Violation("watcher cache holds a write not yet issued");
      } else if (measuring && *seq > 0) {
        watch_lag.push_back(system_->env().now() - hot_issued_[k][*seq - 1]);
      }
    }
  }

  /// End-of-trial checks, after the drain.
  void Check(Trial* t, bool rebuild_merkle) {
    for (const SnapshotRead& read : reads_) {
      switch (CheckSnapshot(read, ledger_)) {
        case SnapshotVerdict::kConsistent:
          break;
        case SnapshotVerdict::kTorn:
          ++t->torn;
          break;
        case SnapshotVerdict::kInvalid:
          Violation("snapshot read returned a tag no committed or pending "
                    "write of its group put there");
          break;
      }
    }
    t->reads_checked = reads_.size();
    if (outstanding_ != 0) {
      Violation(std::to_string(outstanding_) +
                " operations still unanswered after the drain");
    }

    // A client runs several loops: count each client once.
    uint64_t counted = 0;
    std::vector<core::Client*> writers = dist_writers;
    writers.insert(writers.end(), local_writers.begin(), local_writers.end());
    std::sort(writers.begin(), writers.end());
    writers.erase(std::unique(writers.begin(), writers.end()), writers.end());
    for (core::Client* c : writers) counted += c->stats().rw_committed;
    ChainReport chains = CheckChains(committed_, counted);
    for (const std::string& v : chains.violations) Violation(v);
    CheckStores(chains, rebuild_merkle);

    std::map<Key, uint64_t> last;
    for (uint32_t k = 0; k < data_.hot.size(); ++k) {
      last[data_.hot[k]] = hot_committed_[k];
    }
    for (uint32_t w = 0; w < watchers.size(); ++w) {
      std::map<Key, std::optional<uint64_t>> cache;
      for (const auto& [key, entry] : watchers[w]->cache()) {
        cache[key] = entry.found ? HotSeqOf(ToString(entry.value))
                                 : std::optional<uint64_t>();
      }
      watch_checker_.CheckFinal(w, cache, last);
    }
    for (const std::string& v : watch_checker_.violations()) Violation(v);
    t->violations = std::move(violations_);
  }

  uint64_t outstanding() const { return outstanding_; }

  // Measured-window tallies.
  std::vector<sim::Time> ro, rw_local, rw_dist, watch_lag;
  uint64_t ro_done = 0, ro_round2 = 0, ro_unsatisfied = 0;
  uint64_t local_commits = 0, dist_commits = 0, rw_attempts = 0;

 private:
  void Violation(std::string what) {
    // The first few are enough to diagnose; the count is what fails.
    if (violations_.size() < 20) violations_.push_back(std::move(what));
    else if (violations_.size() == 20) violations_.push_back("...");
  }

  void Read(core::Client* c) {
    if (stopped) return;
    auto g = static_cast<uint32_t>(rng_.NextBounded(spec_.dist_groups));
    ++outstanding_;
    c->ExecuteReadOnly(data_.groups[g], [this, c, g](core::RoResult r) {
      --outstanding_;
      if (!r.status.ok()) {
        Violation("snapshot read failed: " + r.status.ToString());
      } else {
        SnapshotRead read;
        read.group = g;
        for (const Key& key : data_.groups[g]) {
          read.tags.push_back(TagOf(r.values, key));
        }
        reads_.push_back(std::move(read));
        if (measuring) {
          ro.push_back(r.latency);
          ++ro_done;
          if (r.rounds > 1) ++ro_round2;
          if (r.needed_third_round) ++ro_unsatisfied;
        }
      }
      Read(c);
    });
  }

  void Write(core::Client* c, bool local) {
    if (stopped) return;
    uint32_t g = local ? spec_.dist_groups +
                             static_cast<uint32_t>(
                                 rng_.NextBounded(spec_.local_groups))
                       : static_cast<uint32_t>(
                             rng_.NextBounded(spec_.dist_groups));
    Attempt(c, g, local, system_->env().now());
  }

  /// One attempt at writing a fresh tag to every key of group `g`; an
  /// abort retries the same group, so latency counts from `first`.
  void Attempt(core::Client* c, uint32_t g, bool local, sim::Time first) {
    std::string tag =
        "c" + std::to_string(c->id()) + "." + std::to_string(next_tag_++);
    ledger_.Issued(tag, g);
    if (measuring) ++rw_attempts;
    std::vector<WriteOp> writes;
    for (const Key& key : data_.groups[g]) {
      writes.push_back(WriteOp{key, ToBytes(tag)});
    }
    ++outstanding_;
    c->ExecuteReadWrite(
        data_.groups[g], std::move(writes),
        [this, c, g, local, first, tag](core::RwResult r) {
          --outstanding_;
          ledger_.Resolved(tag, r.committed);
          if (!r.committed) {
            if (r.reason == "client timeout") {
              Violation("read-write transaction timed out");
            }
            if (!stopped) Attempt(c, g, local, first);
            return;
          }
          CommittedWrite w;
          w.group = g;
          for (const Key& key : data_.groups[g]) {
            w.read_tags.push_back(TagOf(r.reads, key));
          }
          w.wrote = tag;
          committed_.push_back(std::move(w));
          if (measuring) {
            sim::Time latency = system_->env().now() - first;
            if (local) {
              rw_local.push_back(latency);
              ++local_commits;
            } else {
              rw_dist.push_back(latency);
              ++dist_commits;
            }
          }
          Write(c, local);
        });
  }

  /// Blind single-key write of the next sequence number to hot key `k`;
  /// each hot key has its own writer, so these never conflict. A writer
  /// thinks for up to kHotThinkMax before its next write, so how many
  /// writes share a batch varies with the seed.
  void HotWrite(uint32_t k) {
    if (stopped) return;
    uint64_t seq = ++hot_seq_[k];
    sim::Time issued = system_->env().now();
    hot_issued_[k].push_back(issued);
    if (measuring) ++rw_attempts;
    ++outstanding_;
    hot_writers[k]->ExecuteReadWrite(
        {}, {WriteOp{data_.hot[k], ToBytes(HotTag(seq))}},
        [this, k, seq, issued](core::RwResult r) {
          --outstanding_;
          if (!r.committed) {
            Violation("blind write to hot key " + data_.hot[k] + " aborted: " +
                      r.reason);
          } else {
            hot_committed_[k] = std::max(hot_committed_[k], seq);
            if (measuring) {
              rw_local.push_back(system_->env().now() - issued);
              ++local_commits;
            }
          }
          system_->env().Schedule(
              static_cast<sim::Time>(rng_.NextBounded(kHotThinkMax + 1)),
              [this, k] { HotWrite(k); });
        });
  }

  /// Every replica's store holds its group's last committed tag, and a
  /// Merkle tree rebuilt from that store matches the replica's own root.
  void CheckStores(const ChainReport& chains, bool rebuild_merkle) {
    const core::SystemConfig& cfg = spec_.config;
    storage::PartitionMap pmap(cfg.num_partitions);
    uint64_t stale = 0;
    for (uint32_t g = 0; g < data_.groups.size(); ++g) {
      auto it = chains.last_tag.find(g);
      const std::string expected = it == chains.last_tag.end() ? kInitialTag
                                                                : it->second;
      for (const Key& key : data_.groups[g]) {
        transedge::PartitionId p = pmap.OwnerOf(key);
        for (uint32_t i = 0; i < cfg.replicas_per_cluster(); ++i) {
          auto got = system_->node(p, i)->store().Get(key);
          if (!got.ok() || ToString(got->value) != expected) ++stale;
        }
      }
    }
    if (stale != 0) {
      Violation(std::to_string(stale) +
                " replica keys do not hold their chain's last tag");
    }
    for (transedge::PartitionId p = 0;
         rebuild_merkle && p < cfg.num_partitions; ++p) {
      for (uint32_t i = 0; i < cfg.replicas_per_cluster(); ++i) {
        const core::TransEdgeNode* node = system_->node(p, i);
        merkle::MerkleTree rebuilt(cfg.merkle_depth);
        node->store().ForEachLatest(
            [&](const Key& key, const transedge::Value& value,
                transedge::BatchId version) {
              rebuilt.Put(key, value, version);
            });
        if (rebuilt.RootDigest() != node->tree().RootDigest()) {
          Violation("replica " + std::to_string(node->id()) +
                    ": Merkle root rebuilt from its store differs from its "
                    "tree's root");
        }
      }
    }
  }

  const Spec& spec_;
  const Dataset& data_;
  core::System* system_;
  Rng rng_;
  uint64_t next_tag_ = 1;
  uint64_t outstanding_ = 0;
  TagLedger ledger_;
  std::vector<SnapshotRead> reads_;
  std::vector<CommittedWrite> committed_;
  std::vector<uint64_t> hot_seq_;
  std::vector<std::vector<sim::Time>> hot_issued_;  // k -> seq-1 -> issue.
  std::vector<uint64_t> hot_committed_;
  WatchChecker watch_checker_;
  std::vector<std::string> violations_;
};

void Add(core::NodeStats* sum, const core::NodeStats& s) {
  sum->local_committed += s.local_committed;
  sum->local_aborted += s.local_aborted;
  sum->dist_committed += s.dist_committed;
  sum->dist_aborted += s.dist_aborted;
  sum->batches_decided += s.batches_decided;
  sum->batches_applied += s.batches_applied;
  sum->ro_round1_served += s.ro_round1_served;
  sum->ro_round2_served += s.ro_round2_served;
  sum->ro_round2_parked += s.ro_round2_parked;
  sum->ro_round2_rejected += s.ro_round2_rejected;
  sum->view_changes += s.view_changes;
  sum->ro_round2_aborted += s.ro_round2_aborted;
  sum->watch_subscribes += s.watch_subscribes;
  sum->watch_deltas_pushed += s.watch_deltas_pushed;
  sum->watch_keys_pushed += s.watch_keys_pushed;
  sum->watch_resubscribe_errors += s.watch_resubscribe_errors;
  sum->consensus_msgs_sent += s.consensus_msgs_sent;
}

void Add(storage::StorageIoStats* sum, const storage::StorageIoStats& s) {
  sum->wal_appends += s.wal_appends;
  sum->wal_bytes += s.wal_bytes;
  sum->wal_syncs += s.wal_syncs;
  sum->pages_written += s.pages_written;
  sum->page_bytes_written += s.page_bytes_written;
  sum->pages_read += s.pages_read;
  sum->file_syncs += s.file_syncs;
  sum->checkpoints += s.checkpoints;
}

Counters Snapshot(core::System* system, const LoadGenerator& load,
                  std::vector<transedge::BatchId>* leader_tails) {
  Counters c;
  c.events = system->env().queue().events_executed();
  c.msgs = system->env().network().messages_sent();
  const core::SystemConfig& cfg = system->config();
  leader_tails->clear();
  for (transedge::PartitionId p = 0; p < cfg.num_partitions; ++p) {
    for (uint32_t i = 0; i < cfg.replicas_per_cluster(); ++i) {
      Add(&c.nodes, system->node(p, i)->stats());
      Add(&c.io, system->node(p, i)->backend().io_stats());
    }
    transedge::BatchId tail = system->leader(p)->log().LastBatchId();
    leader_tails->push_back(tail);
    c.cluster_batches += static_cast<uint64_t>(tail + 1);
  }
  for (core::WatchClient* wc : load.watchers) {
    c.watch_keys_updated += wc->stats().keys_updated;
  }
  return c;
}

void AppendCounters(std::string* out, const Counters& c) {
  const core::NodeStats& n = c.nodes;
  const storage::StorageIoStats& io = c.io;
  for (uint64_t v :
       {c.events, c.msgs, c.cluster_batches, c.watch_keys_updated,
        n.local_committed, n.local_aborted, n.dist_committed, n.dist_aborted,
        n.batches_decided, n.batches_applied, n.ro_round1_served,
        n.ro_round2_served, n.ro_round2_parked, n.ro_round2_rejected,
        n.view_changes, n.ro_round2_aborted, n.watch_subscribes,
        n.watch_deltas_pushed, n.watch_keys_pushed,
        n.watch_resubscribe_errors, n.consensus_msgs_sent, io.wal_appends,
        io.wal_bytes, io.wal_syncs, io.pages_written, io.page_bytes_written,
        io.pages_read, io.file_syncs, io.checkpoints}) {
    *out += std::to_string(v) + ",";
  }
}

void AppendSamples(std::string* out, const std::vector<sim::Time>& samples) {
  transedge::crypto::Sha256 hash;
  for (sim::Time v : samples) {
    hash.Update(reinterpret_cast<const uint8_t*>(&v), sizeof(v));
  }
  *out += std::to_string(samples.size()) + ":" + hash.Finish().ShortHex() + ";";
}

}  // namespace

std::optional<Spec> MakeSpec(const std::string& name) {
  Spec s;
  s.name = name;
  if (name == "ro_snapshot") {
    PaperTopology(&s);
    s.dist_groups = 2000;
    s.reader_clients = 20;
    s.reader_loops = 6;
    // 48 writers make nearly every read take round 2. Under that load the
    // distributed commits themselves drift from run to run (see
    // README.md), so only the reads are measured here.
    s.dist_clients = 12;
    s.dist_loops = 4;
    s.measured = Spec::Measured::kSnapshotReads;
    // Round 2 becomes the rule only after the writers have run a while;
    // the warm-up reaches that regime before measuring.
    s.sims = 6;
    s.warmup = sim::Seconds(2);
    s.window = sim::Seconds(3);
    s.drain = sim::Seconds(1);
  } else if (name == "rw_commit") {
    PaperTopology(&s);
    s.config.storage_kind = storage::StorageKind::kPaged;
    s.config.durability.wal_group_commit = 8;
    s.config.durability.checkpoint_interval = 64;
    s.dist_groups = 4000;
    s.local_groups = 4000;
    // 24 distributed transactions in flight: at 36 and more, distributed
    // commit latency climbs through a run (see README.md).
    s.dist_clients = 12;
    s.dist_loops = 2;
    s.local_clients = 12;
    s.local_loops = 5;
    s.measured = Spec::Measured::kCommits;
    s.sims = 4;
    s.warmup = sim::Seconds(1);
    s.window = sim::Seconds(3);
    s.drain = sim::Seconds(1);
  } else if (name == "watch_fanout") {
    s.config.num_partitions = 1;
    s.config.f = 1;
    s.config.consensus_kind = core::ConsensusKind::kLinearVote;
    s.config.batch_interval = sim::Millis(5);
    s.config.merkle_depth = 13;
    s.env.intra_site_latency = sim::Micros(300);
    s.env.inter_site_latency = sim::Millis(1);
    s.env.latency_jitter = sim::Micros(150);
    s.hot_keys = 16;
    s.watchers = 64;
    s.cold_keys = 8192;
    s.measured = Spec::Measured::kWatchUpdates;
    s.warmup = sim::Millis(500);
    s.window = sim::Seconds(3);
    s.drain = sim::Seconds(1);
  } else {
    return std::nullopt;
  }
  return s;
}

Dataset BuildDataset(const Spec& spec) {
  Dataset d;
  const uint32_t parts = spec.config.num_partitions;
  storage::PartitionMap pmap(parts);
  // Candidate names fill per-cluster pools in order, so group keys are a
  // pure function of the spec.
  auto take = [&](std::vector<std::deque<Key>>* pools, const char* prefix,
                  uint64_t* counter, transedge::PartitionId p) {
    char buf[32];
    while ((*pools)[p].empty()) {
      std::snprintf(buf, sizeof(buf), "%s%08llu", prefix,
                    static_cast<unsigned long long>((*counter)++));
      Key key(buf);
      (*pools)[pmap.OwnerOf(key)].push_back(std::move(key));
    }
    Key key = std::move((*pools)[p].front());
    (*pools)[p].pop_front();
    return key;
  };
  std::vector<std::deque<Key>> dist_pool(parts), local_pool(parts);
  uint64_t dist_counter = 0, local_counter = 0;
  for (uint32_t g = 0; g < spec.dist_groups; ++g) {
    std::vector<Key> group;
    for (uint32_t p = 0; p < parts; ++p) {
      group.push_back(take(&dist_pool, "d", &dist_counter, p));
    }
    d.groups.push_back(std::move(group));
  }
  for (uint32_t g = 0; g < spec.local_groups; ++g) {
    std::vector<Key> group;
    for (uint32_t i = 0; i < kGroupKeys; ++i) {
      group.push_back(take(&local_pool, "l", &local_counter, g % parts));
    }
    d.groups.push_back(std::move(group));
  }
  for (uint32_t k = 0; k < spec.hot_keys; ++k) {
    char buf[16];
    std::snprintf(buf, sizeof(buf), "h%03u", k);
    d.hot.emplace_back(buf);
  }
  std::vector<std::pair<Key, transedge::Value>> initial;
  for (const auto& group : d.groups) {
    for (const Key& key : group) initial.emplace_back(key, ToBytes(kInitialTag));
  }
  for (const Key& key : d.hot) initial.emplace_back(key, ToBytes(kInitialTag));
  for (uint32_t k = 0; k < spec.cold_keys; ++k) {
    char buf[16];
    std::snprintf(buf, sizeof(buf), "c%06u", k);
    initial.emplace_back(buf, ToBytes(kInitialTag));
  }
  d.preload = core::System::BuildPreloadState(parts, spec.config.merkle_depth,
                                              initial);
  return d;
}

Trial RunTrial(const Spec& spec, const Dataset& data, uint64_t seed,
               bool traced, Checks checks, Clock::time_point process_start) {
  Trial t;
  const core::SystemConfig& cfg = spec.config;
  sim::EnvironmentOptions env_opts = spec.env;
  env_opts.seed = seed;
  core::System system(cfg, env_opts);
  sim::Environment& env = system.env();
  Tracer tracer;
  LoadGenerator load(spec, data, &system, seed);

  // Forwarding actors take over the ids they stand in front of; they are
  // registered before any message is sent, so every delivery goes
  // through them.
  std::vector<std::unique_ptr<ForwardingActor>> wrappers;
  auto wrap = [&](transedge::crypto::NodeId id, sim::Actor* actor, Role role,
                  ForwardingActor::After after) {
    if (!traced && !after) return;
    wrappers.push_back(std::make_unique<ForwardingActor>(
        actor, role, traced ? &tracer : nullptr, std::move(after)));
    env.network().Register(id, env.network().site_of(id),
                           wrappers.back().get());
  };
  if (traced) {
    for (transedge::PartitionId p = 0; p < cfg.num_partitions; ++p) {
      for (uint32_t i = 0; i < cfg.replicas_per_cluster(); ++i) {
        core::TransEdgeNode* node = system.node(p, i);
        wrap(node->id(), node, Role::kReplica, nullptr);
      }
    }
    env.network().SetLinkFilter(
        [&tracer](sim::ActorId, sim::ActorId, const sim::MessagePtr& msg) {
          return tracer.OnSend(msg);
        });
  }

  system.Preload(data.preload);
  system.Start();
  env.RunUntil(sim::Millis(15));  // Every cluster certifies genesis.
  t.setup_done_s =
      std::chrono::duration<double>(Clock::now() - process_start).count();

  auto add_clients = [&](uint32_t clients, uint32_t loops,
                         std::vector<core::Client*>* out) {
    for (uint32_t i = 0; i < clients; ++i) {
      core::Client* c = system.AddClient();
      c->set_verify_dependencies(spec.verify_dependencies);
      wrap(c->id(), c, Role::kClient, nullptr);
      for (uint32_t l = 0; l < loops; ++l) out->push_back(c);
    }
  };
  add_clients(spec.reader_clients, spec.reader_loops, &load.readers);
  add_clients(spec.dist_clients, spec.dist_loops, &load.dist_writers);
  add_clients(spec.local_clients, spec.local_loops, &load.local_writers);
  add_clients(static_cast<uint32_t>(data.hot.size()), 1, &load.hot_writers);
  for (uint32_t w = 0; w < spec.watchers; ++w) {
    core::WatchClient* wc = system.AddWatchClient();
    load.watchers.push_back(wc);
    wrap(wc->id(), wc, Role::kWatchClient,
         [&load, w](const sim::MessagePtr& msg) {
           load.OnWatchMessage(w, msg);
         });
  }
  load.Start();

  const sim::Time t0 = env.now() + spec.warmup;
  const sim::Time t1 = t0 + spec.window;
  std::vector<transedge::BatchId> tails_begin, tails_end;
  env.RunUntil(t0);
  t.begin = Snapshot(&system, load, &tails_begin);
  load.measuring = tracer.measuring = true;
  const double cpu_begin = CpuSeconds();
  const auto wall_begin = Clock::now();
  env.RunUntil(t1);
  t.host_wall_ns = NanosSince(wall_begin);
  t.host_cpu_s = CpuSeconds() - cpu_begin;
  load.measuring = tracer.measuring = false;
  t.end = Snapshot(&system, load, &tails_end);
  load.stopped = true;

  for (transedge::PartitionId p = 0; p < cfg.num_partitions; ++p) {
    const auto& log = system.leader(p)->log();
    for (transedge::BatchId b = tails_begin[p] + 1; b <= tails_end[p]; ++b) {
      auto entry = log.Get(b);
      if (entry.ok()) t.batch_txns += (*entry)->batch.TotalTransactions();
    }
  }

  // Drain: no new operations. A distributed commit can take several
  // client timeouts to resolve, so keep going until every operation has
  // its answer, then let the replicas apply what was decided last.
  env.RunUntil(t1 + spec.drain);
  while (load.outstanding() > 0 && env.now() < t1 + kMaxDrain) {
    env.RunUntil(env.now() + sim::Millis(100));
  }
  env.RunUntil(env.now() + spec.drain);

  t.ro = std::move(load.ro);
  t.rw_local = std::move(load.rw_local);
  t.rw_dist = std::move(load.rw_dist);
  t.watch_lag = std::move(load.watch_lag);
  t.ro_done = load.ro_done;
  t.ro_round2 = load.ro_round2;
  t.ro_unsatisfied = load.ro_unsatisfied;
  t.local_commits = load.local_commits;
  t.dist_commits = load.dist_commits;
  t.rw_attempts = load.rw_attempts;
  t.watch_updates = t.end.watch_keys_updated - t.begin.watch_keys_updated;
  t.ops = t.ro_done + t.local_commits + t.dist_commits + t.watch_updates;

  if (checks != Checks::kNone) {
    load.Check(&t, checks == Checks::kOutputsAndMerkle);
  }

  std::string& fp = t.fingerprint;
  for (uint64_t v : {t.ro_done, t.ro_round2, t.ro_unsatisfied, t.local_commits,
                     t.dist_commits, t.rw_attempts, t.watch_updates,
                     t.batch_txns}) {
    fp += std::to_string(v) + ",";
  }
  for (const auto* s : {&t.ro, &t.rw_local, &t.rw_dist, &t.watch_lag}) {
    AppendSamples(&fp, *s);
  }
  AppendCounters(&fp, t.begin);
  AppendCounters(&fp, t.end);
  std::vector<transedge::BatchId> tails_final;
  AppendCounters(&fp, Snapshot(&system, load, &tails_final));
  transedge::crypto::Sha256 roots;
  for (transedge::PartitionId p = 0; p < cfg.num_partitions; ++p) {
    for (uint32_t i = 0; i < cfg.replicas_per_cluster(); ++i) {
      auto root = system.node(p, i)->tree().RootDigest();
      roots.Update(root.bytes.data(), root.bytes.size());
    }
  }
  fp += roots.Finish().ToHex();

  if (traced) {
    t.trace = tracer.counters();
    CallInputs in;
    in.messages = &tracer.captured();
    core::TransEdgeNode* leader = system.leader(0);
    for (transedge::BatchId b = tails_begin[0] + 1;
         b <= tails_end[0] && in.certificates.size() < 64; ++b) {
      auto entry = leader->log().Get(b);
      if (entry.ok()) in.certificates.push_back((*entry)->certificate);
    }
    in.verifier = &system.verifier();
    in.required_signatures = cfg.certificate_size();
    in.members = cfg.ClusterMembers(0);
    in.snapshot = leader->tree().GetSnapshot();
    storage::PartitionMap pmap(cfg.num_partitions);
    for (const auto& group : data.groups) {
      for (const Key& key : group) {
        if (in.owner_keys.size() < 4096) in.owner_keys.push_back(key);
        if (in.entries.size() < 256 && pmap.OwnerOf(key) == 0) {
          auto vv = leader->store().Get(key);
          if (vv.ok()) in.entries.emplace_back(key, *vv);
        }
      }
    }
    for (const Key& key : data.hot) {
      in.owner_keys.push_back(key);
      auto vv = leader->store().Get(key);
      if (vv.ok()) in.entries.emplace_back(key, *vv);
    }
    in.num_partitions = cfg.num_partitions;
    t.calls = TimeCalls(in);
  }
  return t;
}

uint64_t SimSeed(uint64_t seed, uint32_t index) {
  return index == 0 ? seed : seed * 0x9e3779b97f4a7c15ULL + index;
}

MeasuredOps MeasuredOf(const Spec& spec, const Trial& t) {
  MeasuredOps m;
  switch (spec.measured) {
    case Spec::Measured::kSnapshotReads:
      m.latency = t.ro;
      m.done = t.ro_done;
      break;
    case Spec::Measured::kCommits:
      m.latency = t.rw_local;
      m.latency.insert(m.latency.end(), t.rw_dist.begin(), t.rw_dist.end());
      m.done = t.local_commits + t.dist_commits;
      break;
    case Spec::Measured::kWatchUpdates:
      m.latency = t.watch_lag;
      m.done = t.watch_updates;
      break;
  }
  return m;
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

MetricSet EndToEndMetrics(const Spec& spec, const std::vector<Trial>& sims,
                          double setup_s, double peak_rss_mb) {
  const size_t per_trial = std::min<size_t>(spec.sims, sims.size());
  const double window_s = sim::ToSeconds(spec.window) *
                          static_cast<double>(per_trial);
  // The p50 pools the trial's samples. The p99 is taken per simulation,
  // then the median over the trial: now and then one simulation's batch
  // timers align badly and its tail is a fifth longer, which would sway a
  // pooled p99 by the count of such simulations in the trial.
  std::vector<double> pooled_us, p99;
  uint64_t done = 0;
  for (size_t i = 0; i < per_trial; ++i) {
    MeasuredOps ops = MeasuredOf(spec, sims[i]);
    std::vector<double> us(ops.latency.begin(), ops.latency.end());
    p99.push_back(Percentile(us, 99) / 1e3);
    pooled_us.insert(pooled_us.end(), us.begin(), us.end());
    done += ops.done;
  }
  MetricSet m;
  m["sim_p50_ms"] = {Percentile(pooled_us, 50) / 1e3, "ms"};
  m["sim_p99_ms"] = {Median(p99), "ms"};
  m["sim_ops_per_s"] = {static_cast<double>(done) / window_s, "1/s"};
  m["setup_s"] = {setup_s, "s"};
  m["peak_rss_mb"] = {peak_rss_mb, "MB"};
  return m;
}

namespace {

MetricSet LayerMetricsOf(const Spec& spec, const Trial& u, const Trial& t) {
  MetricSet m;
  const TraceCounters& c = t.trace;
  const double window_s = sim::ToSeconds(spec.window);
  const double rpc = spec.config.replicas_per_cluster();
  const double ops = static_cast<double>(t.ops);
  const double reads = static_cast<double>(t.ro_done);
  const double dist = static_cast<double>(t.dist_commits);
  const double commits = static_cast<double>(t.local_commits) + dist;
  const double updates = static_cast<double>(t.watch_updates);
  const double batches =
      static_cast<double>(t.end.cluster_batches - t.begin.cluster_batches);
  const double events = static_cast<double>(t.end.events - t.begin.events);
  const double msgs = static_cast<double>(t.end.msgs - t.begin.msgs);
  auto layer = [](Layer l) { return static_cast<size_t>(l); };
  double bytes = 0;
  for (uint64_t b : c.bytes) bytes += static_cast<double>(b);
  auto io = [&](uint64_t storage::StorageIoStats::*field) {
    return static_cast<double>(t.end.io.*field - t.begin.io.*field);
  };
  auto node = [&](uint64_t core::NodeStats::*field) {
    return static_cast<double>(t.end.nodes.*field - t.begin.nodes.*field);
  };
  const size_t cons = layer(Layer::kConsensus);
  const size_t two_pc = layer(Layer::kTwoPc);
  const size_t ro = layer(Layer::kReadOnly);
  const size_t watch = layer(Layer::kWatch);

  m["sim.events_per_op"] = {Ratio(events, ops), "count"};
  m["sim.msgs_per_op"] = {Ratio(msgs, ops), "count"};
  m["sim.host_ops_per_s"] = {Ratio(ops, u.host_cpu_s), "1/s"};
  m["sim.host_ns_per_event"] = {Ratio(u.host_wall_ns, events), "ns"};
  m["sim.timers_host_us_per_op"] = {
      Ratio(t.host_wall_ns - c.handler_ns - c.filter_ns, ops) / 1e3, "us"};
  m["wire.bytes_per_op"] = {Ratio(bytes, ops), "B"};
  m["wire.encode_ns_per_kb"] = {t.calls.encode_ns_per_kb, "ns"};
  m["wire.decode_ns_per_kb"] = {t.calls.decode_ns_per_kb, "ns"};
  m["crypto.cert_verify_us"] = {t.calls.cert_verify_us, "us"};
  m["merkle.verify_proof_us"] = {t.calls.verify_proof_us, "us"};
  m["merkle.prove_us"] = {t.calls.prove_us, "us"};
  m["storage.owner_of_ns"] = {t.calls.owner_of_ns, "ns"};
  m["storage.wal_syncs_per_batch"] = {
      Ratio(io(&storage::StorageIoStats::wal_syncs), batches * rpc), "count"};
  m["storage.pages_written_per_batch"] = {
      Ratio(io(&storage::StorageIoStats::pages_written), batches * rpc),
      "count"};
  m["storage.wal_bytes_per_txn"] = {
      Ratio(io(&storage::StorageIoStats::wal_bytes) / rpc, commits), "B"};
  m["consensus.msgs_per_batch"] = {
      Ratio(static_cast<double>(c.msgs[cons]), batches), "count"};
  m["consensus.bytes_per_batch"] = {
      Ratio(static_cast<double>(c.bytes[cons]), batches), "B"};
  m["consensus.batches_per_s"] = {batches / window_s, "1/s"};
  m["consensus.host_us_per_batch"] = {Ratio(c.replica_ns[cons] / 1e3, batches),
                                      "us"};
  m["pipeline.txns_per_batch"] = {
      Ratio(static_cast<double>(t.batch_txns), batches), "count"};
  m["pipeline.attempts_per_commit"] = {
      Ratio(static_cast<double>(t.rw_attempts), commits), "count"};
  m["pipeline.host_us_per_txn"] = {
      Ratio(c.replica_ns[layer(Layer::kPipeline)] / 1e3, commits), "us"};
  m["two_pc.msgs_per_dist_txn"] = {
      Ratio(static_cast<double>(c.msgs[two_pc]), dist), "count"};
  m["two_pc.bytes_per_dist_txn"] = {
      Ratio(static_cast<double>(c.bytes[two_pc]), dist), "B"};
  m["two_pc.host_us_per_dist_txn"] = {Ratio(c.replica_ns[two_pc] / 1e3, dist),
                                      "us"};
  m["read_only.round2_per_ro"] = {
      Ratio(static_cast<double>(t.ro_round2), reads), "count"};
  m["read_only.parked_per_ro"] = {
      Ratio(node(&core::NodeStats::ro_round2_parked), reads), "count"};
  m["read_only.unsatisfied_after_last_round_per_ro"] = {
      Ratio(static_cast<double>(t.ro_unsatisfied), reads), "count"};
  m["read_only.msgs_per_ro"] = {Ratio(static_cast<double>(c.msgs[ro]), reads),
                                "count"};
  m["read_only.bytes_per_ro"] = {Ratio(static_cast<double>(c.bytes[ro]), reads),
                                 "B"};
  m["read_only.host_us_per_ro"] = {Ratio(c.replica_ns[ro] / 1e3, reads), "us"};
  m["client.verify_host_us_per_ro"] = {Ratio(c.client_ro_ns / 1e3, reads),
                                       "us"};
  m["client.host_us_per_rw"] = {Ratio(c.client_rw_ns / 1e3, commits), "us"};
  m["watch.deltas_per_batch"] = {
      Ratio(node(&core::NodeStats::watch_deltas_pushed), batches), "count"};
  m["watch.bytes_per_update"] = {
      Ratio(static_cast<double>(c.bytes[watch]), updates), "B"};
  m["watch.client_host_us_per_update"] = {
      Ratio(c.watch_client_ns / 1e3, updates), "us"};
  m["trace.host_overhead_pct"] = {
      (Ratio(t.host_wall_ns, u.host_wall_ns) - 1) * 100, "%"};
  return m;
}

}  // namespace

MetricSet LayerMetrics(const Spec& spec, const std::vector<Trial>& untraced,
                       const std::vector<Trial>& traced) {
  std::map<std::string, std::vector<double>> values;
  MetricSet m;
  for (size_t i = 0; i < traced.size() && i < untraced.size(); ++i) {
    for (const auto& [name, metric] :
         LayerMetricsOf(spec, untraced[i], traced[i])) {
      values[name].push_back(metric.value);
      m[name].unit = metric.unit;
    }
  }
  for (auto& [name, metric] : m) metric.value = Median(values[name]);
  std::vector<double> dist;
  for (size_t i = 0; i < spec.sims && i < untraced.size(); ++i) {
    dist.insert(dist.end(), untraced[i].rw_dist.begin(),
                untraced[i].rw_dist.end());
  }
  m["two_pc.dist_commit_p99_ms"] = {Percentile(dist, 99) / 1e3, "ms"};
  // Torn reads are counted where the output checks ran.
  double torn = 0, checked = 0;
  for (const Trial& t : untraced) {
    torn += static_cast<double>(t.torn);
    checked += static_cast<double>(t.reads_checked);
  }
  m["read_only.torn_per_ro"] = {Ratio(torn, checked), "count"};
  return m;
}

}  // namespace perfbench
