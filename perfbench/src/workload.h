#ifndef PERFBENCH_WORKLOAD_H_
#define PERFBENCH_WORKLOAD_H_

#include <chrono>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "core/system.h"
#include "report.h"
#include "trace.h"

namespace perfbench {

namespace core = transedge::core;

/// One workload: the deployment, its data and its closed-loop clients.
/// Every client waits for a reply before it issues its next operation.
struct Spec {
  std::string name;
  core::SystemConfig config;
  sim::EnvironmentOptions env;

  /// Groups with one key on every cluster (read by snapshot readers,
  /// written whole by distributed writers).
  uint32_t dist_groups = 0;
  /// Groups of kGroupKeys keys that all live on one cluster (written by
  /// local writers), spread evenly over the clusters.
  uint32_t local_groups = 0;
  /// Clients, and closed loops per client, of each kind.
  uint32_t reader_clients = 0, reader_loops = 0;
  uint32_t dist_clients = 0, dist_loops = 0;
  uint32_t local_clients = 0, local_loops = 0;
  /// Hot keys, each with its own single-key writer, and the watch
  /// clients subscribed to the range that holds them.
  uint32_t hot_keys = 0;
  uint32_t watchers = 0;
  /// Preloaded keys outside every group and the watched range.
  uint32_t cold_keys = 0;
  /// The operation whose simulated latency and rate are this workload's
  /// end-to-end metrics; every other client only loads the system.
  enum class Measured { kSnapshotReads, kCommits, kWatchUpdates };
  Measured measured = Measured::kSnapshotReads;
  /// Snapshot readers verify cross-cluster dependencies (Algorithm 2);
  /// the self-test turns this off to show torn reads are caught.
  bool verify_dependencies = true;

  /// Independent simulations per trial, each on its own seed derived from
  /// the run's seed; their samples are pooled. Several short simulations
  /// rather than one long one keep each in its steady regime.
  uint32_t sims = 1;

  /// Simulated phases after genesis: warm-up, the measured window, and a
  /// drain with no new operations before the final checks (the drain runs
  /// once before and once after the last operation is answered).
  sim::Time warmup = 0;
  sim::Time window = 0;
  sim::Time drain = 0;
};

inline constexpr uint32_t kGroupKeys = 5;

/// The named workloads: ro_snapshot, rw_commit, watch_fanout.
std::optional<Spec> MakeSpec(const std::string& name);

/// Keys and the pre-built initial state, shared by every trial of a run.
struct Dataset {
  std::vector<std::vector<Key>> groups;  // dist groups first, then local.
  std::vector<Key> hot;
  core::System::PreloadState preload;
};
Dataset BuildDataset(const Spec& spec);

/// Counters of the whole deployment at one instant.
struct Counters {
  uint64_t events = 0;
  uint64_t msgs = 0;
  core::NodeStats nodes;          // Summed over replicas.
  storage::StorageIoStats io;     // Summed over replicas.
  uint64_t cluster_batches = 0;   // Leaders' log tails, summed.
  uint64_t watch_keys_updated = 0;
};

/// Everything one simulation produced.
struct Trial {
  // Simulated clock, over the measured window: latency samples in
  // simulated microseconds, and counts.
  std::vector<sim::Time> ro, rw_local, rw_dist, watch_lag;
  uint64_t ro_done = 0, ro_round2 = 0, ro_unsatisfied = 0;
  uint64_t local_commits = 0, dist_commits = 0, rw_attempts = 0;
  uint64_t watch_updates = 0;
  uint64_t ops = 0;  // Reads + commits + verified watch updates.
  uint64_t batch_txns = 0;  // Transactions in the window's leader batches.
  Counters begin, end;
  /// Every simulated figure and count of the trial, printed canonically;
  /// two trials of one seed must produce the same string.
  std::string fingerprint;

  // Host clock.
  double setup_done_s = 0;  // Seconds since process start at genesis.
  double host_cpu_s = 0;    // Process CPU time of the measured window.
  double host_wall_ns = 0;  // Wall time of the measured window.

  // Output checks.
  std::vector<std::string> violations;
  uint64_t torn = 0;        // Snapshot reads torn across clusters.
  uint64_t reads_checked = 0;

  // Traced trials only.
  TraceCounters trace;
  CallTimings calls;
};

/// Seed of simulation `index` of a trial on `seed`.
uint64_t SimSeed(uint64_t seed, uint32_t index);

/// Which end-of-simulation output checks to run.
enum class Checks { kNone, kOutputs, kOutputsAndMerkle };

/// Runs one simulation of `spec` on `seed`. `traced` adds the forwarding
/// actors and link filter. kOutputsAndMerkle adds the Merkle rebuild of
/// every replica's store, the costliest check.
Trial RunTrial(const Spec& spec, const Dataset& data, uint64_t seed,
               bool traced, Checks checks,
               std::chrono::steady_clock::time_point process_start);

/// Latency samples (simulated microseconds) and completions of the
/// measured operation of `spec` in one simulation.
struct MeasuredOps {
  std::vector<sim::Time> latency;
  uint64_t done = 0;
};
MeasuredOps MeasuredOf(const Spec& spec, const Trial& t);

/// Peak resident memory of this process so far, in MiB.
double PeakRssMb();

/// End-to-end metrics of the first trial of a run, `spec.sims` untraced
/// simulations (later trials repeat them exactly): the measured
/// operation's p50 and rate pool the simulations, its p99 is the median of
/// theirs. Every workload prints the same names.
MetricSet EndToEndMetrics(const Spec& spec, const std::vector<Trial>& sims,
                          double setup_s, double peak_rss_mb);

/// Per-layer metrics: medians over traced simulations, each paired with
/// its untraced twin.
MetricSet LayerMetrics(const Spec& spec, const std::vector<Trial>& untraced,
                       const std::vector<Trial>& traced);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOAD_H_
