#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

// Instruments that observe the program from outside: forwarding actors
// registered over replicas and clients, a link filter that always
// delivers, and timings of public calls on inputs captured from the run.
// None of them touches the simulation's clock, randomness or event
// order, so a traced run simulates exactly what an untraced one does.

#include <array>
#include <chrono>
#include <cstdint>
#include <functional>
#include <vector>

#include "crypto/signer.h"
#include "merkle/merkle_tree.h"
#include "sim/actor.h"
#include "storage/batch.h"
#include "storage/partition_map.h"
#include "storage/versioned_store.h"
#include "txn/types.h"

namespace perfbench {

using transedge::Bytes;
using transedge::Key;
namespace crypto = transedge::crypto;
namespace merkle = transedge::merkle;
namespace sim = transedge::sim;
namespace storage = transedge::storage;

/// Protocol layers, by wire message-type range.
enum class Layer : uint8_t {
  kPipeline,   // 1-4: client reads, commit requests and replies.
  kReadOnly,   // 5-7: snapshot read rounds.
  kConsensus,  // 20-30: both consensus engines.
  kTwoPc,      // 40-42: cross-cluster commit.
  kWatch,      // 70-74: subscriptions and deltas.
  kOther,
};
inline constexpr size_t kNumLayers = 6;
Layer LayerOfType(uint32_t type);

/// Who a forwarding actor stands in front of.
enum class Role : uint8_t { kReplica, kClient, kWatchClient };

/// Host time and traffic per layer, accumulated while `measuring`.
struct TraceCounters {
  /// Replica handler time by the layer of the handled message.
  std::array<double, kNumLayers> replica_ns{};
  double client_ro_ns = 0;  // Client handling snapshot-read replies.
  double client_rw_ns = 0;  // Client handling read and commit replies.
  double watch_client_ns = 0;
  double handler_ns = 0;    // Sum of all of the above.
  double filter_ns = 0;     // Time spent in the link filter itself.
  std::array<uint64_t, kNumLayers> msgs{};
  std::array<uint64_t, kNumLayers> bytes{};
};

class Tracer {
 public:
  bool measuring = false;

  /// The link filter: counts the message and its encoded size, keeps a
  /// few per type for the codec timings, and always delivers.
  bool OnSend(const sim::MessagePtr& msg);

  void OnHandled(Role role, uint32_t type, double ns);

  const TraceCounters& counters() const { return counters_; }
  const std::vector<sim::MessagePtr>& captured() const { return captured_; }

 private:
  TraceCounters counters_;
  std::array<uint32_t, 128> captured_per_type_{};
  std::vector<sim::MessagePtr> captured_;
};

/// Registered over an actor's id: forwards every message unchanged. With
/// a tracer it times the handler (less any link-filter time spent inside
/// it); `after`, if set, runs once the actor has handled the message.
class ForwardingActor : public sim::Actor {
 public:
  using After = std::function<void(const sim::MessagePtr&)>;
  ForwardingActor(sim::Actor* inner, Role role, Tracer* tracer, After after)
      : inner_(inner), role_(role), tracer_(tracer), after_(std::move(after)) {}

  void OnMessage(sim::ActorId from, const sim::MessagePtr& msg) override;

 private:
  sim::Actor* inner_;
  Role role_;
  Tracer* tracer_;
  After after_;
};

/// Host-time cost of public calls, each timed on inputs captured from
/// the run and repeated until the timing covers a few milliseconds.
struct CallTimings {
  double encode_ns_per_kb = 0;
  double decode_ns_per_kb = 0;
  double cert_verify_us = 0;
  double verify_proof_us = 0;
  double prove_us = 0;
  double owner_of_ns = 0;
};

struct CallInputs {
  const std::vector<sim::MessagePtr>* messages = nullptr;
  std::vector<storage::BatchCertificate> certificates;
  const crypto::Verifier* verifier = nullptr;
  size_t required_signatures = 0;
  std::vector<crypto::NodeId> members;
  merkle::MerkleTree::Snapshot snapshot;
  /// Keys present under `snapshot`, with the value and version it holds.
  std::vector<std::pair<Key, storage::VersionedValue>> entries;
  std::vector<Key> owner_keys;
  uint32_t num_partitions = 1;
};

CallTimings TimeCalls(const CallInputs& in);

inline double NanosSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::nano>(
             std::chrono::steady_clock::now() - start)
      .count();
}

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
