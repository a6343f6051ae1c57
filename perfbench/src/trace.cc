#include "trace.h"

#include "wire/serialize.h"

namespace perfbench {

namespace wire = transedge::wire;

namespace {

using Clock = std::chrono::steady_clock;

/// Messages of one type kept for the codec timings.
constexpr uint32_t kCapturePerType = 32;
/// Each call is repeated until its timing covers at least this long.
constexpr double kMinTimedNs = 20e6;

/// Runs `pass` (one sweep over the inputs, returning how many calls it
/// made) until kMinTimedNs has elapsed; returns nanoseconds per call.
template <typename Pass>
double NanosPerCall(Pass pass) {
  uint64_t calls = 0;
  auto start = Clock::now();
  double elapsed = 0;
  do {
    calls += pass();
    elapsed = NanosSince(start);
  } while (elapsed < kMinTimedNs && calls > 0);
  return calls > 0 ? elapsed / static_cast<double>(calls) : 0;
}

}  // namespace

Layer LayerOfType(uint32_t type) {
  if (type >= 1 && type <= 4) return Layer::kPipeline;
  if (type >= 5 && type <= 7) return Layer::kReadOnly;
  if (type >= 20 && type <= 30) return Layer::kConsensus;
  if (type >= 40 && type <= 42) return Layer::kTwoPc;
  if (type >= 70 && type <= 74) return Layer::kWatch;
  return Layer::kOther;
}

bool Tracer::OnSend(const sim::MessagePtr& msg) {
  if (!measuring) return true;
  auto start = Clock::now();
  size_t layer = static_cast<size_t>(LayerOfType(msg->type()));
  ++counters_.msgs[layer];
  counters_.bytes[layer] += wire::EncodeMessage(*msg).size();
  uint32_t type = msg->type();
  if (type < captured_per_type_.size() &&
      captured_per_type_[type] < kCapturePerType) {
    ++captured_per_type_[type];
    captured_.push_back(msg);
  }
  counters_.filter_ns += NanosSince(start);
  return true;
}

void Tracer::OnHandled(Role role, uint32_t type, double ns) {
  if (!measuring) return;
  counters_.handler_ns += ns;
  switch (role) {
    case Role::kReplica:
      counters_.replica_ns[static_cast<size_t>(LayerOfType(type))] += ns;
      break;
    case Role::kClient:
      if (LayerOfType(type) == Layer::kReadOnly) {
        counters_.client_ro_ns += ns;
      } else {
        counters_.client_rw_ns += ns;
      }
      break;
    case Role::kWatchClient:
      counters_.watch_client_ns += ns;
      break;
  }
}

void ForwardingActor::OnMessage(sim::ActorId from, const sim::MessagePtr& msg) {
  if (tracer_ != nullptr) {
    double filter_before = tracer_->counters().filter_ns;
    auto start = Clock::now();
    inner_->OnMessage(from, msg);
    double ns = NanosSince(start) -
                (tracer_->counters().filter_ns - filter_before);
    tracer_->OnHandled(role_, msg->type(), ns);
  } else {
    inner_->OnMessage(from, msg);
  }
  if (after_) after_(msg);
}

CallTimings TimeCalls(const CallInputs& in) {
  CallTimings t;

  std::vector<Bytes> encoded;
  double kb = 0;
  if (in.messages != nullptr) {
    for (const sim::MessagePtr& msg : *in.messages) {
      encoded.push_back(wire::EncodeMessage(*msg));
      kb += static_cast<double>(encoded.back().size()) / 1024.0;
    }
  }
  if (kb > 0) {
    size_t sink = 0;
    double per_sweep = NanosPerCall([&] {
      for (const sim::MessagePtr& msg : *in.messages) {
        sink += wire::EncodeMessage(*msg).size();
      }
      return uint64_t{1};
    });
    t.encode_ns_per_kb = per_sweep / kb;
    bool decoded_all = true;
    per_sweep = NanosPerCall([&] {
      for (const Bytes& buf : encoded) {
        decoded_all &= wire::DecodeMessage(buf).ok();
      }
      return uint64_t{1};
    });
    t.decode_ns_per_kb = decoded_all ? per_sweep / kb : 0;
    if (sink == 0) t.encode_ns_per_kb = 0;
  }

  if (in.verifier != nullptr && !in.certificates.empty()) {
    bool all_ok = true;
    t.cert_verify_us = NanosPerCall([&] {
      for (const auto& cert : in.certificates) {
        all_ok &= cert.Verify(*in.verifier, in.required_signatures,
                              in.members).ok();
      }
      return static_cast<uint64_t>(in.certificates.size());
    }) / 1e3;
    if (!all_ok) t.cert_verify_us = 0;
  }

  if (in.snapshot.valid() && !in.entries.empty()) {
    std::vector<merkle::MerkleProof> proofs;
    t.prove_us = NanosPerCall([&] {
      proofs.clear();
      for (const auto& [key, vv] : in.entries) {
        auto proof = merkle::MerkleTree::ProveAt(in.snapshot, key);
        if (proof.ok()) proofs.push_back(std::move(proof).value());
      }
      return static_cast<uint64_t>(in.entries.size());
    }) / 1e3;
    crypto::Digest root = in.snapshot.RootDigest();
    bool all_ok = proofs.size() == in.entries.size();
    if (all_ok) {
      t.verify_proof_us = NanosPerCall([&] {
        for (size_t i = 0; i < proofs.size(); ++i) {
          const auto& [key, vv] = in.entries[i];
          all_ok &= merkle::MerkleTree::VerifyProof(proofs[i], key, vv.value,
                                                     vv.version, root)
                        .ok();
        }
        return static_cast<uint64_t>(proofs.size());
      }) / 1e3;
    }
    if (!all_ok) t.prove_us = t.verify_proof_us = 0;
  }

  if (!in.owner_keys.empty()) {
    storage::PartitionMap pmap(in.num_partitions);
    uint64_t sink = 0;
    t.owner_of_ns = NanosPerCall([&] {
      for (const Key& key : in.owner_keys) sink += pmap.OwnerOf(key);
      return static_cast<uint64_t>(in.owner_keys.size());
    });
    // Keeps the calls observable; a partition sum cannot reach this.
    if (sink == UINT64_MAX) t.owner_of_ns = 0;
  }
  return t;
}

}  // namespace perfbench
