/// \file packet_batch.hpp
/// The unit of work of the dataplane runtime: a bounded batch of packets
/// streaming through the element chain. Batching amortises per-packet
/// overhead (snapshot acquisition, per-element calls, cache misses)
/// across kDefaultBatchCapacity headers — the software analogue of the
/// paper's pipelined initiation interval.
///
/// A batch entry is either a pointer to raw packet bytes (parsed by the
/// Parser element) or a pre-parsed 5-tuple (trace-driven workloads skip
/// the wire format). Per-packet annotations accumulate in PacketMeta as
/// the batch moves down the chain; net/ stays layer-clean by storing
/// the action as the opaque 16-bit token the classifier carries
/// (sdn::ActionSpec::decode gives it meaning).
#pragma once

#include <optional>
#include <vector>

#include "common/types.hpp"
#include "net/five_tuple.hpp"
#include "net/packet.hpp"

namespace pclass::net {

/// Default packets per batch (one cache-friendly burst, the classic
/// software-dataplane sweet spot).
inline constexpr usize kDefaultBatchCapacity = 32;

/// Per-packet chain annotations.
struct PacketMeta {
  std::optional<FiveTuple> tuple;  ///< set on entry or by the Parser
  bool parse_error = false;        ///< raw bytes were not classifiable
  bool resolved = false;           ///< a verdict (hit *or* miss) is set
  bool matched = false;            ///< verdict: some rule matched
  bool from_cache = false;         ///< verdict served by the flow cache
  RuleId rule{};                   ///< matched rule (valid when matched)
  Priority priority = kNoPriority;
  u32 action_token = 0;            ///< classifier action word
  u64 lookup_cycles = 0;           ///< modelled device cycles spent
  u64 memory_accesses = 0;         ///< modelled block-memory reads spent
};

/// A bounded, reusable batch of packets.
class PacketBatch {
 public:
  explicit PacketBatch(usize capacity = kDefaultBatchCapacity)
      : capacity_(capacity == 0 ? 1 : capacity) {
    packets_.reserve(capacity_);
    meta_.reserve(capacity_);
  }

  [[nodiscard]] usize size() const { return meta_.size(); }
  [[nodiscard]] usize capacity() const { return capacity_; }
  [[nodiscard]] bool empty() const { return meta_.empty(); }
  [[nodiscard]] bool full() const { return meta_.size() >= capacity_; }

  /// Append a raw packet. Returns false (batch unchanged) when full.
  bool push(const Packet* p) {
    if (full()) return false;
    packets_.push_back(p);
    meta_.emplace_back();
    return true;
  }

  /// Append a pre-parsed header (no raw bytes behind it).
  bool push(const FiveTuple& t) {
    if (full()) return false;
    packets_.push_back(nullptr);
    PacketMeta m;
    m.tuple = t;
    meta_.push_back(m);
    return true;
  }

  /// Raw bytes of entry \p i; nullptr for pre-parsed entries.
  [[nodiscard]] const Packet* packet(usize i) const { return packets_[i]; }
  [[nodiscard]] PacketMeta& meta(usize i) { return meta_[i]; }
  [[nodiscard]] const PacketMeta& meta(usize i) const { return meta_[i]; }

  /// Reset to an empty batch (capacity and storage retained).
  void clear() {
    packets_.clear();
    meta_.clear();
    rule_version = 0;
  }

  /// Version of the rule-program snapshot that classified this batch
  /// (stamped by the Classifier element; 0 = not yet classified).
  u64 rule_version = 0;

 private:
  usize capacity_;
  std::vector<const Packet*> packets_;
  std::vector<PacketMeta> meta_;
};

}  // namespace pclass::net
