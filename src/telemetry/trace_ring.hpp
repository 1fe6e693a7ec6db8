/// \file trace_ring.hpp
/// A fixed-size per-worker SPSC ring of compact batch-span events, the
/// raw material behind the chrome://tracing export and the mid-run
/// drain path of the StatsSampler.
///
/// Design (hslog-style): the worker publishes one event per classified
/// batch with a handful of relaxed word stores plus two release stores
/// (per-slot sequence, ring head) — no locks, no RMW instructions, no
/// allocation — and *never blocks*: when the reader falls behind the
/// writer simply overwrites the oldest slot. Loss is observable, not
/// silent: the reader accounts every overwritten or torn slot in
/// dropped(), so `pushed() == drained + dropped()` always holds after a
/// final drain.
///
/// Concurrency contract: exactly one writer (the owning worker thread)
/// and at most one reader at a time (the sampler mid-run, the engine at
/// shutdown). Each slot carries a seqlock-style sequence (event index +
/// 1, stored with release order after the payload): the reader validates
/// it before and after copying the words, rejecting torn slots instead
/// of ever surfacing a mixed event.
#pragma once

#include <algorithm>
#include <array>
#include <atomic>
#include <bit>
#include <chrono>
#include <memory>
#include <vector>

#include "common/types.hpp"

namespace pclass::telemetry {

/// Monotonic host-time reference shared by every telemetry record
/// (steady_clock, ns since its epoch — comparable within a process).
[[nodiscard]] inline u64 steady_now_ns() {
  return static_cast<u64>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// One classified batch, as seen by the worker's ClassifierElement:
/// when it started, how long the span took on the host and what the
/// batch looked like. Packs into kWords x 64 bits so a ring slot is a
/// handful of relaxed stores.
struct TraceEvent {
  u64 t_start_ns = 0;   ///< steady_now_ns() at batch start
  u64 duration_ns = 0;  ///< host ns for the classifier span
  u32 worker = 0;
  u32 packets = 0;  ///< batch size entering the classifier
  u32 lookups = 0;  ///< full 4-phase lookups (cache misses)
  u64 snapshot_version = 0;

  static constexpr usize kWords = 4;

  [[nodiscard]] std::array<u64, kWords> pack() const {
    std::array<u64, kWords> w{};
    w[0] = t_start_ns;
    w[1] = duration_ns;
    w[2] = (u64{worker} & 0xFFFF) | ((u64{packets} & 0xFFFF) << 16) |
           ((u64{lookups} & 0xFFFF) << 32);
    w[3] = snapshot_version;
    return w;
  }

  [[nodiscard]] static TraceEvent unpack(const std::array<u64, kWords>& w) {
    TraceEvent e;
    e.t_start_ns = w[0];
    e.duration_ns = w[1];
    e.worker = static_cast<u32>(w[2] & 0xFFFF);
    e.packets = static_cast<u32>((w[2] >> 16) & 0xFFFF);
    e.lookups = static_cast<u32>((w[2] >> 32) & 0xFFFF);
    e.snapshot_version = w[3];
    return e;
  }
};

/// The SPSC overwrite-oldest ring described in the file header.
class TraceRing {
 public:
  static constexpr usize kDefaultCapacity = 4096;

  /// \p capacity is rounded up to a power of two (>= 2).
  explicit TraceRing(usize capacity = kDefaultCapacity) {
    const usize cap = std::bit_ceil(std::max<usize>(capacity, 2));
    mask_ = cap - 1;
    slots_ = std::make_unique<Slot[]>(cap);
  }

  /// Writer side: publish one event. Wait-free; overwrites the oldest
  /// unread slot when the ring is full.
  void push(const TraceEvent& ev) {
    const u64 idx = head_.load(std::memory_order_relaxed);
    Slot& s = slots_[idx & mask_];
    // Invalidate first so a reader mid-copy of the old occupant fails
    // its recheck instead of stitching old and new words together.
    s.seq.store(0, std::memory_order_relaxed);
    const std::array<u64, TraceEvent::kWords> w = ev.pack();
    for (usize k = 0; k < TraceEvent::kWords; ++k) {
      s.words[k].store(w[k], std::memory_order_relaxed);
    }
    s.seq.store(idx + 1, std::memory_order_release);
    head_.store(idx + 1, std::memory_order_release);
  }

  /// Reader side: consume everything published since the last drain.
  /// Appends to \p out (nullptr = count-and-discard); returns the number
  /// of events consumed. Overwritten and torn slots are added to
  /// dropped(). At most one concurrent caller.
  usize drain(std::vector<TraceEvent>* out) {
    const u64 head = head_.load(std::memory_order_acquire);
    u64 from = cursor_;
    const usize cap = mask_ + 1;
    if (head - from > cap) {
      // The writer lapped us: everything below head - cap is gone.
      dropped_.fetch_add(head - from - cap, std::memory_order_relaxed);
      from = head - cap;
    }
    usize n = 0;
    for (u64 idx = from; idx < head; ++idx) {
      Slot& s = slots_[idx & mask_];
      if (s.seq.load(std::memory_order_acquire) != idx + 1) {
        // Already overwritten (or mid-overwrite) by a lapping writer.
        dropped_.fetch_add(1, std::memory_order_relaxed);
        continue;
      }
      std::array<u64, TraceEvent::kWords> w;
      for (usize k = 0; k < TraceEvent::kWords; ++k) {
        w[k] = s.words[k].load(std::memory_order_relaxed);
      }
      std::atomic_thread_fence(std::memory_order_acquire);
      if (s.seq.load(std::memory_order_relaxed) != idx + 1) {
        dropped_.fetch_add(1, std::memory_order_relaxed);  // torn copy
        continue;
      }
      if (out != nullptr) {
        out->push_back(TraceEvent::unpack(w));
      }
      ++n;
    }
    cursor_ = head;
    return n;
  }

  /// Total events ever pushed (writer-side monotonic counter).
  [[nodiscard]] u64 pushed() const {
    return head_.load(std::memory_order_acquire);
  }
  /// Events lost to overwrite or torn reads, as accounted by drain().
  [[nodiscard]] u64 dropped() const {
    return dropped_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] usize capacity() const { return mask_ + 1; }

 private:
  struct Slot {
    std::atomic<u64> seq{0};  ///< event index + 1; 0 = empty/in-flight
    std::array<std::atomic<u64>, TraceEvent::kWords> words{};
  };

  std::unique_ptr<Slot[]> slots_;
  usize mask_ = 0;
  std::atomic<u64> head_{0};  ///< next event index (== pushed count)
  u64 cursor_ = 0;            ///< reader-owned resume position
  std::atomic<u64> dropped_{0};
};

}  // namespace pclass::telemetry
