// Unit tests for the port register file (Table IV semantics) and the
// protocol LUT.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdlib>
#include <iostream>
#include <map>

#include "alg/port_registers.hpp"
#include "alg/protocol_lut.hpp"
#include "common/error.hpp"
#include "common/random.hpp"

using namespace pclass;
using namespace pclass::alg;
using pclass::ruleset::PortRange;
using pclass::ruleset::ProtoMatch;

namespace {
struct PortRig {
  PortRegisterFile regs{"p", {}};
  hw::CommandLog log;
  void add(u16 lo, u16 hi, u16 label) {
    regs.insert(PortRange::make(lo, hi), Label{label}, log);
  }
  std::vector<u16> find(u16 port) {
    std::vector<u16> out;
    hw::CycleRecorder rec;
    for (Label l : regs.lookup(port, &rec)) out.push_back(l.value);
    return out;
  }
};
}  // namespace

TEST(PortRegisters, TableIvExample) {
  // Table IV: A = [0,65535] (range), B = 7812 exact, C = [7810,7820].
  // "for an input packet with a destination port field equal to 7812,
  //  the labels of Port lookup will be ordered as B, C and A."
  PortRig rig;
  rig.add(0, 65535, 0);      // A
  rig.add(7812, 7812, 1);    // B
  rig.add(7810, 7820, 2);    // C
  EXPECT_EQ(rig.find(7812), (std::vector<u16>{1, 2, 0}));  // B, C, A
  EXPECT_EQ(rig.find(7815), (std::vector<u16>{2, 0}));     // C, A
  EXPECT_EQ(rig.find(80), std::vector<u16>{0});            // A only
}

TEST(PortRegisters, ExactBeforeAnyRange) {
  PortRig rig;
  rig.add(100, 100, 5);
  rig.add(99, 101, 6);  // tighter than anything except the exact
  EXPECT_EQ(rig.find(100), (std::vector<u16>{5, 6}));
}

TEST(PortRegisters, TightnessOrderingAmongRanges) {
  PortRig rig;
  rig.add(0, 1000, 1);
  rig.add(400, 600, 2);
  rig.add(450, 550, 3);
  EXPECT_EQ(rig.find(500), (std::vector<u16>{3, 2, 1}));
}

TEST(PortRegisters, LookupCostIsFixed) {
  PortRig rig;
  for (u16 i = 0; i < 50; ++i) {
    rig.add(static_cast<u16>(i * 100), static_cast<u16>(i * 100 + 50), i);
  }
  hw::CycleRecorder rec;
  (void)rig.regs.lookup(123, &rec);
  EXPECT_EQ(rec.cycles(), 2u);           // §V.B: two clock cycles
  EXPECT_EQ(rec.memory_accesses(), 0u);  // registers, not memory
}

TEST(PortRegisters, RemoveFreesSlot) {
  PortRig rig;
  rig.add(80, 80, 1);
  rig.regs.remove(PortRange::exact(80), rig.log);
  EXPECT_TRUE(rig.find(80).empty());
  // Slot reused.
  rig.add(443, 443, 2);
  EXPECT_EQ(rig.regs.registers().used_count(), 1u);
}

TEST(PortRegisters, DuplicateAndUnknownThrow) {
  PortRig rig;
  rig.add(80, 80, 1);
  EXPECT_THROW(rig.regs.insert(PortRange::exact(80), Label{2}, rig.log),
               InternalError);
  EXPECT_THROW(rig.regs.remove(PortRange::exact(81), rig.log),
               InternalError);
}

TEST(PortRegisters, CapacityError) {
  PortRegistersConfig small;
  small.count = 2;
  PortRegisterFile regs("p", small);
  hw::CommandLog log;
  regs.insert(PortRange::exact(1), Label{0}, log);
  regs.insert(PortRange::exact(2), Label{1}, log);
  EXPECT_THROW(regs.insert(PortRange::exact(3), Label{2}, log),
               CapacityError);
}

TEST(PortRegisters, ClearResets) {
  PortRig rig;
  rig.add(80, 80, 1);
  rig.add(0, 65535, 2);
  rig.regs.clear(rig.log);
  EXPECT_TRUE(rig.find(80).empty());
  EXPECT_EQ(rig.regs.range_count(), 0u);
}

TEST(PortRegisters, WildcardAlwaysLast) {
  PortRig rig;
  rig.add(0, 65535, 9);
  rig.add(1024, 65535, 3);
  rig.add(8080, 8080, 4);
  EXPECT_EQ(rig.find(8080), (std::vector<u16>{4, 3, 9}));
}

namespace {

/// Brute-force reference: decode every programmed register word (layout
/// valid(1) lo(16) hi(16) label(7)) and order the ranges containing
/// \p port exact-first, then tightest, then by label value.
std::vector<Label> scan_registers(const hw::RegisterFile& rf, u16 port) {
  struct Hit {
    bool exact;
    u32 width;
    Label label;
  };
  std::vector<Hit> hits;
  for (u32 i = 0; i < rf.used_count(); ++i) {
    hw::WordUnpacker u(rf.reg(i));
    if (u.pull(1) == 0) continue;
    const auto lo = static_cast<u32>(u.pull(16));
    const auto hi = static_cast<u32>(u.pull(16));
    const Label label{static_cast<u16>(u.pull(kPortLabelBits))};
    if (lo <= port && port <= hi) {
      hits.push_back({lo == hi, hi - lo + 1, label});
    }
  }
  std::sort(hits.begin(), hits.end(), [](const Hit& a, const Hit& b) {
    if (a.exact != b.exact) return a.exact;
    if (a.width != b.width) return a.width < b.width;
    return a.label.value < b.label.value;
  });
  std::vector<Label> out;
  for (const Hit& h : hits) out.push_back(h.label);
  return out;
}

/// Every port's lookup() and lookup_first() equal the register scan,
/// and each charges the fixed compare cost only.
void expect_matches_scan(const PortRegisterFile& regs) {
  const unsigned cycles = regs.registers().compare_cycles();
  for (u32 p = 0; p <= 0xFFFF; ++p) {
    const auto port = static_cast<u16>(p);
    const std::vector<Label> want = scan_registers(regs.registers(), port);
    std::array<hw::CycleRecorder, 2> recs;
    ASSERT_TRUE(std::ranges::equal(regs.lookup(port, &recs[0]), want))
        << "port " << p;
    ASSERT_EQ(regs.lookup_first(port, &recs[1]),
              want.empty() ? Label{} : want.front())
        << "port " << p;
    for (const hw::CycleRecorder& rec : recs) {
      ASSERT_EQ(rec.cycles(), cycles) << "port " << p;
      ASSERT_EQ(rec.memory_accesses(), 0u) << "port " << p;
    }
  }
}

}  // namespace

TEST(PortRegisters, CompiledProgramMatchesRegisterScan) {
  PortRegisterFile regs("p", {});
  hw::CommandLog log;
  expect_matches_scan(regs);  // empty bank

  for (const u64 seed : {1u, 2u}) {
    Rng rng(seed);
    std::map<PortRange, Label> live;
    u16 next_label = 0;
    const auto random_range = [&]() -> PortRange {
      switch (rng.below(6)) {
        case 0: return PortRange::wildcard();
        case 1: return PortRange::exact(static_cast<u16>(rng.below(65536)));
        case 2: {  // ends at 65535
          return PortRange::make(static_cast<u16>(rng.below(65536)), 0xFFFF);
        }
        case 3:  // nested in (or overlapping) a live range
          if (!live.empty()) {
            auto it = live.begin();
            std::advance(it, static_cast<long>(rng.below(live.size())));
            const u32 lo = it->first.lo + rng.below(u32{it->first.width()});
            const u32 hi = std::min<u32>(0xFFFF, lo + rng.below(2000));
            return PortRange::make(static_cast<u16>(lo),
                                   static_cast<u16>(hi));
          }
          [[fallthrough]];
        default: {
          const auto lo = static_cast<u16>(rng.below(65536));
          const u32 hi = std::min<u32>(0xFFFF, lo + rng.below(20000));
          return PortRange::make(lo, static_cast<u16>(hi));
        }
      }
    };
    for (int step = 0; step < 40; ++step) {
      if (!live.empty() && (live.size() >= 24 || rng.chance(0.35))) {
        auto it = live.begin();
        std::advance(it, static_cast<long>(rng.below(live.size())));
        regs.remove(it->first, log);
        live.erase(it);
      } else {
        const PortRange r = random_range();
        if (live.contains(r)) continue;
        const Label l{static_cast<u16>(next_label++ % 128)};
        regs.insert(r, l, log);
        live.emplace(r, l);
      }
      expect_matches_scan(regs);
      if (HasFatalFailure()) return;
    }
    // Emptied by remove, then refilled and emptied by clear.
    while (!live.empty()) {
      regs.remove(live.begin()->first, log);
      live.erase(live.begin());
    }
    expect_matches_scan(regs);
    regs.insert(PortRange::make(10, 20), Label{1}, log);
    regs.insert(PortRange::wildcard(), Label{2}, log);
    regs.insert(PortRange::exact(15), Label{3}, log);
    // Bounds at both ends of the port space.
    regs.insert(PortRange::exact(0), Label{4}, log);
    regs.insert(PortRange::exact(0xFFFF), Label{5}, log);
    regs.insert(PortRange::make(40000, 0xFFFE), Label{6}, log);
    expect_matches_scan(regs);
    regs.clear(log);
    expect_matches_scan(regs);
    if (HasFatalFailure()) return;
  }
}

// Seeded sequences of insert, remove and clear: after every write the
// patched interval program equals a rebuild from the register words,
// refcounts included, and lookups agree with the live ranges. Ranges are
// drawn over a few shared bound values (both ends of the port space
// among them), so writes split and merge at bounds other ranges hold;
// labels and register slots are reused as soon as they are freed.
TEST(PortRegisters, PatchedProgramEqualsRebuildAfterEveryWrite) {
  const char* env = std::getenv("PCLASS_FUZZ_SEED");
  const u64 base =
      env != nullptr && *env != '\0' ? std::strtoull(env, nullptr, 0) : 1;
  std::cerr << "[port-patch] seed=" << base
            << " (override via PCLASS_FUZZ_SEED)\n";
  constexpr std::array<u16, 10> kBounds{0,    1,    80,   81,    443,
                                        1023, 1024, 8080, 65534, 65535};
  for (u64 round = 0; round < 8; ++round) {
    Rng rng(base * 1000003 + round);
    PortRegisterFile regs("p", {});
    hw::CommandLog log;
    std::map<PortRange, Label> live;
    std::vector<u16> free_labels;
    for (u16 l = 128; l-- > 0;) free_labels.push_back(l);

    const auto pick = [&]() -> u16 {
      return rng.chance(0.7) ? kBounds[rng.below(kBounds.size())]
                             : static_cast<u16>(rng.below(65536));
    };
    const auto random_range = [&]() -> PortRange {
      switch (rng.below(5)) {
        case 0: return PortRange::wildcard();
        case 1: return PortRange::exact(pick());
        case 2:
          if (!live.empty()) {  // nested in, or overlapping, a live range
            auto it = live.begin();
            std::advance(it, static_cast<long>(rng.below(live.size())));
            const u32 lo = it->first.lo + rng.below(u32{it->first.width()});
            const u32 hi = rng.chance(0.5)
                               ? lo + rng.below(u32{it->first.hi} - lo + 1)
                               : std::max<u32>(lo, pick());
            return PortRange::make(static_cast<u16>(lo),
                                   static_cast<u16>(hi));
          }
          [[fallthrough]];
        default: {
          u16 a = pick(), b = pick();
          if (a > b) std::swap(a, b);
          return PortRange::make(a, b);
        }
      }
    };
    const auto check = [&](const char* what, usize step) {
      ASSERT_TRUE(regs.program_matches_registers())
          << what << " at step " << step << ", round " << round;
      for (int probe = 0; probe < 8; ++probe) {
        const u16 port = pick();
        usize want = 0;
        for (const auto& [r, l] : live) want += r.contains(port) ? 1 : 0;
        ASSERT_EQ(regs.lookup(port, nullptr).size(), want)
            << "port " << port << " after " << what << " at step " << step;
      }
    };
    const auto remove_one = [&](usize step) {
      auto it = live.begin();
      std::advance(it, static_cast<long>(rng.below(live.size())));
      regs.remove(it->first, log);
      free_labels.push_back(it->second.value);
      live.erase(it);
      check("remove", step);
    };

    for (usize step = 0; step < 800; ++step) {
      if (rng.chance(0.004)) {
        regs.clear(log);
        for (const auto& [r, l] : live) free_labels.push_back(l.value);
        live.clear();
        check("clear", step);
      } else if (!live.empty() && (live.size() >= 100 || rng.chance(0.4))) {
        remove_one(step);
      } else {
        const PortRange r = random_range();
        if (live.contains(r)) continue;
        const Label l{free_labels.back()};
        free_labels.pop_back();
        regs.insert(r, l, log);
        live.emplace(r, l);
        check("insert", step);
      }
      if (HasFatalFailure()) return;
    }
    while (!live.empty()) {  // down to the empty program
      remove_one(800);
      if (HasFatalFailure()) return;
    }
    EXPECT_EQ(regs.lookup(0, nullptr).size(), 0u);
  }
}

// ---- Protocol LUT ----

namespace {
struct ProtoRig {
  ProtocolLut lut{"pr"};
  hw::CommandLog log;
  std::vector<u16> find(u8 proto) {
    hw::CycleRecorder rec;
    const ProtoLabels labels = lut.lookup(proto, &rec);
    std::vector<u16> out;
    for (Label l : labels.span()) out.push_back(l.value);
    return out;
  }
};
}  // namespace

TEST(ProtocolLut, ExactThenWildcardOrder) {
  ProtoRig rig;
  rig.lut.insert(ProtoMatch::exact(6), Label{1}, rig.log);
  rig.lut.insert(ProtoMatch::any(), Label{2}, rig.log);
  // §III.C.1: exact label first.
  EXPECT_EQ(rig.find(6), (std::vector<u16>{1, 2}));
  EXPECT_EQ(rig.find(17), std::vector<u16>{2});  // wildcard only
}

TEST(ProtocolLut, SingleAccessLookup) {
  ProtoRig rig;
  rig.lut.insert(ProtoMatch::exact(6), Label{0}, rig.log);
  hw::CycleRecorder rec;
  (void)rig.lut.lookup(6, &rec);
  EXPECT_EQ(rec.memory_accesses(), 1u);  // §V.B: single clock cycle
  EXPECT_EQ(rec.cycles(), 1u);
  // The first label alone costs the same read.
  hw::CycleRecorder first;
  EXPECT_EQ(rig.lut.lookup_first(6, &first), Label{0});
  EXPECT_EQ(first.memory_accesses(), 1u);
  EXPECT_EQ(first.cycles(), 1u);
}

TEST(ProtocolLut, WildcardCostsOneRegisterWrite) {
  ProtoRig rig;
  rig.lut.insert(ProtoMatch::any(), Label{3}, rig.log);
  EXPECT_EQ(rig.log.size(), 1u);  // not 256 table writes
  EXPECT_EQ(rig.find(200), std::vector<u16>{3});
}

TEST(ProtocolLut, RemoveAndErrors) {
  ProtoRig rig;
  rig.lut.insert(ProtoMatch::exact(17), Label{1}, rig.log);
  EXPECT_THROW(rig.lut.insert(ProtoMatch::exact(17), Label{2}, rig.log),
               InternalError);
  rig.lut.remove(ProtoMatch::exact(17), rig.log);
  EXPECT_TRUE(rig.find(17).empty());
  EXPECT_THROW(rig.lut.remove(ProtoMatch::exact(17), rig.log),
               InternalError);
  EXPECT_THROW(rig.lut.remove(ProtoMatch::any(), rig.log), InternalError);
}

TEST(ProtocolLut, ClearResetsBoth) {
  ProtoRig rig;
  rig.lut.insert(ProtoMatch::exact(6), Label{1}, rig.log);
  rig.lut.insert(ProtoMatch::any(), Label{2}, rig.log);
  rig.lut.clear(rig.log);
  EXPECT_TRUE(rig.find(6).empty());
}

TEST(ProtocolLut, MissWithoutRules) {
  ProtoRig rig;
  EXPECT_TRUE(rig.find(6).empty());
}
