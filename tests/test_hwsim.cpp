// Unit tests for src/hwsim: words, memories, register files, pipeline
// timing, shared blocks (Fig. 5) and the update bus (§V.A).
#include <gtest/gtest.h>

#include "common/error.hpp"
#include "hwsim/memory.hpp"
#include "hwsim/pipeline.hpp"
#include "hwsim/register_file.hpp"
#include "hwsim/shared_memory.hpp"
#include "hwsim/synthesis.hpp"
#include "hwsim/update_bus.hpp"
#include "hwsim/word.hpp"

using namespace pclass;
using namespace pclass::hw;

TEST(Word, GetSetWithinLow64) {
  Word w;
  w.set(4, 8, 0xAB);
  EXPECT_EQ(w.get(4, 8), 0xABu);
  EXPECT_EQ(w.lo, u64{0xAB} << 4);
  EXPECT_EQ(w.hi, 0u);
}

TEST(Word, GetSetStraddlesBoundary) {
  Word w;
  w.set(60, 8, 0xFF);  // bits 60..67
  EXPECT_EQ(w.get(60, 8), 0xFFu);
  EXPECT_EQ(w.lo >> 60, 0xFu);
  EXPECT_EQ(w.hi & 0xFu, 0xFu);
}

TEST(Word, GetSetHighHalf) {
  Word w;
  w.set(100, 16, 0x1234);
  EXPECT_EQ(w.get(100, 16), 0x1234u);
  EXPECT_EQ(w.lo, 0u);
}

TEST(Word, PackerUnpackerRoundTrip) {
  WordPacker p;
  p.push(0x5, 3).push(0x1FFF, 13).push(0x1, 1).push(0xDEAD, 16);
  EXPECT_EQ(p.bits_used(), 33u);
  WordUnpacker u(p.word());
  EXPECT_EQ(u.pull(3), 0x5u);
  EXPECT_EQ(u.pull(13), 0x1FFFu);
  EXPECT_EQ(u.pull(1), 0x1u);
  EXPECT_EQ(u.pull(16), 0xDEADu);
}

TEST(Memory, ConstructionValidation) {
  EXPECT_THROW(Memory("m", 0, 8), ConfigError);
  EXPECT_THROW(Memory("m", 8, 0), ConfigError);
  EXPECT_THROW(Memory("m", 8, 129), ConfigError);
  EXPECT_NO_THROW(Memory("m", 8, 128));
}

TEST(Memory, ReadWriteAndCounters) {
  Memory m("m", 16, 32, 2);
  CycleRecorder rec;
  m.write(3, Word{0xAA, 0});
  EXPECT_EQ(m.read(3, &rec).lo, 0xAAu);
  // Reads are metered per-recorder only (no shared counters on the
  // lookup path — dataplane workers must not contend on a cache line).
  EXPECT_EQ(rec.cycles(), 2u);
  EXPECT_EQ(rec.memory_accesses(), 1u);
  EXPECT_EQ(m.stats().writes, 1u);
}

TEST(Memory, NullRecorderReadsAreFree) {
  Memory m("m", 16, 32);
  m.write(0, Word{1, 0});
  CycleRecorder rec;
  (void)m.read(0, nullptr);  // controller shadow read: not metered
  (void)m.read(0, &rec);
  EXPECT_EQ(rec.memory_accesses(), 1u);  // only the recorded read counts
}

TEST(Memory, OutOfRangeThrows) {
  Memory m("m", 4, 8);
  CycleRecorder rec;
  EXPECT_THROW((void)m.read(4, &rec), ConfigError);
  EXPECT_THROW(m.write(4, Word{}), ConfigError);
}

TEST(Memory, UsedWordsHighWaterMark) {
  Memory m("m", 100, 10);
  EXPECT_EQ(m.used_bits(), 0u);
  m.write(10, Word{1, 0});
  EXPECT_EQ(m.used_words(), 11u);
  EXPECT_EQ(m.used_bits(), 110u);
  m.write(5, Word{1, 0});
  EXPECT_EQ(m.used_words(), 11u);  // high-water, not count
  m.clear();
  EXPECT_EQ(m.used_words(), 0u);
  EXPECT_EQ(m.read(10, nullptr).lo, 0u);
}

TEST(Memory, CapacityBits) {
  Memory m("m", 1024, 33);
  EXPECT_EQ(m.capacity_bits(), 1024u * 33u);
}

// Each width class (one u32, one u64 or two u64 per word on the host)
// stores every bit up to word_bits: the all-ones word and a pattern read
// back unchanged, out-of-range addresses still throw, and a value with a
// bit at or above word_bits is rejected rather than truncated.
TEST(Memory, EveryWidthClassRoundTrips) {
  for (const unsigned bits : {1u, 14u, 29u, 32u, 33u, 64u, 65u, 118u, 128u}) {
    SCOPED_TRACE(bits);
    Memory m("m", 8, bits, 3);
    Word ones;
    ones.lo = bits >= 64 ? ~u64{0} : mask_low(bits);
    ones.hi = bits <= 64 ? 0 : bits == 128 ? ~u64{0} : mask_low(bits - 64);
    const Word pattern{ones.lo & 0xA5A5A5A5A5A5A5A5ULL,
                       ones.hi & 0x5A5A5A5A5A5A5A5AULL};
    m.write(0, ones);
    m.write(7, pattern);
    CycleRecorder rec;
    EXPECT_EQ(m.read(0, &rec), ones);
    EXPECT_EQ(m.read(7, &rec), pattern);
    EXPECT_EQ(m.read(3, &rec), Word{});
    EXPECT_EQ(rec.cycles(), 9u);
    EXPECT_EQ(rec.memory_accesses(), 3u);

    EXPECT_THROW((void)m.read(8, &rec), ConfigError);
    EXPECT_THROW(m.write(8, Word{}), ConfigError);
    if (bits < 128) {
      Word wide;
      wide.set(bits, 1, 1);  // the first bit past the word
      EXPECT_THROW(m.write(1, wide), ConfigError);
      EXPECT_THROW(m.write(1, Word{0, u64{1} << 63}), ConfigError);
      EXPECT_EQ(m.read(1, nullptr), Word{});
    }
    EXPECT_EQ(m.stats().writes, 2u);
    EXPECT_EQ(m.used_words(), 8u);
  }
}

TEST(RegisterFile, WriteReadAndBits) {
  RegisterFile rf("rf", 8, 40, 2);
  rf.write(2, Word{0x123, 0});
  EXPECT_EQ(rf.reg(2).lo, 0x123u);
  EXPECT_EQ(rf.total_bits(), 8u * 40u);
  EXPECT_EQ(rf.used_count(), 3u);
  CycleRecorder rec;
  rf.charge_lookup(rec);
  EXPECT_EQ(rec.cycles(), 2u);
  EXPECT_EQ(rec.memory_accesses(), 0u);  // registers are not memory
}

TEST(RegisterFile, Validation) {
  EXPECT_THROW(RegisterFile("rf", 0, 8), ConfigError);
  RegisterFile rf("rf", 4, 8);
  EXPECT_THROW(rf.write(4, Word{}), ConfigError);
  EXPECT_THROW((void)rf.reg(4), ConfigError);
}

TEST(Pipeline, LatencyAndII) {
  Pipeline p({{"a", 1, 1}, {"b", 7, 1}, {"c", 2, 1}, {"d", 1, 1}});
  EXPECT_EQ(p.latency(), 11u);
  EXPECT_EQ(p.initiation_interval(), 1u);
}

TEST(Pipeline, AnalyticMatchesSimulationFullyPipelined) {
  Pipeline p({{"split", 1, 1}, {"lookup", 7, 1}, {"combine", 2, 1},
              {"rule", 1, 1}});
  for (u64 n : {u64{1}, u64{2}, u64{10}, u64{1000}}) {
    const auto a = p.run(n);
    const auto s = p.simulate(n);
    EXPECT_EQ(a.total_cycles, s.total_cycles) << "n=" << n;
  }
}

TEST(Pipeline, AnalyticMatchesSimulationBlockingStage) {
  // BST-style: the field-lookup stage is not pipelined (II = latency-ish).
  Pipeline p({{"split", 1, 1}, {"lookup", 17, 16}, {"combine", 2, 1},
              {"rule", 1, 1}});
  for (u64 n : {u64{1}, u64{3}, u64{100}}) {
    EXPECT_EQ(p.run(n).total_cycles, p.simulate(n).total_cycles)
        << "n=" << n;
  }
  EXPECT_EQ(p.initiation_interval(), 16u);
}

TEST(Pipeline, SteadyStateThroughputApproachesII) {
  Pipeline p({{"a", 1, 1}, {"b", 7, 1}, {"c", 2, 1}});
  const auto t = p.simulate(10000);
  EXPECT_NEAR(t.cycles_per_packet, 1.0, 0.01);
}

TEST(Pipeline, Validation) {
  EXPECT_THROW(Pipeline({}), ConfigError);
  EXPECT_THROW(Pipeline({{"a", 0, 1}}), ConfigError);
  EXPECT_THROW(Pipeline({{"a", 1, 0}}), ConfigError);
  EXPECT_THROW(Pipeline({{"a", 2, 3}}), ConfigError);  // II > latency
}

TEST(Pipeline, ZeroPackets) {
  Pipeline p({{"a", 3, 1}});
  EXPECT_EQ(p.run(0).total_cycles, 0u);
  EXPECT_EQ(p.simulate(0).total_cycles, 0u);
}

TEST(SharedMemory, BindFlushesOnRoleChange) {
  // Bit 32 of the 33-bit word too, which the block's u64 storage keeps.
  SharedMemory sm("sh", 64, 33);
  const Word top{(u64{1} << 32) | 42, 0};
  sm.bind(SharedRole::kMbtLevel2);
  sm.as(SharedRole::kMbtLevel2).write(1, top);
  EXPECT_EQ(sm.as(SharedRole::kMbtLevel2).read(1, nullptr), top);
  sm.bind(SharedRole::kBstNodes);
  EXPECT_EQ(sm.as(SharedRole::kBstNodes).read(1, nullptr), Word{});  // flushed
  EXPECT_EQ(sm.physical().used_words(), 0u);
  sm.as(SharedRole::kBstNodes).write(63, top);
  sm.bind(SharedRole::kMbtLevel2);
  EXPECT_EQ(sm.as(SharedRole::kMbtLevel2).read(63, nullptr), Word{});
}

TEST(SharedMemory, RebindSameRoleKeepsContents) {
  SharedMemory sm("sh", 64, 33);
  sm.bind(SharedRole::kBstNodes);
  sm.as(SharedRole::kBstNodes).write(0, Word{7, 0});
  sm.bind(SharedRole::kBstNodes);
  EXPECT_EQ(sm.as(SharedRole::kBstNodes).read(0, nullptr).lo, 7u);
}

TEST(SharedMemory, WrongRoleAccessThrows) {
  SharedMemory sm("sh", 64, 33);
  sm.bind(SharedRole::kMbtLevel2);
  EXPECT_THROW((void)sm.as(SharedRole::kBstNodes), ConfigError);
  EXPECT_THROW(sm.bind(SharedRole::kUnbound), ConfigError);
}

TEST(UpdateBus, CommandLogAppliesAndMeters) {
  Memory m("m", 8, 16);
  RegisterFile rf("rf", 2, 16);
  CommandLog log;
  log.memory_write(m, 3, Word{9, 0});
  log.register_write(rf, 1, Word{5, 0});
  log.hash_compute();
  log.config_toggle();
  log.prefix_entry();
  EXPECT_EQ(m.read(3, nullptr).lo, 9u);
  EXPECT_EQ(rf.reg(1).lo, 5u);
  EXPECT_EQ(log.size(), 4u);

  const UpdateStats& st = log.stats();
  EXPECT_EQ(st.commands, 4u);
  EXPECT_EQ(st.cycles, 4u);
  EXPECT_EQ(st.memory_writes, 1u);
  EXPECT_EQ(st.register_writes, 1u);
  EXPECT_EQ(st.hash_computes, 1u);
  EXPECT_EQ(st.config_toggles, 1u);
  EXPECT_EQ(st.prefix_writes, 1u);  // metered, no command or cycle
}

TEST(UpdateBus, StatsAccumulate) {
  UpdateStats a{1, 1, 1, 0, 0, 0}, b{2, 2, 0, 1, 1, 0};
  a += b;
  EXPECT_EQ(a.commands, 3u);
  EXPECT_EQ(a.cycles, 3u);
  EXPECT_EQ(a.memory_writes, 1u);
  EXPECT_EQ(a.register_writes, 1u);
}

TEST(Synthesis, MemoryBitsAreMeasured) {
  SynthesisModel sm;
  Memory m1("a", 1024, 32), m2("b", 256, 64);
  sm.add_memory(m1);
  sm.add_memory(m2);
  const auto r = sm.report();
  EXPECT_EQ(r.block_memory_bits, 1024u * 32 + 256u * 64);
  EXPECT_GT(r.logic_alms, 0u);
  EXPECT_LT(r.memory_utilization(), 1.0);
}

TEST(Synthesis, RegistersIncludePipelineStagesAndLogicFFs) {
  LogicCoefficients coeff;
  SynthesisModel sm(coeff);
  RegisterFile rf("rf", 128, 40);
  sm.add_register_file(rf);
  sm.add_pipeline_stages(4, 160);
  const auto r = sm.report();
  // Structural bits plus the calibrated flip-flops-per-ALM share.
  const u64 structural = 128u * 40 + 4u * 160;
  const u64 logic_ffs = static_cast<u64>(
      coeff.regs_per_alm * static_cast<double>(r.logic_alms));
  EXPECT_EQ(r.registers, structural + logic_ffs);
  EXPECT_GT(r.registers, structural);
}

TEST(CycleAggregate, MeanAndMax) {
  CycleAggregate agg;
  CycleRecorder a, b;
  a.charge(10, 2);
  b.charge(20, 4);
  agg.add(a);
  agg.add(b);
  EXPECT_EQ(agg.count(), 2u);
  EXPECT_DOUBLE_EQ(agg.mean_cycles(), 15.0);
  EXPECT_DOUBLE_EQ(agg.mean_accesses(), 3.0);
  EXPECT_EQ(agg.max_cycles(), 20u);
  EXPECT_EQ(agg.max_accesses(), 4u);
}
