// Unit tests for the degradation detector (vswitchd/switch.h): the
// shared engage/hold/release latch, each signal's engage and release
// boundaries, and the Switch wiring that crash() resets.
#include <gtest/gtest.h>

#include "sim/clock.h"
#include "vswitchd/switch.h"

namespace ovs {
namespace {

using Edge = HysteresisLatch::Edge;

constexpr DetectorSignal kHot{true, false};
constexpr DetectorSignal kMid{false, false};
constexpr DetectorSignal kCool{false, true};

TEST(DegradationLatch, EngagesHoldsAndReleasesWithHysteresis) {
  HysteresisLatch l;
  EXPECT_EQ(l.update(kCool), Edge::kNone);
  EXPECT_EQ(l.update(kMid), Edge::kNone);
  EXPECT_FALSE(l.engaged());

  EXPECT_EQ(l.update(kHot), Edge::kEngage);
  EXPECT_TRUE(l.engaged());
  EXPECT_EQ(l.update(kHot), Edge::kHold);
  // Engaged but not cool: nothing to do, still engaged.
  EXPECT_EQ(l.update(kMid), Edge::kNone);
  EXPECT_TRUE(l.engaged());

  EXPECT_EQ(l.update(kCool), Edge::kRelease);
  EXPECT_FALSE(l.engaged());
  EXPECT_EQ(l.update(kCool), Edge::kNone);

  EXPECT_EQ(l.update(kHot), Edge::kEngage);
  l.reset();
  EXPECT_FALSE(l.engaged());
  EXPECT_EQ(l.update(kHot), Edge::kEngage);
}

TEST(DegradationLatch, EmcSignalBoundaries) {
  DegradationConfig d;  // ratio 4, floor 512
  // Engage needs attempts / (hits + 1) strictly above the ratio...
  EXPECT_FALSE(d.emc_thrash_signal(512, 127).hot);  // exactly 4.0
  EXPECT_TRUE(d.emc_thrash_signal(512, 126).hot);
  // ...and at least emc_min_inserts attempts of signal.
  EXPECT_FALSE(d.emc_thrash_signal(511, 0).hot);
  EXPECT_TRUE(d.emc_thrash_signal(512, 0).hot);
  // Release strictly below half the ratio, with no volume floor.
  EXPECT_FALSE(d.emc_thrash_signal(200, 99).cool);  // exactly 2.0
  EXPECT_TRUE(d.emc_thrash_signal(199, 99).cool);
  // A quiet interval counts as cool.
  const DetectorSignal quiet = d.emc_thrash_signal(0, 0);
  EXPECT_FALSE(quiet.hot);
  EXPECT_TRUE(quiet.cool);
}

TEST(DegradationLatch, MaskSignalBoundaries) {
  DegradationConfig d;
  d.mask_explosion_subtables = 16;
  EXPECT_TRUE(d.mask_explosion_signal(16, 0.0).hot);  // count: >=
  EXPECT_FALSE(d.mask_explosion_signal(15, 0.0).hot);
  EXPECT_FALSE(d.mask_explosion_signal(8, 0.0).cool);
  EXPECT_TRUE(d.mask_explosion_signal(7, 0.0).cool);

  d.mask_explosion_subtables = 0;
  d.mask_probe_ewma_threshold = 3.0;
  EXPECT_FALSE(d.mask_explosion_signal(1000, 3.0).hot);  // probe: >
  EXPECT_TRUE(d.mask_explosion_signal(1000, 3.01).hot);
  EXPECT_FALSE(d.mask_explosion_signal(1000, 1.5).cool);
  EXPECT_TRUE(d.mask_explosion_signal(1000, 1.49).cool);

  // Either trigger engages; release needs both below half.
  d.mask_explosion_subtables = 16;
  EXPECT_TRUE(d.mask_explosion_signal(16, 0.0).hot);
  EXPECT_TRUE(d.mask_explosion_signal(0, 4.0).hot);
  EXPECT_FALSE(d.mask_explosion_signal(7, 2.0).cool);
  EXPECT_FALSE(d.mask_explosion_signal(8, 1.0).cool);
  EXPECT_TRUE(d.mask_explosion_signal(7, 1.0).cool);
}

TEST(DegradationLatch, CtSignalBoundaries) {
  DegradationConfig d;
  d.ct_pressure_ratio = 0.75;
  EXPECT_TRUE(d.ct_pressure_signal(0.75).hot);  // >=
  EXPECT_FALSE(d.ct_pressure_signal(0.74).hot);
  EXPECT_FALSE(d.ct_pressure_signal(0.375).cool);
  EXPECT_TRUE(d.ct_pressure_signal(0.37).cool);
}

Packet tcp_packet(uint32_t id) {
  Packet p;
  p.key.set_in_port(1);
  p.key.set_eth_type(ethertype::kIpv4);
  p.key.set_nw_proto(ipproto::kTcp);
  p.key.set_nw_src(Ipv4(10, 1, static_cast<uint8_t>(id >> 8),
                        static_cast<uint8_t>(id)));
  p.key.set_nw_dst(Ipv4(9, 1, 1, 2));
  p.key.set_tp_src(static_cast<uint16_t>(1024 + id));
  p.key.set_tp_dst(80);
  return p;
}

// All three detectors engage on one switch, the EMC one holds without a
// second action while its signal persists, and crash() resets every latch
// along with the EMC insertion knob the dead daemon had set.
TEST(DegradationLatch, CrashResetsEveryDetector) {
  SwitchConfig cfg;
  cfg.ct_max_entries = 8;
  cfg.degradation.ct_pressure_ratio = 0.5;
  cfg.degradation.mask_explosion_subtables = 1;
  Switch sw(cfg);
  sw.add_port(1);
  sw.add_port(2);
  sw.table(0).add_flow(MatchBuilder().ip(), 1, OfActions().output(2));

  VirtualClock clock;
  sw.inject(tcp_packet(0), clock.now());
  sw.handle_upcalls(clock.now());
  ASSERT_EQ(sw.datapath().flow_count(), 1u);  // one mask: count trigger hot
  for (uint32_t i = 0; i < 4; ++i)              // 4/8 = the engage ratio
    sw.ct_commit(tcp_packet(i).key, 0, clock.now());

  auto thrash_interval = [&](uint32_t base) {
    for (uint32_t i = 1; i <= 2000; ++i)
      sw.inject(tcp_packet(base + i), clock.now());
    clock.advance(kSecond);
    sw.run_maintenance(clock.now());
  };
  thrash_interval(0);
  EXPECT_TRUE(sw.emc_degraded());
  EXPECT_TRUE(sw.mask_explosion_active());
  EXPECT_TRUE(sw.ct_pressure_active());
  EXPECT_EQ(sw.counters().emc_degrade_engaged, 1u);

  thrash_interval(10000);
  EXPECT_TRUE(sw.emc_degraded());
  EXPECT_EQ(sw.counters().emc_degrade_engaged, 1u);
  EXPECT_EQ(sw.datapath().config().emc_insert_inv_prob,
            cfg.degradation.emc_degraded_inv_prob);

  sw.crash();
  EXPECT_FALSE(sw.emc_degraded());
  EXPECT_FALSE(sw.mask_explosion_active());
  EXPECT_FALSE(sw.ct_pressure_active());
  EXPECT_EQ(sw.datapath().config().emc_insert_inv_prob,
            cfg.datapath.emc_insert_inv_prob);
}

}  // namespace
}  // namespace ovs
