// Worker-count equivalence property tests: the same trace driven through a
// Switch whose datapath runs one worker and a Switch whose datapath runs
// four (bursts rotating across four EMC shards) must produce the same
// control-plane outcome — the identical megaflow set (match + actions), the
// same flow setups, the same forwarding counters and port statistics. Only
// *where* cache hits land (EMC shard vs shared megaflow table) may differ.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "datapath/dp_check.h"
#include "sim/clock.h"
#include "test_util.h"
#include "util/rng.h"
#include "vswitchd/switch.h"

namespace ovs {
namespace {

using testutil::canonical_flows;
using testutil::tcp_pkt;

SwitchConfig make_config(size_t workers) {
  SwitchConfig cfg;
  cfg.datapath.n_workers = workers;
  return cfg;
}

void install_rules(Switch& sw) {
  for (uint32_t port = 1; port <= 8; ++port) sw.add_port(port);
  for (uint32_t i = 0; i < 8; ++i)
    sw.table(0).add_flow(
        MatchBuilder().ip().nw_dst_prefix(
            Ipv4(static_cast<uint8_t>(10 + i), 0, 0, 0), 8),
        10, OfActions().output(i % 8 + 1));
  // Narrower megaflows for one prefix: L4-sensitive rule.
  sw.table(0).add_flow(MatchBuilder().tcp().tp_dst(443), 20,
                       OfActions().output(7));
}

// The randomized trace: connection pool with churn, periodic upcall
// handling and maintenance, and a mid-trace flow-table change so
// revalidation has real repairs to publish at both worker counts.
void drive_trace(Switch& sw, uint64_t seed, size_t n_pkts, size_t rx_batch) {
  Rng rng(seed);
  struct Conn {
    Ipv4 src, dst;
    uint16_t sport, dport;
    uint32_t in_port;
  };
  std::vector<Conn> conns;
  for (size_t i = 0; i < 64; ++i) {
    conns.push_back({Ipv4(1, 1, 1, static_cast<uint8_t>(rng.uniform(250))),
                     Ipv4(static_cast<uint8_t>(10 + rng.uniform(8)),
                          static_cast<uint8_t>(rng.uniform(250)), 0, 5),
                     static_cast<uint16_t>(1024 + rng.uniform(30000)),
                     rng.chance(0.2) ? uint16_t{443}
                                     : static_cast<uint16_t>(80),
                     static_cast<uint32_t>(1 + rng.uniform(8))});
  }

  VirtualClock clock;
  std::vector<Packet> burst;
  for (size_t i = 0; i < n_pkts; ++i) {
    if (rng.chance(0.02))  // connection churn
      conns[rng.uniform(conns.size())] = {
          Ipv4(1, 1, 1, static_cast<uint8_t>(rng.uniform(250))),
          Ipv4(static_cast<uint8_t>(10 + rng.uniform(8)),
               static_cast<uint8_t>(rng.uniform(250)), 0, 5),
          static_cast<uint16_t>(1024 + rng.uniform(30000)),
          static_cast<uint16_t>(80),
          static_cast<uint32_t>(1 + rng.uniform(8))};
    const Conn& c = conns[rng.uniform(conns.size())];
    const Packet p = tcp_pkt(c.in_port, c.src, c.dst, c.sport, c.dport);
    if (rx_batch > 1) {
      burst.push_back(p);
      if (burst.size() == rx_batch) {
        sw.inject_batch(burst, clock.now());
        burst.clear();
        sw.handle_upcalls(clock.now());
      }
    } else {
      sw.inject(p, clock.now());
      if ((i & 31) == 31) sw.handle_upcalls(clock.now());
    }
    clock.advance(50'000);  // 50 us between packets
    if ((i & 511) == 511) sw.run_maintenance(clock.now());
    if (i == n_pkts / 2) {
      // Reroute one /8 mid-trace: revalidation must repair the installed
      // megaflows identically at both worker counts (same-shape action
      // update).
      sw.table(0).add_flow(
          MatchBuilder().ip().nw_dst_prefix(Ipv4(12, 0, 0, 0), 8), 15,
          OfActions().output(5));
    }
  }
  if (!burst.empty()) sw.inject_batch(burst, clock.now());
  sw.handle_upcalls(clock.now());
  sw.run_maintenance(clock.now());
}

void expect_equivalent(Switch& a, Switch& b) {
  EXPECT_EQ(canonical_flows(a), canonical_flows(b));
  // Every replayed trace must also leave both caches invariant-clean
  // (pairwise-disjoint megaflows, coherent EMC, conserved stats).
  EXPECT_TRUE(run_dp_check(a.datapath()).ok());
  EXPECT_TRUE(run_dp_check(b.datapath()).ok());
  EXPECT_EQ(a.datapath().flow_count(), b.datapath().flow_count());
  EXPECT_EQ(a.counters().flow_setups, b.counters().flow_setups);
  EXPECT_EQ(a.counters().setup_dups, b.counters().setup_dups);
  EXPECT_EQ(a.counters().tx_packets, b.counters().tx_packets);
  EXPECT_EQ(a.counters().tx_bytes, b.counters().tx_bytes);
  EXPECT_EQ(a.counters().to_controller, b.counters().to_controller);
  EXPECT_EQ(a.counters().upcalls_handled, b.counters().upcalls_handled);
  EXPECT_EQ(a.counters().reval_updated_actions,
            b.counters().reval_updated_actions);
  EXPECT_EQ(a.counters().reval_deleted_stale,
            b.counters().reval_deleted_stale);
  const Datapath::Stats sa = a.datapath().stats();
  const Datapath::Stats sb = b.datapath().stats();
  EXPECT_EQ(sa.packets, sb.packets);
  EXPECT_EQ(sa.misses, sb.misses);
  // EMC vs megaflow hit split legitimately differs (per-worker shards),
  // but every packet that is not a miss is a hit at both worker counts.
  EXPECT_EQ(sa.microflow_hits + sa.megaflow_hits,
            sb.microflow_hits + sb.megaflow_hits);
  for (uint32_t port = 1; port <= 8; ++port) {
    EXPECT_EQ(a.port_stats(port).tx_packets, b.port_stats(port).tx_packets)
        << "port " << port;
    EXPECT_EQ(a.port_stats(port).tx_bytes, b.port_stats(port).tx_bytes)
        << "port " << port;
  }
}

TEST(BackendEquivalence, PerPacketTrace) {
  Switch w1(make_config(1));
  Switch w4(make_config(4));
  install_rules(w1);
  install_rules(w4);
  drive_trace(w1, 0xE9, 6000, 1);
  drive_trace(w4, 0xE9, 6000, 1);
  EXPECT_EQ(w1.datapath().n_workers(), 1u);
  EXPECT_EQ(w4.datapath().n_workers(), 4u);
  ASSERT_NE(w1.datapath().flow_count(), 0u);
  expect_equivalent(w1, w4);
}

TEST(BackendEquivalence, BatchedTrace) {
  SwitchConfig c1 = make_config(1);
  SwitchConfig c4 = make_config(4);
  c1.rx_batch = c4.rx_batch = 32;
  Switch w1(c1);
  Switch w4(c4);
  install_rules(w1);
  install_rules(w4);
  drive_trace(w1, 0x5EED, 6000, 32);
  drive_trace(w4, 0x5EED, 6000, 32);
  ASSERT_NE(w1.datapath().flow_count(), 0u);
  expect_equivalent(w1, w4);
}

TEST(BackendEquivalence, SeedSweep) {
  for (uint64_t seed : {1ULL, 2ULL, 3ULL}) {
    Switch w1(make_config(1));
    Switch w4(make_config(4));
    install_rules(w1);
    install_rules(w4);
    drive_trace(w1, seed, 2000, 1);
    drive_trace(w4, seed, 2000, 1);
    expect_equivalent(w1, w4);
  }
}

}  // namespace
}  // namespace ovs
