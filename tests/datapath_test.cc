// Tests for the simulated kernel datapath (§4, §6): the two-level cache and
// upcalls on one worker (DatapathTest), per-worker EMC shards over the shared
// RCU megaflow table and its grace periods (MtDatapathTest, whose
// ConcurrentChurnStress is the case the TSan and ASan CI jobs run), and the
// burst path's equivalence to per-packet receive() (BatchEquivalence).
#include "datapath/datapath.h"

#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "packet/match.h"
#include "test_util.h"
#include "util/fault.h"
#include "util/rng.h"

namespace ovs {
namespace {

using testutil::dp_tcp_pkt;
using Path = Datapath::Path;

Packet tcp_pkt(Ipv4 dst, uint16_t sport, uint16_t dport) {
  Packet p;
  p.key.set_eth_type(ethertype::kIpv4);
  p.key.set_nw_proto(ipproto::kTcp);
  p.key.set_nw_src(Ipv4(1, 1, 1, 1));
  p.key.set_nw_dst(dst);
  p.key.set_tp_src(sport);
  p.key.set_tp_dst(dport);
  p.size_bytes = 100;
  return p;
}

std::vector<Datapath::RxResult> run_batch(Datapath& dp, size_t worker,
                                          const std::vector<Packet>& b,
                                          uint64_t now) {
  std::vector<Datapath::RxResult> res(b.size());
  dp.process_batch(worker, b, now, res.data());
  return res;
}

TEST(DatapathTest, MissQueuesUpcall) {
  Datapath dp;
  auto rx = dp.receive(tcp_pkt(Ipv4(9, 9, 9, 9), 1, 2), 0);
  EXPECT_EQ(rx.path, Datapath::Path::kMiss);
  EXPECT_EQ(rx.actions, nullptr);
  EXPECT_EQ(dp.upcall_queue_depth(), 1u);
  auto up = dp.take_upcalls(10);
  ASSERT_EQ(up.size(), 1u);
  EXPECT_EQ(up[0].key.nw_dst(), Ipv4(9, 9, 9, 9));
  EXPECT_EQ(dp.upcall_queue_depth(), 0u);
}

TEST(DatapathTest, MegaflowThenMicroflowHit) {
  Datapath dp;
  Match m = MatchBuilder().ip().nw_dst_prefix(Ipv4(9, 0, 0, 0), 8);
  dp.install(m, DpActions().output(2), 0);

  // First packet: megaflow hit (microflow cold), installs the EMC entry.
  auto rx1 = dp.receive(tcp_pkt(Ipv4(9, 1, 2, 3), 5, 6), 10);
  EXPECT_EQ(rx1.path, Datapath::Path::kMegaflowHit);
  ASSERT_NE(rx1.actions, nullptr);
  EXPECT_EQ(rx1.actions->to_string(), "output:2");

  // Same microflow again: EMC hit.
  auto rx2 = dp.receive(tcp_pkt(Ipv4(9, 1, 2, 3), 5, 6), 20);
  EXPECT_EQ(rx2.path, Datapath::Path::kMicroflowHit);

  // Different connection under the same megaflow: megaflow hit first.
  auto rx3 = dp.receive(tcp_pkt(Ipv4(9, 8, 7, 6), 50, 60), 30);
  EXPECT_EQ(rx3.path, Datapath::Path::kMegaflowHit);

  EXPECT_EQ(dp.stats().microflow_hits, 1u);
  EXPECT_EQ(dp.stats().megaflow_hits, 2u);
  EXPECT_EQ(dp.stats().misses, 0u);
}

TEST(DatapathTest, EntryStatsAccumulate) {
  Datapath dp;
  MegaflowEntry* e =
      dp.install(MatchBuilder().ip(), DpActions().output(1), 0);
  dp.receive(tcp_pkt(Ipv4(1, 2, 3, 4), 1, 2), 100);
  dp.receive(tcp_pkt(Ipv4(1, 2, 3, 4), 1, 2), 200);
  EXPECT_EQ(e->packets(), 2u);
  EXPECT_EQ(e->bytes(), 200u);
  EXPECT_EQ(e->used_ns(), 200u);
  EXPECT_EQ(e->created_ns(), 0u);
}

TEST(DatapathTest, DuplicateInstallReturnsExisting) {
  Datapath dp;
  Match m = MatchBuilder().ip().nw_dst(Ipv4(1, 1, 1, 1));
  MegaflowEntry* a = dp.install(m, DpActions().output(1), 0);
  MegaflowEntry* b = dp.install(m, DpActions().output(9), 0);
  EXPECT_EQ(a, b);
  EXPECT_EQ(dp.flow_count(), 1u);
  EXPECT_EQ(a->actions().to_string(), "output:1");  // not replaced
}

TEST(DatapathTest, StaleMicroflowEntryCorrectedOnUse) {
  // §6: "a stale microflow cache entry is detected and corrected the first
  // time a packet matches it".
  Datapath dp;
  Match m = MatchBuilder().ip().nw_dst(Ipv4(9, 1, 2, 3));
  MegaflowEntry* e = dp.install(m, DpActions().output(2), 0);
  dp.receive(tcp_pkt(Ipv4(9, 1, 2, 3), 5, 6), 0);   // megaflow hit
  dp.receive(tcp_pkt(Ipv4(9, 1, 2, 3), 5, 6), 1);   // EMC hit
  dp.remove(e);                                     // flow deleted
  auto rx = dp.receive(tcp_pkt(Ipv4(9, 1, 2, 3), 5, 6), 2);
  EXPECT_EQ(rx.path, Datapath::Path::kMiss);  // EMC entry detected stale
  EXPECT_EQ(dp.stats().stale_microflow_hits, 1u);
  dp.purge_dead();
  auto rx2 = dp.receive(tcp_pkt(Ipv4(9, 1, 2, 3), 5, 6), 3);
  EXPECT_EQ(rx2.path, Datapath::Path::kMiss);
}

TEST(DatapathTest, PurgeDeadSweepsMicroflowPointers) {
  Datapath dp;
  Match m = MatchBuilder().ip().nw_dst(Ipv4(9, 1, 2, 3));
  MegaflowEntry* e = dp.install(m, DpActions().output(2), 0);
  dp.receive(tcp_pkt(Ipv4(9, 1, 2, 3), 5, 6), 0);
  dp.remove(e);
  // Purge without the EMC slot ever being revisited: must not crash and the
  // next packet must miss cleanly (the sweep cleared the slot).
  dp.purge_dead();
  auto rx = dp.receive(tcp_pkt(Ipv4(9, 1, 2, 3), 5, 6), 1);
  EXPECT_EQ(rx.path, Datapath::Path::kMiss);
}

TEST(DatapathTest, MicroflowDisabled) {
  DatapathConfig cfg;
  cfg.microflow_enabled = false;
  Datapath dp(cfg);
  dp.install(MatchBuilder().ip(), DpActions().output(1), 0);
  dp.receive(tcp_pkt(Ipv4(1, 1, 1, 1), 1, 2), 0);
  auto rx = dp.receive(tcp_pkt(Ipv4(1, 1, 1, 1), 1, 2), 1);
  EXPECT_EQ(rx.path, Datapath::Path::kMegaflowHit);  // never EMC
  EXPECT_EQ(dp.stats().microflow_hits, 0u);
}

TEST(DatapathTest, TuplesSearchedCountsMasks) {
  DatapathConfig cfg;
  cfg.microflow_enabled = false;
  Datapath dp(cfg);
  // Three distinct masks -> up to 3 hash tables probed per packet.
  dp.install(MatchBuilder().ip().nw_dst(Ipv4(1, 1, 1, 1)), DpActions(), 0);
  dp.install(MatchBuilder().ip().nw_dst_prefix(Ipv4(2, 0, 0, 0), 8),
             DpActions().output(1), 0);
  dp.install(MatchBuilder().arp(), DpActions().output(2), 0);
  EXPECT_EQ(dp.mask_count(), 3u);
  auto rx = dp.receive(tcp_pkt(Ipv4(7, 7, 7, 7), 1, 2), 0);  // matches none
  EXPECT_EQ(rx.path, Datapath::Path::kMiss);
  EXPECT_EQ(rx.tuples_searched, 3u);
}

TEST(DatapathTest, UpcallQueueOverflowDrops) {
  DatapathConfig cfg;
  cfg.max_upcall_queue = 4;
  Datapath dp(cfg);
  for (uint16_t i = 0; i < 10; ++i)
    dp.receive(tcp_pkt(Ipv4(9, 9, 9, 9), i, 80), 0);
  EXPECT_EQ(dp.upcall_queue_depth(), 4u);
  EXPECT_EQ(dp.stats().upcall_drops, 6u);
}

TEST(DatapathTest, UpdateActionsInPlace) {
  Datapath dp;
  MegaflowEntry* e =
      dp.install(MatchBuilder().ip(), DpActions().output(1), 0);
  dp.update_actions(e, DpActions().output(5));
  auto rx = dp.receive(tcp_pkt(Ipv4(1, 1, 1, 1), 1, 2), 0);
  ASSERT_NE(rx.actions, nullptr);
  EXPECT_EQ(rx.actions->to_string(), "output:5");
}

TEST(DatapathTest, DumpReturnsLiveEntriesOnly) {
  Datapath dp;
  MegaflowEntry* a =
      dp.install(MatchBuilder().ip().nw_dst(Ipv4(1, 1, 1, 1)),
                 DpActions().output(1), 0);
  dp.install(MatchBuilder().ip().nw_dst(Ipv4(2, 2, 2, 2)),
             DpActions().output(2), 0);
  EXPECT_EQ(dp.dump().size(), 2u);
  dp.remove(a);
  EXPECT_EQ(dp.dump().size(), 1u);
  EXPECT_EQ(dp.flow_count(), 1u);
}

TEST(DatapathTest, ManyConnectionsChurnEmc) {
  // Fill the EMC well past capacity; pseudo-random replacement must keep the
  // cache functional (no crashes, hits still possible).
  DatapathConfig cfg;
  cfg.microflow_sets = 64;
  cfg.microflow_ways = 2;
  Datapath dp(cfg);
  dp.install(MatchBuilder().ip(), DpActions().output(1), 0);
  for (uint32_t i = 0; i < 10000; ++i) {
    Packet p = tcp_pkt(Ipv4(0x0a000000u + (i % 997)), (uint16_t)(i % 63001),
                       80);
    dp.receive(p, i);
  }
  // Re-inject a recent microflow: should often hit the EMC.
  dp.reset_stats();
  for (uint32_t i = 9990; i < 10000; ++i) {
    Packet p = tcp_pkt(Ipv4(0x0a000000u + (i % 997)), (uint16_t)(i % 63001),
                       80);
    dp.receive(p, 20000 + i);
  }
  EXPECT_GT(dp.stats().microflow_hits + dp.stats().megaflow_hits, 0u);
  EXPECT_EQ(dp.stats().misses, 0u);
}

TEST(DatapathTest, TuplesSearchedInCreationOrderWithoutEmptyTuples) {
  DatapathConfig cfg;
  cfg.microflow_enabled = false;
  Datapath dp(cfg);
  MegaflowEntry* a = dp.install(
      MatchBuilder().ip().nw_dst(Ipv4(1, 1, 1, 1)), DpActions().output(1), 0);
  dp.install(MatchBuilder().ip().nw_dst_prefix(Ipv4(2, 0, 0, 0), 8),
             DpActions().output(2), 0);
  dp.install(MatchBuilder().ip().nw_dst_prefix(Ipv4(3, 0, 0, 0), 16),
             DpActions().output(3), 0);
  // The /16 mask was created third, so it is the third table probed.
  EXPECT_EQ(dp.receive(tcp_pkt(Ipv4(3, 0, 1, 1), 1, 2), 0).tuples_searched,
            3u);
  // Emptying the first mask drops its table from the search order...
  dp.remove(a);
  EXPECT_EQ(dp.mask_count(), 2u);
  EXPECT_EQ(dp.receive(tcp_pkt(Ipv4(3, 0, 1, 1), 1, 2), 1).tuples_searched,
            2u);
  // ...and re-creating it appends it at the end.
  dp.install(MatchBuilder().ip().nw_dst(Ipv4(1, 1, 1, 1)),
             DpActions().output(1), 2);
  EXPECT_EQ(dp.receive(tcp_pkt(Ipv4(1, 1, 1, 1), 1, 2), 3).tuples_searched,
            3u);
  dp.purge_dead();
}

TEST(DatapathTest, DuplicateInstallDrawsNoFault) {
  // A re-install of an existing flow returns it before any fault is drawn,
  // so an always-firing table-full fault cannot fail it.
  FaultInjector faults(1);
  faults.set_probability(FaultPoint::kInstallTableFull, 1.0);
  Datapath dp;
  const Match m = MatchBuilder().ip().nw_dst(Ipv4(1, 1, 1, 1));
  MegaflowEntry* a = dp.install(m, DpActions().output(1), 0);
  dp.set_fault_injector(&faults);
  EXPECT_EQ(dp.install(m, DpActions().output(1), 0), a);
  EXPECT_EQ(dp.stats().install_fail_full, 0u);
  EXPECT_EQ(dp.install(MatchBuilder().ip().nw_dst(Ipv4(2, 2, 2, 2)),
                       DpActions().output(1), 0),
            nullptr);
  EXPECT_EQ(dp.stats().install_fail_full, 1u);
}

TEST(MtDatapathTest, MissQueuesUpcall) {
  Datapath dp;
  auto res = run_batch(dp, 0, {tcp_pkt(Ipv4(9, 9, 9, 9), 1, 2)}, 0);
  EXPECT_EQ(res[0].path, Path::kMiss);
  EXPECT_EQ(res[0].actions, nullptr);
  EXPECT_EQ(dp.upcall_queue_depth(), 1u);
  auto up = dp.take_upcalls(10);
  ASSERT_EQ(up.size(), 1u);
  EXPECT_EQ(up[0].key.nw_dst(), Ipv4(9, 9, 9, 9));
  EXPECT_EQ(dp.stats().misses, 1u);
}

TEST(MtDatapathTest, MegaflowThenHintHit) {
  Datapath dp;
  Match m = MatchBuilder().ip().nw_dst_prefix(Ipv4(9, 0, 0, 0), 8);
  MegaflowEntry* e = dp.install(m, DpActions().output(2), 0);
  ASSERT_NE(e, nullptr);
  EXPECT_EQ(dp.flow_count(), 1u);
  EXPECT_EQ(dp.mask_count(), 1u);

  auto r1 = run_batch(dp, 0, {tcp_pkt(Ipv4(9, 1, 2, 3), 5, 6)}, 10);
  EXPECT_EQ(r1[0].path, Path::kMegaflowHit);
  ASSERT_NE(r1[0].actions, nullptr);
  EXPECT_EQ(r1[0].actions->to_string(), "output:2");

  // Same microflow again: the worker's EMC points at the entry.
  auto r2 = run_batch(dp, 0, {tcp_pkt(Ipv4(9, 1, 2, 3), 5, 6)}, 20);
  EXPECT_EQ(r2[0].path, Path::kMicroflowHit);

  EXPECT_EQ(dp.stats().microflow_hits, 1u);
  EXPECT_EQ(dp.stats().megaflow_hits, 1u);
  EXPECT_EQ(e->packets(), 2u);
  EXPECT_EQ(e->bytes(), 200u);
  EXPECT_EQ(e->used_ns(), 20u);
}

TEST(MtDatapathTest, DuplicateInstallReturnsExisting) {
  Datapath dp;
  Match m = MatchBuilder().ip().nw_dst_prefix(Ipv4(9, 0, 0, 0), 8);
  MegaflowEntry* a = dp.install(m, DpActions().output(2), 0);
  MegaflowEntry* b = dp.install(m, DpActions().output(3), 0);
  EXPECT_EQ(a, b);
  EXPECT_EQ(dp.flow_count(), 1u);
}

TEST(MtDatapathTest, BurstDedupGroupsStats) {
  Datapath dp;
  Match m = MatchBuilder().ip().nw_dst_prefix(Ipv4(9, 0, 0, 0), 8);
  MegaflowEntry* e = dp.install(m, DpActions().output(2), 0);

  // 32 copies of one microflow: the leader does the single classifier
  // search, every follower is a microflow hit, stats bump once.
  std::vector<Packet> burst(32, tcp_pkt(Ipv4(9, 1, 2, 3), 5, 6));
  std::vector<Datapath::RxResult> res(burst.size());
  Datapath::BatchSummary sum;
  dp.process_batch(0, burst, 50, res.data(), &sum);

  EXPECT_EQ(res[0].path, Path::kMegaflowHit);
  for (size_t i = 1; i < res.size(); ++i) {
    EXPECT_EQ(res[i].path, Path::kMicroflowHit);
    EXPECT_EQ(res[i].actions, res[0].actions);
  }
  EXPECT_EQ(sum.packets, 32u);
  EXPECT_EQ(sum.emc_probes, 1u);
  EXPECT_EQ(sum.megaflow_lookups, 1u);
  EXPECT_EQ(sum.groups, 1u);
  EXPECT_EQ(e->packets(), 32u);
  EXPECT_EQ(e->bytes(), 3200u);
}

TEST(MtDatapathTest, RemoveIsDeferredAndStaleHintCorrected) {
  Datapath dp;
  Match m = MatchBuilder().ip().nw_dst_prefix(Ipv4(9, 0, 0, 0), 8);
  MegaflowEntry* e = dp.install(m, DpActions().output(2), 0);

  run_batch(dp, 0, {tcp_pkt(Ipv4(9, 1, 2, 3), 5, 6)}, 10);  // install hint
  dp.remove(e);
  EXPECT_EQ(dp.flow_count(), 0u);
  EXPECT_EQ(dp.mask_count(), 0u);

  // The EMC entry is now stale: corrected on first use, packet misses.
  auto r = run_batch(dp, 0, {tcp_pkt(Ipv4(9, 1, 2, 3), 5, 6)}, 20);
  EXPECT_EQ(r[0].path, Path::kMiss);
  EXPECT_EQ(dp.stats().stale_microflow_hits, 1u);

  dp.purge_dead();  // entry freed once every shard was swept
  auto r2 = run_batch(dp, 0, {tcp_pkt(Ipv4(9, 1, 2, 3), 5, 6)}, 30);
  EXPECT_EQ(r2[0].path, Path::kMiss);
}

TEST(MtDatapathTest, UpdateActionsSwapsRcuStyle) {
  Datapath dp;
  Match m = MatchBuilder().ip().nw_dst_prefix(Ipv4(9, 0, 0, 0), 8);
  MegaflowEntry* e = dp.install(m, DpActions().output(2), 0);

  auto r1 = run_batch(dp, 0, {tcp_pkt(Ipv4(9, 1, 2, 3), 5, 6)}, 10);
  EXPECT_EQ(r1[0].actions->to_string(), "output:2");

  dp.update_actions(e, DpActions().output(7));
  auto r2 = run_batch(dp, 0, {tcp_pkt(Ipv4(9, 1, 2, 3), 5, 6)}, 20);
  EXPECT_EQ(r2[0].actions->to_string(), "output:7");
  dp.purge_dead();  // frees the retired "output:2" list
}

TEST(MtDatapathTest, TupleDirectoryCapacity) {
  // The tuple directory has no fixed capacity: every distinct mask gets a
  // table (1,089 here), and each leaves the directory with its last flow.
  Datapath dp;
  std::vector<MegaflowEntry*> flows;
  for (int src = 0; src <= 32; ++src) {
    for (int dst = 0; dst <= 32; ++dst) {
      MegaflowEntry* e = dp.install(
          MatchBuilder().ip().nw_src_prefix(Ipv4(10, 0, 0, 0), src)
              .nw_dst_prefix(Ipv4(20, 0, 0, 0), dst),
          DpActions().output(1), 0);
      ASSERT_NE(e, nullptr);
      flows.push_back(e);
    }
  }
  EXPECT_EQ(dp.mask_count(), 33u * 33u);
  for (MegaflowEntry* e : flows) dp.remove(e);
  EXPECT_EQ(dp.mask_count(), 0u);
  dp.purge_dead();
}

TEST(MtDatapathTest, WorkersSeeSharedTable) {
  DatapathConfig cfg;
  cfg.n_workers = 2;
  Datapath dp(cfg);
  dp.install(MatchBuilder().ip().nw_dst_prefix(Ipv4(9, 0, 0, 0), 8),
             DpActions().output(2), 0);
  auto r0 = run_batch(dp, 0, {tcp_pkt(Ipv4(9, 1, 1, 1), 1, 1)}, 10);
  auto r1 = run_batch(dp, 1, {tcp_pkt(Ipv4(9, 2, 2, 2), 2, 2)}, 10);
  EXPECT_EQ(r0[0].path, Path::kMegaflowHit);
  EXPECT_EQ(r1[0].path, Path::kMegaflowHit);
  // EMC shards are private: worker 0 resolved 9.1.1.1, but worker 1's shard
  // has no entry for it, so worker 1 does a full search...
  auto r2 = run_batch(dp, 1, {tcp_pkt(Ipv4(9, 1, 1, 1), 1, 1)}, 20);
  EXPECT_EQ(r2[0].path, Path::kMegaflowHit);
  // ...which installed worker 1's own EMC entry.
  auto r3 = run_batch(dp, 1, {tcp_pkt(Ipv4(9, 1, 1, 1), 1, 1)}, 30);
  EXPECT_EQ(r3[0].path, Path::kMicroflowHit);
}

// The concurrency smoke test the TSan and ASan CI jobs run: four workers
// pump bursts through the pool while the control thread churns install /
// update_actions / remove / purge_dead over an overlapping rule set. EMC
// slots keep pointing at removed entries until purge_dead() sweeps the
// shards, so a sweep that missed one would show as a use-after-free.
TEST(MtDatapathTest, ConcurrentChurnStress) {
  DatapathConfig cfg;
  cfg.n_workers = 4;
  cfg.microflow_sets = 256;  // 512 slots per shard
  Datapath dp(cfg);

  constexpr int kPrefixes = 16;
  std::vector<MegaflowEntry*> live(kPrefixes, nullptr);
  for (int i = 0; i < kPrefixes; ++i) {
    live[i] = dp.install(
        MatchBuilder().ip().nw_dst_prefix(Ipv4(uint8_t(10 + i), 0, 0, 0), 8),
        DpActions().output(uint32_t(i + 1)), 0);
    ASSERT_NE(live[i], nullptr);
  }

  std::atomic<uint64_t> delivered{0};
  dp.set_batch_callback(
      [&](size_t, std::span<const Datapath::RxResult> res) {
        // Touch every result: actions pointers must stay valid for the
        // whole read-side critical section even while the control thread
        // removes and retires entries.
        uint64_t n = 0;
        for (const auto& r : res)
          if (r.actions != nullptr && !r.actions->drops()) ++n;
        delivered.fetch_add(n, std::memory_order_relaxed);
      });
  dp.start();

  constexpr int kBursts = 200;
  constexpr size_t kBurstLen = 32;
  std::atomic<bool> stop_ctl{false};
  std::thread control([&] {
    Rng rng(0xC0117);
    uint64_t now = 0;
    while (!stop_ctl.load(std::memory_order_relaxed)) {
      const int i = static_cast<int>(rng.uniform(kPrefixes));
      if (live[i] != nullptr) {
        if (rng.uniform(2) == 0) {
          dp.update_actions(live[i], DpActions().output(rng.uniform(64) + 1));
        } else {
          dp.remove(live[i]);
          live[i] = nullptr;
        }
      } else {
        live[i] = dp.install(
            MatchBuilder().ip().nw_dst_prefix(
                Ipv4(uint8_t(10 + i), 0, 0, 0), 8),
            DpActions().output(uint32_t(i + 1)), now);
      }
      if (rng.uniform(4) == 0) dp.purge_dead();
      now += 1000;
    }
  });

  Rng rng(0xFEED);
  for (int b = 0; b < kBursts; ++b) {
    const size_t w = b % cfg.n_workers;
    std::vector<Packet> burst;
    burst.reserve(kBurstLen);
    for (size_t i = 0; i < kBurstLen; ++i) {
      burst.push_back(tcp_pkt(
          Ipv4(uint8_t(10 + rng.uniform(kPrefixes + 2)),  // some always-miss
               uint8_t(rng.uniform(4)), 1, 1),
          uint16_t(rng.uniform(8)), 80));
    }
    dp.submit(w, std::move(burst), uint64_t(b) * 1000);
    dp.take_upcalls(64);  // drain so the shared queue never stays full
  }
  dp.drain();
  stop_ctl.store(true, std::memory_order_relaxed);
  control.join();
  dp.stop();
  dp.purge_dead();

  const auto s = dp.stats();
  EXPECT_EQ(s.packets, uint64_t(kBursts) * kBurstLen);
  EXPECT_EQ(s.microflow_hits + s.megaflow_hits + s.misses, s.packets);
  EXPECT_GT(delivered.load(), 0u);
}

// Property test: Datapath::process_batch is observably identical to calling
// receive() per packet — same per-packet path and actions, same upcall queue,
// same per-entry statistics, same datapath counters — across randomized
// workloads, both EMC settings and one or four workers. The only licensed
// divergence is the cumulative tuples_searched counter: deduplicated burst
// followers never physically probe a table.
// Installs the same K /8 megaflows into both datapaths; dsts 10.x–(10+K-1).x
// are covered, anything above misses.
void fill(Datapath& dp, int k) {
  for (int i = 0; i < k; ++i) {
    dp.install(MatchBuilder().ip().nw_dst_prefix(
                   Ipv4(uint8_t(10 + i), 0, 0, 0), 8),
               DpActions().output(uint32_t(i + 1)), 0);
  }
}

// A workload mixing repeated microflows (intra-burst dedup), distinct
// microflows sharing megaflows (group stats), and uncovered dsts (misses).
std::vector<Packet> random_workload(Rng& rng, size_t n, int k) {
  std::vector<Packet> pkts;
  pkts.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    const uint8_t oct = uint8_t(10 + rng.uniform(size_t(k) + 2));
    pkts.push_back(dp_tcp_pkt(Ipv4(oct, uint8_t(rng.uniform(3)), 0, 1),
                              uint16_t(rng.uniform(6)), 80));
  }
  return pkts;
}

// Bursts rotate across the workers the way Switch drives them; burst b of
// both runs lands on worker b % n_workers, so each EMC shard sees the same
// packet sequence per-packet and batched.
void expect_equivalent(Datapath& seq, Datapath& bat,
                       const std::vector<Packet>& pkts, size_t batch_size,
                       uint64_t t0) {
  const size_t workers = seq.n_workers();
  // Sequential reference: one receive() per packet.
  std::vector<Datapath::RxResult> want;
  want.reserve(pkts.size());
  uint64_t now = t0;
  for (size_t off = 0, b = 0; off < pkts.size(); off += batch_size, ++b) {
    const size_t n = std::min(batch_size, pkts.size() - off);
    for (size_t i = 0; i < n; ++i)
      want.push_back(seq.receive(pkts[off + i], now, b % workers));
    now += 1000;
  }

  // Batched run over the same virtual timestamps.
  std::vector<Datapath::RxResult> got(pkts.size());
  now = t0;
  for (size_t off = 0, b = 0; off < pkts.size(); off += batch_size, ++b) {
    const size_t n = std::min(batch_size, pkts.size() - off);
    bat.process_batch(b % workers,
                      std::span<const Packet>(pkts.data() + off, n), now,
                      got.data() + off);
    now += 1000;
  }

  for (size_t i = 0; i < pkts.size(); ++i) {
    EXPECT_EQ(got[i].path, want[i].path) << "packet " << i;
    const bool want_null = want[i].actions == nullptr;
    const bool got_null = got[i].actions == nullptr;
    ASSERT_EQ(got_null, want_null) << "packet " << i;
    if (!want_null) {
      EXPECT_EQ(got[i].actions->to_string(), want[i].actions->to_string())
          << "packet " << i;
    }
  }

  // Upcall queues: same packets in the same order.
  auto uq_s = seq.take_upcalls(pkts.size() + 1);
  auto uq_b = bat.take_upcalls(pkts.size() + 1);
  ASSERT_EQ(uq_b.size(), uq_s.size());
  for (size_t i = 0; i < uq_s.size(); ++i)
    EXPECT_EQ(uq_b[i].key, uq_s[i].key) << "upcall " << i;

  // Per-entry statistics (same install order => same dump order).
  auto es = seq.dump();
  auto eb = bat.dump();
  ASSERT_EQ(eb.size(), es.size());
  for (size_t i = 0; i < es.size(); ++i) {
    EXPECT_EQ(eb[i]->packets(), es[i]->packets()) << "entry " << i;
    EXPECT_EQ(eb[i]->bytes(), es[i]->bytes()) << "entry " << i;
    EXPECT_EQ(eb[i]->used_ns(), es[i]->used_ns()) << "entry " << i;
  }

  // Datapath counters, minus the licensed tuples_searched divergence.
  const auto ss = seq.stats();
  const auto sb = bat.stats();
  EXPECT_EQ(sb.packets, ss.packets);
  EXPECT_EQ(sb.microflow_hits, ss.microflow_hits);
  EXPECT_EQ(sb.megaflow_hits, ss.megaflow_hits);
  EXPECT_EQ(sb.misses, ss.misses);
  EXPECT_EQ(sb.upcall_drops, ss.upcall_drops);
  EXPECT_EQ(sb.stale_microflow_hits, ss.stale_microflow_hits);
}

class BatchEquivalence
    : public ::testing::TestWithParam<std::tuple<bool, bool, size_t>> {};

TEST_P(BatchEquivalence, RandomWorkloads) {
  const auto [microflow, four_workers, batch_size] = GetParam();
  DatapathConfig cfg;
  cfg.microflow_enabled = microflow;
  cfg.n_workers = four_workers ? 4 : 1;

  for (uint64_t seed : {0x1ull, 0xBEEFull, 0x5EEDull}) {
    Datapath seq(cfg), bat(cfg);
    fill(seq, 6);
    fill(bat, 6);
    Rng rng(seed);
    const auto pkts = random_workload(rng, 400, 6);
    expect_equivalent(seq, bat, pkts, batch_size, /*t0=*/1000);
  }
}

INSTANTIATE_TEST_SUITE_P(
    FlagMatrix, BatchEquivalence,
    ::testing::Combine(::testing::Bool(),          // microflow_enabled
                       ::testing::Bool(),          // four workers (else one)
                       ::testing::Values<size_t>(1, 8, 32, 128, 300)));

// Removal mid-stream: batches must see the same stale-EMC corrections the
// sequential path sees.
TEST(BatchEquivalenceTest, RemovalStaleness) {
  for (size_t workers : {1, 4}) {
    DatapathConfig cfg;
    cfg.n_workers = workers;
    Datapath seq(cfg), bat(cfg);
    fill(seq, 2);
    fill(bat, 2);

    Rng rng(0xDEAD);
    auto warm = random_workload(rng, 64, 2);
    expect_equivalent(seq, bat, warm, 16, 1000);

    // Remove the first megaflow from both; EMC entries become stale.
    seq.remove(seq.dump()[0]);
    bat.remove(bat.dump()[0]);

    Rng rng2(0xDEAD);
    auto after = random_workload(rng2, 64, 2);
    expect_equivalent(seq, bat, after, 16, 200000);

    seq.purge_dead();
    bat.purge_dead();
    Rng rng3(0xF00D);
    auto post_purge = random_workload(rng3, 64, 2);
    expect_equivalent(seq, bat, post_purge, 16, 400000);
  }
}

}  // namespace
}  // namespace ovs
