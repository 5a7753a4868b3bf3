// Exact conntrack dependencies in revalidation (§6, DESIGN.md §15): a
// conntrack change re-translates only the megaflows whose translation looked
// up a connection that changed; every other flow keeps the tier-1 skip.
// Crash/restart, a tracker flush and kFull still re-translate everything.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "sim/clock.h"
#include "util/rng.h"
#include "vswitchd/switch.h"

namespace ovs {
namespace {

constexpr size_t kConns = 8;
constexpr uint32_t kEstPort = 2;  // ct_state=est -> here
constexpr uint32_t kNewPort = 3;  // ct_state=new -> here

Packet conn_pkt(size_t i, uint16_t tcp_flags = 0) {
  Packet p;
  p.key.set_in_port(1);
  p.key.set_eth_type(ethertype::kIpv4);
  p.key.set_nw_proto(ipproto::kTcp);
  p.key.set_nw_src(Ipv4(10, 0, 0, 1));
  p.key.set_nw_dst(Ipv4(20, 0, 0, 1));
  p.key.set_tp_src(static_cast<uint16_t>(1000 + i));
  p.key.set_tp_dst(80);
  p.key.set_tcp_flags(tcp_flags);
  p.size_bytes = 64;
  return p;
}

class CtRevalDepsTest : public ::testing::Test {
 protected:
  // Table 0 sends IP through ct (lookup only, or committing) into table 1,
  // which forwards by ct_state. Every resulting megaflow is per-connection.
  void build(SwitchConfig cfg, bool commit_in_pipeline = false) {
    cfg.idle_timeout_ns = 1000 * kSecond;  // flows never idle out here
    sw_ = std::make_unique<Switch>(cfg);
    for (uint32_t p : {1u, kEstPort, kNewPort}) sw_->add_port(p);
    sw_->table(0).add_flow(MatchBuilder().ip(), 10,
                           OfActions().ct(1, commit_in_pipeline));
    sw_->table(1).add_flow(MatchBuilder().ct_state(ct_state::kEstablished),
                           10, OfActions().output(kEstPort));
    sw_->table(1).add_flow(MatchBuilder().ct_state(ct_state::kNew), 10,
                           OfActions().output(kNewPort));
    sw_->set_trace_hook(
        [this](const Packet&, const DpActions& a, Datapath::Path) {
          last_actions_ = a.to_string();
        });
  }

  // Forwards one packet (through an upcall if it misses) and returns the
  // action list it was forwarded with.
  std::string send(const Packet& p) {
    last_actions_.clear();
    if (sw_->inject(p, clock_.now()) == Datapath::Path::kMiss)
      sw_->handle_upcalls(clock_.now());
    return last_actions_;
  }

  void install_all() {
    for (size_t i = 0; i < kConns; ++i) send(conn_pkt(i));
    ASSERT_EQ(sw_->datapath().flow_count(), kConns);
  }

  const RevalPassStats& tick(uint64_t dt = kSecond) {
    clock_.advance(dt);
    sw_->run_maintenance(clock_.now());
    return sw_->last_reval_pass();
  }

  std::unique_ptr<Switch> sw_;
  VirtualClock clock_;
  std::string last_actions_;
};

TEST_F(CtRevalDepsTest, CommitRetranslatesOnlyThatConnection) {
  build({});
  install_all();
  EXPECT_EQ(send(conn_pkt(3)), "output:3");
  tick();  // settle: nothing changed since install

  ASSERT_TRUE(sw_->ct_commit(conn_pkt(3).key, 0, clock_.now()));
  const uint64_t updated0 = sw_->counters().reval_updated_actions;
  const RevalPassStats& ps = tick();
  EXPECT_EQ(ps.examined, kConns);
  EXPECT_EQ(ps.retranslated, 1u);
  EXPECT_EQ(ps.skipped_by_tags, kConns - 1);
  EXPECT_EQ(ps.skipped_ct_clean, kConns - 1);
  EXPECT_EQ(sw_->counters().reval_skipped_ct_clean, kConns - 1);
  EXPECT_EQ(sw_->counters().reval_updated_actions, updated0 + 1);
  // The repaired flow forwards established; the others still see new.
  EXPECT_EQ(send(conn_pkt(3)), "output:2");
  EXPECT_EQ(send(conn_pkt(4)), "output:3");

  // An idempotent re-commit changes no answer: no pass work at all.
  EXPECT_FALSE(sw_->ct_commit(conn_pkt(3).key, 0, clock_.now()));
  EXPECT_EQ(tick().retranslated, 0u);
}

TEST_F(CtRevalDepsTest, RemoveRetranslatesOnlyThatConnection) {
  build({});
  for (size_t i = 0; i < kConns; ++i)
    sw_->ct_commit(conn_pkt(i).key, 0, clock_.now());
  install_all();
  tick();
  ASSERT_TRUE(sw_->ct_remove(conn_pkt(5).key, 0));
  const RevalPassStats& ps = tick();
  EXPECT_EQ(ps.retranslated, 1u);
  EXPECT_EQ(ps.skipped_ct_clean, kConns - 1);
  EXPECT_EQ(send(conn_pkt(5)), "output:3");
  EXPECT_EQ(send(conn_pkt(6)), "output:2");
}

TEST_F(CtRevalDepsTest, ExpiryRetranslatesOnlyExpiredConnections) {
  SwitchConfig cfg;
  cfg.ct_idle_timeout_ns = 5 * kSecond;
  build(cfg);
  // Connections 0 and 1 commit 3 s before the rest, so they alone idle out.
  sw_->ct_commit(conn_pkt(0).key, 0, clock_.now());
  sw_->ct_commit(conn_pkt(1).key, 0, clock_.now());
  clock_.advance(3 * kSecond);
  for (size_t i = 2; i < kConns; ++i)
    sw_->ct_commit(conn_pkt(i).key, 0, clock_.now());
  install_all();
  tick(kSecond);  // t = 4 s: nothing expired yet
  EXPECT_EQ(sw_->conntrack().size(), kConns);

  const RevalPassStats& ps = tick(kSecond);  // t = 5 s: 0 and 1 expire
  EXPECT_EQ(sw_->counters().ct_expired_idle, 2u);
  EXPECT_EQ(ps.retranslated, 2u);
  EXPECT_EQ(ps.skipped_ct_clean, kConns - 2);
  EXPECT_EQ(send(conn_pkt(0)), "output:3");
  EXPECT_EQ(send(conn_pkt(1)), "output:3");
  EXPECT_EQ(send(conn_pkt(2)), "output:2");
}

TEST_F(CtRevalDepsTest, NatCommitRetranslatesReplyFlowOfReverseEntry) {
  build({});
  install_all();
  // A reply addressed to the post-SNAT tuple of connection 2: it consults
  // the reverse entry's tuple, which commit_nat creates.
  Packet reply;
  reply.key.set_in_port(1);
  reply.key.set_eth_type(ethertype::kIpv4);
  reply.key.set_nw_proto(ipproto::kTcp);
  reply.key.set_nw_src(Ipv4(20, 0, 0, 1));
  reply.key.set_nw_dst(Ipv4(192, 0, 2, 9));
  reply.key.set_tp_src(80);
  reply.key.set_tp_dst(40001);
  EXPECT_EQ(send(reply), "output:3");
  tick();

  const CtNatSpec nat{/*src=*/true, Ipv4(192, 0, 2, 9).value(), 40001};
  ASSERT_TRUE(sw_->ct_commit_nat(conn_pkt(2).key, nat, 0, clock_.now()));
  const RevalPassStats& ps = tick();
  EXPECT_EQ(ps.examined, kConns + 1);
  EXPECT_EQ(ps.retranslated, 2u);  // connection 2 and the reply flow
  EXPECT_EQ(ps.skipped_ct_clean, kConns - 1);
}

TEST_F(CtRevalDepsTest, SelfCommittingUpcallIsRetranslatedNextPass) {
  build({}, /*commit_in_pipeline=*/true);
  tick();  // settle the table generation before any traffic
  // The SYN's translation commits its own connection, so the megaflow it
  // installs carries the pre-commit ct_state.
  EXPECT_EQ(send(conn_pkt(0, /*SYN*/ 0x02)), "output:3");
  EXPECT_EQ(sw_->conntrack().size(), 1u);
  const uint64_t updated0 = sw_->counters().reval_updated_actions;
  EXPECT_EQ(tick().retranslated, 1u);
  EXPECT_EQ(sw_->counters().reval_updated_actions, updated0 + 1);
  EXPECT_EQ(send(conn_pkt(0, 0x02)), "output:2");

  // The ACK's translation runs after the commit and only refreshes it: its
  // megaflow is current, and nothing needs a pass.
  EXPECT_EQ(send(conn_pkt(0, /*ACK*/ 0x10)), "output:2");
  EXPECT_EQ(sw_->datapath().flow_count(), 2u);
  EXPECT_EQ(tick().retranslated, 0u);

  // A second connection's self-commit touches its own megaflow only.
  EXPECT_EQ(send(conn_pkt(1, 0x02)), "output:3");
  const RevalPassStats& ps = tick();
  EXPECT_EQ(ps.retranslated, 1u);
  EXPECT_EQ(ps.skipped_ct_clean, 2u);
}

TEST_F(CtRevalDepsTest, FlushRetranslatesEverything) {
  build({});
  for (size_t i = 0; i < kConns; ++i)
    sw_->ct_commit(conn_pkt(i).key, 0, clock_.now());
  install_all();
  tick();
  sw_->pipeline().conntrack().flush();
  const RevalPassStats& ps = tick();
  EXPECT_EQ(ps.retranslated, kConns);
  EXPECT_EQ(ps.skipped_by_tags, 0u);
  for (size_t i = 0; i < kConns; ++i)
    EXPECT_EQ(send(conn_pkt(i)), "output:3") << i;
}

TEST_F(CtRevalDepsTest, CrashRestartRetranslatesEverything) {
  build({});
  for (size_t i = 0; i < kConns; ++i)
    sw_->ct_commit(conn_pkt(i).key, 0, clock_.now());
  install_all();
  tick();
  sw_->crash();
  tick();  // restart: forced-full reconciliation
  ASSERT_EQ(sw_->lifecycle(), LifecycleState::kServing);
  EXPECT_EQ(sw_->last_reval_pass().retranslated, kConns);
  // Conntrack died with the daemon: every connection reads new again.
  for (size_t i = 0; i < kConns; ++i)
    EXPECT_EQ(send(conn_pkt(i)), "output:3") << i;
  // The adopted flows carry the rebuilt tracker's stamps: one commit
  // afterwards touches one flow.
  tick();
  sw_->ct_commit(conn_pkt(4).key, 0, clock_.now());
  EXPECT_EQ(tick().retranslated, 1u);
}

TEST_F(CtRevalDepsTest, FullModeRetranslatesEverything) {
  SwitchConfig cfg;
  cfg.reval_mode = RevalidationMode::kFull;
  build(cfg);
  install_all();
  tick();
  sw_->ct_commit(conn_pkt(3).key, 0, clock_.now());
  const RevalPassStats& ps = tick();
  EXPECT_EQ(ps.retranslated, kConns);
  EXPECT_EQ(ps.skipped_ct_clean, 0u);
  EXPECT_EQ(send(conn_pkt(3)), "output:2");
}

// The deliberately unsound ablation keeps its meaning: conntrack changes
// alone never make a pass re-translate.
TEST_F(CtRevalDepsTest, AblationIgnoresConntrackChanges) {
  SwitchConfig cfg;
  cfg.ct_reval_dirty = false;
  build(cfg);
  install_all();
  tick();
  sw_->ct_commit(conn_pkt(3).key, 0, clock_.now());
  EXPECT_EQ(tick().retranslated, 0u);
  EXPECT_EQ(send(conn_pkt(3)), "output:3");  // stale, as designed
}

// Property, seeded: TCP_CRR-style traffic through a ct(commit) pipeline, so
// every connection commits itself during its first packet's upcall (the
// translation-time commits the differential fuzzer never makes), idles out
// of a small tracker, and is replaced by new ones. After every maintenance
// pass each megaflow's actions must equal a side-effect-free translation of
// its full key — at one and four datapath workers, per-packet and batched.
// A translation that took its conntrack stamp after its own commit would
// leave the committing megaflow stale here.
TEST(CtRevalDepsProperty, CrrCommitsLeaveNoStaleMegaflow) {
  for (size_t workers : {1, 4}) {
    for (size_t rx : {1, 8}) {
      for (uint64_t seed : {11, 22, 33}) {
        SCOPED_TRACE("workers=" + std::to_string(workers) +
                     " rx=" + std::to_string(rx) +
                     " seed=" + std::to_string(seed));
        SwitchConfig cfg;
        cfg.datapath.n_workers = workers;
        cfg.rx_batch = rx;
        cfg.ct_idle_timeout_ns = 2 * kSecond;
        Switch sw(cfg);
        for (uint32_t p : {1u, kEstPort, kNewPort}) sw.add_port(p);
        sw.table(0).add_flow(MatchBuilder().ip(), 10,
                             OfActions().ct(1, /*commit=*/true));
        sw.table(1).add_flow(MatchBuilder().ct_state(ct_state::kEstablished),
                             10, OfActions().output(kEstPort));
        sw.table(1).add_flow(MatchBuilder().ct_state(ct_state::kNew), 10,
                             OfActions().output(kNewPort));

        Rng rng(seed);
        VirtualClock clock;
        std::vector<size_t> live;  // connection ids with traffic flowing
        size_t next_conn = 0;
        std::vector<Packet> burst;
        auto offer = [&](const Packet& p) {
          if (rx == 1) {
            sw.inject(p, clock.now());
            return;
          }
          burst.push_back(p);
          if (burst.size() == rx) {
            sw.inject_batch(burst, clock.now());
            burst.clear();
          }
        };
        for (int second = 0; second < 12; ++second) {
          for (int tick = 0; tick < 10; ++tick) {
            // Connect: a SYN whose upcall commits the connection.
            for (size_t n = rng.uniform(3); n > 0; --n) {
              offer(conn_pkt(next_conn, /*SYN*/ 0x02));
              live.push_back(next_conn++);
            }
            // Request/response on live connections; some close, and their
            // entries idle out of the tracker later.
            for (int k = 0; k < 6 && !live.empty(); ++k) {
              const size_t at = rng.uniform(live.size());
              offer(conn_pkt(live[at], /*ACK*/ 0x10));
              if (rng.chance(0.15)) {
                live[at] = live.back();
                live.pop_back();
              }
            }
            if (!burst.empty()) {
              sw.inject_batch(burst, clock.now());
              burst.clear();
            }
            sw.handle_upcalls(clock.now());
            clock.advance(100 * kMillisecond);
          }
          sw.run_maintenance(clock.now());
          for (const MegaflowEntry* f : sw.datapath().dump()) {
            const XlateResult want = sw.pipeline().translate(
                f->full_key(), clock.now(), /*side_effects=*/false);
            ASSERT_EQ(f->actions(), want.actions)
                << "second " << second << ": " << f->match().to_string();
          }
        }
        // Not vacuous: self-committed megaflows were repaired, and
        // connections expired underneath installed flows.
        EXPECT_GT(sw.counters().reval_updated_actions, 0u);
        EXPECT_GT(sw.counters().ct_expired_idle, 0u);
      }
    }
  }
}

}  // namespace
}  // namespace ovs
