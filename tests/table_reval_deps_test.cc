// Flow-table dependencies in revalidation (§6, DESIGN.md §8): under
// kTwoTier a flow-mod re-translates only the megaflows it can reach — those
// whose translation won a removed rule, or visited a table where an added
// rule intersects the megaflow's region at or above that visit's winner.
// Everything else keeps the tier-1 skip and keeps feeding rule statistics.
// Record overflow, log overflow and crash/restart fall back to full passes.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <span>
#include <string>
#include <tuple>
#include <vector>

#include "sim/clock.h"
#include "util/rng.h"
#include "vswitchd/switch.h"
#include "workload/table_gen.h"

namespace ovs {
namespace {

constexpr uint32_t kOutA = 10;  // tenant 1's egress port
constexpr uint32_t kOutB = 11;  // tenant 2's egress port
constexpr uint16_t kDports[] = {22, 80, 443, 8080};

Packet pkt(uint32_t in_port, uint16_t dport, uint16_t sport = 1000) {
  Packet p;
  p.key.set_in_port(in_port);
  p.key.set_eth_type(ethertype::kIpv4);
  p.key.set_nw_proto(ipproto::kTcp);
  p.key.set_nw_src(Ipv4(10, 0, 0, static_cast<uint8_t>(in_port)));
  p.key.set_nw_dst(Ipv4(10, 0, 1, 1));
  p.key.set_tp_src(sport);
  p.key.set_tp_dst(dport);
  p.size_bytes = 100;
  return p;
}

// An NVP-shaped pipeline with two tenants. Table 0 maps the ingress port to
// a tenant in metadata; table 1 drops tcp/22 per tenant (priority 20) and
// otherwise writes the tenant's egress port to reg1 (priority 1); table 2
// outputs by reg1. Port tries are off so every megaflow pins tp_dst
// exactly: one megaflow per (ingress port, destination port), eight in all.
class TableRevalDepsTest : public ::testing::Test {
 protected:
  void build(SwitchConfig cfg = {}) {
    cfg.idle_timeout_ns = 1000 * kSecond;  // flows never idle out here
    cfg.classifier.port_prefix_tracking = false;
    sw_ = std::make_unique<Switch>(cfg);
    for (uint32_t p : {1u, 2u, kOutA, kOutB}) sw_->add_port(p);
    for (uint64_t t : {1u, 2u}) {
      sw_->table(0).add_flow(
          MatchBuilder().in_port(static_cast<uint32_t>(t)), 10,
          OfActions().set_field(FieldId::kMetadata, t).resubmit(1));
      sw_->table(1).add_flow(MatchBuilder().metadata(t).tcp().tp_dst(22), 20,
                             OfActions::drop());
      sw_->table(1).add_flow(MatchBuilder().metadata(t), 1,
                             OfActions().set_reg(1, out(t)).resubmit(2));
      sw_->table(2).add_flow(MatchBuilder().reg(1, out(t)), 10,
                             OfActions().output(out(t)));
    }
    sw_->set_trace_hook(
        [this](const Packet&, const DpActions& a, Datapath::Path) {
          last_actions_ = a.to_string();
        });
    for (uint32_t in : {1u, 2u})
      for (uint16_t d : kDports) send(pkt(in, d));
    ASSERT_EQ(sw_->datapath().flow_count(), 8u);
    tick();  // settle: the setup's port and rule changes
  }

  static uint32_t out(uint64_t tenant) { return tenant == 1 ? kOutA : kOutB; }

  // The datapath actions of a tenant's forwarded packet.
  static std::string fwd(uint64_t tenant, uint32_t port) {
    return "set(metadata=" + std::to_string(tenant) + "),set(reg1=" +
           std::to_string(port) + "),output:" + std::to_string(port);
  }

  std::string send(const Packet& p) {
    last_actions_.clear();
    if (sw_->inject(p, clock_.now()) == Datapath::Path::kMiss)
      sw_->handle_upcalls(clock_.now());
    return last_actions_;
  }

  const RevalPassStats& tick(uint64_t dt = kSecond) {
    clock_.advance(dt);
    sw_->run_maintenance(clock_.now());
    return sw_->last_reval_pass();
  }

  const OfRule* find_rule(size_t table, const Match& m, int32_t prio) {
    const OfRule* found = nullptr;
    sw_->table(table).for_each([&](const OfRule* r) {
      if (r->priority() == prio && r->match() == m) found = r;
    });
    return found;
  }

  std::unique_ptr<Switch> sw_;
  VirtualClock clock_;
  std::string last_actions_;
};

TEST_F(TableRevalDepsTest, IntersectingAddRetranslates) {
  build();
  EXPECT_EQ(send(pkt(1, 80)), fwd(1, 10));
  sw_->table(1).add_flow(MatchBuilder().metadata(1).tcp().tp_dst(80), 20,
                         OfActions::drop());
  const uint64_t updated0 = sw_->counters().reval_updated_actions;
  const RevalPassStats& ps = tick();
  EXPECT_EQ(ps.examined, 8u);
  EXPECT_EQ(ps.retranslated, 1u);
  EXPECT_EQ(ps.skipped_by_tags, 7u);
  EXPECT_EQ(sw_->counters().reval_updated_actions, updated0 + 1);
  EXPECT_EQ(send(pkt(1, 80, 2000)), "drop");
  EXPECT_EQ(send(pkt(2, 80)), fwd(2, 11));
  EXPECT_EQ(send(pkt(1, 443)), fwd(1, 10));
}

TEST_F(TableRevalDepsTest, AddOnAnotherTenantSkips) {
  build();
  // Every packet arrives with metadata 0; table 0 rewrites it. An add for a
  // tenant no flow belongs to reaches nothing...
  sw_->table(1).add_flow(MatchBuilder().metadata(3).tcp().tp_dst(80), 20,
                         OfActions::drop());
  EXPECT_EQ(tick().retranslated, 0u);
  // ...and one for tenant 2 reaches tenant 2's port-80 flow only: the
  // rewritten metadata value decides, not the packet's own.
  sw_->table(1).add_flow(MatchBuilder().metadata(2).tcp().tp_dst(80), 20,
                         OfActions::drop());
  EXPECT_EQ(tick().retranslated, 1u);
  EXPECT_EQ(send(pkt(2, 80, 2000)), "drop");
  EXPECT_EQ(send(pkt(1, 80, 2000)), fwd(1, 10));
}

TEST_F(TableRevalDepsTest, AddWithoutMetadataReachesEveryTenant) {
  build();
  sw_->table(1).add_flow(MatchBuilder().tcp().tp_dst(80), 20,
                         OfActions::drop());
  EXPECT_EQ(tick().retranslated, 2u);
  EXPECT_EQ(send(pkt(1, 80, 2000)), "drop");
  EXPECT_EQ(send(pkt(2, 80, 2000)), "drop");
}

TEST_F(TableRevalDepsTest, AddBelowWinnerSkips) {
  build();
  // Intersects tenant 1's port-80 megaflow, but below its table-1 winner
  // (priority 1), so it can never win that lookup.
  sw_->table(1).add_flow(MatchBuilder().metadata(1).tcp().tp_dst(80), 0,
                         OfActions::drop());
  EXPECT_EQ(tick().retranslated, 0u);
  EXPECT_EQ(send(pkt(1, 80, 2000)), fwd(1, 10));
  // At the winner's priority it might win: re-translated.
  sw_->table(1).add_flow(MatchBuilder().metadata(1).tcp().tp_dst(443), 1,
                         OfActions::drop());
  EXPECT_EQ(tick().retranslated, 1u);
}

TEST_F(TableRevalDepsTest, DeleteWinnerRetranslatesNonWinnerSkips) {
  build();
  EXPECT_EQ(send(pkt(1, 22)), "drop");
  // A rule no flow won: deleting it reaches nothing.
  sw_->table(1).add_flow(MatchBuilder().metadata(1).tcp().tp_dst(9999), 20,
                         OfActions::drop());
  EXPECT_EQ(tick().retranslated, 0u);
  ASSERT_TRUE(sw_->table(1).delete_flow(
      MatchBuilder().metadata(1).tcp().tp_dst(9999), 20));
  EXPECT_EQ(tick().retranslated, 0u);
  // Tenant 1's tcp/22 drop is its port-22 flow's winner.
  ASSERT_TRUE(sw_->table(1).delete_flow(
      MatchBuilder().metadata(1).tcp().tp_dst(22), 20));
  EXPECT_EQ(tick().retranslated, 1u);
  EXPECT_EQ(send(pkt(1, 22, 2000)), fwd(1, 10));
  EXPECT_EQ(send(pkt(2, 22, 2000)), "drop");
}

TEST_F(TableRevalDepsTest, SameMatchReplaceRetranslatesItsFlows) {
  build();
  // Replace tenant 1's default: the three flows that won it (not the
  // port-22 drop, whose winner outranks the new rule) are re-translated.
  sw_->table(1).add_flow(MatchBuilder().metadata(1), 1,
                         OfActions().set_reg(1, kOutB).resubmit(2));
  EXPECT_EQ(tick().retranslated, 3u);
  EXPECT_EQ(send(pkt(1, 80, 2000)), fwd(1, 11));
  EXPECT_EQ(send(pkt(1, 22, 2000)), "drop");
}

TEST_F(TableRevalDepsTest, HardTimeoutExpiryRetranslatesItsFlows) {
  build();
  FlowTimeouts to;
  to.hard_ns = 2 * kSecond;
  sw_->table(1).add_flow(MatchBuilder().metadata(2).tcp().tp_dst(443), 20,
                         OfActions().output(kOutA), 0, to, clock_.now());
  EXPECT_EQ(tick().retranslated, 1u);
  EXPECT_EQ(send(pkt(2, 443, 2000)), "set(metadata=2),output:10");
  // The expiry runs after the pass that reaches it; the next pass repairs
  // exactly the flow that won the expired rule.
  tick(3 * kSecond);
  EXPECT_EQ(sw_->table(1).flow_count(), 4u);
  EXPECT_EQ(tick().retranslated, 1u);
  EXPECT_EQ(send(pkt(2, 443, 2001)), fwd(2, 11));
}

TEST_F(TableRevalDepsTest, DeleteWhereRetranslatesItsFlows) {
  build();
  size_t n = 0;
  ASSERT_EQ(sw_->del_flows("table=1, tcp, tp_dst=22", &n), "");
  EXPECT_EQ(n, 2u);
  EXPECT_EQ(tick().retranslated, 2u);
  EXPECT_EQ(send(pkt(1, 22, 2000)), fwd(1, 10));
  EXPECT_EQ(send(pkt(2, 22, 2000)), fwd(2, 11));
}

TEST_F(TableRevalDepsTest, RuleStatsKeepCountingAcrossUnrelatedFlowMod) {
  build();
  const OfRule* dflt = find_rule(1, MatchBuilder().metadata(1), 1);
  ASSERT_NE(dflt, nullptr);
  tick();
  const uint64_t before = dflt->packets();
  for (int i = 0; i < 5; ++i) send(pkt(1, 80, 3000));
  sw_->table(1).add_flow(MatchBuilder().metadata(3), 1, OfActions::drop());
  const RevalPassStats& ps = tick();
  EXPECT_EQ(ps.retranslated, 0u);
  EXPECT_EQ(dflt->packets(), before + 5);
  for (int i = 0; i < 3; ++i) send(pkt(1, 443, 3000));
  tick();
  EXPECT_EQ(dflt->packets(), before + 8);
}

TEST_F(TableRevalDepsTest, RecordOverflowFallsBackToFull) {
  SwitchConfig cfg;
  cfg.idle_timeout_ns = 1000 * kSecond;
  sw_ = std::make_unique<Switch>(cfg);
  sw_->add_port(1);
  sw_->add_port(2);
  // Port 1 walks a resubmit chain through every table: more visits than a
  // record holds. Port 2 takes one lookup.
  sw_->table(0).add_flow(MatchBuilder().in_port(1), 10,
                         OfActions().resubmit(1));
  for (size_t t = 1; t + 1 < sw_->pipeline().n_tables(); ++t)
    sw_->table(t).add_flow(MatchBuilder(), 1,
                           OfActions().resubmit(static_cast<uint8_t>(t + 1)));
  sw_->table(sw_->pipeline().n_tables() - 1)
      .add_flow(MatchBuilder(), 1, OfActions().output(2));
  sw_->table(0).add_flow(MatchBuilder().in_port(2), 10,
                         OfActions().output(1));
  ASSERT_GT(sw_->pipeline().n_tables(), TableDeps::kMaxVisits);
  send(pkt(1, 80));
  send(pkt(2, 80));
  ASSERT_EQ(sw_->datapath().flow_count(), 2u);
  tick();
  // A rule neither flow can reach: the overflowed record still counts it.
  sw_->table(0).add_flow(MatchBuilder().in_port(7), 10, OfActions::drop());
  EXPECT_EQ(tick().retranslated, 1u);
}

TEST_F(TableRevalDepsTest, LogOverflowFallsBackToFull) {
  build();
  for (size_t i = 0; i <= TableChangeLog::kCap; ++i)
    sw_->table(1).add_flow(
        MatchBuilder().metadata(3).tcp().tp_dst(static_cast<uint16_t>(i)), 20,
        OfActions::drop());
  const RevalPassStats& ps = tick();
  EXPECT_EQ(ps.retranslated, ps.examined);
  EXPECT_EQ(ps.skipped_by_tags, 0u);
  // The overflow was drained with that pass.
  EXPECT_EQ(tick().retranslated, 0u);
}

TEST_F(TableRevalDepsTest, CrashRestartIsFull) {
  build();
  sw_->crash();
  clock_.advance(kSecond);
  ASSERT_TRUE(sw_->restart(clock_.now()));
  const RevalPassStats& ps = sw_->last_reval_pass();
  EXPECT_EQ(ps.examined, 8u);
  EXPECT_EQ(ps.retranslated, 8u);
  // The rebuild's rule adds were covered by that forced-full pass.
  EXPECT_EQ(tick().retranslated, 0u);
  sw_->table(1).add_flow(MatchBuilder().metadata(1).tcp().tp_dst(80), 20,
                         OfActions::drop());
  EXPECT_EQ(tick().retranslated, 1u);
  EXPECT_EQ(send(pkt(1, 80, 2000)), "drop");
}

TEST_F(TableRevalDepsTest, FullModeStillRetranslatesEverything) {
  SwitchConfig cfg;
  cfg.reval_mode = RevalidationMode::kFull;
  build(cfg);
  sw_->table(1).add_flow(MatchBuilder().metadata(3), 1, OfActions::drop());
  EXPECT_EQ(tick().retranslated, 8u);
}

// Property: seeded random ACL adds, ACL deletes and L2 re-points on the NVP
// pipeline. After every maintenance pass, every installed megaflow must
// agree with a fresh translation of keys sampled inside its region: its
// witness key, plus keys whose wildcarded bits take random values or values
// the rules and the traffic use (a random 16-bit port would almost never
// land on an ACL's port).
class TableRevalDepsProperty
    : public ::testing::TestWithParam<std::tuple<size_t, size_t>> {};

TEST_P(TableRevalDepsProperty, MegaflowRegionsMatchFreshTranslation) {
  const auto [workers, rx_batch] = GetParam();
  SwitchConfig cfg;
  cfg.datapath.n_workers = workers;
  cfg.revalidator_threads = workers;
  cfg.idle_timeout_ns = 1000 * kSecond;
  Switch sw(cfg);
  NvpConfig nvp;
  nvp.n_tenants = 4;
  nvp.vms_per_tenant = 4;
  nvp.seed = 5;
  const NvpTopology topo = install_nvp_pipeline(sw, nvp);

  std::vector<uint16_t> ports = {22, 80, 443, 8080};
  ports.insert(ports.end(), topo.blocked_ports.begin(),
               topo.blocked_ports.end());
  std::vector<uint64_t> macs, ips;
  for (const NvpVm& vm : topo.vms) {
    macs.push_back(vm.mac.bits());
    ips.push_back(vm.ip.value());
  }

  Rng rng(workers * 131 + rx_batch);
  VirtualClock clock;
  const auto random_pkt = [&] {
    const uint64_t tenant = 1 + rng.uniform(nvp.n_tenants);
    const std::vector<const NvpVm*> vms = topo.tenant_vms(tenant);
    const NvpVm& a = *vms[rng.uniform(vms.size())];
    const NvpVm& b = *vms[rng.uniform(vms.size())];
    return nvp_packet(a, b, static_cast<uint16_t>(1024 + rng.uniform(4)),
                      ports[rng.uniform(ports.size())]);
  };
  const auto offer = [&](size_t n) {
    std::vector<Packet> burst;
    for (size_t i = 0; i < n; ++i) burst.push_back(random_pkt());
    if (rx_batch == 1) {
      for (const Packet& p : burst) sw.inject(p, clock.now());
    } else {
      for (size_t i = 0; i < burst.size(); i += rx_batch)
        sw.inject_batch(std::span<const Packet>(burst).subspan(
                            i, std::min(rx_batch, burst.size() - i)),
                        clock.now());
    }
    sw.handle_upcalls(clock.now());
  };
  // Sets the wildcarded bits of `f` in `k` to `v`'s.
  const auto fill = [](FlowKey& k, const FlowMask& m, FieldId f, uint64_t v) {
    FlowKey tmp;
    tmp.set(f, v);
    const FieldInfo& fi = field_info(f);
    k.w[fi.word] = (k.w[fi.word] & m.w[fi.word]) |
                   (tmp.w[fi.word] & ~m.w[fi.word] &
                    (fi.width == 64 ? ~uint64_t{0}
                                    : ((uint64_t{1} << fi.width) - 1)
                                          << fi.shift));
  };
  const auto pick = [&](FieldId f) -> uint64_t {
    if (rng.chance(0.5)) return rng.next();
    switch (f) {
      case FieldId::kEthSrc:
      case FieldId::kEthDst:
        return macs[rng.uniform(macs.size())];
      case FieldId::kNwSrc:
      case FieldId::kNwDst:
        return ips[rng.uniform(ips.size())];
      default:
        return ports[rng.uniform(ports.size())];
    }
  };
  constexpr FieldId kSampled[] = {FieldId::kEthSrc, FieldId::kEthDst,
                                  FieldId::kNwSrc,  FieldId::kNwDst,
                                  FieldId::kTpSrc,  FieldId::kTpDst};

  std::vector<std::tuple<uint64_t, uint16_t>> acls;
  uint64_t skipped = 0, examined = 0;
  for (int round = 0; round < 40; ++round) {
    const int n_mods = 1 + static_cast<int>(rng.uniform(3));
    for (int m = 0; m < n_mods; ++m) {
      const uint64_t tenant = 1 + rng.uniform(nvp.n_tenants);
      const double r = rng.uniform_double();
      if (r < 0.4) {
        const uint16_t port = ports[rng.uniform(ports.size())];
        sw.add_flow(2, MatchBuilder().metadata(tenant).tcp().tp_dst(port), 20,
                    OfActions::drop());
        acls.emplace_back(tenant, port);
      } else if (r < 0.7 && !acls.empty()) {
        const size_t i = rng.uniform(acls.size());
        const auto [t, port] = acls[i];
        sw.del_flows("table=2, metadata=" + std::to_string(t) +
                     ", tcp, tp_dst=" + std::to_string(port));
        acls.erase(acls.begin() + static_cast<std::ptrdiff_t>(i));
      } else {
        // Re-point a VM's MAC at another port of its tenant (same-match
        // replace in the L2 table).
        const std::vector<const NvpVm*> vms = topo.tenant_vms(tenant);
        const NvpVm& vm = *vms[rng.uniform(vms.size())];
        const NvpVm& to = *vms[rng.uniform(vms.size())];
        sw.add_flow(1, MatchBuilder().metadata(tenant).eth_dst(vm.mac), 10,
                    OfActions().set_reg(1, to.port).resubmit(2));
      }
    }
    offer(48);
    clock.advance(kSecond);
    sw.run_maintenance(clock.now());
    const RevalPassStats& ps = sw.last_reval_pass();
    examined += ps.examined;
    skipped += ps.skipped_by_tags;

    for (const MegaflowEntry* f : sw.datapath().dump()) {
      const FlowMask& mask = f->match().mask;
      for (int s = 0; s < 8; ++s) {
        FlowKey k = f->full_key();
        if (s > 0)
          for (FieldId fid : kSampled) fill(k, mask, fid, pick(fid));
        ASSERT_TRUE(f->match().matches(k));
        const XlateResult xr = sw.pipeline().evaluate(k, clock.now());
        ASSERT_EQ(xr.actions.to_string(), f->actions().to_string())
            << "round " << round << " sample " << s << " of megaflow "
            << f->match().to_string();
      }
    }
  }
  // Non-vacuous: most of the work was skipped.
  EXPECT_GT(skipped * 2, examined);
}

INSTANTIATE_TEST_SUITE_P(
    WorkersAndBatching, TableRevalDepsProperty,
    ::testing::Combine(::testing::Values(size_t{1}, size_t{4}),
                       ::testing::Values(size_t{1}, size_t{8})),
    [](const ::testing::TestParamInfo<std::tuple<size_t, size_t>>& param_info) {
      std::string name = "w";
      name += std::to_string(std::get<0>(param_info.param));
      name += std::get<1>(param_info.param) == 1 ? "_per_pkt" : "_batched";
      return name;
    });

}  // namespace
}  // namespace ovs
