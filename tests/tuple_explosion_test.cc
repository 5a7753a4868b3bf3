// Tuple-space explosion defense tests (DESIGN.md §14): the per-tenant mask
// admission cap (exact-at-the-cap behavior, grandfathering on cap lowering,
// tenant isolation, rejection leaving no partial state), the tenant-
// partitioned classifier (winner equivalence against the linear oracle,
// wildcard soundness, shape introspection), and the mask-explosion detector
// (subtable-count and probe-EWMA triggers, hysteresis, recovery handoff).
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <vector>

#include "classifier/classifier.h"
#include "classifier/tenant_engine.h"
#include "sim/clock.h"
#include "test_util.h"
#include "util/rng.h"
#include "vswitchd/switch.h"
#include "workload/explosion.h"

namespace ovs {
namespace {

using testutil::RuleSet;
using testutil::TestRule;

// Installs the two-table tenant pipeline the attack rides: table 0 stamps
// metadata from the ingress port, table 1 holds per-tenant policy.
void add_tenant_pipeline(Switch& sw) {
  sw.add_port(1);
  sw.add_port(2);
  sw.table(0).add_flow(
      MatchBuilder().in_port(1), 10,
      OfActions().set_field(FieldId::kMetadata, 1).resubmit(1));
  sw.table(0).add_flow(
      MatchBuilder().in_port(2), 10,
      OfActions().set_field(FieldId::kMetadata, 2).resubmit(1));
}

Packet attack_base() {
  Packet p;
  p.key.set_in_port(1);
  p.key.set_eth_type(ethertype::kIpv4);
  p.key.set_nw_proto(ipproto::kTcp);
  return p;
}

// --- Admission control -----------------------------------------------------

TEST(TupleExplosionAdmission, CapAdmitsExactlyThenRejects) {
  SwitchConfig cfg;
  cfg.max_masks_per_tenant = 4;
  Switch sw(cfg);

  ExplosionConfig ec;
  ec.n_rules = 10;
  const ExplosionInstall ins = install_explosion_rules(sw, 1, ec);
  EXPECT_EQ(ins.installed, 4u);
  EXPECT_EQ(ins.rejected, 6u);
  EXPECT_EQ(sw.table(1).flow_count(), 4u);

  const Switch::Counters& c = sw.counters();
  EXPECT_EQ(c.flow_adds_attempted, 10u);
  EXPECT_EQ(c.flow_adds_admitted, 4u);
  EXPECT_EQ(c.rules_rejected_mask_cap, 6u);
  EXPECT_EQ(c.flow_adds_attempted,
            c.flow_adds_admitted + c.rules_rejected_mask_cap);
}

TEST(TupleExplosionAdmission, MaskReuseAdmittedAtTheCap) {
  SwitchConfig cfg;
  cfg.max_masks_per_tenant = 4;
  Switch sw(cfg);

  ExplosionConfig ec;
  ec.n_rules = 4;
  ASSERT_EQ(install_explosion_rules(sw, 1, ec).installed, 4u);

  // A new rule under an ALREADY-INSTALLED mask is not a new tuple: the cap
  // counts distinct masks, so reuse must be admitted even at the cap.
  Match reuse = make_explosion_rules(ec)[0];
  reuse.key.set(FieldId::kNwDst,
                reuse.key.get(FieldId::kNwDst) ^ 0xffff0000u);
  reuse.normalize();
  EXPECT_EQ(sw.add_flow(1, reuse, 20, OfActions::drop()), "");
  EXPECT_EQ(sw.table(1).flow_count(), 5u);

  // A fifth distinct mask is rejected.
  ExplosionConfig ec5 = ec;
  ec5.n_rules = 5;
  const Match fresh = make_explosion_rules(ec5)[4];
  EXPECT_NE(sw.add_flow(1, fresh, 20, OfActions::drop()), "");
  EXPECT_EQ(sw.table(1).flow_count(), 5u);
}

TEST(TupleExplosionAdmission, CapLoweringGrandfathersInstalledMasks) {
  SwitchConfig cfg;
  cfg.max_masks_per_tenant = 8;
  Switch sw(cfg);

  ExplosionConfig ec;
  ec.n_rules = 8;
  ASSERT_EQ(install_explosion_rules(sw, 1, ec).installed, 8u);

  // Lowering the cap below the installed mask count must not evict: the 8
  // rules stay, and rules reusing a grandfathered mask are still admitted.
  sw.set_max_masks_per_tenant(2);
  EXPECT_EQ(sw.table(1).flow_count(), 8u);

  Match reuse = make_explosion_rules(ec)[3];
  reuse.key.set(FieldId::kNwDst,
                reuse.key.get(FieldId::kNwDst) ^ 0x00ff0000u);
  reuse.normalize();
  EXPECT_EQ(sw.add_flow(1, reuse, 20, OfActions::drop()), "");
  EXPECT_EQ(sw.table(1).flow_count(), 9u);

  // Only genuinely NEW masks are held to the lowered cap.
  ExplosionConfig ec9 = ec;
  ec9.n_rules = 9;
  const Match fresh = make_explosion_rules(ec9)[8];
  EXPECT_NE(sw.add_flow(1, fresh, 20, OfActions::drop()), "");
  EXPECT_EQ(sw.table(1).flow_count(), 9u);
}

TEST(TupleExplosionAdmission, TenantAtCapDoesNotBlockOtherTenants) {
  SwitchConfig cfg;
  cfg.max_masks_per_tenant = 4;
  Switch sw(cfg);

  ExplosionConfig attacker;
  attacker.tenant = 1;
  attacker.n_rules = 8;
  const ExplosionInstall a = install_explosion_rules(sw, 1, attacker);
  EXPECT_EQ(a.installed, 4u);
  EXPECT_EQ(a.rejected, 4u);

  // The victim tenant's budget is its own.
  ExplosionConfig victim;
  victim.tenant = 2;
  victim.n_rules = 4;
  const ExplosionInstall v = install_explosion_rules(sw, 1, victim);
  EXPECT_EQ(v.installed, 4u);
  EXPECT_EQ(v.rejected, 0u);

  // Rules with no exact metadata match are shared infrastructure, outside
  // every tenant budget.
  EXPECT_EQ(sw.add_flow(1, MatchBuilder().tcp().tp_dst(80), 5,
                        OfActions().output(2)),
            "");
}

TEST(TupleExplosionAdmission, RejectionLeavesNoPartialState) {
  SwitchConfig cfg;
  cfg.max_masks_per_tenant = 2;
  Switch sw(cfg);

  ExplosionConfig ec;
  ec.n_rules = 2;
  ASSERT_EQ(install_explosion_rules(sw, 1, ec).installed, 2u);

  const size_t flows0 = sw.table(1).flow_count();
  const size_t subtables0 = sw.cls_subtables();
  const size_t dump0 = sw.dump_flows().size();

  ExplosionConfig ec5 = ec;
  ec5.n_rules = 5;
  const std::vector<Match> rules = make_explosion_rules(ec5);
  for (size_t i = 2; i < rules.size(); ++i)
    EXPECT_NE(sw.add_flow(1, rules[i], 10, OfActions::drop()), "");

  // A rejected add must not leak a partially-constructed rule into any
  // table, subtable, or dump.
  EXPECT_EQ(sw.table(1).flow_count(), flows0);
  EXPECT_EQ(sw.cls_subtables(), subtables0);
  EXPECT_EQ(sw.dump_flows().size(), dump0);
  const Switch::Counters& c = sw.counters();
  EXPECT_EQ(c.rules_rejected_mask_cap, 3u);
  EXPECT_EQ(c.flow_adds_attempted,
            c.flow_adds_admitted + c.rules_rejected_mask_cap);
}

// --- Tenant-partitioned classifier -----------------------------------------

TEST(TupleExplosionPartition, WinnersMatchLinearOracle) {
  ClassifierConfig cfg;
  cfg.tenant_partition = true;
  RuleSet rs(cfg);

  // Shared (no exact metadata) rules, plus explosion rules in two tenants.
  // Unique priorities make the oracle's answer unambiguous.
  int32_t prio = 1;
  rs.add(MatchBuilder().tcp(), prio++, 1000);
  rs.add(MatchBuilder().tcp().tp_dst(80), prio++, 1001);
  ExplosionConfig t1;
  t1.tenant = 1;
  t1.n_rules = 16;
  ExplosionConfig t2;
  t2.tenant = 2;
  t2.n_rules = 16;
  t2.seed = 43;
  std::vector<Match> rules = make_explosion_rules(t1);
  const std::vector<Match> r2 = make_explosion_rules(t2);
  rules.insert(rules.end(), r2.begin(), r2.end());
  for (size_t i = 0; i < rules.size(); ++i)
    rs.add(rules[i], prio++, static_cast<int>(i));

  Rng rng(7);
  size_t hits = 0;
  for (size_t i = 0; i < 512; ++i) {
    // Aim at a random rule, then sometimes flip the tenant so the packet
    // must fall through to shared rules only.
    const Match& target = rules[rng.uniform(rules.size())];
    Packet p = explosion_stamp(target, attack_base(), rng);
    p.key.set_metadata(rng.chance(0.25) ? 3 : target.key.get(FieldId::kMetadata));

    FlowWildcards wc;
    const Rule* got = rs.classifier().lookup(p.key, &wc);
    const TestRule* want = rs.naive_lookup(p.key);
    ASSERT_EQ(got, want) << "packet " << i;
    if (got != nullptr) ++hits;
    // §5.5 soundness: the partitioned lookup routed on the packet's
    // metadata, so the produced wildcards must pin it exactly.
    EXPECT_TRUE(wc.is_exact(FieldId::kMetadata));
  }
  // The stream must actually exercise tenant rules, not just shared ones.
  EXPECT_GT(hits, 256u);
}

TEST(TupleExplosionPartition, IntrospectionReportsPerTenantShape) {
  ClassifierConfig cfg;
  TenantPartitionEngine eng(cfg);

  std::vector<std::unique_ptr<TestRule>> owned;
  auto add = [&](const Match& m, int32_t prio) {
    owned.push_back(std::make_unique<TestRule>(m, prio));
    eng.insert(owned.back().get());
  };

  add(MatchBuilder().tcp(), 1);  // shared: one subtable
  ExplosionConfig t1;
  t1.tenant = 1;
  t1.n_rules = 3;
  for (const Match& m : make_explosion_rules(t1)) add(m, 10);
  ExplosionConfig t2;
  t2.tenant = 2;
  t2.n_rules = 2;
  for (const Match& m : make_explosion_rules(t2)) add(m, 10);

  EXPECT_EQ(eng.rule_count(), 6u);
  EXPECT_EQ(eng.tenant_count(), 2u);
  EXPECT_EQ(eng.shared_subtables(), 1u);
  EXPECT_EQ(eng.tenant_subtables(1), 3u);
  EXPECT_EQ(eng.tenant_subtables(2), 2u);
  // Maintained subtables sum across partitions; a single lookup only ever
  // probes shared + one tenant, so the probe bound is shared + worst.
  EXPECT_EQ(eng.n_subtables(), 6u);
  EXPECT_EQ(eng.max_probe_depth(), 4u);

  // Removing a tenant's last rule retires its partition entirely.
  for (auto& r : owned)
    if (r->match().mask.is_exact(FieldId::kMetadata) &&
        r->match().key.get(FieldId::kMetadata) == 2)
      eng.remove(r.get());
  EXPECT_EQ(eng.tenant_count(), 1u);
  EXPECT_EQ(eng.tenant_subtables(2), 0u);
  EXPECT_EQ(eng.n_subtables(), 4u);
}

TEST(TupleExplosionPartition, ExplosionMasksArePairwiseIncomparable) {
  const std::vector<FlowMask> masks = make_explosion_masks(64);
  ASSERT_EQ(masks.size(), 64u);
  for (size_t i = 0; i < masks.size(); ++i) {
    for (size_t j = i + 1; j < masks.size(); ++j) {
      bool i_extra = false, j_extra = false;
      for (size_t w = 0; w < kFlowWords; ++w) {
        if (masks[i].w[w] & ~masks[j].w[w]) i_extra = true;
        if (masks[j].w[w] & ~masks[i].w[w]) j_extra = true;
      }
      // Neither subsumes the other, so no TSS engine can share a subtable
      // or chain them: n subtables for n rules, the attack's whole point.
      EXPECT_TRUE(i_extra && j_extra) << i << " vs " << j;
    }
  }

  RuleSet flat;
  std::vector<Match> rules = make_explosion_rules({.n_rules = 64});
  for (size_t i = 0; i < rules.size(); ++i)
    flat.add(rules[i], 10, static_cast<int>(i));
  EXPECT_EQ(flat.classifier().n_subtables(), 64u);
}

// --- Mask-explosion detector -----------------------------------------------

TEST(TupleExplosionDetector, SubtableTriggerEngagesWithHysteresis) {
  SwitchConfig cfg;
  cfg.flow_limit = 256;
  cfg.degradation.enabled = true;
  cfg.degradation.mask_explosion_subtables = 16;
  Switch sw(cfg);
  add_tenant_pipeline(sw);

  ExplosionConfig ec;
  ec.n_rules = 24;
  install_explosion_rules(sw, 1, ec);

  // One targeted packet per rule: each megaflow inherits that rule's mask,
  // so the kernel tuple space fans out to ~n_rules masks.
  VirtualClock clock;
  Rng rng(99);
  for (const Match& r : make_explosion_rules(ec))
    sw.inject(explosion_stamp(r, attack_base(), rng), clock.now());
  sw.handle_upcalls(clock.now());
  ASSERT_GE(sw.datapath().mask_count(), 16u);

  clock.advance(kSecond);
  sw.run_maintenance(clock.now());
  EXPECT_TRUE(sw.mask_explosion_active());
  EXPECT_EQ(sw.counters().mask_explosion_engaged, 1u);
  const uint64_t backoffs1 = sw.counters().flow_limit_backoffs;
  EXPECT_GE(backoffs1, 1u);

  // Signal persisting at engage level: the limit keeps ratcheting down but
  // the engagement is counted once.
  clock.advance(kSecond);
  sw.run_maintenance(clock.now());
  EXPECT_TRUE(sw.mask_explosion_active());
  EXPECT_EQ(sw.counters().mask_explosion_engaged, 1u);
  EXPECT_GT(sw.counters().flow_limit_backoffs, backoffs1);

  // Attack stops; idle expiry sheds the attacker megaflows (and with them
  // the masks), and the detector must disengage once the count falls below
  // HALF the engage threshold — then additive recovery resumes.
  clock.advance(cfg.idle_timeout_ns + kSecond);
  sw.run_maintenance(clock.now());  // expires the idle flows
  ASSERT_LT(sw.datapath().mask_count(), 8u);
  clock.advance(kSecond);
  sw.run_maintenance(clock.now());  // policy pass sees the cooled table
  EXPECT_FALSE(sw.mask_explosion_active());
  EXPECT_EQ(sw.counters().mask_explosion_engaged, 1u);

  const double scale0 = sw.flow_limit_scale();
  clock.advance(kSecond);
  sw.run_maintenance(clock.now());
  EXPECT_GT(sw.flow_limit_scale(), scale0);
}

TEST(TupleExplosionDetector, ProbeEwmaTriggerEngages) {
  SwitchConfig cfg;
  cfg.degradation.enabled = true;
  cfg.degradation.mask_probe_ewma_threshold = 3.0;
  cfg.datapath.microflow_enabled = false;  // every packet prices the TSS walk
  Switch sw(cfg);
  add_tenant_pipeline(sw);

  ExplosionConfig ec;
  ec.n_rules = 24;
  install_explosion_rules(sw, 1, ec);
  const std::vector<Match> rules = make_explosion_rules(ec);

  VirtualClock clock;
  Rng rng(5);
  for (int round = 0; round < 3 && !sw.mask_explosion_active(); ++round) {
    for (int sweep = 0; sweep < 3; ++sweep)
      for (const Match& r : rules)
        sw.inject(explosion_stamp(r, attack_base(), rng), clock.now());
    sw.handle_upcalls(clock.now());
    clock.advance(kSecond);
    sw.run_maintenance(clock.now());
  }
  EXPECT_TRUE(sw.mask_explosion_active());
  EXPECT_EQ(sw.counters().mask_explosion_engaged, 1u);
}

TEST(TupleExplosionDetector, DisabledKnobsChangeNothing) {
  // Default-off configuration: no cap, no partition, zero thresholds. The
  // attack installs and floods unimpeded — the pre-defense behavior.
  Switch sw;
  add_tenant_pipeline(sw);

  ExplosionConfig ec;
  ec.n_rules = 32;
  const ExplosionInstall ins = install_explosion_rules(sw, 1, ec);
  EXPECT_EQ(ins.installed, 32u);
  EXPECT_EQ(ins.rejected, 0u);

  VirtualClock clock;
  Rng rng(3);
  for (const Match& r : make_explosion_rules(ec))
    sw.inject(explosion_stamp(r, attack_base(), rng), clock.now());
  sw.handle_upcalls(clock.now());
  clock.advance(kSecond);
  sw.run_maintenance(clock.now());
  EXPECT_FALSE(sw.mask_explosion_active());
  EXPECT_EQ(sw.counters().mask_explosion_engaged, 0u);
  EXPECT_EQ(sw.counters().rules_rejected_mask_cap, 0u);
}

}  // namespace
}  // namespace ovs
