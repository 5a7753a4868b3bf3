// Tests for the benchmark's own logic: the expected-verdict model against a
// real Switch, and the order statistics the metrics are computed with.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <stdexcept>
#include <string>
#include <vector>

#include "bench_lib.h"
#include "vswitchd/switch.h"
#include "workload/table_gen.h"

namespace perfbench {
namespace {

using ovs::NvpConfig;
using ovs::NvpTopology;
using ovs::NvpVm;
using ovs::Packet;
using ovs::Switch;

// A small NVP topology whose traffic is injected packet by packet; the
// output handler records where each packet went, and the test compares it
// with the model's verdict.
class ModelVsSwitch : public ::testing::Test {
 protected:
  void SetUp() override {
    cfg_.n_tenants = 2;
    cfg_.vms_per_tenant = 3;
    cfg_.acl_tenant_fraction = 0.5;  // tenant 1 has ACLs, tenant 2 not
    topo_ = ovs::install_nvp_pipeline(sw_, cfg_);
    model_ = std::make_unique<NvpModel>(cfg_, topo_);
    sw_.set_output_handler(
        [this](uint32_t port, const Packet&) { outputs_.push_back(port); });
  }

  // Where the switch sends `p` (NvpModel::kDrop if nowhere), through the
  // upcall path on first sight and the cache after it.
  uint32_t forward(const Packet& p) {
    outputs_.clear();
    sw_.inject(p, now_);
    sw_.handle_upcalls(now_);
    EXPECT_LE(outputs_.size(), 1u);
    return outputs_.empty() ? NvpModel::kDrop : outputs_.front();
  }

  // Every same-tenant VM pair on the given TCP port, checked twice (miss,
  // then hit) against the model.
  void expect_all_agree(uint16_t dport) {
    for (const NvpVm& a : topo_.vms) {
      for (const NvpVm& b : topo_.vms) {
        if (a.tenant != b.tenant || a.port == b.port) continue;
        const Packet p = ovs::nvp_packet(a, b, 40000, dport);
        const uint32_t want = model_->expect(p.key);
        EXPECT_EQ(forward(p), want) << a.port << "->" << b.port << ":" << dport;
        EXPECT_EQ(forward(p), want) << a.port << "->" << b.port << ":" << dport;
      }
    }
  }

  NvpConfig cfg_;
  Switch sw_;
  NvpTopology topo_;
  std::unique_ptr<NvpModel> model_;
  std::vector<uint32_t> outputs_;
  uint64_t now_ = 0;
};

TEST_F(ModelVsSwitch, DeliversAndDropsLikeThePipeline) {
  ASSERT_EQ(topo_.n_acl_tenants, 1u);
  const uint16_t blocked = topo_.blocked_ports.front();
  // The blocked port is dropped for the ACL tenant and forwarded for the
  // other one.
  const NvpVm* a1 = topo_.tenant_vms(1)[0];
  const NvpVm* b1 = topo_.tenant_vms(1)[1];
  const NvpVm* a2 = topo_.tenant_vms(2)[0];
  const NvpVm* b2 = topo_.tenant_vms(2)[1];
  EXPECT_EQ(model_->expect(ovs::nvp_packet(*a1, *b1, 40000, blocked).key),
            NvpModel::kDrop);
  EXPECT_EQ(model_->expect(ovs::nvp_packet(*a2, *b2, 40000, blocked).key),
            b2->port);
  expect_all_agree(blocked);
  expect_all_agree(8080);
}

TEST_F(ModelVsSwitch, FollowsFlowModsAfterRevalidation) {
  const NvpVm* a = topo_.tenant_vms(2)[0];
  const NvpVm* b = topo_.tenant_vms(2)[1];
  const NvpVm* c = topo_.tenant_vms(2)[2];
  expect_all_agree(8080);  // populate the caches first

  // Block 8080 for tenant 2 and move b's MAC onto c's port, the two kinds
  // of flow-mod policy_churn issues.
  ASSERT_EQ(sw_.add_flow(
                "table=2, priority=20, metadata=2, tcp, tp_dst=8080, "
                "actions=drop"),
            "");
  model_->block(2, 8080);
  ASSERT_EQ(sw_.add_flow("table=1, priority=10, metadata=2, dl_dst=" +
                         b->mac.to_string() + ", actions=set_field:" +
                         std::to_string(c->port) + "->reg1, resubmit(,2)"),
            "");
  model_->set_l2(2, b->mac, c->port);
  now_ += ovs::kSecond;
  sw_.run_maintenance(now_);
  expect_all_agree(8080);
  expect_all_agree(8443);
  EXPECT_EQ(forward(ovs::nvp_packet(*a, *b, 40000, 8443)), c->port);

  // Undo both; the loose delete must remove exactly the added rule.
  size_t n = 0;
  ASSERT_EQ(sw_.del_flows("table=2, metadata=2, tcp, tp_dst=8080", &n), "");
  EXPECT_EQ(n, 1u);
  model_->unblock(2, 8080);
  ASSERT_EQ(sw_.add_flow("table=1, priority=10, metadata=2, dl_dst=" +
                         b->mac.to_string() + ", actions=set_field:" +
                         std::to_string(b->port) + "->reg1, resubmit(,2)"),
            "");
  model_->set_l2(2, b->mac, b->port);
  now_ += ovs::kSecond;
  sw_.run_maintenance(now_);
  expect_all_agree(8080);
  EXPECT_EQ(forward(ovs::nvp_packet(*a, *b, 40000, 8443)), b->port);
}

TEST(Percentile, NearestRank) {
  std::vector<double> v;
  for (int i = 1; i <= 100; ++i) v.push_back(101 - i);  // unsorted
  EXPECT_EQ(percentile(v, 50), 50);
  EXPECT_EQ(percentile(v, 90), 90);
  EXPECT_EQ(percentile(v, 99), 99);
  EXPECT_EQ(percentile(v, 100), 100);
  EXPECT_EQ(percentile(v, 0), 1);
  EXPECT_EQ(percentile({7}, 90), 7);
  EXPECT_EQ(percentile({}, 50), 0);
  EXPECT_EQ(percentile({1, 2, 3, 4}, 50), 2);
}

TEST(Percentile, SampleCountsThatSupportATail) {
  // At least ten samples must lie above the percentile.
  EXPECT_FALSE(supports_percentile(99, 90));
  EXPECT_TRUE(supports_percentile(100, 90));
  EXPECT_FALSE(supports_percentile(999, 99));
  EXPECT_TRUE(supports_percentile(1000, 99));
  EXPECT_FALSE(supports_percentile(0, 50));
  EXPECT_TRUE(supports_percentile(20, 50));
}

// Ten segments of 1000 packets; segment 3 suffered interference and took
// ten times as long.
Segments ten_segments() {
  Segments s;
  for (size_t i = 0; i < 10; ++i) {
    s.work.push_back(1000);
    s.wall_s.push_back(i == 3 ? 0.01 : 0.001 + 1e-6 * static_cast<double>(i));
    s.op_p50.push_back(100 + static_cast<double>(i));
  }
  return s;
}

TEST(QuietSegments, KeepsTheFastestShareAtLeastOne) {
  const Segments s = ten_segments();
  EXPECT_EQ(quiet_segments(s, 0.2), (std::vector<size_t>{0, 1}));
  EXPECT_EQ(quiet_segments(s, 0.01), (std::vector<size_t>{0}));
  EXPECT_EQ(quiet_segments(s, 1.0).size(), 10u);
  EXPECT_TRUE(quiet_segments(Segments{}, 0.2).empty());
  // The slow segment is kept only when every segment is.
  const std::vector<size_t> nine = quiet_segments(s, 0.9);
  EXPECT_EQ(std::count(nine.begin(), nine.end(), 3u), 0);
}

TEST(QuietSegments, RatesAndLatenciesComeFromTheChosenSegments) {
  const Segments s = ten_segments();
  // A total over the run would read 10000 / 0.019045 = 525k/s.
  EXPECT_NEAR(median_rate(s, {0, 1, 2}), 1000 / 0.001001, 1e-6);
  EXPECT_EQ(median_rate(s, {}), 0);
  EXPECT_EQ(median_of(s.op_p50, {0, 3, 9}), 103);
  EXPECT_THROW(median_of(s.op_p50, {10}), std::out_of_range);
}

TEST(LogHistogram, PercentilesWithinOnePercent) {
  LogHistogram h;
  EXPECT_EQ(h.percentile(50), 0);
  for (int i = 1; i <= 1000; ++i) h.add(i);
  EXPECT_EQ(h.count(), 1000u);
  EXPECT_NEAR(h.percentile(50), 500, 5);
  EXPECT_NEAR(h.percentile(90), 900, 9);
  EXPECT_NEAR(h.percentile(99), 990, 10);
  EXPECT_NEAR(h.percentile(100), 1000, 10);
  EXPECT_NEAR(h.percentile(0), 1, 0.01);
}

TEST(Tracer, NestsSpansAndAggregatesDurations) {
  Tracer t(/*max_spans=*/2);
  {
    Scope outer(&t, "outer");
    { Scope inner(&t, "inner"); }
    { Scope inner(&t, "inner"); }  // past max_spans: aggregated, not stored
  }
  EXPECT_EQ(t.stored(), 2u);
  EXPECT_EQ(t.durations("inner").size(), 2u);
  { Scope inner(&t, "inner"); }  // past max_spans samples: only the total
  EXPECT_EQ(t.durations("inner").size(), 2u);
  EXPECT_GE(t.total_ns("inner"),
            t.durations("inner")[0] + t.durations("inner")[1]);
  EXPECT_EQ(t.durations("outer").size(), 1u);
  EXPECT_TRUE(t.durations("missing").empty());
  EXPECT_GE(t.total_ns("outer"), t.durations("inner")[0]);
  Scope noop(nullptr, "ignored");  // a null tracer records nothing
  EXPECT_TRUE(t.durations("ignored").empty());
}

}  // namespace
}  // namespace perfbench
