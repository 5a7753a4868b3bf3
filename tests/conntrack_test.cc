// Tests for the minimal connection tracker (§8.1).
#include "ofproto/conntrack.h"

#include <gtest/gtest.h>

namespace ovs {
namespace {

FlowKey flow(Ipv4 src, Ipv4 dst, uint16_t sport, uint16_t dport,
             uint8_t proto = ipproto::kTcp) {
  FlowKey k;
  k.set_eth_type(ethertype::kIpv4);
  k.set_nw_proto(proto);
  k.set_nw_src(src);
  k.set_nw_dst(dst);
  k.set_tp_src(sport);
  k.set_tp_dst(dport);
  return k;
}

TEST(ConnTrackerTest, NewUntilCommitted) {
  ConnTracker ct;
  FlowKey k = flow(Ipv4(10, 0, 0, 1), Ipv4(10, 0, 0, 2), 1234, 80);
  EXPECT_EQ(ct.lookup(k), ct_state::kNew);
  ct.commit(k);
  EXPECT_EQ(ct.size(), 1u);
  EXPECT_TRUE(ct.lookup(k) & ct_state::kEstablished);
}

TEST(ConnTrackerTest, ReplyDirectionIsEstablished) {
  ConnTracker ct;
  FlowKey fwd = flow(Ipv4(10, 0, 0, 1), Ipv4(10, 0, 0, 2), 1234, 80);
  FlowKey rev = flow(Ipv4(10, 0, 0, 2), Ipv4(10, 0, 0, 1), 80, 1234);
  ct.commit(fwd);
  EXPECT_TRUE(ct.lookup(rev) & ct_state::kEstablished);
  // Exactly one of the two directions carries the reply bit.
  const bool fwd_reply = (ct.lookup(fwd) & ct_state::kReply) != 0;
  const bool rev_reply = (ct.lookup(rev) & ct_state::kReply) != 0;
  EXPECT_NE(fwd_reply, rev_reply);
}

TEST(ConnTrackerTest, DistinctConnectionsIndependent) {
  ConnTracker ct;
  FlowKey a = flow(Ipv4(10, 0, 0, 1), Ipv4(10, 0, 0, 2), 1234, 80);
  FlowKey b = flow(Ipv4(10, 0, 0, 1), Ipv4(10, 0, 0, 2), 1235, 80);
  ct.commit(a);
  EXPECT_TRUE(ct.lookup(a) & ct_state::kEstablished);
  EXPECT_EQ(ct.lookup(b), ct_state::kNew);  // different source port
}

TEST(ConnTrackerTest, ProtocolDistinguishes) {
  ConnTracker ct;
  FlowKey t = flow(Ipv4(1, 1, 1, 1), Ipv4(2, 2, 2, 2), 53, 53, ipproto::kTcp);
  FlowKey u = flow(Ipv4(1, 1, 1, 1), Ipv4(2, 2, 2, 2), 53, 53, ipproto::kUdp);
  ct.commit(t);
  EXPECT_TRUE(ct.lookup(t) & ct_state::kEstablished);
  EXPECT_EQ(ct.lookup(u), ct_state::kNew);
}

TEST(ConnTrackerTest, CommitIsIdempotent) {
  ConnTracker ct;
  FlowKey k = flow(Ipv4(1, 1, 1, 1), Ipv4(2, 2, 2, 2), 1, 2);
  FlowKey rev = flow(Ipv4(2, 2, 2, 2), Ipv4(1, 1, 1, 1), 2, 1);
  ct.commit(k);
  ct.commit(k);
  ct.commit(rev);  // same bidirectional connection
  EXPECT_EQ(ct.size(), 1u);
}

TEST(ConnTrackerTest, RemoveTearsDown) {
  ConnTracker ct;
  FlowKey k = flow(Ipv4(1, 1, 1, 1), Ipv4(2, 2, 2, 2), 1, 2);
  ct.commit(k);
  EXPECT_TRUE(ct.remove(k));
  EXPECT_EQ(ct.lookup(k), ct_state::kNew);
  EXPECT_FALSE(ct.remove(k));
}

// --- Direction normalization edge cases -----------------------------------

// Regression: a fully symmetric 5-tuple (src==dst addr AND sport==dport) has
// no wire-decidable reply direction. The old canonical-order rule made both
// directions compare equal and stamped kReply on a packet identical to the
// committing one. Now such connections carry kSymmetric and never kReply.
TEST(ConnTrackerTest, SelfConnectionIsSymmetricNeverReply) {
  ConnTracker ct;
  FlowKey k = flow(Ipv4(10, 0, 0, 7), Ipv4(10, 0, 0, 7), 9999, 9999);
  ct.commit(k);
  const uint8_t st = ct.lookup(k);
  EXPECT_TRUE(st & ct_state::kEstablished);
  EXPECT_TRUE(st & ct_state::kSymmetric);
  EXPECT_FALSE(st & ct_state::kReply);
}

// Same addresses, different ports: the port pair alone decides direction and
// the reply bit still lands on exactly one side.
TEST(ConnTrackerTest, SameAddressPortTieBreak) {
  ConnTracker ct;
  FlowKey fwd = flow(Ipv4(10, 0, 0, 7), Ipv4(10, 0, 0, 7), 4000, 80);
  FlowKey rev = flow(Ipv4(10, 0, 0, 7), Ipv4(10, 0, 0, 7), 80, 4000);
  ct.commit(fwd);
  EXPECT_EQ(ct.size(), 1u);
  const uint8_t f = ct.lookup(fwd), r = ct.lookup(rev);
  EXPECT_TRUE(f & ct_state::kEstablished);
  EXPECT_TRUE(r & ct_state::kEstablished);
  EXPECT_FALSE(f & ct_state::kSymmetric);
  EXPECT_NE((f & ct_state::kReply) != 0, (r & ct_state::kReply) != 0);
  // The committing direction is the one WITHOUT the reply bit.
  EXPECT_FALSE(f & ct_state::kReply);
}

// Mirrored address/port pairs ((a,p1)->(b,p2) vs (b,p1)->(a,p2)) are
// DIFFERENT connections: normalization sorts endpoints, not fields.
TEST(ConnTrackerTest, MirroredEndpointsAreDistinct) {
  ConnTracker ct;
  FlowKey a = flow(Ipv4(1, 1, 1, 1), Ipv4(2, 2, 2, 2), 10, 20);
  FlowKey b = flow(Ipv4(2, 2, 2, 2), Ipv4(1, 1, 1, 1), 10, 20);
  ct.commit(a);
  EXPECT_EQ(ct.lookup(b), ct_state::kNew);
  ct.commit(b);
  EXPECT_EQ(ct.size(), 2u);
}

// --- Idempotence / generation ---------------------------------------------

// Re-committing an existing connection (either direction) must not bump the
// generation: revalidation treats generation movement as table dirtiness, so
// a refresh-only commit must not force a revalidation pass.
TEST(ConnTrackerTest, RecommitLeavesGenerationUnchanged) {
  ConnTracker ct;
  FlowKey k = flow(Ipv4(1, 1, 1, 1), Ipv4(2, 2, 2, 2), 1, 2);
  FlowKey rev = flow(Ipv4(2, 2, 2, 2), Ipv4(1, 1, 1, 1), 2, 1);
  EXPECT_TRUE(ct.commit(k));
  const uint64_t gen = ct.generation();
  EXPECT_FALSE(ct.commit(k));
  EXPECT_FALSE(ct.commit(rev));
  EXPECT_EQ(ct.generation(), gen);
  EXPECT_EQ(ct.stats().refreshed, 2u);
  EXPECT_TRUE(ct.remove(k));
  EXPECT_GT(ct.generation(), gen);
}

TEST(ConnTrackerTest, RemoveNonexistentIsNoOp) {
  ConnTracker ct;
  FlowKey k = flow(Ipv4(1, 1, 1, 1), Ipv4(2, 2, 2, 2), 1, 2);
  const uint64_t gen = ct.generation();
  EXPECT_FALSE(ct.remove(k));
  EXPECT_EQ(ct.generation(), gen);
  EXPECT_EQ(ct.stats().removed, 0u);
}

// --- Zones -----------------------------------------------------------------

TEST(ConnTrackerTest, ZonesIsolateConnections) {
  ConnTracker ct;
  FlowKey k = flow(Ipv4(1, 1, 1, 1), Ipv4(2, 2, 2, 2), 1, 2);
  ct.commit(k, /*zone=*/1);
  EXPECT_TRUE(ct.lookup(k, 1) & ct_state::kEstablished);
  EXPECT_EQ(ct.lookup(k, 0), ct_state::kNew);
  EXPECT_EQ(ct.lookup(k, 2), ct_state::kNew);
  EXPECT_EQ(ct.zone_size(1), 1u);
  EXPECT_EQ(ct.zone_size(0), 0u);
  // Removing in the wrong zone touches nothing.
  EXPECT_FALSE(ct.remove(k, 0));
  EXPECT_TRUE(ct.remove(k, 1));
}

// --- Idle expiry -----------------------------------------------------------

// The expiry predicate is last_seen + timeout <= now: an entry is gone at
// EXACTLY the timeout boundary, alive one nanosecond before it.
TEST(ConnTrackerTest, ExpiryBoundaryIsInclusive) {
  ConnTrackerConfig cfg;
  cfg.idle_timeout_ns = 1000;
  ConnTracker ct(cfg);
  FlowKey k = flow(Ipv4(1, 1, 1, 1), Ipv4(2, 2, 2, 2), 1, 2);
  ct.commit(k, 0, /*now_ns=*/5000);
  EXPECT_FALSE(ct.has_expirable(5999));
  EXPECT_EQ(ct.expire_idle(5999), 0u);
  EXPECT_EQ(ct.size(), 1u);
  EXPECT_TRUE(ct.has_expirable(6000));
  EXPECT_EQ(ct.expire_idle(6000), 1u);
  EXPECT_EQ(ct.lookup(k), ct_state::kNew);
  EXPECT_EQ(ct.stats().expired_idle, 1u);
}

// Re-commit refreshes last-seen; lookups never do. The tracker's contents
// must be a pure function of the mutation sequence (the oracle contract).
TEST(ConnTrackerTest, LookupNeverRefreshesButCommitDoes) {
  ConnTrackerConfig cfg;
  cfg.idle_timeout_ns = 1000;
  ConnTracker ct(cfg);
  FlowKey k = flow(Ipv4(1, 1, 1, 1), Ipv4(2, 2, 2, 2), 1, 2);
  ct.commit(k, 0, 0);
  // Lookups between commit and expiry deadline change nothing.
  for (int i = 0; i < 8; ++i) ct.lookup(k);
  ct.commit(k, 0, 900);  // refresh: deadline moves to 1900
  EXPECT_EQ(ct.expire_idle(1000), 0u);
  EXPECT_EQ(ct.expire_idle(1899), 0u);
  EXPECT_EQ(ct.expire_idle(1900), 1u);
}

TEST(ConnTrackerTest, ZeroTimeoutNeverExpires) {
  ConnTracker ct;  // idle_timeout_ns = 0
  FlowKey k = flow(Ipv4(1, 1, 1, 1), Ipv4(2, 2, 2, 2), 1, 2);
  ct.commit(k, 0, 1);
  EXPECT_FALSE(ct.has_expirable(~uint64_t{0}));
  EXPECT_EQ(ct.expire_idle(~uint64_t{0}), 0u);
  EXPECT_EQ(ct.size(), 1u);
}

// --- Capacity / eviction ---------------------------------------------------

FlowKey conn_n(uint32_t n, uint16_t dport = 80) {
  return flow(Ipv4(10, 0, (n >> 8) & 0xff, n & 0xff), Ipv4(192, 168, 0, 1),
              static_cast<uint16_t>(1024 + n), dport);
}

TEST(ConnTrackerTest, ZoneCapEvictsOwnZoneLru) {
  ConnTrackerConfig cfg;
  cfg.max_per_zone = 2;
  ConnTracker ct(cfg);
  ct.commit(conn_n(1), 1, 100);
  ct.commit(conn_n(2), 1, 200);
  ct.commit(conn_n(3), 2, 50);  // other zone: not eligible
  ct.commit(conn_n(4), 1, 300);  // zone 1 at cap: evicts conn 1 (its LRU)
  EXPECT_EQ(ct.lookup(conn_n(1), 1), ct_state::kNew);
  EXPECT_TRUE(ct.lookup(conn_n(2), 1) & ct_state::kEstablished);
  EXPECT_TRUE(ct.lookup(conn_n(3), 2) & ct_state::kEstablished);
  EXPECT_TRUE(ct.lookup(conn_n(4), 1) & ct_state::kEstablished);
  EXPECT_EQ(ct.stats().evicted_zone_cap, 1u);
  EXPECT_EQ(ct.stats().evicted_global_cap, 0u);
}

// Fair global eviction: the LARGEST zone pays, so a churning zone cannot
// displace a quiet zone's connections.
TEST(ConnTrackerTest, FairGlobalEvictionChargesLargestZone) {
  ConnTrackerConfig cfg;
  cfg.max_entries = 4;
  ConnTracker ct(cfg);
  ct.commit(conn_n(1), /*zone=*/7, 10);  // quiet victim zone, oldest overall
  ct.commit(conn_n(2), 1, 20);
  ct.commit(conn_n(3), 1, 30);
  ct.commit(conn_n(4), 1, 40);
  ct.commit(conn_n(5), 1, 50);  // global cap: zone 1 is largest -> its LRU
  EXPECT_EQ(ct.size(), 4u);
  EXPECT_TRUE(ct.lookup(conn_n(1), 7) & ct_state::kEstablished);
  EXPECT_EQ(ct.lookup(conn_n(2), 1), ct_state::kNew);
  EXPECT_EQ(ct.stats().evicted_global_cap, 1u);
}

TEST(ConnTrackerTest, UnfairGlobalEvictionChargesGlobalLru) {
  ConnTrackerConfig cfg;
  cfg.max_entries = 4;
  cfg.fair_eviction = false;
  ConnTracker ct(cfg);
  ct.commit(conn_n(1), 7, 10);  // globally oldest: pays under the ablation
  ct.commit(conn_n(2), 1, 20);
  ct.commit(conn_n(3), 1, 30);
  ct.commit(conn_n(4), 1, 40);
  ct.commit(conn_n(5), 1, 50);
  EXPECT_EQ(ct.lookup(conn_n(1), 7), ct_state::kNew);
  EXPECT_TRUE(ct.lookup(conn_n(2), 1) & ct_state::kEstablished);
}

// A refresh moves the entry to the back of its zone's LRU list.
TEST(ConnTrackerTest, RefreshProtectsFromEviction) {
  ConnTrackerConfig cfg;
  cfg.max_entries = 3;
  ConnTracker ct(cfg);
  ct.commit(conn_n(1), 0, 10);
  ct.commit(conn_n(2), 0, 20);
  ct.commit(conn_n(3), 0, 30);
  ct.commit(conn_n(1), 0, 40);  // refresh: conn 2 becomes LRU
  ct.commit(conn_n(4), 0, 50);
  EXPECT_TRUE(ct.lookup(conn_n(1)) & ct_state::kEstablished);
  EXPECT_EQ(ct.lookup(conn_n(2)), ct_state::kNew);
}

// --- NAT -------------------------------------------------------------------

TEST(ConnTrackerTest, SnatForwardAndReverseRewrites) {
  ConnTracker ct;
  FlowKey fwd = flow(Ipv4(10, 0, 0, 5), Ipv4(198, 51, 100, 1), 5555, 80);
  CtNatSpec nat{/*src=*/true, Ipv4(192, 0, 2, 9).value(), 40001};
  EXPECT_TRUE(ct.commit_nat(fwd, nat));
  EXPECT_EQ(ct.size(), 2u);  // primary + reverse entry
  EXPECT_EQ(ct.stats().nat_bindings, 1u);

  // Forward packets rewrite their SOURCE to the NAT binding.
  auto f = ct.nat_lookup(fwd);
  ASSERT_TRUE(f.has_value());
  EXPECT_TRUE(f->to_src);
  EXPECT_EQ(f->addr, Ipv4(192, 0, 2, 9).value());
  EXPECT_EQ(f->port, 40001);

  // Replies arrive addressed to the post-NAT tuple and rewrite their
  // DESTINATION back to the original source.
  FlowKey reply = flow(Ipv4(198, 51, 100, 1), Ipv4(192, 0, 2, 9), 80, 40001);
  EXPECT_TRUE(ct.lookup(reply) & ct_state::kEstablished);
  auto r = ct.nat_lookup(reply);
  ASSERT_TRUE(r.has_value());
  EXPECT_FALSE(r->to_src);
  EXPECT_EQ(r->addr, Ipv4(10, 0, 0, 5).value());
  EXPECT_EQ(r->port, 5555);
}

TEST(ConnTrackerTest, DnatReverseRewritesSource) {
  ConnTracker ct;
  // Client hits a VIP; DNAT to the backend.
  FlowKey fwd = flow(Ipv4(10, 0, 0, 5), Ipv4(203, 0, 113, 10), 5555, 80);
  CtNatSpec nat{/*src=*/false, Ipv4(10, 1, 0, 2).value(), 8080};
  EXPECT_TRUE(ct.commit_nat(fwd, nat));
  // Backend's reply rewrites its SOURCE back to the VIP.
  FlowKey reply = flow(Ipv4(10, 1, 0, 2), Ipv4(10, 0, 0, 5), 8080, 5555);
  auto r = ct.nat_lookup(reply);
  ASSERT_TRUE(r.has_value());
  EXPECT_TRUE(r->to_src);
  EXPECT_EQ(r->addr, Ipv4(203, 0, 113, 10).value());
  EXPECT_EQ(r->port, 80);
}

TEST(ConnTrackerTest, NoOpNatDegradesToPlainCommit) {
  ConnTracker ct;
  FlowKey fwd = flow(Ipv4(10, 0, 0, 5), Ipv4(198, 51, 100, 1), 5555, 80);
  CtNatSpec nat{/*src=*/true, Ipv4(10, 0, 0, 5).value(), 5555};  // identity
  EXPECT_TRUE(ct.commit_nat(fwd, nat));
  EXPECT_EQ(ct.size(), 1u);  // no reverse entry minted
  EXPECT_EQ(ct.stats().nat_bindings, 0u);
  EXPECT_FALSE(ct.nat_lookup(fwd).has_value());
}

TEST(ConnTrackerTest, RemoveCascadesToNatPair) {
  ConnTracker ct;
  FlowKey fwd = flow(Ipv4(10, 0, 0, 5), Ipv4(198, 51, 100, 1), 5555, 80);
  CtNatSpec nat{true, Ipv4(192, 0, 2, 9).value(), 40001};
  ct.commit_nat(fwd, nat);
  ASSERT_EQ(ct.size(), 2u);
  EXPECT_TRUE(ct.remove(fwd));
  EXPECT_EQ(ct.size(), 0u);  // reverse entry went with it
  FlowKey reply = flow(Ipv4(198, 51, 100, 1), Ipv4(192, 0, 2, 9), 80, 40001);
  EXPECT_EQ(ct.lookup(reply), ct_state::kNew);
}

// Removing via the POST-NAT tuple tears both entries down too: either half
// of the pair names the whole connection.
TEST(ConnTrackerTest, RemoveViaReverseTupleCascades) {
  ConnTracker ct;
  FlowKey fwd = flow(Ipv4(10, 0, 0, 5), Ipv4(198, 51, 100, 1), 5555, 80);
  CtNatSpec nat{true, Ipv4(192, 0, 2, 9).value(), 40001};
  ct.commit_nat(fwd, nat);
  FlowKey reply = flow(Ipv4(198, 51, 100, 1), Ipv4(192, 0, 2, 9), 80, 40001);
  EXPECT_TRUE(ct.remove(reply));
  EXPECT_EQ(ct.size(), 0u);
  EXPECT_EQ(ct.lookup(fwd), ct_state::kNew);
}

// First binding wins when the post-NAT tuple collides with a live distinct
// connection: the second commit keeps its forward rewrite but gets no
// reverse entry (deterministic, never flaps).
TEST(ConnTrackerTest, PostNatCollisionFirstWins) {
  ConnTracker ct;
  // A plain connection already occupies what will be the post-NAT tuple.
  FlowKey occupant = flow(Ipv4(192, 0, 2, 9), Ipv4(198, 51, 100, 1),
                          40001, 80);
  ct.commit(occupant);
  FlowKey fwd = flow(Ipv4(10, 0, 0, 5), Ipv4(198, 51, 100, 1), 5555, 80);
  CtNatSpec nat{true, Ipv4(192, 0, 2, 9).value(), 40001};
  EXPECT_TRUE(ct.commit_nat(fwd, nat));
  EXPECT_EQ(ct.size(), 2u);  // occupant + primary, no reverse entry
  // Forward rewrite still applies; the occupant keeps its tuple.
  EXPECT_TRUE(ct.nat_lookup(fwd).has_value());
  EXPECT_FALSE(ct.nat_lookup(occupant).has_value());
}

// Idle expiry of either half of a NAT pair removes both: a half-alive NAT
// connection would un-NAT replies for a connection that no longer exists.
TEST(ConnTrackerTest, ExpiryCascadesToNatPair) {
  ConnTrackerConfig cfg;
  cfg.idle_timeout_ns = 1000;
  ConnTracker ct(cfg);
  FlowKey fwd = flow(Ipv4(10, 0, 0, 5), Ipv4(198, 51, 100, 1), 5555, 80);
  CtNatSpec nat{true, Ipv4(192, 0, 2, 9).value(), 40001};
  ct.commit_nat(fwd, nat, 0, /*now_ns=*/100);
  ASSERT_EQ(ct.size(), 2u);
  EXPECT_EQ(ct.expire_idle(2000), 2u);
  EXPECT_EQ(ct.size(), 0u);
}

TEST(ConnTrackerTest, FlushDropsEverythingAndBumpsGeneration) {
  ConnTracker ct;
  ct.commit(conn_n(1));
  ct.commit(conn_n(2), 3);
  const uint64_t gen = ct.generation();
  ct.flush();
  EXPECT_EQ(ct.size(), 0u);
  EXPECT_EQ(ct.zone_size(3), 0u);
  EXPECT_GT(ct.generation(), gen);
  // Flushing an empty tracker is generation-neutral.
  const uint64_t gen2 = ct.generation();
  ct.flush();
  EXPECT_EQ(ct.generation(), gen2);
}

// --- Change stamps (per-connection revalidation dependencies) ------------

// The stamp take_changes() reports for `key`'s connection, or 0.
uint64_t stamp_of(const ConnTracker::Changes& ch, const FlowKey& key,
                  uint16_t zone = 0) {
  auto it = ch.find(ConnTracker::conn_key(key, zone).hash);
  return it == ch.end() ? 0 : it->second;
}

TEST(ConnTrackerStampTest, NewCommitStampsItsConnection) {
  ConnTracker ct;
  EXPECT_EQ(ct.stamp(), 0u);
  ASSERT_TRUE(ct.commit(conn_n(1), 4));
  const ConnTracker::Changes ch = ct.take_changes();
  ASSERT_EQ(ch.size(), 1u);
  EXPECT_EQ(stamp_of(ch, conn_n(1), 4), ct.stamp());
  EXPECT_GT(ct.stamp(), 0u);
  // Drained: the next take reports nothing.
  EXPECT_TRUE(ct.take_changes().empty());
  // Both directions of a connection share its hash; zones do not.
  FlowKey rev = conn_n(1);
  rev.set_nw_src(conn_n(1).nw_dst());
  rev.set_nw_dst(conn_n(1).nw_src());
  rev.set_tp_src(conn_n(1).tp_dst());
  rev.set_tp_dst(conn_n(1).tp_src());
  EXPECT_EQ(ConnTracker::conn_key(rev, 4).hash,
            ConnTracker::conn_key(conn_n(1), 4).hash);
  EXPECT_NE(ConnTracker::conn_key(conn_n(1), 5).hash,
            ConnTracker::conn_key(conn_n(1), 4).hash);
}

TEST(ConnTrackerStampTest, RefreshStampsNothing) {
  ConnTracker ct;
  const FlowKey fwd = flow(Ipv4(10, 0, 0, 5), Ipv4(198, 51, 100, 1), 5555, 80);
  const CtNatSpec nat{/*src=*/true, Ipv4(192, 0, 2, 9).value(), 40001};
  ct.commit(conn_n(1), 0, 10);
  ct.commit_nat(fwd, nat, 0, 10);
  ct.take_changes();
  const uint64_t stamp = ct.stamp();
  EXPECT_FALSE(ct.commit(conn_n(1), 0, 20));
  EXPECT_FALSE(ct.commit_nat(fwd, nat, 0, 20));
  EXPECT_FALSE(ct.commit(fwd, 0, 30));
  EXPECT_EQ(ct.stats().refreshed, 3u);
  EXPECT_EQ(ct.stamp(), stamp);
  EXPECT_TRUE(ct.take_changes().empty());
}

TEST(ConnTrackerStampTest, NatCommitStampsReverseEntry) {
  ConnTracker ct;
  const FlowKey fwd = flow(Ipv4(10, 0, 0, 5), Ipv4(198, 51, 100, 1), 5555, 80);
  const FlowKey reply =
      flow(Ipv4(198, 51, 100, 1), Ipv4(192, 0, 2, 9), 80, 40001);
  ASSERT_TRUE(ct.commit_nat(
      fwd, CtNatSpec{/*src=*/true, Ipv4(192, 0, 2, 9).value(), 40001}));
  const ConnTracker::Changes ch = ct.take_changes();
  EXPECT_EQ(ch.size(), 2u);
  EXPECT_GT(stamp_of(ch, fwd), 0u);
  EXPECT_GT(stamp_of(ch, reply), stamp_of(ch, fwd));
  EXPECT_EQ(stamp_of(ch, reply), ct.stamp());
}

TEST(ConnTrackerStampTest, RemoveStampsConnectionAndNatPair) {
  ConnTracker ct;
  const FlowKey fwd = flow(Ipv4(10, 0, 0, 5), Ipv4(198, 51, 100, 1), 5555, 80);
  const FlowKey reply =
      flow(Ipv4(198, 51, 100, 1), Ipv4(192, 0, 2, 9), 80, 40001);
  ct.commit_nat(fwd,
                CtNatSpec{/*src=*/true, Ipv4(192, 0, 2, 9).value(), 40001});
  ct.commit(conn_n(7));
  ct.take_changes();
  const uint64_t before = ct.stamp();
  ASSERT_TRUE(ct.remove(fwd));
  const ConnTracker::Changes ch = ct.take_changes();
  EXPECT_EQ(ch.size(), 2u);
  EXPECT_GT(stamp_of(ch, fwd), before);
  EXPECT_GT(stamp_of(ch, reply), before);
  EXPECT_EQ(stamp_of(ch, conn_n(7)), 0u);  // untouched connection
  // Removing a connection that does not exist stamps nothing.
  EXPECT_FALSE(ct.remove(conn_n(99)));
  EXPECT_TRUE(ct.take_changes().empty());
}

TEST(ConnTrackerStampTest, ExpiryStampsOnlyExpiredConnections) {
  ConnTrackerConfig cfg;
  cfg.idle_timeout_ns = 1000;
  ConnTracker ct(cfg);
  ct.commit(conn_n(1), 0, 100);
  ct.commit(conn_n(2), 0, 900);
  ct.take_changes();
  const uint64_t before = ct.stamp();
  ASSERT_EQ(ct.expire_idle(1500), 1u);
  const ConnTracker::Changes ch = ct.take_changes();
  EXPECT_EQ(ch.size(), 1u);
  EXPECT_GT(stamp_of(ch, conn_n(1)), before);
  EXPECT_EQ(stamp_of(ch, conn_n(2)), 0u);
}

TEST(ConnTrackerStampTest, ZoneCapEvictionStampsVictim) {
  ConnTrackerConfig cfg;
  cfg.max_per_zone = 2;
  ConnTracker ct(cfg);
  ct.commit(conn_n(1), 1, 100);
  ct.commit(conn_n(2), 1, 200);
  ct.take_changes();
  ct.commit(conn_n(3), 1, 300);  // evicts conn 1, the zone's LRU
  ASSERT_EQ(ct.stats().evicted_zone_cap, 1u);
  const ConnTracker::Changes ch = ct.take_changes();
  EXPECT_EQ(ch.size(), 2u);
  EXPECT_GT(stamp_of(ch, conn_n(1), 1), 0u);
  EXPECT_GT(stamp_of(ch, conn_n(3), 1), stamp_of(ch, conn_n(1), 1));
  EXPECT_EQ(stamp_of(ch, conn_n(2), 1), 0u);
}

TEST(ConnTrackerStampTest, GlobalCapEvictionStampsVictim) {
  ConnTrackerConfig cfg;
  cfg.max_entries = 2;
  ConnTracker ct(cfg);
  ct.commit(conn_n(1), 2, 100);
  ct.commit(conn_n(2), 2, 200);
  ct.take_changes();
  ct.commit(conn_n(3), 1, 300);  // global cap: zone 2 (largest) pays
  ASSERT_EQ(ct.stats().evicted_global_cap, 1u);
  const ConnTracker::Changes ch = ct.take_changes();
  EXPECT_EQ(ch.size(), 2u);
  EXPECT_GT(stamp_of(ch, conn_n(1), 2), 0u);
  EXPECT_GT(stamp_of(ch, conn_n(3), 1), stamp_of(ch, conn_n(1), 2));
  EXPECT_EQ(stamp_of(ch, conn_n(2), 2), 0u);
}

TEST(ConnTrackerStampTest, FlushRecordsFlushStamp) {
  ConnTracker ct;
  ct.commit(conn_n(1));
  ct.commit(conn_n(2), 3);
  EXPECT_EQ(ct.flush_stamp(), 0u);
  ct.flush();
  EXPECT_EQ(ct.flush_stamp(), ct.stamp());
  EXPECT_GT(ct.flush_stamp(), 0u);
  // The flush stamp stands for every connection; no per-connection record.
  EXPECT_TRUE(ct.take_changes().empty());
  // Flushing an empty tracker changes nothing.
  const uint64_t stamp = ct.stamp();
  ct.flush();
  EXPECT_EQ(ct.stamp(), stamp);
}

TEST(CtDepsTest, StaleExactlyWhenAConsultedConnectionChangedLater) {
  ConnTracker ct;
  ct.commit(conn_n(1));
  ct.take_changes();
  CtDeps d;
  d.stamp = ct.stamp();
  d.add(ConnTracker::conn_key(conn_n(1), 0).hash);
  d.add(ConnTracker::conn_key(conn_n(1), 0).hash);  // deduplicated
  d.add(ConnTracker::conn_key(conn_n(2), 0).hash);
  EXPECT_EQ(d.n, 2u);
  EXPECT_FALSE(d.overflow);

  ct.commit(conn_n(3));  // not consulted
  EXPECT_FALSE(d.stale(ct, ct.take_changes()));
  ct.commit(conn_n(2));  // consulted (was absent, now committed)
  EXPECT_TRUE(d.stale(ct, ct.take_changes()));
  ct.remove(conn_n(1));
  EXPECT_TRUE(d.stale(ct, ct.take_changes()));

  // A translation stamped after a change is not stale for it.
  ct.commit(conn_n(1));
  CtDeps later;
  later.stamp = ct.stamp();
  later.add(ConnTracker::conn_key(conn_n(1), 0).hash);
  EXPECT_FALSE(later.stale(ct, ct.take_changes()));
  // A flush after the stamp makes every translation stale.
  ct.flush();
  EXPECT_TRUE(later.stale(ct, ct.take_changes()));
  CtDeps none;
  none.stamp = 0;
  EXPECT_TRUE(none.stale(ct, {}));
}

TEST(CtDepsTest, OverflowCountsAnyChange) {
  ConnTracker ct;
  CtDeps d;
  d.stamp = ct.stamp();
  for (uint32_t n = 1; n <= 3; ++n)
    d.add(ConnTracker::conn_key(conn_n(n), 0).hash);
  EXPECT_EQ(d.n, CtDeps::kInline);
  EXPECT_TRUE(d.overflow);
  EXPECT_FALSE(d.stale(ct, {}));
  ct.commit(conn_n(50));  // an unrelated connection
  EXPECT_TRUE(d.stale(ct, ct.take_changes()));
}

}  // namespace
}  // namespace ovs
