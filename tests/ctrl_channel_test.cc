// Control-plane wire + reliable channel tests (DESIGN.md §12).
//
// The claims under test:
//   * the transport is a deterministic virtual-time wire: latency-ordered
//     delivery, detached nodes eat traffic, wire faults (drop / delay /
//     duplicate) come only from the injector;
//   * the channel is exactly-once in-order within a connection epoch under
//     arbitrary drop/duplicate faults, with a bounded in-flight window and
//     capped exponential backoff;
//   * a connection reset LOSES whatever was in flight or queued — a barrier
//     queued behind a lost flow-mod is lost with it, never delivered, so no
//     reply can certify the lost mods (the satellite semantics);
//   * stale epochs are fenced; a dead channel can be reconnected.
#include "ctrl/channel.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "ctrl/transport.h"
#include "sim/clock.h"
#include "util/fault.h"

namespace ovs {
namespace {

CtrlMsg data_msg(const std::string& tag) {
  CtrlMsg m;
  m.type = CtrlMsgType::kFlowMod;
  m.flow_mod.op = FlowModPayload::Op::kAdd;
  m.flow_mod.spec = tag;
  return m;
}

struct Endpoint {
  CtrlChannel ch;
  std::vector<CtrlMsg> got;
  Endpoint(CtrlTransport* net, uint32_t self, uint32_t peer,
           ChannelConfig cfg = {}, FaultInjector* f = nullptr)
      : ch(net, self, peer, cfg, f) {}
};

void attach(CtrlTransport& net, uint32_t id, Endpoint& e) {
  net.attach(id, [&e](const CtrlMsg& m, uint64_t now) {
    e.ch.on_receive(m, now, &e.got);
  });
}

void run(CtrlTransport& net, Endpoint& a, Endpoint& b, uint64_t& now,
         uint64_t until, uint64_t step = kMillisecond) {
  while (now < until) {
    now += step;
    net.deliver_until(now);
    a.ch.tick(now);
    b.ch.tick(now);
  }
}

TEST(CtrlTransport, DeliversInOrderAfterLatency) {
  CtrlTransport net;
  std::vector<std::string> got;
  net.attach(2, [&](const CtrlMsg& m, uint64_t) {
    got.push_back(m.flow_mod.spec);
  });
  for (int i = 0; i < 3; ++i) {
    std::string spec = "m";
    spec += std::to_string(i);
    CtrlMsg m = data_msg(spec);
    m.src = 1;
    m.dst = 2;
    net.send(std::move(m), 0);
  }
  EXPECT_EQ(net.deliver_until(TransportConfig{}.latency_ns - 1), 0u);
  EXPECT_EQ(net.deliver_until(TransportConfig{}.latency_ns), 3u);
  ASSERT_EQ(got.size(), 3u);
  EXPECT_EQ(got[0], "m0");
  EXPECT_EQ(got[2], "m2");

  // A detached destination silently eats traffic.
  net.detach(2);
  CtrlMsg m = data_msg("dead");
  m.src = 1;
  m.dst = 2;
  net.send(std::move(m), kSecond);
  net.deliver_until(2 * kSecond);
  EXPECT_EQ(net.stats().to_dead, 1u);
  EXPECT_EQ(got.size(), 3u);
}

TEST(CtrlTransport, WireFaultsComeOnlyFromTheInjector) {
  CtrlTransport net;
  FaultInjector fault(7);
  net.set_fault(&fault);
  size_t delivered = 0;
  uint64_t last_at = 0;
  net.attach(2, [&](const CtrlMsg&, uint64_t at) {
    ++delivered;
    last_at = at;
  });
  auto send_one = [&](uint64_t now) {
    CtrlMsg m = data_msg("x");
    m.src = 1;
    m.dst = 2;
    net.send(std::move(m), now);
  };

  // Drop the first offered message only.
  fault.arm_window(FaultPoint::kCtrlMsgDrop, 0, 1);
  send_one(0);
  net.deliver_until(kSecond);
  EXPECT_EQ(delivered, 0u);
  EXPECT_EQ(net.stats().dropped, 1u);

  // Every message duplicated: one send, two arrivals.
  fault.disarm_all();
  fault.set_probability(FaultPoint::kCtrlMsgDuplicate, 1.0);
  send_one(kSecond);
  net.deliver_until(2 * kSecond);
  EXPECT_EQ(delivered, 2u);
  EXPECT_EQ(net.stats().duplicated, 1u);

  // Delay pushes delivery past base latency by delay_extra_ns.
  fault.disarm_all();
  fault.set_probability(FaultPoint::kCtrlMsgDelay, 1.0);
  send_one(2 * kSecond);
  net.deliver_until(3 * kSecond);
  EXPECT_EQ(delivered, 3u);
  EXPECT_EQ(last_at, 2 * kSecond + TransportConfig{}.latency_ns +
                         TransportConfig{}.delay_extra_ns);
}

TEST(CtrlChannel, ExactlyOnceInOrderUnderHeavyLoss) {
  CtrlTransport net;
  FaultInjector fault(11);
  fault.set_probability(FaultPoint::kCtrlMsgDrop, 0.3);
  net.set_fault(&fault);
  Endpoint a(&net, 1, 2), b(&net, 2, 1);
  attach(net, 1, a);
  attach(net, 2, b);

  uint64_t now = 0;
  constexpr int kN = 200;
  for (int i = 0; i < kN; ++i)
    a.ch.send(data_msg(std::to_string(i)), now);
  run(net, a, b, now, 120 * kSecond);

  ASSERT_EQ(b.got.size(), static_cast<size_t>(kN));
  for (int i = 0; i < kN; ++i)
    EXPECT_EQ(b.got[static_cast<size_t>(i)].flow_mod.spec,
              std::to_string(i));
  EXPECT_GT(a.ch.stats().retransmits, 0u);
  EXPECT_EQ(a.ch.stats().resets, 0u);
}

TEST(CtrlChannel, WireDuplicatesDiscardedExactlyOnce) {
  CtrlTransport net;
  FaultInjector fault(13);
  fault.set_probability(FaultPoint::kCtrlMsgDuplicate, 1.0);
  net.set_fault(&fault);
  Endpoint a(&net, 1, 2), b(&net, 2, 1);
  attach(net, 1, a);
  attach(net, 2, b);

  uint64_t now = 0;
  for (int i = 0; i < 50; ++i)
    a.ch.send(data_msg(std::to_string(i)), now);
  run(net, a, b, now, 30 * kSecond);

  EXPECT_EQ(b.got.size(), 50u);
  EXPECT_GT(b.ch.stats().dups_discarded, 0u);
}

TEST(CtrlChannel, InFlightWindowIsBounded) {
  CtrlTransport net;
  ChannelConfig cfg;
  cfg.window = 4;
  Endpoint a(&net, 1, 2, cfg), b(&net, 2, 1, cfg);
  attach(net, 1, a);
  attach(net, 2, b);

  uint64_t now = 0;
  for (int i = 0; i < 50; ++i)
    a.ch.send(data_msg(std::to_string(i)), now);
  EXPECT_EQ(a.ch.in_flight(), 4u);
  EXPECT_EQ(a.ch.queued(), 46u);
  run(net, a, b, now, 30 * kSecond);

  ASSERT_EQ(b.got.size(), 50u);
  for (int i = 0; i < 50; ++i)
    EXPECT_EQ(b.got[static_cast<size_t>(i)].flow_mod.spec,
              std::to_string(i));
  EXPECT_LE(a.ch.stats().max_in_flight, 4u);
}

// The reset-loss semantics behind the barrier satellite: flow-mods dropped
// on the wire and then orphaned by a connection reset are NEVER delivered,
// and the barrier queued behind them is lost with them — the receiver can
// never emit a reply certifying mods it did not apply.
TEST(CtrlChannel, ResetLosesInFlightIncludingBarrier) {
  CtrlTransport net;
  FaultInjector wire(17);    // per-dst wire faults (drops toward node 2)
  FaultInjector reset(19);   // sender-side connection resets
  net.set_node_fault(2, &wire);
  Endpoint a(&net, 1, 2, ChannelConfig{}, &reset);
  Endpoint b(&net, 2, 1);
  attach(net, 1, a);
  attach(net, 2, b);

  uint64_t now = 0;
  // First three transmissions toward B vanish on the wire.
  wire.arm_window(FaultPoint::kCtrlMsgDrop, 0, 3);
  a.ch.send(data_msg("fm1"), now);
  a.ch.send(data_msg("fm2"), now);
  CtrlMsg barrier;
  barrier.type = CtrlMsgType::kBarrierRequest;
  barrier.xid = 99;
  a.ch.send(std::move(barrier), now);
  net.deliver_until(now + kMillisecond);  // nothing arrives (all dropped)
  EXPECT_TRUE(b.got.empty());

  // Before any retransmission, the next send rips the connection: the two
  // flow-mods and the barrier are lost for good. (Every send consults the
  // reset point, so the three sends above consumed occurrences 0-2.)
  reset.arm_window(FaultPoint::kCtrlConnReset, 3, 4);
  a.ch.send(data_msg("fm3"), now + kMillisecond);
  EXPECT_EQ(a.ch.stats().lost_to_reset, 3u);
  EXPECT_EQ(a.ch.conn_epoch(), 2u);

  run(net, a, b, now, 10 * kSecond);
  ASSERT_EQ(b.got.size(), 1u);
  EXPECT_EQ(b.got[0].flow_mod.spec, "fm3");
  for (const CtrlMsg& m : b.got)
    EXPECT_NE(m.type, CtrlMsgType::kBarrierRequest);
}

TEST(CtrlChannel, RetransmitBackoffDeclaresDeadThenReconnects) {
  CtrlTransport net;
  FaultInjector wire(23);
  wire.set_probability(FaultPoint::kCtrlMsgDrop, 1.0);  // B is unreachable
  net.set_node_fault(2, &wire);
  ChannelConfig cfg;
  cfg.max_retx = 3;
  Endpoint a(&net, 1, 2, cfg), b(&net, 2, 1, cfg);
  attach(net, 1, a);
  attach(net, 2, b);

  uint64_t now = 0;
  a.ch.send(data_msg("x"), now);
  run(net, a, b, now, 30 * kSecond);
  EXPECT_TRUE(a.ch.dead());
  EXPECT_EQ(a.ch.stats().retransmits, 2u);  // attempts 2 and 3
  EXPECT_TRUE(b.got.empty());

  // Owner-driven reconnect on a healed wire: fresh epoch, delivery works.
  wire.disarm_all();
  a.ch.reconnect(now);
  EXPECT_FALSE(a.ch.dead());
  a.ch.send(data_msg("y"), now);
  run(net, a, b, now, now + 5 * kSecond);
  ASSERT_EQ(b.got.size(), 1u);
  EXPECT_EQ(b.got[0].flow_mod.spec, "y");
  EXPECT_EQ(b.ch.conn_epoch(), 2u);  // adopted A's post-reconnect epoch

  // A straggler stamped with the dead epoch is fenced, not delivered.
  CtrlMsg stale = data_msg("stale");
  stale.src = 1;
  stale.dst = 2;
  stale.seq = 7;
  stale.conn_epoch = 1;
  net.send(std::move(stale), now);
  net.deliver_until(now + kSecond);
  EXPECT_EQ(b.got.size(), 1u);
  EXPECT_EQ(b.ch.stats().stale_discarded, 1u);
}

TEST(CtrlChannel, DeterministicReplay) {
  auto episode = [] {
    CtrlTransport net;
    FaultInjector fault(31);
    fault.set_probability(FaultPoint::kCtrlMsgDrop, 0.25);
    fault.set_probability(FaultPoint::kCtrlMsgDuplicate, 0.1);
    net.set_fault(&fault);
    Endpoint a(&net, 1, 2), b(&net, 2, 1);
    attach(net, 1, a);
    attach(net, 2, b);
    uint64_t now = 0;
    for (int i = 0; i < 100; ++i)
      a.ch.send(data_msg(std::to_string(i)), now);
    run(net, a, b, now, 60 * kSecond);
    return std::make_tuple(b.got.size(), a.ch.stats().retransmits,
                           net.stats().dropped, net.stats().duplicated);
  };
  EXPECT_EQ(episode(), episode());
}

}  // namespace
}  // namespace ovs
