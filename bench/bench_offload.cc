// Simulated NIC hardware-offload tier bench (DESIGN.md §13): steady-state
// throughput and offload hit rate as the slot table grows, under a Zipf
// per-flow skew, plus a churn + crash/restart safety loop.
//
// Part 1 — size sweep. The same Zipf workload (SkewSampler over n_flows
// 5-tuples spread across eight prefix-length rule groups, so megaflow hits
// walk a multi-tuple TSS) runs against offload_slots in {0, 256, 1k, 4k,
// 16k}. For each size we report the offload hit rate and the modeled
// single-core Mpps (measured packets / modeled kernel seconds): the tier
// only pays off when the earned-slot placement actually captures the head
// of the distribution, since every CPU-path packet is taxed an extra
// offload_probe for the miss.
//
// Part 2 — churn + crash/restart loop. With the tier enabled, rules are
// rewired mid-run while the daemon crashes twice; during each blackout
// offloaded slots and megaflow entries are rotted to a bogus output port.
// Restart reconciliation must adopt-or-flush the NIC table so that after
// recovery not a single packet is misdelivered.
//
// Gates (exit non-zero, so CI can run this as a check):
//   1. model Mpps at 4096 slots >= 1.3x the offload-off baseline;
//   2. per-port delivery fingerprint identical across every table size
//      (the tier may change which tier serves a packet, never where it
//      goes) and off-mode serves zero offload hits;
//   3. zero misdelivered packets after recovery in the churn/crash loop,
//      with a clean shadow-coherence check (dp_check) at the end;
//   4. deterministic: two runs from the same seed produce identical
//      counter fingerprints.
#include <algorithm>
#include <cstdio>
#include <string>
#include <unordered_set>
#include <vector>

#include "bench_common.h"
#include "datapath/dp_check.h"
#include "sim/clock.h"
#include "util/fault.h"
#include "util/rng.h"
#include "vswitchd/switch.h"
#include "workload/skew.h"

using namespace ovs;
using namespace ovs::benchutil;

namespace {

constexpr uint32_t kBogusPort = 0xDEAD;  // where rotted entries forward
constexpr size_t kGroups = 8;            // prefix-length rule groups

struct Params {
  size_t n_flows = 60000;
  double zipf_s = 1.0;
  size_t pps = 50000;
  double warmup_seconds = 4;    // placement converges over a few dump passes
  double measure_seconds = 4;
  size_t handler_budget = 512;  // upcalls serviced per 1 ms tick
  size_t maintenance_ms = 1000; // dump interval: sets EWMA earn depth
  std::vector<size_t> sizes = {0, 256, 1024, 4096, 16384};
  uint64_t seed = 11;
};

// Eight 5-tuple connections share each megaflow (distinct sport and host
// octet), so a single offloaded slot absorbs traffic the exact-match EMC
// needs eight entries for — the aggregation that makes a small NIC table
// worth more than a bigger microflow cache. Megaflow m lives in rule group
// m % kGroups; group g's rules mask nw_dst with prefix length 17 + g, so
// the megaflow TSS carries eight distinct mask shapes, and octet 2 plus
// the top 1+g bits of octet 3 spread with m, giving thousands of megaflows
// per tuple. Flow index == Zipf rank (SkewSampler draws low indices most
// often), so hot megaflows land in every group and every tuple stays warm.
constexpr size_t kConnsPerMegaflow = 8;

struct MfCoords {
  size_t g, b2, hi;
};

MfCoords mf_coords(size_t m) {
  const size_t g = m % kGroups;
  const size_t jm = m / kGroups;
  return {g, jm % 256, (jm / 256) % (size_t{1} << (1 + g))};
}

Packet flow_packet(size_t i) {
  const size_t v = i % kConnsPerMegaflow;
  const size_t m = i / kConnsPerMegaflow;
  const MfCoords c = mf_coords(m);
  Packet p;
  // Port/MAC/src are constant per megaflow: the pipeline unwildcards the
  // fields it probes, and varying them per connection would shatter each
  // intended megaflow into one aggregate per (in_port, eth_src) combo.
  p.key.set_in_port(1 + static_cast<uint32_t>(m % 4));
  p.key.set_eth_src(EthAddr(0, 0, 0, 0, 0, static_cast<uint8_t>(1 + m % 4)));
  p.key.set_eth_dst(EthAddr(0, 0, 0, 0, 0, 0x99));
  p.key.set_eth_type(ethertype::kIpv4);
  p.key.set_nw_proto(ipproto::kTcp);
  p.key.set_nw_src(Ipv4(192, 168, static_cast<uint8_t>(c.b2),
                        static_cast<uint8_t>(m % 4)));
  // Octet 4 is entirely host bits at /17../24, so the per-connection
  // variant stays inside one megaflow.
  p.key.set_nw_dst(Ipv4(static_cast<uint8_t>(10 + c.g),
                        static_cast<uint8_t>(c.b2),
                        static_cast<uint8_t>((c.hi << (7 - c.g)) % 256),
                        static_cast<uint8_t>(1 + v)));
  p.key.set_tp_src(static_cast<uint16_t>(2000 + i));
  p.key.set_tp_dst(443);
  p.size_bytes = 100;
  return p;
}

// One rule per /17+g subnet the traffic actually uses, forwarding to the
// group's egress port (plus `port_shift`, the churn loop's rewiring knob).
// `only_group` restricts to one group (SIZE_MAX = all).
void add_group_rules(Switch& sw, size_t n_flows, size_t only_group,
                     size_t port_shift) {
  std::unordered_set<uint32_t> seen;
  for (size_t m = 0; m * kConnsPerMegaflow < n_flows; ++m) {
    const MfCoords c = mf_coords(m);
    if (only_group != SIZE_MAX && c.g != only_group) continue;
    const auto key = static_cast<uint32_t>((c.g << 20) | (c.b2 << 8) | c.hi);
    if (!seen.insert(key).second) continue;
    sw.table(0).add_flow(
        MatchBuilder().tcp().nw_dst_prefix(
            Ipv4(static_cast<uint8_t>(10 + c.g), static_cast<uint8_t>(c.b2),
                 static_cast<uint8_t>((c.hi << (7 - c.g)) % 256), 0),
            static_cast<unsigned>(17 + c.g)),
        10,
        OfActions().output(
            100 + static_cast<uint32_t>((c.g + port_shift) % kGroups)));
  }
}

std::unique_ptr<Switch> make_switch(size_t slots, const SwitchConfig& base,
                                    size_t n_flows) {
  SwitchConfig cfg = base;
  cfg.offload_slots = slots;
  // Let the tail earn slots too: at these rates a mid-popularity megaflow
  // sees on the order of one packet per dump interval, and an EWMA bar at
  // the default 1.0 would churn slots that are in fact worth keeping.
  cfg.offload_min_ewma = 0.25;
  auto sw = std::make_unique<Switch>(cfg);
  for (uint32_t p = 1; p <= 4; ++p) sw->add_port(p);
  for (uint32_t e = 100; e < 100 + kGroups; ++e) sw->add_port(e);
  add_group_rules(*sw, n_flows, SIZE_MAX, 0);
  return sw;
}

uint64_t fnv1a(const std::vector<std::string>& strs) {
  uint64_t h = 0xcbf29ce484222325ULL;
  for (const std::string& s : strs)
    for (char c : s) {
      h ^= static_cast<uint8_t>(c);
      h *= 0x100000001b3ULL;
    }
  return h;
}

struct SweepResult {
  size_t slots = 0;
  double hit_rate = 0;       // offload hits / measured packets
  double mpps = 0;           // modeled single-core Mpps, measured phase
  double emc_rate = 0;       // microflow hits / measured packets
  double mf_rate = 0;        // megaflow hits / measured packets
  double miss_rate = 0;      // upcalled / measured packets
  double tuples_per_hit = 0; // megaflow TSS depth, measured phase
  uint64_t installs = 0;
  uint64_t evicts = 0;
  uint64_t delivered = 0;    // packets out the group egress ports
  uint64_t delivery_fp = 0;  // per-port tx fingerprint (whole run)
  uint64_t counter_fp = 0;   // determinism fingerprint (whole run)
};

SweepResult run_sweep_point(size_t slots, const Params& P) {
  SwitchConfig base;
  base.flow_limit = 200000;
  std::unique_ptr<Switch> sw = make_switch(slots, base, P.n_flows);
  Switch* swp = sw.get();

  SkewSampler skew(P.n_flows, P.zipf_s);
  Rng rng(P.seed);
  VirtualClock clock;
  const size_t pkts_per_tick = std::max<size_t>(1, P.pps / 1000);
  const auto warm_ticks = static_cast<size_t>(P.warmup_seconds * 1000);
  const auto meas_ticks = static_cast<size_t>(P.measure_seconds * 1000);

  double kernel0 = 0;
  Datapath::Stats s0;
  for (size_t tick = 0; tick < warm_ticks + meas_ticks; ++tick) {
    if (tick == warm_ticks) {
      kernel0 = swp->cpu().kernel_cycles;
      s0 = swp->datapath().stats();
    }
    for (size_t i = 0; i < pkts_per_tick; ++i)
      swp->inject(flow_packet(skew.sample(rng)), clock.now());
    swp->handle_upcalls(clock.now(), P.handler_budget);
    clock.advance(kMillisecond);
    if ((tick + 1) % P.maintenance_ms == 0) swp->run_maintenance(clock.now());
  }

  SweepResult r;
  r.slots = slots;
  const Datapath::Stats d = swp->datapath().stats();
  const auto measured = static_cast<double>(d.packets - s0.packets);
  if (measured > 0) {
    r.hit_rate = static_cast<double>(d.offload_hits - s0.offload_hits) /
                 measured;
    r.emc_rate = static_cast<double>(d.microflow_hits - s0.microflow_hits) /
                 measured;
    r.mf_rate = static_cast<double>(d.megaflow_hits - s0.megaflow_hits) /
                measured;
    r.miss_rate = static_cast<double>(d.misses - s0.misses) / measured;
  }
  const double kernel = swp->cpu().kernel_cycles - kernel0;
  r.mpps = kernel == 0 ? 0 : measured / base.cost.seconds(kernel) / 1e6;
  const auto mf_hits = static_cast<double>(d.megaflow_hits - s0.megaflow_hits);
  r.tuples_per_hit =
      mf_hits == 0 ? 0
                   : static_cast<double>(d.tuples_searched - s0.tuples_searched) /
                         mf_hits;
  r.installs = swp->counters().offload_installs;
  r.evicts = swp->counters().offload_evicts;

  std::vector<std::string> ports;
  uint64_t delivered = 0;
  for (uint32_t e = 100; e < 100 + kGroups; ++e) {
    delivered += swp->port_stats(e).tx_packets;
    ports.push_back(std::to_string(e) + ":" +
                    std::to_string(swp->port_stats(e).tx_packets));
  }
  r.delivered = delivered;
  r.delivery_fp = fnv1a(ports);
  const Switch::Counters& c = swp->counters();
  r.counter_fp = fnv1a(
      {std::to_string(c.flow_setups), std::to_string(c.upcalls_handled),
       std::to_string(c.offload_installs), std::to_string(c.offload_evicts),
       std::to_string(d.packets), std::to_string(d.offload_hits),
       std::to_string(d.misses), std::to_string(r.delivery_fp)});
  return r;
}

// Churn + crash/restart loop: returns misdelivered-after-recovery count, or
// SIZE_MAX when the final coherence check fails.
size_t run_churn_crash(const Params& P, size_t slots) {
  FaultInjector fault(P.seed);
  const size_t n_flows = 4000;
  SwitchConfig base;
  base.flow_limit = 200000;
  base.fault = &fault;
  std::unique_ptr<Switch> sw = make_switch(slots, base, n_flows);
  SkewSampler skew(n_flows, P.zipf_s);
  Rng rng(P.seed + 1);
  VirtualClock clock;
  const size_t ticks = 8000;
  const std::vector<size_t> crash_ticks = {3000, 5500};
  size_t pkts_per_tick = 12;

  uint64_t mis_floor = 0;  // bogus-port deliveries excused by blackouts
  bool serving_prev = true;
  size_t churn_gen = 0;
  for (size_t tick = 0; tick < ticks; ++tick) {
    for (size_t i = 0; i < pkts_per_tick; ++i)
      sw->inject(flow_packet(skew.sample(rng)), clock.now());
    sw->handle_upcalls(clock.now(), P.handler_budget);
    clock.advance(kMillisecond);

    const bool crash_now =
        std::find(crash_ticks.begin(), crash_ticks.end(), tick) !=
        crash_ticks.end();
    if (crash_now) {
      const uint64_t occ = fault.occurrences(FaultPoint::kUserspaceCrash);
      fault.arm_window(FaultPoint::kUserspaceCrash, occ, occ + 1);
      sw->run_maintenance(clock.now());
      // Blackout rot: offloaded slots and megaflow entries desynchronized
      // to the bogus port while no daemon is watching.
      for (size_t k = 0; k < 16; ++k) {
        sw->datapath().offload_corrupt(
            k * 7, OffloadTable::Corruption::kStaleActions);
        sw->datapath().corrupt_entry(k * 13);
      }
    } else if ((tick + 1) % P.maintenance_ms == 0) {
      sw->run_maintenance(clock.now());
      if (sw->lifecycle() == LifecycleState::kServing) {
        sw->self_check();
        // Mid-run churn: rewire one whole rule group to another egress
        // port. Stale megaflow and offload copies may forward to the old
        // (real) port until the next revalidation pass — never to the
        // bogus one.
        const size_t g = churn_gen++ % kGroups;
        size_t n = 0;
        char buf[48];
        std::snprintf(buf, sizeof buf, "ip, nw_dst=%zu.0.0.0/8", 10 + g);
        sw->del_flows(buf, &n);
        add_group_rules(*sw, n_flows, g, churn_gen);
      }
    }
    // Packets misdelivered while crashed/reconciling are the blackout
    // shadow; everything after the daemon serves again is gated. The floor
    // also advances on the restart tick itself: its packets were injected
    // before run_maintenance() brought the daemon back.
    const bool serving_now = sw->lifecycle() == LifecycleState::kServing;
    if (!serving_now || !serving_prev)
      mis_floor = sw->port_stats(kBogusPort).tx_packets;
    serving_prev = serving_now;
  }

  const uint64_t mis_after = sw->port_stats(kBogusPort).tx_packets - mis_floor;
  const DpCheckReport rep = run_dp_check(sw->datapath());
  if (!rep.ok() || !sw->self_check().ok()) return SIZE_MAX;
  return static_cast<size_t>(mis_after);
}

}  // namespace

int main(int argc, char** argv) {
  Flags flags(argc, argv);
  Params P;
  if (flags.boolean("quick", false)) {
    P.n_flows = 40000;
    P.pps = 20000;
    P.warmup_seconds = 3;
    P.measure_seconds = 2;
    P.sizes = {0, 256, 4096};
  }
  P.n_flows = flags.u64("flows", P.n_flows);
  P.zipf_s = flags.f64("zipf", P.zipf_s);
  P.pps = flags.u64("pps", P.pps);
  P.seed = flags.u64("seed", P.seed);

  BenchReport report("offload");
  std::printf("NIC offload tier: %zu flows, zipf s=%.2f, %zu rule groups "
              "(masks /17../24), %zu pps\n",
              P.n_flows, P.zipf_s, kGroups, P.pps);
  print_rule('=');
  std::printf("%-8s %8s %8s %6s %6s %6s %9s %8s %8s\n", "slots", "hit_rate",
              "mpps", "emc%", "mf%", "miss%", "tuples/mf", "installs",
              "evicts");
  print_rule();

  std::vector<SweepResult> rows;
  for (size_t slots : P.sizes) {
    rows.push_back(run_sweep_point(slots, P));
    const SweepResult& r = rows.back();
    std::printf("%-8zu %7.1f%% %8.2f %5.1f%% %5.1f%% %5.1f%% %9.2f %8llu "
                "%8llu\n",
                r.slots, 100 * r.hit_rate, r.mpps, 100 * r.emc_rate,
                100 * r.mf_rate, 100 * r.miss_rate, r.tuples_per_hit,
                static_cast<unsigned long long>(r.installs),
                static_cast<unsigned long long>(r.evicts));
    report.add("hit_rate", r.hit_rate, {{"slots", std::to_string(r.slots)}});
    report.add("model_mpps", r.mpps, {{"slots", std::to_string(r.slots)}});
    report.add("offload_installs", static_cast<double>(r.installs),
               {{"slots", std::to_string(r.slots)}});
  }
  print_rule();

  const auto* off = &rows[0];
  const SweepResult* at4k = nullptr;
  for (const SweepResult& r : rows)
    if (r.slots == 4096) at4k = &r;
  if (at4k == nullptr) at4k = &rows.back();

  const double speedup = off->mpps == 0 ? 0 : at4k->mpps / off->mpps;
  const bool gate_speedup = speedup >= 1.3;
  bool gate_delivery = off->hit_rate == 0 && off->delivered > 0;
  for (const SweepResult& r : rows)
    gate_delivery = gate_delivery && r.delivery_fp == off->delivery_fp;
  const SweepResult replay = run_sweep_point(at4k->slots, P);
  const bool gate_determinism = replay.counter_fp == at4k->counter_fp;
  const size_t mis = run_churn_crash(P, 1024);
  const bool gate_churn = mis == 0;

  std::printf("model speedup at %zu slots vs off: %.2fx  [gate >= 1.3x: %s]\n",
              at4k->slots, speedup, gate_speedup ? "PASS" : "FAIL");
  std::printf("delivery fingerprint invariant across sizes, off-mode inert: "
              "%s\n", gate_delivery ? "PASS" : "FAIL");
  std::printf("misdelivered after recovery (churn + 2 crashes, slots=1024): "
              "%s  [gate == 0: %s]\n",
              mis == SIZE_MAX ? "dp_check FAILED" : std::to_string(mis).c_str(),
              gate_churn ? "PASS" : "FAIL");
  std::printf("deterministic replay from seed %llu: %s\n",
              static_cast<unsigned long long>(P.seed),
              gate_determinism ? "PASS" : "FAIL");

  report.add("speedup_4k", speedup);
  report.add("misdelivered_after", mis == SIZE_MAX ? -1.0
                                                   : static_cast<double>(mis));
  report.add("delivery_invariant", gate_delivery ? 1 : 0);
  report.add("deterministic", gate_determinism ? 1 : 0);
  report.write();

  return gate_speedup && gate_delivery && gate_churn && gate_determinism ? 0
                                                                         : 1;
}
