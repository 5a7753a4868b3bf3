// Multi-threaded revalidator bench (§4.3, §6): pass latency and revalidated
// flows/s as a function of (a) plan-thread count and (b) the dirty fraction
// seen by the two-tier tag fast path.
//
// Both workloads run the full Switch on a four-worker datapath
// (datapath.n_workers=4) and read Switch::last_reval_pass(); all reported
// rates come from the *virtual-cycle* pass latency (plan makespan plus
// per-thread sync from the CostModel), so the numbers are deterministic and
// host-independent — plan threads really run, but only correctness depends
// on them, never the metric. Two acceptance gates (exit code 1 on failure):
//
//   * scaling: flows/s at 4 plan threads >= 2.5x the 1-thread rate;
//   * tag fast path: >= 90% of re-translations skipped when <= 10% of the
//     flows are dirty (MAC moves touching 4 of 48 client MACs).
//
// Flags: --flows=N --threads_max=N --clients=N --repeats=N --quick=1
#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.h"
#include "ofproto/mac_learning.h"
#include "packet/match.h"

namespace ovs {
namespace {

using benchutil::BenchReport;
using benchutil::Flags;

constexpr uint64_t kMs = 1'000'000ULL;

// ---------------------------------------------------------------------------
// Workload 1: thread scaling. n exact-nw_dst rules produce n distinct
// megaflows; force_full_revalidation() makes each measured pass re-translate
// every flow.

SwitchConfig scaling_config() {
  SwitchConfig cfg;
  cfg.datapath.n_workers = 4;
  cfg.flow_limit = 1 << 20;
  cfg.dynamic_flow_limit = false;
  cfg.degradation.enabled = false;
  cfg.idle_timeout_ns = ~uint64_t{0} / 2;  // nothing idles out
  return cfg;
}

Packet dst_pkt(Ipv4 dst) {
  Packet p;
  p.key.set_in_port(1);
  p.key.set_eth_type(ethertype::kIpv4);
  p.key.set_nw_proto(ipproto::kTcp);
  p.key.set_nw_src(Ipv4(2, 2, 2, 2));
  p.key.set_nw_dst(dst);
  p.key.set_tp_src(1234);
  p.key.set_tp_dst(80);
  p.size_bytes = 128;
  return p;
}

Ipv4 nth_dst(size_t i) {
  return Ipv4(10, static_cast<uint8_t>(i >> 16), static_cast<uint8_t>(i >> 8),
              static_cast<uint8_t>(i));
}

double flows_per_sec(const RevalPassStats& ps, const CostModel& m) {
  const double sync =
      ps.threads_used > 1
          ? m.reval_thread_sync * static_cast<double>(ps.threads_used)
          : 0.0;
  return static_cast<double>(ps.examined) /
         m.seconds(ps.makespan_cycles + sync);
}

double pass_ms(const RevalPassStats& ps, const CostModel& m) {
  const double sync =
      ps.threads_used > 1
          ? m.reval_thread_sync * static_cast<double>(ps.threads_used)
          : 0.0;
  return m.seconds(ps.makespan_cycles + sync) * 1e3;
}

// ---------------------------------------------------------------------------
// Workload 2: tag fast path. NORMAL forwarding between `clients` client MACs
// and one server; every megaflow carries tag(src)|tag(dst). MAC bits are
// brute-forced so each participant owns a distinct Bloom-tag bit (the tag
// space has only 64), making "dirty" exact instead of probabilistic. Moving
// k client MACs dirties the 2k flows touching them out of 2*clients total.

std::vector<EthAddr> distinct_tag_macs(size_t n) {
  std::vector<EthAddr> macs;
  uint64_t used = 0;
  for (uint64_t v = 0x020000000001ULL; macs.size() < n; ++v) {
    const EthAddr mac(v);
    const uint64_t t = MacLearning::tag(mac, 0);
    if ((used & t) != 0) continue;
    used |= t;
    macs.push_back(mac);
  }
  return macs;
}

Packet eth_pkt(EthAddr src, EthAddr dst, uint32_t in_port) {
  Packet p;
  p.key.set_in_port(in_port);
  p.key.set_eth_src(src);
  p.key.set_eth_dst(dst);
  p.size_bytes = 128;
  return p;
}

int bench_main(int argc, char** argv) {
  const Flags flags(argc, argv);
  const bool quick = flags.boolean("quick", false);
  const size_t n_flows =
      std::max<uint64_t>(256, flags.u64("flows", quick ? 2000 : 20000));
  const size_t threads_max =
      std::max<uint64_t>(4, flags.u64("threads_max", quick ? 4 : 8));
  const size_t n_clients =
      std::clamp<uint64_t>(flags.u64("clients", 48), 8, 60);
  const size_t repeats = std::max<uint64_t>(1, flags.u64("repeats", 3));
  const CostModel cost;
  BenchReport report("revalidator");
  int rc = 0;

  // --- Workload 1: flows/s vs plan-thread count -------------------------
  Switch sw(scaling_config());
  sw.add_port(1);
  sw.add_port(2);
  for (size_t i = 0; i < n_flows; ++i)
    sw.table(0).add_flow(MatchBuilder().ip().nw_dst(nth_dst(i)), 10,
                         OfActions().output(2));
  uint64_t now = kMs;
  for (size_t i = 0; i < n_flows; ++i) {
    sw.inject(dst_pkt(nth_dst(i)), now);
    if ((i & 63) == 63) sw.handle_upcalls(now);
  }
  sw.handle_upcalls(now);
  std::printf("scaling workload: %zu megaflows installed (%zu wanted)\n",
              sw.datapath().flow_count(), n_flows);

  std::printf("%-8s %12s %14s %8s\n", "threads", "pass(ms)", "flows/s",
              "retrans");
  benchutil::print_rule();
  std::map<size_t, double> fps_by_threads;
  for (size_t t = 1; t <= threads_max; t *= 2) {
    sw.set_revalidator_threads(t);
    std::vector<double> fps, ms;
    uint64_t retrans = 0;
    for (size_t r = 0; r < repeats; ++r) {
      // Re-translate every flow. A flow-mod no longer serves: kTwoTier
      // re-translates only the flows a flow-mod can reach.
      sw.force_full_revalidation();
      now += kMs;
      sw.run_maintenance(now);
      const RevalPassStats& ps = sw.last_reval_pass();
      fps.push_back(flows_per_sec(ps, cost));
      ms.push_back(pass_ms(ps, cost));
      retrans = ps.retranslated;
    }
    std::sort(fps.begin(), fps.end());
    std::sort(ms.begin(), ms.end());
    const double med_fps = fps[fps.size() / 2];
    fps_by_threads[t] = med_fps;
    const std::map<std::string, std::string> params = {
        {"threads", std::to_string(t)}, {"flows", std::to_string(n_flows)}};
    report.add("reval_flows_per_sec", med_fps, params, repeats);
    report.add("reval_pass_ms", ms[ms.size() / 2], params, repeats);
    std::printf("%-8zu %12.3f %14.0f %8llu\n", t, ms[ms.size() / 2], med_fps,
                static_cast<unsigned long long>(retrans));
  }

  const double scaling = fps_by_threads[4] / fps_by_threads[1];
  report.add("reval_scaling_1_to_4", scaling,
             {{"flows", std::to_string(n_flows)}}, repeats);
  benchutil::print_rule();
  constexpr double kMinScaling = 2.5;
  std::printf("scaling 1 -> 4 threads: %.2fx (gate: >= %.1fx) %s\n", scaling,
              kMinScaling, scaling >= kMinScaling ? "PASS" : "FAIL");
  if (scaling < kMinScaling) rc = 1;

  // --- Workload 2: tag fast path vs dirty fraction ----------------------
  SwitchConfig tcfg = scaling_config();
  tcfg.reval_mode = RevalidationMode::kTwoTier;
  Switch tsw(tcfg);
  const std::vector<EthAddr> macs = distinct_tag_macs(n_clients + 1);
  const EthAddr server = macs[0];
  tsw.add_port(1);    // server
  tsw.add_port(2);    // migration target for dirtied clients
  for (size_t i = 0; i < n_clients; ++i)
    tsw.add_port(static_cast<uint32_t>(100 + i));
  tsw.table(0).add_flow(MatchBuilder(), 1, OfActions().normal());

  uint64_t tnow = kMs;
  tsw.pipeline().mac_learning().learn(server, 0, 1, tnow);
  for (size_t i = 0; i < n_clients; ++i) {
    const uint32_t port = static_cast<uint32_t>(100 + i);
    tsw.inject(eth_pkt(macs[i + 1], server, port), tnow);
    tsw.handle_upcalls(tnow);
    tsw.inject(eth_pkt(server, macs[i + 1], 1), tnow);
    tsw.handle_upcalls(tnow);
  }
  // Settle pass: consume the setup's MAC-learning generation bump so each
  // measurement below sees exactly its own k dirty MACs.
  tnow += kMs;
  tsw.run_maintenance(tnow);
  std::printf("\ntag workload: %zu megaflows over %zu clients (mode=twotier)\n",
              tsw.datapath().flow_count(), n_clients);

  std::printf("%-8s %-8s %10s %10s %12s\n", "dirty_k", "dirty%", "skipped",
              "retrans", "skip_ratio");
  benchutil::print_rule();
  const std::vector<size_t> dirty_ks =
      quick ? std::vector<size_t>{1, 4} : std::vector<size_t>{1, 2, 4, 12, 24};
  size_t next_client = 0;
  double skip_at_gate = -1.0;
  for (size_t k : dirty_ks) {
    if (next_client + k > n_clients) next_client = 0;
    for (size_t i = 0; i < k; ++i)
      tsw.pipeline().mac_learning().learn(macs[1 + next_client + i], 0, 2,
                                          tnow);
    next_client += k;
    tnow += kMs;
    tsw.run_maintenance(tnow);
    const RevalPassStats& ps = tsw.last_reval_pass();
    const double dirty_frac =
        static_cast<double>(2 * k) / static_cast<double>(ps.examined);
    const double skip_ratio =
        static_cast<double>(ps.skipped_by_tags) /
        static_cast<double>(ps.examined);
    if (k == 4) skip_at_gate = skip_ratio;
    const std::map<std::string, std::string> params = {
        {"dirty_k", std::to_string(k)},
        {"clients", std::to_string(n_clients)}};
    report.add("tag_skip_ratio", skip_ratio, params, 1);
    report.add("tag_dirty_fraction", dirty_frac, params, 1);
    report.add("tag_pass_ms", pass_ms(ps, cost), params, 1);
    std::printf("%-8zu %-8.1f %10llu %10llu %12.3f\n", k, 100 * dirty_frac,
                static_cast<unsigned long long>(ps.skipped_by_tags),
                static_cast<unsigned long long>(ps.retranslated), skip_ratio);
  }

  benchutil::print_rule();
  constexpr double kMinSkip = 0.9;
  std::printf("skip ratio at dirty_k=4 (%.1f%% dirty): %.3f (gate: >= %.2f) %s\n",
              100.0 * 8.0 / static_cast<double>(2 * n_clients), skip_at_gate,
              kMinSkip, skip_at_gate >= kMinSkip ? "PASS" : "FAIL");
  if (skip_at_gate < kMinSkip) rc = 1;

  report.write();
  return rc;
}

}  // namespace
}  // namespace ovs

int main(int argc, char** argv) { return ovs::bench_main(argc, argv); }
