// Wall-clock benchmark driver for vswitchd::Switch.
//
// One process, one thread, a closed loop: the driver offers the next burst
// only after the switch returned from the previous one. Traffic is
// in-process (no NIC, no loopback). Maintenance runs inline once per virtual
// second, so its cost lands in every throughput figure, as on a single-core
// vswitchd. One segment is one virtual second; throughputs are medians over
// segments and latencies are percentiles over operations.
//
//   perfbench_driver --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// --trace 0 prints the end-to-end metrics; --trace 1 splits the time between
// an untraced and a traced pass, then microbenchmarks each layer on the
// inputs the workload captured, and prints the per-layer metrics. The last
// line of stdout is the result object; the line before it is a detail record
// (workload-specific metric names, seed, sample counts, build type, nproc).

#include <sched.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <numeric>
#include <optional>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "bench_lib.h"
#include "packet/parser.h"
#include "util/rng.h"
#include "vswitchd/switch.h"
#include "workload/skew.h"
#include "workload/table_gen.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {
namespace {

using Clock = std::chrono::steady_clock;
using ovs::FlowKey;
using ovs::NvpConfig;
using ovs::NvpTopology;
using ovs::NvpVm;
using ovs::Packet;
using ovs::Switch;
using ovs::SwitchConfig;

constexpr uint64_t kSecondNs = 1'000'000'000;
constexpr size_t kBurst = 32;
constexpr size_t kFrameBytes = 64;  // minimum Ethernet frame, FCS included
constexpr size_t kSetups = 9;          // setup_s is the median of these
// End-to-end figures come from the quietest tenth of each run's segments
// (see QuietCpu and quiet_segments for why).
constexpr double kQuietShare = 0.1;
// Server ports above the range install_nvp_pipeline draws blocked ports
// from (1..1023), so only deliberate choices hit an ACL.
constexpr std::array<uint16_t, 8> kServerPorts = {1433, 3306, 5432, 6379,
                                                  8080, 8443, 9000, 11211};
constexpr uint16_t kEphemeralBase = 32768;

double secs(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

// A 64-byte TCP/IPv4 frame: 54 header bytes, 6 payload bytes, 4 FCS bytes.
ovs::RawFrame tcp_frame(const NvpVm& src, const NvpVm& dst, uint16_t sport,
                        uint16_t dport, uint16_t flags) {
  ovs::TcpParams p;
  p.eth_src = src.mac;
  p.eth_dst = dst.mac;
  p.ip_src = src.ip;
  p.ip_dst = dst.ip;
  p.sport = sport;
  p.dport = dport;
  p.flags = flags;
  p.payload_len = 6;
  ovs::RawFrame f = ovs::build_tcp_ipv4(p);
  f.resize(kFrameBytes, 0);
  return f;
}

Packet must_parse(const ovs::RawFrame& f, uint32_t in_port) {
  std::optional<Packet> p = ovs::parse_to_packet(f, in_port);
  if (!p) {
    std::fprintf(stderr, "perfbench: generated frame failed to parse\n");
    std::exit(3);
  }
  return *p;
}

// Two distinct VMs of one tenant, uniformly.
std::pair<NvpVm, NvpVm> vm_pair(const NvpTopology& topo, uint64_t tenant,
                                ovs::Rng& rng) {
  const std::vector<const NvpVm*> vms = topo.tenant_vms(tenant);
  const size_t a = rng.uniform(vms.size());
  size_t b = rng.uniform(vms.size() - 1);
  if (b >= a) ++b;
  return {*vms[a], *vms[b]};
}

// Everything a traced run reads from the switch at the start and at the
// end of its measured interval.
struct Snapshot {
  Switch::Counters c;
  ovs::Datapath::Stats dp;
  size_t flows = 0;
  size_t masks = 0;
  size_t ct_entries = 0;
  uint64_t offered = 0;

  static Snapshot of(const Switch& sw, uint64_t offered) {
    return {sw.counters(), sw.backend().stats(), sw.backend().flow_count(),
            sw.backend().mask_count(), sw.conntrack().size(), offered};
  }
};

// --- Workloads ----------------------------------------------------------------

// The shared shape: an NVP 4-table pipeline (install_nvp_pipeline) on a
// Switch built from SwitchConfig defaults plus the fields that define the
// workload, an independent model of what it should forward, and per-port
// expected transmit counts the driver accumulates from that model.
class Workload {
 public:
  virtual ~Workload() = default;

  // Builds tables and inputs from the seed, then warms up to steady state.
  virtual void setup(uint64_t seed) = 0;
  // One virtual second. Appends one latency sample (µs) per operation and
  // returns the packets offered.
  virtual size_t segment(Tracer* tr, std::vector<double>& op_us) = 0;
  // Adds the model's expected transmit counts for the segment just run;
  // called outside the timed interval.
  virtual void account() {}
  // Bursts of packets the workload offers, for the layer microbenchmarks.
  virtual std::vector<std::vector<Packet>> captured_bursts() const = 0;
  // Raw frames the workload offers (parse microbenchmark).
  virtual std::vector<ovs::RawFrame> captured_frames() const = 0;

  Switch& sw() { return *sw_; }
  const NvpTopology& topo() const { return topo_; }
  const NvpModel& model() const { return *model_; }
  uint64_t offered() const { return offered_; }

  // Compares Switch::port_stats with the model's expected counts. Returns
  // the packets that went missing or to a port the model did not expect.
  uint64_t mismatched() const {
    uint64_t missing = 0, extra = 0;
    std::map<uint32_t, uint64_t> expected = expected_;
    expected.emplace(nvp_.tunnel_port, 0);
    for (const NvpVm& vm : topo_.vms) expected.emplace(vm.port, 0);
    for (const auto& [port, want] : expected) {
      const uint64_t got = sw_->port_stats(port).tx_packets;
      if (got < want) missing += want - got;
      if (got > want) extra += got - want;
    }
    return std::max(missing, extra);
  }

 protected:
  void build(const SwitchConfig& cfg, const NvpConfig& nvp) {
    nvp_ = nvp;
    sw_ = std::make_unique<Switch>(cfg);
    topo_ = ovs::install_nvp_pipeline(*sw_, nvp_);
    model_ = std::make_unique<NvpModel>(nvp_, topo_);
    expected_.clear();
    offered_ = 0;
  }

  void expect(uint32_t port, uint64_t n) {
    if (port != NvpModel::kDrop) expected_[port] += n;
  }

  // inject_batch, then drain any misses it queued.
  void forward(std::span<const Packet> pkts, uint64_t now, Tracer* tr) {
    size_t misses;
    {
      Scope s(tr, "vswitchd.inject_batch");
      misses = sw_->inject_batch(pkts, now);
    }
    if (misses > 0) {
      Scope s(tr, "vswitchd.handle_upcalls");
      sw_->handle_upcalls(now);
    }
    offered_ += pkts.size();
  }

  void maintain(uint64_t now, Tracer* tr) {
    Scope s(tr, "vswitchd.run_maintenance");
    sw_->run_maintenance(now);
  }

  NvpConfig nvp_;
  std::unique_ptr<Switch> sw_;
  NvpTopology topo_;
  std::unique_ptr<NvpModel> model_;
  std::map<uint32_t, uint64_t> expected_;
  uint64_t offered_ = 0;
  uint64_t now_ = 0;
};

// fwd_established: established TCP connections, Zipf popularity, 64-byte
// frames parsed from wire bytes into bursts of 32. The bursts cycle through
// a ring of kRingBursts (four virtual seconds, shorter than the 10 s
// megaflow idle timeout), so after the first pass nothing is evicted and
// almost nothing misses: parse, EMC and megaflow do the work. The ring
// holds more distinct flows than the 8,192-entry EMC, so both cache levels
// serve a share. 8,192 connections keep the frames (1 MiB) and the caches
// within a 2 MiB L2; on such a Xeon, 65,536 connections made the hit path
// run anywhere from 2.2 to 2.8 Mpps from one process to the next.
class FwdEstablished final : public Workload {
 public:
  static constexpr size_t kConnections = 8192;
  static constexpr size_t kFlows = 2 * kConnections;  // both directions
  static constexpr size_t kRingBursts = 4096;
  static constexpr size_t kBurstsPerSecond = 1024;
  static constexpr size_t kRingSeconds = kRingBursts / kBurstsPerSecond;
  static constexpr double kZipfS = 1.0;
  static constexpr uint64_t kBlockedOneIn = 32;  // ACL-tenant connections
  static_assert(kRingBursts % kBurstsPerSecond == 0);

  void setup(uint64_t seed) override {
    NvpConfig nvp;
    nvp.vms_per_tenant = 8;
    nvp.seed = seed;
    build(SwitchConfig{}, nvp);

    ovs::Rng rng(seed * 0x9e3779b97f4a7c15ULL + 1);
    frames_.assign(kFlows * kFrameBytes, 0);
    in_port_.resize(kFlows);
    port_of_flow_.resize(kFlows);
    for (size_t c = 0; c < kConnections; ++c) {
      const uint64_t tenant = 1 + rng.uniform(nvp.n_tenants);
      const auto [cl, sv] = vm_pair(topo_, tenant, rng);
      uint16_t dport = kServerPorts[rng.uniform(kServerPorts.size())];
      if (tenant <= topo_.n_acl_tenants && rng.uniform(kBlockedOneIn) == 0)
        dport = topo_.blocked_ports[(tenant - 1) * nvp.acls_per_tenant +
                                    rng.uniform(nvp.acls_per_tenant)];
      const auto sport =
          static_cast<uint16_t>(kEphemeralBase + rng.uniform(28000));
      if (model_->blocked(tenant, dport)) {
        // The ACL drops the SYN, so the client only ever retries it.
        put_flow(2 * c, cl, sv, sport, dport, 0x02);
        put_flow(2 * c + 1, cl, sv, sport ^ 1, dport, 0x02);
      } else {
        put_flow(2 * c, cl, sv, sport, dport, 0x18);
        put_flow(2 * c + 1, sv, cl, dport, sport, 0x10);
      }
    }

    // Zipf over a shuffled rank order, so popularity is unrelated to the
    // tenant and port layout.
    std::vector<uint16_t> rank(kFlows);
    std::iota(rank.begin(), rank.end(), 0);
    for (size_t i = kFlows - 1; i > 0; --i)
      std::swap(rank[i], rank[rng.uniform(i + 1)]);
    ovs::SkewSampler zipf(kFlows, kZipfS);
    ring_.resize(kRingBursts * kBurst);
    for (uint16_t& f : ring_) f = rank[zipf.sample(rng)];
    // Expected transmit counts per ring second, so the timed loop does no
    // per-packet bookkeeping.
    ring_expected_.assign(kRingSeconds, {});
    for (size_t i = 0; i < ring_.size(); ++i)
      ++ring_expected_[i / (kBurstsPerSecond * kBurst)]
                      [port_of_flow_[ring_[i]]];

    second_ = 0;
    now_ = 0;
    std::vector<double> ignored;
    for (size_t s = 0; s < 2 * kRingSeconds; ++s) {
      segment(nullptr, ignored);
      account();
    }
  }

  size_t segment(Tracer* tr, std::vector<double>& op_us) override {
    Scope seg(tr, "segment");
    std::array<Packet, kBurst> pkts;
    const uint64_t step = kSecondNs / kBurstsPerSecond;
    const size_t first = (second_ % kRingSeconds) * kBurstsPerSecond;
    for (size_t b = 0; b < kBurstsPerSecond; ++b) {
      const uint16_t* idx = &ring_[(first + b) * kBurst];
      const Clock::time_point t0 = Clock::now();
      {
        Scope s(tr, "packet.parse_burst");
        for (size_t i = 0; i < kBurst; ++i) {
          const std::span<const uint8_t> f(&frames_[idx[i] * kFrameBytes],
                                           kFrameBytes);
          std::optional<Packet> p = ovs::parse_to_packet(f, in_port_[idx[i]]);
          if (p) pkts[i] = *p;
        }
      }
      forward(pkts, now_, tr);
      op_us.push_back(secs(t0, Clock::now()) * 1e6);
      now_ += step;
    }
    maintain(now_, tr);
    ++second_;
    return kBurstsPerSecond * kBurst;
  }

  void account() override {
    for (const auto& [port, n] : ring_expected_[(second_ - 1) % kRingSeconds])
      expect(port, n);
  }

  std::vector<std::vector<Packet>> captured_bursts() const override {
    std::vector<std::vector<Packet>> out;
    for (size_t b = 0; b < 64; ++b) {
      std::vector<Packet> burst;
      for (size_t i = 0; i < kBurst; ++i) {
        const uint16_t f = ring_[b * kBurst + i];
        burst.push_back(must_parse(frame(f), in_port_[f]));
      }
      out.push_back(std::move(burst));
    }
    return out;
  }

  std::vector<ovs::RawFrame> captured_frames() const override {
    std::vector<ovs::RawFrame> out;
    for (size_t i = 0; i < 2048; ++i) out.push_back(frame(ring_[i]));
    return out;
  }

 private:
  void put_flow(size_t f, const NvpVm& src, const NvpVm& dst, uint16_t sport,
                uint16_t dport, uint16_t flags) {
    const ovs::RawFrame fr = tcp_frame(src, dst, sport, dport, flags);
    std::copy(fr.begin(), fr.end(), frames_.begin() + f * kFrameBytes);
    in_port_[f] = src.port;
    port_of_flow_[f] = model_->expect(must_parse(fr, src.port).key);
  }

  ovs::RawFrame frame(size_t f) const {
    return ovs::RawFrame(frames_.begin() + f * kFrameBytes,
                         frames_.begin() + (f + 1) * kFrameBytes);
  }

  std::vector<uint8_t> frames_;
  std::vector<uint32_t> in_port_;
  std::vector<uint32_t> port_of_flow_;
  std::vector<uint16_t> ring_;
  std::vector<std::map<uint32_t, uint64_t>> ring_expected_;
  uint64_t second_ = 0;
};

// crr_setup: the paper's TCP_CRR (§7.2) over the NVP pipeline with every
// tenant stateful (ct(commit) before egress). Each transaction is a new
// connection: SYN, SYN-ACK, ACK, request, response, FIN, FIN, ACK. The 32
// sessions are interleaved: step k of every session forms one burst, and
// handle_upcalls drains after each burst, so each packet answers the one
// before it as on a real connection. Nearly every packet misses, so the work
// is translation across the 4 tables, conntrack commits and megaflow
// installs, plus the idle eviction this creation rate forces.
//
// Steady by construction: the client's ephemeral ports cycle with the
// ring of kRingSeconds virtual seconds, longer than the conntrack idle
// timeout plus the megaflow idle timeout, so a recycled 5-tuple is always
// new again; conntrack (bounded by ct_idle_timeout_ns, capped by
// ct_max_entries) and the megaflow table plateau instead of growing with
// run length. At the default-config rate the prototype reached 129k
// megaflows and 300-425 ms revalidation passes that did not repeat;
// kGroupsPerSecond keeps the plateau at 2,240 megaflows and 128 conntrack
// entries.
class CrrSetup final : public Workload {
 public:
  static constexpr size_t kSessions = kBurst;
  static constexpr size_t kSteps = 8;
  static constexpr size_t kGroupsPerSecond = 1;  // 32 transactions/s
  static constexpr size_t kRingSeconds = 20;
  static constexpr uint64_t kCtIdleNs = 4 * kSecondNs;
  static constexpr size_t kCtMaxEntries = 8192;
  static constexpr size_t kWarmupSeconds = 16;
  static_assert(kRingSeconds * kSecondNs >
                    kCtIdleNs + SwitchConfig{}.idle_timeout_ns + 2 * kSecondNs,
                "a recycled 5-tuple must find no conntrack entry or megaflow");

  void setup(uint64_t seed) override {
    NvpConfig nvp;
    nvp.vms_per_tenant = 8;
    nvp.acl_tenant_fraction = 1.0;
    nvp.stateful_acl_tenants = true;
    nvp.seed = seed;
    SwitchConfig cfg;
    cfg.ct_idle_timeout_ns = kCtIdleNs;
    cfg.ct_max_entries = kCtMaxEntries;
    build(cfg, nvp);

    ovs::Rng rng(seed * 0x9e3779b97f4a7c15ULL + 2);
    struct Session {
      NvpVm client, server;
      uint16_t dport;
    };
    std::vector<Session> sessions;
    for (size_t s = 0; s < kSessions; ++s) {
      const uint64_t tenant = 1 + rng.uniform(nvp.n_tenants);
      const auto [cl, sv] = vm_pair(topo_, tenant, rng);
      sessions.push_back(
          {cl, sv, kServerPorts[rng.uniform(kServerPorts.size())]});
    }

    // SYN, SYN-ACK, ACK, request, response, FIN, FIN, ACK.
    constexpr std::array<std::pair<bool, uint16_t>, kSteps> kTxn = {{
        {true, 0x02}, {false, 0x12}, {true, 0x10}, {true, 0x18},
        {false, 0x18}, {true, 0x11}, {false, 0x11}, {true, 0x10},
    }};
    const size_t groups = kRingSeconds * kGroupsPerSecond;
    packets_.clear();
    packets_.reserve(groups * kSteps * kSessions);
    ring_expected_.assign(kRingSeconds, {});
    frames_.clear();
    for (size_t g = 0; g < groups; ++g) {
      for (size_t k = 0; k < kSteps; ++k) {
        for (size_t s = 0; s < kSessions; ++s) {
          const Session& ss = sessions[s];
          // Disjoint port ranges per session; one port per transaction.
          const auto eph = static_cast<uint16_t>(kEphemeralBase + s * 512 + g);
          const bool c2s = kTxn[k].first;
          const ovs::RawFrame f =
              c2s ? tcp_frame(ss.client, ss.server, eph, ss.dport,
                              kTxn[k].second)
                  : tcp_frame(ss.server, ss.client, ss.dport, eph,
                              kTxn[k].second);
          const Packet p =
              must_parse(f, c2s ? ss.client.port : ss.server.port);
          ++ring_expected_[g / kGroupsPerSecond][model_->expect(p.key)];
          packets_.push_back(p);
          if (frames_.size() < 2048) frames_.push_back(f);
        }
      }
    }
    static_assert(kRingSeconds * kGroupsPerSecond <= 512);

    second_ = 0;
    now_ = 0;
    std::vector<double> ignored;
    for (size_t s = 0; s < kWarmupSeconds; ++s) {
      segment(nullptr, ignored);
      account();
    }
  }

  size_t segment(Tracer* tr, std::vector<double>& op_us) override {
    Scope seg(tr, "segment");
    const size_t ring_sec = second_ % kRingSeconds;
    const uint64_t base = second_ * kSecondNs;
    for (size_t g = 0; g < kGroupsPerSecond; ++g) {
      const Packet* grp =
          &packets_[(ring_sec * kGroupsPerSecond + g) * kSteps * kSessions];
      const Clock::time_point t0 = Clock::now();
      for (size_t k = 0; k < kSteps; ++k) {
        // One simulated round trip (1 µs) between the steps.
        const uint64_t now = base + g * (kSecondNs / kGroupsPerSecond) +
                             k * 1000;
        const std::span<const Packet> burst(grp + k * kSessions, kSessions);
        {
          Scope s(tr, "vswitchd.inject_batch");
          sw_->inject_batch(burst, now);
        }
        {
          Scope s(tr, "vswitchd.handle_upcalls");
          sw_->handle_upcalls(now);
        }
        offered_ += kSessions;
      }
      op_us.push_back(secs(t0, Clock::now()) * 1e6);
    }
    now_ = base + kSecondNs;
    maintain(now_, tr);
    ++second_;
    return kGroupsPerSecond * kSteps * kSessions;
  }

  void account() override {
    for (const auto& [port, n] : ring_expected_[(second_ - 1) % kRingSeconds])
      expect(port, n);
  }

  std::vector<std::vector<Packet>> captured_bursts() const override {
    // The most recent second's bursts: their megaflows are installed.
    const size_t ring_sec = (second_ + kRingSeconds - 1) % kRingSeconds;
    std::vector<std::vector<Packet>> out;
    for (size_t b = 0; b < kGroupsPerSecond * kSteps; ++b) {
      const Packet* p =
          &packets_[(ring_sec * kGroupsPerSecond * kSteps + b) * kSessions];
      out.emplace_back(p, p + kSessions);
    }
    return out;
  }

  std::vector<ovs::RawFrame> captured_frames() const override {
    return frames_;
  }

 private:
  std::vector<Packet> packets_;  // [group][step][session]
  std::vector<std::map<uint32_t, uint64_t>> ring_expected_;
  std::vector<ovs::RawFrame> frames_;
  uint64_t second_ = 0;
};

// policy_churn: a steady installed megaflow population under controller
// writes. Each virtual second the driver adds one ACL drop rule and deletes
// the oldest of the ones it added, re-points one VM's MAC in the L2 table
// and restores the previous one (Switch::add_flow / del_flows, the
// ovs-ofctl text path), runs maintenance so the revalidator re-translates
// the flows that already exist, then replays every connection once. The
// replay follows the maintenance pass, so the traffic sees converged
// megaflows and the model can judge every packet. The classifier takes
// writes next to its reads here, which no other workload does.
class PolicyChurn final : public Workload {
 public:
  static constexpr size_t kConnections = 2048;
  static constexpr size_t kFlows = 2 * kConnections;
  static constexpr size_t kActiveBlocks = 4;

  void setup(uint64_t seed) override {
    NvpConfig nvp;
    nvp.n_tenants = 8;
    nvp.vms_per_tenant = 8;
    nvp.seed = seed;
    build(SwitchConfig{}, nvp);

    rng_ = ovs::Rng(seed * 0x9e3779b97f4a7c15ULL + 3);
    flows_.clear();
    frames_.clear();
    for (size_t c = 0; c < kConnections; ++c) {
      const uint64_t tenant = 1 + rng_.uniform(nvp.n_tenants);
      const auto [cl, sv] = vm_pair(topo_, tenant, rng_);
      const uint16_t dport = kServerPorts[rng_.uniform(kServerPorts.size())];
      const auto sport =
          static_cast<uint16_t>(kEphemeralBase + rng_.uniform(28000));
      for (const auto& [a, b, sp, dp, fl] :
           {std::tuple{cl, sv, sport, dport, uint16_t{0x18}},
            std::tuple{sv, cl, dport, sport, uint16_t{0x10}}}) {
        const ovs::RawFrame f = tcp_frame(a, b, sp, dp, fl);
        flows_.push_back(must_parse(f, a.port));
        if (frames_.size() < 2048) frames_.push_back(f);
      }
    }
    for (size_t i = flows_.size() - 1; i > 0; --i)
      std::swap(flows_[i], flows_[rng_.uniform(i + 1)]);

    blocks_.clear();
    moved_.reset();
    now_ = 0;
    std::vector<double> ignored;
    // Megaflows minted by the first flow-mods idle out after the 10 s
    // megaflow idle timeout; the population plateaus after about 20 s.
    for (int s = 0; s < 24; ++s) {
      segment(nullptr, ignored);
      account();
    }
  }

  size_t segment(Tracer* tr, std::vector<double>& op_us) override {
    Scope seg(tr, "segment");
    const uint64_t end = now_ + kSecondNs;
    const Clock::time_point t0 = Clock::now();
    apply_flow_mods(tr);
    maintain(end, tr);
    op_us.push_back(secs(t0, Clock::now()) * 1e6);
    now_ = end;
    for (size_t b = 0; b < kFlows / kBurst; ++b)
      forward(std::span<const Packet>(&flows_[b * kBurst], kBurst), now_, tr);
    return kFlows;
  }

  void account() override {
    for (const Packet& p : flows_) expect(model_->expect(p.key), 1);
  }

  std::vector<std::vector<Packet>> captured_bursts() const override {
    std::vector<std::vector<Packet>> out;
    for (size_t b = 0; b < kFlows / kBurst; ++b)
      out.emplace_back(flows_.begin() + b * kBurst,
                       flows_.begin() + (b + 1) * kBurst);
    return out;
  }

  std::vector<ovs::RawFrame> captured_frames() const override {
    return frames_;
  }

 private:
  struct Move {
    uint64_t tenant;
    ovs::EthAddr mac;
    uint32_t home;
  };

  void check(const std::string& err, const char* what) {
    if (!err.empty()) {
      std::fprintf(stderr, "perfbench: %s failed: %s\n", what, err.c_str());
      std::exit(3);
    }
  }

  void set_l2(uint64_t tenant, ovs::EthAddr mac, uint32_t port, Tracer* tr) {
    const std::string text = "table=1, priority=10, metadata=" +
                             std::to_string(tenant) +
                             ", dl_dst=" + mac.to_string() +
                             ", actions=set_field:" + std::to_string(port) +
                             "->reg1, resubmit(,2)";
    Scope s(tr, "vswitchd.add_flow");
    check(sw_->add_flow(text, now_), "add_flow");
    model_->set_l2(tenant, mac, port);
  }

  void apply_flow_mods(Tracer* tr) {
    // ACL: block a server port of a random tenant; retire the oldest block.
    uint64_t tenant;
    uint16_t port;
    do {
      tenant = 1 + rng_.uniform(nvp_.n_tenants);
      port = kServerPorts[rng_.uniform(kServerPorts.size())];
    } while (model_->blocked(tenant, port));
    const std::string match = "metadata=" + std::to_string(tenant) +
                              ", tcp, tp_dst=" + std::to_string(port);
    {
      Scope s(tr, "vswitchd.add_flow");
      check(sw_->add_flow("table=2, priority=20, " + match + ", actions=drop",
                          now_),
            "add_flow");
    }
    model_->block(tenant, port);
    blocks_.push_back({tenant, port});
    if (blocks_.size() > kActiveBlocks) {
      const auto [t, p] = blocks_.front();
      blocks_.pop_front();
      size_t n = 0;
      {
        Scope s(tr, "vswitchd.del_flows");
        check(sw_->del_flows("table=2, metadata=" + std::to_string(t) +
                                 ", tcp, tp_dst=" + std::to_string(p),
                             &n),
              "del_flows");
      }
      if (n != 1) {
        std::fprintf(stderr, "perfbench: del_flows removed %zu rules\n", n);
        std::exit(3);
      }
      model_->unblock(t, p);
    }

    // L2: restore the MAC moved last second, then move another one to a
    // different port of its tenant.
    if (moved_) set_l2(moved_->tenant, moved_->mac, moved_->home, tr);
    const uint64_t t = 1 + rng_.uniform(nvp_.n_tenants);
    const auto [vm, other] = vm_pair(topo_, t, rng_);
    moved_ = Move{t, vm.mac, vm.port};
    set_l2(t, vm.mac, other.port, tr);
  }

  ovs::Rng rng_;
  std::vector<Packet> flows_;
  std::vector<ovs::RawFrame> frames_;
  std::deque<std::pair<uint64_t, uint16_t>> blocks_;
  std::optional<Move> moved_;
};

// --- Driver -------------------------------------------------------------------

struct WorkloadInfo {
  const char* name;
  const char* why;
  const char* op;  // what one op_us sample times
  std::function<std::unique_ptr<Workload>()> make;
};

const std::vector<WorkloadInfo>& workloads() {
  static const std::vector<WorkloadInfo> kAll = {
      {"fwd_established",
       "hit path: parse, EMC and megaflow do nearly all the work; classifier, "
       "upcalls and revalidator almost idle",
       "burst",
       [] { return std::make_unique<FwdEstablished>(); }},
      {"crr_setup",
       "TCP_CRR: nearly every connection misses; upcall translation, "
       "conntrack commit, megaflow install and idle eviction",
       "txn_group",
       [] { return std::make_unique<CrrSetup>(); }},
      {"policy_churn",
       "flow-mods each second: revalidator re-translates existing flows; "
       "classifier takes writes next to reads",
       "converge",
       [] { return std::make_unique<PolicyChurn>(); }},
  };
  return kAll;
}

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  int trace = 0;
  std::string trace_out;
};

[[noreturn]] void usage(const char* msg) {
  std::fprintf(stderr,
               "perfbench_driver: %s\nusage: perfbench_driver --workload "
               "<fwd_established|crr_setup|policy_churn> --seed <n> "
               "--seconds <s> --trace <0|1> [--trace-out <file>]\n",
               msg);
  std::exit(2);
}

Options parse_args(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + a).c_str());
    const std::string v = argv[++i];
    char* endp = nullptr;
    if (a == "--workload") {
      o.workload = v;
    } else if (a == "--seed") {
      o.seed = std::strtoull(v.c_str(), &endp, 10);
      if (*endp != '\0') usage("bad --seed");
    } else if (a == "--seconds") {
      o.seconds = std::strtod(v.c_str(), &endp);
      if (*endp != '\0' || !(o.seconds > 0 && o.seconds <= 120))
        usage("bad --seconds");
    } else if (a == "--trace") {
      if (v != "0" && v != "1") usage("bad --trace");
      o.trace = v == "1";
    } else if (a == "--trace-out") {
      o.trace_out = v;
    } else {
      usage(("unknown flag " + a).c_str());
    }
  }
  if (o.workload.empty()) usage("--workload is required");
  return o;
}

// Host noise. On a shared cloud host each vCPU can share its physical core
// with another tenant's hyperthread. When that sibling is busy this
// single-threaded benchmark runs up to 1.9x slower (measured on a 4-vCPU
// Xeon VM), in phases lasting from a second to tens of seconds and
// independently on each vCPU, so a run that stays on one vCPU reads a
// mixture of two speeds that does not repeat. At almost every moment some
// vCPU is quiet, so between segments (never inside a timed interval) the
// driver probes every vCPU it may use with a short instruction-throughput
// loop and moves to the quietest one. What is timed is still the switch's
// own wall time; the probe only picks where it runs.
class QuietCpu {
 public:
  static constexpr double kRepinSeconds = 0.025;

  QuietCpu() {
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof set, &set) == 0)
      for (int c = 0; c < CPU_SETSIZE; ++c)
        if (CPU_ISSET(c, &set)) cpus_.push_back(c);
  }
  QuietCpu(const QuietCpu&) = delete;
  QuietCpu& operator=(const QuietCpu&) = delete;

  // Re-pins to the quietest vCPU when kRepinSeconds have passed since the
  // last probe, or always when `now`. Returns true when it probed (the
  // caller restarts its timer).
  bool maybe_move(bool now = false) {
    if (cpus_.size() < 2) return false;
    if (!now && current_ >= 0 && secs(last_, Clock::now()) < kRepinSeconds)
      return false;
    int best_cpu = -1;
    double best = 0, here = 0;
    for (int c : cpus_) {
      pin(c);
      const double ns = probe_ns();
      if (c == current_) here = ns;
      if (best_cpu < 0 || ns < best) best = ns, best_cpu = c;
    }
    // Stay unless another vCPU is clearly quieter: a move costs a cold L2.
    if (current_ >= 0 && !(best < 0.9 * here)) {
      best_cpu = current_;
      best = here;
    }
    if (best_cpu != current_) ++moves_;
    pin(best_cpu);
    current_ = best_cpu;
    chosen_.push_back(best);
    last_ = Clock::now();
    return true;
  }

  size_t moves() const { return moves_; }
  // Share of probes where the chosen vCPU ran the probe within 10% of the
  // fastest probe seen: the share of the run spent on a quiet core.
  double quiet_share() const {
    if (chosen_.empty()) return 1.0;
    const double floor = *std::min_element(chosen_.begin(), chosen_.end());
    size_t quiet = 0;
    for (double x : chosen_) quiet += x <= 1.1 * floor;
    return static_cast<double>(quiet) / static_cast<double>(chosen_.size());
  }

 private:
  static void pin(int cpu) {
    cpu_set_t set;
    CPU_ZERO(&set);
    CPU_SET(cpu, &set);
    sched_setaffinity(0, sizeof set, &set);
  }

  // Best of three: ns per round of eight independent multiply-add chains,
  // which a busy sibling hyperthread slows and cache contention does not.
  static double probe_ns() {
    constexpr int kRounds = 4000;
    uint64_t h[8] = {1, 2, 3, 4, 5, 6, 7, 8};
    double best = 1e300;
    for (int r = 0; r < 3; ++r) {
      const Clock::time_point t0 = Clock::now();
      for (int i = 0; i < kRounds; ++i) {
        for (uint64_t& x : h) {
          x = x * 0x9e3779b97f4a7c15ULL + (x >> 7) + static_cast<uint64_t>(i);
          asm volatile("" : "+r"(x));  // keep the chains scalar
        }
      }
      best = std::min(best, secs(t0, Clock::now()) * 1e9 / kRounds);
    }
    volatile uint64_t sink = h[0] ^ h[7];
    (void)sink;
    return best;
  }

  std::vector<int> cpus_;
  int current_ = -1;
  Clock::time_point last_;
  size_t moves_ = 0;
  std::vector<double> chosen_;
};

// Runs segments until `seconds` of wall time have passed.
// Every `every_s` seconds, `between` runs outside the timed intervals.
Segments run_pass(Workload& w, double seconds, Tracer* tr, QuietCpu& cpu,
                  const std::function<void()>& between = {},
                  double every_s = 0) {
  Segments s;
  std::vector<double> ops;
  const Clock::time_point start = Clock::now();
  Clock::time_point t = start, last_between = start;
  while (secs(start, t) < seconds) {
    if (between && secs(last_between, t) >= every_s) {
      between();
      last_between = t = Clock::now();
    }
    if (cpu.maybe_move()) t = Clock::now();
    ops.clear();
    const size_t pkts = w.segment(tr, ops);
    s.wall_s.push_back(secs(t, Clock::now()));
    s.work.push_back(static_cast<double>(pkts));
    for (double x : ops) s.ops.add(x);
    s.op_p50.push_back(percentile(ops, 50));
    w.account();
    t = Clock::now();
  }
  return s;
}

// The process's peak resident set (VmHWM). Unlike getrusage's ru_maxrss
// it starts afresh at exec, so a launcher's own memory does not count.
double peak_rss_mb() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0;
  char line[256];
  double kb = 0;
  while (std::fgets(line, sizeof line, f) != nullptr)
    if (std::sscanf(line, "VmHWM: %lf kB", &kb) == 1) break;
  std::fclose(f);
  return kb / 1024.0;
}

// Median of `reps` timings of fn(), each divided by `per`.
template <typename Fn>
double median_ns(int reps, double per, Fn&& fn) {
  std::vector<double> v;
  for (int r = 0; r < reps; ++r) {
    const Clock::time_point t0 = Clock::now();
    fn();
    v.push_back(secs(t0, Clock::now()) * 1e9 / per);
  }
  return percentile(std::move(v), 50);
}

// The key each of the four NVP tables classifies, rebuilt from the model's
// view of the packet (metadata = tenant, reg1 = destination port).
std::array<FlowKey, 4> stage_keys(const FlowKey& k, uint64_t tenant,
                                  uint32_t dst) {
  std::array<FlowKey, 4> out{k, k, k, k};
  for (size_t t = 1; t < 4; ++t) out[t].set_metadata(tenant);
  for (size_t t = 2; t < 4; ++t) out[t].set_reg(1, dst);
  return out;
}

// Isolated layer calls on the workload's captured inputs. Runs after the
// correctness check: it injects traffic and writes tables and conntrack.
void microbench(Workload& w, std::map<std::string, double>& m) {
  Switch& sw = w.sw();
  volatile size_t sink = 0;

  const std::vector<ovs::RawFrame> frames = w.captured_frames();
  m["packet.parse_ns"] = median_ns(31, static_cast<double>(frames.size()), [&] {
    for (const ovs::RawFrame& f : frames)
      sink = sink + ovs::parse_to_packet(f, 1)->size_bytes;
  });

  const std::vector<std::vector<Packet>> bursts = w.captured_bursts();
  size_t burst_pkts = 0;
  for (const auto& b : bursts) {
    sw.inject_batch(b, 0);  // make sure every flow is cached
    sw.handle_upcalls(0);
    burst_pkts += b.size();
  }
  std::vector<ovs::Datapath::RxResult> rx(kBurst);
  m["datapath.batch_ns_per_pkt"] =
      median_ns(31, static_cast<double>(burst_pkts), [&] {
        for (const auto& b : bursts) {
          ovs::Datapath::BatchSummary sum;
          sw.backend().process_batch(b, 0, rx.data(), &sum);
          sink = sink + sum.groups;
        }
      });

  // Classifier and translation on the captured keys.
  std::vector<FlowKey> keys;
  std::vector<std::array<FlowKey, 4>> staged;
  for (const auto& b : bursts) {
    for (const Packet& p : b) {
      keys.push_back(p.key);
      const NvpVm* src = w.topo().vm_by_port(p.key.in_port());
      staged.push_back(stage_keys(p.key, src != nullptr ? src->tenant : 0,
                                  w.model().expect(p.key)));
    }
  }
  m["classifier.lookup_ns"] =
      median_ns(31, static_cast<double>(staged.size() * 4), [&] {
        for (const auto& s : staged)
          for (size_t t = 0; t < 4; ++t)
            sink = sink + (sw.table(t).lookup(s[t]) != nullptr);
      });
  m["classifier.subtables"] = static_cast<double>(sw.cls_subtables());

  double lookups = 0;
  for (const FlowKey& k : keys)
    lookups += sw.pipeline().evaluate(k, 0).table_lookups;
  m["ofproto.table_lookups_per_xlate"] =
      lookups / static_cast<double>(keys.size());
  m["ofproto.xlate_us"] =
      median_ns(11, static_cast<double>(keys.size()), [&] {
        for (const FlowKey& k : keys)
          sink = sink + sw.pipeline().evaluate(k, 0).table_lookups;
      }) / 1e3;

  // Fresh connections in a zone the pipeline does not use; removed after
  // each repetition so every commit creates an entry.
  constexpr uint16_t kZone = 7;
  std::vector<double> commit_ns;
  for (int r = 0; r < 11; ++r) {
    const Clock::time_point t0 = Clock::now();
    for (const FlowKey& k : keys) sink = sink + sw.ct_commit(k, kZone, 0);
    commit_ns.push_back(secs(t0, Clock::now()) * 1e9 /
                        static_cast<double>(keys.size()));
    for (const FlowKey& k : keys) sw.ct_remove(k, kZone);
  }
  m["ofproto.ct_commit_ns"] = percentile(commit_ns, 50);
}

// Everything the traced pass measures, as per-layer metrics.
void layer_metrics(const Tracer& tr, const Snapshot& a, const Snapshot& b,
                   const Segments& traced, std::map<std::string, double>& m) {
  const auto ratio = [](double num, double den) {
    return den > 0 ? num / den : 0.0;
  };
  const auto d = [](uint64_t x, uint64_t y) {
    return static_cast<double>(y - x);
  };
  const double pkts = d(a.dp.packets, b.dp.packets);
  m["datapath.emc_hit_share"] =
      ratio(d(a.dp.microflow_hits, b.dp.microflow_hits), pkts);
  m["datapath.megaflow_hit_share"] =
      ratio(d(a.dp.megaflow_hits, b.dp.megaflow_hits), pkts);
  m["datapath.miss_share"] = ratio(d(a.dp.misses, b.dp.misses), pkts);
  m["datapath.tuples_per_pkt"] =
      ratio(d(a.dp.tuples_searched, b.dp.tuples_searched), pkts);
  m["datapath.flows"] = static_cast<double>(b.flows);
  m["datapath.flows_start"] = static_cast<double>(a.flows);
  m["datapath.masks"] = static_cast<double>(b.masks);
  m["ofproto.ct_entries"] = static_cast<double>(b.ct_entries);
  m["ofproto.ct_entries_start"] = static_cast<double>(a.ct_entries);

  m["vswitchd.inject_ns_per_pkt"] = ratio(
      tr.total_ns("vswitchd.inject_batch"), d(a.offered, b.offered));
  const double handled = d(a.c.upcalls_handled, b.c.upcalls_handled);
  m["vswitchd.upcall_us"] =
      ratio(tr.total_ns("vswitchd.handle_upcalls"), handled) / 1e3;
  m["vswitchd.setup_dup_share"] =
      ratio(d(a.c.setup_dups, b.c.setup_dups), handled);
  m["vswitchd.upcalls_dropped"] = d(a.c.upcalls_dropped, b.c.upcalls_dropped);

  const std::vector<double>& maint = tr.durations("vswitchd.run_maintenance");
  m["vswitchd.maint_ms"] = percentile(maint, 50) / 1e6;
  m["vswitchd.maint_ms_p90"] = percentile(maint, 90) / 1e6;
  const double examined = d(a.c.reval_flows_examined, b.c.reval_flows_examined);
  m["vswitchd.reval_ns_per_flow"] =
      ratio(tr.total_ns("vswitchd.run_maintenance"), examined);
  m["vswitchd.reval_skip_share"] =
      ratio(d(a.c.reval_skipped_by_tags, b.c.reval_skipped_by_tags), examined);
  m["vswitchd.evicted_per_pass"] =
      ratio(d(a.c.reval_deleted_idle, b.c.reval_deleted_idle) +
                d(a.c.evicted_flow_limit, b.c.evicted_flow_limit),
            d(a.c.reval_runs, b.c.reval_runs));

  std::vector<double> mods = tr.durations("vswitchd.add_flow");
  const std::vector<double>& dels = tr.durations("vswitchd.del_flows");
  mods.insert(mods.end(), dels.begin(), dels.end());
  if (!mods.empty()) m["vswitchd.flowmod_us"] = percentile(mods, 50) / 1e3;
  m["op_us_p90"] = traced.ops.percentile(90);
  m["op_us_p99"] = traced.ops.percentile(99);
}

// Workloads that issue no flow-mods time one ACL add and delete here.
double flowmod_us(Workload& w) {
  const uint64_t tenant = w.topo().vms.front().tenant;
  std::vector<double> v;
  for (int r = 0; r < 101; ++r) {
    const std::string match = "metadata=" + std::to_string(tenant) +
                              ", tcp, tp_dst=" + std::to_string(60000 + r);
    Clock::time_point t0 = Clock::now();
    const bool ok =
        w.sw().add_flow("table=2, priority=20, " + match + ", actions=drop")
            .empty();
    v.push_back(secs(t0, Clock::now()) * 1e6);
    t0 = Clock::now();
    const bool del_ok = w.sw().del_flows("table=2, " + match).empty();
    v.push_back(secs(t0, Clock::now()) * 1e6);
    if (!ok || !del_ok) {
      std::fprintf(stderr, "perfbench: flow-mod microbenchmark failed\n");
      std::exit(3);
    }
  }
  return percentile(v, 50);
}

void print_metrics(const std::map<std::string, std::pair<double, const char*>>& m,
                   std::string& out) {
  bool first = true;
  for (const auto& [name, vu] : m) {
    char buf[256];
    std::snprintf(buf, sizeof buf, "%s\"%s\": {\"value\": %.9g, \"unit\": \"%s\"}",
                  first ? "" : ", ", name.c_str(), vu.first, vu.second);
    out += buf;
    first = false;
  }
}

const char* unit_of(const std::string& name) {
  static const std::vector<std::pair<const char*, const char*>> kSuffix = {
      {"_ns_per_pkt", "ns"}, {"_ns_per_flow", "ns"}, {"_ns", "ns"},
      {"_us", "us"},         {"_ms", "ms"},          {"_ms_p90", "ms"},
      {"_us_p99", "us"},     {"_us_p90", "us"},      {"_share", "ratio"},    {"_per_pkt", "count"},
      {"_per_xlate", "count"}, {"_per_pass", "count"},
  };
  for (const auto& [suf, unit] : kSuffix) {
    const size_t n = std::strlen(suf);
    if (name.size() >= n && name.compare(name.size() - n, n, suf) == 0)
      return unit;
  }
  return "count";
}

int run(const Options& opt) {
  const WorkloadInfo* info = nullptr;
  for (const WorkloadInfo& wi : workloads())
    if (opt.workload == wi.name) info = &wi;
  if (info == nullptr) usage(("unknown workload " + opt.workload).c_str());

  // Set-up time: kSetups independent builds. The first is the switch that
  // is measured; the others are timed and discarded between segments of
  // the untraced pass, spread over it, so their median samples the host's
  // noise phases as the segments do. Peak memory is read before those, so
  // it is the measured switch's own, in steady state.
  QuietCpu cpu;
  std::vector<double> setup_s;
  const auto timed_setup = [&] {
    cpu.maybe_move(/*now=*/true);
    const Clock::time_point t0 = Clock::now();
    std::unique_ptr<Workload> x = info->make();
    x->setup(opt.seed);
    setup_s.push_back(secs(t0, Clock::now()));
    return x;
  };
  const std::unique_ptr<Workload> w = timed_setup();
  const double rss_mb = peak_rss_mb();

  const size_t flows0 = w->sw().backend().flow_count();
  const size_t ct0 = w->sw().conntrack().size();
  const double untraced_s = opt.trace ? opt.seconds / 2 : opt.seconds;
  const Segments pass = run_pass(*w, untraced_s, nullptr, cpu, [&] {
    if (setup_s.size() < kSetups) timed_setup();
  }, untraced_s / kSetups);
  const size_t flows1 = w->sw().backend().flow_count();
  const size_t ct1 = w->sw().conntrack().size();

  std::map<std::string, double> layers;
  Tracer tracer(size_t{1} << 16);
  Segments traced;
  if (opt.trace) {
    const Snapshot a = Snapshot::of(w->sw(), w->offered());
    traced = run_pass(*w, opt.seconds / 2, &tracer, cpu);
    const Snapshot b = Snapshot::of(w->sw(), w->offered());
    layer_metrics(tracer, a, b, traced, layers);
    // Quiet segments of both passes, so host interference cancels.
    const auto quiet_wall = [](const Segments& s) {
      std::vector<double> v;
      for (size_t i : quiet_segments(s, kQuietShare)) v.push_back(s.wall_s[i]);
      return percentile(std::move(v), 50);
    };
    layers["trace.overhead_share"] = quiet_wall(traced) / quiet_wall(pass) - 1;
  }

  // Correctness: per-port transmit counts against the model.
  const uint64_t attempted = w->offered();
  const uint64_t failed = w->mismatched();

  if (opt.trace) {
    microbench(*w, layers);
    if (layers.count("vswitchd.flowmod_us") == 0)
      layers["vswitchd.flowmod_us"] = flowmod_us(*w);
    if (!opt.trace_out.empty() && !tracer.write(opt.trace_out))
      std::fprintf(stderr, "perfbench: cannot write %s\n",
                   opt.trace_out.c_str());
  }

  const std::vector<size_t> quiet = quiet_segments(pass, kQuietShare);
  const double mpps = median_rate(pass, quiet) / 1e6;
  const double op50 = median_of(pass.op_p50, quiet);
  const double ok_share =
      static_cast<double>(attempted - failed) / static_cast<double>(attempted);
  const long nproc = sysconf(_SC_NPROCESSORS_ONLN);

  // Detail record: the workload's own names for the generic metrics, and
  // the same figures over all segments, quiet or not.
  std::vector<size_t> all(pass.size());
  std::iota(all.begin(), all.end(), 0);
  const double all_mpps = median_rate(pass, all) / 1e6;
  const double all50 = pass.ops.percentile(50);
  const double all90 = pass.ops.percentile(90);
  char named[256];
  if (opt.workload == "fwd_established") {
    std::snprintf(named, sizeof named,
                  "\"pkt_mpps\": %.6g, \"burst_us_p50\": %.6g", mpps, op50);
  } else if (opt.workload == "crr_setup") {
    std::snprintf(named, sizeof named,
                  "\"txn_per_s\": %.6g, \"txn_us_p50\": %.6g",
                  mpps * 1e6 / CrrSetup::kSteps, op50);
  } else {
    std::snprintf(named, sizeof named, "\"converge_ms_p50\": %.6g",
                  op50 / 1e3);
  }
  std::printf(
      "{\"detail\": {\"workload\": \"%s\", \"why\": \"%s\", \"op\": \"%s\", "
      "\"seed\": %llu, \"build_type\": \"%s\", \"nproc\": %ld, "
      "\"named\": {%s}, \"samples\": {\"segments\": %zu, "
      "\"quiet_segments\": %zu, \"ops\": %llu, "
      "\"setups\": %zu}, \"all_segments\": {\"pkt_mpps\": %.6g, "
      "\"op_us_p50\": %.6g, \"op_us_p90\": %.6g, \"p90_supported\": %s}, "
      "\"cpu_moves\": %zu, \"quiet_cpu_share\": %.3f, "
      "\"datapath_flows\": [%zu, %zu], \"ct_entries\": [%zu, %zu], "
      "\"traced_spans\": %zu}}\n",
      info->name, info->why, info->op,
      static_cast<unsigned long long>(opt.seed), PERFBENCH_BUILD_TYPE, nproc,
      named, pass.size(), quiet.size(),
      static_cast<unsigned long long>(pass.ops.count()),
      kSetups, all_mpps, all50, all90,
      supports_percentile(pass.ops.count(), 90) ? "true" : "false",
      cpu.moves(), cpu.quiet_share(), flows0, flows1, ct0, ct1,
      tracer.stored());

  std::map<std::string, std::pair<double, const char*>> metrics;
  if (opt.trace) {
    for (const auto& [k, v] : layers) metrics[k] = {v, unit_of(k)};
  } else {
    metrics["setup_s"] = {percentile(setup_s, 50), "s"};
    metrics["pkt_mpps"] = {mpps, "Mpps"};
    metrics["op_us_p50"] = {op50, "us"};
    metrics["delivered_ok_share"] = {ok_share, "ratio"};
    metrics["peak_rss_mb"] = {rss_mb, "MB"};
  }
  std::string line;
  print_metrics(metrics, line);
  std::printf(
      "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
      "\"metrics\": {%s}}\n",
      failed == 0 ? "true" : "false",
      static_cast<unsigned long long>(attempted),
      static_cast<unsigned long long>(failed), line.c_str());
  std::fflush(stdout);
  if (failed != 0) {
    std::fprintf(stderr,
                 "perfbench: %llu of %llu packets reached a port the model "
                 "did not expect\n",
                 static_cast<unsigned long long>(failed),
                 static_cast<unsigned long long>(attempted));
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  return perfbench::run(perfbench::parse_args(argc, argv));
}
