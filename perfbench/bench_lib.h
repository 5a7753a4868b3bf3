// Helpers shared by the benchmark driver and its tests: order statistics
// over timing samples, the independent forwarding model that checks the
// switch's outputs, and the in-memory span recorder of the traced run.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "packet/flow_key.h"
#include "workload/table_gen.h"

namespace perfbench {

// --- Order statistics -------------------------------------------------------

// Nearest-rank percentile (p in [0, 100]) of `v`; 0 for an empty sample.
double percentile(std::vector<double> v, double p);

// True when a sample of `n` holds at least ten values above percentile `p`,
// the least that makes the percentile more than its largest few values.
bool supports_percentile(size_t n, double p);

// Latency samples in fixed memory: buckets 1% wide on a log scale, so a
// percentile is exact to within 1% however many samples a run takes.
class LogHistogram {
 public:
  void add(double v);
  // Nearest-rank percentile (p in [0, 100]), reported as the bucket's
  // geometric midpoint; 0 when empty.
  double percentile(double p) const;
  uint64_t count() const noexcept { return count_; }

 private:
  std::map<int, uint64_t> buckets_;  // log bucket -> samples
  uint64_t count_ = 0;
};

// One run of a workload, as segments of one virtual second each (one
// maintenance interval, so every segment holds the same mix of work).
struct Segments {
  std::vector<double> work;    // packets offered per segment
  std::vector<double> wall_s;  // wall time per segment
  std::vector<double> op_p50;  // median operation latency per segment
  LogHistogram ops;            // every operation latency of the run

  size_t size() const { return wall_s.size(); }
};

// Indices of the quietest `share` of segments: those with the shortest wall
// time, at least one. Every segment does the same work, so the spread among
// them is interference from outside the program; the quietest ones measure
// the program.
std::vector<size_t> quiet_segments(const Segments& s, double share);

// Median over the given segments of work / wall seconds.
double median_rate(const Segments& s, const std::vector<size_t>& which);

// Median of values[i] over the given indices.
double median_of(const std::vector<double>& values,
                 const std::vector<size_t>& which);

// --- Expected-verdict model -------------------------------------------------

// What the NVP pipeline (install_nvp_pipeline) should do with a packet,
// derived from the topology and the flow-mods the driver applied, not from
// the switch: the ingress port names the tenant, the tenant's L2 table maps
// eth_dst to a port, a TCP packet to a port its tenant blocks is dropped,
// and so is a packet whose destination is its own ingress port. Only VM-to-VM traffic is modelled (no tunnel ingress).
class NvpModel {
 public:
  static constexpr uint32_t kDrop = 0;

  NvpModel(const ovs::NvpConfig& cfg, const ovs::NvpTopology& topo);

  // The output port the switch should use, or kDrop.
  uint32_t expect(const ovs::FlowKey& key) const;

  // Mirrors of the driver's flow-mods.
  void block(uint64_t tenant, uint16_t tcp_dst);
  void unblock(uint64_t tenant, uint16_t tcp_dst);
  void set_l2(uint64_t tenant, ovs::EthAddr mac, uint32_t port);

  bool blocked(uint64_t tenant, uint16_t tcp_dst) const;

 private:
  std::map<uint32_t, uint64_t> tenant_of_port_;
  std::map<std::pair<uint64_t, uint64_t>, uint32_t> l2_;  // (tenant, mac)
  std::set<std::pair<uint64_t, uint16_t>> blocked_;       // (tenant, port)
};

// --- Spans of the traced run ------------------------------------------------

// Records a span (name, start, end, parent) around each call the traced run
// makes into a layer. Spans stay in memory and are written out at exit; the
// per-name durations feed the per-layer metrics. Past `max_spans` stored
// spans, or `max_spans` samples of one name, durations still count toward
// the totals but are not kept.
class Tracer {
 public:
  using Clock = std::chrono::steady_clock;
  static constexpr uint32_t kNoParent = UINT32_MAX;

  explicit Tracer(size_t max_spans = size_t{1} << 18)
      : max_spans_(max_spans) {}

  // Opens a span; returns a token for end().
  uint32_t begin(const char* name);
  void end(uint32_t token);

  // Duration samples (ns) of the first spans with this name.
  const std::vector<double>& durations(const std::string& name) const;
  // Summed duration (ns) of every span with this name.
  double total_ns(const std::string& name) const;

  // Writes the stored spans as JSON lines; false when the file cannot be
  // written.
  bool write(const std::string& path) const;

  size_t stored() const noexcept { return spans_.size(); }

 private:
  struct Span {
    const char* name;
    uint32_t parent;
    int64_t start_ns;
    int64_t end_ns;
  };
  struct Open {
    const char* name;
    uint32_t stored;  // index into spans_, or kNoParent when not stored
    Clock::time_point start;
  };

  size_t max_spans_;
  Clock::time_point epoch_ = Clock::now();
  std::vector<Span> spans_;
  std::vector<Open> open_;
  struct PerName {
    const char* name;
    double total_ns = 0;
    std::vector<double> samples;
  };
  // Few distinct names, each a string literal: a linear scan by pointer
  // is cheaper per span than a string-keyed map.
  std::vector<PerName> per_name_;
};

// RAII span; a null tracer makes it a no-op.
class Scope {
 public:
  Scope(Tracer* t, const char* name)
      : t_(t), token_(t != nullptr ? t->begin(name) : 0) {}
  ~Scope() {
    if (t_ != nullptr) t_->end(token_);
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Tracer* t_;
  uint32_t token_;
};

}  // namespace perfbench
