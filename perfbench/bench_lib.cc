#include "bench_lib.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <stdexcept>
#include <utility>

namespace perfbench {

double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  const size_t n = v.size();
  // Nearest rank: the smallest value with at least p% of the sample at or
  // below it.
  size_t rank = static_cast<size_t>(std::ceil(p / 100.0 * static_cast<double>(n)));
  rank = std::clamp<size_t>(rank, 1, n);
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(rank - 1),
                   v.end());
  return v[rank - 1];
}

bool supports_percentile(size_t n, double p) {
  return static_cast<double>(n) * (100.0 - p) >= 1000.0;
}

std::vector<size_t> quiet_segments(const Segments& s, double share) {
  std::vector<size_t> idx(s.size());
  for (size_t i = 0; i < idx.size(); ++i) idx[i] = i;
  if (idx.empty()) return idx;
  const size_t keep = std::clamp<size_t>(
      static_cast<size_t>(share * static_cast<double>(idx.size())), 1,
      idx.size());
  std::stable_sort(idx.begin(), idx.end(), [&](size_t a, size_t b) {
    return s.wall_s[a] < s.wall_s[b];
  });
  idx.resize(keep);
  std::sort(idx.begin(), idx.end());
  return idx;
}

double median_rate(const Segments& s, const std::vector<size_t>& which) {
  std::vector<double> rates;
  for (size_t i : which)
    if (s.wall_s.at(i) > 0) rates.push_back(s.work.at(i) / s.wall_s[i]);
  return percentile(std::move(rates), 50);
}

double median_of(const std::vector<double>& values,
                 const std::vector<size_t>& which) {
  std::vector<double> v;
  for (size_t i : which) v.push_back(values.at(i));
  return percentile(std::move(v), 50);
}

namespace {
const double kLogStep = std::log(1.01);
}  // namespace

void LogHistogram::add(double v) {
  if (!(v > 0)) v = 1e-9;
  ++buckets_[static_cast<int>(std::floor(std::log(v) / kLogStep))];
  ++count_;
}

double LogHistogram::percentile(double p) const {
  if (count_ == 0) return 0.0;
  const auto rank = std::clamp<uint64_t>(
      static_cast<uint64_t>(std::ceil(p / 100.0 * static_cast<double>(count_))),
      1, count_);
  uint64_t seen = 0;
  for (const auto& [b, n] : buckets_) {
    seen += n;
    if (seen >= rank) return std::exp((b + 0.5) * kLogStep);
  }
  return std::exp((buckets_.rbegin()->first + 0.5) * kLogStep);
}

NvpModel::NvpModel(const ovs::NvpConfig& cfg, const ovs::NvpTopology& topo) {
  for (const ovs::NvpVm& vm : topo.vms) {
    tenant_of_port_[vm.port] = vm.tenant;
    l2_[{vm.tenant, vm.mac.bits()}] = vm.port;
  }
  // install_nvp_pipeline draws acls_per_tenant blocked ports for each of
  // the first n_acl_tenants tenants, in tenant order.
  for (size_t i = 0; i < topo.blocked_ports.size(); ++i)
    blocked_.insert({i / cfg.acls_per_tenant + 1, topo.blocked_ports[i]});
}

uint32_t NvpModel::expect(const ovs::FlowKey& key) const {
  const auto t = tenant_of_port_.find(key.in_port());
  if (t == tenant_of_port_.end()) return kDrop;
  const auto dst = l2_.find({t->second, key.eth_dst().bits()});
  // OpenFlow never outputs a packet to the port it came in on.
  if (dst == l2_.end() || dst->second == key.in_port()) return kDrop;
  if (key.eth_type() == ovs::ethertype::kIpv4 &&
      key.nw_proto() == ovs::ipproto::kTcp &&
      blocked(t->second, key.tp_dst()))
    return kDrop;
  return dst->second;
}

void NvpModel::block(uint64_t tenant, uint16_t tcp_dst) {
  blocked_.insert({tenant, tcp_dst});
}

void NvpModel::unblock(uint64_t tenant, uint16_t tcp_dst) {
  blocked_.erase({tenant, tcp_dst});
}

void NvpModel::set_l2(uint64_t tenant, ovs::EthAddr mac, uint32_t port) {
  l2_[{tenant, mac.bits()}] = port;
}

bool NvpModel::blocked(uint64_t tenant, uint16_t tcp_dst) const {
  return blocked_.count({tenant, tcp_dst}) != 0;
}

uint32_t Tracer::begin(const char* name) {
  uint32_t stored = kNoParent;
  if (spans_.size() < max_spans_) {
    uint32_t parent = kNoParent;
    for (auto it = open_.rbegin(); it != open_.rend(); ++it) {
      if (it->stored != kNoParent) {
        parent = it->stored;
        break;
      }
    }
    stored = static_cast<uint32_t>(spans_.size());
    spans_.push_back({name, parent, 0, 0});
  }
  open_.push_back({name, stored, Clock::now()});
  return static_cast<uint32_t>(open_.size() - 1);
}

void Tracer::end(uint32_t token) {
  const Clock::time_point stop = Clock::now();
  if (token + 1 != open_.size())
    throw std::logic_error("Tracer::end: spans must nest");
  const Open o = open_.back();
  open_.pop_back();
  const auto ns = [&](Clock::time_point t) {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(t - epoch_)
        .count();
  };
  if (o.stored != kNoParent) {
    spans_[o.stored].start_ns = ns(o.start);
    spans_[o.stored].end_ns = ns(stop);
  }
  const double d = static_cast<double>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(stop - o.start)
          .count());
  PerName* pn = nullptr;
  for (PerName& p : per_name_)
    if (p.name == o.name || std::strcmp(p.name, o.name) == 0) pn = &p;
  if (pn == nullptr) pn = &per_name_.emplace_back(PerName{o.name, 0, {}});
  pn->total_ns += d;
  if (pn->samples.size() < max_spans_) pn->samples.push_back(d);
}

const std::vector<double>& Tracer::durations(const std::string& name) const {
  static const std::vector<double> kEmpty;
  for (const PerName& p : per_name_)
    if (name == p.name) return p.samples;
  return kEmpty;
}

double Tracer::total_ns(const std::string& name) const {
  for (const PerName& p : per_name_)
    if (name == p.name) return p.total_ns;
  return 0;
}

bool Tracer::write(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "{\"id\":%zu,\"name\":\"%s\",\"start_ns\":%lld,"
                 "\"end_ns\":%lld,\"parent\":%lld}\n",
                 i, s.name, static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns),
                 s.parent == kNoParent ? -1LL
                                       : static_cast<long long>(s.parent));
  }
  return std::fclose(f) == 0;
}

}  // namespace perfbench
