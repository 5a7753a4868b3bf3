#include "packet/flow_key.h"

#include <bit>
#include <sstream>

namespace ovs {

int FlowMask::prefix_len(FieldId f) const noexcept {
  const FieldInfo& fi = field_info(f);
  if (fi.width == 128) {
    const uint64_t hi = w[fi.word];
    const uint64_t lo = w[fi.word + 1];
    // Must be 1-bits followed by 0-bits across the 128-bit value.
    if (hi == ~uint64_t{0}) {
      const int lz = lo == 0 ? 64 : std::countl_zero(~lo);
      const uint64_t expect =
          lz == 0 ? 0 : (lz == 64 ? ~uint64_t{0} : ~uint64_t{0} << (64 - lz));
      return lo == expect ? 64 + lz : -1;
    }
    if (lo != 0) return -1;
    const int ones = std::countl_one(hi);
    const uint64_t expect =
        ones == 0 ? 0
                  : (ones == 64 ? ~uint64_t{0} : ~uint64_t{0} << (64 - ones));
    return hi == expect ? ones : -1;
  }
  const uint64_t field =
      (fi.width == 64) ? w[fi.word]
                       : ((w[fi.word] >> fi.shift) &
                          ((uint64_t{1} << fi.width) - 1));
  // Count leading ones within the field width.
  unsigned ones = 0;
  while (ones < fi.width && ((field >> (fi.width - 1 - ones)) & 1) != 0)
    ++ones;
  // The remainder must be zero for a prefix.
  const uint64_t tail_mask =
      ones >= fi.width ? 0 : ((uint64_t{1} << (fi.width - ones)) - 1);
  return (field & tail_mask) == 0 ? static_cast<int>(ones) : -1;
}

namespace {

void append_field(std::ostringstream& os, bool& first, const char* name,
                  const std::string& value) {
  if (!first) os << ",";
  first = false;
  os << name << "=" << value;
}

}  // namespace

std::string FlowKey::to_string() const {
  std::ostringstream os;
  bool first = true;
  if (in_port() != 0) append_field(os, first, "in_port",
                                   std::to_string(in_port()));
  if (tun_id() != 0) append_field(os, first, "tun_id",
                                  std::to_string(tun_id()));
  if (metadata() != 0)
    append_field(os, first, "metadata", std::to_string(metadata()));
  for (unsigned i = 0; i < 4; ++i)
    if (reg(i) != 0)
      append_field(os, first, ("reg" + std::to_string(i)).c_str(),
                   std::to_string(reg(i)));
  append_field(os, first, "dl_src", eth_src().to_string());
  append_field(os, first, "dl_dst", eth_dst().to_string());
  char et[8];
  std::snprintf(et, sizeof et, "0x%04x", eth_type());
  append_field(os, first, "dl_type", et);
  if (eth_type() == ethertype::kIpv4) {
    append_field(os, first, "nw_src", nw_src().to_string());
    append_field(os, first, "nw_dst", nw_dst().to_string());
    append_field(os, first, "nw_proto", std::to_string(nw_proto()));
  } else if (eth_type() == ethertype::kIpv6) {
    append_field(os, first, "ipv6_src", ipv6_src().to_string());
    append_field(os, first, "ipv6_dst", ipv6_dst().to_string());
    append_field(os, first, "nw_proto", std::to_string(nw_proto()));
  } else if (eth_type() == ethertype::kArp) {
    append_field(os, first, "arp_op", std::to_string(arp_op()));
  }
  if (nw_proto() == ipproto::kTcp || nw_proto() == ipproto::kUdp ||
      nw_proto() == ipproto::kSctp) {
    append_field(os, first, "tp_src", std::to_string(tp_src()));
    append_field(os, first, "tp_dst", std::to_string(tp_dst()));
  } else if (nw_proto() == ipproto::kIcmp) {
    append_field(os, first, "icmp_type", std::to_string(tp_src()));
    append_field(os, first, "icmp_code", std::to_string(tp_dst()));
  }
  return os.str();
}

std::string FlowMask::to_string() const {
  std::ostringstream os;
  bool first = true;
  for (size_t i = 0; i < kNumFields; ++i) {
    const auto f = static_cast<FieldId>(i);
    if (!has_field(f)) continue;
    const int plen = prefix_len(f);
    std::string v;
    if (is_exact(f)) {
      v = "exact";
    } else if (plen >= 0) {
      v = '/';
      v += std::to_string(plen);
    } else {
      v = "partial";
    }
    append_field(os, first, field_info(f).name, v);
  }
  if (first) os << "(empty)";
  return os.str();
}

}  // namespace ovs
