#include "ofproto/flow_table.h"

#include <algorithm>

#include "ofproto/actions.h"

namespace ovs {

const OfRule* FlowTable::add_flow(const Match& match, int32_t priority,
                                  OfActions actions, uint64_t cookie,
                                  FlowTimeouts timeouts, uint64_t now_ns) {
  if (Rule* existing = cls_.find_exact(match, priority))
    remove_rule(static_cast<OfRule*>(existing));
  auto owned = std::make_unique<OfRule>(match, priority, std::move(actions),
                                        cookie, timeouts, now_ns);
  OfRule* r = owned.get();
  cls_.insert(r);
  rules_.push_back(std::move(owned));
  ++generation_;
  if (log_room()) {
    TableChangeLog::Added a{match, priority, 0};
    a.match.normalize();
    for (size_t i = 0; i < kFlowWords; ++i)
      if (a.match.mask.w[i] != 0) a.words |= uint16_t{1} << i;
    log_.note_metadata(a.match);
    log_.added.push_back(a);
  }
  return r;
}

void FlowTable::set_miss_behavior(MissBehavior m) {
  if (m == miss_) return;
  miss_ = m;
  ++generation_;
  log_.miss_changed = true;
}

bool FlowTable::log_room() noexcept {
  if (log_.overflow) return false;
  if (log_.added.size() + log_.removed.size() < TableChangeLog::kCap)
    return true;
  log_.overflow = true;
  log_.added = {};
  log_.removed = {};
  return false;
}

bool FlowTable::delete_flow(const Match& match, int32_t priority) {
  Rule* r = cls_.find_exact(match, priority);
  if (r == nullptr) return false;
  remove_rule(static_cast<OfRule*>(r));
  ++generation_;
  return true;
}

size_t FlowTable::delete_by_cookie(uint64_t cookie) {
  std::vector<OfRule*> victims;
  cls_.for_each_rule([&](Rule* r) {
    auto* of = static_cast<OfRule*>(r);
    if (of->cookie() == cookie) victims.push_back(of);
  });
  for (OfRule* r : victims) remove_rule(r);
  if (!victims.empty()) ++generation_;
  return victims.size();
}

size_t FlowTable::delete_where(const Match& filter) {
  std::vector<OfRule*> victims;
  cls_.for_each_rule([&](Rule* r) {
    auto* of = static_cast<OfRule*>(r);
    // Loose match: the rule's mask must cover the filter's mask, and the
    // rule's (pre-masked) key must agree on the filter's bits.
    for (size_t i = 0; i < kFlowWords; ++i) {
      if ((of->match().mask.w[i] & filter.mask.w[i]) != filter.mask.w[i])
        return;
      if ((of->match().key.w[i] & filter.mask.w[i]) != filter.key.w[i])
        return;
    }
    victims.push_back(of);
  });
  for (OfRule* r : victims) remove_rule(r);
  if (!victims.empty()) ++generation_;
  return victims.size();
}

size_t FlowTable::expire_flows(uint64_t now_ns) {
  std::vector<OfRule*> victims;
  cls_.for_each_rule([&](Rule* r) {
    auto* of = static_cast<OfRule*>(r);
    const FlowTimeouts& t = of->timeouts();
    const bool idle_out =
        t.idle_ns != 0 && now_ns - of->used_ns() > t.idle_ns;
    const bool hard_out =
        t.hard_ns != 0 && now_ns - of->created_ns() > t.hard_ns;
    if (idle_out || hard_out) victims.push_back(of);
  });
  for (OfRule* r : victims) remove_rule(r);
  if (!victims.empty()) ++generation_;
  return victims.size();
}

void FlowTable::clear() {
  std::vector<OfRule*> victims;
  cls_.for_each_rule(
      [&](Rule* r) { victims.push_back(static_cast<OfRule*>(r)); });
  for (OfRule* r : victims) remove_rule(r);
  if (!victims.empty()) ++generation_;
}

void FlowTable::remove_rule(OfRule* r) {
  if (log_room()) log_.removed.push_back(r);
  cls_.remove(r);
  auto it = std::find_if(rules_.begin(), rules_.end(),
                         [&](const auto& up) { return up.get() == r; });
  rules_.erase(it);
}

std::string OfActions::to_string() const {
  if (list.empty()) return "drop";
  std::string s;
  for (const OfAction& a : list) {
    if (!s.empty()) s += ",";
    if (const auto* o = std::get_if<OfOutput>(&a))
      s += "output:" + std::to_string(o->port);
    else if (std::get_if<OfDrop>(&a))
      s += "drop";
    else if (const auto* rs = std::get_if<OfResubmit>(&a))
      s += "resubmit:" + std::to_string(rs->table);
    else if (const auto* sf = std::get_if<OfSetField>(&a))
      s += std::string("set_field(") + field_info(sf->field).name + "=" +
           std::to_string(sf->value) + ")";
    else if (const auto* t = std::get_if<OfTunnel>(&a))
      s += "tunnel(port=" + std::to_string(t->port) +
           ",tun_id=" + std::to_string(t->tun_id) + ")";
    else if (std::get_if<OfController>(&a))
      s += "controller";
    else if (std::get_if<OfNormal>(&a))
      s += "normal";
    else if (const auto* ct = std::get_if<OfCt>(&a))
      s += std::string("ct(") + (ct->commit ? "commit," : "") + "table=" +
           std::to_string(ct->next_table) + ")";
  }
  return s;
}

}  // namespace ovs
