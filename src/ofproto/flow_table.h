// One OpenFlow flow table: a classifier of OfRule entries with OpenFlow
// add/modify/delete semantics (§3.3).
#pragma once

#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "classifier/classifier.h"
#include "ofproto/actions.h"

namespace ovs {

// OpenFlow-style flow expiry configuration (0 = no timeout).
struct FlowTimeouts {
  uint64_t idle_ns = 0;
  uint64_t hard_ns = 0;
};

class OfRule : public Rule {
 public:
  OfRule(Match match, int32_t priority, OfActions actions, uint64_t cookie,
         FlowTimeouts timeouts = {}, uint64_t created_ns = 0)
      : Rule(match, priority),
        actions_(std::move(actions)),
        cookie_(cookie),
        timeouts_(timeouts),
        created_ns_(created_ns),
        used_ns_(created_ns) {}

  const OfActions& actions() const noexcept { return actions_; }
  uint64_t cookie() const noexcept { return cookie_; }
  const FlowTimeouts& timeouts() const noexcept { return timeouts_; }
  uint64_t created_ns() const noexcept { return created_ns_; }

  // Per-flow statistics (§6): updated periodically by the daemon from
  // datapath flow stats, so they lag real traffic by up to a poll period
  // ("OpenFlow statistics are themselves only periodically updated").
  uint64_t packets() const noexcept { return packets_; }
  uint64_t bytes() const noexcept { return bytes_; }
  uint64_t used_ns() const noexcept { return used_ns_; }

  void add_stats(uint64_t packets, uint64_t bytes,
                 uint64_t now_ns) const noexcept {
    packets_ += packets;
    bytes_ += bytes;
    if (packets > 0 && now_ns > used_ns_) used_ns_ = now_ns;
  }

 private:
  friend class FlowTable;
  OfActions actions_;
  uint64_t cookie_;
  FlowTimeouts timeouts_;
  uint64_t created_ns_ = 0;
  mutable uint64_t packets_ = 0;
  mutable uint64_t bytes_ = 0;
  mutable uint64_t used_ns_ = 0;
};

// A flow table's mutations since the revalidator last drained them
// (FlowTable::take_changes), as revalidation needs them: each added rule's
// match and priority, each removed rule's address (compared, never
// dereferenced: the rule is gone), and whether the miss behaviour changed.
// Past kCap rule entries the log stops recording and sets `overflow`, and
// the pass that drains it re-translates every flow. A table's log starts
// overflowed, so a table nobody drains (an oracle's, a bench's) records
// nothing, and the first drain asks for the full pass a new table needs.
struct TableChangeLog {
  static constexpr size_t kCap = 128;
  struct Added {
    Match match;
    int32_t priority = 0;
    uint16_t words = 0;  // bit i set: match.mask.w[i] != 0
  };
  std::vector<Added> added;
  std::vector<const OfRule*> removed;
  // The added rules' metadata values (the logical-datapath id the
  // classifier partitions on, §5.5): bit bit_of(v) for each added
  // rule exact on metadata; `any_metadata` once one is not. Lets a lookup
  // whose metadata is known skip every other tenant's adds at once.
  uint64_t metadata = 0;
  bool any_metadata = false;
  bool miss_changed = false;
  bool overflow = false;

  // One of 64 bits, picked by hash.
  static uint64_t bit_of(uint64_t value) noexcept {
    return uint64_t{1} << (hash_mix64(value) & 63);
  }
  void note_metadata(const Match& m) noexcept {
    if (m.mask.is_exact(FieldId::kMetadata))
      metadata |= bit_of(m.key.metadata());
    else
      any_metadata = true;
  }

  bool empty() const noexcept {
    return added.empty() && removed.empty() && !miss_changed && !overflow;
  }
};

class FlowTable {
 public:
  enum class MissBehavior : uint8_t { kDrop, kController };

  explicit FlowTable(ClassifierConfig cfg = {}) : cls_(cfg) {
    log_.overflow = true;
  }

  // Adds a flow; an existing flow with the same match and priority is
  // replaced (OpenFlow semantics). Returns the rule.
  const OfRule* add_flow(const Match& match, int32_t priority,
                         OfActions actions, uint64_t cookie = 0,
                         FlowTimeouts timeouts = {}, uint64_t now_ns = 0);

  // Removes flows past their idle/hard timeouts. Returns how many expired.
  size_t expire_flows(uint64_t now_ns);

  // Deletes the flow exactly matching (match, priority). Returns success.
  bool delete_flow(const Match& match, int32_t priority);

  // Deletes all flows with the given cookie; returns how many.
  size_t delete_by_cookie(uint64_t cookie);

  // Loose-match deletion (ovs-ofctl del-flows semantics): removes every
  // flow whose match includes all of the filter's criteria with the same
  // values. An empty filter deletes everything.
  size_t delete_where(const Match& filter);

  void clear();

  const OfRule* lookup(const FlowKey& pkt,
                       FlowWildcards* wc = nullptr) const noexcept {
    return static_cast<const OfRule*>(cls_.lookup(pkt, wc));
  }

  // Batched lookup: out[i] (and wcs[i], if given) receive exactly what
  // lookup(keys[i], &wcs[i]) would produce, through the classifier engine's
  // batch path. The temporary Rule* array exists because casting an
  // OfRule** to Rule** would be UB; the per-element downcast is free.
  void lookup_batch(const FlowKey* keys, size_t n, const OfRule** out,
                    FlowWildcards* wcs = nullptr) const {
    std::vector<const Rule*> tmp(n);
    cls_.lookup_batch(keys, n, tmp.data(), wcs);
    for (size_t i = 0; i < n; ++i)
      out[i] = static_cast<const OfRule*>(tmp[i]);
  }

  size_t flow_count() const noexcept { return cls_.rule_count(); }
  size_t tuple_count() const noexcept { return cls_.tuple_count(); }

  // Bumped on every modification; revalidators use it to detect staleness.
  uint64_t generation() const noexcept { return generation_; }

  // Drains the change log (see TableChangeLog). Every mutation that bumps
  // generation() also logs itself, once the log was first drained.
  TableChangeLog take_changes() { return std::exchange(log_, {}); }

  MissBehavior miss_behavior() const noexcept { return miss_; }
  // A miss-behaviour change alters what every missing translation emits,
  // so it bumps generation() like a rule change.
  void set_miss_behavior(MissBehavior m);

  const Classifier& classifier() const noexcept { return cls_; }

  template <typename F>
  void for_each(F&& f) const {
    cls_.for_each_rule(
        [&](const Rule* r) { f(static_cast<const OfRule*>(r)); });
  }

 private:
  void remove_rule(OfRule* r);
  // Reserves one rule entry in the log; false once it overflowed.
  bool log_room() noexcept;

  Classifier cls_;
  std::vector<std::unique_ptr<OfRule>> rules_;
  uint64_t generation_ = 0;
  MissBehavior miss_ = MissBehavior::kDrop;
  TableChangeLog log_;
};

}  // namespace ovs
