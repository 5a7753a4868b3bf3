// Bounded connection tracker (paper §8.1: "an ongoing effort to provide a
// new OpenFlow action that invokes a kernel module that provides ...
// connection state (new, established, related)").
//
// Connections are keyed by the bidirectional 5-tuple plus a zone; the CT
// action stamps ct_state into the flow key so subsequent tables can match on
// it, exactly like the OVS `ct` action feeding `ct_state` matches. Beyond
// the minimal lookup/commit tracker this adds the production-shaped pieces
// (DESIGN.md §15):
//
//   * bounded capacity with per-zone limits and LRU eviction — a stateful
//     table is a resource-exhaustion surface exactly like the megaflow mask
//     list (§14), so it gets the same bounded-memory treatment;
//   * idle expiry driven by virtual time, with the determinism contract
//     that lookups NEVER refresh last-seen — only commits do — so the
//     table's contents are a pure function of the commit/remove/expire
//     event sequence (what lets the differential oracle mirror it);
//   * SNAT/DNAT bindings: a committed NAT connection stores the forward
//     rewrite and stamps a reverse-direction entry keyed on the post-NAT
//     tuple carrying the inverse rewrite, so replies un-NAT statelessly;
//   * per-connection change stamps: every entry created or removed gets a
//     fresh value of a monotonic counter, so the revalidator can tell which
//     megaflows consulted a connection that changed since their translation
//     (CtDeps below).
//
// Self-connections (src==dst addr AND port): the two directions of such a
// tuple are literally the same packet, so "reply" is undecidable from the
// wire. They are marked kSymmetric instead of ever setting kReply — the
// deterministic resolution of the old canonical-order ambiguity.
#pragma once

#include <array>
#include <cstdint>
#include <list>
#include <map>
#include <optional>
#include <unordered_map>
#include <utility>

#include "packet/flow_key.h"
#include "util/hash.h"

namespace ovs {

namespace ct_state {
inline constexpr uint8_t kNew = 0x01;
inline constexpr uint8_t kEstablished = 0x02;
inline constexpr uint8_t kReply = 0x04;
// Fully symmetric 5-tuple (self-connection): direction undecidable, so the
// reply bit is never set and this bit is stamped instead.
inline constexpr uint8_t kSymmetric = 0x08;
}  // namespace ct_state

namespace tcpflags {
inline constexpr uint16_t kFin = 0x01;
inline constexpr uint16_t kRst = 0x04;
}  // namespace tcpflags

// NAT binding requested at commit time: rewrite the source (SNAT) or the
// destination (DNAT) of forward-direction packets to (addr, port).
struct CtNatSpec {
  bool src = true;  // true = SNAT, false = DNAT
  uint32_t addr = 0;
  uint16_t port = 0;
  bool operator==(const CtNatSpec&) const noexcept = default;
};

struct ConnTrackerConfig {
  size_t max_entries = 0;        // 0 = unbounded
  size_t max_per_zone = 0;       // 0 = no per-zone cap
  uint64_t idle_timeout_ns = 0;  // 0 = entries never idle out
  // Global-cap eviction policy: true evicts the LRU entry of the LARGEST
  // zone (an attacker zone churning connections cannot displace a quiet
  // victim zone's state); false evicts the globally least-recent entry
  // (the bench ablation showing why fairness matters).
  bool fair_eviction = true;
};

class ConnTracker {
 public:
  ConnTracker() = default;
  explicit ConnTracker(const ConnTrackerConfig& cfg) : cfg_(cfg) {}

  // A packet's direction-normalized (5-tuple, zone) with its hash, built
  // once by conn_key(). Endpoints are sorted so both directions map to one
  // key. A ct action builds one and hands it to each call below that takes
  // a ConnKey, together with the FlowKey it was built from (which carries
  // the direction), so the tuple is normalized and hashed once per action.
  struct ConnKey {
    uint64_t hash = 0;  // first, so unequal keys differ at the first compare
    uint64_t lo_addr = 0, hi_addr = 0;
    uint32_t lo_port = 0, hi_port = 0;
    uint8_t proto = 0;
    uint16_t zone = 0;

    bool operator==(const ConnKey&) const noexcept = default;
  };
  static ConnKey conn_key(const FlowKey& key, uint16_t zone) noexcept;

  // Connection state of the packet's 5-tuple (direction-normalized). Const
  // and time-free by design: state transitions happen only via commit /
  // remove / expire_idle, so two trackers fed the same mutation sequence
  // answer identically regardless of when lookups happened in between.
  uint8_t lookup(const FlowKey& key, const ConnKey& ck) const noexcept;
  uint8_t lookup(const FlowKey& key, uint16_t zone = 0) const noexcept {
    return lookup(key, conn_key(key, zone));
  }

  // The NAT rewrite this packet should receive, if its connection carries a
  // binding applying in the packet's direction: forward packets get the
  // committed rewrite, replies (via the reverse entry) the inverse.
  struct NatRewrite {
    bool to_src = false;  // rewrite source (else destination)
    uint32_t addr = 0;
    uint16_t port = 0;
  };
  std::optional<NatRewrite> nat_lookup(const FlowKey& key,
                                       const ConnKey& ck) const noexcept;
  std::optional<NatRewrite> nat_lookup(const FlowKey& key,
                                       uint16_t zone = 0) const noexcept {
    return nat_lookup(key, conn_key(key, zone));
  }

  // Commits the connection (the `ct(commit)` action or an explicit
  // controller write). Inserting a NEW connection bumps generation() and
  // may evict (zone cap first, then global cap); re-committing an existing
  // one only refreshes last-seen — idempotent, generation unchanged.
  // Returns true when a new entry was created.
  bool commit(const FlowKey& key, const ConnKey& ck, uint64_t now_ns);
  bool commit(const FlowKey& key, uint16_t zone = 0, uint64_t now_ns = 0) {
    return commit(key, conn_key(key, zone), now_ns);
  }

  // Commit with a NAT binding: stores the forward rewrite on the primary
  // entry and stamps a reverse-direction entry keyed on the post-NAT tuple
  // with the inverse rewrite. If the post-NAT tuple collides with an
  // existing distinct connection the reverse entry is skipped (first wins,
  // deterministically). Re-commits refresh timestamps but never replace an
  // existing binding.
  bool commit_nat(const FlowKey& key, const ConnKey& ck, const CtNatSpec& nat,
                  uint64_t now_ns);
  bool commit_nat(const FlowKey& key, const CtNatSpec& nat,
                  uint16_t zone = 0, uint64_t now_ns = 0) {
    return commit_nat(key, conn_key(key, zone), nat, now_ns);
  }

  // Tears down the connection (FIN/RST or controller delete), including its
  // paired NAT reverse entry.
  bool remove(const ConnKey& ck);
  bool remove(const FlowKey& key, uint16_t zone = 0) {
    return remove(conn_key(key, zone));
  }

  // Removes every entry idle past the timeout as of now_ns; returns the
  // number removed. No-op (0) when idle_timeout_ns is 0.
  size_t expire_idle(uint64_t now_ns);
  // Would expire_idle(now_ns) remove anything?
  bool has_expirable(uint64_t now_ns) const noexcept;

  // Drops everything (userspace restart: conntrack is process state).
  void flush();

  size_t size() const noexcept { return table_.size(); }
  size_t zone_size(uint16_t zone) const noexcept;
  uint64_t generation() const noexcept { return generation_; }

  // Change stamps. insert() and remove_conn() stamp every connection they
  // create or remove with ++stamp(), which covers new commits (and their
  // NAT reverse entries), removes (and the NAT pair), idle expiry and both
  // LRU evictions; an idempotent re-commit stamps nothing. flush() moves
  // flush_stamp() instead of stamping every entry.
  uint64_t stamp() const noexcept { return stamp_; }
  uint64_t flush_stamp() const noexcept { return flush_stamp_; }
  // ConnKey::hash -> latest stamp, for every connection stamped since the
  // previous take_changes(); drains the record.
  using Changes = std::unordered_map<uint64_t, uint64_t>;
  Changes take_changes() { return std::exchange(changes_, {}); }
  const ConnTrackerConfig& config() const noexcept { return cfg_; }

  struct Stats {
    uint64_t committed = 0;          // new entries created
    uint64_t refreshed = 0;          // idempotent re-commits
    uint64_t removed = 0;            // explicit teardowns
    uint64_t expired_idle = 0;       // idle-timeout expirations
    uint64_t evicted_zone_cap = 0;   // LRU evictions at the per-zone cap
    uint64_t evicted_global_cap = 0; // LRU evictions at the global cap
    uint64_t nat_bindings = 0;       // NAT bindings created
  };
  const Stats& stats() const noexcept { return stats_; }

 private:
  // Reuses the hash conn_key() stored.
  struct ConnKeyHash {
    size_t operator()(const ConnKey& k) const noexcept {
      return static_cast<size_t>(k.hash);
    }
  };

  struct Entry {
    bool orig_is_lo = true;   // direction the committing packet traveled
    bool symmetric = false;   // self-connection: direction undecidable
    uint64_t last_seen_ns = 0;
    bool has_nat = false;
    bool nat_on_reply = false;  // rewrite applies to reply-direction packets
    NatRewrite nat;
    bool has_pair = false;      // NAT primary <-> reverse entry linkage
    ConnKey pair;
    std::list<ConnKey>::iterator lru;  // position in the zone's LRU list
  };

  // True when (src, sport) is the canonically-low endpoint.
  static bool is_lo_direction(const FlowKey& k) noexcept;

  const Entry* find(const ConnKey& ck) const noexcept;
  // Inserts a fresh entry after making room; returns it (never fails).
  Entry& insert(const ConnKey& ck, uint64_t now_ns);
  // Removes the connection under ck plus its NAT pair; returns entries
  // removed (0, 1 or 2).
  size_t remove_conn(const ConnKey& ck);
  void make_room(uint16_t zone);
  void evict_lru_of_zone(uint16_t zone, bool zone_cap);
  void note_change(const ConnKey& ck) { changes_[ck.hash] = ++stamp_; }

  ConnTrackerConfig cfg_;
  std::unordered_map<ConnKey, Entry, ConnKeyHash> table_;
  // Per-zone LRU order (front = least recently committed). std::map keyed
  // by zone id keeps the largest-zone scan deterministic.
  std::map<uint16_t, std::list<ConnKey>> zones_;
  uint64_t generation_ = 0;
  uint64_t stamp_ = 0;
  uint64_t flush_stamp_ = 0;
  Changes changes_;
  Stats stats_;
};

// The conntrack inputs of one translation: the tracker's stamp() when it
// started and the ConnKey::hash of every tuple it looked up. Two inline slots
// hold a lookup plus one post-NAT lookup without a heap allocation; a third
// distinct connection sets `overflow`, after which any conntrack change
// counts as one of its inputs.
struct CtDeps {
  static constexpr size_t kInline = 2;
  uint64_t stamp = 0;
  std::array<uint64_t, kInline> conns{};
  uint8_t n = 0;
  bool overflow = false;

  void add(uint64_t conn_hash) noexcept {
    for (uint8_t i = 0; i < n; ++i)
      if (conns[i] == conn_hash) return;
    if (n < kInline)
      conns[n++] = conn_hash;
    else
      overflow = true;
  }

  // Could the translation's conntrack answers differ now? True when the
  // tracker was flushed after it started, or a connection it consulted was
  // stamped after it started. `changes` must include every stamp issued
  // after `stamp` that no earlier call for this translation has seen.
  bool stale(const ConnTracker& ct,
             const ConnTracker::Changes& changes) const noexcept {
    if (ct.flush_stamp() > stamp) return true;
    if (overflow) return ct.stamp() > stamp;
    for (uint8_t i = 0; i < n; ++i) {
      auto it = changes.find(conns[i]);
      if (it != changes.end() && it->second > stamp) return true;
    }
    return false;
  }
};

}  // namespace ovs
