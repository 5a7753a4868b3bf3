#include "datapath/datapath.h"

#include <algorithm>
#include <cassert>
#include <unordered_set>

#include "util/cuckoo.h"
#include "util/fault.h"
#include "util/miniflow.h"

namespace ovs {

// One hash table per mask (the kernel tuple space, §4.2): masked-key hash ->
// chain of entries. Entries are disjoint, so a chain holds more than one
// only on a hash collision.
class MegaflowTuple {
 public:
  explicit MegaflowTuple(const FlowMask& m)
      : mask(m), schema(m), table(kInitialCapacity) {}

  // CuckooMap64 reserves key 0 as the empty marker.
  uint64_t key_of(const FlowKey& k) const noexcept {
    return schema.full_hash(k) | 1;
  }

  // Reader-side search. Entries are skipped once dead so a reader never
  // resolves to a flow the control thread already removed.
  MegaflowEntry* find(const FlowKey& pkt) const noexcept {
    uint64_t v = 0;
    if (!table.find(key_of(pkt), &v)) return nullptr;
    for (auto* e = reinterpret_cast<MegaflowEntry*>(v); e != nullptr;
         e = e->hash_next_.load(std::memory_order_acquire)) {
      if (!e->dead() && schema.masked_equal(pkt, e->match().key)) return e;
    }
    return nullptr;
  }

  // Starts small and grows (retiring old slot arrays RCU-style), so a mask
  // holding a handful of flows costs about a kilobyte.
  static constexpr size_t kInitialCapacity = 16;

  const FlowMask mask;
  const MiniflowSchema schema;
  CuckooMap64 table;
  size_t n_rules = 0;  // control thread
};

namespace {

// Burst statistics, the last step of process_chunk: folds the per-leader
// packet/byte tallies of a burst into one tally per matched megaflow.
// entry[j] is leader j's matched flow (null on a miss). On return
// leaders[0, result) hold the first leader of each distinct non-null entry,
// in burst order, each carrying its group's totals; the result is the
// number of distinct megaflows matched. Cost is linear in the burst plus
// leaders x distinct megaflows pointer compares.
size_t fold_leader_tallies(MegaflowEntry* const* entry, uint16_t* leaders,
                           size_t n_leaders, uint32_t* tally_pkts,
                           uint64_t* tally_bytes) noexcept {
  size_t n_heads = 0;
  for (size_t l = 0; l < n_leaders; ++l) {
    const uint16_t j = leaders[l];
    MegaflowEntry* e = entry[j];
    if (e == nullptr) continue;
    size_t h = 0;
    while (h < n_heads && entry[leaders[h]] != e) ++h;
    if (h < n_heads) {
      tally_pkts[leaders[h]] += tally_pkts[j];
      tally_bytes[leaders[h]] += tally_bytes[j];
    } else {
      leaders[n_heads++] = j;
    }
  }
  return n_heads;
}

// Shard counters have one writer (the claiming thread), so a relaxed
// load + store suffices where a shared counter would need an RMW.
void add(std::atomic<uint64_t>& c, uint64_t v) noexcept {
  c.store(c.load(std::memory_order_relaxed) + v, std::memory_order_relaxed);
}

}  // namespace

// --- Construction ------------------------------------------------------------

Datapath::Datapath(DatapathConfig cfg) : cfg_(cfg) {
  if (cfg_.n_workers == 0) cfg_.n_workers = 1;
  set_emc_insert_inv_prob(cfg_.emc_insert_inv_prob);
  shards_.reserve(cfg_.n_workers);
  for (size_t i = 0; i < cfg_.n_workers; ++i) {
    auto s = std::make_unique<Shard>();
    if (cfg_.microflow_enabled)
      s->emc.resize(cfg_.microflow_sets * cfg_.microflow_ways);
    // Shard 0 replays the configured seed; the others take sub-seeds so
    // worker streams stay independent.
    s->rng = Rng(i == 0 ? cfg_.seed : cfg_.seed + 0x9E3779B97F4A7C15ULL * i);
    shards_.push_back(std::move(s));
  }
  dir_current_ = std::make_unique<const TupleDir>();
  dir_view_.store(dir_current_.get(), std::memory_order_release);
  if (cfg_.offload_slots > 0) {
    off_ = std::make_unique<OffloadTable>(cfg_.offload_slots);
    // Publish an (empty) view right away: a non-null view is what tells
    // workers the tier exists, so probe accounting starts with the first
    // packet, before the first slot is earned.
    off_current_ = off_->clone();
    off_view_.store(off_current_.get(), std::memory_order_release);
  }
}

Datapath::~Datapath() { stop(); }

// --- Worker fast path --------------------------------------------------------

void Datapath::claim(Shard& s) noexcept {
  for (;;) {
    uint64_t e = s.epoch.load(std::memory_order_relaxed);
    if ((e & 1) == 0 &&
        s.epoch.compare_exchange_weak(e, e + 1, std::memory_order_acquire,
                                      std::memory_order_relaxed))
      return;
    std::this_thread::yield();
  }
}

MegaflowEntry* Datapath::emc_lookup(Shard& s, const FlowKey& key,
                                    uint64_t hash,
                                    uint64_t& stale) const noexcept {
  const size_t ways = cfg_.microflow_ways;
  MicroSlot* set = &s.emc[((hash >> 32) & (cfg_.microflow_sets - 1)) * ways];
  for (size_t w = 0; w < ways; ++w) {
    MicroSlot& slot = set[w];
    if (slot.entry == nullptr || slot.hash != hash) continue;
    MegaflowEntry* e = slot.entry;
    // "A stale microflow cache entry is detected and corrected the first
    // time a packet matches it" (§6): validate against the megaflow.
    if (e->dead() || !e->match().matches(key)) {
      slot.entry = nullptr;
      ++stale;
      return nullptr;
    }
    return e;
  }
  return nullptr;
}

void Datapath::emc_insert(Shard& s, uint64_t hash, MegaflowEntry* e,
                          uint64_t& inserts, uint64_t& skips) noexcept {
  // Probabilistic insertion (§7.3's churn mitigation, OVS
  // emc-insert-inv-prob): under microflow churn most EMC entries are used
  // exactly once, so inserting 1-in-N keeps the hot working set resident
  // instead of letting one-shot flows evict it.
  const uint32_t inv = emc_insert_inv_prob_.load(std::memory_order_relaxed);
  if (inv > 1 && s.rng.uniform(inv) != 0) {
    ++skips;
    return;
  }
  ++inserts;
  const size_t ways = cfg_.microflow_ways;
  MicroSlot* set = &s.emc[((hash >> 32) & (cfg_.microflow_sets - 1)) * ways];
  // Prefer an empty or same-hash way; otherwise pseudo-random replacement
  // ("we use a pseudo-random replacement policy, for simplicity", §6).
  for (size_t w = 0; w < ways; ++w) {
    if (set[w].entry == nullptr || set[w].hash == hash) {
      set[w] = {hash, e};
      return;
    }
  }
  set[s.rng.uniform(ways)] = {hash, e};
}

Datapath::RxResult Datapath::receive(const Packet& pkt, uint64_t now_ns,
                                     size_t worker) {
  // The leader walk of process_chunk for one packet, without the burst
  // bookkeeping (BatchEquivalence holds the two paths equal).
  assert(worker < shards_.size());
  Shard& s = *shards_[worker];
  const bool shared = shards_.size() > 1;
  claim(s);
  add(s.packets, 1);
  RxResult res;
  MegaflowEntry* e = nullptr;
  const OffloadTable* off = off_view_.load(std::memory_order_acquire);
  const OffloadTable::Entry* oe =
      off != nullptr ? off->probe(pkt.key) : nullptr;
  const uint64_t hash = oe == nullptr ? pkt.key.hash() : 0;
  uint64_t stale = 0;
  if (oe != nullptr) {
    oe->counters->hits.fetch_add(1, std::memory_order_relaxed);
    oe->counters->bytes.fetch_add(pkt.size_bytes, std::memory_order_relaxed);
    e = static_cast<MegaflowEntry*>(oe->owner);
    add(s.offload_hits, 1);
    res = {Path::kOffloadHit, &oe->actions, 0};
  } else if (!s.emc.empty() &&
             (e = emc_lookup(s, pkt.key, hash, stale)) != nullptr) {
    add(s.microflow_hits, 1);
    add(s.tuples_searched, 1);
    res = {Path::kMicroflowHit, &e->actions(), 1};
  } else {
    uint32_t probed = 0;
    for (const MegaflowTuple* t : *dir_view_.load(std::memory_order_acquire)) {
      ++probed;
      if ((e = t->find(pkt.key)) != nullptr) break;
    }
    add(s.tuples_searched, probed);
    if (e != nullptr) {
      add(s.megaflow_hits, 1);
      if (!s.emc.empty()) {
        uint64_t inserts = 0, skips = 0;
        emc_insert(s, hash, e, inserts, skips);
        add(s.emc_inserts, inserts);
        add(s.emc_insert_skips, skips);
      }
      res = {Path::kMegaflowHit, &e->actions(), probed};
    } else {
      add(s.misses, 1);
      s.missed.push_back(pkt);
      flush_upcalls(s.missed);
      res = {Path::kMiss, nullptr, probed};
    }
  }
  add(s.stale_microflow_hits, stale);
  if (e != nullptr) e->bump(1, pkt.size_bytes, now_ns, shared);
  release(s);
  return res;
}

// One chunk (n <= kMaxBatch) of the batched fast path. The dance, in order:
//
//   1. hash every flow key once;
//   2. group packets by microflow (same hash + same key) — only the first
//      packet of each group (the "leader") probes the caches;
//   3. leaders walk offload -> EMC -> megaflow -> miss;
//   4. followers inherit their leader's outcome: a hit leader makes every
//      follower a microflow hit (sequentially, the leader's EMC insert would
//      have been hit by each follower), a missing leader makes each follower
//      its own upcall (nothing was installed in between);
//   5. per-megaflow statistics are bumped once per matched entry with the
//      group's packet/byte totals, tallied per leader during step 2.
void Datapath::process_chunk(Shard& s, const Packet* pkts, size_t n,
                             uint64_t now_ns, RxResult* results,
                             BatchSummary& sum) {
  uint64_t hashes[kMaxBatch];
  uint16_t leader[kMaxBatch];         // index of the packet's group leader
  MegaflowEntry* entry[kMaxBatch];    // leader slots: matched megaflow
  const OffloadTable::Entry* offl[kMaxBatch];  // leader slots: NIC slot hit
  uint16_t leaders[kMaxBatch];        // indices of unique microflow leaders
  uint32_t tally_pkts[kMaxBatch];     // leader slots: packets in the group
  uint64_t tally_bytes[kMaxBatch];    // leader slots: bytes in the group
  size_t n_leaders = 0;

  // Local tallies, flushed to the shard's counters once per chunk.
  uint64_t off_hits = 0, micro_hits = 0, mega_hits = 0, misses = 0;
  uint64_t stale = 0, searched = 0, emc_ins = 0, emc_skips = 0;

  // One acquire load each per chunk: the whole chunk probes one consistent
  // published view (views retired by the control thread outlive the claim).
  const OffloadTable* off = off_view_.load(std::memory_order_acquire);
  const TupleDir& dir = *dir_view_.load(std::memory_order_acquire);
  const bool emc = !s.emc.empty();

  sum.packets += static_cast<uint32_t>(n);

  for (size_t i = 0; i < n; ++i) hashes[i] = pkts[i].key.hash();

  // Microflow grouping. Bursts are small (<= 256) and the leader list is
  // typically much smaller, so a linear scan with a hash prefilter beats a
  // hash table here.
  for (size_t i = 0; i < n; ++i) {
    leader[i] = static_cast<uint16_t>(i);
    for (size_t l = 0; l < n_leaders; ++l) {
      const size_t j = leaders[l];
      if (hashes[j] == hashes[i] && pkts[j].key == pkts[i].key) {
        leader[i] = static_cast<uint16_t>(j);
        break;
      }
    }
    if (leader[i] == i) {
      leaders[n_leaders++] = static_cast<uint16_t>(i);
      tally_pkts[i] = 0;
      tally_bytes[i] = 0;
    }
    ++tally_pkts[leader[i]];
    tally_bytes[leader[i]] += pkts[i].size_bytes;
  }

  // Leaders probe the caches; followers resolve against their leader (whose
  // index is always smaller, so a single in-order pass suffices).
  for (size_t i = 0; i < n; ++i) {
    if (leader[i] != i) {
      const RxResult& lr = results[leader[i]];
      if (lr.path == Path::kOffloadHit) {
        // Hardware would have matched this packet the same way; no software
        // cache is consulted.
        ++off_hits;
        ++sum.offload_hits;
        results[i] = {Path::kOffloadHit, lr.actions, 0};
      } else if (entry[leader[i]] != nullptr) {
        // With an EMC, this packet would sequentially have hit the entry
        // the leader installed (or re-used); without one, it would have been
        // its own identical classifier search. Either way no table is
        // physically probed.
        ++(emc ? micro_hits : mega_hits);
        results[i] = {emc ? Path::kMicroflowHit : Path::kMegaflowHit,
                      lr.actions, 0};
      } else {
        ++misses;
        ++sum.misses;
        s.missed.push_back(pkts[i]);
        results[i] = {Path::kMiss, nullptr, 0};
      }
      continue;
    }

    entry[i] = nullptr;
    offl[i] = nullptr;
    // NIC offload tier, probed before any software cache (§13). A hit
    // forwards from the slot's action *snapshot* — exactly what programmed
    // hardware would do — and still credits the owning megaflow (entry[i])
    // so idle expiry and the placement EWMA see the traffic.
    if (off != nullptr) {
      ++sum.offload_probes;
      if (const OffloadTable::Entry* oe = off->probe(pkts[i].key)) {
        ++off_hits;
        ++sum.offload_hits;
        offl[i] = oe;
        entry[i] = static_cast<MegaflowEntry*>(oe->owner);
        results[i] = {Path::kOffloadHit, &oe->actions, 0};
        continue;
      }
    }
    if (emc) {
      ++sum.emc_probes;
      if (MegaflowEntry* e = emc_lookup(s, pkts[i].key, hashes[i], stale)) {
        // The hinted megaflow's hash table counts as the single table
        // probed.
        ++micro_hits;
        ++searched;
        ++sum.tuples_searched;
        entry[i] = e;
        results[i] = {Path::kMicroflowHit, &e->actions(), 1};
        continue;
      }
    }

    // Full tuple-space search, first match wins (§4.2).
    uint32_t probed = 0;
    MegaflowEntry* e = nullptr;
    for (const MegaflowTuple* t : dir) {
      ++probed;
      if ((e = t->find(pkts[i].key)) != nullptr) break;
    }
    ++sum.megaflow_lookups;
    searched += probed;
    sum.tuples_searched += probed;
    if (e != nullptr) {
      ++mega_hits;
      if (emc) emc_insert(s, hashes[i], e, emc_ins, emc_skips);
      entry[i] = e;
      results[i] = {Path::kMegaflowHit, &e->actions(), probed};
    } else {
      ++misses;
      ++sum.misses;
      s.missed.push_back(pkts[i]);
      results[i] = {Path::kMiss, nullptr, probed};
    }
  }

  // Group statistics: one packets/bytes/used update per matched megaflow.
  // Distinct microflows may share a megaflow, so each leader's tally folds
  // into the first leader matching the same entry (pointer compares over
  // the leader list only), which then credits the whole group.
  const size_t n_heads = fold_leader_tallies(entry, leaders, n_leaders,
                                             tally_pkts, tally_bytes);
  sum.groups += static_cast<uint32_t>(n_heads);
  const bool shared = shards_.size() > 1;
  for (size_t l = 0; l < n_heads; ++l) {
    const size_t j = leaders[l];
    entry[j]->bump(tally_pkts[j], tally_bytes[j], now_ns, shared);
    // An offload-absorbed group also credits its NIC slot's counters (one
    // slot per megaflow, so the group's first leader identifies it).
    if (const OffloadTable::Entry* oe = offl[j]) {
      oe->counters->hits.fetch_add(tally_pkts[j], std::memory_order_relaxed);
      oe->counters->bytes.fetch_add(tally_bytes[j],
                                    std::memory_order_relaxed);
    }
  }

  add(s.packets, n);
  add(s.offload_hits, off_hits);
  add(s.microflow_hits, micro_hits);
  add(s.megaflow_hits, mega_hits);
  add(s.misses, misses);
  add(s.stale_microflow_hits, stale);
  add(s.tuples_searched, searched);
  add(s.emc_inserts, emc_ins);
  add(s.emc_insert_skips, emc_skips);
}

void Datapath::process_batch(size_t worker, std::span<const Packet> pkts,
                             uint64_t now_ns, RxResult* results,
                             BatchSummary* summary) {
  assert(worker < shards_.size());
  Shard& s = *shards_[worker];
  claim(s);
  process_claimed(s, pkts, now_ns, results, summary);
  release(s);
}

void Datapath::process_claimed(Shard& s, std::span<const Packet> pkts,
                               uint64_t now_ns, RxResult* results,
                               BatchSummary* summary) {
  BatchSummary local;
  for (size_t off = 0; off < pkts.size(); off += kMaxBatch) {
    const size_t n = std::min(kMaxBatch, pkts.size() - off);
    process_chunk(s, pkts.data() + off, n, now_ns, results + off, local);
  }
  if (!s.missed.empty()) flush_upcalls(s.missed);
  if (summary != nullptr) *summary += local;
}

// --- Upcalls -----------------------------------------------------------------

void Datapath::deliver_locked(Packet&& pkt) {
  if (sink_) {
    if (!sink_(std::move(pkt))) ++upcall_stats_.upcall_drops;
    return;
  }
  if (upcalls_.size() >= cfg_.max_upcall_queue) {
    ++upcall_stats_.upcall_drops;
  } else {
    upcalls_.push_back(std::move(pkt));
  }
}

void Datapath::flush_upcalls(std::vector<Packet>& missed) {
  FaultInjector* fault = fault_;
  std::lock_guard<std::mutex> lk(upcall_mu_);
  for (Packet& p : missed) {
    if (fault != nullptr) {
      if (fault->should_fire(FaultPoint::kUpcallDrop)) {
        ++upcall_stats_.upcall_drops;
        continue;
      }
      if (fault->should_fire(FaultPoint::kUpcallDelay)) {
        ++upcall_stats_.upcalls_delayed;
        delayed_.push_back(std::move(p));
        continue;
      }
      if (fault->should_fire(FaultPoint::kUpcallDuplicate)) {
        ++upcall_stats_.upcall_dup_enqueues;
        deliver_locked(Packet(p));  // copy: the original follows
      }
    }
    deliver_locked(std::move(p));
  }
  missed.clear();
}

size_t Datapath::flush_delayed_upcalls() {
  std::lock_guard<std::mutex> lk(upcall_mu_);
  const size_t n = delayed_.size();
  for (Packet& p : delayed_) deliver_locked(std::move(p));
  delayed_.clear();
  return n;
}

size_t Datapath::delayed_upcall_count() const {
  std::lock_guard<std::mutex> lk(upcall_mu_);
  return delayed_.size();
}

std::vector<Packet> Datapath::take_upcalls(size_t max_batch) {
  std::vector<Packet> out;
  {
    std::lock_guard<std::mutex> lk(upcall_mu_);
    const size_t n = std::min(max_batch, upcalls_.size());
    out.reserve(n);
    for (size_t i = 0; i < n; ++i) {
      out.push_back(std::move(upcalls_.front()));
      upcalls_.pop_front();
    }
  }
  // Delay-faulted upcalls arrive one handler round late: they become
  // visible after the round that drained the queue.
  flush_delayed_upcalls();
  return out;
}

size_t Datapath::upcall_queue_depth() const {
  std::lock_guard<std::mutex> lk(upcall_mu_);
  return upcalls_.size();
}

// --- Control path ------------------------------------------------------------

void Datapath::publish_tuples() {
  auto dir = std::make_unique<TupleDir>();
  dir->reserve(tuples_.size());
  for (const auto& t : tuples_) dir->push_back(t.get());
  retired_dirs_.push_back(std::move(dir_current_));
  dir_current_ = std::move(dir);
  dir_view_.store(dir_current_.get(), std::memory_order_release);
}

MegaflowEntry* Datapath::install(const Match& match, DpActions actions,
                                 uint64_t now_ns, const FlowKey* full_key) {
  Match m = match;
  m.normalize();
  const uint64_t mask_hash = flow_mask_hash(m.mask);
  MegaflowTuple* const* found = tuple_by_mask_.find(
      mask_hash, [&](const MegaflowTuple* tp) { return tp->mask == m.mask; });
  MegaflowTuple* t = found != nullptr ? *found : nullptr;

  // Duplicates first: a re-install of an existing flow returns it, whatever
  // the faults or the cap would have said about a fresh one.
  MegaflowEntry* head = nullptr;
  uint64_t key = 0;
  if (t != nullptr) {
    key = t->key_of(m.key);
    uint64_t v = 0;
    if (t->table.find(key, &v)) head = reinterpret_cast<MegaflowEntry*>(v);
    for (MegaflowEntry* e = head; e != nullptr;
         e = e->hash_next_.load(std::memory_order_relaxed)) {
      if (!e->dead() && e->match().key == m.key) return e;
    }
  }
  if (fault_ != nullptr) {
    if (fault_->should_fire(FaultPoint::kInstallTableFull)) {
      ++ctl_stats_.install_fail_full;
      return nullptr;
    }
    if (fault_->should_fire(FaultPoint::kInstallTransient)) {
      ++ctl_stats_.install_fail_transient;
      return nullptr;
    }
  }
  if (cfg_.max_flows != 0 && flow_count() >= cfg_.max_flows) {
    ++ctl_stats_.install_fail_full;
    return nullptr;
  }

  bool fresh_tuple = false;
  if (t == nullptr) {
    tuples_.push_back(std::make_unique<MegaflowTuple>(m.mask));
    t = tuples_.back().get();
    tuple_by_mask_.insert(mask_hash, t);
    key = t->key_of(m.key);
    fresh_tuple = true;
  }
  auto owned = std::unique_ptr<MegaflowEntry>(new MegaflowEntry(m));
  MegaflowEntry* e = owned.get();
  e->full_key_ = full_key != nullptr ? *full_key : m.key;
  e->actions_.store(new DpActions(std::move(actions)),
                    std::memory_order_relaxed);
  e->created_ns_ = now_ns;
  e->used_ns_.store(now_ns, std::memory_order_relaxed);
  e->hash_ = key;
  e->tuple_ = t;
  e->hash_next_.store(head, std::memory_order_relaxed);
  e->index_ = entries_.size();
  entries_.push_back(std::move(owned));

  // Single release-ordered publication point: the cuckoo insert. A reader
  // that sees the new head sees a fully built entry (seqlock release/acquire
  // pairing inside CuckooMap64). A new tuple is published after its first
  // entry, at the end of the search order.
  t->table.insert(key, reinterpret_cast<uint64_t>(e));
  ++t->n_rules;
  if (fresh_tuple) publish_tuples();
  return e;
}

void Datapath::remove(MegaflowEntry* entry) {
  assert(!entry->dead());
  // Shadow coherence (§13): a megaflow may not die while its NIC copy keeps
  // forwarding. Evicting here covers every deletion path — revalidator
  // idle/stale deletes, hard eviction, quarantine — in the same step; the
  // workers' view follows at the republish purge_dead() performs before it
  // frees this entry.
  if (off_ != nullptr && off_->evict(entry)) off_dirty_ = true;
  // Dead first: readers that still reach the entry (via a chain they are
  // mid-walk on, a retired cuckoo snapshot, or an EMC slot) skip it from
  // here on.
  entry->dead_.store(true, std::memory_order_release);

  MegaflowTuple* t = entry->tuple_;
  uint64_t v = 0;
  if (t->table.find(entry->hash_, &v)) {
    auto* head = reinterpret_cast<MegaflowEntry*>(v);
    MegaflowEntry* next = entry->hash_next_.load(std::memory_order_relaxed);
    if (head == entry) {
      if (next != nullptr) {
        t->table.insert(entry->hash_, reinterpret_cast<uint64_t>(next));
      } else {
        t->table.erase(entry->hash_);
      }
    } else {
      for (MegaflowEntry* p = head; p != nullptr;
           p = p->hash_next_.load(std::memory_order_relaxed)) {
        if (p->hash_next_.load(std::memory_order_relaxed) == entry) {
          // entry->hash_next_ is never cleared, so a reader paused on the
          // unlinked entry still walks out to the chain's live tail.
          p->hash_next_.store(next, std::memory_order_release);
          break;
        }
      }
    }
  }
  if (--t->n_rules == 0) {
    // An empty tuple leaves the search order at once (later masks move up
    // one place); readers mid-batch may still probe it until the next
    // grace period.
    tuple_by_mask_.erase(flow_mask_hash(t->mask),
                         [&](const MegaflowTuple* tp) { return tp == t; });
    auto it = std::find_if(tuples_.begin(), tuples_.end(),
                           [&](const auto& up) { return up.get() == t; });
    retired_tuples_.push_back(std::move(*it));
    tuples_.erase(it);
    publish_tuples();
  }

  const size_t i = entry->index_;
  assert(i < entries_.size() && entries_[i].get() == entry);
  graveyard_.push_back(std::move(entries_[i]));
  if (i + 1 != entries_.size()) {
    entries_[i] = std::move(entries_.back());
    entries_[i]->index_ = i;
  }
  entries_.pop_back();
}

void Datapath::credit_packet(MegaflowEntry* entry, const Packet& pkt,
                             uint64_t now_ns) noexcept {
  if (shards_.size() > 1) {
    entry->bump(1, pkt.size_bytes, now_ns, /*shared=*/true);
    return;
  }
  // One worker: statistics are single-writer under shard 0's claim.
  claim(*shards_[0]);
  entry->bump(1, pkt.size_bytes, now_ns, /*shared=*/false);
  release(*shards_[0]);
}

void Datapath::swap_actions(MegaflowEntry* e, DpActions actions) {
  const auto* fresh = new DpActions(std::move(actions));
  // A worker mid-batch may still be executing the old list; retire it until
  // the next grace period.
  retired_actions_.emplace_back(
      e->actions_.exchange(fresh, std::memory_order_acq_rel));
}

void Datapath::update_actions(MegaflowEntry* entry, DpActions actions) {
  swap_actions(entry, std::move(actions));
  // Reprogram the NIC copy in the same step (revalidator repair, §13).
  if (off_ != nullptr && off_->sync_actions(entry, entry->actions()))
    off_dirty_ = true;
}

void Datapath::corrupt_entry(size_t idx) {
  if (entries_.empty()) return;
  // A recognizably bogus action list: forward to a port that exists
  // nowhere. The flow misbehaves until a revalidator pass re-translates it.
  DpActions bogus;
  bogus.output(0xDEAD);
  swap_actions(entries_[idx % entries_.size()].get(), std::move(bogus));
  ++ctl_stats_.entries_corrupted;
}

void Datapath::expire_entry(size_t idx) {
  if (entries_.empty()) return;
  entries_[idx % entries_.size()]->used_ns_.store(0,
                                                  std::memory_order_relaxed);
  ++ctl_stats_.entries_expired;
}

void Datapath::purge_dead() {
  // Republish the offload view BEFORE the grace period: once every shard
  // was claimed, no worker can still probe a view naming an entry this call
  // is about to free.
  if (off_dirty_) publish_offload();
  const bool grown = std::any_of(
      tuples_.begin(), tuples_.end(),
      [](const auto& t) { return t->table.retired_tables() != 0; });
  if (graveyard_.empty() && retired_actions_.empty() && retired_off_.empty() &&
      retired_dirs_.empty() && !grown)
    return;
  // Claiming a shard waits out its batch in flight; sweeping it while held
  // clears the EMC pointers to dead entries before they are freed.
  for (const auto& sp : shards_) {
    claim(*sp);
    if (!graveyard_.empty()) {
      for (MicroSlot& slot : sp->emc)
        if (slot.entry != nullptr && slot.entry->dead()) slot.entry = nullptr;
    }
    release(*sp);
  }
  graveyard_.clear();
  retired_actions_.clear();
  retired_off_.clear();
  retired_dirs_.clear();
  retired_tuples_.clear();
  for (const auto& t : tuples_) t->table.free_retired();
}

std::vector<MegaflowEntry*> Datapath::dump() const {
  std::vector<MegaflowEntry*> out;
  out.reserve(entries_.size());
  for (const auto& e : entries_) out.push_back(e.get());
  return out;
}

// --- Offload tier ------------------------------------------------------------

void Datapath::publish_offload() {
  retired_off_.push_back(std::move(off_current_));
  off_current_ = off_->clone();
  off_view_.store(off_current_.get(), std::memory_order_release);
  off_dirty_ = false;
}

bool Datapath::offload_install(MegaflowEntry* e, uint64_t now_ns) {
  if (off_ == nullptr || !off_->install(e->match(), e->actions(), e, now_ns))
    return false;
  off_dirty_ = true;
  return true;
}

bool Datapath::offload_evict(const MegaflowEntry* e) {
  if (off_ == nullptr || !off_->evict(e)) return false;
  off_dirty_ = true;
  return true;
}

void Datapath::offload_commit() {
  if (off_ != nullptr && off_dirty_) publish_offload();
}

bool Datapath::offload_corrupt(size_t idx, OffloadTable::Corruption kind) {
  if (off_ == nullptr || !off_->corrupt(idx, kind)) return false;
  off_dirty_ = true;
  return true;
}

// --- Introspection -----------------------------------------------------------

Datapath::Stats Datapath::stats() const {
  Stats s = ctl_stats_;
  {
    std::lock_guard<std::mutex> lk(upcall_mu_);
    s.upcall_drops = upcall_stats_.upcall_drops;
    s.upcalls_delayed = upcall_stats_.upcalls_delayed;
    s.upcall_dup_enqueues = upcall_stats_.upcall_dup_enqueues;
  }
  for (const auto& sp : shards_) {
    s.packets += sp->packets.load(std::memory_order_relaxed);
    s.offload_hits += sp->offload_hits.load(std::memory_order_relaxed);
    s.microflow_hits += sp->microflow_hits.load(std::memory_order_relaxed);
    s.megaflow_hits += sp->megaflow_hits.load(std::memory_order_relaxed);
    s.misses += sp->misses.load(std::memory_order_relaxed);
    s.stale_microflow_hits +=
        sp->stale_microflow_hits.load(std::memory_order_relaxed);
    s.tuples_searched += sp->tuples_searched.load(std::memory_order_relaxed);
    s.emc_inserts += sp->emc_inserts.load(std::memory_order_relaxed);
    s.emc_insert_skips +=
        sp->emc_insert_skips.load(std::memory_order_relaxed);
  }
  return s;
}

void Datapath::reset_stats() noexcept {
  ctl_stats_ = Stats{};
  {
    std::lock_guard<std::mutex> lk(upcall_mu_);
    upcall_stats_ = Stats{};
  }
  for (const auto& sp : shards_) {
    for (std::atomic<uint64_t>* c :
         {&sp->packets, &sp->offload_hits, &sp->microflow_hits,
          &sp->megaflow_hits, &sp->misses, &sp->stale_microflow_hits,
          &sp->tuples_searched, &sp->emc_inserts, &sp->emc_insert_skips})
      c->store(0, std::memory_order_relaxed);
  }
}

size_t Datapath::emc_dangling_hints() const {
  std::unordered_set<const MegaflowEntry*> known;
  known.reserve(entries_.size() + graveyard_.size());
  for (const auto& e : entries_) known.insert(e.get());
  for (const auto& e : graveyard_) known.insert(e.get());
  size_t dangling = 0;
  for (const auto& sp : shards_)
    for (const MicroSlot& slot : sp->emc)
      if (slot.entry != nullptr && known.count(slot.entry) == 0) ++dangling;
  return dangling;
}

// --- Worker pool -------------------------------------------------------------

void Datapath::start() {
  if (started_) return;
  threads_.clear();
  for (size_t w = 0; w < shards_.size(); ++w)
    threads_.push_back(std::make_unique<WorkerThread>());
  started_ = true;
  for (size_t w = 0; w < shards_.size(); ++w)
    threads_[w]->th = std::thread([this, w] { worker_loop(w); });
}

void Datapath::stop() {
  if (!started_) return;
  for (const auto& t : threads_) {
    {
      std::lock_guard<std::mutex> lk(t->mu);
      t->stopping = true;
    }
    t->cv.notify_all();
  }
  for (const auto& t : threads_)
    if (t->th.joinable()) t->th.join();
  threads_.clear();
  started_ = false;
}

void Datapath::submit(size_t worker, std::vector<Packet> burst,
                      uint64_t now_ns) {
  assert(started_ && worker < threads_.size());
  WorkerThread& t = *threads_[worker];
  in_flight_.fetch_add(1, std::memory_order_relaxed);
  {
    std::lock_guard<std::mutex> lk(t.mu);
    t.q.emplace_back(std::move(burst), now_ns);
  }
  t.cv.notify_one();
}

void Datapath::drain() {
  while (in_flight_.load(std::memory_order_acquire) != 0)
    std::this_thread::yield();
}

void Datapath::worker_loop(size_t w) {
  WorkerThread& t = *threads_[w];
  Shard& s = *shards_[w];
  std::vector<RxResult> results;
  for (;;) {
    std::pair<std::vector<Packet>, uint64_t> job;
    {
      std::unique_lock<std::mutex> lk(t.mu);
      t.cv.wait(lk, [&] { return t.stopping || !t.q.empty(); });
      if (t.q.empty()) return;  // stopping, queue drained
      job = std::move(t.q.front());
      t.q.pop_front();
    }
    results.resize(job.first.size());
    // The callback runs INSIDE the worker's claim: it reads the RxResult
    // actions pointers, which purge_dead() on the control thread may free
    // as soon as it claims this shard.
    claim(s);
    process_claimed(s, job.first, job.second, results.data(), nullptr);
    if (callback_)
      callback_(w, std::span<const RxResult>(results.data(), results.size()));
    release(s);
    in_flight_.fetch_sub(1, std::memory_order_release);
  }
}

}  // namespace ovs
