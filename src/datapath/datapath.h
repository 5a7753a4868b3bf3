// The simulated kernel datapath (paper §3.1, §4, §6): one priority-less
// megaflow table shared by N forwarding workers, each with its own
// microflow cache in front of it (§4.1: "nonblocking multiple-reader,
// single-writer flow tables" + RCU).
//
// Packet path, per worker:
//   1. microflow cache (EMC) — the worker's own exact-match shard mapping a
//      packet's full-key hash to its megaflow entry ("a hint to the first
//      hash table to search"); pseudo-random replacement; a stale entry is
//      "detected and corrected the first time a packet matches" (§6);
//   2. megaflow cache — a tuple space of per-mask hash tables searched in
//      creation order, terminating on the first match (§4.2); entries are
//      installed by userspace and are disjoint;
//   3. miss — the packet is queued as an *upcall* to userspace (§3.1).
//
// Threading model, mirroring OVS userspace/DPDK forwarding:
//
//   * workers call process_batch() / receive() with their worker id. A
//     worker owns one shard (EMC, insertion RNG, counters), so shards need
//     no synchronization beyond the worker's claim on it. With one worker,
//     the calling thread is that worker.
//   * one *control* thread (the upcall handler / revalidator) calls
//     install / remove / update_actions / purge_dead / dump. Entries become
//     visible with a single release-ordered hash table insert; removal
//     marks the entry dead, unlinks it, and parks it in a graveyard.
//   * grace periods are per-shard claims: a shard's epoch is odd while its
//     worker is inside a batch. purge_dead() claims every shard in turn
//     (waiting out a batch in flight), sweeps the shard's EMC of pointers
//     to dead entries while it holds it, and frees the graveyard only once
//     every shard was swept — so an EMC pointer never reaches freed memory.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <span>
#include <thread>
#include <vector>

#include "datapath/dp_actions.h"
#include "datapath/offload_table.h"
#include "packet/match.h"
#include "packet/packet.h"
#include "util/flat_hash.h"
#include "util/rng.h"

namespace ovs {

class FaultInjector;
class MegaflowTuple;  // one per-mask hash table (datapath.cc)

// An installed datapath flow. The match is immutable after construction;
// actions are swapped atomically (RCU: the old list is retired, not freed);
// statistics are relaxed atomics bumped by workers.
class MegaflowEntry {
 public:
  const Match& match() const noexcept { return match_; }
  // The reference stays valid until the flow's next update_actions()
  // followed by a purge_dead() (readers keep the list they loaded).
  const DpActions& actions() const noexcept {
    return *actions_.load(std::memory_order_acquire);
  }

  // Full-fidelity key of the packet that created this flow (the udpif key in
  // real OVS). match().key is pre-masked, so re-translating it is lossy:
  // fields the stale mask wildcards read as zero and the classifier can
  // reproduce the stale mask from its own artifact. Revalidation and restart
  // reconciliation must translate this key instead.
  const FlowKey& full_key() const noexcept { return full_key_; }

  uint64_t packets() const noexcept {
    return packets_.load(std::memory_order_relaxed);
  }
  uint64_t bytes() const noexcept {
    return bytes_.load(std::memory_order_relaxed);
  }
  uint64_t used_ns() const noexcept {
    return used_ns_.load(std::memory_order_relaxed);
  }
  uint64_t created_ns() const noexcept { return created_ns_; }
  bool dead() const noexcept { return dead_.load(std::memory_order_acquire); }

  // Userspace annotation: Bloom tags of the soft state this flow's actions
  // depend on (the historical tag-based invalidation scheme of §6, kept as
  // an ablation). The datapath itself never reads this.
  uint64_t tags = 0;

  ~MegaflowEntry() { delete actions_.load(std::memory_order_relaxed); }

 private:
  friend class Datapath;
  friend class MegaflowTuple;

  explicit MegaflowEntry(Match m) : match_(std::move(m)) {}

  // `shared`: several workers may bump concurrently, so the counters need
  // RMWs. Otherwise every writer holds shard 0's claim and a relaxed
  // load + store suffices (the hot path of a one-worker datapath).
  void bump(uint64_t pkts, uint64_t byts, uint64_t now_ns,
            bool shared) noexcept {
    uint64_t cur = used_ns_.load(std::memory_order_relaxed);
    if (!shared) {
      packets_.store(packets_.load(std::memory_order_relaxed) + pkts,
                     std::memory_order_relaxed);
      bytes_.store(bytes_.load(std::memory_order_relaxed) + byts,
                   std::memory_order_relaxed);
      if (cur < now_ns) used_ns_.store(now_ns, std::memory_order_relaxed);
      return;
    }
    packets_.fetch_add(pkts, std::memory_order_relaxed);
    bytes_.fetch_add(byts, std::memory_order_relaxed);
    // Monotone max: concurrent workers may carry different virtual clocks.
    while (cur < now_ns && !used_ns_.compare_exchange_weak(
                               cur, now_ns, std::memory_order_relaxed)) {
    }
  }

  // Fast-path fields first, so a hit touches one cache line before the key.
  std::atomic<bool> dead_{false};
  std::atomic<const DpActions*> actions_{nullptr};
  std::atomic<MegaflowEntry*> hash_next_{nullptr};  // same-tuple collision
  std::atomic<uint64_t> packets_{0};
  std::atomic<uint64_t> bytes_{0};
  std::atomic<uint64_t> used_ns_{0};
  const Match match_;
  FlowKey full_key_;  // set by the writer before the publication point
  uint64_t created_ns_ = 0;
  uint64_t hash_ = 0;  // cuckoo key in the owning tuple (writer bookkeeping)
  MegaflowTuple* tuple_ = nullptr;  // owning tuple (writer bookkeeping)
  size_t index_ = 0;  // position in Datapath::entries_ (swap-remove)
};

namespace dpdefault {

// Miss queue to userspace (upcalls beyond this are dropped, ENOBUFS-style).
inline constexpr size_t kMaxUpcallQueue = 4096;
// Microflow cache shape, per worker: ways * sets slots.
inline constexpr size_t kEmcWays = 2;
inline constexpr size_t kEmcSets = 4096;
// Seed for pseudo-random EMC replacement / probabilistic insertion (§6).
inline constexpr uint64_t kDpSeed = 0xDA7A;

}  // namespace dpdefault

struct DatapathConfig {
  // Forwarding workers (PMD threads, §4.1), each with its own EMC shard.
  size_t n_workers = 1;
  bool microflow_enabled = true;      // first-level exact-match cache (§4.2)
  size_t microflow_ways = dpdefault::kEmcWays;  // associativity
  size_t microflow_sets = dpdefault::kEmcSets;  // slots = ways * sets
  size_t max_upcall_queue = dpdefault::kMaxUpcallQueue;  // miss queue
  // Kernel flow-table hard cap: install() fails (returns nullptr) at this
  // many live flows. 0 = unbounded; the dynamic flow limit (§6) is enforced
  // by userspace eviction, this models the kernel's own ENOSPC.
  size_t max_flows = 0;
  // Probabilistic EMC insertion (the §7.3-style mitigation for microflow
  // churn, OVS's emc-insert-inv-prob): insert a missed microflow into the
  // EMC with probability 1/N. 1 = always insert.
  uint32_t emc_insert_inv_prob = 1;
  // Simulated NIC offload table capacity (DESIGN.md §13). 0 disables the
  // tier entirely: no table is allocated and the packet path is bit-for-bit
  // the two-level EMC -> megaflow hierarchy.
  size_t offload_slots = 0;
  // Pseudo-random replacement (§6). Shard 0 draws from this seed; the other
  // shards from sub-seeds, so worker streams stay independent.
  uint64_t seed = dpdefault::kDpSeed;
};

class Datapath {
 public:
  explicit Datapath(DatapathConfig cfg = {});
  ~Datapath();

  Datapath(const Datapath&) = delete;
  Datapath& operator=(const Datapath&) = delete;

  enum class Path : uint8_t {
    kOffloadHit,  // NIC offload slot (DESIGN.md §13); never reaches the CPU
    kMicroflowHit,
    kMegaflowHit,
    kMiss,
  };

  struct RxResult {
    Path path = Path::kMiss;
    const DpActions* actions = nullptr;  // null on miss
    uint32_t tuples_searched = 0;        // megaflow hash tables probed
  };

  // --- Worker fast path (thread `worker`) ----------------------------------

  // Processes one received packet on `worker` at (virtual) time now_ns. On
  // a miss the packet is queued for userspace (or dropped if the queue is
  // full). Same outcome as a one-packet process_batch().
  RxResult receive(const Packet& pkt, uint64_t now_ns, size_t worker = 0);

  static constexpr size_t kMaxBatch = 256;  // internal chunking granularity

  // Aggregate description of what one burst actually cost, for callers that
  // model CPU cycles (sim/cost_model.h): probes are counted after
  // deduplication, so emc_probes <= packets and megaflow_lookups counts
  // only the burst's unique microflows that missed the EMC.
  struct BatchSummary {
    uint32_t packets = 0;
    uint32_t offload_probes = 0;    // NIC table probes after dedup
    uint32_t offload_hits = 0;      // packets absorbed by the NIC tier
    uint32_t emc_probes = 0;        // EMC probes after intra-burst dedup
    uint32_t megaflow_lookups = 0;  // classifier searches (dedup leaders)
    uint32_t tuples_searched = 0;   // megaflow hash tables probed
    uint32_t groups = 0;            // distinct megaflows matched
    uint32_t misses = 0;            // packets upcalled (or dropped)

    void operator+=(const BatchSummary& o) noexcept {
      packets += o.packets;
      offload_probes += o.offload_probes;
      offload_hits += o.offload_hits;
      emc_probes += o.emc_probes;
      megaflow_lookups += o.megaflow_lookups;
      tuples_searched += o.tuples_searched;
      groups += o.groups;
      misses += o.misses;
    }
  };

  // Processes a burst of packets sharing one (virtual) timestamp on
  // `worker`. Per-packet outcomes land in results[0..pkts.size()). Compared
  // to calling receive() per packet this computes each flow-key hash once,
  // probes the EMC once per unique microflow in the burst, searches the
  // megaflow table once per unique microflow that missed the EMC, bumps
  // megaflow statistics once per matched megaflow, and appends all misses
  // to the upcall queue in arrival order. Per-packet actions, upcalls, and
  // flow statistics are identical to the sequential path (asserted by
  // BatchEquivalence); only the cumulative tuples_searched counter differs
  // because deduplicated packets never physically probe a table. The whole
  // call is one read-side critical section: RxResult::actions pointers stay
  // valid until the control thread's next purge_dead().
  void process_batch(size_t worker, std::span<const Packet> pkts,
                     uint64_t now_ns, RxResult* results,
                     BatchSummary* summary = nullptr);
  void process_batch(std::span<const Packet> pkts, uint64_t now_ns,
                     RxResult* results, BatchSummary* summary = nullptr) {
    process_batch(0, pkts, now_ns, results, summary);
  }

  // --- Userspace-facing flow table API (control thread) --------------------

  // Installs a flow. Duplicate masked keys are rejected (returns the
  // existing entry and does not install) because userspace keeps megaflows
  // disjoint (§4.2). Returns nullptr when the install *fails*: the table is
  // at cfg.max_flows, or an injected table-full/transient fault fired —
  // callers must treat the miss as unresolved (retry or drop).
  // full_key, when given, is the unmasked key of the packet that triggered
  // the install; it is stored on the entry for full-fidelity revalidation.
  // Defaults to match.key (already masked) for callers that install
  // synthetic flows directly.
  MegaflowEntry* install(const Match& match, DpActions actions,
                         uint64_t now_ns,
                         const FlowKey* full_key = nullptr);

  // Marks dead, unlinks, and parks the entry; freed by purge_dead().
  void remove(MegaflowEntry* entry);

  // RCU actions swap (revalidation, §6): readers mid-batch keep executing
  // the old list, which is retired until the next grace period.
  void update_actions(MegaflowEntry* entry, DpActions actions);

  // Credits a packet that userspace forwarded on the flow's behalf (the
  // miss packet executed during flow setup) to the entry's statistics.
  void credit_packet(MegaflowEntry* entry, const Packet& pkt,
                     uint64_t now_ns) noexcept;

  // Grace period: claims every shard once (sweeping its EMC of dead
  // entries), then frees removed entries, retired action lists, tuples and
  // cuckoo arrays. Also publishes pending offload changes.
  void purge_dead();

  // Snapshot of all live entries, for revalidation and stats polling.
  std::vector<MegaflowEntry*> dump() const;

  size_t flow_count() const noexcept { return entries_.size(); }
  size_t mask_count() const noexcept { return tuples_.size(); }
  size_t n_workers() const noexcept { return shards_.size(); }

  // Drains up to max_batch queued upcalls, then releases any fault-delayed
  // upcalls into the queue (they arrive one round late).
  std::vector<Packet> take_upcalls(size_t max_batch);
  size_t upcall_queue_depth() const;

  // Miss-path sink: when set, upcalls are handed to the sink instead of the
  // internal queue (the vswitchd bounded fair-queue path). A sink returning
  // false refuses the upcall; the refusal is counted as a drop here. The
  // sink is invoked under the upcall lock — concurrent worker flushes are
  // serialized through it, so the sink itself need not be thread-safe, but
  // it must not call back into this datapath's upcall API. Set it before
  // workers start streaming.
  using UpcallSink = std::function<bool(Packet&&)>;
  void set_upcall_sink(UpcallSink sink) {
    std::lock_guard<std::mutex> lk(upcall_mu_);
    sink_ = std::move(sink);
  }

  // --- Fault-injection surface ---------------------------------------------

  // Non-owning; nullptr disables injection. Consulted at upcall flush
  // (drop / delay / duplicate) and at install (table-full / transient).
  // FaultInjector is internally synchronized, so worker flushes may consult
  // it concurrently.
  void set_fault_injector(FaultInjector* f) noexcept { fault_ = f; }

  // Releases upcalls parked by the delay fault (to the sink/queue, where
  // they may still be refused). Returns the number released.
  size_t flush_delayed_upcalls();
  size_t delayed_upcall_count() const;

  // Scrambles the idx-th live entry's actions (modulo flow_count) via the
  // RCU swap, leaving any offloaded copy alone. The revalidator repairs it
  // on its next full pass — the convergence property the fault-injection
  // tests assert.
  void corrupt_entry(size_t idx);
  // Zeroes the idx-th live entry's last-used time so idle expiry reaps it.
  void expire_entry(size_t idx);

  // Runtime policy knob (graceful degradation under EMC thrash), reflected
  // in config(). Workers pick the new probability up on their next
  // insertion attempt.
  void set_emc_insert_inv_prob(uint32_t inv) noexcept {
    cfg_.emc_insert_inv_prob = inv == 0 ? 1 : inv;
    emc_insert_inv_prob_.store(cfg_.emc_insert_inv_prob,
                               std::memory_order_relaxed);
  }

  // --- Simulated NIC offload tier (control thread; DESIGN.md §13) ----------
  //
  // Placement policy (which megaflows earn a slot) lives in vswitchd; the
  // datapath's own responsibility is shadow coherence: remove() evicts the
  // owner's slot and update_actions() rewrites its action snapshot, so any
  // revalidation/reconciliation pass that touches a megaflow repairs its
  // offloaded copy in the same step.
  //
  // The control thread owns a *master* table and publishes immutable clones
  // to workers through an atomic pointer (the same RCU discipline as
  // actions): slot changes become visible to the fast path at the next
  // offload_commit() or purge_dead(). Per-slot counters are shared across
  // clones so no hit is lost.

  // Authoritative (master) table, or nullptr when the tier is off.
  const OffloadTable* offload() const noexcept { return off_.get(); }
  // Programs a slot with a copy of e's match and actions. False when the
  // tier is off, the table is full, or e already holds a slot.
  bool offload_install(MegaflowEntry* e, uint64_t now_ns);
  bool offload_evict(const MegaflowEntry* e);
  // Publishes the master to workers if it changed since the last publish.
  void offload_commit();
  bool offload_corrupt(size_t idx, OffloadTable::Corruption kind);

  struct Stats {
    uint64_t packets = 0;
    uint64_t offload_hits = 0;      // absorbed by the NIC tier (§13)
    uint64_t microflow_hits = 0;
    uint64_t megaflow_hits = 0;
    uint64_t misses = 0;
    uint64_t upcall_drops = 0;          // queue overflow, sink refusal, fault
    uint64_t stale_microflow_hits = 0;  // corrected on first use (§6)
    uint64_t tuples_searched = 0;       // total megaflow tables probed
    uint64_t emc_inserts = 0;           // microflow entries installed
    uint64_t emc_insert_skips = 0;      // skipped by probabilistic insertion
    uint64_t install_fail_full = 0;     // install rejected: table full
    uint64_t install_fail_transient = 0;  // install rejected: transient fault
    uint64_t upcall_dup_enqueues = 0;   // extra deliveries (duplicate fault)
    uint64_t upcalls_delayed = 0;       // parked by the delay fault
    uint64_t entries_corrupted = 0;
    uint64_t entries_expired = 0;
  };
  Stats stats() const;  // control thread; shard counters summed
  // Control thread, workers quiescent.
  void reset_stats() noexcept;

  // Invariant-checker hook (datapath/dp_check.h): EMC pointers that no
  // longer resolve to a live or parked (graveyard) megaflow. Pointers to
  // dead entries awaiting purge are legal (§6 corrects them on first use),
  // but a pointer outside entries_ + graveyard_ would be dereferenced blind
  // on the fast path, so any such pointer is a coherence violation. Control
  // thread, workers quiescent.
  size_t emc_dangling_hints() const;

  const DatapathConfig& config() const noexcept { return cfg_; }

  // --- Optional built-in worker pool (for benches and stress tests) --------
  //
  // start() spawns cfg.n_workers threads; submit() hands worker `w` a burst;
  // drain() blocks until every queued burst has been processed. Results are
  // delivered to the callback (from the worker thread, inside its read-side
  // critical section, so it must not call purge_dead()) or dropped if none
  // is set.
  using BatchCallback =
      std::function<void(size_t worker, std::span<const RxResult>)>;
  void set_batch_callback(BatchCallback cb) { callback_ = std::move(cb); }
  void start();
  void stop();
  void submit(size_t worker, std::vector<Packet> burst, uint64_t now_ns);
  void drain();

 private:
  // The tuples workers search, in creation order. Immutable once
  // published; a new or emptied mask publishes a fresh copy.
  using TupleDir = std::vector<const MegaflowTuple*>;

  struct MicroSlot {
    uint64_t hash = 0;
    MegaflowEntry* entry = nullptr;
  };

  struct alignas(64) Shard {
    // Odd while the shard is claimed: by its worker for a batch, or by
    // purge_dead() for a sweep.
    std::atomic<uint64_t> epoch{0};
    std::vector<MicroSlot> emc;  // inline set-associative microflow cache
    Rng rng{0};                  // replacement and insertion draws
    std::vector<Packet> missed;  // upcall scratch, flushed once per batch
    // Owner-written counters (one writer each), summed by stats().
    std::atomic<uint64_t> packets{0};
    std::atomic<uint64_t> offload_hits{0};
    std::atomic<uint64_t> microflow_hits{0};
    std::atomic<uint64_t> megaflow_hits{0};
    std::atomic<uint64_t> misses{0};
    std::atomic<uint64_t> stale_microflow_hits{0};
    std::atomic<uint64_t> tuples_searched{0};
    std::atomic<uint64_t> emc_inserts{0};
    std::atomic<uint64_t> emc_insert_skips{0};
  };

  struct WorkerThread {
    std::thread th;
    std::mutex mu;
    std::condition_variable cv;
    std::deque<std::pair<std::vector<Packet>, uint64_t>> q;
    bool stopping = false;
  };

  static void claim(Shard& s) noexcept;
  static void release(Shard& s) noexcept {
    s.epoch.store(s.epoch.load(std::memory_order_relaxed) + 1,
                  std::memory_order_release);
  }

  MegaflowEntry* emc_lookup(Shard& s, const FlowKey& key, uint64_t hash,
                            uint64_t& stale) const noexcept;
  void emc_insert(Shard& s, uint64_t hash, MegaflowEntry* e,
                  uint64_t& inserts, uint64_t& skips) noexcept;
  // Body of process_batch, for callers that already hold the shard.
  void process_claimed(Shard& s, std::span<const Packet> pkts,
                       uint64_t now_ns, RxResult* results,
                       BatchSummary* summary);
  void process_chunk(Shard& s, const Packet* pkts, size_t n, uint64_t now_ns,
                     RxResult* results, BatchSummary& sum);
  void flush_upcalls(std::vector<Packet>& missed);
  // Hands one upcall to the sink or the bounded queue. Requires upcall_mu_.
  void deliver_locked(Packet&& pkt);

  void swap_actions(MegaflowEntry* e, DpActions actions);
  void publish_tuples();
  // Clones the master, swings off_view_, retires the old clone (freed by
  // purge_dead after the next grace period). Control thread only.
  void publish_offload();
  void worker_loop(size_t w);

  DatapathConfig cfg_;
  std::atomic<uint32_t> emc_insert_inv_prob_{1};
  std::vector<std::unique_ptr<Shard>> shards_;

  // Tuple space: owned tuples (control), the directory workers read, and
  // directories/tuples retired but not yet past a grace period.
  std::vector<std::unique_ptr<MegaflowTuple>> tuples_;
  HashBuckets<MegaflowTuple*> tuple_by_mask_;
  std::unique_ptr<const TupleDir> dir_current_;
  std::atomic<const TupleDir*> dir_view_{nullptr};
  std::vector<std::unique_ptr<const TupleDir>> retired_dirs_;
  std::vector<std::unique_ptr<MegaflowTuple>> retired_tuples_;

  // Control-side bookkeeping.
  std::vector<std::unique_ptr<MegaflowEntry>> entries_;
  std::vector<std::unique_ptr<MegaflowEntry>> graveyard_;
  std::vector<std::unique_ptr<const DpActions>> retired_actions_;
  Stats ctl_stats_;  // install failures, corruptions, expiries

  // Offload tier: master (control thread), the published clone workers
  // probe, and clones retired but not yet past a grace period.
  std::unique_ptr<OffloadTable> off_;
  std::unique_ptr<const OffloadTable> off_current_;
  std::atomic<const OffloadTable*> off_view_{nullptr};
  std::vector<std::unique_ptr<const OffloadTable>> retired_off_;
  bool off_dirty_ = false;

  // Shared upcall queue (one lock per burst flush). The optional sink is
  // invoked under the same lock, serializing concurrent worker flushes.
  mutable std::mutex upcall_mu_;
  std::deque<Packet> upcalls_;
  std::vector<Packet> delayed_;  // delay-fault parking lot
  UpcallSink sink_;
  Stats upcall_stats_;  // drops, delays, duplicates (under upcall_mu_)
  FaultInjector* fault_ = nullptr;

  // Worker pool.
  std::vector<std::unique_ptr<WorkerThread>> threads_;
  std::atomic<size_t> in_flight_{0};
  bool started_ = false;
  BatchCallback callback_;
};

}  // namespace ovs
