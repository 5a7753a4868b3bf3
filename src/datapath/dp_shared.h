// Defaults and burst helpers shared by both datapath backends (the
// single-threaded `Datapath` and the multi-worker `ShardedDatapath`). Before
// this header each backend carried its own copy of these constants; keeping
// one definition means the two backends stay configured identically by
// default — which the backend-equivalence property tests rely on — and a
// tuning change cannot silently apply to one backend only.
#pragma once

#include <cstddef>
#include <cstdint>

namespace ovs::dpdefault {

// Miss queue to userspace (upcalls beyond this are dropped, ENOBUFS-style).
inline constexpr size_t kMaxUpcallQueue = 4096;

// Exact-match (microflow) cache capacity. The single-threaded datapath
// arranges this as ways * sets; the sharded datapath gives each worker a
// ConcurrentEmc shard of the same total size.
inline constexpr size_t kEmcWays = 2;
inline constexpr size_t kEmcSets = 4096;
inline constexpr size_t kEmcCapacity = kEmcWays * kEmcSets;

// Probabilistic EMC insertion (§7.3, OVS emc-insert-inv-prob): insert a
// missed microflow with probability 1/N. 1 = always insert; the EMC-thrash
// degradation policy raises it at runtime on both backends.
inline constexpr uint32_t kEmcInsertInvProb = 1;

// Seed for pseudo-random EMC replacement / probabilistic insertion (§6).
inline constexpr uint64_t kDpSeed = 0xDA7A;

}  // namespace ovs::dpdefault

namespace ovs {

// Burst statistics, the last step of both backends' process_chunk: folds
// the per-leader packet/byte tallies of a burst into one tally per matched
// megaflow. entry[j] is leader j's matched flow (null on a miss). On return
// leaders[0, result) hold the first leader of each distinct non-null entry,
// in burst order, each carrying its group's totals; the result is the
// number of distinct megaflows matched. Cost is linear in the burst plus
// leaders x distinct megaflows pointer compares.
template <typename Entry>
size_t fold_leader_tallies(Entry* const* entry, uint16_t* leaders,
                           size_t n_leaders, uint32_t* tally_pkts,
                           uint64_t* tally_bytes) noexcept {
  size_t n_heads = 0;
  for (size_t l = 0; l < n_leaders; ++l) {
    const uint16_t j = leaders[l];
    Entry* e = entry[j];
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

}  // namespace ovs
