#include "datapath/dp_check.h"

#include <algorithm>
#include <array>
#include <unordered_map>

#include "packet/flow_key.h"

namespace ovs {

namespace {

using Words = std::array<uint64_t, kFlowWords>;

struct WordsHash {
  size_t operator()(const Words& w) const noexcept {
    uint64_t h = 0xcbf29ce484222325ULL;
    for (uint64_t v : w) {
      h ^= v;
      h *= 0x100000001b3ULL;
    }
    return static_cast<size_t>(h);
  }
};

Words key_words(const FlowWords& k) {
  Words out;
  for (size_t i = 0; i < kFlowWords; ++i) out[i] = k.w[i];
  return out;
}

Words masked_words(const FlowWords& k, const Words& mask) {
  Words out;
  for (size_t i = 0; i < kFlowWords; ++i) out[i] = k.w[i] & mask[i];
  return out;
}

Words common_mask(const Words& a, const Words& b) {
  Words out;
  for (size_t i = 0; i < kFlowWords; ++i) out[i] = a[i] & b[i];
  return out;
}

void note(DpCheckReport& r, const DpCheckConfig& cfg, std::string detail) {
  if (r.details.size() < cfg.max_details) r.details.push_back(std::move(detail));
}

}  // namespace

DpCheckReport run_dp_check(const Datapath& dp, const DpCheckConfig& cfg) {
  DpCheckReport report;
  const std::vector<MegaflowEntry*> flows = dp.dump();
  report.flows_checked = flows.size();

  std::vector<size_t> doomed;  // dump indices to quarantine

  if (cfg.check_disjointness && flows.size() > 1) {
    // Group entries by mask. Within one mask, pre-masked keys either collide
    // exactly (a duplicate the install path should have rejected) or differ
    // in a masked word and are disjoint — so same-mask needs only a key
    // map, and true region intersection can only happen across masks.
    struct Group {
      Words mask;
      std::vector<size_t> idx;  // dump indices, ascending
    };
    std::unordered_map<Words, size_t, WordsHash> group_of;
    std::vector<Group> groups;
    for (size_t i = 0; i < flows.size(); ++i) {
      const Match& m = flows[i]->match();
      const Words mw = key_words(m.mask);
      auto [it, fresh] = group_of.try_emplace(mw, groups.size());
      if (fresh) groups.push_back({mw, {}});
      groups[it->second].idx.push_back(i);
    }

    for (const Group& g : groups) {
      if (g.idx.size() < 2) continue;
      std::unordered_map<Words, size_t, WordsHash> seen;
      for (size_t i : g.idx) {
        const Words kw = key_words(flows[i]->match().key);
        auto [it, fresh] = seen.try_emplace(kw, i);
        if (!fresh) {
          ++report.duplicate_keys;
          doomed.push_back(i);
          note(report, cfg,
               "duplicate masked key: " + flows[i]->match().to_string());
        }
      }
    }

    // Cross-mask: for each mask pair, project group A's keys onto the
    // common mask and probe group B through the same projection. A hit is
    // a packet region both entries claim.
    for (size_t a = 0; a < groups.size(); ++a) {
      for (size_t b = a + 1; b < groups.size(); ++b) {
        ++report.mask_pairs_checked;
        const Words inter = common_mask(groups[a].mask, groups[b].mask);
        std::unordered_map<Words, size_t, WordsHash> proj;
        proj.reserve(groups[a].idx.size());
        for (size_t i : groups[a].idx)
          proj.emplace(masked_words(flows[i]->match().key, inter), i);
        for (size_t j : groups[b].idx) {
          const auto it =
              proj.find(masked_words(flows[j]->match().key, inter));
          if (it == proj.end()) continue;
          const size_t i = it->second;
          const bool same_actions =
              flows[i]->actions() == flows[j]->actions();
          if (same_actions) {
            ++report.benign_overlaps;
            if (!cfg.quarantine_benign_overlaps) continue;
          } else {
            ++report.overlap_violations;
            note(report, cfg,
                 "overlap: " + flows[i]->match().to_string() + " vs " +
                     flows[j]->match().to_string());
          }
          doomed.push_back(std::max(i, j));
        }
      }
    }
  }

  if (cfg.check_emc) {
    report.emc_dangling_hints = dp.emc_dangling_hints();
    if (report.emc_dangling_hints > 0)
      note(report, cfg,
           "emc: " + std::to_string(report.emc_dangling_hints) +
               " dangling hint(s)");
  }

  if (cfg.check_offload && dp.offload() != nullptr) {
    // Shadow coherence (DESIGN.md §13): the offload table holds COPIES, so
    // each slot is checked against its owner — live owner, identical action
    // snapshot, and hits <= owner packets (every slot hit also bumps the
    // owner, so a slot claiming more traffic than its owner ever saw has a
    // corrupted counter). Repair is always the same: flush the slot.
    std::unordered_map<const MegaflowEntry*, size_t> live;
    live.reserve(flows.size());
    for (size_t i = 0; i < flows.size(); ++i) live.emplace(flows[i], i);
    dp.offload()->for_each([&](const OffloadTable::Entry& s) {
      ++report.offload_checked;
      const auto owner = static_cast<const MegaflowEntry*>(s.owner);
      const uint64_t hits = s.counters->hits.load(std::memory_order_relaxed);
      const auto it = live.find(owner);
      if (it == live.end()) {
        ++report.offload_dangling;
        report.offload_flush.push_back(owner);
        note(report, cfg, "offload: slot owner not among live flows");
        return;
      }
      if (!(s.actions == flows[it->second]->actions())) {
        ++report.offload_stale_actions;
        report.offload_flush.push_back(owner);
        note(report, cfg,
             "offload: stale action snapshot for " +
                 flows[it->second]->match().to_string());
        return;
      }
      if (hits > flows[it->second]->packets()) {
        ++report.offload_stat_violations;
        report.offload_flush.push_back(owner);
        note(report, cfg,
             "offload: slot hits=" + std::to_string(hits) +
                 " > owner packets=" +
                 std::to_string(flows[it->second]->packets()));
      }
    });
  }

  if (cfg.check_stats) {
    const Datapath::Stats s = dp.stats();
    if (s.packets !=
        s.offload_hits + s.microflow_hits + s.megaflow_hits + s.misses) {
      ++report.stats_violations;
      note(report, cfg,
           "stats: packets=" + std::to_string(s.packets) +
               " != offload=" + std::to_string(s.offload_hits) +
               " + emc=" + std::to_string(s.microflow_hits) +
               " + mega=" + std::to_string(s.megaflow_hits) +
               " + miss=" + std::to_string(s.misses));
    }
  }

  // Dedup (an entry can offend against several peers) and keep dump order,
  // so quarantine application is deterministic.
  std::sort(doomed.begin(), doomed.end());
  doomed.erase(std::unique(doomed.begin(), doomed.end()), doomed.end());
  report.quarantine.reserve(doomed.size());
  for (size_t i : doomed) report.quarantine.push_back(flows[i]);
  return report;
}

size_t quarantine_flows(Datapath& dp, const DpCheckReport& report) {
  for (const MegaflowEntry* o : report.offload_flush) dp.offload_evict(o);
  if (!report.offload_flush.empty()) dp.offload_commit();
  for (MegaflowEntry* f : report.quarantine) dp.remove(f);
  if (!report.quarantine.empty()) dp.purge_dead();
  return report.quarantine.size();
}

}  // namespace ovs
