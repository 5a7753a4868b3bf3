#include "vswitchd/revalidator.h"

#include <algorithm>
#include <iterator>
#include <thread>

namespace ovs {

namespace {

struct PartStats {
  uint64_t examined = 0;
  uint64_t retranslated = 0;
  uint64_t skipped_by_tags = 0;
  double cycles = 0;
  // This partition's captured translations; RevalDecision::xlate indexes
  // into it until plan() concatenates the partitions.
  std::vector<RevalXlate> xlates;
};

bool is_idle(const MegaflowEntry* f, uint64_t now_ns,
             const Revalidator::Config& cfg) {
  return now_ns - f->used_ns() > cfg.idle_ns;
}

// Tier 1 (§4.3): untouched tags, connections and table inputs mean this
// flow's translation cannot have changed — modulo Bloom false positives,
// connection-hash collisions and conservative table marks, which only cost
// an unnecessary re-translation, never a missed repair.
bool tier1_skip(const MegaflowEntry* f, size_t i,
                const Revalidator::Config& cfg) {
  return cfg.use_tags && (f->tags & cfg.changed_tags) == 0 &&
         (cfg.stale.empty() || cfg.stale[i] == 0);
}

RevalXlate slim(XlateResult&& xr) {
  return {std::move(xr.actions), xr.tags, std::move(xr.matched_rules), xr.ct,
          xr.tables};
}

// One partition of the plan phase. Read-only against the datapath and the
// pipeline (translate with side_effects=false), so partitions are
// embarrassingly parallel; each writes decisions only at its own indices.
PartStats plan_range(Pipeline& pl, const std::vector<MegaflowEntry*>& flows,
                     size_t lo, size_t hi, uint64_t now_ns,
                     const Revalidator::Config& cfg,
                     std::vector<RevalDecision>& decisions,
                     std::vector<RevalXlate> xlates) {
  PartStats ps;
  ps.xlates = std::move(xlates);
  // Size the captured translations up front: an upper bound on them, so
  // the vector never regrows mid-pass.
  if (cfg.maybe_stale) {
    size_t n_xlate = 0;
    for (size_t i = lo; i < hi; ++i)
      n_xlate +=
          !is_idle(flows[i], now_ns, cfg) && !tier1_skip(flows[i], i, cfg);
    ps.xlates.reserve(n_xlate);
  }
  for (size_t i = lo; i < hi; ++i) {
    const MegaflowEntry* f = flows[i];
    RevalDecision& d = decisions[i];
    ++ps.examined;
    ps.cycles += cfg.reval_per_flow;
    if (is_idle(f, now_ns, cfg)) {
      d.kind = RevalDecision::Kind::kDeleteIdle;
      continue;
    }
    if (!cfg.maybe_stale) {
      d.kind = RevalDecision::Kind::kSkipClean;
      continue;
    }
    if (tier1_skip(f, i, cfg)) {
      d.kind = RevalDecision::Kind::kSkipTags;
      ++ps.skipped_by_tags;
      continue;
    }
    // Tier 2: full re-translation through the current tables. Translate
    // the full-fidelity install-time key, not f->match().key: the
    // latter is pre-masked, and a masked key can re-derive the entry's own
    // stale mask (fields the mask wildcards read as zero, steering the
    // classifier's prefix cuts the same wrong way), turning a stale
    // over-broad flow into a kKeepFresh fixed point that overlaps fresher
    // disjoint entries.
    XlateResult xr =
        pl.translate(f->full_key(), now_ns, /*side_effects=*/false);
    ps.cycles += cfg.per_table_lookup * xr.table_lookups;
    ++ps.retranslated;
    // The installed mask must match every field the fresh translation
    // consulted; an entry broader than that (extra wildcards, in OVS
    // terms) swallows packets the current tables would treat differently
    // — even when the actions for this witness key still agree. E.g. a
    // drop megaflow installed against an empty table matches everything
    // on its port; once a rule exists, re-translating its witness packet
    // still yields drop, but the fresh mask now pins the fields that
    // prove the miss.
    const FlowMask& inst_mask = f->match().mask;
    bool covers = true;
    for (size_t w = 0; w < kFlowWords; ++w) {
      if ((xr.megaflow.mask.w[w] & ~inst_mask.w[w]) != 0) {
        covers = false;
        break;
      }
    }
    if (covers && xr.actions == f->actions()) {
      d.kind = RevalDecision::Kind::kKeepFresh;
      d.xlate = static_cast<uint32_t>(ps.xlates.size());
      ps.xlates.push_back(slim(std::move(xr)));
    } else if (xr.megaflow.mask == inst_mask) {
      d.kind = RevalDecision::Kind::kUpdateActions;
      d.xlate = static_cast<uint32_t>(ps.xlates.size());
      ps.xlates.push_back(slim(std::move(xr)));
    } else {
      d.kind = RevalDecision::Kind::kDeleteStale;
    }
  }
  return ps;
}

}  // namespace

RevalPassStats Revalidator::plan(Pipeline& pl,
                                 const std::vector<MegaflowEntry*>& flows,
                                 uint64_t now_ns, const Config& cfg,
                                 RevalPlan* plan) {
  std::vector<RevalDecision>& decisions = plan->decisions;
  decisions.assign(flows.size(), RevalDecision{});
  // Partition 0 appends straight into the plan's own vector (keeping its
  // capacity across passes); the others are appended after the join.
  plan->xlates.clear();

  const size_t want = std::max<size_t>(1, cfg.n_threads);
  // Spawning a thread for a handful of flows costs more than it saves.
  const size_t n_threads =
      flows.empty() ? 1 : std::min(want, (flows.size() + 63) / 64);

  std::vector<PartStats> parts(n_threads);
  const size_t chunk = (flows.size() + n_threads - 1) / n_threads;
  if (n_threads == 1) {
    parts[0] = plan_range(pl, flows, 0, flows.size(), now_ns, cfg, decisions,
                          std::move(plan->xlates));
  } else {
    std::vector<std::thread> pool;
    pool.reserve(n_threads - 1);
    for (size_t t = 1; t < n_threads; ++t) {
      const size_t lo = std::min(flows.size(), t * chunk);
      const size_t hi = std::min(flows.size(), lo + chunk);
      if (lo == hi) continue;
      pool.emplace_back([&, t, lo, hi] {
        parts[t] = plan_range(pl, flows, lo, hi, now_ns, cfg, decisions, {});
      });
    }
    parts[0] = plan_range(pl, flows, 0, std::min(flows.size(), chunk),
                          now_ns, cfg, decisions, std::move(plan->xlates));
    for (std::thread& th : pool) th.join();
  }

  // Concatenate the partitions' translations in dump order, rebasing each
  // partition's decision indices past the ones before it.
  plan->xlates = std::move(parts[0].xlates);
  size_t total = 0;
  for (const PartStats& ps : parts) total += ps.xlates.size();
  plan->xlates.reserve(total);
  for (size_t t = 1; t < n_threads; ++t) {
    if (parts[t].xlates.empty()) continue;
    const auto base = static_cast<uint32_t>(plan->xlates.size());
    const size_t lo = std::min(flows.size(), t * chunk);
    const size_t hi = std::min(flows.size(), lo + chunk);
    for (size_t i = lo; i < hi; ++i) {
      RevalDecision& d = decisions[i];
      if (d.kind == RevalDecision::Kind::kKeepFresh ||
          d.kind == RevalDecision::Kind::kUpdateActions)
        d.xlate += base;
    }
    std::move(parts[t].xlates.begin(), parts[t].xlates.end(),
              std::back_inserter(plan->xlates));
  }

  RevalPassStats out;
  out.threads_used = n_threads;
  for (const PartStats& ps : parts) {
    out.examined += ps.examined;
    out.retranslated += ps.retranslated;
    out.skipped_by_tags += ps.skipped_by_tags;
    out.total_cycles += ps.cycles;
    out.makespan_cycles = std::max(out.makespan_cycles, ps.cycles);
  }
  return out;
}

}  // namespace ovs
