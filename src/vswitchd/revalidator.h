// Multi-threaded revalidation (§4.3, §6): "dividing flows among revalidator
// threads" keeps a full pass over the datapath flow table under its ~1 s
// deadline as the table grows.
//
// The pass is split into a *parallel plan* phase and a *serial apply* phase:
//
//   * plan — the dumped flow list is partitioned contiguously across N
//     threads; each thread re-translates its flows with side_effects=false
//     (translation is read-only against the pipeline: classifier lookups,
//     MAC lookups, conntrack lookups) and records a per-flow verdict plus,
//     for re-translated survivors, the captured XlateResult. A two-tier
//     fast path consults the pipeline generation counters, the per-flow
//     Bloom tags and the per-flow staleness marks (conntrack and flow
//     tables) first, skipping the full re-translation for flows whose
//     inputs cannot have changed.
//   * apply — the control thread walks the verdicts in dump order and
//     performs every mutation: batched deletes, RCU action swaps
//     (update_actions), attribution refresh, statistics pushes. Keeping all
//     writes on one thread preserves the datapath's single-writer contract
//     and makes the pass outcome independent of the thread count.
//
// Cycle accounting separates *work* (total_cycles, summed over partitions —
// what the CPU pools are charged) from *latency* (makespan_cycles, the max
// over partitions — what the §6 deadline is compared against).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "datapath/datapath.h"
#include "ofproto/pipeline.h"

namespace ovs {

// One flow's planned outcome, indexed like the dumped flow list.
struct RevalDecision {
  enum class Kind : uint8_t {
    kDeleteIdle,     // past the idle timeout: evict
    kSkipClean,      // nothing in the pipeline changed since the last pass
    kSkipTags,       // tier-1 fast path: this flow's inputs did not change
    kKeepFresh,      // re-translated; actions unchanged (xlate captured)
    kUpdateActions,  // re-translated; same shape, new actions (xlate captured)
    kDeleteStale,    // re-translated; megaflow shape changed: evict
  };
  Kind kind = Kind::kSkipClean;
  // Index into RevalPlan::xlates; valid for kKeepFresh / kUpdateActions.
  uint32_t xlate = 0;
};

// What the apply phase needs from a re-translated flow that survives: the
// XlateResult minus the megaflow match, which plan() already compared with
// the installed one.
struct RevalXlate {
  DpActions actions;
  uint64_t tags = 0;
  std::vector<const OfRule*> matched_rules;
  CtDeps ct;
  TableDeps tables;
};

// One pass's plan. Only re-translated survivors carry a RevalXlate, so a
// pass that skips most flows writes a few bytes for each of them, not a
// whole translation.
struct RevalPlan {
  std::vector<RevalDecision> decisions;  // indexed like the dump
  std::vector<RevalXlate> xlates;        // in dump order

  RevalXlate& xlate(const RevalDecision& d) { return xlates[d.xlate]; }
};

struct RevalPassStats {
  uint64_t examined = 0;
  uint64_t retranslated = 0;     // flows that paid a full re-translation
  uint64_t skipped_by_tags = 0;  // flows the tag fast path short-circuited
  // The subset of skipped_by_tags whose conntrack mark was consulted and
  // clean: skips in a pass where conntrack had changed (set by the Switch,
  // which knows what fed the marks).
  uint64_t skipped_ct_clean = 0;
  double total_cycles = 0;       // CPU work, summed over partitions
  double makespan_cycles = 0;    // modeled pass latency: max over partitions
  size_t threads_used = 1;
};

class Revalidator {
 public:
  struct Config {
    size_t n_threads = 1;
    uint64_t idle_ns = 0;
    // Pipeline generation moved since the last pass (or a full pass was
    // forced): flows may be stale. When false every live flow is kSkipClean.
    bool maybe_stale = true;
    // Tier-1 fast path: consult per-flow Bloom tags against changed_tags
    // before paying for a re-translation.
    bool use_tags = false;
    uint64_t changed_tags = 0;
    // Per-flow staleness marks, indexed like the dumped flow list: nonzero
    // when a connection or a flow table the flow's translation consulted
    // changed since (CtDeps::stale, TableDeps::stale). With marks present,
    // the tier-1 skip needs clean tags AND a clean mark; empty means
    // neither changed (or their changes are ignored) and tags alone decide.
    std::span<const uint8_t> stale;
    // Cost model (sim/cost_model.h): cycles per examined flow and per
    // classifier lookup during re-translation.
    double reval_per_flow = 0;
    double per_table_lookup = 0;
  };

  // Plans one pass over `flows` (a datapath dump). Thread-safe against
  // concurrent fast-path traffic; the caller must not mutate the datapath
  // or the pipeline until plan() returns. Decisions land at the flow's dump
  // index and xlates in dump order, so the serial apply is deterministic
  // regardless of n_threads.
  static RevalPassStats plan(Pipeline& pl,
                             const std::vector<MegaflowEntry*>& flows,
                             uint64_t now_ns, const Config& cfg,
                             RevalPlan* plan);
};

}  // namespace ovs
