// The userspace OpenFlow pipeline and its translation ("xlate") step.
//
// Translation is the megaflow generator (§4.2): it runs a packet through the
// flow tables (following resubmits, register writes, NORMAL processing,
// connection tracking), collects the flattened datapath actions, and tracks
// every key bit the decision consulted. The resulting (mask, masked key,
// actions) triple is exactly what userspace installs into the datapath.
//
// Field rewrites are handled the way OVS does: once an action sets a field,
// later reads of that field observe the written value and therefore must
// NOT unwildcard the original packet bits — the translation suppresses
// wildcard contributions on rewritten bits.
//
// Simplifications vs. real OVS (documented substitutions):
//   * `ct` recirculation is folded into translation: the connection state is
//     stamped during xlate and the consulted 5-tuple becomes part of the
//     megaflow, so ct-using pipelines produce per-connection megaflows.
//     Because ct_state feeds classification, megaflows DEPEND on conntrack
//     state: each translation records the connections it looked up and the
//     tracker's change stamp (XlateResult::ct), and the Switch layer
//     re-translates exactly the megaflows whose connections were committed,
//     torn down, expired or evicted since (ct_reval_dirty).
//   * Where OVS re-translates every flow after a flow-mod, flow-table
//     dependencies are tracked like conntrack ones: each translation
//     records its table visits (XlateResult::tables), each table logs its
//     mutations, and the Switch layer re-translates only the megaflows a
//     logged flow-mod can reach (TableDeps::stale).
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "datapath/dp_actions.h"
#include "ofproto/conntrack.h"
#include "ofproto/flow_table.h"
#include "ofproto/mac_learning.h"
#include "packet/packet.h"

namespace ovs {

// Flow-table mutations across a pipeline since the previous
// Pipeline::take_table_changes(): one TableChangeLog per table, each with
// its removed addresses sorted.
struct TableChanges {
  std::vector<TableChangeLog> tables;  // indexed by table id
  uint32_t changed = 0;  // bit t set: table t's log is not empty
  bool overflow = false;  // some log overflowed: judge every flow stale

  bool empty() const noexcept { return changed == 0; }
};

// The flow-table inputs of one translation, so that a flow-mod re-translates
// only the megaflows it can reach (DESIGN.md §8). Each visit is one table
// lookup: the table, its winner (or a miss) and the winner's priority, and
// how many of the rewrites (set_field, NAT, ct_state) the translation had
// made before it. Every packet in a megaflow's region takes the same visits
// with the same winners, and at each visit its lookup key is the packet
// with those rewrites applied. Inline records, no heap: past kMaxVisits
// visits or kMaxRewrites rewrites that precede a visit, `overflow` is set
// and every table change counts as one of the translation's inputs.
struct TableDeps {
  static constexpr size_t kMaxVisits = 5;
  static constexpr size_t kMaxRewrites = 5;
  struct Visit {
    // Compared by address only once the rule may be gone.
    const OfRule* winner = nullptr;  // nullptr: the lookup missed
    int32_t priority = 0;            // the winner's
    uint8_t table = 0;
    uint8_t n_rewrites = 0;  // rewrites made before this lookup
  };
  // The summary stale() reads first, then the visits, then the rewrites,
  // which only an intersection test reads.
  bool overflow = false;
  uint8_t n_visits = 0;
  uint8_t n_rewrites = 0;  // saturates; only the first kMaxRewrites kept
  uint16_t tables = 0;     // bit t set: some visit looked up table t
  std::array<Visit, kMaxVisits> visits{};
  std::array<FieldId, kMaxRewrites> rw_field{};
  std::array<uint64_t, kMaxRewrites> rw_value{};

  void rewrite(FieldId f, uint64_t v) noexcept {
    // A 128-bit field does not fit one value slot.
    if (field_info(f).width > 64) n_rewrites = kMaxRewrites + 1;
    if (n_rewrites < kMaxRewrites) {
      rw_field[n_rewrites] = f;
      rw_value[n_rewrites] = v;
    }
    if (n_rewrites <= kMaxRewrites) ++n_rewrites;
  }
  void visit(size_t table, const OfRule* winner) noexcept {
    if (n_visits == kMaxVisits || n_rewrites > kMaxRewrites) {
      overflow = true;
      return;
    }
    Visit& v = visits[n_visits++];
    v.winner = winner;
    v.priority = winner == nullptr ? 0 : winner->priority();
    v.table = static_cast<uint8_t>(table);
    v.n_rewrites = n_rewrites;
    tables |= static_cast<uint16_t>(1u << table);
  }

  // Could a packet in `installed` translate differently after `changes`?
  // True when a visited table's log overflowed, a visit's winner was
  // removed, a rule added to a visited table at or above that visit's
  // winner priority intersects the region at that visit, or a visited
  // table that missed changed its miss behaviour. Conservative: an address
  // reused by a new rule, or an intersection no real packet reaches, only
  // costs a re-translation.
  bool stale(const Match& installed,
             const TableChanges& changes) const noexcept;

 private:
  bool intersects(const TableChangeLog::Added& a, const Visit& v,
                  const Match& installed) const noexcept;
  // The metadata every packet of the region carries at this visit, when
  // one value is known: rewritten before it, or exact in `installed`.
  bool metadata_at(const Visit& v, const Match& installed,
                   uint64_t* md) const noexcept;
};

struct XlateResult {
  Match megaflow;          // generated cache entry match
  DpActions actions;       // flattened datapath actions
  bool to_controller = false;
  bool error = false;      // resubmit depth exceeded
  uint32_t table_lookups = 0;  // classifier lookups performed (§3.2: ~15
                               // for network-virtualization pipelines)
  uint64_t tags = 0;       // Bloom tags of consulted soft state (§6 ablation)
  // Every OpenFlow rule the packet matched, in order: the attribution list
  // for per-flow statistics (§6). Pointers are valid until the next flow
  // table modification (which bumps Pipeline::generation()).
  std::vector<const OfRule*> matched_rules;
  // Conntrack inputs: the tracker stamp when translation started and the
  // connections do_ct looked up (revalidation dependencies, §6).
  CtDeps ct;
  // Flow-table inputs: the tables visited, winners and rewrites.
  TableDeps tables;
};

class Pipeline {
 public:
  static constexpr size_t kMaxTables = 16;
  static constexpr int kMaxResubmitDepth = 64;

  explicit Pipeline(size_t n_tables = 8, ClassifierConfig cls_cfg = {},
                    ConnTrackerConfig ct_cfg = {});

  FlowTable& table(size_t i) { return *tables_[i]; }
  const FlowTable& table(size_t i) const { return *tables_[i]; }
  size_t n_tables() const noexcept { return tables_.size(); }

  MacLearning& mac_learning() noexcept { return mac_; }
  const MacLearning& mac_learning() const noexcept { return mac_; }
  ConnTracker& conntrack() noexcept { return ct_; }
  const ConnTracker& conntrack() const noexcept { return ct_; }

  void add_port(uint32_t port);
  void remove_port(uint32_t port);
  const std::vector<uint32_t>& ports() const noexcept { return ports_; }

  // Translates a packet through the pipeline starting at table 0.
  // Non-const: NORMAL learns MACs; ct(commit) commits connections. Pass
  // side_effects=false for revalidation re-translations, which must observe
  // but not mutate soft state (§6).
  XlateResult translate(const FlowKey& pkt, uint64_t now_ns,
                        bool side_effects = true);

  // Translates a miss burst as a batch: the table-0 classification for all
  // packets runs through the classifier engine's lookup_batch (one
  // structure-of-arrays probe sweep with prefetching under kChainedTuple)
  // before the per-packet action walks run sequentially. Results are
  // element-for-element identical to calling translate() in order: the
  // batched stage only precomputes the first lookup each translation would
  // perform anyway (table-0 state cannot change mid-batch, and rewrites
  // that would change the lookup key only happen after that first lookup),
  // while MAC learning and conntrack side effects stay in packet order.
  std::vector<XlateResult> translate_batch(std::span<const Packet> pkts,
                                           uint64_t now_ns,
                                           bool side_effects = true);

  // Side-effect-free single-packet evaluation: what would this pipeline do
  // with `pkt` right now? Exactly translate(pkt, now_ns, side_effects=false)
  // — classifier, MAC and conntrack lookups only, no learning and no
  // commits — packaged as a const entry point so model-based oracles (the
  // differential fuzz harness's OracleSwitch, src/testing/) can evaluate
  // against a pipeline they hold by const reference.
  XlateResult evaluate(const FlowKey& pkt, uint64_t now_ns) const;

  // Total flows across all tables.
  size_t flow_count() const noexcept;

  // Expires OpenFlow rules past their idle/hard timeouts in every table.
  size_t expire_flows(uint64_t now_ns);

  // Changes whenever translation results may change: flow table mods, MAC
  // learning changes, port changes. Conntrack mutations are deliberately
  // excluded here and tracked via conntrack().generation() instead — the
  // Switch layer combines the two, which is what lets the differential
  // harness ablate ct-driven revalidation independently (ct_reval_dirty).
  uint64_t generation() const noexcept;

  // Changes only on flow-table modifications — the events that can delete
  // OfRule objects. XlateResult::matched_rules pointers are exactly as
  // durable as this counter: attribution held across MAC moves stays valid,
  // which is what lets the two-tier revalidator keep pushing statistics for
  // flows its tag fast path never re-translates.
  uint64_t tables_generation() const noexcept;

  // Changes on add_port / remove_port only.
  uint64_t ports_generation() const noexcept { return port_generation_; }

  // Drains every table's change log (FlowTable::take_changes).
  TableChanges take_table_changes();

 private:
  struct XlateCtx;
  // A table-0 classification already performed by translate_batch; consumed
  // by the first xlate_table call of the matching translation.
  struct Prefetched {
    const OfRule* rule;
    const FlowWildcards* consulted;
  };
  XlateResult translate_one(const FlowKey& pkt, uint64_t now_ns,
                            bool side_effects, const Prefetched* pre);
  void xlate_table(XlateCtx& ctx, size_t table_id, int depth,
                   const Prefetched* pre = nullptr);
  void do_normal(XlateCtx& ctx);
  void do_ct(XlateCtx& ctx, const OfCt& ct, int depth);

  std::vector<std::unique_ptr<FlowTable>> tables_;
  MacLearning mac_;
  ConnTracker ct_;
  std::vector<uint32_t> ports_;
  uint64_t port_generation_ = 0;
};

}  // namespace ovs
