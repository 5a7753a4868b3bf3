// Lookup-engine seam behind classifier::Classifier, mirroring the datapath
// backend seam (datapath/dp_backend.h): the facade owns one backend chosen
// by ClassifierConfig::engine, call sites never branch on the engine, and
// every engine answers the same caching-aware contract (megaflow wildcard
// accumulation included) so the differential fuzzer and the equivalence
// property tests can diff them rule-for-rule.
//
// Rules stay engine-opaque: the engine stamps Rule's intrusive `sub_`
// pointer (via RuleLinks) with its own subtable structure and must be the
// one to clear it on remove.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>

#include "classifier/classifier.h"
#include "packet/flow_key.h"
#include "packet/match.h"

namespace ovs {

class ClassifierBackend {
 public:
  virtual ~ClassifierBackend() = default;

  ClassifierBackend(const ClassifierBackend&) = delete;
  ClassifierBackend& operator=(const ClassifierBackend&) = delete;

  virtual void insert(Rule* rule) = 0;
  virtual void remove(Rule* rule) noexcept = 0;
  virtual Rule* find_exact(const Match& match,
                           int32_t priority) const noexcept = 0;
  virtual const Rule* lookup(const FlowKey& pkt, FlowWildcards* wc,
                             uint32_t* n_searched) const noexcept = 0;

  // Batched classification. The default is the scalar loop — results and
  // per-key wildcards must be identical to n scalar lookups regardless of
  // how an engine overrides this.
  virtual void lookup_batch(const FlowKey* keys, size_t n, const Rule** out,
                            FlowWildcards* wcs) const noexcept;

  virtual size_t rule_count() const noexcept = 0;
  virtual size_t mask_count() const noexcept = 0;

  // Shape introspection for the mask-explosion detector (DESIGN.md §14) and
  // the scale benchmark. n_subtables() is the number of per-mask hash
  // tables the engine maintains (== mask_count() for flat engines; the
  // tenant-partition wrapper sums across its inner engines).
  // max_probe_depth() is a structural upper bound on the subtables a single
  // lookup may probe: the whole table for plain TSS, one guide probe per
  // chain plus the deepest chain for the chained engine, and
  // shared + worst-tenant for the partitioned wrapper.
  virtual size_t n_subtables() const noexcept { return mask_count(); }
  virtual size_t max_probe_depth() const noexcept { return mask_count(); }

  virtual ClassifierStats stats() const noexcept = 0;
  virtual void reset_stats() const noexcept = 0;

  virtual void for_each_rule(const std::function<void(Rule*)>& f) const = 0;

 protected:
  ClassifierBackend() = default;
};

std::unique_ptr<ClassifierBackend> make_classifier_backend(
    const ClassifierConfig& cfg);

}  // namespace ovs
