// The paper's §6 linking methodology — the core contribution of this
// library.
//
// Pipeline:
//   1. Scan-duplicate filter (§6.2): a certificate is "unique to a device"
//      only if it is never advertised from more than two IPs in one scan,
//      and not from exactly two IPs in *every* scan.
//   2. Per-field grouping (§6.3.2): certificates sharing a field value form
//      a candidate group; the group is accepted iff no two member lifetimes
//      overlap by more than one scan (devices may change IP — and reissue —
//      mid-scan, hence the one-scan allowance).
//   3. Consistency evaluation (§6.4.1): for each accepted group, the
//      fraction of scans in which the group appears at its modal IP, /24,
//      and AS; aggregated over groups weighted by scans observed.
//   4. Iterative multi-field linking (§6.4.3): fields ranked by AS-level
//      consistency (Not Before / Not After / IN+SN excluded as too weak),
//      each field links what it can, linked certificates leave the pool.
//
// Steps 2 and 3 run once per Linker, at construction, for all ten fields
// over the eligible set; Table 6 and step 4 read that one evaluation.
// Feature values are interned without building a string per certificate
// (see FeatureIndex).
//
// Because the simulator knows the true device behind every observation,
// this module also scores linking precision/recall against ground truth —
// the validation the paper lists as future work.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "analysis/dataset.h"
#include "linking/feature.h"
#include "linking/feature_index.h"
#include "util/thread_pool.h"

namespace sm::linking {

/// Tunables; the defaults are the paper's choices.
struct LinkerConfig {
  /// Maximum lifetime overlap (in scans) tolerated inside a linked group.
  std::uint32_t max_overlap_scans = 1;
  /// Drop IPv4-formatted Common Names from CN linking (§6.4.1).
  bool exclude_ip_common_names = true;
  /// §6.2 uniqueness threshold: certs on more than this many IPs in any
  /// single scan are excluded.
  std::uint32_t dup_ip_threshold = 2;
  /// Also exclude certs advertised from exactly `dup_ip_threshold` IPs in
  /// *every* scan (the two-devices-with-one-cert signature).
  bool exclude_always_at_threshold = true;
};

/// Per-group location-consistency values (§6.4.1).
struct Consistency {
  double ip = 0;
  double slash24 = 0;
  double as_level = 0;
};

/// One accepted linked group: >= 2 certificates believed to be one device.
struct LinkedGroup {
  Feature feature = Feature::kPublicKey;  ///< the field that linked it
  std::vector<scan::CertId> certs;
};

/// Table 5 row: how unique a feature's values are across invalid certs.
struct FeatureUniqueness {
  Feature feature = Feature::kPublicKey;
  std::uint64_t applicable = 0;  ///< certs where the feature has a value
  std::uint64_t non_unique = 0;  ///< certs sharing their value with another
  double non_unique_fraction() const {
    return applicable == 0 ? 0.0
                           : static_cast<double>(non_unique) /
                                 static_cast<double>(applicable);
  }
};

/// Table 6 column: one field's linking performance.
struct FieldResult {
  Feature feature = Feature::kPublicKey;
  std::uint64_t total_linked = 0;     ///< certs in accepted groups
  std::uint64_t uniquely_linked = 0;  ///< linked by this field only
  Consistency consistency;
  std::vector<LinkedGroup> groups;
};

/// §6.4.3's output: the final multi-field linking.
struct IterativeResult {
  std::vector<Feature> order;      ///< fields in the order applied
  std::vector<LinkedGroup> groups;
  std::uint64_t linked_certs = 0;
};

/// §6.4.4's before/after comparison.
struct LinkingGain {
  std::uint64_t eligible_certs = 0;
  std::uint64_t entities_after = 0;  ///< groups + remaining singletons
  double single_scan_fraction_before = 0;
  double single_scan_fraction_after = 0;
  double mean_lifetime_before_days = 0;
  double mean_lifetime_after_days = 0;
};

/// Ground-truth scoring (simulator-only superpower).
struct TruthScore {
  std::uint64_t linked_pairs = 0;   ///< Σ C(|group|, 2)
  std::uint64_t correct_pairs = 0;  ///< pairs truly from one device
  std::uint64_t possible_pairs = 0; ///< Σ_device C(#eligible certs, 2)
  double precision() const {
    return linked_pairs == 0 ? 1.0
                             : static_cast<double>(correct_pairs) /
                                   static_cast<double>(linked_pairs);
  }
  double recall() const {
    return possible_pairs == 0 ? 1.0
                               : static_cast<double>(correct_pairs) /
                                     static_cast<double>(possible_pairs);
  }
};

/// The linking engine. Construct once per dataset; all methods are const.
///
/// Construction interns every feature value into a FeatureIndex and then
/// evaluates all ten fields over the eligible set (Table 6) in one
/// parallel region over every (field, candidate group) on a ThreadPool;
/// `evaluate_all_fields` and `link_iteratively` both read that one
/// evaluation. Results are bit-identical for every thread count: parallel
/// regions write index-addressed slots and are reduced in deterministic
/// order.
class Linker {
 public:
  /// `pool` is borrowed for the linker's lifetime; null means the
  /// process-global pool.
  explicit Linker(const analysis::DatasetIndex& index,
                  LinkerConfig config = {}, util::ThreadPool* pool = nullptr);

  /// Which certificates are linking-eligible: invalid, observed, legal
  /// version, and passing the §6.2 duplicate filter.
  const std::vector<bool>& eligible() const { return eligible_; }
  std::uint64_t eligible_count() const { return eligible_count_; }

  /// Table 5.
  std::vector<FeatureUniqueness> feature_uniqueness() const;

  /// Links one field over the certificates where `mask` is true.
  FieldResult link_field(Feature feature, const std::vector<bool>& mask) const;

  /// Table 6: every field independently over the full eligible set, with
  /// uniquely-linked counts filled in, in kAllFeatures order (evaluated
  /// at construction).
  const std::vector<FieldResult>& evaluate_all_fields() const {
    return fields_;
  }

  /// §6.4.3: iterative linking with the field order derived from
  /// `evaluate_all_fields` (AS-consistency descending; Not Before /
  /// Not After / IN+SN excluded).
  IterativeResult link_iteratively() const;

  /// Iterative linking with an explicit field order (for ablations).
  IterativeResult link_iteratively(const std::vector<Feature>& order) const;

  /// §6.4.4: lifetime improvement from linking.
  LinkingGain compare_with_original(const IterativeResult& result) const;

  /// Precision/recall against simulator ground truth.
  TruthScore score_against_truth(const IterativeResult& result) const;

  /// Consistency of a single group (exposed for tests and Figure 9).
  Consistency group_consistency(const LinkedGroup& group) const;

  /// The ground-truth device of a certificate (kNoDevice when unknown).
  scan::DeviceId true_device(scan::CertId cert) const {
    return spine_->first_device(cert);
  }

 private:
  /// link_field; the consistency (modal-location counting) is computed
  /// only when `with_consistency` is set, and is zero otherwise.
  FieldResult group_field(Feature feature, const std::vector<bool>& mask,
                          bool with_consistency) const;

  /// Fills fields_: Table 6 over the eligible set.
  void evaluate();

  const analysis::DatasetIndex* index_;
  const corpus::CorpusIndex* spine_;  // == &index_->corpus()
  LinkerConfig config_;
  util::ThreadPool* pool_;
  std::vector<bool> eligible_;
  std::uint64_t eligible_count_ = 0;
  // Interned feature values over the eligible set.
  std::optional<FeatureIndex> features_;
  // evaluate_all_fields(), computed once at construction.
  std::vector<FieldResult> fields_;
};

}  // namespace sm::linking
