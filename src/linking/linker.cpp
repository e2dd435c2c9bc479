#include "linking/linker.h"

#include <algorithm>
#include <map>
#include <span>
#include <unordered_map>

namespace sm::linking {

namespace {

bool version_legal(const scan::CertRecord& cert) {
  return cert.raw_version >= 0 && cert.raw_version <= 2;
}

/// Chunk size for parallel loops over groups: groups are cheap
/// individually, so batch enough of them to amortize scheduling.
constexpr std::size_t kGroupChunk = 32;

}  // namespace

Linker::Linker(const analysis::DatasetIndex& index, LinkerConfig config,
               util::ThreadPool* pool)
    : index_(&index),
      spine_(&index.corpus()),
      config_(config),
      pool_(pool != nullptr ? pool : &util::ThreadPool::global()) {
  const auto& archive = index.archive();
  const auto& certs = archive.certs();
  const std::size_t n = certs.size();

  // §6.2 duplicate filter + invalid/observed/version gating.
  eligible_.assign(n, false);
  for (scan::CertId id = 0; id < n; ++id) {
    const analysis::CertStats& stats = index.stats(id);
    const scan::CertRecord& cert = certs[id];
    if (cert.valid || stats.scans_seen == 0 || !version_legal(cert)) continue;
    if (stats.max_ips_in_scan > config_.dup_ip_threshold) continue;
    if (config_.exclude_always_at_threshold &&
        stats.min_ips_in_scan == config_.dup_ip_threshold &&
        stats.max_ips_in_scan == config_.dup_ip_threshold) {
      continue;  // exactly two IPs in every scan: two devices, one cert
    }
    eligible_[id] = true;
    ++eligible_count_;
  }

  // Observation lists, resolved ASes, and ground-truth device attribution
  // all come from the shared corpus spine now — no per-layer CSR rebuild,
  // no per-observation as_of calls.
  features_.emplace(certs, eligible_, config_.exclude_ip_common_names, pool_);
}

std::vector<FeatureUniqueness> Linker::feature_uniqueness() const {
  // Single pass over the interned CSR lists: `applicable` is the number of
  // interned (eligible, non-empty) certs, `non_unique` the members of
  // values carried by >= 2 certs.
  std::vector<FeatureUniqueness> out(kAllFeatures.size());
  for (std::size_t fi = 0; fi < kAllFeatures.size(); ++fi) {
    const Feature feature = kAllFeatures[fi];
    std::uint64_t applicable = 0;
    std::uint64_t non_unique = 0;
    const std::uint32_t values = features_->value_count(feature);
    for (std::uint32_t v = 0; v < values; ++v) {
      const std::uint32_t members = features_->multiplicity(feature, v);
      applicable += members;
      if (members >= 2) non_unique += members;
    }
    out[fi] = FeatureUniqueness{feature, applicable, non_unique};
  }
  return out;
}

bool Linker::group_passes_overlap_rule(
    const std::vector<scan::CertId>& certs) const {
  // Sorted by first_scan; a pair (i earlier, j later) overlaps by more than
  // `max_overlap_scans` iff min(last_i, last_j) >= first_j + max_overlap,
  // which given running maxL reduces to one comparison per element.
  std::vector<std::pair<std::uint32_t, std::uint32_t>> spans;
  spans.reserve(certs.size());
  for (const scan::CertId id : certs) {
    const analysis::CertStats& stats = index_->stats(id);
    spans.emplace_back(stats.first_scan, stats.last_scan);
  }
  std::sort(spans.begin(), spans.end());
  std::uint32_t max_last = 0;
  bool first = true;
  for (const auto& [first_scan, last_scan] : spans) {
    if (!first) {
      const std::uint32_t limit = first_scan + config_.max_overlap_scans;
      if (max_last >= limit && last_scan >= limit) return false;
    }
    max_last = first ? last_scan : std::max(max_last, last_scan);
    first = false;
  }
  return true;
}

FieldResult Linker::link_field(Feature feature,
                               const std::vector<bool>& mask) const {
  return group_field(feature, mask, /*with_consistency=*/true);
}

FieldResult Linker::group_field(Feature feature, const std::vector<bool>& mask,
                                bool with_consistency) const {
  // Phase 1 (serial, integer-only): candidate groups from the interned CSR
  // lists, in value-id order — deterministic by construction.
  std::vector<std::vector<scan::CertId>> candidates;
  const std::uint32_t values = features_->value_count(feature);
  for (std::uint32_t v = 0; v < values; ++v) {
    const FeatureIndex::CertSpan span = features_->certs_with_value(feature, v);
    if (span.size() < 2) continue;
    std::vector<scan::CertId> group_certs;
    group_certs.reserve(span.size());
    for (const scan::CertId id : span) {
      if (mask[id]) group_certs.push_back(id);
    }
    if (group_certs.size() < 2) continue;
    candidates.push_back(std::move(group_certs));
  }

  // Phase 2 (parallel): the per-group work — overlap rule + modal-location
  // counting, when asked for — into index-addressed slots.
  struct Evaluated {
    bool accepted = false;
    GroupCounts counts;
  };
  std::vector<Evaluated> evaluated(candidates.size());
  pool_->parallel_for(
      candidates.size(), kGroupChunk, [&](std::size_t begin, std::size_t end) {
        for (std::size_t g = begin; g < end; ++g) {
          if (!group_passes_overlap_rule(candidates[g])) continue;
          evaluated[g].accepted = true;
          if (with_consistency) evaluated[g].counts = group_counts(candidates[g]);
        }
      });

  // Phase 3 (serial): reduce in candidate order.
  FieldResult out;
  out.feature = feature;
  std::uint64_t ip_max = 0, slash24_max = 0, as_max = 0, total_scans = 0;
  for (std::size_t g = 0; g < candidates.size(); ++g) {
    if (!evaluated[g].accepted) continue;
    out.total_linked += candidates[g].size();
    ip_max += evaluated[g].counts.ip_modal;
    slash24_max += evaluated[g].counts.slash24_modal;
    as_max += evaluated[g].counts.as_modal;
    total_scans += evaluated[g].counts.scans;
    out.groups.push_back(LinkedGroup{feature, std::move(candidates[g])});
  }
  if (total_scans > 0) {
    const double denom = static_cast<double>(total_scans);
    out.consistency.ip = static_cast<double>(ip_max) / denom;
    out.consistency.slash24 = static_cast<double>(slash24_max) / denom;
    out.consistency.as_level = static_cast<double>(as_max) / denom;
  }
  return out;
}

Linker::GroupCounts Linker::group_counts(
    const std::vector<scan::CertId>& certs) const {
  // Per scan, the set of locations where the group was seen; consistency
  // counts the scans containing the modal location.
  std::unordered_map<std::uint32_t, std::uint32_t> ip_scans, s24_scans,
      as_scans;
  // Gather (scan, location) tuples from the spine's observation and ASN
  // columns, segment per scan via sort.
  std::vector<ObsRef> all;
  for (const scan::CertId id : certs) {
    const std::span<const corpus::Obs> obs = spine_->observations(id);
    const std::span<const net::Asn> asns = spine_->asns(id);
    for (std::size_t i = 0; i < obs.size(); ++i) {
      all.push_back(ObsRef{obs[i].scan, obs[i].ip, asns[i]});
    }
  }
  std::sort(all.begin(), all.end(), [](const ObsRef& a, const ObsRef& b) {
    return a.scan < b.scan;
  });
  // For each scan, count each distinct location once.
  GroupCounts out;
  std::vector<std::uint32_t> ips, s24s, ases;
  const auto count_unique = [](std::vector<std::uint32_t>& keys,
                               std::unordered_map<std::uint32_t, std::uint32_t>&
                                   counter) {
    std::sort(keys.begin(), keys.end());
    keys.erase(std::unique(keys.begin(), keys.end()), keys.end());
    for (const std::uint32_t key : keys) ++counter[key];
    keys.clear();
  };
  std::size_t i = 0;
  while (i < all.size()) {
    const std::uint32_t scan = all[i].scan;
    std::size_t j = i;
    while (j < all.size() && all[j].scan == scan) {
      ips.push_back(all[j].ip);
      s24s.push_back(all[j].ip & 0xffffff00);
      ases.push_back(all[j].asn);
      ++j;
    }
    count_unique(ips, ip_scans);
    count_unique(s24s, s24_scans);
    count_unique(ases, as_scans);
    ++out.scans;
    i = j;
  }
  const auto modal = [](const auto& counter) {
    std::uint32_t best = 0;
    for (const auto& [key, count] : counter) best = std::max(best, count);
    return best;
  };
  out.ip_modal = modal(ip_scans);
  out.slash24_modal = modal(s24_scans);
  out.as_modal = modal(as_scans);
  return out;
}

Consistency Linker::group_consistency(const LinkedGroup& group) const {
  const GroupCounts counts = group_counts(group.certs);
  Consistency out;
  if (counts.scans > 0) {
    const double denom = static_cast<double>(counts.scans);
    out.ip = static_cast<double>(counts.ip_modal) / denom;
    out.slash24 = static_cast<double>(counts.slash24_modal) / denom;
    out.as_level = static_cast<double>(counts.as_modal) / denom;
  }
  return out;
}

std::vector<FieldResult> Linker::evaluate_fields() const {
  // One field per chunk; each field's own group loop parallelizes too when
  // called standalone (nested regions run inline on the worker).
  std::vector<FieldResult> results(kAllFeatures.size());
  pool_->parallel_for(kAllFeatures.size(), 1,
                      [&](std::size_t begin, std::size_t end) {
                        for (std::size_t fi = begin; fi < end; ++fi) {
                          results[fi] = link_field(kAllFeatures[fi], eligible_);
                        }
                      });
  return results;
}

std::vector<FieldResult> Linker::evaluate_all_fields() const {
  std::vector<FieldResult> results = evaluate_fields();
  // Uniquely-linked: certificates appearing in exactly one field's groups.
  const std::size_t n = index_->archive().certs().size();
  std::vector<std::uint8_t> link_count(n, 0);
  for (const FieldResult& result : results) {
    for (const LinkedGroup& group : result.groups) {
      for (const scan::CertId id : group.certs) {
        if (link_count[id] < 255) ++link_count[id];
      }
    }
  }
  for (FieldResult& result : results) {
    for (const LinkedGroup& group : result.groups) {
      for (const scan::CertId id : group.certs) {
        if (link_count[id] == 1) ++result.uniquely_linked;
      }
    }
  }
  return results;
}

IterativeResult Linker::link_iteratively() const {
  std::vector<FieldResult> all = evaluate_fields();
  // §6.4.3: exclude Not Before, Not After, and IN+SN (insufficient
  // consistency); order the rest by AS-level consistency, descending.
  std::vector<FieldResult*> usable;
  for (FieldResult& result : all) {
    if (result.feature == Feature::kNotBefore ||
        result.feature == Feature::kNotAfter ||
        result.feature == Feature::kIssuerSerial) {
      continue;
    }
    usable.push_back(&result);
  }
  std::sort(usable.begin(), usable.end(),
            [](const FieldResult* a, const FieldResult* b) {
              return a->consistency.as_level > b->consistency.as_level;
            });
  std::vector<Feature> order;
  order.reserve(usable.size());
  for (const FieldResult* result : usable) order.push_back(result->feature);
  // The first field links over the whole eligible set, exactly as its
  // evaluation above did, so its groups are reused.
  return iterate(order, usable.empty() ? nullptr : usable.front());
}

IterativeResult Linker::link_iteratively(
    const std::vector<Feature>& order) const {
  return iterate(order, nullptr);
}

IterativeResult Linker::iterate(const std::vector<Feature>& order,
                                FieldResult* first) const {
  IterativeResult out;
  out.order = order;
  std::vector<bool> mask = eligible_;
  for (std::size_t i = 0; i < order.size(); ++i) {
    FieldResult result =
        i == 0 && first != nullptr
            ? std::move(*first)
            : group_field(order[i], mask, /*with_consistency=*/false);
    for (LinkedGroup& group : result.groups) {
      for (const scan::CertId id : group.certs) mask[id] = false;
      out.linked_certs += group.certs.size();
      out.groups.push_back(std::move(group));
    }
  }
  return out;
}

LinkingGain Linker::compare_with_original(
    const IterativeResult& result) const {
  LinkingGain out;
  out.eligible_certs = eligible_count_;
  const auto& scans = index_->archive().scans();

  // Before: every eligible certificate is its own entity.
  std::uint64_t before_single = 0;
  double before_days = 0;
  for (scan::CertId id = 0; id < eligible_.size(); ++id) {
    if (!eligible_[id]) continue;
    const analysis::CertStats& stats = index_->stats(id);
    if (stats.scans_seen == 1) ++before_single;
    before_days += index_->lifetime_days(id);
  }

  // After: linked groups become one entity each.
  std::vector<bool> linked(eligible_.size(), false);
  std::uint64_t after_entities = 0, after_single = 0;
  double after_days = 0;
  for (const LinkedGroup& group : result.groups) {
    std::uint32_t first = 0xffffffff, last = 0;
    for (const scan::CertId id : group.certs) {
      linked[id] = true;
      const analysis::CertStats& stats = index_->stats(id);
      first = std::min(first, stats.first_scan);
      last = std::max(last, stats.last_scan);
    }
    ++after_entities;
    if (first == last) ++after_single;
    const double days =
        first == last
            ? 1.0
            : static_cast<double>(scans[last].event.start -
                                  scans[first].event.start) /
                      static_cast<double>(util::kSecondsPerDay) +
                  1.0;
    after_days += days;
  }
  for (scan::CertId id = 0; id < eligible_.size(); ++id) {
    if (!eligible_[id] || linked[id]) continue;
    ++after_entities;
    const analysis::CertStats& stats = index_->stats(id);
    if (stats.scans_seen == 1) ++after_single;
    after_days += index_->lifetime_days(id);
  }

  out.entities_after = after_entities;
  if (out.eligible_certs > 0) {
    out.single_scan_fraction_before =
        static_cast<double>(before_single) /
        static_cast<double>(out.eligible_certs);
    out.mean_lifetime_before_days =
        before_days / static_cast<double>(out.eligible_certs);
  }
  if (after_entities > 0) {
    out.single_scan_fraction_after =
        static_cast<double>(after_single) / static_cast<double>(after_entities);
    out.mean_lifetime_after_days =
        after_days / static_cast<double>(after_entities);
  }
  return out;
}

TruthScore Linker::score_against_truth(const IterativeResult& result) const {
  TruthScore out;
  for (const LinkedGroup& group : result.groups) {
    const std::uint64_t k = group.certs.size();
    out.linked_pairs += k * (k - 1) / 2;
    std::map<scan::DeviceId, std::uint64_t> by_device;
    for (const scan::CertId id : group.certs) {
      ++by_device[spine_->first_device(id)];
    }
    for (const auto& [device, count] : by_device) {
      if (device == scan::kNoDevice) continue;
      out.correct_pairs += count * (count - 1) / 2;
    }
  }
  std::map<scan::DeviceId, std::uint64_t> eligible_per_device;
  for (scan::CertId id = 0; id < eligible_.size(); ++id) {
    if (!eligible_[id]) continue;
    const scan::DeviceId device = spine_->first_device(id);
    if (device == scan::kNoDevice) continue;
    ++eligible_per_device[device];
  }
  for (const auto& [device, count] : eligible_per_device) {
    out.possible_pairs += count * (count - 1) / 2;
  }
  return out;
}

}  // namespace sm::linking
