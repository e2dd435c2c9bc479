#include "linking/linker.h"

#include <algorithm>
#include <map>
#include <span>

namespace sm::linking {

namespace {

bool version_legal(const scan::CertRecord& cert) {
  return cert.raw_version >= 0 && cert.raw_version <= 2;
}

/// Chunk size for parallel loops over groups: groups are cheap
/// individually, so batch enough of them to amortize scheduling.
constexpr std::size_t kGroupChunk = 32;

using CertSpan = std::span<const scan::CertId>;

/// Per-chunk buffers the group evaluation reuses from group to group.
struct GroupScratch {
  std::vector<std::pair<std::uint32_t, std::uint32_t>> lifetimes;
  std::vector<std::uint64_t> ips, slash24s, ases;  // location << 32 | scan
  std::vector<std::uint32_t> scans;
};

/// One group's modal-location counts: scans where the group sat at its
/// modal IP / /24 / AS, and the scans it was observed in at all. Summed
/// over a field's groups, the same four numbers give the field's
/// consistency.
struct GroupCounts {
  std::uint64_t ip_modal = 0;
  std::uint64_t slash24_modal = 0;
  std::uint64_t as_modal = 0;
  std::uint64_t scans = 0;

  GroupCounts& operator+=(const GroupCounts& other) {
    ip_modal += other.ip_modal;
    slash24_modal += other.slash24_modal;
    as_modal += other.as_modal;
    scans += other.scans;
    return *this;
  }

  Consistency consistency() const {
    Consistency out;
    if (scans > 0) {
      const double denom = static_cast<double>(scans);
      out.ip = static_cast<double>(ip_modal) / denom;
      out.slash24 = static_cast<double>(slash24_modal) / denom;
      out.as_level = static_cast<double>(as_modal) / denom;
    }
    return out;
  }
};

/// §6.3.2: no two member lifetimes overlap by more than `max_overlap`
/// scans.
bool passes_overlap_rule(const analysis::DatasetIndex& index, CertSpan certs,
                         std::uint32_t max_overlap, GroupScratch& scratch) {
  // Sorted by first_scan; a pair (i earlier, j later) overlaps by more than
  // `max_overlap` iff min(last_i, last_j) >= first_j + max_overlap, which
  // given running maxL reduces to one comparison per element.
  auto& spans = scratch.lifetimes;
  spans.clear();
  for (const scan::CertId id : certs) {
    const analysis::CertStats& stats = index.stats(id);
    spans.emplace_back(stats.first_scan, stats.last_scan);
  }
  std::sort(spans.begin(), spans.end());
  std::uint32_t max_last = 0;
  bool first = true;
  for (const auto& [first_scan, last_scan] : spans) {
    if (!first) {
      const std::uint32_t limit = first_scan + max_overlap;
      if (max_last >= limit && last_scan >= limit) return false;
    }
    max_last = first ? last_scan : std::max(max_last, last_scan);
    first = false;
  }
  return true;
}

/// Sorts and dedupes (location << 32 | scan) keys and returns the most
/// distinct scans any one location was seen in.
std::uint64_t modal_scans(std::vector<std::uint64_t>& keys) {
  std::sort(keys.begin(), keys.end());
  keys.erase(std::unique(keys.begin(), keys.end()), keys.end());
  std::uint64_t best = 0, run = 0;
  for (std::size_t i = 0; i < keys.size(); ++i) {
    run = i > 0 && keys[i] >> 32 == keys[i - 1] >> 32 ? run + 1 : 1;
    best = std::max(best, run);
  }
  return best;
}

/// §6.4.1: per location kind, the number of scans containing the group's
/// modal location.
GroupCounts count_locations(const corpus::CorpusIndex& spine, CertSpan certs,
                            GroupScratch& scratch) {
  scratch.ips.clear();
  scratch.slash24s.clear();
  scratch.ases.clear();
  scratch.scans.clear();
  for (const scan::CertId id : certs) {
    const std::span<const corpus::Obs> obs = spine.observations(id);
    const std::span<const net::Asn> asns = spine.asns(id);
    for (std::size_t i = 0; i < obs.size(); ++i) {
      const std::uint64_t scan = obs[i].scan;
      scratch.ips.push_back(std::uint64_t{obs[i].ip} << 32 | scan);
      scratch.slash24s.push_back(std::uint64_t{obs[i].ip & 0xffffff00} << 32 |
                                 scan);
      scratch.ases.push_back(std::uint64_t{asns[i]} << 32 | scan);
      scratch.scans.push_back(obs[i].scan);
    }
  }
  GroupCounts out;
  std::sort(scratch.scans.begin(), scratch.scans.end());
  out.scans = static_cast<std::uint64_t>(
      std::unique(scratch.scans.begin(), scratch.scans.end()) -
      scratch.scans.begin());
  out.ip_modal = modal_scans(scratch.ips);
  out.slash24_modal = modal_scans(scratch.slash24s);
  out.as_modal = modal_scans(scratch.ases);
  return out;
}

/// A candidate group's verdict, written to its own slot by the parallel
/// pass.
struct Evaluated {
  bool accepted = false;
  GroupCounts counts;
};

/// The overlap rule for groups `certs_of(0)` .. `certs_of(count - 1)` and,
/// for the accepted ones when `with_consistency` is set, the modal-location
/// counts: one parallel region into index-addressed slots.
template <class CertsOf>
std::vector<Evaluated> evaluate_groups(util::ThreadPool& pool,
                                       const analysis::DatasetIndex& index,
                                       std::uint32_t max_overlap,
                                       bool with_consistency, std::size_t count,
                                       const CertsOf& certs_of) {
  std::vector<Evaluated> evaluated(count);
  pool.parallel_for(
      count, kGroupChunk, [&](std::size_t begin, std::size_t end) {
        GroupScratch scratch;
        for (std::size_t g = begin; g < end; ++g) {
          const CertSpan certs = certs_of(g);
          if (!passes_overlap_rule(index, certs, max_overlap, scratch)) {
            continue;
          }
          evaluated[g].accepted = true;
          if (with_consistency) {
            evaluated[g].counts =
                count_locations(index.corpus(), certs, scratch);
          }
        }
      });
  return evaluated;
}

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
  evaluate();
}

void Linker::evaluate() {
  // The index holds eligible certificates only, so every value carried by
  // two or more certificates is a candidate group over the eligible set.
  struct Candidate {
    std::uint32_t field;
    std::uint32_t value;
  };
  std::vector<Candidate> candidates;
  for (std::size_t fi = 0; fi < kAllFeatures.size(); ++fi) {
    const Feature feature = kAllFeatures[fi];
    const std::uint32_t values = features_->value_count(feature);
    for (std::uint32_t v = 0; v < values; ++v) {
      if (features_->multiplicity(feature, v) >= 2) {
        candidates.push_back({static_cast<std::uint32_t>(fi), v});
      }
    }
  }
  const auto certs_of = [&](std::size_t g) {
    const FeatureIndex::CertSpan span = features_->certs_with_value(
        kAllFeatures[candidates[g].field], candidates[g].value);
    return CertSpan(span.begin(), span.size());
  };

  // One parallel region over every (field, candidate group).
  const std::vector<Evaluated> evaluated =
      evaluate_groups(*pool_, *index_, config_.max_overlap_scans,
                      /*with_consistency=*/true, candidates.size(), certs_of);

  // Reduce in candidate order: field by field, value id by value id.
  fields_.resize(kAllFeatures.size());
  std::vector<GroupCounts> totals(kAllFeatures.size());
  for (std::size_t fi = 0; fi < kAllFeatures.size(); ++fi) {
    fields_[fi].feature = kAllFeatures[fi];
  }
  for (std::size_t g = 0; g < candidates.size(); ++g) {
    if (!evaluated[g].accepted) continue;
    const CertSpan certs = certs_of(g);
    FieldResult& field = fields_[candidates[g].field];
    field.total_linked += certs.size();
    totals[candidates[g].field] += evaluated[g].counts;
    field.groups.push_back(LinkedGroup{
        field.feature, std::vector<scan::CertId>(certs.begin(), certs.end())});
  }
  for (std::size_t fi = 0; fi < kAllFeatures.size(); ++fi) {
    fields_[fi].consistency = totals[fi].consistency();
  }

  // Uniquely-linked: certificates appearing in exactly one field's groups.
  std::vector<std::uint8_t> link_count(eligible_.size(), 0);
  for (const FieldResult& result : fields_) {
    for (const LinkedGroup& group : result.groups) {
      for (const scan::CertId id : group.certs) {
        if (link_count[id] < 255) ++link_count[id];
      }
    }
  }
  for (FieldResult& result : fields_) {
    for (const LinkedGroup& group : result.groups) {
      for (const scan::CertId id : group.certs) {
        if (link_count[id] == 1) ++result.uniquely_linked;
      }
    }
  }
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
  // counting, when asked for.
  const std::vector<Evaluated> evaluated = evaluate_groups(
      *pool_, *index_, config_.max_overlap_scans, with_consistency,
      candidates.size(), [&](std::size_t g) { return CertSpan(candidates[g]); });

  // Phase 3 (serial): reduce in candidate order.
  FieldResult out;
  out.feature = feature;
  GroupCounts total;
  for (std::size_t g = 0; g < candidates.size(); ++g) {
    if (!evaluated[g].accepted) continue;
    out.total_linked += candidates[g].size();
    total += evaluated[g].counts;
    out.groups.push_back(LinkedGroup{feature, std::move(candidates[g])});
  }
  out.consistency = total.consistency();
  return out;
}

Consistency Linker::group_consistency(const LinkedGroup& group) const {
  GroupScratch scratch;
  return count_locations(*spine_, group.certs, scratch).consistency();
}

IterativeResult Linker::link_iteratively() const {
  // §6.4.3: exclude Not Before, Not After, and IN+SN (insufficient
  // consistency); order the rest by AS-level consistency, descending.
  std::vector<const FieldResult*> usable;
  for (const FieldResult& result : fields_) {
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
  return link_iteratively(order);
}

IterativeResult Linker::link_iteratively(
    const std::vector<Feature>& order) const {
  IterativeResult out;
  out.order = order;
  std::vector<bool> mask = eligible_;
  for (std::size_t i = 0; i < order.size(); ++i) {
    // The first field links over the whole eligible set, exactly as its
    // evaluation did, so its groups are copied from there.
    FieldResult result =
        i == 0 ? fields_[static_cast<std::size_t>(order[0])]
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
