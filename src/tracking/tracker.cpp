#include "tracking/tracker.h"

#include <algorithm>
#include <map>
#include <set>
#include <span>

namespace sm::tracking {

DeviceTracker::DeviceTracker(const analysis::DatasetIndex& index,
                             const linking::Linker& linker,
                             const linking::IterativeResult& linking_result,
                             const net::AsDatabase& as_db,
                             TrackerConfig config, util::ThreadPool* pool)
    : index_(&index), spine_(&index.corpus()), as_db_(&as_db),
      config_(config) {
  if (pool == nullptr) pool = &util::ThreadPool::global();
  // The per-cert (scan, ip) lists come straight from the shared corpus
  // spine — the tracker no longer builds its own CSR over the archive.

  // Entity specs first (groups in linking order, then lone eligible certs
  // in id order), then parallel timeline assembly into indexed slots.
  std::vector<bool> in_group(index.archive().certs().size(), false);
  for (const linking::LinkedGroup& group : linking_result.groups) {
    for (const scan::CertId id : group.certs) in_group[id] = true;
  }
  const std::vector<bool>& eligible = linker.eligible();
  std::vector<scan::CertId> singles;
  for (scan::CertId id = 0; id < eligible.size(); ++id) {
    if (!eligible[id] || in_group[id]) continue;
    singles.push_back(id);
  }
  const std::size_t group_count = linking_result.groups.size();
  entities_.resize(group_count + singles.size());
  pool->parallel_for(
      entities_.size(), 64, [&](std::size_t begin, std::size_t end) {
        for (std::size_t e = begin; e < end; ++e) {
          if (e < group_count) {
            entities_[e] =
                build_entity(linking_result.groups[e].certs, true);
          } else {
            entities_[e] = build_entity({singles[e - group_count]}, false);
          }
        }
      });
  // §7.2's baseline: devices trackable *without* linking are single
  // certificates observed for over a year.
  for (scan::CertId id = 0; id < eligible.size(); ++id) {
    if (!eligible[id]) continue;
    const analysis::CertStats& stats = index.stats(id);
    const auto& scans = index.archive().scans();
    const double days =
        static_cast<double>(scans[stats.last_scan].event.start -
                            scans[stats.first_scan].event.start) /
        static_cast<double>(util::kSecondsPerDay);
    if (days >= config_.trackable_days) ++trackable_without_linking_;
  }
}

TrackedEntity DeviceTracker::build_entity(
    const std::vector<scan::CertId>& certs, bool linked) const {
  TrackedEntity entity;
  entity.certs = certs;
  entity.linked = linked;
  // Collect (scan, ip) over member certificates; keep one residency per
  // scan (the numerically smallest IP when a mid-scan move yields two).
  // The residency's AS is the chosen observation's entry in the spine's
  // precomputed ASN column — no per-residency route lookups.
  std::map<std::uint32_t, std::pair<std::uint32_t, net::Asn>> per_scan;
  const auto& scans = index_->archive().scans();
  for (const scan::CertId id : certs) {
    const std::span<const corpus::Obs> obs = spine_->observations(id);
    const std::span<const net::Asn> asns = spine_->asns(id);
    for (std::size_t i = 0; i < obs.size(); ++i) {
      const auto it = per_scan.find(obs[i].scan);
      if (it == per_scan.end() || obs[i].ip < it->second.first) {
        per_scan[obs[i].scan] = {obs[i].ip, asns[i]};
      }
    }
  }
  for (const auto& [scan_index, residency] : per_scan) {
    entity.timeline.push_back(TrackedEntity::Residency{
        scan_index, residency.first, residency.second});
  }
  if (!entity.timeline.empty()) {
    entity.first_seen = scans[entity.timeline.front().scan].event.start;
    entity.last_seen = scans[entity.timeline.back().scan].event.start;
  }
  return entity;
}

std::vector<const TrackedEntity*> DeviceTracker::trackable() const {
  std::vector<const TrackedEntity*> out;
  for (const TrackedEntity& entity : entities_) {
    if (entity.span_days() >= config_.trackable_days) out.push_back(&entity);
  }
  return out;
}

TrackableSummary DeviceTracker::summary() const {
  TrackableSummary out;
  out.trackable_without_linking = trackable_without_linking_;
  out.trackable_with_linking = trackable().size();
  return out;
}

MovementStats DeviceTracker::movement() const {
  MovementStats out;
  std::map<std::tuple<std::uint32_t, net::Asn, net::Asn>, std::uint32_t>
      transitions_by_edge;
  std::uint64_t single_movers = 0;
  for (const TrackedEntity* entity : trackable()) {
    ++out.tracked_devices;
    std::uint64_t moves = 0;
    bool crossed_country = false;
    for (std::size_t i = 1; i < entity->timeline.size(); ++i) {
      const auto& prev = entity->timeline[i - 1];
      const auto& cur = entity->timeline[i];
      if (prev.asn == cur.asn) continue;
      ++moves;
      ++transitions_by_edge[{cur.scan, prev.asn, cur.asn}];
      const net::AsInfo* from = as_db_->find(prev.asn);
      const net::AsInfo* to = as_db_->find(cur.asn);
      if (from && to && !from->country.empty() && !to->country.empty() &&
          from->country != to->country) {
        crossed_country = true;
      }
    }
    if (moves > 0) {
      ++out.devices_with_as_change;
      out.total_as_transitions += moves;
      out.max_moves = std::max(out.max_moves, moves);
      if (moves == 1) ++single_movers;
      if (crossed_country) ++out.devices_crossing_countries;
    }
  }
  if (out.devices_with_as_change > 0) {
    out.single_move_fraction =
        static_cast<double>(single_movers) /
        static_cast<double>(out.devices_with_as_change);
  }
  for (const auto& [edge, devices] : transitions_by_edge) {
    if (devices < config_.bulk_transfer_min_devices) continue;
    const auto& [scan, from, to] = edge;
    out.bulk_transfers.push_back(BulkTransfer{scan, from, to, devices});
  }
  std::sort(out.bulk_transfers.begin(), out.bulk_transfers.end(),
            [](const BulkTransfer& a, const BulkTransfer& b) {
              return a.devices > b.devices;
            });
  return out;
}

ReassignmentStats DeviceTracker::reassignment() const {
  std::map<net::Asn, AsReassignment> per_as;
  for (const TrackedEntity* entity : trackable()) {
    // Reassignment is a property of an AS's stationary subscribers; devices
    // that migrated between ASes are the subject of the movement analysis
    // and would only blur per-AS policy inference.
    bool multi_as = false;
    for (std::size_t i = 1; i < entity->timeline.size(); ++i) {
      if (entity->timeline[i].asn != entity->timeline[0].asn) {
        multi_as = true;
        break;
      }
    }
    if (multi_as || entity->timeline.empty()) continue;
    const net::Asn home = entity->timeline[0].asn;
    AsReassignment& slot = per_as[home];
    slot.asn = home;
    ++slot.tracked_devices;
    // Static: one IP across the entire dataset (and the entity already
    // spans >= trackable_days). For "changes between every scan", two scans
    // on the same calendar day (the dual-scan days) count as one
    // observation epoch — a lease cannot turn over between them.
    const auto& scans = index_->archive().scans();
    const auto day_of = [&](std::uint32_t scan) {
      return scans[scan].event.start / util::kSecondsPerDay;
    };
    bool static_ip = true;
    bool always_changing = entity->timeline.size() >= 2;
    for (std::size_t i = 1; i < entity->timeline.size(); ++i) {
      if (entity->timeline[i].ip != entity->timeline[i - 1].ip) {
        static_ip = false;
      } else if (day_of(entity->timeline[i].scan) !=
                 day_of(entity->timeline[i - 1].scan)) {
        always_changing = false;
      }
    }
    if (static_ip) ++slot.static_devices;
    if (always_changing) ++slot.always_changing_devices;
  }
  ReassignmentStats out;
  std::vector<double> fractions;
  for (const auto& [asn, slot] : per_as) {
    if (slot.tracked_devices < config_.min_devices_per_as) continue;
    out.per_as.push_back(slot);
    fractions.push_back(slot.static_fraction());
    if (slot.static_fraction() >= 0.9) ++out.ases_90pct_static;
    if (slot.always_changing_fraction() >= 0.75) {
      out.most_dynamic.push_back(slot);
    }
  }
  out.static_fraction_cdf = util::EmpiricalCdf(std::move(fractions));
  std::sort(out.most_dynamic.begin(), out.most_dynamic.end(),
            [](const AsReassignment& a, const AsReassignment& b) {
              return a.always_changing_fraction() >
                     b.always_changing_fraction();
            });
  return out;
}

}  // namespace sm::tracking
