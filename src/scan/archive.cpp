#include "scan/archive.h"

#include <algorithm>
#include <stdexcept>
#include <utility>

namespace sm::scan {

namespace {

// The low 32 bits of the fingerprint's hash: a slot's tag and, masked, its
// home bucket (tables never exceed 2^32 slots).
std::uint32_t slot_tag(const CertFingerprint& fingerprint) {
  return static_cast<std::uint32_t>(FingerprintHash{}(fingerprint));
}

}  // namespace

template <typename FingerprintOf>
std::size_t ScanArchive::probe(const CertFingerprint& fingerprint,
                               const FingerprintOf& fingerprint_of) const {
  const std::size_t mask = index_.size() - 1;
  const std::uint32_t tag = slot_tag(fingerprint);
  for (std::size_t slot = tag & mask;; slot = (slot + 1) & mask) {
    const IndexSlot& entry = index_[slot];
    if (entry.id_plus_one == 0) return slot;
    if (entry.tag == tag && fingerprint_of(entry.id_plus_one - 1) == fingerprint) {
      return slot;
    }
  }
}

std::size_t ScanArchive::probe(const CertFingerprint& fingerprint) const {
  return probe(fingerprint, [this](CertId id) -> const CertFingerprint& {
    return certs_[id].fingerprint;
  });
}

void ScanArchive::rehash(std::size_t slots) {
  std::vector<IndexSlot> old(slots, IndexSlot{});
  old.swap(index_);
  const std::size_t mask = slots - 1;
  for (const IndexSlot& entry : old) {
    if (entry.id_plus_one == 0) continue;
    std::size_t slot = entry.tag & mask;
    while (index_[slot].id_plus_one != 0) slot = (slot + 1) & mask;
    index_[slot] = entry;
  }
}

CertId ScanArchive::insert_at(std::size_t slot, CertRecord&& record) {
  const CertId id = static_cast<CertId>(certs_.size());
  index_[slot] = IndexSlot{id + 1, slot_tag(record.fingerprint)};
  certs_.push_back(std::move(record));
  // Keep the table at most half full.
  if (2 * certs_.size() > index_.size()) rehash(2 * index_.size());
  return id;
}

CertId ScanArchive::intern(const CertRecord& record) {
  if (index_.empty()) rehash(16);
  const std::size_t slot = probe(record.fingerprint);
  if (index_[slot].id_plus_one != 0) return index_[slot].id_plus_one - 1;
  return insert_at(slot, CertRecord(record));
}

CertId ScanArchive::intern(CertRecord&& record) {
  if (index_.empty()) rehash(16);
  const std::size_t slot = probe(record.fingerprint);
  if (index_[slot].id_plus_one != 0) return index_[slot].id_plus_one - 1;
  return insert_at(slot, std::move(record));
}

void ScanArchive::intern_all(std::span<CertRecord* const> records,
                             std::span<CertId> ids, util::ThreadPool& pool) {
  if (records.size() != ids.size()) {
    throw std::invalid_argument("intern_all: records and ids differ in size");
  }
  if (index_.empty()) rehash(16);
  constexpr CertId kMiss = static_cast<CertId>(-1);

  // Ids of records already in the table. The index is only read here.
  pool.parallel_for(records.size(), 1024, [&](std::size_t begin, std::size_t end) {
    for (std::size_t i = begin; i < end; ++i) {
      const IndexSlot& entry = index_[probe(records[i]->fingerprint)];
      ids[i] = entry.id_plus_one == 0 ? kMiss : entry.id_plus_one - 1;
    }
  });

  // New ids, in order. Ids from certs_.size() on stand for records not
  // yet moved into the table, so misses dedupe among themselves too.
  const CertId base = static_cast<CertId>(certs_.size());
  std::vector<std::size_t> fresh;
  const auto fingerprint_of = [&](CertId id) -> const CertFingerprint& {
    return id < base ? certs_[id].fingerprint
                     : records[fresh[id - base]]->fingerprint;
  };
  for (std::size_t i = 0; i < records.size(); ++i) {
    if (ids[i] != kMiss) continue;
    const CertFingerprint& fingerprint = records[i]->fingerprint;
    const std::size_t slot = probe(fingerprint, fingerprint_of);
    if (index_[slot].id_plus_one != 0) {
      ids[i] = index_[slot].id_plus_one - 1;
      continue;
    }
    ids[i] = base + static_cast<CertId>(fresh.size());
    index_[slot] = IndexSlot{ids[i] + 1, slot_tag(fingerprint)};
    fresh.push_back(i);
    // Keep the table at most half full.
    if (2 * (base + fresh.size()) > index_.size()) rehash(2 * index_.size());
  }

  certs_.append_moved(fresh.size(), pool, [&](std::size_t j) -> CertRecord& {
    return *records[fresh[j]];
  });
}

bool ScanArchive::append_distinct(std::vector<CertTable::Segment>&& segments,
                                  util::ThreadPool& pool) {
  const std::size_t base = certs_.size();
  for (CertTable::Segment& segment : segments) {
    certs_.append(std::move(segment), pool);
  }
  segments.clear();
  std::size_t slots = std::max<std::size_t>(16, index_.size());
  while (slots < 2 * certs_.size()) slots *= 2;
  if (slots > index_.size()) rehash(slots);
  for (std::size_t id = base; id < certs_.size(); ++id) {
    const CertFingerprint& fingerprint = certs_[id].fingerprint;
    const std::size_t slot = probe(fingerprint);
    if (index_[slot].id_plus_one != 0) return false;
    index_[slot] = IndexSlot{static_cast<CertId>(id) + 1, slot_tag(fingerprint)};
  }
  return true;
}

bool ScanArchive::find(const CertFingerprint& fingerprint, CertId& out) const {
  if (index_.empty()) return false;
  const IndexSlot& entry = index_[probe(fingerprint)];
  if (entry.id_plus_one == 0) return false;
  out = entry.id_plus_one - 1;
  return true;
}

std::size_t ScanArchive::begin_scan(const ScanEvent& event) {
  if (!scans_.empty() && event.start < scans_.back().event.start) {
    throw std::logic_error("scans must be appended chronologically");
  }
  scans_.push_back(ScanData{event, {}});
  return scans_.size() - 1;
}

void ScanArchive::add_observation(std::size_t scan_index, CertId cert,
                                  std::uint32_t ip, DeviceId device) {
  scans_.at(scan_index).observations.push_back(Observation{cert, ip, device});
  ++observation_count_;
}

std::size_t ScanArchive::add_scan(ScanData&& scan) {
  if (!scans_.empty() && scan.event.start < scans_.back().event.start) {
    throw std::logic_error("scans must be appended chronologically");
  }
  observation_count_ += scan.observations.size();
  scans_.push_back(std::move(scan));
  return scans_.size() - 1;
}

std::size_t ScanArchive::insert_scan(ScanData&& scan) {
  const auto at = std::upper_bound(
      scans_.begin(), scans_.end(), scan.event.start,
      [](util::UnixTime start, const ScanData& s) {
        return start < s.event.start;
      });
  observation_count_ += scan.observations.size();
  const auto placed = scans_.insert(at, std::move(scan));
  return static_cast<std::size_t>(placed - scans_.begin());
}

void ScanArchive::reserve_certs(std::size_t n) {
  certs_.reserve(n);
  std::size_t slots = 16;
  while (slots < 2 * n) slots *= 2;
  if (slots > index_.size()) rehash(slots);
}

double CertLifetime::days(const std::vector<ScanData>& scans) const {
  if (scans_seen == 0) return 0;
  if (first_scan == last_scan) return 1;
  const double seconds = static_cast<double>(scans[last_scan].event.start -
                                             scans[first_scan].event.start);
  return seconds / static_cast<double>(util::kSecondsPerDay) + 1.0;
}

std::vector<CertLifetime> compute_lifetimes(const ScanArchive& archive) {
  std::vector<CertLifetime> out(archive.certs().size());
  std::vector<bool> seen(archive.certs().size(), false);
  const auto& scans = archive.scans();
  for (std::uint32_t scan_index = 0; scan_index < scans.size(); ++scan_index) {
    // A certificate may appear several times in one scan (multiple IPs);
    // count the scan once via a per-scan first-touch check on last_scan.
    for (const Observation& obs : scans[scan_index].observations) {
      CertLifetime& life = out[obs.cert];
      if (!seen[obs.cert]) {
        seen[obs.cert] = true;
        life.first_scan = scan_index;
        life.last_scan = scan_index;
        life.scans_seen = 1;
      } else if (life.last_scan != scan_index) {
        life.last_scan = scan_index;
        ++life.scans_seen;
      }
    }
  }
  return out;
}

}  // namespace sm::scan
