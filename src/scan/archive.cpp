#include "scan/archive.h"

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

std::size_t ScanArchive::probe(const CertFingerprint& fingerprint) const {
  const std::size_t mask = index_.size() - 1;
  const std::uint32_t tag = slot_tag(fingerprint);
  for (std::size_t slot = tag & mask;; slot = (slot + 1) & mask) {
    const IndexSlot& entry = index_[slot];
    if (entry.id_plus_one == 0) return slot;
    if (entry.tag == tag &&
        certs_[entry.id_plus_one - 1].fingerprint == fingerprint) {
      return slot;
    }
  }
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
