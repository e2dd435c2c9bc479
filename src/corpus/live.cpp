#include "corpus/live.h"

#include <algorithm>
#include <istream>
#include <numeric>
#include <utility>

#include "scan/archive_io.h"

namespace sm::corpus {
namespace {

constexpr scan::CertId kUnmapped = scan::CertId{0xffffffff};

bool strictly_increasing(const std::vector<scan::ScanData>& scans) {
  for (std::size_t i = 1; i < scans.size(); ++i) {
    if (scans[i].event.start <= scans[i - 1].event.start) return false;
  }
  return true;
}

/// Parses one SMAR stream without touching corpus state, so every byte is
/// validated before anything mutates; sets `error` on failure.
bool parse_smar(std::istream& in, const char* what,
                std::vector<scan::CertRecord>& certs,
                std::vector<scan::ScanData>& scans, std::string& error) {
  scan::ArchiveReader reader(in);
  if (!reader.ok()) {
    error = std::string(what) + ": bad archive header";
    return false;
  }
  certs.reserve(reader.cert_count());
  if (!reader.for_each_cert(
          [&](scan::CertId, const scan::CertRecord& cert) {
            certs.push_back(cert);
          })) {
    error = std::string(what) + ": corrupt certificate section";
    return false;
  }
  if (!reader.for_each_scan(
          [&](const scan::ScanData& scan) { scans.push_back(scan); })) {
    error = std::string(what) + ": corrupt scan section";
    return false;
  }
  for (const scan::ScanData& scan : scans) {
    for (const scan::Observation& obs : scan.observations) {
      if (obs.cert >= certs.size()) {
        error = std::string(what) + ": observation references unknown cert";
        return false;
      }
    }
  }
  return true;
}

/// SPKI key -> ids of every certificate of `archive` holding it.
std::unordered_map<scan::KeyFingerprint, std::vector<scan::CertId>>
key_holders(const scan::ScanArchive& archive) {
  std::unordered_map<scan::KeyFingerprint, std::vector<scan::CertId>> keys;
  keys.reserve(archive.certs().size());
  for (std::size_t i = 0; i < archive.certs().size(); ++i) {
    keys[archive.certs()[i].key_fingerprint].push_back(
        static_cast<scan::CertId>(i));
  }
  return keys;
}

bool in_prefix(const scan::CertFingerprint& fp, std::uint8_t lo,
               std::uint8_t hi) {
  return fp[0] >= lo && fp[0] <= hi;
}

/// Re-interns densely, in original id order, every certificate of `full`
/// whose fingerprint is in_prefix(lo, hi) == `inside`, then copies scans
/// from `first_scan` on with only the kept certificates' observations.
scan::ScanArchive filter_prefix(const scan::ScanArchive& full,
                                std::uint8_t lo, std::uint8_t hi,
                                bool inside, std::size_t first_scan) {
  scan::ScanArchive out;
  std::vector<scan::CertId> local(full.certs().size(), kUnmapped);
  for (std::size_t id = 0; id < full.certs().size(); ++id) {
    const scan::CertRecord& cert = full.cert(static_cast<scan::CertId>(id));
    if (in_prefix(cert.fingerprint, lo, hi) == inside) {
      local[id] = out.intern(cert);
    }
  }
  for (std::size_t s = first_scan; s < full.scans().size(); ++s) {
    const scan::ScanData& scan = full.scans()[s];
    scan::ScanData copy;
    copy.event = scan.event;
    for (const scan::Observation& obs : scan.observations) {
      if (local[obs.cert] == kUnmapped) continue;
      copy.observations.push_back({local[obs.cert], obs.ip, obs.device});
    }
    out.add_scan(std::move(copy));
  }
  return out;
}

}  // namespace

void LiveCorpus::publish(std::shared_ptr<scan::ScanArchive> archive,
                         std::vector<scan::CertId> delta, bool extend) {
  const std::shared_ptr<const LiveSnapshot> cur = snapshot();
  auto snap = std::make_shared<LiveSnapshot>();
  snap->epoch = cur ? cur->epoch + 1 : 0;
  // Build the new spine (readers keep serving the old epoch throughout)
  // and publish. The release store pairs with snapshot()'s acquire load.
  const CorpusOptions options{routing_, pool_};
  snap->spine =
      extend ? std::make_shared<const CorpusIndex>(*archive, *cur->spine,
                                                   options)
             : std::make_shared<const CorpusIndex>(*archive, options);
  snap->archive = std::move(archive);
  snap->delta = std::move(delta);
  snap->statuses = statuses_;
  snap->key_counts = key_counts_;
  snapshot_.store(std::move(snap), std::memory_order_release);
}

LiveCorpus::LiveCorpus(scan::ScanArchive initial,
                       const net::RoutingHistory* routing,
                       util::ThreadPool* pool, RevocationStatusMap statuses,
                       KeyCountMap key_counts)
    : routing_(routing), pool_(pool) {
  if (!statuses.empty()) {
    statuses_ =
        std::make_shared<const RevocationStatusMap>(std::move(statuses));
  }
  if (!key_counts.empty()) {
    key_counts_ = std::make_shared<const KeyCountMap>(std::move(key_counts));
  }
  auto archive = std::make_shared<scan::ScanArchive>(std::move(initial));
  keys_ = key_holders(*archive);
  publish(std::move(archive), {}, /*extend=*/false);
}

AppendResult LiveCorpus::append_segment(std::istream& in,
                                        const RevocationStatusMap* statuses) {
  std::lock_guard lock(append_mutex_);
  AppendResult result;
  // A prefix slice answers with injected full-corpus degrees, which only
  // a sender's sidecar can keep true; it grows by merge_slice alone.
  if (key_counts_ != nullptr) {
    result.error = "segment: a prefix-slice corpus cannot take segments";
    return result;
  }
  std::vector<scan::CertRecord> certs;
  std::vector<scan::ScanData> scans;
  if (!parse_smar(in, "segment", certs, scans, result.error)) return result;
  if (scans.empty()) {
    result.error = "segment: no scans";
    return result;
  }
  // Chronology: a segment continues the timeline strictly, so a replayed
  // or stale segment is refused instead of double-counting observations.
  const std::shared_ptr<const LiveSnapshot> cur = snapshot();
  const std::vector<scan::ScanData>& have = cur->archive->scans();
  if (!strictly_increasing(scans) ||
      (!have.empty() && scans.front().event.start <= have.back().event.start)) {
    result.error = "segment: scans do not strictly follow the current corpus";
    return result;
  }
  return absorb(*cur, std::move(certs), std::move(scans), nullptr, statuses);
}

AppendResult LiveCorpus::merge_slice(std::istream& in,
                                     const KeyCountMap* key_counts,
                                     const RevocationStatusMap* statuses) {
  std::lock_guard lock(append_mutex_);
  AppendResult result;
  std::vector<scan::CertRecord> certs;
  std::vector<scan::ScanData> scans;
  if (!parse_smar(in, "slice", certs, scans, result.error)) return result;
  // Scans merge by start time, so starts must identify scans uniquely on
  // both sides of the merge.
  if (!strictly_increasing(scans)) {
    result.error = "slice: scan start times are not strictly increasing";
    return result;
  }
  const std::shared_ptr<const LiveSnapshot> cur = snapshot();
  if (!strictly_increasing(cur->archive->scans())) {
    result.error = "corpus: scan starts not strictly increasing; cannot merge";
    return result;
  }
  return absorb(*cur, std::move(certs), std::move(scans), key_counts,
                statuses);
}

AppendResult LiveCorpus::absorb(const LiveSnapshot& cur,
                                std::vector<scan::CertRecord> certs,
                                std::vector<scan::ScanData> scans,
                                const KeyCountMap* key_counts,
                                const RevocationStatusMap* statuses) {
  AppendResult result;
  // Copy-on-write: the new epoch gets its own archive and every snapshot
  // handed out keeps its own. The copy shares the certificate records
  // (scan::CertTable), so it costs the scan and intern tables only.
  auto next = std::make_shared<scan::ScanArchive>(*cur.archive);
  const std::size_t old_cert_count = next->certs().size();
  next->reserve_certs(old_cert_count + certs.size());
  std::vector<char> changed(old_cert_count, 0);
  const auto mark_holders = [&](const scan::KeyFingerprint& key) {
    const auto it = keys_.find(key);
    if (it == keys_.end()) return;
    for (const scan::CertId peer : it->second) changed[peer] = 1;
  };

  // Intern in the incoming id order, so the resulting ids are
  // deterministic. A new holder of an existing SPKI raises the
  // key-sharing degree of every certificate already holding it.
  std::vector<scan::CertId> global_id(certs.size());
  std::vector<std::pair<scan::KeyFingerprint, scan::CertId>> new_keys;
  for (std::size_t i = 0; i < certs.size(); ++i) {
    const scan::KeyFingerprint key = certs[i].key_fingerprint;
    global_id[i] = next->intern(std::move(certs[i]));
    if (global_id[i] >= old_cert_count) {
      new_keys.emplace_back(key, global_id[i]);
      mark_holders(key);
    }
  }
  result.new_certs = new_keys.size();

  // Place the scans by start time, observations remapped to global ids.
  // A start the corpus has is the same scan: local observations first,
  // then the incoming ones (per-cert aggregates are order-independent).
  // The spine extends only if every scan lands after the old last one.
  bool extend = true;
  for (scan::ScanData& scan : scans) {
    for (scan::Observation& obs : scan.observations) {
      obs.cert = global_id[obs.cert];
      if (obs.cert < old_cert_count) changed[obs.cert] = 1;
    }
    result.observations += scan.observations.size();
    const std::vector<scan::ScanData>& have = next->scans();
    const auto at = std::partition_point(
        have.begin(), have.end(), [&](const scan::ScanData& s) {
          return s.event.start < scan.event.start;
        });
    if (at != have.end() && at->event.start == scan.event.start) {
      const auto index = static_cast<std::size_t>(at - have.begin());
      for (const scan::Observation& obs : scan.observations) {
        next->add_observation(index, obs.cert, obs.ip, obs.device);
      }
      extend = false;
    } else {
      extend = extend && at == have.end();
      next->insert_scan(std::move(scan));
      ++result.scans_appended;
    }
  }

  // Sidecars: statuses overwrite (the sender's are authoritative for its
  // certs) and a moved status re-renders its certificate, so a cert
  // revoked mid-ingestion joins the delta. Degrees take the larger value:
  // both sides derive from the same full corpus, so the larger one is the
  // fresher count, and a raised degree re-renders every local holder.
  if (statuses != nullptr && !statuses->empty()) {
    auto next_statuses =
        statuses_ ? std::make_shared<RevocationStatusMap>(*statuses_)
                  : std::make_shared<RevocationStatusMap>();
    bool dirty = false;
    for (const auto& [fp, status] : *statuses) {
      const auto it = next_statuses->find(fp);
      if (it != next_statuses->end() && it->second == status) continue;
      (*next_statuses)[fp] = status;
      dirty = true;
      scan::CertId id = 0;
      if (next->find(fp, id) && id < old_cert_count) changed[id] = 1;
    }
    if (dirty) statuses_ = std::move(next_statuses);
  }
  if (key_counts != nullptr && !key_counts->empty()) {
    auto next_counts = key_counts_
                           ? std::make_shared<KeyCountMap>(*key_counts_)
                           : std::make_shared<KeyCountMap>();
    for (const auto& [key, count] : *key_counts) {
      std::uint32_t& slot = (*next_counts)[key];
      if (count > slot) {
        slot = count;
        mark_holders(key);
      }
    }
    key_counts_ = std::move(next_counts);
  }

  // The delta: every pre-existing cert marked above plus every new one.
  changed.resize(next->certs().size(), 1);
  std::vector<scan::CertId> delta;
  for (std::size_t i = 0; i < changed.size(); ++i) {
    if (changed[i] != 0) delta.push_back(static_cast<scan::CertId>(i));
  }
  result.delta_size = delta.size();

  // Commit the append-side key map only now that nothing can fail.
  for (const auto& [key, id] : new_keys) keys_[key].push_back(id);
  publish(std::move(next), std::move(delta), extend);
  result.ok = true;
  return result;
}

AppendResult LiveCorpus::retire_prefix(std::uint8_t lo, std::uint8_t hi) {
  std::lock_guard lock(append_mutex_);
  AppendResult result;
  const std::shared_ptr<const LiveSnapshot> cur = snapshot();
  auto next = std::make_shared<scan::ScanArchive>(
      filter_prefix(*cur->archive, lo, hi, /*inside=*/false, 0));

  // Ids were remapped: rebuild the key map and invalidate everything —
  // the delta spans every id either epoch ever used, so no stale render
  // survives under a reused id.
  keys_ = key_holders(*next);
  if (statuses_) {
    auto kept = std::make_shared<RevocationStatusMap>(*statuses_);
    std::erase_if(*kept, [&](const auto& entry) {
      return in_prefix(entry.first, lo, hi);
    });
    statuses_ = kept->empty() ? nullptr : std::move(kept);
  }
  // key_counts_ stays: full-corpus degrees are true regardless of which
  // slice this daemon serves.

  std::vector<scan::CertId> delta(
      std::max(cur->archive->certs().size(), next->certs().size()));
  std::iota(delta.begin(), delta.end(), scan::CertId{0});
  result.delta_size = delta.size();
  publish(std::move(next), std::move(delta), /*extend=*/false);
  result.ok = true;
  return result;
}

scan::ScanArchive extract_segment(const scan::ScanArchive& full,
                                  std::size_t first, std::size_t last) {
  scan::ScanArchive segment;
  last = std::min(last, full.scans().size());
  // Dense re-intern of the observed certificates, first observation first.
  std::vector<scan::CertId> local(full.certs().size(), kUnmapped);
  for (std::size_t s = first; s < last; ++s) {
    const scan::ScanData& scan = full.scans()[s];
    scan::ScanData copy;
    copy.event = scan.event;
    copy.observations.reserve(scan.observations.size());
    for (const scan::Observation& obs : scan.observations) {
      if (local[obs.cert] == kUnmapped) {
        local[obs.cert] = segment.intern(full.cert(obs.cert));
      }
      copy.observations.push_back({local[obs.cert], obs.ip, obs.device});
    }
    segment.add_scan(std::move(copy));
  }
  return segment;
}

scan::ScanArchive extract_prefix_slice(const scan::ScanArchive& full,
                                       std::uint8_t lo, std::uint8_t hi,
                                       std::size_t first_scan) {
  return filter_prefix(full, lo, hi, /*inside=*/true, first_scan);
}

}  // namespace sm::corpus
