#include "corpus/corpus_index.h"

#include <algorithm>
#include <bit>
#include <limits>
#include <stdexcept>

#include "util/datetime.h"

namespace sm::corpus {

namespace {

// Chunk sizes for the parallel passes. Observation chunks are large (the
// per-element work is one trie lookup); cert chunks are smaller because a
// single cert can own thousands of observations.
constexpr std::size_t kAsnChunk = 8192;
constexpr std::size_t kStatsChunk = 256;

/// Distinct values among `keys` through a scratch open-addressing set:
/// linear where a sort of a long row of changing IPs is not. A slot holds
/// key | 2^32, so 0 marks it empty.
std::uint32_t count_distinct(const std::vector<std::uint32_t>& keys,
                             std::vector<std::uint64_t>& seen) {
  if (keys.size() < 2) return static_cast<std::uint32_t>(keys.size());
  const std::size_t capacity = std::bit_ceil(2 * keys.size());
  const int shift = 64 - std::countr_zero(capacity);
  seen.assign(capacity, 0);
  std::uint32_t distinct = 0;
  for (const std::uint32_t key : keys) {
    const std::uint64_t tagged = key | (std::uint64_t{1} << 32);
    // Fibonacci hashing: the top bits of key * 2^64/phi.
    std::size_t i =
        static_cast<std::size_t>((key * 0x9e3779b97f4a7c15ull) >> shift);
    while (seen[i] != 0 && seen[i] != tagged) i = (i + 1) & (capacity - 1);
    if (seen[i] == 0) {
      seen[i] = tagged;
      ++distinct;
    }
  }
  return distinct;
}

}  // namespace

CorpusIndex::CorpusIndex(const scan::ScanArchive& archive,
                         const CorpusOptions& options)
    : archive_(&archive), routing_(options.routing) {
  util::ThreadPool* pool = options.pool;
  if (pool == nullptr) pool = &util::ThreadPool::global();

  const auto& scans = archive.scans();
  const std::size_t cert_count = archive.certs().size();

  scan_tables_.reserve(scans.size());
  for (const scan::ScanData& scan : scans) {
    scan_tables_.push_back(routing_ == nullptr ? nullptr
                                               : routing_->at(scan.event.start));
  }

  // Pass 1 (serial): count observations per cert, prefix-sum into the CSR
  // offsets. The layout depends only on archive order, never on threads.
  offsets_.assign(cert_count + 1, 0);
  for (const scan::ScanData& scan : scans) {
    for (const scan::Observation& obs : scan.observations) {
      ++offsets_[obs.cert + 1];
    }
  }
  for (std::size_t i = 1; i <= cert_count; ++i) offsets_[i] += offsets_[i - 1];

  // Pass 2 (serial): scatter observations into cert-major rows. Walking
  // scans in order makes every row sorted by (scan, intra-scan position),
  // and the first write to a row is the cert's first-ever observation.
  obs_.resize(offsets_[cert_count]);
  first_device_.assign(cert_count, scan::kNoDevice);
  std::vector<std::uint64_t> cursor(offsets_.begin(), offsets_.end() - 1);
  for (std::size_t scan_index = 0; scan_index < scans.size(); ++scan_index) {
    const auto scan32 = static_cast<std::uint32_t>(scan_index);
    for (const scan::Observation& obs : scans[scan_index].observations) {
      const std::uint64_t slot = cursor[obs.cert]++;
      if (slot == offsets_[obs.cert]) first_device_[obs.cert] = obs.device;
      obs_[slot] = Obs{scan32, obs.ip};
    }
  }

  // Pass 3 (parallel): resolve the ASN column. Each slot is written exactly
  // once from its own index, so the column is thread-count-invariant.
  obs_asn_.resize(obs_.size());
  pool->parallel_for(obs_.size(), kAsnChunk,
                     [&](std::size_t begin, std::size_t end) {
                       for (std::size_t i = begin; i < end; ++i) {
                         obs_asn_[i] = resolve(i);
                       }
                     });

  // Pass 4 (parallel): derive the per-cert stats row from the cert's own
  // CSR segment — again one writer per slot.
  stats_.assign(cert_count, CertStats{});
  pool->parallel_for(cert_count, kStatsChunk,
                     [&](std::size_t begin, std::size_t end) {
                       Scratch scratch;
                       for (std::size_t id = begin; id < end; ++id) {
                         derive_stats(id, scratch);
                       }
                     });
}

CorpusIndex::CorpusIndex(const scan::ScanArchive& archive,
                         const CorpusIndex& prev, const CorpusOptions& options)
    : archive_(&archive), routing_(options.routing) {
  util::ThreadPool* pool = options.pool;
  if (pool == nullptr) pool = &util::ThreadPool::global();

  const auto& scans = archive.scans();
  const std::size_t cert_count = archive.certs().size();
  const std::size_t old_certs = prev.cert_count();
  const std::size_t old_scans = prev.scan_count();
  if (cert_count < old_certs || scans.size() < old_scans) {
    throw std::invalid_argument(
        "CorpusIndex: archive has fewer certificates or scans than the "
        "spine it extends");
  }
  if (routing_ != prev.routing_) {
    throw std::invalid_argument(
        "CorpusIndex: extension must use the previous spine's routing");
  }
  std::uint64_t old_obs = 0;
  for (std::size_t s = 0; s < old_scans; ++s) {
    old_obs += scans[s].observations.size();
  }
  if (old_obs != prev.observation_count()) {
    throw std::invalid_argument(
        "CorpusIndex: archive's old scans differ from the extended spine's");
  }

  scan_tables_.reserve(scans.size());
  scan_tables_.assign(prev.scan_tables_.begin(), prev.scan_tables_.end());
  for (std::size_t s = old_scans; s < scans.size(); ++s) {
    scan_tables_.push_back(routing_ == nullptr
                               ? nullptr
                               : routing_->at(scans[s].event.start));
  }

  // Pass 1 (serial): each row grows by the cert's new observations; the
  // offsets follow, in the same archive-defined layout a cold build uses.
  std::vector<std::uint64_t> added(cert_count, 0);
  for (std::size_t s = old_scans; s < scans.size(); ++s) {
    for (const scan::Observation& obs : scans[s].observations) {
      ++added[obs.cert];
    }
  }
  offsets_.resize(cert_count + 1);
  offsets_[0] = 0;
  for (std::size_t i = 0; i < cert_count; ++i) {
    const std::uint64_t old_len =
        i < old_certs ? prev.offsets_[i + 1] - prev.offsets_[i] : 0;
    offsets_[i + 1] = offsets_[i] + old_len + added[i];
  }

  // Pass 2 (parallel): move each old row, ASNs included, to its new start.
  obs_.resize(offsets_[cert_count]);
  obs_asn_.resize(obs_.size());
  pool->parallel_for(
      old_certs, kStatsChunk, [&](std::size_t begin, std::size_t end) {
        for (std::size_t i = begin; i < end; ++i) {
          const auto lo = static_cast<std::ptrdiff_t>(prev.offsets_[i]);
          const auto hi = static_cast<std::ptrdiff_t>(prev.offsets_[i + 1]);
          const auto to = static_cast<std::ptrdiff_t>(offsets_[i]);
          std::copy(prev.obs_.begin() + lo, prev.obs_.begin() + hi,
                    obs_.begin() + to);
          std::copy(prev.obs_asn_.begin() + lo, prev.obs_asn_.begin() + hi,
                    obs_asn_.begin() + to);
        }
      });

  // Pass 3 (serial): append the new observations behind each old row, in
  // scan order, exactly as the cold scatter would place them.
  first_device_.assign(cert_count, scan::kNoDevice);
  std::copy(prev.first_device_.begin(), prev.first_device_.end(),
            first_device_.begin());
  std::vector<std::uint64_t> cursor(cert_count);
  std::vector<std::uint64_t> fresh;  // slots written by this pass
  std::vector<scan::CertId> touched;  // certs with new observations
  for (std::size_t i = 0; i < cert_count; ++i) {
    cursor[i] = offsets_[i + 1] - added[i];
    if (added[i] != 0) touched.push_back(static_cast<scan::CertId>(i));
  }
  for (std::size_t s = old_scans; s < scans.size(); ++s) {
    const auto scan32 = static_cast<std::uint32_t>(s);
    for (const scan::Observation& obs : scans[s].observations) {
      const std::uint64_t slot = cursor[obs.cert]++;
      if (slot == offsets_[obs.cert]) first_device_[obs.cert] = obs.device;
      obs_[slot] = Obs{scan32, obs.ip};
      fresh.push_back(slot);
    }
  }

  // Pass 4 (parallel): resolve only the new slots.
  pool->parallel_for(fresh.size(), kAsnChunk,
                     [&](std::size_t begin, std::size_t end) {
                       for (std::size_t i = begin; i < end; ++i) {
                         obs_asn_[fresh[i]] = resolve(fresh[i]);
                       }
                     });

  // Pass 5 (parallel): an untouched row keeps its stats; re-derive the
  // touched ones.
  stats_.reserve(cert_count);
  stats_.assign(prev.stats_.begin(), prev.stats_.end());
  stats_.resize(cert_count);
  pool->parallel_for(touched.size(), kStatsChunk,
                     [&](std::size_t begin, std::size_t end) {
                       Scratch scratch;
                       for (std::size_t t = begin; t < end; ++t) {
                         derive_stats(touched[t], scratch);
                       }
                     });
}

net::Asn CorpusIndex::resolve(std::uint64_t slot) const {
  const net::RouteTable* table = scan_tables_[obs_[slot].scan];
  return table == nullptr
             ? 0
             : table->lookup(net::Ipv4Address(obs_[slot].ip)).value_or(0);
}

void CorpusIndex::derive_stats(std::size_t id, Scratch& scratch) {
  const std::uint64_t lo = offsets_[id];
  const std::uint64_t hi = offsets_[id + 1];
  if (lo == hi) return;  // interned but never observed
  const auto row_begin = obs_.begin() + static_cast<std::ptrdiff_t>(lo);
  const auto row_end = obs_.begin() + static_cast<std::ptrdiff_t>(hi);
  CertStats& s = stats_[id];
  s = CertStats{};
  s.first_scan = obs_[lo].scan;
  s.last_scan = obs_[hi - 1].scan;

  const std::uint32_t first_ip = obs_[lo].ip;
  if (std::all_of(row_begin + 1, row_end,
                  [first_ip](const Obs& o) { return o.ip == first_ip; })) {
    // One IP for life, like most device certificates: every scan the
    // cert appears in counts exactly one unique IP.
    for (std::uint64_t i = lo; i < hi; ++i) {
      if (i == lo || obs_[i].scan != obs_[i - 1].scan) ++s.scans_seen;
    }
    s.total_ip_scan_slots = s.scans_seen;
    s.max_ips_in_scan = 1;
    s.min_ips_in_scan = 1;
    s.distinct_ips = 1;
    s.distinct_slash24s = 1;
  } else {
    // Per-scan runs: unique-IP counts feed the slot/min/max metrics. Each
    // run's unique IPs also collect in row_ips for the row-wide counts,
    // unless they repeat the previous run's set.
    std::vector<std::uint32_t>& ips = scratch.scan_ips;
    std::vector<std::uint32_t>& row_ips = scratch.row_ips;
    row_ips.clear();
    std::size_t last_set = 0;  // where the previous run's set starts
    s.min_ips_in_scan = std::numeric_limits<std::uint32_t>::max();
    for (std::uint64_t i = lo; i < hi;) {
      const std::uint32_t scan = obs_[i].scan;
      ips.clear();
      while (i < hi && obs_[i].scan == scan) ips.push_back(obs_[i++].ip);
      std::sort(ips.begin(), ips.end());
      const auto ip_count = static_cast<std::uint32_t>(
          std::unique(ips.begin(), ips.end()) - ips.begin());
      ++s.scans_seen;
      s.total_ip_scan_slots += ip_count;
      s.max_ips_in_scan = std::max(s.max_ips_in_scan, ip_count);
      s.min_ips_in_scan = std::min(s.min_ips_in_scan, ip_count);
      const auto set_end = ips.begin() + ip_count;
      if (!std::equal(ips.begin(), set_end, row_ips.begin() + last_set,
                      row_ips.end())) {
        last_set = row_ips.size();
        row_ips.insert(row_ips.end(), ips.begin(), set_end);
      }
    }
    s.distinct_ips = count_distinct(row_ips, scratch.seen);
    for (std::uint32_t& ip : row_ips) ip >>= 8;
    s.distinct_slash24s = count_distinct(row_ips, scratch.seen);
  }

  if (routing_ == nullptr) return;
  const auto asn_begin = obs_asn_.begin() + static_cast<std::ptrdiff_t>(lo);
  const auto asn_end = obs_asn_.begin() + static_cast<std::ptrdiff_t>(hi);
  const net::Asn first_as = *asn_begin;
  if (std::all_of(asn_begin + 1, asn_end,
                  [first_as](net::Asn asn) { return asn == first_as; })) {
    s.distinct_as_count = 1;
    s.majority_as = first_as;
    s.distinct_routed_ases = first_as == 0 ? 0 : 1;
    return;
  }
  // Observation-weighted AS tally. Scanning runs of the sorted copy in
  // ascending ASN order with a strictly-greater test makes ties break
  // toward the smallest AS number; an ASN-0 run, if any, comes first.
  std::vector<net::Asn>& ases = scratch.ases;
  ases.assign(asn_begin, asn_end);
  std::sort(ases.begin(), ases.end());
  std::size_t best_count = 0;
  for (std::size_t i = 0; i < ases.size();) {
    std::size_t j = i;
    while (j < ases.size() && ases[j] == ases[i]) ++j;
    ++s.distinct_as_count;
    if (j - i > best_count) {
      best_count = j - i;
      s.majority_as = ases[i];
    }
    i = j;
  }
  s.distinct_routed_ases = s.distinct_as_count - (ases[0] == 0 ? 1 : 0);
}

double CorpusIndex::lifetime_days(scan::CertId id) const {
  const CertStats& s = stats_[id];
  if (s.scans_seen == 0) return 0;
  if (s.first_scan == s.last_scan) return 1;
  const auto& scans = archive_->scans();
  const double seconds = static_cast<double>(
      scans[s.last_scan].event.start - scans[s.first_scan].event.start);
  return seconds / static_cast<double>(util::kSecondsPerDay) + 1.0;
}

net::Asn CorpusIndex::as_of(std::size_t scan_index, std::uint32_t ip) const {
  const net::RouteTable* table = scan_tables_[scan_index];
  if (table == nullptr) return 0;
  return table->lookup(net::Ipv4Address(ip)).value_or(0);
}

}  // namespace sm::corpus
