#include "analysis/diversity.h"

#include <algorithm>
#include <string_view>
#include <unordered_map>

#include "net/ipv4.h"
#include "util/hex.h"

namespace sm::analysis {

namespace {

bool version_legal(const scan::CertRecord& cert) {
  return cert.raw_version >= 0 && cert.raw_version <= 2;
}

// Issuer display key: the CN, or "(Empty string)" as the paper prints it.
std::string_view issuer_key(const scan::CertRecord& cert) {
  return cert.issuer_cn.empty() ? std::string_view("(Empty string)")
                                : std::string_view(cert.issuer_cn);
}

}  // namespace

KeyDiversity compute_key_diversity(const scan::ScanArchive& archive) {
  std::unordered_map<scan::KeyFingerprint, std::uint64_t> valid_keys,
      invalid_keys;
  std::uint64_t valid_total = 0, invalid_total = 0;
  for (const scan::CertRecord& cert : archive.certs()) {
    if (!version_legal(cert)) continue;
    if (cert.valid) {
      ++valid_keys[cert.key_fingerprint];
      ++valid_total;
    } else {
      ++invalid_keys[cert.key_fingerprint];
      ++invalid_total;
    }
  }
  const auto collect = [](const auto& keys) {
    std::vector<std::uint64_t> mult;
    mult.reserve(keys.size());
    for (const auto& [key, count] : keys) mult.push_back(count);
    return mult;
  };
  const auto shared_fraction = [](const auto& keys, std::uint64_t total) {
    std::uint64_t shared = 0;
    for (const auto& [key, count] : keys) {
      if (count >= 2) shared += count;
    }
    return total == 0 ? 0.0
                      : static_cast<double>(shared) /
                            static_cast<double>(total);
  };

  KeyDiversity out;
  out.valid_curve = util::coverage_curve(collect(valid_keys), 512);
  out.invalid_curve = util::coverage_curve(collect(invalid_keys), 512);
  out.valid_shared_fraction = shared_fraction(valid_keys, valid_total);
  out.invalid_shared_fraction = shared_fraction(invalid_keys, invalid_total);
  for (const auto& [key, count] : invalid_keys) {
    out.top_invalid_key_certs = std::max(out.top_invalid_key_certs, count);
  }
  out.top_invalid_key_share =
      invalid_total == 0 ? 0.0
                         : static_cast<double>(out.top_invalid_key_certs) /
                               static_cast<double>(invalid_total);
  return out;
}

IssuerDiversity compute_issuer_diversity(const scan::ScanArchive& archive,
                                         std::size_t n) {
  util::Counter valid_issuers, invalid_issuers;
  util::Counter valid_parent_keys, invalid_parent_keys;
  std::uint64_t invalid_total = 0, invalid_private_ip = 0;
  for (const scan::CertRecord& cert : archive.certs()) {
    if (!version_legal(cert)) continue;
    if (cert.valid) {
      valid_issuers.add(issuer_key(cert));
      if (!cert.aki_hex.empty()) valid_parent_keys.add(cert.aki_hex);
    } else {
      invalid_issuers.add(issuer_key(cert));
      ++invalid_total;
      if (!cert.aki_hex.empty()) invalid_parent_keys.add(cert.aki_hex);
      const auto ip = net::Ipv4Address::parse(cert.issuer_cn);
      if (ip && net::is_private(*ip)) ++invalid_private_ip;
    }
  }
  IssuerDiversity out;
  for (const auto& [name, count] : valid_issuers.top(n)) {
    out.top_valid.push_back(IssuerRow{name, count});
  }
  for (const auto& [name, count] : invalid_issuers.top(n)) {
    out.top_invalid.push_back(IssuerRow{name, count});
  }
  out.valid_parent_keys = valid_parent_keys.distinct();
  out.invalid_parent_keys = invalid_parent_keys.distinct();
  out.valid_keys_for_half = valid_parent_keys.keys_to_cover(0.5);
  if (invalid_parent_keys.total() > 0) {
    std::uint64_t top5 = 0;
    for (const auto& [key, count] : invalid_parent_keys.top(5)) top5 += count;
    out.invalid_top5_key_share =
        static_cast<double>(top5) /
        static_cast<double>(invalid_parent_keys.total());
  }
  out.invalid_private_ip_issuer_fraction =
      invalid_total == 0 ? 0.0
                         : static_cast<double>(invalid_private_ip) /
                               static_cast<double>(invalid_total);
  return out;
}

HostDiversity compute_host_diversity(const DatasetIndex& index) {
  const auto& certs = index.archive().certs();
  std::vector<double> valid_avgs, invalid_avgs;
  std::uint64_t invalid_total = 0, invalid_multihost = 0;
  for (scan::CertId id = 0; id < certs.size(); ++id) {
    const CertStats& stats = index.stats(id);
    if (stats.scans_seen == 0 || !version_legal(certs[id])) continue;
    if (certs[id].valid) {
      valid_avgs.push_back(stats.avg_ips_per_scan());
    } else {
      invalid_avgs.push_back(stats.avg_ips_per_scan());
      ++invalid_total;
      if (stats.max_ips_in_scan > 2) ++invalid_multihost;
    }
  }
  HostDiversity out;
  out.valid_avg_ips = util::EmpiricalCdf(std::move(valid_avgs));
  out.invalid_avg_ips = util::EmpiricalCdf(std::move(invalid_avgs));
  if (!out.valid_avg_ips.empty()) out.valid_p99 = out.valid_avg_ips.percentile(0.99);
  if (!out.invalid_avg_ips.empty()) {
    out.invalid_p99 = out.invalid_avg_ips.percentile(0.99);
  }
  out.invalid_multihost_fraction =
      invalid_total == 0 ? 0.0
                         : static_cast<double>(invalid_multihost) /
                               static_cast<double>(invalid_total);
  return out;
}

AsDiversity compute_as_diversity(const DatasetIndex& index) {
  const auto& certs = index.archive().certs();
  std::vector<double> valid_counts, invalid_counts;
  util::Counter valid_as, invalid_as;
  for (scan::CertId id = 0; id < certs.size(); ++id) {
    const CertStats& stats = index.stats(id);
    if (stats.scans_seen == 0 || !version_legal(certs[id])) continue;
    const std::string as_key = std::to_string(stats.majority_as);
    if (certs[id].valid) {
      valid_counts.push_back(stats.distinct_as_count);
      valid_as.add(as_key);
    } else {
      invalid_counts.push_back(stats.distinct_as_count);
      invalid_as.add(as_key);
    }
  }
  AsDiversity out;
  out.valid_as_counts = util::EmpiricalCdf(std::move(valid_counts));
  out.invalid_as_counts = util::EmpiricalCdf(std::move(invalid_counts));
  const auto top_share = [](const util::Counter& counter) {
    if (counter.total() == 0) return 0.0;
    const auto top = counter.top(1);
    return static_cast<double>(top[0].second) /
           static_cast<double>(counter.total());
  };
  out.valid_top_as_share = top_share(valid_as);
  out.invalid_top_as_share = top_share(invalid_as);
  out.valid_ases_for_70 = valid_as.keys_to_cover(0.7);
  out.invalid_ases_for_70 = invalid_as.keys_to_cover(0.7);
  return out;
}

AsTypeBreakdown compute_as_type_breakdown(const DatasetIndex& index,
                                          const net::AsDatabase& as_db) {
  const auto& certs = index.archive().certs();
  std::map<net::AsType, std::pair<std::uint64_t, std::uint64_t>> counts;
  std::uint64_t valid_total = 0, invalid_total = 0;
  for (scan::CertId id = 0; id < certs.size(); ++id) {
    const CertStats& stats = index.stats(id);
    if (stats.scans_seen == 0 || !version_legal(certs[id])) continue;
    const net::AsType type = as_db.type_of(stats.majority_as);
    if (certs[id].valid) {
      ++counts[type].first;
      ++valid_total;
    } else {
      ++counts[type].second;
      ++invalid_total;
    }
  }
  AsTypeBreakdown out;
  for (const auto& [type, pair] : counts) {
    out.shares[type] = {
        valid_total == 0 ? 0.0
                         : static_cast<double>(pair.first) /
                               static_cast<double>(valid_total),
        invalid_total == 0 ? 0.0
                           : static_cast<double>(pair.second) /
                                 static_cast<double>(invalid_total)};
  }
  return out;
}

TopAses compute_top_ases(const DatasetIndex& index,
                         const net::AsDatabase& as_db, std::size_t n) {
  const auto& certs = index.archive().certs();
  util::Counter valid_as, invalid_as;
  for (scan::CertId id = 0; id < certs.size(); ++id) {
    const CertStats& stats = index.stats(id);
    if (stats.scans_seen == 0 || !version_legal(certs[id])) continue;
    (certs[id].valid ? valid_as : invalid_as)
        .add(std::to_string(stats.majority_as));
  }
  TopAses out;
  const auto fill = [&](const util::Counter& counter,
                        std::vector<TopAsRow>& rows) {
    for (const auto& [key, count] : counter.top(n)) {
      const net::Asn asn = static_cast<net::Asn>(std::stoul(key));
      rows.push_back(TopAsRow{asn, as_db.label(asn), count});
    }
  };
  fill(valid_as, out.valid);
  fill(invalid_as, out.invalid);
  return out;
}

std::string classify_issuer(const std::string& issuer_cn) {
  const auto contains = [&](const char* needle) {
    return issuer_cn.find(needle) != std::string::npos;
  };
  if (contains("lancom") || contains("fritz") || issuer_cn.rfind("192.168.", 0) == 0 ||
      issuer_cn.rfind("10.", 0) == 0 || contains("router") ||
      contains("LANCOM")) {
    return "Home router/cable modem";
  }
  if (contains("remotewd") || contains("WD2GO") || contains("mycloud")) {
    return "Remote storage";
  }
  if (contains("VMware") || contains("vmware") || contains("esx-")) {
    return "Remote administration";
  }
  if (contains("vpn") || contains("VPN")) return "VPN";
  if (contains("Firewall") || contains("SonicWALL") || contains("fw-")) {
    return "Firewall";
  }
  if (contains("HikVision") || contains("cam") || contains("Camera")) {
    return "IP camera";
  }
  if (contains("iptv") || contains("SIP") || contains("printer") ||
      contains("CAcert") || contains("IPTV")) {
    return "Other";
  }
  return "Unknown";
}

DeviceTypeBreakdown compute_device_types(const scan::ScanArchive& archive,
                                         std::size_t top_issuers) {
  util::Counter issuers;
  for (const scan::CertRecord& cert : archive.certs()) {
    if (cert.valid || !version_legal(cert)) continue;
    issuers.add(issuer_key(cert));
  }
  util::Counter types;
  for (const auto& [issuer, count] : issuers.top(top_issuers)) {
    types.add(issuer == "(Empty string)" ? "Unknown" : classify_issuer(issuer),
              count);
  }
  DeviceTypeBreakdown out;
  out.classified_certs = types.total();
  for (const auto& [type, count] : types.raw()) {
    out.shares.emplace_back(
        type, static_cast<double>(count) /
                  static_cast<double>(std::max<std::uint64_t>(1, types.total())));
  }
  // Ties go to the smaller type name, so the order is independent of the
  // counter's iteration order.
  std::sort(out.shares.begin(), out.shares.end(),
            [](const auto& a, const auto& b) {
              if (a.second != b.second) return a.second > b.second;
              return a.first < b.first;
            });
  return out;
}

}  // namespace sm::analysis
