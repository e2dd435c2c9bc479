#include "linking/feature.h"

#include <algorithm>
#include <cstdio>

#include "net/ipv4.h"

namespace sm::linking {

std::string to_string(Feature feature) {
  switch (feature) {
    case Feature::kPublicKey:
      return "Public Key";
    case Feature::kNotBefore:
      return "Not Before";
    case Feature::kCommonName:
      return "Common Name";
    case Feature::kNotAfter:
      return "Not After";
    case Feature::kIssuerSerial:
      return "IN + SN";
    case Feature::kSan:
      return "SAN";
    case Feature::kCrl:
      return "CRL";
    case Feature::kAia:
      return "AIA";
    case Feature::kOcsp:
      return "OCSP";
    case Feature::kOid:
      return "OID";
  }
  return "?";
}

FeatureKey feature_key(const scan::CertRecord& cert, Feature feature,
                       bool exclude_ip_common_names, KeyBuffer& buffer) {
  FeatureKey key;
  switch (feature) {
    case Feature::kPublicKey:
      key.number = cert.key_fingerprint;
      break;
    case Feature::kNotBefore:
      key.number = static_cast<std::uint64_t>(cert.not_before);
      break;
    case Feature::kNotAfter:
      key.number = static_cast<std::uint64_t>(cert.not_after);
      break;
    case Feature::kCommonName:
      if (!exclude_ip_common_names || cert.subject_cn.empty() ||
          !net::looks_like_ipv4(cert.subject_cn)) {
        key.text = cert.subject_cn;
      }
      break;
    case Feature::kIssuerSerial:
      if (cert.issuer_dn.empty() && cert.serial_hex.empty()) break;
      buffer.text.assign(cert.issuer_dn);
      buffer.text.push_back('#');
      buffer.text.append(cert.serial_hex);
      key.text = buffer.text;
      break;
    case Feature::kSan:
      if (cert.san.size() == 1) {
        key.text = cert.san.front();
        break;
      }
      buffer.san.clear();
      for (const std::string& entry : cert.san) buffer.san.push_back(&entry);
      std::sort(buffer.san.begin(), buffer.san.end(),
                [](const std::string* a, const std::string* b) {
                  return *a < *b;
                });
      buffer.text.clear();
      for (std::size_t i = 0; i < buffer.san.size(); ++i) {
        if (i) buffer.text.push_back('|');
        buffer.text.append(*buffer.san[i]);
      }
      key.text = buffer.text;
      break;
    case Feature::kCrl:
      key.text = cert.crl_url;
      break;
    case Feature::kAia:
      key.text = cert.aia_url;
      break;
    case Feature::kOcsp:
      key.text = cert.ocsp_url;
      break;
    case Feature::kOid:
      key.text = cert.policy_oid;
      break;
  }
  return key;
}

std::string feature_value(const scan::CertRecord& cert, Feature feature,
                          bool exclude_ip_common_names) {
  KeyBuffer buffer;
  const FeatureKey key =
      feature_key(cert, feature, exclude_ip_common_names, buffer);
  if (feature == Feature::kPublicKey) {
    char buf[20];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(key.number));
    return buf;
  }
  if (is_integer_feature(feature)) {
    return std::to_string(static_cast<util::UnixTime>(key.number));
  }
  return std::string(key.text);
}

}  // namespace sm::linking
