// The certificate features the paper's linking methodology considers
// (Tables 5 and 6), and the one definition of each feature's key: which
// record fields two certificates must share to share a feature value.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "scan/cert_record.h"

namespace sm::linking {

/// A linkable certificate field, in the paper's Table 6 column order.
enum class Feature : std::uint8_t {
  kPublicKey = 0,
  kNotBefore,
  kCommonName,
  kNotAfter,
  kIssuerSerial,  ///< Issuer Name + Serial Number ("IN + SN")
  kSan,
  kCrl,
  kAia,
  kOcsp,
  kOid,
};

/// All features, Table 6 order.
inline constexpr std::array<Feature, 10> kAllFeatures = {
    Feature::kPublicKey, Feature::kNotBefore,   Feature::kCommonName,
    Feature::kNotAfter,  Feature::kIssuerSerial, Feature::kSan,
    Feature::kCrl,       Feature::kAia,          Feature::kOcsp,
    Feature::kOid,
};

/// Display name, e.g. "Public Key", "IN + SN".
std::string to_string(Feature feature);

/// Features keyed by an integer (the key fingerprint and the two validity
/// bounds); every certificate has a value for them.
constexpr bool is_integer_feature(Feature feature) {
  return feature == Feature::kPublicKey || feature == Feature::kNotBefore ||
         feature == Feature::kNotAfter;
}

/// Reusable scratch space for the composed keys (IN + SN, multi-entry
/// SAN lists). Keep one per thread: once grown, a key costs no allocation.
struct KeyBuffer {
  std::string text;
  std::vector<const std::string*> san;
};

/// A certificate's key for one feature. Integer features carry `number`
/// (a validity bound as its two's-complement bits); string features carry
/// `text`, a view into the record or into the KeyBuffer, empty when the
/// feature is absent. Two certificates share a feature value iff their
/// keys are equal.
struct FeatureKey {
  std::uint64_t number = 0;
  std::string_view text;
};

/// The key rules. IN + SN is `issuer_dn + "#" + serial_hex` (absent when
/// both are empty), SAN the sorted entries joined by '|', and, when
/// `exclude_ip_common_names` is set, a Common Name that parses as an IPv4
/// address is absent (the paper's §6.4.1 rule: 46.9% of invalid CNs are
/// IP-formatted and must not drive linking). `text` stays valid until the
/// next call with `buffer` and while `cert` is unchanged.
FeatureKey feature_key(const scan::CertRecord& cert, Feature feature,
                       bool exclude_ip_common_names, KeyBuffer& buffer);

/// The key rendered as a string ("" when absent): the key fingerprint as
/// 16 hex digits, the validity bounds in decimal, string keys as they are.
std::string feature_value(const scan::CertRecord& cert, Feature feature,
                          bool exclude_ip_common_names = true);

}  // namespace sm::linking
