// FeatureIndex — interned feature values for the linking pipeline.
//
// The §6 linker touches every (certificate, feature) value many times:
// Table 5 uniqueness, per-field grouping, and iterative linking. This
// index interns each feature ONCE into
//   * a column: CertId -> uint32 value id (kNoValue when absent), and
//   * a CSR map: value id -> the certificates carrying it, ascending id,
// so every downstream pass is integer-only and allocation-free.
//
// Interning builds no string per certificate: a certificate's key comes
// from `feature_key` (feature.h), an integer for Public Key / Not Before /
// Not After and otherwise a view into the record or into one reused
// buffer; only each distinct string key is copied, once, into an arena.
//
// Value ids are assigned in first-appearance order over ascending CertId,
// which makes group enumeration deterministic and independent of hash
// seeds and thread counts.
#pragma once

#include <cstdint>
#include <vector>

#include "linking/feature.h"
#include "scan/archive.h"
#include "util/thread_pool.h"

namespace sm::linking {

class FeatureIndex {
 public:
  /// Column entry for certificates where the feature is absent, not
  /// applicable, or the certificate is outside `include`.
  static constexpr std::uint32_t kNoValue = 0xffffffffu;

  /// Interns every feature of every certificate where `include` is true
  /// (pass the linker's eligibility mask so excluded certificates cost
  /// nothing). Features are interned in parallel on `pool` (global pool
  /// when null); the result is identical for every thread count.
  FeatureIndex(const scan::CertTable& certs,
               const std::vector<bool>& include, bool exclude_ip_common_names,
               util::ThreadPool* pool = nullptr);

  std::size_t cert_count() const { return cert_count_; }

  /// The value id of `cert` for `feature` (kNoValue when absent).
  std::uint32_t value_id(Feature feature, scan::CertId cert) const {
    return per_feature_[index(feature)].column[cert];
  }

  /// CertId -> value id column for `feature`.
  const std::vector<std::uint32_t>& column(Feature feature) const {
    return per_feature_[index(feature)].column;
  }

  /// Number of distinct (non-empty) values of `feature`.
  std::uint32_t value_count(Feature feature) const {
    const auto& f = per_feature_[index(feature)];
    return static_cast<std::uint32_t>(f.offsets.size() - 1);
  }

  /// The certificates carrying value `value` of `feature`, ascending id.
  struct CertSpan {
    const scan::CertId* begin_ptr;
    const scan::CertId* end_ptr;
    const scan::CertId* begin() const { return begin_ptr; }
    const scan::CertId* end() const { return end_ptr; }
    std::size_t size() const {
      return static_cast<std::size_t>(end_ptr - begin_ptr);
    }
  };
  CertSpan certs_with_value(Feature feature, std::uint32_t value) const {
    const auto& f = per_feature_[index(feature)];
    return CertSpan{f.members.data() + f.offsets[value],
                    f.members.data() + f.offsets[value + 1]};
  }

  /// Number of certificates carrying value `value` of `feature`.
  std::uint32_t multiplicity(Feature feature, std::uint32_t value) const {
    const auto& f = per_feature_[index(feature)];
    return f.offsets[value + 1] - f.offsets[value];
  }

 private:
  struct PerFeature {
    std::vector<std::uint32_t> column;   // CertId -> value id
    std::vector<std::uint32_t> offsets;  // value id -> members begin (CSR)
    std::vector<scan::CertId> members;   // concatenated cert lists
  };

  static std::size_t index(Feature feature) {
    return static_cast<std::size_t>(feature);
  }

  std::size_t cert_count_ = 0;
  std::vector<PerFeature> per_feature_;
};

}  // namespace sm::linking
