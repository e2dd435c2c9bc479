#include "pki/verifier.h"

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <mutex>
#include <string_view>
#include <unordered_map>
#include <utility>

#include "util/thread_pool.h"
#include "x509/crl.h"

namespace sm::pki {

const char* reason_cstr(InvalidReason reason) {
  switch (reason) {
    case InvalidReason::kNone:
      return "none";
    case InvalidReason::kSelfSigned:
      return "self-signed";
    case InvalidReason::kUntrustedIssuer:
      return "untrusted-issuer";
    case InvalidReason::kBadSignature:
      return "bad-signature";
    case InvalidReason::kMalformedVersion:
      return "malformed-version";
    case InvalidReason::kNeverValid:
      return "never-valid";
    case InvalidReason::kExpired:
      return "expired";
    case InvalidReason::kRevoked:
      return "revoked";
  }
  return "unknown";
}

std::string to_string(InvalidReason reason) { return reason_cstr(reason); }

const char* revocation_status_cstr(RevocationStatus status) {
  switch (status) {
    case RevocationStatus::kGood:
      return "good";
    case RevocationStatus::kRevoked:
      return "revoked";
    case RevocationStatus::kStaleCrl:
      return "stale-crl";
    case RevocationStatus::kUnreachable:
      return "unreachable";
    case RevocationStatus::kUnknown:
      return "unknown";
  }
  return "unknown";
}

bool is_self_signature(const x509::Certificate& cert) {
  return crypto::verify(cert.spki, cert.tbs_der, cert.signature);
}

// Memoizes the chain-walk sub-results that are pure functions of
// store-resident certificates: whether a CA's signature is its own
// (self-signature), whether a CA is a trusted root, and whether issuer X
// signed store-resident child Y. Keys are certificate addresses, which is
// sound only for certificates whose storage outlives the memo — the
// BatchVerifier contract. Leaf-level checks are never memoized: leaves are
// caller-owned transients and mostly unique, so an address key would be
// both unsafe and useless.
//
// Racing threads may compute the same entry twice; both compute the same
// value (the functions are pure), so the winner of the emplace is
// indistinguishable from the loser and results stay deterministic. The
// counters are too: a signature check counts once per entry, when its
// emplace inserts, and every other lookup (a hit, or a losing emplace)
// counts as a memo hit, whatever the schedule.
class VerifierMemo {
 public:
  template <typename Fn>
  bool self_signature(const x509::Certificate* cert, Fn&& compute) {
    return memoized(self_sig_, static_cast<const void*>(cert),
                    /*counts_signature=*/true, std::forward<Fn>(compute));
  }

  template <typename Fn>
  bool root_member(const x509::Certificate* cert, Fn&& compute) {
    return memoized(root_member_, static_cast<const void*>(cert),
                    /*counts_signature=*/false, std::forward<Fn>(compute));
  }

  template <typename Fn>
  bool signature_pair(const x509::Certificate* issuer,
                      const x509::Certificate* child, Fn&& compute) {
    return memoized(sig_pair_, PtrPair{issuer, child},
                    /*counts_signature=*/true, std::forward<Fn>(compute));
  }

  std::atomic<std::uint64_t> verified{0};
  std::atomic<std::uint64_t> sig_checks{0};
  std::atomic<std::uint64_t> sig_cache_hits{0};

 private:
  using PtrPair = std::pair<const void*, const void*>;
  struct PtrPairHash {
    std::size_t operator()(const PtrPair& key) const {
      const auto a = reinterpret_cast<std::uintptr_t>(key.first);
      const auto b = reinterpret_cast<std::uintptr_t>(key.second);
      std::size_t h = a * 0x9e3779b97f4a7c15ull;
      h ^= b + 0x9e3779b97f4a7c15ull + (h << 6) + (h >> 2);
      return h;
    }
  };

  static constexpr std::size_t kShards = 16;

  template <typename MapT>
  struct Shards {
    struct Shard {
      std::mutex mutex;
      MapT map;
    };
    Shard shard[kShards];
  };

  // Returns the cached value for `key`, or computes it outside the lock and
  // caches it. The compute callback must be pure in `key`. With
  // `counts_signature`, the inserting call counts a signature check and
  // every other call a memo hit.
  template <typename MapT, typename KeyT, typename Fn>
  bool memoized(Shards<MapT>& shards, const KeyT& key, bool counts_signature,
                Fn&& compute) {
    auto& shard =
        shards.shard[typename MapT::hasher{}(key) % kShards];
    {
      std::lock_guard lock(shard.mutex);
      if (const auto it = shard.map.find(key); it != shard.map.end()) {
        if (counts_signature) {
          sig_cache_hits.fetch_add(1, std::memory_order_relaxed);
        }
        return it->second;
      }
    }
    const bool value = compute();
    std::lock_guard lock(shard.mutex);
    const auto [it, inserted] = shard.map.emplace(key, value);
    if (counts_signature) {
      (inserted ? sig_checks : sig_cache_hits)
          .fetch_add(1, std::memory_order_relaxed);
    }
    return it->second;
  }

  Shards<std::unordered_map<const void*, bool>> self_sig_;
  Shards<std::unordered_map<const void*, bool>> root_member_;
  Shards<std::unordered_map<PtrPair, bool, PtrPairHash>> sig_pair_;
};

Verifier::Verifier(const RootStore& roots, const IntermediatePool& intermediates,
                   VerifyOptions options)
    : roots_(roots), intermediates_(intermediates), options_(options) {}

ValidationResult Verifier::verify(
    const x509::Certificate& leaf,
    std::span<const x509::Certificate> presented) const {
  return verify_impl(leaf, presented, nullptr);
}

ValidationResult Verifier::verify_impl(
    const x509::Certificate& leaf,
    std::span<const x509::Certificate> presented, VerifierMemo* memo) const {
  ValidationResult out;
  if (memo != nullptr) memo->verified.fetch_add(1, std::memory_order_relaxed);

  if (!leaf.version_is_legal()) {
    out.reason = InvalidReason::kMalformedVersion;
    return out;
  }
  const auto time_ok = [&](const x509::Certificate& cert) -> InvalidReason {
    if (cert.validity.not_after < cert.validity.not_before) {
      return InvalidReason::kNeverValid;
    }
    if (options_.enforce_expiry &&
        (options_.at_time < cert.validity.not_before ||
         options_.at_time > cert.validity.not_after)) {
      return InvalidReason::kExpired;
    }
    return InvalidReason::kNone;
  };

  // One crypto::verify, memoized when both sides are store-resident (their
  // addresses are stable for the memo's lifetime). `resident` is tracked by
  // the walk below: candidates taken from the root store or intermediate
  // pool are resident; the leaf and presented certificates are not.
  const auto check_signature = [&](const x509::Certificate& issuer,
                                   bool issuer_resident,
                                   const x509::Certificate& child,
                                   bool child_resident) {
    const auto compute = [&] {
      return crypto::verify(issuer.spki, child.tbs_der, child.signature);
    };
    if (memo == nullptr) return compute();
    if (issuer_resident && child_resident) {
      return memo->signature_pair(&issuer, &child, compute);
    }
    memo->sig_checks.fetch_add(1, std::memory_order_relaxed);
    return compute();
  };
  const auto self_signature = [&](const x509::Certificate& cert,
                                  bool resident) {
    const auto compute = [&] { return is_self_signature(cert); };
    if (memo == nullptr) return compute();
    if (resident) return memo->self_signature(&cert, compute);
    memo->sig_checks.fetch_add(1, std::memory_order_relaxed);
    return compute();
  };
  const auto root_member = [&](const x509::Certificate& cert, bool resident) {
    const auto compute = [&] {
      return roots_.contains(cert.fingerprint_sha256());
    };
    if (memo != nullptr && resident) {
      return memo->root_member(&cert, compute);
    }
    return compute();
  };

  // Trusted root presented directly as the endpoint certificate. A
  // certificate byte-identical to a root carries that root's subject, so
  // the leaf is hashed only when some root has its subject.
  if (!roots_.matches(subject_lookup_key(leaf.subject)).empty() &&
      roots_.contains(leaf.fingerprint_sha256())) {
    out.valid = true;
    out.chain_length = 1;
    return out;
  }

  // Self-signed detection (error-19 analog + footnote-7 manual check).
  // Checked before the validity window so that a self-signed certificate
  // with a backwards validity period is classified self-signed, as openssl
  // error 19 fires before date checks — this keeps the paper's "other"
  // bucket tiny.
  if (self_signature(leaf, /*resident=*/false)) {
    out.reason = InvalidReason::kSelfSigned;
    return out;
  }

  // Leaf validity window (expiry ignored unless enforce_expiry).
  if (const InvalidReason r = time_ok(leaf); r != InvalidReason::kNone) {
    out.reason = r;
    return out;
  }

  // Walk up the chain. At each level, candidate issuers come from the root
  // store (reaching a root terminates the walk), then the presented chain,
  // then the intermediate pool (transvalid completion). The stores index by
  // encoded subject name, so the issuer key is computed once per level and
  // probes both stores without allocating candidate vectors.
  const x509::Certificate* current = &leaf;
  bool current_resident = false;
  bool used_pool = false;
  for (int depth = 1; depth < options_.max_chain_length; ++depth) {
    const SubjectKey issuer_key = subject_lookup_key(current->issuer);
    const x509::Certificate* next = nullptr;
    bool next_from_pool = false;
    bool next_resident = false;
    bool found_name_match = false;
    bool bad_signature_seen = false;

    const auto try_candidate = [&](const x509::Certificate& cand,
                                   bool from_pool, bool resident) {
      if (next) return;
      if (!(cand.subject == current->issuer)) return;
      found_name_match = true;
      if (!check_signature(cand, resident, *current, current_resident)) {
        bad_signature_seen = true;
        return;
      }
      if (time_ok(cand) != InvalidReason::kNone) return;
      next = &cand;
      next_from_pool = from_pool;
      next_resident = resident;
    };

    for (const std::size_t index : roots_.matches(issuer_key)) {
      try_candidate(roots_.at(index), false, /*resident=*/true);
      if (next) {
        out.valid = true;
        out.chain_length = depth + 1;
        out.transvalid = used_pool;
        return out;
      }
    }
    for (const x509::Certificate& cand : presented) {
      try_candidate(cand, false, /*resident=*/false);
    }
    if (!next) {
      for (const std::size_t index : intermediates_.matches(issuer_key)) {
        try_candidate(intermediates_.at(index), true, /*resident=*/true);
      }
    }
    if (!next) {
      out.reason = (found_name_match && bad_signature_seen)
                       ? InvalidReason::kBadSignature
                       : InvalidReason::kUntrustedIssuer;
      return out;
    }
    if (self_signature(*next, next_resident) &&
        !root_member(*next, next_resident)) {
      // Chain roots at an untrusted self-signed certificate.
      out.reason = InvalidReason::kUntrustedIssuer;
      return out;
    }
    used_pool = used_pool || next_from_pool;
    current = next;
    current_resident = next_resident;
  }
  out.reason = InvalidReason::kUntrustedIssuer;  // chain too long / dangling
  return out;
}

BatchVerifier::BatchVerifier(const RootStore& roots,
                             const IntermediatePool& intermediates,
                             VerifyOptions options)
    : base_(roots, intermediates, options),
      memo_(std::make_unique<VerifierMemo>()) {}

BatchVerifier::~BatchVerifier() = default;

ValidationResult BatchVerifier::verify(
    const x509::Certificate& leaf,
    std::span<const x509::Certificate> presented) const {
  return base_.verify_impl(leaf, presented, memo_.get());
}

std::vector<ValidationResult> BatchVerifier::verify_all(
    std::span<const x509::Certificate> leaves, util::ThreadPool* pool) const {
  std::vector<ValidationResult> results(leaves.size());
  util::ThreadPool& workers =
      pool != nullptr ? *pool : util::ThreadPool::global();
  workers.parallel_for(leaves.size(), 32,
                       [&](std::size_t begin, std::size_t end) {
                         for (std::size_t i = begin; i < end; ++i) {
                           results[i] = base_.verify_impl(leaves[i], {},
                                                          memo_.get());
                         }
                       });
  return results;
}

namespace {

// Everything a revocation pass learns about one issuer's CRL: computed
// once per issuer per check_revocation_all call, before any certificate is
// classified, and shared read-only by every certificate naming that
// issuer.
struct CrlVerdict {
  bool reachable = false;  ///< the distribution point answered
  bool verified = false;   ///< parsed + issuer signature checked + sane dates
  bool stale = false;      ///< nextUpdate < now
  std::vector<std::string> revoked_hex;  ///< revoked serials, sorted hex
};

}  // namespace

std::vector<RevocationStatus> BatchVerifier::check_revocation_all(
    std::span<const RevocationQuery> queries, const RevocationSource& source,
    util::UnixTime now, util::ThreadPool* pool) const {
  const RootStore& roots = base_.roots_;
  const IntermediatePool& intermediates = base_.intermediates_;
  util::ThreadPool& workers =
      pool != nullptr ? *pool : util::ThreadPool::global();

  const auto compute_verdict = [&](std::string_view issuer_key) {
    CrlVerdict verdict;
    util::Bytes der;
    if (!source.fetch_crl(issuer_key, der)) return verdict;
    verdict.reachable = true;
    std::optional<x509::Crl> crl = x509::parse_crl(der);
    if (!crl.has_value()) return verdict;
    // A CRL whose nextUpdate precedes thisUpdate is malformed, not merely
    // stale: a validity window that ends before it starts cannot be
    // reasoned about.
    if (crl->next_update.has_value() &&
        *crl->next_update < crl->this_update) {
      return verdict;
    }
    // The CRL is only trusted when a store-resident certificate with the
    // CRL's issuer name verifies its signature — the same stores the
    // chain walk trusts.
    const SubjectKey key = subject_lookup_key(crl->issuer);
    bool signed_by_issuer = false;
    const auto try_issuer = [&](const x509::Certificate& cand) {
      if (signed_by_issuer) return;
      if (!(cand.subject == crl->issuer)) return;
      if (crypto::verify(cand.spki, crl->tbs_der, crl->signature)) {
        signed_by_issuer = true;
      }
    };
    for (const std::size_t index : roots.matches(key)) {
      try_issuer(roots.at(index));
    }
    for (const std::size_t index : intermediates.matches(key)) {
      try_issuer(intermediates.at(index));
    }
    if (!signed_by_issuer) return verdict;
    verdict.verified = true;
    verdict.stale = crl->next_update.has_value() && *crl->next_update < now;
    verdict.revoked_hex.reserve(crl->revoked.size());
    for (const x509::RevokedEntry& entry : crl->revoked) {
      verdict.revoked_hex.push_back(entry.serial.to_hex());
    }
    std::sort(verdict.revoked_hex.begin(), verdict.revoked_hex.end());
    return verdict;
  };

  // Pre-pass: every distinct issuer a CRL-advertising certificate names,
  // in first-appearance order, and each such query's issuer slot. Verdicts
  // are pure functions of (source, issuer, now, stores), so resolving an
  // issuer whose certificates all end up answered by OCSP changes no
  // result.
  constexpr std::uint32_t kNoIssuer = 0xffffffff;
  std::vector<std::uint32_t> issuer_of(queries.size(), kNoIssuer);
  std::vector<std::string_view> issuers;
  {
    std::unordered_map<std::string_view, std::uint32_t> slot_of;
    for (std::size_t i = 0; i < queries.size(); ++i) {
      if (!queries[i].has_crl) continue;
      const auto [it, inserted] = slot_of.emplace(
          queries[i].issuer_key, static_cast<std::uint32_t>(issuers.size()));
      if (inserted) issuers.push_back(queries[i].issuer_key);
      issuer_of[i] = it->second;
    }
  }
  std::vector<CrlVerdict> verdicts(issuers.size());
  workers.parallel_for(issuers.size(), 1,
                       [&](std::size_t begin, std::size_t end) {
                         for (std::size_t i = begin; i < end; ++i) {
                           verdicts[i] = compute_verdict(issuers[i]);
                         }
                       });

  const auto status_of = [&](const RevocationQuery& q,
                             std::uint32_t issuer) {
    if (q.has_ocsp) {
      switch (source.ocsp(q.issuer_key, q.serial_hex)) {
        case RevocationSource::OcspAnswer::kGood:
          return RevocationStatus::kGood;
        case RevocationSource::OcspAnswer::kRevoked:
          return RevocationStatus::kRevoked;
        case RevocationSource::OcspAnswer::kUnknown:
          return RevocationStatus::kUnknown;
        case RevocationSource::OcspAnswer::kUnreachable:
          // Fall back to the CRL when one is advertised; otherwise every
          // advertised endpoint failed.
          if (!q.has_crl) return RevocationStatus::kUnreachable;
          break;
      }
    }
    if (!q.has_crl) return RevocationStatus::kUnknown;
    const CrlVerdict& verdict = verdicts[issuer];
    if (!verdict.reachable) return RevocationStatus::kUnreachable;
    if (!verdict.verified) return RevocationStatus::kUnknown;
    // A revoked entry outranks staleness: even an expired CRL is positive
    // evidence of revocation.
    if (std::binary_search(verdict.revoked_hex.begin(),
                           verdict.revoked_hex.end(), q.serial_hex)) {
      return RevocationStatus::kRevoked;
    }
    if (verdict.stale) return RevocationStatus::kStaleCrl;
    return RevocationStatus::kGood;
  };

  std::vector<RevocationStatus> results(queries.size(),
                                        RevocationStatus::kUnknown);
  workers.parallel_for(queries.size(), 32,
                       [&](std::size_t begin, std::size_t end) {
                         for (std::size_t i = begin; i < end; ++i) {
                           results[i] = status_of(queries[i], issuer_of[i]);
                         }
                       });
  return results;
}

BatchVerifyStats BatchVerifier::stats() const {
  BatchVerifyStats out;
  out.verified = memo_->verified.load(std::memory_order_relaxed);
  out.sig_checks = memo_->sig_checks.load(std::memory_order_relaxed);
  out.sig_cache_hits = memo_->sig_cache_hits.load(std::memory_order_relaxed);
  return out;
}

}  // namespace sm::pki
