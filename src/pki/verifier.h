// Chain building and certificate validation — the `openssl verify` analog
// of the paper's §4.2, including the two behaviours that shape its dataset:
//
//  * expiry is ignored by default (a certificate counts as valid if it was
//    valid at *some* point in time), because scans and validation happen at
//    different times;
//
//  * self-signed detection uses both the error-19 analog (subject == issuer
//    and the signature verifies with the certificate's own key) and the
//    manual fallback of footnote 7 (the signature verifies with the
//    certificate's own key even when subject != issuer).
//
// Chains are completed from an IntermediatePool so that "transvalid"
// certificates — leaves whose servers present broken chains but for which a
// valid chain exists — validate, as in the paper.
//
// For corpus-scale validation (the paper verifies 80M certificates) use
// BatchVerifier: it fans leaves out on a util::ThreadPool and memoizes the
// sub-results distinct leaves share — the self-signature and root-membership
// checks of each store-resident CA, and the CA-under-CA signature checks of
// the upper chain links — which the plain Verifier recomputes per leaf.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "pki/root_store.h"
#include "util/bytes.h"
#include "x509/certificate.h"

namespace sm::util {
class ThreadPool;
}  // namespace sm::util

namespace sm::pki {

/// Why a certificate failed validation. Mirrors the paper's breakdown:
/// 88.0% self-signed, 11.99% untrusted issuer, 0.01% other.
enum class InvalidReason : std::uint8_t {
  kNone = 0,          ///< certificate is valid
  kSelfSigned,        ///< roots at itself and is not a trusted root
  kUntrustedIssuer,   ///< chain roots at an untrusted certificate or dangles
  kBadSignature,      ///< an issuer was found but its signature check failed
  kMalformedVersion,  ///< illegal version number (paper disregards these)
  kNeverValid,        ///< NotAfter precedes NotBefore
  kExpired,           ///< outside validity period (strict mode only)
  /// Kept so the SMAR reason byte keeps its range; no verifier path
  /// produces it. Revocation is a separate answer: RevocationStatus, from
  /// BatchVerifier::check_revocation_all.
  kRevoked,
};

/// Human-readable reason label.
std::string to_string(InvalidReason reason);

/// Same label as a static string — for render paths that append into a
/// caller-supplied buffer without allocating.
const char* reason_cstr(InvalidReason reason);

/// Revocation status of one certificate, orthogonal to InvalidReason: a
/// chain-valid certificate may be revoked, and an invalid one may still
/// have a perfectly fresh CRL. Mirrors the taxonomy of "Revocation
/// Statuses on the Internet" (Korzhitskii & Carlsson): many certificates
/// are unclassifiable because their distribution points are stale or
/// unreachable, not because they were checked and found good.
enum class RevocationStatus : std::uint8_t {
  kGood = 0,      ///< authoritative fresh answer: not revoked
  kRevoked,       ///< listed by its issuer (CRL entry or OCSP revoked)
  kStaleCrl,      ///< only evidence is a CRL whose nextUpdate has passed
  kUnreachable,   ///< every advertised distribution point failed
  kUnknown,       ///< no distribution points, or responder answered unknown
};

/// Human-readable status label, as a static string — render paths append
/// it into a caller-supplied buffer without allocating.
const char* revocation_status_cstr(RevocationStatus status);

/// Where CRLs and OCSP answers come from during a revocation pass. In
/// production this would wrap HTTP fetches; in the simulated world
/// revocation::Ecosystem implements it in-process. Implementations must be
/// safe to call concurrently and pure (same inputs, same answer) — the
/// batch pass memoizes per-issuer results and fans out on a thread pool.
class RevocationSource {
 public:
  /// OCSP-style answer for one (issuer, serial) pair.
  enum class OcspAnswer : std::uint8_t {
    kGood = 0,
    kRevoked,
    kUnknown,      ///< responder is up but has no status for the serial
    kUnreachable,  ///< responder did not answer
  };

  virtual ~RevocationSource() = default;

  /// Fetches the current CRL published by `issuer_key` (an issuer DN
  /// rendering, scan::CertRecord::issuer_dn). Returns false when the
  /// distribution point is unreachable; on success appends the DER
  /// CertificateList to `der`.
  virtual bool fetch_crl(std::string_view issuer_key,
                         util::Bytes& der) const = 0;

  /// Asks `issuer_key`'s responder about `serial_hex`
  /// (scan::CertRecord::serial_hex, i.e. bignum::BigUint::to_hex).
  virtual OcspAnswer ocsp(std::string_view issuer_key,
                          std::string_view serial_hex) const = 0;
};

/// One certificate's revocation-check inputs, derived from archive fields
/// (the corpus keeps no DER, so the pass is keyed by the issuer DN
/// rendering and hex serial the scanner recorded).
struct RevocationQuery {
  std::string issuer_key;   ///< scan::CertRecord::issuer_dn
  std::string serial_hex;   ///< scan::CertRecord::serial_hex
  bool has_crl = false;     ///< certificate advertised a CRL-DP URL
  bool has_ocsp = false;    ///< certificate advertised an OCSP URL
};

/// Outcome of verifying one certificate.
struct ValidationResult {
  bool valid = false;
  InvalidReason reason = InvalidReason::kNone;
  /// Number of certificates in the accepted chain including leaf and root
  /// (0 when invalid).
  int chain_length = 0;
  /// True when the chain needed certificates from the intermediate pool that
  /// the server did not present ("transvalid").
  bool transvalid = false;

  friend bool operator==(const ValidationResult&,
                         const ValidationResult&) = default;
};

/// Verifier options.
struct VerifyOptions {
  /// When false (the paper's setting), expiry does not invalidate; only a
  /// NotAfter < NotBefore inversion does.
  bool enforce_expiry = false;
  /// Validation instant used when enforce_expiry is true.
  util::UnixTime at_time = 0;
  /// Maximum chain length (leaf..root inclusive).
  int max_chain_length = 8;
};

// Memoizes the pure sub-results of chain walks (defined in verifier.cpp).
class VerifierMemo;

/// Validates certificates against a root store + intermediate pool.
class Verifier {
 public:
  Verifier(const RootStore& roots, const IntermediatePool& intermediates,
           VerifyOptions options = {});

  /// Verifies `leaf`. `presented` is the (possibly empty, possibly broken)
  /// chain the server sent alongside the leaf, in any order.
  ValidationResult verify(
      const x509::Certificate& leaf,
      std::span<const x509::Certificate> presented = {}) const;

 private:
  friend class BatchVerifier;

  ValidationResult verify_impl(const x509::Certificate& leaf,
                               std::span<const x509::Certificate> presented,
                               VerifierMemo* memo) const;

  const RootStore& roots_;
  const IntermediatePool& intermediates_;
  VerifyOptions options_;
};

/// Counters a BatchVerifier accumulates across its lifetime. Totals are
/// exact and the same for every thread count and schedule; they are only
/// incremented with relaxed atomics, so read them after the parallel work
/// completes.
struct BatchVerifyStats {
  std::uint64_t verified = 0;  ///< certificates verified
  /// Signature checks the memo could not answer: one per distinct memoized
  /// (issuer, child) or self-signature entry, plus every leaf-side check.
  /// Two workers that miss one entry at once both compute it, but only the
  /// one whose result is cached counts here.
  std::uint64_t sig_checks = 0;
  /// Memoizable signature checks answered from the memo, counting the
  /// loser of such a race.
  std::uint64_t sig_cache_hits = 0;
};

/// Corpus-scale validation: the same results as Verifier::verify for every
/// input, computed in parallel and with the shared sub-results memoized.
///
/// The memo is keyed by certificate address, so the root store and
/// intermediate pool must not be mutated (and candidate `presented` chains
/// passed to verify() must stay alive) for the lifetime of this object.
/// All methods are safe to call concurrently.
class BatchVerifier {
 public:
  BatchVerifier(const RootStore& roots, const IntermediatePool& intermediates,
                VerifyOptions options = {});
  ~BatchVerifier();

  BatchVerifier(const BatchVerifier&) = delete;
  BatchVerifier& operator=(const BatchVerifier&) = delete;

  /// Verifies one leaf with memoization; bit-identical to
  /// Verifier::verify(leaf, presented).
  ValidationResult verify(
      const x509::Certificate& leaf,
      std::span<const x509::Certificate> presented = {}) const;

  /// Verifies every leaf (each with an empty presented chain) on `pool`
  /// (null = the process-global pool). results[i] corresponds to leaves[i]
  /// and is identical for every thread count.
  std::vector<ValidationResult> verify_all(
      std::span<const x509::Certificate> leaves,
      util::ThreadPool* pool = nullptr) const;

  /// Revocation pass over a batch of certificates: every distinct issuer's
  /// CRL is fetched, parsed and signature-checked once, in a parallel
  /// pre-pass, and the certificates are then classified in parallel
  /// against those read-only verdicts (no lock). CRL signatures are
  /// verified against the root store / intermediate pool this verifier
  /// was built over; an unverifiable CRL yields kUnknown, never kGood.
  /// `now` is the staleness instant for nextUpdate. results[i] corresponds
  /// to queries[i] and is bit-identical for every thread count. Nothing is
  /// kept after the call, so `source` need not outlive it.
  std::vector<RevocationStatus> check_revocation_all(
      std::span<const RevocationQuery> queries, const RevocationSource& source,
      util::UnixTime now, util::ThreadPool* pool = nullptr) const;

  /// Lifetime counters (call when no verification is in flight).
  BatchVerifyStats stats() const;

 private:
  Verifier base_;
  std::unique_ptr<VerifierMemo> memo_;
};

/// True when the certificate's signature verifies under its *own* public
/// key — the self-signed test of the paper's footnote 7, independent of
/// whether subject equals issuer.
bool is_self_signature(const x509::Certificate& cert);

}  // namespace sm::pki
