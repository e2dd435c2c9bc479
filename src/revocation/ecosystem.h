// The simulated revocation ecosystem: every simworld CA becomes a CRL
// publisher and an in-process OCSP-style responder, with the pathologies
// "Revocation Statuses on the Internet" (Korzhitskii & Carlsson) observed
// in the wild dialed in as deterministic, seed-driven knobs — stale CRLs
// whose nextUpdate has passed, distribution points that never answer,
// responders that answer `unknown` for everything, and a mass-revocation
// event (the Heartbleed analog) that revokes a configurable fraction of
// one vendor archetype's certificates mid-campaign.
//
// The Ecosystem is built in two phases. During world construction,
// authorities (CA name + signing key) and issued certificates (issuer key
// + serial + issue time) are registered; certificates may be registered
// concurrently under distinct authorities. publish() then
// draws each authority's pathology profile and per-certificate revocation
// decisions from the seed, and signs a short series of CRL *editions* per
// authority with the CA's real key (round-tripped through the asn1
// writer/reader via x509::CrlBuilder). After publish() the object is
// immutable and safe to query concurrently — it implements
// pki::RevocationSource, so pki::BatchVerifier::check_revocation_all can
// run straight against it.
//
// Two revocation sets exist per authority, on purpose:
//
//   * the *intent* set — every serial the CA has decided to revoke; the
//     OCSP responder answers from this set (responders are live);
//   * the *served CRL* set — the entries on the final published edition.
//     A stale CRL was frozen before the mass event, so the two can
//     legitimately disagree; clients on the CRL path see the stale view.
//
// expected_status() is the intent-path oracle: what a client consulting
// this ecosystem *should* conclude for a certificate, computed from the
// ecosystem's own knowledge without touching DER or signatures. Tests
// compare it against the mechanism path (BatchVerifier fetching, parsing
// and signature-checking the served CRLs) — two independent
// implementations that must agree on every certificate.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "crypto/signature.h"
#include "pki/verifier.h"
#include "util/datetime.h"
#include "x509/certificate.h"
#include "x509/crl.h"

namespace sm::util {
class ThreadPool;
}  // namespace sm::util

namespace sm::revocation {

/// Seed-driven knobs for the simulated revocation ecosystem. All
/// fractions are in [0, 1] and drawn per authority / per certificate with
/// splitmix-style hashes of (seed, issuer, serial) — no global RNG state,
/// so registration order does not affect outcomes.
struct EcosystemConfig {
  std::uint64_t seed = 0;

  /// The instant clients check at (campaign end): staleness and edition
  /// timestamps are all anchored here.
  util::UnixTime check_time = 0;

  /// Fraction of authorities whose CRL is stale (nextUpdate in the past).
  double stale_fraction = 0.15;
  /// Fraction of authorities whose CRL distribution point never answers.
  double unreachable_fraction = 0.10;
  /// Fraction of authorities whose OCSP responder answers `unknown`.
  double ocsp_unknown_fraction = 0.10;
  /// Fraction of authorities whose OCSP responder never answers.
  double ocsp_unreachable_fraction = 0.10;

  /// Baseline per-certificate revocation probability (drawn per serial).
  double baseline_revoked_fraction = 0.02;

  /// Mass-revocation event (Heartbleed analog). When enabled, every
  /// certificate of `mass_event_issuer` issued before `mass_event_time`
  /// is revoked with probability `mass_event_fraction`, dated at the
  /// event instant.
  bool mass_event_enabled = true;
  std::string mass_event_issuer;  ///< issuer key of the victim CA
  double mass_event_fraction = 0.5;
  util::UnixTime mass_event_time = 0;

  /// CRL editions signed per authority (>= 1); each earlier edition is
  /// `edition_period` older. Only the final edition is served; the rest
  /// model periodic publication (Ecosystem::editions).
  int editions = 3;
  util::UnixTime edition_period = 14 * util::kSecondsPerDay;
};

/// One authority's drawn pathology profile.
struct AuthorityProfile {
  enum class CrlHealth : std::uint8_t {
    kOk = 0,       ///< fresh CRL, reachable distribution point
    kStale,        ///< served CRL's nextUpdate has passed
    kUnreachable,  ///< distribution point never answers
  };
  enum class OcspMode : std::uint8_t {
    kOk = 0,       ///< authoritative good/revoked answers
    kUnknown,      ///< responder answers unknown for every serial
    kUnreachable,  ///< responder never answers
  };

  CrlHealth crl_health = CrlHealth::kOk;
  OcspMode ocsp_mode = OcspMode::kOk;
  /// Whether clients can verify this authority's CRL signature (the
  /// issuer certificate is in their root store or intermediate pool). An
  /// untrusted vendor CA may publish perfectly fresh CRLs that clients
  /// still cannot act on.
  bool trusted = false;
};

/// Aggregate counts for logging and analysis ground truth.
struct EcosystemStats {
  std::size_t authorities = 0;
  std::size_t certificates = 0;        ///< registered under a known issuer
  std::size_t revoked_intent = 0;      ///< serials the CAs decided to revoke
  std::size_t revoked_mass_event = 0;  ///< of those, by the mass event
  std::size_t stale_authorities = 0;
  std::size_t unreachable_authorities = 0;
};

/// The ecosystem: registration, publication, and query (see file header).
class Ecosystem final : public pki::RevocationSource {
 public:
  explicit Ecosystem(EcosystemConfig config);
  ~Ecosystem() override;

  /// Registers one CA. `issuer_key` is the DN rendering its issued
  /// certificates carry (scan::CertRecord::issuer_dn ==
  /// cert.issuer.to_string()). `trusted` marks whether clients hold the
  /// CA certificate (see AuthorityProfile::trusted). Must be called
  /// before publish(); duplicate keys keep the first registration.
  void add_authority(const std::string& issuer_key,
                     const x509::Certificate& cert,
                     const crypto::SigningKey& key, bool trusted);

  /// A registered authority's handle, for add_certificate.
  using AuthorityId = std::uint32_t;

  /// The handle of the authority registered under `issuer_key`, or nullopt
  /// when none is. Callers registering many certificates resolve each
  /// issuer once and register by handle.
  std::optional<AuthorityId> authority_id(std::string_view issuer_key) const;

  /// Records one issued certificate under its issuer. Unknown issuers
  /// (self-signed devices, dangling distribution points) are ignored —
  /// their endpoints will simply be unreachable. Duplicate serials under
  /// one issuer collapse to one entry at publish() (identical draws,
  /// identical fate), keeping the earliest issue time.
  void add_certificate(std::string_view issuer_key, std::string_view serial_hex,
                       util::UnixTime not_before);

  /// The same by handle. Calls for distinct authorities may run
  /// concurrently; calls for one authority may not.
  void add_certificate(AuthorityId authority, std::string_view serial_hex,
                       util::UnixTime not_before);

  /// Draws profiles and revocation decisions, then signs every CRL
  /// edition, one authority per task on `pool` (null: the process-global
  /// pool); the result is the same for every pool size. Call exactly once,
  /// after all registration.
  void publish(util::ThreadPool* pool = nullptr);

  // pki::RevocationSource (valid after publish(); thread-safe):
  bool fetch_crl(std::string_view issuer_key,
                 util::Bytes& der) const override;
  OcspAnswer ocsp(std::string_view issuer_key,
                  std::string_view serial_hex) const override;

  /// The intent-path oracle: the status a client with these advertised
  /// endpoints should conclude, from ecosystem knowledge alone. Tests
  /// compare this against the BatchVerifier mechanism path.
  pki::RevocationStatus expected_status(const std::string& issuer_key,
                                        const std::string& serial_hex,
                                        bool has_crl, bool has_ocsp) const;

  /// Drawn profile for one authority, or nullptr when unregistered.
  const AuthorityProfile* profile(std::string_view issuer_key) const;

  /// True when the CA decided to revoke `serial_hex` (the intent set —
  /// may postdate a stale served CRL).
  bool is_revoked_intent(std::string_view issuer_key,
                         std::string_view serial_hex) const;

  /// All signed CRL editions for one authority, oldest to newest (empty
  /// span when unregistered). Only the last is served by fetch_crl.
  std::span<const x509::Crl> editions(std::string_view issuer_key) const;

  /// Aggregate counts; certificate counts are final after publish().
  EcosystemStats stats() const;
  const EcosystemConfig& config() const { return config_; }

 private:
  struct Authority;

  const Authority* find(std::string_view issuer_key) const;

  EcosystemConfig config_;
  bool published_ = false;
  // std::map: deterministic iteration order for publish()'s draws and
  // stats, independent of hash-table layout.
  std::map<std::string, Authority, std::less<>> authorities_;
  // Map nodes never move, so handles index stable pointers.
  std::vector<Authority*> by_id_;
};

}  // namespace sm::revocation
