#include "revocation/ecosystem.h"

#include <algorithm>
#include <utility>

#include "bignum/biguint.h"
#include "util/thread_pool.h"

namespace sm::revocation {

namespace {

// splitmix64 finalizer: the same avalanche the simworld's mix3 uses, local
// here so draws stay stable even if simworld's mixing ever changes.
std::uint64_t mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

// FNV-1a over the key strings: platform-independent (std::hash is not
// specified), so a seed reproduces the same ecosystem everywhere.
std::uint64_t fnv1a(std::string_view s) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const char c : s) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ull;
  }
  return h;
}

// Deterministic uniform draw in [0, 1) from three lanes.
double unit_draw(std::uint64_t a, std::uint64_t b, std::uint64_t c) {
  const std::uint64_t h = mix64(a ^ mix64(b ^ mix64(c)));
  return static_cast<double>(h >> 11) * 0x1.0p-53;
}

bool contains_sorted(const std::vector<std::string>& sorted,
                     std::string_view value) {
  return std::binary_search(sorted.begin(), sorted.end(), value);
}

}  // namespace

struct Ecosystem::Authority {
  x509::Name name;
  crypto::SigningKey key;
  AuthorityProfile profile;
  /// (serial hex, issue time) in registration order; publish() sorts it
  /// by serial and collapses duplicates to their earliest issue time.
  std::vector<std::pair<std::string, util::UnixTime>> certs;
  /// Serials the CA decided to revoke (sorted; the OCSP truth).
  std::vector<std::string> intent_revoked;
  /// Serials on the final served edition (sorted; the CRL-path truth — a
  /// stale CRL was frozen before late revocations landed).
  std::vector<std::string> crl_revoked;
  std::vector<x509::Crl> editions;  ///< oldest..newest; last is served
  std::size_t mass_revoked = 0;
};

Ecosystem::Ecosystem(EcosystemConfig config) : config_(std::move(config)) {}

Ecosystem::~Ecosystem() = default;

void Ecosystem::add_authority(const std::string& issuer_key,
                              const x509::Certificate& cert,
                              const crypto::SigningKey& key, bool trusted) {
  if (published_) return;
  auto [it, inserted] = authorities_.try_emplace(issuer_key);
  if (!inserted) return;
  by_id_.push_back(&it->second);
  it->second.name = cert.subject;
  it->second.key = key;
  it->second.profile.trusted = trusted;
}

std::optional<Ecosystem::AuthorityId> Ecosystem::authority_id(
    std::string_view issuer_key) const {
  const Authority* auth = find(issuer_key);
  if (auth == nullptr) return std::nullopt;
  return static_cast<AuthorityId>(
      std::find(by_id_.begin(), by_id_.end(), auth) - by_id_.begin());
}

void Ecosystem::add_certificate(std::string_view issuer_key,
                                std::string_view serial_hex,
                                util::UnixTime not_before) {
  if (const std::optional<AuthorityId> id = authority_id(issuer_key)) {
    add_certificate(*id, serial_hex, not_before);
  }
}

void Ecosystem::add_certificate(AuthorityId authority,
                                std::string_view serial_hex,
                                util::UnixTime not_before) {
  if (published_ || authority >= by_id_.size()) return;
  by_id_[authority]->certs.emplace_back(serial_hex, not_before);
}

void Ecosystem::publish(util::ThreadPool* pool) {
  if (published_) return;
  published_ = true;

  const int edition_count = std::max(1, config_.editions);
  const util::UnixTime period =
      std::max<util::UnixTime>(util::kSecondsPerDay, config_.edition_period);

  const auto publish_one = [&](const std::string& issuer_key,
                               Authority& auth) {
    const std::uint64_t issuer_hash = fnv1a(issuer_key);

    // One entry per serial, with its earliest issue time.
    std::sort(auth.certs.begin(), auth.certs.end());
    auth.certs.erase(std::unique(auth.certs.begin(), auth.certs.end(),
                                 [](const auto& a, const auto& b) {
                                   return a.first == b.first;
                                 }),
                     auth.certs.end());

    // Pathology profile: one draw per axis, partitioned by the configured
    // fractions.
    const double crl_draw = unit_draw(config_.seed, issuer_hash, 0xc41f);
    if (crl_draw < config_.stale_fraction) {
      auth.profile.crl_health = AuthorityProfile::CrlHealth::kStale;
    } else if (crl_draw <
               config_.stale_fraction + config_.unreachable_fraction) {
      auth.profile.crl_health = AuthorityProfile::CrlHealth::kUnreachable;
    }
    const double ocsp_draw = unit_draw(config_.seed, issuer_hash, 0x0c59);
    if (ocsp_draw < config_.ocsp_unknown_fraction) {
      auth.profile.ocsp_mode = AuthorityProfile::OcspMode::kUnknown;
    } else if (ocsp_draw < config_.ocsp_unknown_fraction +
                               config_.ocsp_unreachable_fraction) {
      auth.profile.ocsp_mode = AuthorityProfile::OcspMode::kUnreachable;
    }

    // Revocation decisions. The mass event outranks the baseline draw so
    // its victim count is exactly the configured fraction of eligible
    // certificates, not diluted by overlap.
    const bool mass_victim = config_.mass_event_enabled &&
                             issuer_key == config_.mass_event_issuer;
    struct Pending {
      std::string serial_hex;
      util::UnixTime date = 0;
    };
    std::vector<Pending> pending;
    for (const auto& [serial_hex, not_before] : auth.certs) {
      const std::uint64_t serial_hash = fnv1a(serial_hex);
      if (mass_victim && not_before < config_.mass_event_time &&
          unit_draw(config_.seed ^ 0x4ea7, issuer_hash, serial_hash) <
              config_.mass_event_fraction) {
        pending.push_back({serial_hex, config_.mass_event_time});
        ++auth.mass_revoked;
      } else if (unit_draw(config_.seed, issuer_hash,
                           serial_hash ^ 0xbad) <
                 config_.baseline_revoked_fraction) {
        // Baseline revocations land shortly after issuance, so every
        // edition published since carries them.
        pending.push_back({serial_hex,
                           not_before + util::kSecondsPerDay});
      }
    }
    auth.intent_revoked.reserve(pending.size());
    for (const Pending& p : pending) {
      auth.intent_revoked.push_back(p.serial_hex);
    }
    std::sort(auth.intent_revoked.begin(), auth.intent_revoked.end());

    // Sign the editions. A stale authority froze its CRL a month before
    // check_time with a nextUpdate already passed; a healthy one
    // published yesterday with a week of validity left. Unreachable
    // authorities still sign (the CRLs exist; nobody can fetch them).
    const bool stale =
        auth.profile.crl_health == AuthorityProfile::CrlHealth::kStale;
    const util::UnixTime final_this =
        config_.check_time -
        (stale ? 30 * util::kSecondsPerDay : util::kSecondsPerDay);
    const util::UnixTime final_next =
        final_this +
        (stale ? 20 * util::kSecondsPerDay : 8 * util::kSecondsPerDay);
    auth.editions.reserve(edition_count);
    for (int k = 0; k < edition_count; ++k) {
      const bool final_edition = k == edition_count - 1;
      const util::UnixTime this_update =
          final_this - static_cast<util::UnixTime>(edition_count - 1 - k) *
                           period;
      x509::CrlBuilder builder;
      builder.set_issuer(auth.name)
          .set_this_update(this_update)
          .set_next_update(final_edition ? final_next : this_update + period);
      for (const Pending& p : pending) {
        if (p.date <= this_update) {
          builder.add_revoked(bignum::BigUint::from_hex(p.serial_hex),
                              p.date);
        }
      }
      auth.editions.push_back(builder.sign(auth.key));
    }
    const x509::Crl& served = auth.editions.back();
    auth.crl_revoked.reserve(served.revoked.size());
    for (const x509::RevokedEntry& entry : served.revoked) {
      auth.crl_revoked.push_back(entry.serial.to_hex());
    }
    std::sort(auth.crl_revoked.begin(), auth.crl_revoked.end());
  };

  // Every draw hashes (seed, issuer, serial), so authorities are
  // independent and publish in any order.
  std::vector<std::pair<const std::string, Authority>*> entries;
  entries.reserve(authorities_.size());
  for (auto& entry : authorities_) entries.push_back(&entry);
  util::ThreadPool& workers =
      pool != nullptr ? *pool : util::ThreadPool::global();
  workers.parallel_for(entries.size(), 1,
                       [&](std::size_t begin, std::size_t end) {
                         for (std::size_t e = begin; e < end; ++e) {
                           publish_one(entries[e]->first, entries[e]->second);
                         }
                       });
}

const Ecosystem::Authority* Ecosystem::find(
    std::string_view issuer_key) const {
  const auto it = authorities_.find(issuer_key);
  return it == authorities_.end() ? nullptr : &it->second;
}

bool Ecosystem::fetch_crl(std::string_view issuer_key,
                          util::Bytes& der) const {
  const Authority* auth = find(issuer_key);
  if (auth == nullptr || auth->editions.empty()) return false;
  if (auth->profile.crl_health ==
      AuthorityProfile::CrlHealth::kUnreachable) {
    return false;
  }
  const util::Bytes& served = auth->editions.back().der;
  der.insert(der.end(), served.begin(), served.end());
  return true;
}

pki::RevocationSource::OcspAnswer Ecosystem::ocsp(
    std::string_view issuer_key, std::string_view serial_hex) const {
  const Authority* auth = find(issuer_key);
  if (auth == nullptr) return OcspAnswer::kUnreachable;
  switch (auth->profile.ocsp_mode) {
    case AuthorityProfile::OcspMode::kUnreachable:
      return OcspAnswer::kUnreachable;
    case AuthorityProfile::OcspMode::kUnknown:
      return OcspAnswer::kUnknown;
    case AuthorityProfile::OcspMode::kOk:
      break;
  }
  return contains_sorted(auth->intent_revoked, serial_hex)
             ? OcspAnswer::kRevoked
             : OcspAnswer::kGood;
}

pki::RevocationStatus Ecosystem::expected_status(
    const std::string& issuer_key, const std::string& serial_hex,
    bool has_crl, bool has_ocsp) const {
  const Authority* auth = find(issuer_key);
  if (has_ocsp) {
    const bool responder_up =
        auth != nullptr && auth->profile.ocsp_mode !=
                               AuthorityProfile::OcspMode::kUnreachable;
    if (responder_up) {
      if (auth->profile.ocsp_mode == AuthorityProfile::OcspMode::kUnknown) {
        return pki::RevocationStatus::kUnknown;
      }
      return contains_sorted(auth->intent_revoked, serial_hex)
                 ? pki::RevocationStatus::kRevoked
                 : pki::RevocationStatus::kGood;
    }
    if (!has_crl) return pki::RevocationStatus::kUnreachable;
    // Responder down but a CRL is advertised: fall through to it.
  }
  if (!has_crl) return pki::RevocationStatus::kUnknown;
  if (auth == nullptr || auth->profile.crl_health ==
                             AuthorityProfile::CrlHealth::kUnreachable) {
    return pki::RevocationStatus::kUnreachable;
  }
  // The CRL is fetchable but clients without the issuer certificate
  // cannot verify its signature — unclassifiable, not good.
  if (!auth->profile.trusted) return pki::RevocationStatus::kUnknown;
  if (contains_sorted(auth->crl_revoked, serial_hex)) {
    return pki::RevocationStatus::kRevoked;
  }
  if (auth->profile.crl_health == AuthorityProfile::CrlHealth::kStale) {
    return pki::RevocationStatus::kStaleCrl;
  }
  return pki::RevocationStatus::kGood;
}

const AuthorityProfile* Ecosystem::profile(
    std::string_view issuer_key) const {
  const Authority* auth = find(issuer_key);
  return auth == nullptr ? nullptr : &auth->profile;
}

bool Ecosystem::is_revoked_intent(std::string_view issuer_key,
                                  std::string_view serial_hex) const {
  const Authority* auth = find(issuer_key);
  return auth != nullptr && contains_sorted(auth->intent_revoked, serial_hex);
}

std::span<const x509::Crl> Ecosystem::editions(
    std::string_view issuer_key) const {
  const Authority* auth = find(issuer_key);
  if (auth == nullptr) return {};
  return {auth->editions.data(), auth->editions.size()};
}

EcosystemStats Ecosystem::stats() const {
  EcosystemStats out;
  out.authorities = authorities_.size();
  for (const auto& [issuer_key, auth] : authorities_) {
    out.certificates += auth.certs.size();
    out.revoked_intent += auth.intent_revoked.size();
    out.revoked_mass_event += auth.mass_revoked;
    if (auth.profile.crl_health == AuthorityProfile::CrlHealth::kStale) {
      ++out.stale_authorities;
    }
    if (auth.profile.crl_health ==
        AuthorityProfile::CrlHealth::kUnreachable) {
      ++out.unreachable_authorities;
    }
  }
  return out;
}

}  // namespace sm::revocation
