// Tests for the simulated revocation ecosystem and its consumers: CRL
// edition publication (signed, asn1 round-tripped, freshening in order),
// seed determinism, the pathology knobs, the mass-revocation event, and —
// the core contract — agreement between two independent implementations of
// the client's view: the ecosystem's intent-path oracle
// (Ecosystem::expected_status) and the mechanism path
// (BatchVerifier::check_revocation_all fetching, parsing, and
// signature-checking the served CRL DER), bit-identical at every thread
// count. Also covers the notary serving layer: kRevocationQuery singles
// and batches against a world's published statuses.
#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "analysis/revocation.h"
#include "bignum/biguint.h"
#include "corpus/corpus_index.h"
#include "notary/batch.h"
#include "notary/index.h"
#include "notary/service.h"
#include "pki/root_store.h"
#include "pki/verifier.h"
#include "revocation/ecosystem.h"
#include "simworld/world.h"
#include "util/prng.h"
#include "util/thread_pool.h"
#include "x509/builder.h"
#include "x509/crl.h"

namespace sm {
namespace {

using revocation::AuthorityProfile;
using revocation::Ecosystem;
using revocation::EcosystemConfig;
using x509::Name;

crypto::SigningKey sim_key(std::uint64_t seed) {
  util::Rng rng(seed);
  return crypto::generate_keypair(crypto::SigScheme::kSimSha256, rng);
}

x509::Certificate make_ca(const std::string& cn,
                          const crypto::SigningKey& key) {
  return x509::CertificateBuilder()
      .set_serial(bignum::BigUint(1))
      .set_issuer(Name::with_common_name(cn))
      .set_subject(Name::with_common_name(cn))
      .set_validity(util::make_date(2010, 1, 1), util::make_date(2035, 1, 1))
      .set_public_key(key.pub)
      .set_basic_constraints(true)
      .sign(key);
}

const util::UnixTime kCheckTime = util::make_date(2014, 9, 1);

// A synthetic ecosystem exercising every pathology: a dozen CAs whose
// profiles are drawn with fractions large enough that each bucket is hit,
// plus one deliberately untrusted CA (publishes fine, nobody can verify).
struct Synthetic {
  std::shared_ptr<Ecosystem> eco;
  pki::RootStore roots;
  pki::IntermediatePool intermediates;
  std::vector<pki::RevocationQuery> queries;
  std::vector<std::string> authority_keys;  // parallel to registration
};

Synthetic make_synthetic(std::uint64_t seed) {
  Synthetic s;
  EcosystemConfig config;
  config.seed = seed;
  config.check_time = kCheckTime;
  config.stale_fraction = 0.3;
  config.unreachable_fraction = 0.2;
  config.ocsp_unknown_fraction = 0.25;
  config.ocsp_unreachable_fraction = 0.25;
  config.baseline_revoked_fraction = 0.15;
  config.mass_event_enabled = true;
  config.mass_event_issuer = Name::with_common_name("Synthetic CA 3")
                                 .to_string();
  config.mass_event_fraction = 0.6;
  config.mass_event_time = util::make_date(2014, 5, 1);
  s.eco = std::make_shared<Ecosystem>(config);

  for (int i = 0; i < 12; ++i) {
    const std::string cn = "Synthetic CA " + std::to_string(i);
    const auto key = sim_key(1000 + static_cast<std::uint64_t>(i));
    const auto cert = make_ca(cn, key);
    const std::string issuer_key = cert.subject.to_string();
    // CA 11 is the untrusted publisher: registered, but its certificate
    // is in neither client store, so its CRLs cannot be verified.
    const bool trusted = i != 11;
    s.eco->add_authority(issuer_key, cert, key, trusted);
    if (trusted) {
      // Split the trust anchors across both stores the verifier searches.
      if (i % 2 == 0) {
        s.roots.add(cert);
      } else {
        s.intermediates.add(cert);
      }
    }
    s.authority_keys.push_back(issuer_key);

    for (int j = 0; j < 40; ++j) {
      const std::string serial_hex =
          bignum::BigUint(static_cast<std::uint64_t>(100 + j)).to_hex();
      // Issue dates straddle the mass event so only part of CA 3's
      // population is eligible.
      const util::UnixTime not_before =
          util::make_date(2014, 1 + (j % 8), 1);
      s.eco->add_certificate(issuer_key, serial_hex, not_before);
      // Endpoint advertisement varies per certificate: some CRL-only,
      // some OCSP-only, some both, some neither.
      s.queries.push_back({issuer_key, serial_hex, j % 5 != 0, j % 3 != 0});
    }
  }
  // Queries against an issuer nobody registered (a dangling distribution
  // point): whatever is advertised is unreachable or unknown.
  s.queries.push_back({"CN=No Such CA", "0a", true, false});
  s.queries.push_back({"CN=No Such CA", "0a", false, true});
  s.queries.push_back({"CN=No Such CA", "0a", false, false});
  s.eco->publish();
  return s;
}

TEST(RevocationEcosystem, MechanismMatchesOracleAtEveryThreadCount) {
  const Synthetic s = make_synthetic(7);
  const pki::BatchVerifier verifier(s.roots, s.intermediates);

  std::vector<std::vector<pki::RevocationStatus>> runs;
  for (const std::size_t threads : {1u, 2u, 8u}) {
    util::ThreadPool pool(threads);
    runs.push_back(verifier.check_revocation_all(s.queries, *s.eco,
                                                 kCheckTime, &pool));
  }
  ASSERT_EQ(runs[0].size(), s.queries.size());
  // Bit-identical across thread counts.
  EXPECT_EQ(runs[0], runs[1]);
  EXPECT_EQ(runs[0], runs[2]);

  // And equal to the intent-path oracle on every certificate: two
  // independent implementations (set membership vs. signed-DER parsing)
  // agreeing pointwise.
  std::set<pki::RevocationStatus> seen;
  for (std::size_t i = 0; i < s.queries.size(); ++i) {
    const pki::RevocationQuery& q = s.queries[i];
    EXPECT_EQ(runs[0][i],
              s.eco->expected_status(q.issuer_key, q.serial_hex, q.has_crl,
                                     q.has_ocsp))
        << "query " << i << " issuer " << q.issuer_key << " serial "
        << q.serial_hex;
    seen.insert(runs[0][i]);
  }
  // The synthetic config is tuned so every status actually occurs — a
  // test that never produces kStaleCrl proves nothing about staleness.
  EXPECT_EQ(seen.size(), 5u);
}

TEST(RevocationEcosystem, SameSeedReproducesEcosystemExactly) {
  const Synthetic a = make_synthetic(21);
  const Synthetic b = make_synthetic(21);
  for (const std::string& key : a.authority_keys) {
    const AuthorityProfile* pa = a.eco->profile(key);
    const AuthorityProfile* pb = b.eco->profile(key);
    ASSERT_NE(pa, nullptr);
    ASSERT_NE(pb, nullptr);
    EXPECT_EQ(pa->crl_health, pb->crl_health) << key;
    EXPECT_EQ(pa->ocsp_mode, pb->ocsp_mode) << key;
    const auto ea = a.eco->editions(key);
    const auto eb = b.eco->editions(key);
    ASSERT_EQ(ea.size(), eb.size());
    for (std::size_t k = 0; k < ea.size(); ++k) {
      EXPECT_EQ(ea[k].der, eb[k].der) << key << " edition " << k;
    }
  }

  // A different seed draws a different ecosystem (some profile or CRL
  // must differ across 12 authorities).
  const Synthetic c = make_synthetic(22);
  bool any_difference = false;
  for (const std::string& key : a.authority_keys) {
    const AuthorityProfile* pa = a.eco->profile(key);
    const AuthorityProfile* pc = c.eco->profile(key);
    any_difference |= pa->crl_health != pc->crl_health ||
                      pa->ocsp_mode != pc->ocsp_mode ||
                      a.eco->editions(key).back().der !=
                          c.eco->editions(key).back().der;
  }
  EXPECT_TRUE(any_difference);
}

TEST(RevocationEcosystem, EditionsFreshenInPublicationOrder) {
  const Synthetic s = make_synthetic(33);
  std::size_t checked = 0;
  std::size_t served = 0;
  for (const std::string& key : s.authority_keys) {
    const auto editions = s.eco->editions(key);
    ASSERT_EQ(editions.size(), 3u) << key;  // config default
    // Editions are chronological, each independently parseable from DER
    // (the builder round-trips through the asn1 writer/reader).
    for (std::size_t k = 0; k < editions.size(); ++k) {
      const auto reparsed = x509::parse_crl(editions[k].der);
      ASSERT_TRUE(reparsed.has_value()) << key << " edition " << k;
      EXPECT_EQ(reparsed->revoked, editions[k].revoked);
      EXPECT_EQ(editions[k].issuer, editions.front().issuer);
      if (k > 0) {
        EXPECT_EQ(editions[k].this_update - editions[k - 1].this_update,
                  s.eco->config().edition_period);
      }
      // Every edition's revocations are a superset of the previous one's
      // (decisions accumulate; editions never un-revoke).
      if (k > 0) {
        for (const x509::RevokedEntry& entry : editions[k - 1].revoked) {
          EXPECT_TRUE(editions[k].is_revoked(entry.serial));
        }
      }
    }
    // A reachable distribution point serves the freshest edition.
    util::Bytes der;
    if (s.eco->fetch_crl(key, der)) {
      EXPECT_EQ(der, editions.back().der) << key;
      ++served;
    }
    ++checked;
  }
  EXPECT_EQ(checked, 12u);
  EXPECT_GT(served, 0u);
}

TEST(RevocationEcosystem, PathologyProfilesBehaveAsDrawn) {
  const Synthetic s = make_synthetic(5);
  std::size_t stale = 0, unreachable = 0, ocsp_unknown = 0,
              ocsp_unreachable = 0;
  for (const std::string& key : s.authority_keys) {
    const AuthorityProfile* profile = s.eco->profile(key);
    ASSERT_NE(profile, nullptr);
    util::Bytes der;
    const bool fetched = s.eco->fetch_crl(key, der);
    switch (profile->crl_health) {
      case AuthorityProfile::CrlHealth::kUnreachable:
        ++unreachable;
        EXPECT_FALSE(fetched) << key;
        break;
      case AuthorityProfile::CrlHealth::kStale: {
        ++stale;
        ASSERT_TRUE(fetched) << key;
        const auto crl = x509::parse_crl(der);
        ASSERT_TRUE(crl.has_value());
        ASSERT_TRUE(crl->next_update.has_value());
        EXPECT_LT(*crl->next_update, kCheckTime) << key;
        break;
      }
      case AuthorityProfile::CrlHealth::kOk: {
        ASSERT_TRUE(fetched) << key;
        const auto crl = x509::parse_crl(der);
        ASSERT_TRUE(crl.has_value());
        ASSERT_TRUE(crl->next_update.has_value());
        EXPECT_GE(*crl->next_update, kCheckTime) << key;
        break;
      }
    }
    switch (profile->ocsp_mode) {
      case AuthorityProfile::OcspMode::kUnknown:
        ++ocsp_unknown;
        EXPECT_EQ(s.eco->ocsp(key, "64"),
                  pki::RevocationSource::OcspAnswer::kUnknown);
        break;
      case AuthorityProfile::OcspMode::kUnreachable:
        ++ocsp_unreachable;
        EXPECT_EQ(s.eco->ocsp(key, "64"),
                  pki::RevocationSource::OcspAnswer::kUnreachable);
        break;
      case AuthorityProfile::OcspMode::kOk: {
        const auto answer = s.eco->ocsp(key, "64");  // serial 100's hex
        EXPECT_EQ(answer, s.eco->is_revoked_intent(key, "64")
                              ? pki::RevocationSource::OcspAnswer::kRevoked
                              : pki::RevocationSource::OcspAnswer::kGood);
        break;
      }
    }
  }
  const revocation::EcosystemStats stats = s.eco->stats();
  EXPECT_EQ(stats.authorities, 12u);
  EXPECT_EQ(stats.stale_authorities, stale);
  EXPECT_EQ(stats.unreachable_authorities, unreachable);
  // Fractions are tuned so each pathology bucket is populated.
  EXPECT_GT(stale, 0u);
  EXPECT_GT(unreachable, 0u);
  EXPECT_GT(ocsp_unknown, 0u);
  EXPECT_GT(ocsp_unreachable, 0u);
}

TEST(RevocationEcosystem, MassEventRevokesEligibleFractionOnly) {
  const Synthetic s = make_synthetic(7);
  const std::string victim = Name::with_common_name("Synthetic CA 3")
                                 .to_string();
  const revocation::EcosystemStats stats = s.eco->stats();
  EXPECT_GT(stats.revoked_mass_event, 0u);
  EXPECT_GE(stats.revoked_intent, stats.revoked_mass_event);
  // The victim's served CRL (its health permitting) or intent set must
  // carry far more than the baseline rate; eyeball via intent count.
  std::size_t victim_revoked = 0;
  for (int j = 0; j < 40; ++j) {
    const std::string serial_hex =
        bignum::BigUint(static_cast<std::uint64_t>(100 + j)).to_hex();
    if (s.eco->is_revoked_intent(victim, serial_hex)) ++victim_revoked;
  }
  // 0.6 of eligible (issued before May) + 0.15 baseline on the rest;
  // with 40 serials the count is far above the all-baseline expectation.
  EXPECT_GT(victim_revoked, 8u);
}

TEST(RevocationEcosystem, UntrustedPublisherYieldsUnknownOnCrlPath) {
  const Synthetic s = make_synthetic(7);
  const std::string untrusted = Name::with_common_name("Synthetic CA 11")
                                    .to_string();
  const AuthorityProfile* profile = s.eco->profile(untrusted);
  ASSERT_NE(profile, nullptr);
  EXPECT_FALSE(profile->trusted);
  if (profile->crl_health != AuthorityProfile::CrlHealth::kUnreachable) {
    // Fetchable, signed, fresh or stale — and still unclassifiable,
    // because no client store holds the issuer certificate.
    EXPECT_EQ(s.eco->expected_status(untrusted, "64", /*has_crl=*/true,
                                     /*has_ocsp=*/false),
              pki::RevocationStatus::kUnknown);
  }
}

// ---- world-level integration --------------------------------------------

simworld::WorldConfig tiny_config() {
  simworld::WorldConfig config = simworld::WorldConfig::tiny();
  return config;
}

const simworld::WorldResult& tiny_world() {
  static const simworld::WorldResult world =
      simworld::World(tiny_config()).run();
  return world;
}

TEST(WorldRevocation, EveryArchivedCertHasAStatusMatchingTheOracle) {
  const simworld::WorldResult& world = tiny_world();
  ASSERT_NE(world.revocation.ecosystem, nullptr);
  const Ecosystem& eco = *world.revocation.ecosystem;
  const auto& statuses = world.revocation.statuses;
  ASSERT_EQ(statuses.size(), world.archive.certs().size());

  std::map<pki::RevocationStatus, std::size_t> histogram;
  for (const scan::CertRecord& rec : world.archive.certs()) {
    const auto it = statuses.find(rec.fingerprint);
    ASSERT_NE(it, statuses.end());
    EXPECT_EQ(it->second,
              eco.expected_status(rec.issuer_dn, rec.serial_hex,
                                  !rec.crl_url.empty(),
                                  !rec.ocsp_url.empty()))
        << rec.issuer_dn << " serial " << rec.serial_hex;
    ++histogram[it->second];
  }
  // The default knobs populate multiple buckets in a tiny world —
  // revocation must not degenerate to all-unknown.
  EXPECT_GT(histogram[pki::RevocationStatus::kGood], 0u);
  EXPECT_GT(histogram[pki::RevocationStatus::kRevoked], 0u);
  EXPECT_GE(histogram.size(), 3u);
}

TEST(WorldRevocation, MassEventStrikesTheConfiguredCa) {
  const simworld::WorldResult& world = tiny_world();
  const Ecosystem& eco = *world.revocation.ecosystem;
  EXPECT_GT(eco.stats().revoked_mass_event, 0u);
  EXPECT_EQ(eco.config().mass_event_issuer,
            Name::with_common_name(tiny_config().revocation.mass_event_ca)
                .to_string());
}

TEST(WorldRevocation, DisabledKnobSkipsThePass) {
  simworld::WorldConfig config = tiny_config();
  config.device_count = 10;
  config.website_count = 5;
  config.revocation.enabled = false;
  const simworld::WorldResult world = simworld::World(config).run();
  EXPECT_EQ(world.revocation.ecosystem, nullptr);
  EXPECT_TRUE(world.revocation.statuses.empty());
}

TEST(WorldRevocation, AnalysisBreakdownMatchesGroundTruth) {
  const simworld::WorldResult& world = tiny_world();
  const analysis::RevocationBreakdown breakdown =
      analysis::compute_revocation_breakdown(world.archive,
                                             world.revocation.statuses);

  // Recount from scratch.
  std::array<std::uint64_t, 5> valid{}, invalid{};
  std::map<std::string, std::uint64_t> revoked_by_issuer;
  for (const scan::CertRecord& rec : world.archive.certs()) {
    const auto status = world.revocation.statuses.at(rec.fingerprint);
    const auto i = static_cast<std::size_t>(status);
    (rec.valid ? valid : invalid)[i] += 1;
    if (status == pki::RevocationStatus::kRevoked) {
      ++revoked_by_issuer[rec.issuer_cn];
    }
  }
  EXPECT_EQ(breakdown.valid, valid);
  EXPECT_EQ(breakdown.invalid, invalid);
  std::uint64_t valid_total = 0, invalid_total = 0;
  for (std::size_t i = 0; i < 5; ++i) {
    valid_total += valid[i];
    invalid_total += invalid[i];
  }
  EXPECT_EQ(breakdown.valid_total, valid_total);
  EXPECT_EQ(breakdown.invalid_total, invalid_total);

  // The mass event makes its victim the top revoked issuer by a margin.
  ASSERT_FALSE(breakdown.top_revoked_issuers.empty());
  EXPECT_EQ(breakdown.top_revoked_issuers.front().issuer_cn,
            tiny_config().revocation.mass_event_ca);
  std::uint64_t max_revoked = 0;
  for (const auto& [issuer, revoked] : revoked_by_issuer) {
    max_revoked = std::max(max_revoked, revoked);
  }
  EXPECT_EQ(breakdown.top_revoked_issuers.front().revoked, max_revoked);

  const std::string table = analysis::render_revocation_table(breakdown);
  EXPECT_NE(table.find("revocation statuses: invalid vs. valid certs"),
            std::string::npos);
  for (const char* status :
       {"good", "revoked", "stale-crl", "unreachable", "unknown"}) {
    EXPECT_NE(table.find(status), std::string::npos) << status;
  }
}

// ---- notary serving ------------------------------------------------------

std::string fp_payload(const scan::CertFingerprint& fp) {
  return std::string(reinterpret_cast<const char*>(fp.data()), fp.size());
}

TEST(NotaryRevocation, ServesInjectedStatusesForSinglesAndBatches) {
  const simworld::WorldResult& world = tiny_world();
  const corpus::CorpusIndex spine(world.archive);
  notary::NotaryIndexOptions options;
  options.revocation_statuses = &world.revocation.statuses;
  const notary::NotaryIndex index(spine, options);
  notary::NotaryService service(index);

  const auto& certs = world.archive.certs();
  ASSERT_GE(certs.size(), 8u);
  std::vector<scan::CertFingerprint> fps;
  for (std::size_t i = 0; i < 8; ++i) fps.push_back(certs[i].fingerprint);
  scan::CertFingerprint unknown{};
  unknown.fill(0xfe);
  fps.push_back(unknown);

  // Singles: two-line body carrying the injected status.
  std::vector<netio::Frame> singles;
  for (const scan::CertFingerprint& fp : fps) {
    singles.push_back(service.handle(netio::FrameType::kRevocationQuery,
                                     fp_payload(fp)));
  }
  for (std::size_t i = 0; i + 1 < fps.size(); ++i) {
    ASSERT_EQ(singles[i].type, netio::FrameType::kRevocationInfo);
    const auto status = world.revocation.statuses.at(certs[i].fingerprint);
    const std::string expected_line =
        std::string("revocation: ") + pki::revocation_status_cstr(status) +
        "\n";
    EXPECT_NE(singles[i].payload.find(expected_line), std::string::npos)
        << singles[i].payload;
    EXPECT_NE(singles[i].payload.find("fingerprint: "), std::string::npos);
  }
  EXPECT_EQ(singles.back().type, netio::FrameType::kNotFound);

  // Batch == sequence of singles, byte for byte.
  const netio::Frame batch = service.handle(
      netio::FrameType::kRevocationQuery, notary::encode_batch_query(fps));
  ASSERT_EQ(batch.type, netio::FrameType::kBatchInfo);
  std::vector<notary::BatchEntry> entries;
  ASSERT_TRUE(notary::parse_batch_info(batch.payload, entries));
  ASSERT_EQ(entries.size(), fps.size());
  for (std::size_t i = 0; i < fps.size(); ++i) {
    EXPECT_EQ(entries[i].status, singles[i].type) << i;
    EXPECT_EQ(entries[i].body, singles[i].payload) << i;
  }

  // Malformed payload (neither a fingerprint nor a batch) answers kError
  // without wedging the service.
  const netio::Frame bad =
      service.handle(netio::FrameType::kRevocationQuery, "short");
  EXPECT_EQ(bad.type, netio::FrameType::kError);
  EXPECT_EQ(service
                .handle(netio::FrameType::kRevocationQuery,
                        fp_payload(fps.front()))
                .type,
            netio::FrameType::kRevocationInfo);
  EXPECT_EQ(service.metrics().revocation_queries,
            fps.size() + 3);  // singles + batch + bad + retry
}

TEST(NotaryRevocation, DefaultsToUnknownWithoutInjection) {
  const simworld::WorldResult& world = tiny_world();
  const corpus::CorpusIndex spine(world.archive);
  const notary::NotaryIndex index(spine);
  notary::NotaryService service(index);
  const netio::Frame response =
      service.handle(netio::FrameType::kRevocationQuery,
                     fp_payload(world.archive.certs()[0].fingerprint));
  ASSERT_EQ(response.type, netio::FrameType::kRevocationInfo);
  EXPECT_NE(response.payload.find("revocation: unknown"), std::string::npos);
}

TEST(NotaryRevocation, UnknownRequestTypeAnswersErrorAndServiceStaysUp) {
  const simworld::WorldResult& world = tiny_world();
  const corpus::CorpusIndex spine(world.archive);
  const notary::NotaryIndex index(spine);
  notary::NotaryService service(index);
  // A well-framed frame of a future type reaches the handler (the decoder
  // no longer rejects unknown type bytes) and is answered kError.
  const netio::Frame response =
      service.handle(static_cast<netio::FrameType>(0x7f), "payload");
  EXPECT_EQ(response.type, netio::FrameType::kError);
  EXPECT_EQ(service.metrics().bad_requests, 1u);
  // The service keeps serving.
  EXPECT_EQ(service
                .handle(netio::FrameType::kQuery,
                        fp_payload(world.archive.certs()[0].fingerprint))
                .type,
            netio::FrameType::kCertInfo);
}

}  // namespace
}  // namespace sm
