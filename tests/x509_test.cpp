// Tests for sm::x509 — names, SANs, builder/parser round-trips, extension
// accessors, and the pathological certificates the paper's dataset contains
// (negative validity, year-3000 expiry, empty issuers, illegal versions).
#include <gtest/gtest.h>

#include "crypto/signature.h"
#include "der_golden_fixture.h"
#include "util/hex.h"
#include "util/prng.h"
#include "x509/builder.h"
#include "x509/certificate.h"
#include "x509/crl.h"

namespace sm::x509 {
namespace {

using crypto::SigScheme;
using util::Rng;

crypto::SigningKey sim_key(std::uint64_t seed) {
  Rng rng(seed);
  return crypto::generate_keypair(SigScheme::kSimSha256, rng);
}

// --- Name ----------------------------------------------------------------

TEST(Name, CommonNameAccessors) {
  const Name n = Name::with_common_name("192.168.1.1");
  EXPECT_EQ(n.common_name(), "192.168.1.1");
  EXPECT_EQ(n.get(asn1::oids::common_name()), "192.168.1.1");
  EXPECT_FALSE(n.get(asn1::oids::organization()).has_value());
}

TEST(Name, EmptyName) {
  const Name n;
  EXPECT_TRUE(n.empty());
  EXPECT_EQ(n.common_name(), "");
  EXPECT_EQ(n.to_string(), "");
  // Empty RDNSequence still encodes/decodes.
  const auto back = Name::decode(n.encode());
  ASSERT_TRUE(back.has_value());
  EXPECT_TRUE(back->empty());
}

TEST(Name, MultiAttributeRoundTrip) {
  Name n;
  n.add(asn1::oids::common_name(), "www.lancom-systems.de")
      .add(asn1::oids::organization(), "LANCOM Systems")
      .add(asn1::oids::country(), "DE");
  const auto back = Name::decode(n.encode());
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(*back, n);
  EXPECT_EQ(back->to_string(), "CN=www.lancom-systems.de, O=LANCOM Systems, C=DE");
}

TEST(Name, OrderingIsStableForMaps) {
  const Name a = Name::with_common_name("a");
  const Name b = Name::with_common_name("b");
  EXPECT_LT(a, b);
  EXPECT_EQ(a, a);
}

// --- GeneralName ----------------------------------------------------------

util::Bytes general_names_der(const std::vector<GeneralName>& names) {
  asn1::DerWriter w;
  write_general_names(w, names);
  return w.take();
}

TEST(GeneralNames, RoundTripAllKinds) {
  const std::vector<GeneralName> names = {
      {GeneralName::Kind::kDns, "fritz.fonwlan.box"},
      {GeneralName::Kind::kIp, "192.168.178.1"},
      {GeneralName::Kind::kUri, "https://myfritz.net"},
      {GeneralName::Kind::kEmail, "admin@fritz.box"},
  };
  const auto back = decode_general_names(general_names_der(names));
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(*back, names);
}

TEST(GeneralNames, ToStringPrefixes) {
  EXPECT_EQ((GeneralName{GeneralName::Kind::kDns, "a.b"}).to_string(),
            "dns:a.b");
  EXPECT_EQ((GeneralName{GeneralName::Kind::kIp, "10.0.0.1"}).to_string(),
            "ip:10.0.0.1");
}

TEST(GeneralNames, MalformedIpKeptAsText) {
  const std::vector<GeneralName> names = {
      {GeneralName::Kind::kIp, "not-an-ip"}};
  const auto back = decode_general_names(general_names_der(names));
  ASSERT_TRUE(back.has_value());
  ASSERT_EQ(back->size(), 1u);
  EXPECT_EQ((*back)[0].value, "not-an-ip");
}

// --- builder / parser ---------------------------------------------------------

TEST(Builder, SelfSignedRoundTrip) {
  const crypto::SigningKey key = sim_key(1);
  const Certificate cert =
      CertificateBuilder()
          .set_serial(bignum::BigUint(12345))
          .set_issuer(Name::with_common_name("fritz.box"))
          .set_subject(Name::with_common_name("fritz.box"))
          .set_validity(util::make_date(2013, 1, 1),
                        util::make_date(2033, 1, 1))
          .set_public_key(key.pub)
          .sign(key);

  EXPECT_EQ(cert.display_version(), 3);
  EXPECT_EQ(cert.serial, bignum::BigUint(12345));
  EXPECT_EQ(cert.subject.common_name(), "fritz.box");
  EXPECT_TRUE(cert.subject_matches_issuer());
  EXPECT_EQ(cert.validity.not_before, util::make_date(2013, 1, 1));
  EXPECT_EQ(cert.spki, key.pub);

  // An independent parse of the DER gives the same certificate.
  const auto reparsed = parse_certificate(cert.der);
  ASSERT_TRUE(reparsed.has_value());
  EXPECT_EQ(reparsed->der, cert.der);
  EXPECT_EQ(reparsed->subject, cert.subject);
  EXPECT_EQ(reparsed->signature, cert.signature);
}

TEST(Builder, RsaSignedCertificateVerifies) {
  Rng rng(55);
  const crypto::SigningKey key =
      crypto::generate_keypair(SigScheme::kRsaSha256, rng, 512);
  const Certificate cert =
      CertificateBuilder()
          .set_serial(bignum::BigUint(7))
          .set_issuer(Name::with_common_name("Example CA"))
          .set_subject(Name::with_common_name("example.com"))
          .set_validity(util::make_date(2014, 1, 1),
                        util::make_date(2015, 1, 1))
          .set_public_key(key.pub)
          .sign(key);
  EXPECT_EQ(cert.signature_algorithm, asn1::oids::sha256_with_rsa());
  EXPECT_TRUE(crypto::verify(key.pub, cert.tbs_der, cert.signature));
}

TEST(Builder, V1CertificateOmitsVersionAndExtensions) {
  const crypto::SigningKey key = sim_key(2);
  const Certificate cert =
      CertificateBuilder()
          .set_raw_version(0)
          .set_serial(bignum::BigUint(1))
          .set_issuer(Name::with_common_name("old device"))
          .set_subject(Name::with_common_name("old device"))
          .set_validity(0, util::make_date(2038, 1, 1))
          .set_public_key(key.pub)
          .set_subject_alt_names({{GeneralName::Kind::kDns, "ignored"}})
          .sign(key);
  EXPECT_EQ(cert.display_version(), 1);
  EXPECT_TRUE(cert.version_is_legal());
  EXPECT_TRUE(cert.extensions.empty());
  EXPECT_TRUE(cert.subject_alt_names().empty());
}

TEST(Builder, IllegalVersionRepresentable) {
  // The paper found 89,667 certificates with invalid versions (2, 4, 13
  // displayed); these must build and re-parse, then fail validation later.
  const crypto::SigningKey key = sim_key(3);
  for (const std::int64_t raw : {1, 3, 12}) {
    const Certificate cert = CertificateBuilder()
                                 .set_raw_version(raw)
                                 .set_serial(bignum::BigUint(1))
                                 .set_issuer(Name::with_common_name("x"))
                                 .set_subject(Name::with_common_name("x"))
                                 .set_validity(0, 1)
                                 .set_public_key(key.pub)
                                 .sign(key);
    EXPECT_EQ(cert.raw_version, raw);
    EXPECT_EQ(cert.version_is_legal(), raw <= 2);
  }
}

TEST(Builder, NegativeValidityPeriodRepresentable) {
  const crypto::SigningKey key = sim_key(4);
  const Certificate cert =
      CertificateBuilder()
          .set_serial(bignum::BigUint(2))
          .set_issuer(Name::with_common_name("broken clock"))
          .set_subject(Name::with_common_name("broken clock"))
          .set_validity(util::make_date(2014, 6, 1),
                        util::make_date(2013, 6, 1))
          .set_public_key(key.pub)
          .sign(key);
  EXPECT_LT(cert.validity.not_after, cert.validity.not_before);
  EXPECT_LT(cert.validity.period_days(), 0);
}

TEST(Builder, Year3000ExpiryRepresentable) {
  const crypto::SigningKey key = sim_key(5);
  const Certificate cert =
      CertificateBuilder()
          .set_serial(bignum::BigUint(3))
          .set_issuer(Name::with_common_name("eternal"))
          .set_subject(Name::with_common_name("eternal"))
          .set_validity(util::make_date(2012, 1, 1),
                        util::make_date(3012, 1, 1))
          .set_public_key(key.pub)
          .sign(key);
  EXPECT_GT(cert.validity.period_days(), 300000);  // > 1000 years in days
}

TEST(Builder, EmptyIssuerName) {
  const crypto::SigningKey key = sim_key(6);
  const Certificate cert = CertificateBuilder()
                               .set_serial(bignum::BigUint(4))
                               .set_issuer(Name{})
                               .set_subject(Name{})
                               .set_validity(0, 1)
                               .set_public_key(key.pub)
                               .sign(key);
  EXPECT_TRUE(cert.issuer.empty());
  EXPECT_EQ(cert.issuer.common_name(), "");
}

TEST(Builder, MissingPublicKeyThrows) {
  EXPECT_THROW(CertificateBuilder().sign(sim_key(7)), std::logic_error);
}

// --- extensions ------------------------------------------------------------

TEST(Extensions, SubjectAltNames) {
  const crypto::SigningKey key = sim_key(8);
  const std::vector<GeneralName> sans = {
      {GeneralName::Kind::kDns, "fritz.fonwlan.box"},
      {GeneralName::Kind::kDns, "www.myfritz.net"},
  };
  const Certificate cert = CertificateBuilder()
                               .set_serial(bignum::BigUint(5))
                               .set_issuer(Name::with_common_name("f"))
                               .set_subject(Name::with_common_name("f"))
                               .set_validity(0, 1)
                               .set_public_key(key.pub)
                               .set_subject_alt_names(sans)
                               .sign(key);
  EXPECT_EQ(cert.subject_alt_names(), sans);
}

TEST(Extensions, KeyIdentifiers) {
  const crypto::SigningKey key = sim_key(9);
  const util::Bytes ski = {1, 2, 3, 4};
  const util::Bytes aki = {9, 8, 7};
  const Certificate cert = CertificateBuilder()
                               .set_serial(bignum::BigUint(6))
                               .set_issuer(Name::with_common_name("ca"))
                               .set_subject(Name::with_common_name("leaf"))
                               .set_validity(0, 1)
                               .set_public_key(key.pub)
                               .set_subject_key_id(ski)
                               .set_authority_key_id(aki)
                               .sign(key);
  EXPECT_EQ(cert.subject_key_id(), ski);
  EXPECT_EQ(cert.authority_key_id(), aki);
}

TEST(Extensions, BasicConstraints) {
  const crypto::SigningKey key = sim_key(10);
  const Certificate ca = CertificateBuilder()
                             .set_serial(bignum::BigUint(7))
                             .set_issuer(Name::with_common_name("root"))
                             .set_subject(Name::with_common_name("root"))
                             .set_validity(0, 1)
                             .set_public_key(key.pub)
                             .set_basic_constraints(true, 3)
                             .sign(key);
  const auto bc = ca.basic_constraints();
  ASSERT_TRUE(bc.has_value());
  EXPECT_TRUE(bc->is_ca);
  EXPECT_EQ(bc->path_len, 3);
  const Extension* raw = ca.find_extension(asn1::oids::basic_constraints());
  ASSERT_NE(raw, nullptr);
  EXPECT_TRUE(raw->critical);
}

TEST(Extensions, CrlAiaOcspAndPolicies) {
  const crypto::SigningKey key = sim_key(11);
  const Certificate cert =
      CertificateBuilder()
          .set_serial(bignum::BigUint(8))
          .set_issuer(Name::with_common_name("ca"))
          .set_subject(Name::with_common_name("site"))
          .set_validity(0, 1)
          .set_public_key(key.pub)
          .set_crl_distribution_points({"http://crl.ca.example/ca.crl"})
          .set_authority_info_access({"http://ocsp.ca.example"},
                                     {"http://ca.example/ca.crt"})
          .set_policy_oids({*asn1::Oid::from_string("2.23.140.1.2.1")})
          .sign(key);
  EXPECT_EQ(cert.crl_distribution_points(),
            std::vector<std::string>{"http://crl.ca.example/ca.crl"});
  const auto aia = cert.authority_info_access();
  EXPECT_EQ(aia.ocsp, std::vector<std::string>{"http://ocsp.ca.example"});
  EXPECT_EQ(aia.ca_issuers,
            std::vector<std::string>{"http://ca.example/ca.crt"});
  const auto policies = cert.policy_oids();
  ASSERT_EQ(policies.size(), 1u);
  EXPECT_EQ(policies[0].to_string(), "2.23.140.1.2.1");
}

TEST(Extensions, ExtendedKeyUsage) {
  const crypto::SigningKey key = sim_key(21);
  const Certificate cert =
      CertificateBuilder()
          .set_serial(bignum::BigUint(11))
          .set_issuer(Name::with_common_name("ca"))
          .set_subject(Name::with_common_name("tls.example"))
          .set_validity(0, 1)
          .set_public_key(key.pub)
          .set_extended_key_usage(
              {asn1::oids::kp_server_auth(), asn1::oids::kp_client_auth()})
          .sign(key);
  // ExtKeyUsageSyntax ::= SEQUENCE OF KeyPurposeId, non-critical.
  const Extension* ext =
      cert.find_extension(asn1::oids::extended_key_usage());
  ASSERT_NE(ext, nullptr);
  EXPECT_FALSE(ext->critical);
  const auto outer = asn1::parse_single(ext->value);
  ASSERT_TRUE(outer.has_value());
  EXPECT_EQ(outer->tag, static_cast<std::uint8_t>(asn1::Tag::kSequence));
  asn1::Reader purposes(outer->content);
  EXPECT_EQ(purposes.read_oid(), asn1::oids::kp_server_auth());
  EXPECT_EQ(purposes.read_oid(), asn1::oids::kp_client_auth());
  EXPECT_TRUE(purposes.at_end());
}

TEST(Extensions, AbsentExtensionsGiveEmptyResults) {
  const crypto::SigningKey key = sim_key(12);
  const Certificate cert = CertificateBuilder()
                               .set_serial(bignum::BigUint(9))
                               .set_issuer(Name::with_common_name("bare"))
                               .set_subject(Name::with_common_name("bare"))
                               .set_validity(0, 1)
                               .set_public_key(key.pub)
                               .sign(key);
  EXPECT_TRUE(cert.subject_alt_names().empty());
  EXPECT_FALSE(cert.authority_key_id().has_value());
  EXPECT_FALSE(cert.subject_key_id().has_value());
  EXPECT_TRUE(cert.crl_distribution_points().empty());
  EXPECT_TRUE(cert.authority_info_access().ocsp.empty());
  EXPECT_FALSE(cert.basic_constraints().has_value());
  EXPECT_TRUE(cert.policy_oids().empty());
  EXPECT_EQ(cert.find_extension(asn1::oids::extended_key_usage()), nullptr);
  EXPECT_EQ(cert.find_extension(asn1::oids::key_usage()), nullptr);
}

// --- fingerprints / identity -------------------------------------------------

TEST(Fingerprints, DistinctCertsDistinctFingerprints) {
  const crypto::SigningKey key = sim_key(13);
  const auto make = [&](std::uint64_t serial) {
    return CertificateBuilder()
        .set_serial(bignum::BigUint(serial))
        .set_issuer(Name::with_common_name("d"))
        .set_subject(Name::with_common_name("d"))
        .set_validity(0, 1)
        .set_public_key(key.pub)
        .sign(key);
  };
  const Certificate a = make(1), b = make(2);
  EXPECT_NE(a.fingerprint_sha256(), b.fingerprint_sha256());
  EXPECT_EQ(a.fingerprint_sha256(), make(1).fingerprint_sha256());
  EXPECT_EQ(a.fingerprint_sha256().size(), 32u);
  EXPECT_EQ(a.fingerprint_sha1().size(), 20u);
}

// --- DER golden bytes ------------------------------------------------------

// A certificate carrying every extension the builder writes, with DER
// lengths on both sides of the short/long form (127/128) and of the one-
// to two-byte long form (255/256).
Certificate golden_certificate() {
  const crypto::SigningKey key = sim_key(2016);
  Name subject;
  subject.add(asn1::oids::common_name(), "fritz.box")
      .add(asn1::oids::organization(), std::string(118, 'o'))
      .add(asn1::oids::organizational_unit(), "")
      .add(asn1::oids::country(), "DE")
      .add(asn1::oids::locality(), std::string(250, 'l'))
      .add(asn1::oids::state(), "Berlin");
  Name issuer;
  issuer.add(asn1::oids::common_name(), std::string(121, 'i'));
  Extension raw127;
  raw127.oid = asn1::Oid{{1, 3, 6, 1, 4, 1, 99999, 3, 127}};
  raw127.value.assign(127, 0x5a);
  Extension raw128;
  raw128.oid = asn1::Oid{{1, 3, 6, 1, 4, 1, 99999, 3, 128}};
  raw128.critical = true;
  raw128.value.assign(128, 0xa5);
  Extension raw255;
  raw255.oid = asn1::Oid{{1, 3, 6, 1, 4, 1, 99999, 3, 255}};
  raw255.value.assign(255, 0x00);
  Extension raw256;
  raw256.oid = asn1::Oid{{2, 999, 0xffffffffu}};
  raw256.value.assign(256, 0xff);
  return CertificateBuilder()
      .set_serial(bignum::BigUint::from_hex("80f1e2d3c4b5a69788796a5b4c3d2e1f"))
      .set_issuer(issuer)
      .set_subject(subject)
      .set_validity(util::make_date(1949, 12, 31), util::make_date(2050, 1, 1))
      .set_public_key(key.pub)
      .set_subject_alt_names(
          {{GeneralName::Kind::kDns, std::string(126, 'd')},
           {GeneralName::Kind::kIp, "192.168.178.1"},
           {GeneralName::Kind::kIp, "not-an-ip"},
           {GeneralName::Kind::kEmail, "admin@fritz.box"},
           {GeneralName::Kind::kUri, "https://fritz.box/"}})
      .set_subject_key_id(util::Bytes(20, 0x11))
      .set_authority_key_id(util::Bytes(20, 0x22))
      .set_basic_constraints(true, 200)
      .set_key_usage(KeyUsage{0x1ff})
      .set_extended_key_usage(
          {asn1::oids::kp_server_auth(), asn1::oids::kp_client_auth()})
      .set_crl_distribution_points(
          {"http://crl.example/a.crl", "http://crl.example/" +
                                           std::string(100, 'c') + ".crl"})
      .set_authority_info_access({"http://ocsp.example"},
                                 {"http://ca.example/ca.crt"})
      .set_policy_oids({asn1::Oid{{2, 23, 140, 1, 2, 1}},
                        asn1::Oid{{1, 3, 6, 1, 4, 1, 99999, 2, 0xffffff}}})
      .add_raw_extension(raw127)
      .add_raw_extension(raw128)
      .add_raw_extension(raw255)
      .add_raw_extension(raw256)
      .sign(key);
}

// A CRL with entries whose serials and dates span every INTEGER length
// and both time forms, signed with the same kind of key.
Crl golden_crl() {
  const crypto::SigningKey key = sim_key(2017);
  CrlBuilder builder;
  builder.set_issuer(Name::with_common_name(std::string(130, 'r')))
      .set_this_update(util::make_date(2015, 6, 1))
      .set_next_update(util::make_date(2051, 6, 1));
  for (std::uint64_t i = 0; i < 12; ++i) {
    builder.add_revoked(bignum::BigUint((1ull << (5 * i)) + i),
                        util::make_date(static_cast<int>(1940 + 10 * i), 3, 4));
  }
  return builder.sign(key);
}

TEST(DerGolden, EveryExtensionCertificateBytes) {
  const Certificate cert = golden_certificate();
  EXPECT_EQ(util::hex_encode(cert.der), testing::kGoldenCertificateHex);
  // The parse-back saw every extension the builder wrote.
  EXPECT_EQ(cert.extensions.size(), 13u);
  EXPECT_EQ(cert.subject_alt_names().size(), 5u);
  EXPECT_EQ(cert.crl_distribution_points().size(), 2u);
  EXPECT_EQ(cert.policy_oids().size(), 2u);
  EXPECT_EQ(cert.basic_constraints()->path_len, 200);
}

TEST(DerGolden, CrlBytes) {
  const Crl crl = golden_crl();
  EXPECT_EQ(util::hex_encode(crl.der), testing::kGoldenCrlHex);
  EXPECT_EQ(crl.revoked.size(), 12u);
}

TEST(Parser, RejectsGarbage) {
  EXPECT_FALSE(parse_certificate(util::to_bytes("not der")).has_value());
  EXPECT_FALSE(parse_certificate({}).has_value());
}

TEST(Parser, RejectsTruncatedCertificate) {
  const crypto::SigningKey key = sim_key(14);
  Certificate cert = CertificateBuilder()
                         .set_serial(bignum::BigUint(1))
                         .set_issuer(Name::with_common_name("t"))
                         .set_subject(Name::with_common_name("t"))
                         .set_validity(0, 1)
                         .set_public_key(key.pub)
                         .sign(key);
  util::Bytes der = cert.der;
  der.resize(der.size() / 2);
  EXPECT_FALSE(parse_certificate(der).has_value());
}

}  // namespace
}  // namespace sm::x509
