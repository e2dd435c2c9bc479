// Unified signature interface used by the X.509 layer.
//
// Two schemes are supported:
//
//  * kRsaSha256 — real RSA over sm::bignum with PKCS1-v1.5/SHA-256 padding.
//    Used in unit tests, examples, and small simulated worlds.
//
//  * kSimSha256 — a *simulated* signature for population-scale worlds:
//    the public key is an opaque 32-byte identifier and a signature is
//    SHA-256(pubkey || message). Verification needs only public data and
//    runs the same structural code path as RSA verification (fetch SPKI,
//    recompute, compare), but the scheme offers no unforgeability — it
//    exists so that simulating millions of devices does not require
//    millions of real RSA key generations. DESIGN.md documents this
//    substitution.
#pragma once

#include <cstdint>
#include <string>

#include "util/bytes.h"
#include "util/prng.h"

namespace sm::crypto {

/// Which signature scheme a key or certificate uses.
enum class SigScheme : std::uint8_t {
  kRsaSha256 = 1,
  kSimSha256 = 2,
};

/// A serialized public key plus its scheme; what an X.509
/// SubjectPublicKeyInfo carries.
struct PublicKeyInfo {
  SigScheme scheme = SigScheme::kSimSha256;
  util::Bytes key;  ///< RSA wire format or 32-byte sim identifier

  friend bool operator==(const PublicKeyInfo&, const PublicKeyInfo&) = default;

  /// SHA-256 fingerprint of (scheme byte || key bytes); the canonical key
  /// identity used for key-sharing analysis and SKI/AKI extensions.
  util::Bytes fingerprint() const;
};

/// A signing key: the public half plus secret material.
struct SigningKey {
  PublicKeyInfo pub;
  util::Bytes secret;  ///< serialized RSA private key or 32-byte sim seed
};

/// Generates a keypair. For kRsaSha256, `rsa_bits` selects the modulus size;
/// for kSimSha256 the key is derived from 32 bytes of `rng` output.
SigningKey generate_keypair(SigScheme scheme, util::Rng& rng,
                            std::size_t rsa_bits = 512);

/// Signs `message`; the format of the result depends on the scheme.
util::Bytes sign(const SigningKey& key, util::BytesView message);

/// Verifies `signature` over `message` against `pub`. Returns false for
/// malformed keys or signatures rather than throwing.
bool verify(const PublicKeyInfo& pub, util::BytesView message,
            util::BytesView signature);

}  // namespace sm::crypto
