#include "crypto/signature.h"

#include <stdexcept>

#include "crypto/rsa.h"
#include "util/sha256.h"

namespace sm::crypto {

namespace {

// Secret serialization for RSA: SSH-style chunks n, e, d (p/q dropped; the
// non-CRT exponent is all that signing needs).
util::Bytes encode_rsa_secret(const RsaPrivateKey& key) {
  util::Bytes out;
  for (const bignum::BigUint* part : {&key.pub.n, &key.pub.e, &key.d}) {
    const util::Bytes bytes = part->to_bytes();
    out.push_back(static_cast<std::uint8_t>(bytes.size() >> 24));
    out.push_back(static_cast<std::uint8_t>(bytes.size() >> 16));
    out.push_back(static_cast<std::uint8_t>(bytes.size() >> 8));
    out.push_back(static_cast<std::uint8_t>(bytes.size()));
    util::append(out, bytes);
  }
  return out;
}

bool decode_rsa_secret(util::BytesView in, RsaPrivateKey& out) {
  std::size_t pos = 0;
  const auto read_chunk = [&](bignum::BigUint& value) -> bool {
    if (pos + 4 > in.size()) return false;
    const std::uint32_t len = (std::uint32_t{in[pos]} << 24) |
                              (std::uint32_t{in[pos + 1]} << 16) |
                              (std::uint32_t{in[pos + 2]} << 8) |
                              std::uint32_t{in[pos + 3]};
    pos += 4;
    if (pos + len > in.size()) return false;
    value = bignum::BigUint::from_bytes(in.subspan(pos, len));
    pos += len;
    return true;
  };
  return read_chunk(out.pub.n) && read_chunk(out.pub.e) &&
         read_chunk(out.d) && pos == in.size();
}

util::Bytes sim_sign(util::BytesView pub, util::BytesView message) {
  util::Sha256 h;
  h.update(pub).update(message);
  return h.finish();
}

}  // namespace

util::Bytes PublicKeyInfo::fingerprint() const {
  util::Sha256 h;
  const std::uint8_t tag = static_cast<std::uint8_t>(scheme);
  h.update(util::BytesView(&tag, 1)).update(key);
  return h.finish();
}

SigningKey generate_keypair(SigScheme scheme, util::Rng& rng,
                            std::size_t rsa_bits) {
  SigningKey out;
  out.pub.scheme = scheme;
  switch (scheme) {
    case SigScheme::kRsaSha256: {
      const RsaPrivateKey key = generate_rsa_keypair(rsa_bits, rng);
      out.pub.key = encode_rsa_public_key(key.pub);
      out.secret = encode_rsa_secret(key);
      return out;
    }
    case SigScheme::kSimSha256: {
      util::Bytes seed(32);
      for (auto& b : seed) b = static_cast<std::uint8_t>(rng.below(256));
      // Public identifier is a hash of the seed so the "private" seed is not
      // directly visible in the certificate.
      out.pub.key = util::Sha256::digest(seed);
      out.secret = std::move(seed);
      return out;
    }
  }
  throw std::invalid_argument("unknown signature scheme");
}

util::Bytes sign(const SigningKey& key, util::BytesView message) {
  switch (key.pub.scheme) {
    case SigScheme::kRsaSha256: {
      RsaPrivateKey rsa;
      if (!decode_rsa_secret(key.secret, rsa)) {
        throw std::invalid_argument("corrupt RSA secret");
      }
      return rsa_sign_sha256(rsa, message);
    }
    case SigScheme::kSimSha256:
      return sim_sign(key.pub.key, message);
  }
  throw std::invalid_argument("unknown signature scheme");
}

bool verify(const PublicKeyInfo& pub, util::BytesView message,
            util::BytesView signature) {
  switch (pub.scheme) {
    case SigScheme::kRsaSha256: {
      RsaPublicKey key;
      if (!decode_rsa_public_key(pub.key, key)) return false;
      return rsa_verify_sha256(key, message, signature);
    }
    case SigScheme::kSimSha256: {
      if (pub.key.size() != util::Sha256::kDigestSize) return false;
      const util::Bytes expected = sim_sign(pub.key, message);
      return signature.size() == expected.size() &&
             std::equal(signature.begin(), signature.end(), expected.begin());
    }
  }
  return false;
}

}  // namespace sm::crypto
