// Arbitrary-precision unsigned integers, from scratch.
//
// This is the numeric substrate for the RSA implementation in crypto/. The
// representation is a little-endian vector of 32-bit limbs with no leading
// zero limb (zero is an empty vector). Division is schoolbook long division
// on limbs; modexp is left-to-right square-and-multiply. Performance is
// adequate for the 256-1024 bit moduli the library uses.
#pragma once

#include <compare>
#include <cstdint>
#include <string>
#include <vector>

#include "util/bytes.h"

namespace sm::bignum {

/// An arbitrary-precision unsigned integer.
class BigUint {
 public:
  /// Zero.
  BigUint() = default;

  /// From a machine word.
  BigUint(std::uint64_t v);  // NOLINT(google-explicit-constructor): numeric

  /// From big-endian bytes (leading zeros permitted).
  static BigUint from_bytes(util::BytesView be);

  /// From a hex string (no 0x prefix). Throws std::invalid_argument on
  /// non-hex input; empty string is zero.
  static BigUint from_hex(const std::string& hex);

  /// Minimal big-endian byte encoding; zero encodes as a single 0x00 byte.
  util::Bytes to_bytes() const;

  /// Lowercase hex without leading zeros ("0" for zero).
  std::string to_hex() const;

  bool is_zero() const { return limbs_.empty(); }
  bool is_odd() const { return !limbs_.empty() && (limbs_[0] & 1); }

  /// Number of significant bits (0 for zero).
  std::size_t bit_length() const;

  /// Value of bit i (0 = least significant).
  bool bit(std::size_t i) const;

  /// Least-significant 64 bits.
  std::uint64_t low64() const;

  friend std::strong_ordering operator<=>(const BigUint& a, const BigUint& b);
  friend bool operator==(const BigUint& a, const BigUint& b) = default;

  BigUint operator+(const BigUint& rhs) const;
  /// Subtraction requires *this >= rhs; throws std::underflow_error otherwise.
  BigUint operator-(const BigUint& rhs) const;
  BigUint operator*(const BigUint& rhs) const;
  /// Remainder; divisor must be non-zero (throws std::domain_error).
  BigUint operator%(const BigUint& rhs) const;
  BigUint operator<<(std::size_t bits) const;
  BigUint operator>>(std::size_t bits) const;

  /// Computes quotient and remainder in one pass.
  static std::pair<BigUint, BigUint> divmod(const BigUint& num,
                                            const BigUint& den);

  /// (base ^ exp) mod m; m must be non-zero.
  static BigUint mod_pow(const BigUint& base, const BigUint& exp,
                         const BigUint& m);

 private:
  void trim();

  std::vector<std::uint32_t> limbs_;  // little-endian, no leading zeros

 public:
  struct InverseResult;
  /// Modular inverse of a mod m, if gcd(a, m) == 1; returns `ok=false`
  /// otherwise.
  static InverseResult mod_inverse(const BigUint& a, const BigUint& m);
};

/// Result of BigUint::mod_inverse.
struct BigUint::InverseResult {
  BigUint value;
  bool ok = false;
};

}  // namespace sm::bignum
