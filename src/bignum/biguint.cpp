#include "bignum/biguint.h"

#include <algorithm>
#include <bit>
#include <stdexcept>

namespace sm::bignum {

namespace {

int hex_digit(char c) {
  if (c >= '0' && c <= '9') return c - '0';
  if (c >= 'a' && c <= 'f') return c - 'a' + 10;
  if (c >= 'A' && c <= 'F') return c - 'A' + 10;
  return -1;
}

}  // namespace

BigUint::BigUint(std::uint64_t v) {
  if (v != 0) limbs_.push_back(static_cast<std::uint32_t>(v));
  if (v >> 32) limbs_.push_back(static_cast<std::uint32_t>(v >> 32));
}

void BigUint::trim() {
  while (!limbs_.empty() && limbs_.back() == 0) limbs_.pop_back();
}

BigUint BigUint::from_bytes(util::BytesView be) {
  BigUint out;
  out.limbs_.assign((be.size() + 3) / 4, 0);
  for (std::size_t i = 0; i < be.size(); ++i) {
    const std::size_t bit = 8 * (be.size() - 1 - i);  // from the low end
    out.limbs_[bit / 32] |= std::uint32_t{be[i]} << (bit % 32);
  }
  out.trim();
  return out;
}

BigUint BigUint::from_hex(const std::string& hex) {
  BigUint out;
  for (char c : hex) {
    const int d = hex_digit(c);
    if (d < 0) throw std::invalid_argument("BigUint::from_hex: bad digit");
    out = (out << 4) + BigUint(static_cast<std::uint64_t>(d));
  }
  return out;
}

util::Bytes BigUint::to_bytes() const {
  if (is_zero()) return util::Bytes{0};
  util::Bytes out;
  out.reserve(limbs_.size() * 4);
  for (std::size_t i = limbs_.size(); i-- > 0;) {
    out.push_back(static_cast<std::uint8_t>(limbs_[i] >> 24));
    out.push_back(static_cast<std::uint8_t>(limbs_[i] >> 16));
    out.push_back(static_cast<std::uint8_t>(limbs_[i] >> 8));
    out.push_back(static_cast<std::uint8_t>(limbs_[i]));
  }
  const auto first_nonzero =
      std::find_if(out.begin(), out.end(), [](std::uint8_t b) { return b; });
  out.erase(out.begin(), first_nonzero);
  return out;
}

std::string BigUint::to_hex() const {
  if (is_zero()) return "0";
  static constexpr char kDigits[] = "0123456789abcdef";
  std::string out;
  for (std::size_t i = limbs_.size(); i-- > 0;) {
    for (int shift = 28; shift >= 0; shift -= 4) {
      out.push_back(kDigits[(limbs_[i] >> shift) & 0xf]);
    }
  }
  out.erase(0, out.find_first_not_of('0'));
  return out;
}

std::size_t BigUint::bit_length() const {
  if (limbs_.empty()) return 0;
  std::size_t bits = (limbs_.size() - 1) * 32;
  std::uint32_t top = limbs_.back();
  while (top) {
    ++bits;
    top >>= 1;
  }
  return bits;
}

bool BigUint::bit(std::size_t i) const {
  const std::size_t limb = i / 32;
  if (limb >= limbs_.size()) return false;
  return (limbs_[limb] >> (i % 32)) & 1;
}

std::uint64_t BigUint::low64() const {
  std::uint64_t v = 0;
  if (!limbs_.empty()) v = limbs_[0];
  if (limbs_.size() > 1) v |= std::uint64_t{limbs_[1]} << 32;
  return v;
}

std::strong_ordering operator<=>(const BigUint& a, const BigUint& b) {
  if (a.limbs_.size() != b.limbs_.size()) {
    return a.limbs_.size() <=> b.limbs_.size();
  }
  for (std::size_t i = a.limbs_.size(); i-- > 0;) {
    if (a.limbs_[i] != b.limbs_[i]) return a.limbs_[i] <=> b.limbs_[i];
  }
  return std::strong_ordering::equal;
}

BigUint BigUint::operator+(const BigUint& rhs) const {
  BigUint out;
  const std::size_t n = std::max(limbs_.size(), rhs.limbs_.size());
  out.limbs_.reserve(n + 1);
  std::uint64_t carry = 0;
  for (std::size_t i = 0; i < n; ++i) {
    std::uint64_t sum = carry;
    if (i < limbs_.size()) sum += limbs_[i];
    if (i < rhs.limbs_.size()) sum += rhs.limbs_[i];
    out.limbs_.push_back(static_cast<std::uint32_t>(sum));
    carry = sum >> 32;
  }
  if (carry) out.limbs_.push_back(static_cast<std::uint32_t>(carry));
  return out;
}

BigUint BigUint::operator-(const BigUint& rhs) const {
  if (*this < rhs) throw std::underflow_error("BigUint subtraction underflow");
  BigUint out;
  out.limbs_.reserve(limbs_.size());
  std::int64_t borrow = 0;
  for (std::size_t i = 0; i < limbs_.size(); ++i) {
    std::int64_t diff = static_cast<std::int64_t>(limbs_[i]) - borrow;
    if (i < rhs.limbs_.size()) diff -= rhs.limbs_[i];
    if (diff < 0) {
      diff += std::int64_t{1} << 32;
      borrow = 1;
    } else {
      borrow = 0;
    }
    out.limbs_.push_back(static_cast<std::uint32_t>(diff));
  }
  out.trim();
  return out;
}

BigUint BigUint::operator*(const BigUint& rhs) const {
  if (is_zero() || rhs.is_zero()) return BigUint{};
  BigUint out;
  out.limbs_.assign(limbs_.size() + rhs.limbs_.size(), 0);
  for (std::size_t i = 0; i < limbs_.size(); ++i) {
    std::uint64_t carry = 0;
    for (std::size_t j = 0; j < rhs.limbs_.size(); ++j) {
      const std::uint64_t cur = std::uint64_t{limbs_[i]} * rhs.limbs_[j] +
                                out.limbs_[i + j] + carry;
      out.limbs_[i + j] = static_cast<std::uint32_t>(cur);
      carry = cur >> 32;
    }
    std::size_t k = i + rhs.limbs_.size();
    while (carry) {
      const std::uint64_t cur = std::uint64_t{out.limbs_[k]} + carry;
      out.limbs_[k] = static_cast<std::uint32_t>(cur);
      carry = cur >> 32;
      ++k;
    }
  }
  out.trim();
  return out;
}

BigUint BigUint::operator<<(std::size_t bits) const {
  if (is_zero()) return BigUint{};
  const std::size_t limb_shift = bits / 32;
  const std::size_t bit_shift = bits % 32;
  BigUint out;
  out.limbs_.assign(limbs_.size() + limb_shift + 1, 0);
  for (std::size_t i = 0; i < limbs_.size(); ++i) {
    const std::uint64_t v = std::uint64_t{limbs_[i]} << bit_shift;
    out.limbs_[i + limb_shift] |= static_cast<std::uint32_t>(v);
    out.limbs_[i + limb_shift + 1] |= static_cast<std::uint32_t>(v >> 32);
  }
  out.trim();
  return out;
}

BigUint BigUint::operator>>(std::size_t bits) const {
  const std::size_t limb_shift = bits / 32;
  if (limb_shift >= limbs_.size()) return BigUint{};
  const std::size_t bit_shift = bits % 32;
  BigUint out;
  out.limbs_.assign(limbs_.size() - limb_shift, 0);
  for (std::size_t i = 0; i < out.limbs_.size(); ++i) {
    std::uint64_t v = std::uint64_t{limbs_[i + limb_shift]} >> bit_shift;
    if (bit_shift != 0 && i + limb_shift + 1 < limbs_.size()) {
      v |= std::uint64_t{limbs_[i + limb_shift + 1]} << (32 - bit_shift);
    }
    out.limbs_[i] = static_cast<std::uint32_t>(v);
  }
  out.trim();
  return out;
}

std::pair<BigUint, BigUint> BigUint::divmod(const BigUint& num,
                                            const BigUint& den) {
  if (den.is_zero()) throw std::domain_error("BigUint division by zero");
  if (num < den) return {BigUint{}, num};

  // Fast path: single-limb divisor.
  if (den.limbs_.size() == 1) {
    const std::uint64_t d = den.limbs_[0];
    BigUint quotient;
    quotient.limbs_.assign(num.limbs_.size(), 0);
    std::uint64_t rem = 0;
    for (std::size_t i = num.limbs_.size(); i-- > 0;) {
      const std::uint64_t cur = (rem << 32) | num.limbs_[i];
      quotient.limbs_[i] = static_cast<std::uint32_t>(cur / d);
      rem = cur % d;
    }
    quotient.trim();
    return {quotient, BigUint(rem)};
  }

  // Knuth TAOCP vol. 2, Algorithm D, base 2^32.
  const std::size_t n = den.limbs_.size();
  const std::size_t m = num.limbs_.size() - n;
  const int shift = std::countl_zero(den.limbs_.back());
  // Normalized copies: v has its top bit set; u gains one extra high limb.
  const BigUint v = den << static_cast<std::size_t>(shift);
  BigUint u_big = num << static_cast<std::size_t>(shift);
  std::vector<std::uint32_t> u(u_big.limbs_);
  u.resize(m + n + 1, 0);
  const std::vector<std::uint32_t>& vl = v.limbs_;

  BigUint quotient;
  quotient.limbs_.assign(m + 1, 0);
  constexpr std::uint64_t kBase = 1ULL << 32;
  for (std::size_t j = m + 1; j-- > 0;) {
    // Estimate the quotient digit from the top two dividend limbs.
    const std::uint64_t top = (std::uint64_t{u[j + n]} << 32) | u[j + n - 1];
    std::uint64_t qhat = top / vl[n - 1];
    std::uint64_t rhat = top % vl[n - 1];
    while (qhat >= kBase ||
           qhat * vl[n - 2] > ((rhat << 32) | u[j + n - 2])) {
      --qhat;
      rhat += vl[n - 1];
      if (rhat >= kBase) break;
    }
    // Multiply-and-subtract qhat * v from u[j .. j+n].
    std::int64_t borrow = 0;
    std::uint64_t carry = 0;
    for (std::size_t i = 0; i < n; ++i) {
      const std::uint64_t product = qhat * vl[i] + carry;
      carry = product >> 32;
      const std::int64_t diff = static_cast<std::int64_t>(u[i + j]) -
                                static_cast<std::int64_t>(product & 0xffffffff) -
                                borrow;
      u[i + j] = static_cast<std::uint32_t>(diff);
      borrow = diff < 0 ? 1 : 0;
    }
    const std::int64_t diff = static_cast<std::int64_t>(u[j + n]) -
                              static_cast<std::int64_t>(carry) - borrow;
    u[j + n] = static_cast<std::uint32_t>(diff);
    if (diff < 0) {
      // qhat was one too large; add v back.
      --qhat;
      std::uint64_t add_carry = 0;
      for (std::size_t i = 0; i < n; ++i) {
        const std::uint64_t sum =
            std::uint64_t{u[i + j]} + vl[i] + add_carry;
        u[i + j] = static_cast<std::uint32_t>(sum);
        add_carry = sum >> 32;
      }
      u[j + n] = static_cast<std::uint32_t>(u[j + n] + add_carry);
    }
    quotient.limbs_[j] = static_cast<std::uint32_t>(qhat);
  }
  quotient.trim();

  BigUint remainder;
  remainder.limbs_.assign(u.begin(), u.begin() + static_cast<std::ptrdiff_t>(n));
  remainder.trim();
  remainder = remainder >> static_cast<std::size_t>(shift);
  return {quotient, remainder};
}

BigUint BigUint::operator%(const BigUint& rhs) const {
  return divmod(*this, rhs).second;
}

BigUint BigUint::mod_pow(const BigUint& base, const BigUint& exp,
                         const BigUint& m) {
  if (m.is_zero()) throw std::domain_error("mod_pow modulus is zero");
  if (m == BigUint(1)) return BigUint{};
  BigUint result(1);
  BigUint b = base % m;
  for (std::size_t i = exp.bit_length(); i-- > 0;) {
    result = (result * result) % m;
    if (exp.bit(i)) result = (result * b) % m;
  }
  return result;
}

BigUint::InverseResult BigUint::mod_inverse(const BigUint& a,
                                            const BigUint& m) {
  // Extended Euclid on non-negative values, tracking coefficients as
  // (sign, magnitude) pairs to stay within unsigned arithmetic.
  if (m.is_zero()) return {};
  BigUint r0 = m, r1 = a % m;
  BigUint t0{}, t1(1);
  bool t0_neg = false, t1_neg = false;
  while (!r1.is_zero()) {
    const auto [q, r2] = divmod(r0, r1);
    // t2 = t0 - q * t1 with explicit sign handling.
    const BigUint qt1 = q * t1;
    BigUint t2;
    bool t2_neg;
    if (t0_neg == t1_neg) {
      if (t0 >= qt1) {
        t2 = t0 - qt1;
        t2_neg = t0_neg;
      } else {
        t2 = qt1 - t0;
        t2_neg = !t0_neg;
      }
    } else {
      t2 = t0 + qt1;
      t2_neg = t0_neg;
    }
    r0 = r1;
    r1 = r2;
    t0 = t1;
    t0_neg = t1_neg;
    t1 = std::move(t2);
    t1_neg = t2_neg;
  }
  if (!(r0 == BigUint(1))) return {};
  BigUint inv = t0 % m;
  if (t0_neg && !inv.is_zero()) inv = m - inv;
  return {inv, true};
}

}  // namespace sm::bignum
