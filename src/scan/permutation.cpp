#include "scan/permutation.h"

#include "util/prng.h"

namespace sm::scan {

namespace {

// Round function: a small integer mixer (xorshift-multiply) of the 16-bit
// half and the round key; only the low 16 bits of the result are used.
std::uint16_t feistel_f(std::uint16_t half, std::uint32_t round_key) {
  std::uint32_t x = half ^ round_key;
  x *= 0x85ebca6b;
  x ^= x >> 13;
  x *= 0xc2b2ae35;
  x ^= x >> 16;
  return static_cast<std::uint16_t>(x);
}

// GCC/Clang's 128-bit integer; __extension__ marks its use as intended
// under -Wpedantic.
__extension__ typedef unsigned __int128 Uint128;

}  // namespace

AddressPermutation::AddressPermutation(std::uint64_t key) {
  util::SplitMix64 sm(key);
  for (auto& rk : round_keys_) rk = static_cast<std::uint32_t>(sm.next());
}

std::uint32_t AddressPermutation::forward(std::uint32_t index) const {
  std::uint16_t left = static_cast<std::uint16_t>(index >> 16);
  std::uint16_t right = static_cast<std::uint16_t>(index);
  for (int round = 0; round < kRounds; ++round) {
    const std::uint16_t next_left = right;
    right = static_cast<std::uint16_t>(left ^ feistel_f(right, round_keys_[round]));
    left = next_left;
  }
  return (std::uint32_t{left} << 16) | right;
}

std::uint32_t AddressPermutation::inverse(std::uint32_t address) const {
  std::uint16_t left = static_cast<std::uint16_t>(address >> 16);
  std::uint16_t right = static_cast<std::uint16_t>(address);
  for (int round = kRounds - 1; round >= 0; --round) {
    const std::uint16_t prev_right = left;
    left = static_cast<std::uint16_t>(right ^ feistel_f(left, round_keys_[round]));
    right = prev_right;
  }
  return (std::uint32_t{left} << 16) | right;
}

util::UnixTime probe_time(const AddressPermutation& perm, net::Ipv4Address ip,
                          util::UnixTime start,
                          std::int64_t duration_seconds) {
  const std::uint32_t index = perm.inverse(ip.value());
  // Probe instant = start + duration * index / 2^32, in integer arithmetic.
  const auto offset = static_cast<std::int64_t>(
      (static_cast<Uint128>(index) * static_cast<Uint128>(duration_seconds)) >>
      32);
  return start + offset;
}

}  // namespace sm::scan
