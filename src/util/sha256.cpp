#include "util/sha256.h"

#include <bit>
#include <cstring>

#include "util/sha256_blocks.h"

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define SM_SHA256_HAVE_SHA_NI 1
#include <cpuid.h>
#include <immintrin.h>
#endif

namespace sm::util {

namespace {

constexpr std::array<std::uint32_t, 64> kRoundConstants = {
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1,
    0x923f82a4, 0xab1c5ed5, 0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3,
    0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174, 0xe49b69c1, 0xefbe4786,
    0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147,
    0x06ca6351, 0x14292967, 0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13,
    0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85, 0xa2bfe8a1, 0xa81a664b,
    0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a,
    0x5b9cca4f, 0x682e6ff3, 0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208,
    0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2};

std::uint32_t load_be32(const std::uint8_t* p) {
  return (std::uint32_t{p[0]} << 24) | (std::uint32_t{p[1]} << 16) |
         (std::uint32_t{p[2]} << 8) | std::uint32_t{p[3]};
}

void store_be32(std::uint8_t* p, std::uint32_t v) {
  p[0] = static_cast<std::uint8_t>(v >> 24);
  p[1] = static_cast<std::uint8_t>(v >> 16);
  p[2] = static_cast<std::uint8_t>(v >> 8);
  p[3] = static_cast<std::uint8_t>(v);
}

}  // namespace

Sha256::Sha256()
    : state_{0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a, 0x510e527f,
             0x9b05688c, 0x1f83d9ab, 0x5be0cd19} {}

Sha256& Sha256::update(BytesView data) {
  const detail::Sha256BlocksFn blocks = detail::sha256_blocks();
  total_len_ += data.size();
  std::size_t offset = 0;
  if (buffer_len_ > 0) {
    const std::size_t take = std::min(data.size(), 64 - buffer_len_);
    std::memcpy(buffer_.data() + buffer_len_, data.data(), take);
    buffer_len_ += take;
    offset += take;
    if (buffer_len_ < 64) return *this;
    blocks(state_.data(), buffer_.data(), 1);
    buffer_len_ = 0;
  }
  const std::size_t whole = (data.size() - offset) / 64;
  if (whole > 0) {
    blocks(state_.data(), data.data() + offset, whole);
    offset += whole * 64;
  }
  if (offset < data.size()) {
    buffer_len_ = data.size() - offset;
    std::memcpy(buffer_.data(), data.data() + offset, buffer_len_);
  }
  return *this;
}

Bytes Sha256::finish() {
  const detail::Sha256BlocksFn blocks = detail::sha256_blocks();
  const std::uint64_t bit_len = total_len_ * 8;
  // Pad in place: 0x80, zeros up to byte 56 of the last block (spilling
  // into one more block when fewer than 8 bytes are left), then the
  // big-endian bit length.
  buffer_[buffer_len_++] = 0x80;
  if (buffer_len_ > 56) {
    std::memset(buffer_.data() + buffer_len_, 0, 64 - buffer_len_);
    blocks(state_.data(), buffer_.data(), 1);
    buffer_len_ = 0;
  }
  std::memset(buffer_.data() + buffer_len_, 0, 56 - buffer_len_);
  store_be32(buffer_.data() + 56, static_cast<std::uint32_t>(bit_len >> 32));
  store_be32(buffer_.data() + 60, static_cast<std::uint32_t>(bit_len));
  blocks(state_.data(), buffer_.data(), 1);
  Bytes out(kDigestSize);
  for (int i = 0; i < 8; ++i) store_be32(out.data() + 4 * i, state_[i]);
  return out;
}

Bytes Sha256::digest(BytesView data) {
  Sha256 h;
  h.update(data);
  return h.finish();
}

namespace detail {

void sha256_blocks_portable(std::uint32_t* state, const std::uint8_t* data,
                            std::size_t nblocks) {
  for (; nblocks > 0; --nblocks, data += 64) {
    std::uint32_t w[64];
    for (int i = 0; i < 16; ++i) w[i] = load_be32(data + 4 * i);
    for (int i = 16; i < 64; ++i) {
      const std::uint32_t s0 = std::rotr(w[i - 15], 7) ^
                               std::rotr(w[i - 15], 18) ^ (w[i - 15] >> 3);
      const std::uint32_t s1 = std::rotr(w[i - 2], 17) ^
                               std::rotr(w[i - 2], 19) ^ (w[i - 2] >> 10);
      w[i] = w[i - 16] + s0 + w[i - 7] + s1;
    }
    std::uint32_t a = state[0], b = state[1], c = state[2], d = state[3];
    std::uint32_t e = state[4], f = state[5], g = state[6], h = state[7];
    for (int i = 0; i < 64; ++i) {
      const std::uint32_t s1 =
          std::rotr(e, 6) ^ std::rotr(e, 11) ^ std::rotr(e, 25);
      const std::uint32_t ch = (e & f) ^ (~e & g);
      const std::uint32_t temp1 = h + s1 + ch + kRoundConstants[i] + w[i];
      const std::uint32_t s0 =
          std::rotr(a, 2) ^ std::rotr(a, 13) ^ std::rotr(a, 22);
      const std::uint32_t maj = (a & b) ^ (a & c) ^ (b & c);
      const std::uint32_t temp2 = s0 + maj;
      h = g;
      g = f;
      f = e;
      e = d + temp1;
      d = c;
      c = b;
      b = a;
      a = temp1 + temp2;
    }
    state[0] += a;
    state[1] += b;
    state[2] += c;
    state[3] += d;
    state[4] += e;
    state[5] += f;
    state[6] += g;
    state[7] += h;
  }
}

#ifdef SM_SHA256_HAVE_SHA_NI

bool cpu_has_sha_ni() {
  unsigned eax = 0, ebx = 0, ecx = 0, edx = 0;
  if (!__get_cpuid(1, &eax, &ebx, &ecx, &edx)) return false;
  const bool ssse3 = (ecx & bit_SSSE3) != 0;
  const bool sse41 = (ecx & bit_SSE4_1) != 0;
  if (!__get_cpuid_count(7, 0, &eax, &ebx, &ecx, &edx)) return false;
  const bool sha = (ebx & bit_SHA) != 0;
  return sha && sse41 && ssse3;
}

// The Intel SHA-extensions schedule: the state lives as ABEF/CDGH halves,
// each sha256rnds2 runs two rounds, and sha256msg1/msg2 extend the message
// schedule four words at a time. Group i (rounds 4i..4i+3) consumes w[i % 4]
// and, while the schedule is still growing, completes w[(i + 1) % 4] and
// starts w[(i - 1) % 4].
__attribute__((target("sha,sse4.1,ssse3"))) void sha256_blocks_sha_ni(
    std::uint32_t* state, const std::uint8_t* data, std::size_t nblocks) {
  const __m128i byte_swap =
      _mm_set_epi64x(0x0c0d0e0f08090a0bULL, 0x0405060700010203ULL);
  __m128i tmp = _mm_loadu_si128(reinterpret_cast<const __m128i*>(state));
  __m128i state1 =
      _mm_loadu_si128(reinterpret_cast<const __m128i*>(state + 4));
  tmp = _mm_shuffle_epi32(tmp, 0xb1);            // CDAB
  state1 = _mm_shuffle_epi32(state1, 0x1b);      // EFGH
  __m128i state0 = _mm_alignr_epi8(tmp, state1, 8);  // ABEF
  state1 = _mm_blend_epi16(state1, tmp, 0xf0);       // CDGH

  for (; nblocks > 0; --nblocks, data += 64) {
    const __m128i abef_saved = state0;
    const __m128i cdgh_saved = state1;
    __m128i w[4];
#pragma GCC unroll 16
    for (int i = 0; i < 16; ++i) {
      if (i < 4) {
        w[i] = _mm_shuffle_epi8(
            _mm_loadu_si128(reinterpret_cast<const __m128i*>(data + 16 * i)),
            byte_swap);
      }
      const __m128i cur = w[i % 4];
      __m128i msg = _mm_add_epi32(
          cur, _mm_loadu_si128(reinterpret_cast<const __m128i*>(
                   kRoundConstants.data() + 4 * i)));
      state1 = _mm_sha256rnds2_epu32(state1, state0, msg);
      if (i >= 3 && i <= 14) {
        __m128i& next = w[(i + 1) % 4];
        next = _mm_add_epi32(next, _mm_alignr_epi8(cur, w[(i + 3) % 4], 4));
        next = _mm_sha256msg2_epu32(next, cur);
      }
      msg = _mm_shuffle_epi32(msg, 0x0e);
      state0 = _mm_sha256rnds2_epu32(state0, state1, msg);
      if (i >= 1 && i <= 12) {
        w[(i + 3) % 4] = _mm_sha256msg1_epu32(w[(i + 3) % 4], cur);
      }
    }
    state0 = _mm_add_epi32(state0, abef_saved);
    state1 = _mm_add_epi32(state1, cdgh_saved);
  }

  tmp = _mm_shuffle_epi32(state0, 0x1b);         // FEBA
  state1 = _mm_shuffle_epi32(state1, 0xb1);      // DCHG
  state0 = _mm_blend_epi16(tmp, state1, 0xf0);   // DCBA
  state1 = _mm_alignr_epi8(state1, tmp, 8);      // HGFE
  _mm_storeu_si128(reinterpret_cast<__m128i*>(state), state0);
  _mm_storeu_si128(reinterpret_cast<__m128i*>(state + 4), state1);
}

#else

bool cpu_has_sha_ni() { return false; }

void sha256_blocks_sha_ni(std::uint32_t* state, const std::uint8_t* data,
                          std::size_t nblocks) {
  sha256_blocks_portable(state, data, nblocks);
}

#endif

Sha256BlocksFn sha256_blocks() {
  static const Sha256BlocksFn chosen =
      cpu_has_sha_ni() ? sha256_blocks_sha_ni : sha256_blocks_portable;
  return chosen;
}

}  // namespace detail

}  // namespace sm::util
