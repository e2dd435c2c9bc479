// The SHA-256 compression function behind util::Sha256, in two
// implementations: the portable one (FIPS 180-4 as written) and one on the
// x86 SHA extensions (SHA-NI). Sha256 picks one once per process through
// cpuid; tests call both directly to check them against each other.
#pragma once

#include <cstddef>
#include <cstdint>

namespace sm::util::detail {

/// Compresses `nblocks` consecutive 64-byte blocks of `data` into `state`.
using Sha256BlocksFn = void (*)(std::uint32_t* state, const std::uint8_t* data,
                                std::size_t nblocks);

/// The portable compression function; always available.
void sha256_blocks_portable(std::uint32_t* state, const std::uint8_t* data,
                            std::size_t nblocks);

/// True when this build carries the SHA-NI implementation and the CPU
/// reports the SHA, SSE4.1 and SSSE3 extensions it needs.
bool cpu_has_sha_ni();

/// The SHA-NI compression function. Call only when cpu_has_sha_ni().
void sha256_blocks_sha_ni(std::uint32_t* state, const std::uint8_t* data,
                          std::size_t nblocks);

/// The implementation Sha256 uses: SHA-NI when cpu_has_sha_ni(), else the
/// portable one. Chosen on first call (a function-local static, so a hash
/// taken during static initialisation is still right).
Sha256BlocksFn sha256_blocks();

}  // namespace sm::util::detail
