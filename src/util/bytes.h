// Basic byte-buffer aliases and helpers shared by every module.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace sm::util {

/// A dynamically-sized byte buffer. All wire formats (DER, key material,
/// digests) are represented as `Bytes` throughout the library.
using Bytes = std::vector<std::uint8_t>;

/// A non-owning view over bytes, used for all parsing/verification inputs.
using BytesView = std::span<const std::uint8_t>;

/// Copies the raw bytes of a string into a `Bytes` buffer.
inline Bytes to_bytes(std::string_view s) {
  return Bytes(s.begin(), s.end());
}

/// Views the raw bytes of a string without copying them.
inline BytesView as_bytes(std::string_view s) {
  return BytesView(reinterpret_cast<const std::uint8_t*>(s.data()), s.size());
}

/// Reinterprets a byte buffer as a std::string (no encoding validation).
inline std::string to_string(BytesView b) {
  return std::string(b.begin(), b.end());
}

/// Appends `src` to the end of `dst`.
inline void append(Bytes& dst, BytesView src) {
  dst.insert(dst.end(), src.begin(), src.end());
}

}  // namespace sm::util
