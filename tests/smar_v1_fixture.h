// The bytes of a retired SMAR v1 archive (unframed, no checksums: 1 cert,
// 1 scan, 1 observation). Only v2 is read now, so these bytes exist to
// check that every loader rejects them.
#pragma once

#include <string>

namespace sm::scan {

inline constexpr char kGoldenV1Hex[] =
    "534d415201000000010000000102030405060708090a0b0c0d0e0f10887766554433"
    "22110c0000006465766963652e6c6f63616c0b0000003139322e3136382e312e310e"
    "000000434e3d3139322e3136382e312e31080000003062616463306465808aa85100"
    "00000000943577000000000200000010000000646e733a6465766963652e6c6f6361"
    "6c0b00000069703a31302e302e302e310400000061316232180000006874"
    "74703a2f2f63726c2e6578616d706c652f632e63726c000000001300000068747470"
    "3a2f2f6f6373702e6578616d706c6507000000312e322e332e340200000000010100"
    "00000080e3d34f00000000a08c00000000000001000000000000000100000a070000"
    "00";

inline std::string unhex(const std::string& hex) {
  std::string out;
  for (std::size_t i = 0; i + 1 < hex.size(); i += 2) {
    const auto nibble = [&](char c) {
      return c <= '9' ? c - '0' : c - 'a' + 10;
    };
    out.push_back(
        static_cast<char>((nibble(hex[i]) << 4) | nibble(hex[i + 1])));
  }
  return out;
}

}  // namespace sm::scan
