#include "notary/batch.h"

namespace sm::notary {
namespace {

constexpr std::size_t kFpSize = sizeof(scan::CertFingerprint);
constexpr std::size_t kEntryHeaderSize = 5;  // status byte + u32le length

bool is_response_status(std::uint8_t value) {
  switch (static_cast<netio::FrameType>(value)) {
    case netio::FrameType::kCertInfo:
    case netio::FrameType::kNotFound:
    case netio::FrameType::kRevocationInfo:
    case netio::FrameType::kError:
      return true;
    default:
      return false;
  }
}

}  // namespace

std::string encode_batch_query(
    const std::vector<scan::CertFingerprint>& fingerprints) {
  std::string out;
  out.reserve(4 + fingerprints.size() * kFpSize);
  netio::put_u32le(out, 0);
  for (const auto& fp : fingerprints) append_batch_query_entry(out, fp);
  return out;
}

void append_batch_query_entry(std::string& payload,
                              const scan::CertFingerprint& fp) {
  if (payload.empty()) netio::put_u32le(payload, 0);
  netio::patch_u32le(payload, 0, netio::get_u32le(payload.data()) + 1);
  payload.append(reinterpret_cast<const char*>(fp.data()), kFpSize);
}

bool BatchQueryView::parse(std::string_view payload) {
  fps_ = nullptr;
  count_ = 0;
  if (payload.size() < 4) return false;
  const std::uint32_t count = netio::get_u32le(payload.data());
  if (count > kMaxBatchEntries) return false;
  if (payload.size() != 4 + static_cast<std::size_t>(count) * kFpSize) {
    return false;
  }
  fps_ = payload.data() + 4;
  count_ = count;
  return true;
}

std::size_t begin_batch_entry(std::string& payload, netio::FrameType status) {
  payload.push_back(static_cast<char>(status));
  payload.append(4, '\0');  // length, patched by end_batch_entry
  return payload.size();
}

void end_batch_entry(std::string& payload, std::size_t body_start) {
  netio::patch_u32le(payload, body_start - 4,
                     static_cast<std::uint32_t>(payload.size() - body_start));
}

bool BatchInfoView::parse(std::string_view payload) {
  rest_ = {};
  count_ = 0;
  if (payload.size() < 4) return false;
  const std::uint32_t count = netio::get_u32le(payload.data());
  if (count > kMaxBatchEntries) return false;
  std::size_t off = 4;
  for (std::uint32_t i = 0; i < count; ++i) {
    if (payload.size() - off < kEntryHeaderSize) return false;
    if (!is_response_status(static_cast<std::uint8_t>(payload[off]))) {
      return false;
    }
    const std::uint32_t len = netio::get_u32le(payload.data() + off + 1);
    off += kEntryHeaderSize;
    if (payload.size() - off < len) return false;
    off += len;
  }
  if (off != payload.size()) return false;
  rest_ = payload.substr(4);
  count_ = count;
  return true;
}

std::string_view BatchInfoView::next_entry() {
  const std::size_t len =
      kEntryHeaderSize + netio::get_u32le(rest_.data() + 1);
  const std::string_view entry = rest_.substr(0, len);
  rest_.remove_prefix(len);
  return entry;
}

bool parse_batch_info(std::string_view payload, std::vector<BatchEntry>& out) {
  BatchInfoView view;
  if (!view.parse(payload)) return false;
  out.clear();
  out.reserve(view.size());
  for (std::uint32_t i = 0; i < view.size(); ++i) {
    const std::string_view entry = view.next_entry();
    out.push_back({static_cast<netio::FrameType>(
                       static_cast<std::uint8_t>(entry[0])),
                   std::string(entry.substr(kEntryHeaderSize))});
  }
  return true;
}

}  // namespace sm::notary
