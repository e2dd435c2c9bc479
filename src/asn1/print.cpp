#include "asn1/print.h"

#include <cstdio>

#include "asn1/der.h"
#include "util/datetime.h"
#include "util/hex.h"

namespace sm::asn1 {

namespace {

bool printable_text(util::BytesView content) {
  if (content.empty()) return false;
  for (const std::uint8_t b : content) {
    if (b < 0x20 || b > 0x7e) return false;
  }
  return true;
}

std::string hex_preview(util::BytesView content, std::size_t max_bytes) {
  if (content.size() <= max_bytes) return util::hex_encode(content);
  return util::hex_encode(content.subspan(0, max_bytes)) + "..";
}

void render(util::BytesView data, std::size_t depth,
            const PrintOptions& options, std::string& out) {
  Reader reader(data);
  while (!reader.at_end()) {
    const std::size_t before = reader.remaining();
    const auto tlv = reader.read_any();
    if (!tlv) {
      out.append(depth * 2, ' ');
      out += "!malformed (" + std::to_string(before) + " bytes): ";
      out += hex_preview(data.subspan(data.size() - before),
                         options.max_value_bytes);
      out += '\n';
      return;
    }
    out.append(depth * 2, ' ');
    out += tag_name(tlv->tag);

    const bool constructed = tlv->tag & 0x20;
    if (constructed) {
      out += " (" + std::to_string(tlv->content.size()) + " bytes)\n";
      if (depth + 1 >= options.max_depth) {
        out.append((depth + 1) * 2, ' ');
        out += "... (max depth)\n";
      } else {
        render(tlv->content, depth + 1, options, out);
      }
      continue;
    }

    // Primitive: decode the common universal types.
    Reader one(tlv->full);
    switch (static_cast<Tag>(tlv->tag)) {
      case Tag::kInteger: {
        if (const auto value = one.read_integer()) {
          const std::string hex = value->to_hex();
          out += hex.size() <= 16 ? " " + std::to_string(value->low64())
                                  : " 0x" + hex;
        } else {
          out += " (negative/raw) " +
                 hex_preview(tlv->content, options.max_value_bytes);
        }
        break;
      }
      case Tag::kBoolean:
        out += tlv->content.size() == 1 && tlv->content[0] ? " TRUE"
                                                           : " FALSE";
        break;
      case Tag::kNull:
        break;
      case Tag::kOid: {
        if (const auto oid = Oid::decode(tlv->content)) {
          out += " " + oid->to_string();
        } else {
          out += " !bad-oid " + hex_preview(tlv->content,
                                            options.max_value_bytes);
        }
        break;
      }
      case Tag::kUtf8String:
      case Tag::kPrintableString:
      case Tag::kIa5String:
        out += " \"" + util::to_string(tlv->content) + "\"";
        break;
      case Tag::kUtcTime:
      case Tag::kGeneralizedTime: {
        if (const auto t = one.read_time()) {
          out += " " + util::format_datetime(*t);
        } else {
          out += " !bad-time";
        }
        break;
      }
      default:
        if (printable_text(tlv->content)) {
          out += " \"" + util::to_string(tlv->content) + "\"";
        } else if (!tlv->content.empty()) {
          out += " " + hex_preview(tlv->content, options.max_value_bytes) +
                 " (" + std::to_string(tlv->content.size()) + " bytes)";
        }
    }
    out += '\n';
  }
}

}  // namespace

std::string tag_name(std::uint8_t tag) {
  switch (static_cast<Tag>(tag)) {
    case Tag::kBoolean:
      return "BOOLEAN";
    case Tag::kInteger:
      return "INTEGER";
    case Tag::kBitString:
      return "BIT STRING";
    case Tag::kOctetString:
      return "OCTET STRING";
    case Tag::kNull:
      return "NULL";
    case Tag::kOid:
      return "OBJECT IDENTIFIER";
    case Tag::kUtf8String:
      return "UTF8String";
    case Tag::kPrintableString:
      return "PrintableString";
    case Tag::kIa5String:
      return "IA5String";
    case Tag::kUtcTime:
      return "UTCTime";
    case Tag::kGeneralizedTime:
      return "GeneralizedTime";
    case Tag::kSequence:
      return "SEQUENCE";
    case Tag::kSet:
      return "SET";
    default:
      break;
  }
  if ((tag & 0xc0) == 0x80) {  // context class
    char buf[24];  // "[31] (primitive)" and its NUL need 17
    std::snprintf(buf, sizeof(buf), "[%u]%s", tag & 0x1f,
                  (tag & 0x20) ? "" : " (primitive)");
    return buf;
  }
  char buf[16];
  std::snprintf(buf, sizeof(buf), "tag 0x%02x", tag);
  return buf;
}

std::string to_text(util::BytesView der, const PrintOptions& options) {
  std::string out;
  render(der, 0, options, out);
  return out;
}

}  // namespace sm::asn1
