#include "provenance/bytecodec.h"

#include <array>
#include <cstring>

#include "common/str_util.h"

namespace lipstick::bytecodec {

uint32_t Crc32(const void* data, size_t n) {
  // Slicing-by-8: table k advances a byte through k further zero bytes,
  // so eight input bytes fold into the CRC with eight independent lookups.
  static const std::array<std::array<uint32_t, 256>, 8> kTables = [] {
    std::array<std::array<uint32_t, 256>, 8> t{};
    for (uint32_t i = 0; i < 256; ++i) {
      uint32_t c = i;
      for (int k = 0; k < 8; ++k) {
        c = (c & 1u) != 0 ? 0xedb88320u ^ (c >> 1) : c >> 1;
      }
      t[0][i] = c;
    }
    for (uint32_t i = 0; i < 256; ++i) {
      for (size_t k = 1; k < 8; ++k) {
        t[k][i] = (t[k - 1][i] >> 8) ^ t[0][t[k - 1][i] & 0xffu];
      }
    }
    return t;
  }();
  uint32_t crc = 0xffffffffu;
  const auto* p = static_cast<const unsigned char*>(data);
  for (; n >= 8; n -= 8, p += 8) {
    uint32_t lo = crc ^ (static_cast<uint32_t>(p[0]) |
                         static_cast<uint32_t>(p[1]) << 8 |
                         static_cast<uint32_t>(p[2]) << 16 |
                         static_cast<uint32_t>(p[3]) << 24);
    crc = kTables[7][lo & 0xffu] ^ kTables[6][(lo >> 8) & 0xffu] ^
          kTables[5][(lo >> 16) & 0xffu] ^ kTables[4][lo >> 24] ^
          kTables[3][p[4]] ^ kTables[2][p[5]] ^ kTables[1][p[6]] ^
          kTables[0][p[7]];
  }
  for (; n > 0; --n, ++p) {
    crc = kTables[0][(crc ^ *p) & 0xffu] ^ (crc >> 8);
  }
  return crc ^ 0xffffffffu;
}

void EncodeValue(std::string* out, const Value& v) {
  if (v.is_bool()) {
    PutU8(out, 'B');
    PutU8(out, v.bool_value() ? 1 : 0);
  } else if (v.is_int()) {
    PutU8(out, 'I');
    PutU64(out, static_cast<uint64_t>(v.int_value()));
  } else if (v.is_double()) {
    PutU8(out, 'D');
    uint64_t bits;
    double d = v.double_value();
    std::memcpy(&bits, &d, sizeof bits);
    PutU64(out, bits);
  } else if (v.is_string()) {
    const std::string& s = v.string_value();
    PutU8(out, 'S');
    PutU32(out, static_cast<uint32_t>(s.size()));
    out->append(s);
  } else {
    PutU8(out, 'N');
  }
}

Result<Value> DecodeValue(Cursor* c) {
  uint8_t tag = c->U8();
  switch (tag) {
    case 'N':
      return Value::Null();
    case 'B':
      return Value::Bool(c->U8() != 0);
    case 'I':
      return Value::Int(static_cast<int64_t>(c->U64()));
    case 'D': {
      uint64_t bits = c->U64();
      double d;
      std::memcpy(&d, &bits, sizeof d);
      return Value::Double(d);
    }
    case 'S': {
      uint32_t n = c->U32();
      std::string_view s = c->Bytes(n);
      if (!c->ok) break;
      return Value::String(std::string(s));
    }
    default:
      break;
  }
  return Status::ParseError(StrCat("bad value tag ", static_cast<int>(tag)));
}

}  // namespace lipstick::bytecodec
