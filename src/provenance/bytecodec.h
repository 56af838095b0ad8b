#ifndef LIPSTICK_PROVENANCE_BYTECODEC_H_
#define LIPSTICK_PROVENANCE_BYTECODEC_H_

#include <cstdint>
#include <string>
#include <string_view>

#include "common/result.h"
#include "relational/value.h"

namespace lipstick::bytecodec {

/// The one little-endian byte codec of the repository, shared by the
/// write-ahead log (wal.cc segments, recovery.cc replay) and the binary
/// provenance file format (provio.cc).

/// CRC-32 (IEEE 802.3, reflected, as zlib computes it).
uint32_t Crc32(const void* data, size_t n);
inline uint32_t Crc32(std::string_view s) { return Crc32(s.data(), s.size()); }

inline void PutU8(std::string* out, uint8_t v) {
  out->push_back(static_cast<char>(v));
}

inline void PutU32(std::string* out, uint32_t v) {
  char b[4] = {static_cast<char>(v), static_cast<char>(v >> 8),
               static_cast<char>(v >> 16), static_cast<char>(v >> 24)};
  out->append(b, 4);
}

inline void PutU64(std::string* out, uint64_t v) {
  PutU32(out, static_cast<uint32_t>(v));
  PutU32(out, static_cast<uint32_t>(v >> 32));
}

/// Overwrites the four bytes at `at` (written earlier as a placeholder,
/// e.g. a length or CRC patched once the data after it is known).
inline void PatchU32(std::string* out, size_t at, uint32_t v) {
  (*out)[at] = static_cast<char>(v);
  (*out)[at + 1] = static_cast<char>(v >> 8);
  (*out)[at + 2] = static_cast<char>(v >> 16);
  (*out)[at + 3] = static_cast<char>(v >> 24);
}

/// Little-endian reader over an in-memory buffer. Reads past the end set
/// ok = false and return zeros rather than trapping, so a decoder can
/// validate once at the end of a record.
struct Cursor {
  const char* p;
  const char* end;
  bool ok = true;

  explicit Cursor(std::string_view s) : p(s.data()), end(s.data() + s.size()) {}

  size_t remaining() const { return static_cast<size_t>(end - p); }
  bool AtEnd() const { return p == end; }

  uint8_t U8() {
    if (end - p < 1) {
      ok = false;
      return 0;
    }
    return static_cast<uint8_t>(*p++);
  }

  uint32_t U32() {
    if (end - p < 4) {
      ok = false;
      p = end;
      return 0;
    }
    uint32_t v = static_cast<uint32_t>(static_cast<uint8_t>(p[0])) |
                 static_cast<uint32_t>(static_cast<uint8_t>(p[1])) << 8 |
                 static_cast<uint32_t>(static_cast<uint8_t>(p[2])) << 16 |
                 static_cast<uint32_t>(static_cast<uint8_t>(p[3])) << 24;
    p += 4;
    return v;
  }

  uint64_t U64() {
    uint64_t lo = U32();
    uint64_t hi = U32();
    return lo | hi << 32;
  }

  std::string_view Bytes(size_t n) {
    if (remaining() < n) {
      ok = false;
      p = end;
      return {};
    }
    std::string_view s(p, n);
    p += n;
    return s;
  }
};

/// Scalar-value codec: a tag byte ('N', 'B', 'I', 'D', 'S') plus its
/// payload. Nested values (bags, tuples) are never stored in graph
/// v-nodes and degrade to null.
void EncodeValue(std::string* out, const Value& v);
Result<Value> DecodeValue(Cursor* c);

}  // namespace lipstick::bytecodec

#endif  // LIPSTICK_PROVENANCE_BYTECODEC_H_
