// Little-endian fixed-width and varint encoders/decoders used by the log and
// page serialization code. All decoders are bounds-checked: they take the
// remaining byte count and report corruption instead of reading past the end,
// because the log tail may be torn after a crash.

#ifndef ARIESRH_UTIL_CODING_H_
#define ARIESRH_UTIL_CODING_H_

#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>

#include "util/status.h"

namespace ariesrh {

/// Appends a 1-byte value.
inline void PutFixed8(std::string* dst, uint8_t v) {
  dst->push_back(static_cast<char>(v));
}

/// Appends a 4-byte little-endian value.
void PutFixed32(std::string* dst, uint32_t v);

/// Appends an 8-byte little-endian value.
void PutFixed64(std::string* dst, uint64_t v);

/// Appends a varint-encoded 64-bit value (1-10 bytes).
void PutVarint64(std::string* dst, uint64_t v);

/// Appends a length-prefixed byte string.
void PutLengthPrefixed(std::string* dst, std::string_view value);

/// Reads a 4-/8-byte little-endian value from `p`; the caller has checked
/// that the bytes are there.
inline uint32_t DecodeFixed32(const char* p) {
  const auto* u = reinterpret_cast<const unsigned char*>(p);
  return static_cast<uint32_t>(u[0]) | (static_cast<uint32_t>(u[1]) << 8) |
         (static_cast<uint32_t>(u[2]) << 16) |
         (static_cast<uint32_t>(u[3]) << 24);
}
inline uint64_t DecodeFixed64(const char* p) {
  return (static_cast<uint64_t>(DecodeFixed32(p + 4)) << 32) |
         DecodeFixed32(p);
}

/// A bounds-checked sequential decoder over a byte buffer. The per-field
/// getters are inline: page and record decoders call them for every field.
class Decoder {
 public:
  Decoder(const char* data, size_t size) : p_(data), end_(data + size) {}
  explicit Decoder(const std::string& s) : Decoder(s.data(), s.size()) {}

  size_t remaining() const { return static_cast<size_t>(end_ - p_); }
  bool empty() const { return p_ == end_; }

  Status GetFixed8(uint8_t* v);
  Status GetFixed32(uint32_t* v);
  Status GetFixed64(uint64_t* v);
  Status GetVarint64(uint64_t* v);
  Status GetLengthPrefixed(std::string* value);
  /// As above, but the view points into the decoded buffer, which must
  /// outlive it.
  Status GetLengthPrefixed(std::string_view* value);

 private:
  const char* p_;
  const char* end_;
};

inline Status Decoder::GetFixed32(uint32_t* v) {
  if (remaining() < 4) return Status::Corruption("truncated fixed32");
  *v = DecodeFixed32(p_);
  p_ += 4;
  return Status::OK();
}

inline Status Decoder::GetFixed64(uint64_t* v) {
  if (remaining() < 8) return Status::Corruption("truncated fixed64");
  *v = DecodeFixed64(p_);
  p_ += 8;
  return Status::OK();
}

inline Status Decoder::GetVarint64(uint64_t* v) {
  uint64_t result = 0;
  for (int shift = 0; shift <= 63; shift += 7) {
    if (empty()) return Status::Corruption("truncated varint64");
    const uint64_t byte = static_cast<unsigned char>(*p_++);
    result |= (byte & 0x7f) << shift;
    if ((byte & 0x80) == 0) {
      *v = result;
      return Status::OK();
    }
  }
  return Status::Corruption("varint64 too long");
}

inline Status Decoder::GetLengthPrefixed(std::string_view* value) {
  uint64_t len = 0;
  ARIESRH_RETURN_IF_ERROR(GetVarint64(&len));
  if (remaining() < len) return Status::Corruption("truncated string");
  *value = std::string_view(p_, len);
  p_ += len;
  return Status::OK();
}

/// Zig-zag maps signed to unsigned so small-magnitude negatives stay short
/// under varint encoding.
inline uint64_t ZigZagEncode(int64_t v) {
  return (static_cast<uint64_t>(v) << 1) ^ static_cast<uint64_t>(v >> 63);
}
inline int64_t ZigZagDecode(uint64_t v) {
  return static_cast<int64_t>(v >> 1) ^ -static_cast<int64_t>(v & 1);
}

}  // namespace ariesrh

#endif  // ARIESRH_UTIL_CODING_H_
