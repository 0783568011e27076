#include "util/crc32c.h"

#include <array>
#include <cstring>

#if defined(__x86_64__)
#include <nmmintrin.h>
#endif

namespace ariesrh::crc32c {

namespace {

// Table-driven CRC-32C, reflected polynomial 0x82f63b78.
std::array<uint32_t, 256> MakeTable() {
  std::array<uint32_t, 256> table{};
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t crc = i;
    for (int j = 0; j < 8; ++j) {
      crc = (crc >> 1) ^ ((crc & 1) ? 0x82f63b78u : 0);
    }
    table[i] = crc;
  }
  return table;
}

const std::array<uint32_t, 256>& Table() {
  static const std::array<uint32_t, 256> table = MakeTable();
  return table;
}

#if defined(__x86_64__)

// The SSE4.2 crc32 instruction computes the same reflected polynomial
// without the pre/post inversion, so only the framing is shared with the
// table routine.
__attribute__((target("sse4.2"))) uint32_t ExtendHardware(uint32_t init,
                                                           const char* data,
                                                           size_t n) {
  uint64_t crc = init ^ 0xffffffffu;
  for (; n >= 8; data += 8, n -= 8) {
    uint64_t word;
    std::memcpy(&word, data, sizeof(word));
    crc = _mm_crc32_u64(crc, word);
  }
  uint32_t crc32 = static_cast<uint32_t>(crc);
  for (; n > 0; ++data, --n) {
    crc32 = _mm_crc32_u8(crc32, static_cast<unsigned char>(*data));
  }
  return crc32 ^ 0xffffffffu;
}

#endif

using ExtendFn = uint32_t (*)(uint32_t, const char*, size_t);

ExtendFn PickExtend() {
#if defined(__x86_64__)
  if (__builtin_cpu_supports("sse4.2")) return ExtendHardware;
#endif
  return internal::ExtendPortable;
}

}  // namespace

uint32_t Extend(uint32_t init, const char* data, size_t n) {
  static const ExtendFn extend = PickExtend();
  return extend(init, data, n);
}

namespace internal {

uint32_t ExtendPortable(uint32_t init, const char* data, size_t n) {
  const auto& table = Table();
  uint32_t crc = init ^ 0xffffffffu;
  for (size_t i = 0; i < n; ++i) {
    crc = table[(crc ^ static_cast<unsigned char>(data[i])) & 0xff] ^
          (crc >> 8);
  }
  return crc ^ 0xffffffffu;
}

bool HardwareAccelerated() {
  return PickExtend() != internal::ExtendPortable;
}

}  // namespace internal

}  // namespace ariesrh::crc32c
