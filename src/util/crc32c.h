// CRC-32C (Castagnoli) checksums guard every log record and page image
// against torn writes on the simulated stable storage.
//
// Extend runs on the SSE4.2 crc32 instruction, 8 bytes at a time, where the
// host has it (checked once at run time) and on a byte-at-a-time table
// otherwise. Both compute the same polynomial, so every checksum is
// identical on every host.

#ifndef ARIESRH_UTIL_CRC32C_H_
#define ARIESRH_UTIL_CRC32C_H_

#include <cstddef>
#include <cstdint>
#include <string>

namespace ariesrh::crc32c {

/// Returns the CRC-32C of data[0..n-1], continuing from `init` (pass 0 to
/// start a fresh checksum).
uint32_t Extend(uint32_t init, const char* data, size_t n);

/// Returns the CRC-32C of the buffer.
inline uint32_t Value(const char* data, size_t n) { return Extend(0, data, n); }
inline uint32_t Value(const std::string& s) { return Value(s.data(), s.size()); }

/// Masks a CRC so that checksums of data containing embedded checksums do not
/// degenerate (same trick as LevelDB).
inline uint32_t Mask(uint32_t crc) {
  return ((crc >> 15) | (crc << 17)) + 0xa282ead8u;
}
inline uint32_t Unmask(uint32_t masked) {
  uint32_t rot = masked - 0xa282ead8u;
  return (rot << 15) | (rot >> 17);
}

namespace internal {

/// The portable table routine Extend falls back to. Exposed so tests and
/// benchmarks cover it on hosts where Extend takes the hardware path.
uint32_t ExtendPortable(uint32_t init, const char* data, size_t n);

/// Whether Extend runs on the SSE4.2 crc32 instruction on this host.
bool HardwareAccelerated();

}  // namespace internal

}  // namespace ariesrh::crc32c

#endif  // ARIESRH_UTIL_CRC32C_H_
