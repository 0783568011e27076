#include "util/crc32c.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "util/random.h"

namespace ariesrh {
namespace {

// Extend (the hardware routine where the host has SSE4.2) and the portable
// table routine, so every check below covers both paths.
struct Path {
  const char* name;
  uint32_t (*extend)(uint32_t, const char*, size_t);
};
const Path kPaths[] = {{"dispatch", crc32c::Extend},
                       {"portable", crc32c::internal::ExtendPortable}};

std::string RandomBytes(uint64_t seed, size_t n) {
  Random rng(seed);
  std::string out(n, '\0');
  for (char& c : out) c = static_cast<char>(rng.Uniform(256));
  return out;
}

TEST(Crc32cTest, KnownVectors) {
  // Standard CRC-32C test vectors.
  const std::string zeros(32, '\0');
  for (const Path& path : kPaths) {
    SCOPED_TRACE(path.name);
    EXPECT_EQ(path.extend(0, "", 0), 0u);
    EXPECT_EQ(path.extend(0, "123456789", 9), 0xe3069283u);
    EXPECT_EQ(path.extend(0, zeros.data(), zeros.size()), 0x8a9136aau);
  }
}

TEST(Crc32cTest, HardwareAndPortableAgreeOnEveryLengthAndOffset) {
  RecordProperty("hardware_accelerated",
                 crc32c::internal::HardwareAccelerated() ? "yes" : "no");
  constexpr size_t kMaxLen = 4096;
  const std::string data = RandomBytes(/*seed=*/7, kMaxLen + 8);
  for (size_t offset = 0; offset < 8; ++offset) {
    for (size_t len = 0; len <= kMaxLen; ++len) {
      const char* start = data.data() + offset;
      ASSERT_EQ(crc32c::Extend(0, start, len),
                crc32c::internal::ExtendPortable(0, start, len))
          << "offset " << offset << " length " << len;
      // A non-zero starting CRC takes the same path through the framing.
      ASSERT_EQ(crc32c::Extend(0xdeadbeefu, start, len),
                crc32c::internal::ExtendPortable(0xdeadbeefu, start, len))
          << "offset " << offset << " length " << len;
    }
  }
}

TEST(Crc32cTest, ExtendMatchesOneShot) {
  const std::string text = "the quick brown fox jumps over the lazy dog";
  const std::string random = RandomBytes(/*seed=*/11, 300);
  for (const Path& path : kPaths) {
    SCOPED_TRACE(path.name);
    for (const std::string& data : {text, random}) {
      const uint32_t whole = path.extend(0, data.data(), data.size());
      for (size_t split = 0; split <= data.size(); ++split) {
        const uint32_t partial = path.extend(0, data.data(), split);
        const uint32_t extended =
            path.extend(partial, data.data() + split, data.size() - split);
        ASSERT_EQ(extended, whole) << "split at " << split;
      }
    }
  }
}

TEST(Crc32cTest, SensitiveToEveryByte) {
  std::string data = "delegation rewrites history";
  const uint32_t base = crc32c::Value(data);
  for (size_t i = 0; i < data.size(); ++i) {
    std::string mutated = data;
    mutated[i] ^= 0x01;
    EXPECT_NE(crc32c::Value(mutated), base) << "byte " << i;
  }
}

TEST(Crc32cTest, MaskUnmaskRoundTrip) {
  for (uint32_t crc : {0u, 1u, 0xdeadbeefu, 0xffffffffu, 0xe3069283u}) {
    EXPECT_EQ(crc32c::Unmask(crc32c::Mask(crc)), crc);
    EXPECT_NE(crc32c::Mask(crc), crc);  // masking must change the value
  }
}

}  // namespace
}  // namespace ariesrh
