#include "util/coding.h"

namespace ariesrh {

void PutFixed32(std::string* dst, uint32_t v) {
  char buf[4];
  buf[0] = static_cast<char>(v & 0xff);
  buf[1] = static_cast<char>((v >> 8) & 0xff);
  buf[2] = static_cast<char>((v >> 16) & 0xff);
  buf[3] = static_cast<char>((v >> 24) & 0xff);
  dst->append(buf, 4);
}

void PutFixed64(std::string* dst, uint64_t v) {
  PutFixed32(dst, static_cast<uint32_t>(v & 0xffffffffu));
  PutFixed32(dst, static_cast<uint32_t>(v >> 32));
}

void PutVarint64(std::string* dst, uint64_t v) {
  while (v >= 0x80) {
    dst->push_back(static_cast<char>((v & 0x7f) | 0x80));
    v >>= 7;
  }
  dst->push_back(static_cast<char>(v));
}

void PutLengthPrefixed(std::string* dst, std::string_view value) {
  PutVarint64(dst, value.size());
  dst->append(value);
}

Status Decoder::GetFixed8(uint8_t* v) {
  if (remaining() < 1) return Status::Corruption("truncated fixed8");
  *v = static_cast<uint8_t>(*p_++);
  return Status::OK();
}

Status Decoder::GetLengthPrefixed(std::string* value) {
  std::string_view view;
  ARIESRH_RETURN_IF_ERROR(GetLengthPrefixed(&view));
  value->assign(view);
  return Status::OK();
}

}  // namespace ariesrh
