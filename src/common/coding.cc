#include "common/coding.h"

namespace lsmstats {

void Encoder::PutVarint64(uint64_t v) {
  while (v >= 0x80) {
    PutU8(static_cast<uint8_t>(v) | 0x80);
    v >>= 7;
  }
  PutU8(static_cast<uint8_t>(v));
}

void Encoder::PutString(std::string_view s) {
  PutVarint64(s.size());
  buf_.append(s.data(), s.size());
}

Status Decoder::GetVarint64(uint64_t* v) {
  const char* p = data_.data() + pos_;
  if (const char* error = ParseVarint64(&p, data_.data() + data_.size(), v)) {
    return Status::Corruption(error);
  }
  pos_ = static_cast<size_t>(p - data_.data());
  return Status::OK();
}

Status Decoder::GetString(std::string* s) {
  uint64_t len;
  LSMSTATS_RETURN_IF_ERROR(GetVarint64(&len));
  if (remaining() < len) {
    return Status::Corruption("string extends past end of buffer");
  }
  s->assign(data_.data() + pos_, len);
  pos_ += len;
  return Status::OK();
}

}  // namespace lsmstats
