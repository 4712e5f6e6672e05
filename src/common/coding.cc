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
  uint64_t result = 0;
  for (int shift = 0; shift <= 63; shift += 7) {
    uint8_t byte = 0;
    LSMSTATS_RETURN_IF_ERROR(GetU8(&byte));
    // The 10th byte can only contribute bit 63; anything above that would
    // shift out of the result and decode to a silently wrong value.
    if (shift == 63 && (byte & 0x7e) != 0) {
      return Status::Corruption("varint64 overflows 64 bits");
    }
    result |= static_cast<uint64_t>(byte & 0x7f) << shift;
    if ((byte & 0x80) == 0) {
      *v = result;
      return Status::OK();
    }
  }
  return Status::Corruption("varint64 too long");
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
