// Binary serialization primitives.
//
// All on-disk component blocks and all synopses shipped from node controllers
// to the cluster controller use this little-endian, length-prefixed encoding.
// Encoder appends to an owned buffer; Decoder is a non-owning cursor over a
// byte span that reports truncation through Status rather than crashing.

#ifndef LSMSTATS_COMMON_CODING_H_
#define LSMSTATS_COMMON_CODING_H_

#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>

#include "common/status.h"

namespace lsmstats {

class Encoder {
 public:
  Encoder() = default;

  void PutU8(uint8_t v) { buf_.push_back(static_cast<char>(v)); }
  void PutU32(uint32_t v) { PutFixed(&v, sizeof(v)); }
  void PutU64(uint64_t v) { PutFixed(&v, sizeof(v)); }
  void PutI64(int64_t v) { PutU64(static_cast<uint64_t>(v)); }
  void PutDouble(double v) { PutFixed(&v, sizeof(v)); }

  // Unsigned LEB128; compact for the small counts that dominate metadata.
  void PutVarint64(uint64_t v);

  // Length-prefixed byte string.
  void PutString(std::string_view s);

  const std::string& buffer() const { return buf_; }
  std::string Release() { return std::move(buf_); }
  size_t size() const { return buf_.size(); }

 private:
  void PutFixed(const void* p, size_t n) {
    buf_.append(reinterpret_cast<const char*>(p), n);
  }

  std::string buf_;
};

// Parses an unsigned LEB128 value from [*p, limit) and advances *p past it.
// Returns null on success, or the reason the bytes are not a varint64 (in
// which case *p and *v are unspecified). The one varint parser: Decoder and
// the in-place block entry decoder both use it.
inline const char* ParseVarint64(const char** p, const char* limit,
                                 uint64_t* v) {
  uint64_t result = 0;
  for (int shift = 0; shift <= 63; shift += 7) {
    if (*p == limit) return "decode past end of buffer";
    const auto byte = static_cast<uint8_t>(*(*p)++);
    // The 10th byte can only contribute bit 63; anything above that would
    // shift out of the result and decode to a silently wrong value.
    if (shift == 63 && (byte & 0x7e) != 0) {
      return "varint64 overflows 64 bits";
    }
    result |= static_cast<uint64_t>(byte & 0x7f) << shift;
    if ((byte & 0x80) == 0) {
      *v = result;
      return nullptr;
    }
  }
  return "varint64 too long";
}

class Decoder {
 public:
  explicit Decoder(std::string_view data) : data_(data), pos_(0) {}

  [[nodiscard]] Status GetU8(uint8_t* v) { return GetFixed(v, sizeof(*v)); }
  [[nodiscard]] Status GetU32(uint32_t* v) { return GetFixed(v, sizeof(*v)); }
  [[nodiscard]] Status GetU64(uint64_t* v) { return GetFixed(v, sizeof(*v)); }
  [[nodiscard]]
  Status GetI64(int64_t* v) {
    uint64_t u = 0;
    LSMSTATS_RETURN_IF_ERROR(GetU64(&u));
    *v = static_cast<int64_t>(u);
    return Status::OK();
  }
  [[nodiscard]] Status GetDouble(double* v) { return GetFixed(v, sizeof(*v)); }
  [[nodiscard]] Status GetVarint64(uint64_t* v);
  [[nodiscard]] Status GetString(std::string* s);

  size_t remaining() const { return data_.size() - pos_; }
  bool Done() const { return pos_ == data_.size(); }

 private:
  [[nodiscard]]
  Status GetFixed(void* p, size_t n) {
    if (remaining() < n) {
      return Status::Corruption("decode past end of buffer");
    }
    std::memcpy(p, data_.data() + pos_, n);
    pos_ += n;
    return Status::OK();
  }

  std::string_view data_;
  size_t pos_;
};

}  // namespace lsmstats

#endif  // LSMSTATS_COMMON_CODING_H_
