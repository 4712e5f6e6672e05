#include "lsm/format/block.h"

#include "common/check.h"
#include "common/coding.h"
#include "common/crc32c.h"

namespace lsmstats {

BlockBuilder::BlockBuilder(const CompressionCodec* codec, uint64_t block_size)
    : codec_(codec), block_size_(block_size) {
  LSMSTATS_CHECK(block_size_ > 0);
}

std::string BlockBuilder::Seal() {
  LSMSTATS_CHECK(!raw_.empty());
  uint8_t tag = 0;
  std::string payload;
  if (codec_ != nullptr && codec_->tag() != 0 &&
      codec_->Compress(raw_, &payload)) {
    tag = codec_->tag();
  } else {
    payload = std::move(raw_);
  }
  Encoder enc;
  enc.PutU8(tag);
  enc.PutVarint64(tag == 0 ? payload.size() : raw_.size());
  std::string stored = enc.Release();
  stored.append(payload);
  uint32_t crc = crc32c::Value(stored);
  Encoder crc_enc;
  crc_enc.PutU32(crc);
  stored.append(crc_enc.buffer());
  raw_.clear();
  return stored;
}

Status DecodeBlock(std::string_view stored, const std::string& context,
                   std::string* raw) {
  // Minimum frame: tag, one varint byte, empty payload, CRC.
  if (stored.size() < 1 + 1 + 4) {
    return Status::Corruption("block too small: " + context);
  }
  std::string_view body = stored.substr(0, stored.size() - 4);
  Decoder crc_dec(stored.substr(stored.size() - 4));
  uint32_t stored_crc;
  LSMSTATS_RETURN_IF_ERROR(crc_dec.GetU32(&stored_crc));
  if (crc32c::Value(body) != stored_crc) {
    return Status::Corruption("block checksum mismatch: " + context);
  }
  Decoder dec(body);
  uint8_t tag;
  uint64_t raw_size;
  LSMSTATS_RETURN_IF_ERROR(dec.GetU8(&tag));
  LSMSTATS_RETURN_IF_ERROR(dec.GetVarint64(&raw_size));
  std::string_view payload = body.substr(body.size() - dec.remaining());
  const CompressionCodec* codec = CodecByTag(tag);
  if (codec == nullptr) {
    return Status::Corruption("unknown block codec tag " +
                              std::to_string(tag) + ": " + context);
  }
  Status s = codec->Decompress(payload, raw_size, raw);
  if (!s.ok()) {
    return Status::Corruption(s.message() + ": " + context);
  }
  return Status::OK();
}

}  // namespace lsmstats
