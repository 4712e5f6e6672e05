#include "lsm/format/compression.h"

#include <map>

#include "common/coding.h"
#include "common/mutex.h"

namespace lsmstats {

namespace {

// Zigzag maps signed deltas to small unsigned varints: 0, -1, 1, -2, ...
// become 0, 1, 2, 3, ... so both ascending and descending key slots encode
// compactly.
uint64_t ZigzagEncode(int64_t v) {
  return (static_cast<uint64_t>(v) << 1) ^
         static_cast<uint64_t>(v >> 63);
}

int64_t ZigzagDecode(uint64_t v) {
  return static_cast<int64_t>(v >> 1) ^ -static_cast<int64_t>(v & 1);
}

class NoneCodec : public CompressionCodec {
 public:
  uint8_t tag() const override { return 0; }
  const char* name() const override { return "none"; }

  bool Compress(std::string_view /*raw*/, std::string* /*out*/) const
      override {
    return false;  // identity never shrinks; store raw
  }

  Status Decompress(std::string_view payload, uint64_t raw_size,
                    std::string* out) const override {
    if (payload.size() != raw_size) {
      return Status::Corruption("uncompressed block size mismatch");
    }
    out->assign(payload);
    return Status::OK();
  }
};

// Entry-aware delta codec. The raw bytes of a data block are a sequence of
// entries in the fixed wire format (three 8-byte key slots, a flag byte, a
// length-prefixed value); this codec re-encodes each key slot as the zigzag
// varint delta against the previous entry and copies flag and value
// verbatim. Entries are key-sorted within a block, so the k0 deltas are
// small non-negative numbers and the k1/k2 deltas cluster near zero — the
// 25-byte fixed prefix typically shrinks to 3-6 bytes.
class DeltaVarintCodec : public CompressionCodec {
 public:
  uint8_t tag() const override { return 1; }
  const char* name() const override { return "delta"; }

  bool Compress(std::string_view raw, std::string* out) const override {
    Decoder dec(raw);
    Encoder enc;
    int64_t prev0 = 0;
    int64_t prev1 = 0;
    int64_t prev2 = 0;
    while (!dec.Done()) {
      int64_t k0 = 0;
      int64_t k1 = 0;
      int64_t k2 = 0;
      uint8_t flags = 0;
      std::string value;
      if (!dec.GetI64(&k0).ok() || !dec.GetI64(&k1).ok() ||
          !dec.GetI64(&k2).ok() || !dec.GetU8(&flags).ok() ||
          !dec.GetString(&value).ok()) {
        return false;  // not an entry stream; store raw
      }
      enc.PutVarint64(ZigzagEncode(k0 - prev0));
      enc.PutVarint64(ZigzagEncode(k1 - prev1));
      enc.PutVarint64(ZigzagEncode(k2 - prev2));
      enc.PutU8(flags);
      enc.PutString(value);
      prev0 = k0;
      prev1 = k1;
      prev2 = k2;
    }
    if (enc.size() >= raw.size()) return false;
    *out = enc.Release();
    return true;
  }

  Status Decompress(std::string_view payload, uint64_t raw_size,
                    std::string* out) const override {
    Decoder dec(payload);
    Encoder enc;
    int64_t prev0 = 0;
    int64_t prev1 = 0;
    int64_t prev2 = 0;
    while (!dec.Done()) {
      uint64_t d0;
      uint64_t d1;
      uint64_t d2;
      uint8_t flags = 0;
      std::string value;
      LSMSTATS_RETURN_IF_ERROR(dec.GetVarint64(&d0));
      LSMSTATS_RETURN_IF_ERROR(dec.GetVarint64(&d1));
      LSMSTATS_RETURN_IF_ERROR(dec.GetVarint64(&d2));
      LSMSTATS_RETURN_IF_ERROR(dec.GetU8(&flags));
      LSMSTATS_RETURN_IF_ERROR(dec.GetString(&value));
      prev0 += ZigzagDecode(d0);
      prev1 += ZigzagDecode(d1);
      prev2 += ZigzagDecode(d2);
      enc.PutI64(prev0);
      enc.PutI64(prev1);
      enc.PutI64(prev2);
      enc.PutU8(flags);
      enc.PutString(value);
      if (enc.size() > raw_size) {
        return Status::Corruption("delta block expands past declared size");
      }
    }
    if (enc.size() != raw_size) {
      return Status::Corruption("delta block size mismatch");
    }
    *out = enc.Release();
    return Status::OK();
  }
};

struct CodecRegistry {
  Mutex mu{LockRank::kCodecRegistry, "codec_registry"};
  std::map<uint8_t, const CompressionCodec*> by_tag GUARDED_BY(mu);
  std::map<std::string, const CompressionCodec*, std::less<>> by_name
      GUARDED_BY(mu);
};

CodecRegistry& GlobalCodecRegistry() {
  static CodecRegistry* registry = [] {
    static const NoneCodec none;
    static const DeltaVarintCodec delta;
    auto* r = new CodecRegistry();
    r->by_tag[none.tag()] = &none;
    r->by_name[none.name()] = &none;
    r->by_tag[delta.tag()] = &delta;
    r->by_name[delta.name()] = &delta;
    return r;
  }();
  return *registry;
}

}  // namespace

const CompressionCodec* CodecByTag(uint8_t tag) {
  CodecRegistry& registry = GlobalCodecRegistry();
  MutexLock lock(&registry.mu);
  auto it = registry.by_tag.find(tag);
  return it == registry.by_tag.end() ? nullptr : it->second;
}

const CompressionCodec* CodecByName(std::string_view name) {
  CodecRegistry& registry = GlobalCodecRegistry();
  MutexLock lock(&registry.mu);
  auto it = registry.by_name.find(name);
  return it == registry.by_name.end() ? nullptr : it->second;
}

Status RegisterCodec(const CompressionCodec* codec) {
  if (codec == nullptr) {
    return Status::InvalidArgument("null codec");
  }
  if (codec->tag() < 64) {
    return Status::InvalidArgument(
        "codec tags below 64 are reserved for built-ins");
  }
  CodecRegistry& registry = GlobalCodecRegistry();
  MutexLock lock(&registry.mu);
  if (registry.by_tag.count(codec->tag()) > 0 ||
      registry.by_name.count(codec->name()) > 0) {
    return Status::AlreadyExists("codec tag or name already registered");
  }
  registry.by_tag[codec->tag()] = codec;
  registry.by_name[codec->name()] = codec;
  return Status::OK();
}

}  // namespace lsmstats
