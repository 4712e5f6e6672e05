// Block encoding for the v3 component format.
//
// A v3 component's data region is a sequence of contiguous blocks, each
// self-describing and independently verifiable:
//
//   [codec tag u8] [raw_size varint] [payload] [crc32c u32]
//
// The CRC32C covers the stored bytes (tag through payload, post-compression),
// so corruption is detected before any decompressor touches the payload.
// Block boundaries are not stored separately: the sparse index keeps one
// (first key, file offset) pair per block, so block i spans
// [offset_i, offset_{i+1}) and the last block ends at data_end.
//
// BlockBuilder accumulates raw entry bytes until the configured block size,
// then Seal() compresses (if the codec shrinks the payload) and frames the
// block; DecodeBlock() is the reader half. Both are policy-free: which codec
// to use and how big blocks are is carried by ComponentWriteOptions, which
// flows from DatasetOptions / LsmTreeOptions down to DiskComponentBuilder.

#ifndef LSMSTATS_LSM_FORMAT_BLOCK_H_
#define LSMSTATS_LSM_FORMAT_BLOCK_H_

#include <cstdint>
#include <string>
#include <string_view>

#include "common/status.h"
#include "lsm/format/compression.h"

namespace lsmstats {

// Writer-side knobs for new component files. The defaults keep paper-mode
// component files bit-identical.
struct ComponentWriteOptions {
  // Codec for data blocks, by registry name ("none", "delta"). Blocks the
  // codec cannot shrink are stored raw regardless.
  std::string compression = "none";
  // Raw (uncompressed) bytes accumulated before a block is sealed. One entry
  // larger than this still becomes a (single-entry) block.
  uint64_t block_size = 4096;
  // Bloom-filter density for new components. The filter is serialized
  // size-independently, so any value stays on-disk v3 compatible; the memory
  // arbiter lowers this under pressure (fewer bits = more false-positive
  // block reads, less resident memory).
  int bloom_bits_per_key = 10;
};

// Frames raw entry bytes into stored blocks.
class BlockBuilder {
 public:
  // `codec` may be null (store raw). Not owned; registry codecs live forever.
  BlockBuilder(const CompressionCodec* codec, uint64_t block_size);

  void Add(std::string_view entry_bytes) { raw_.append(entry_bytes); }

  bool empty() const { return raw_.empty(); }
  uint64_t raw_size() const { return raw_.size(); }
  // True once the accumulated raw bytes reach the configured block size.
  bool Full() const { return raw_.size() >= block_size_; }

  // Compresses and frames the accumulated bytes, returning the stored block
  // and resetting the builder for the next one. Must not be called empty.
  std::string Seal();

 private:
  const CompressionCodec* codec_;
  uint64_t block_size_;
  std::string raw_;
};

// Verifies a stored block's CRC and expands it back to raw entry bytes.
// `context` (typically the file path) is folded into error messages.
[[nodiscard]]
Status DecodeBlock(std::string_view stored, const std::string& context,
                   std::string* raw);

}  // namespace lsmstats

#endif  // LSMSTATS_LSM_FORMAT_BLOCK_H_
