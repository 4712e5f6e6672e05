// CRC32C (Castagnoli polynomial 0x1EDC6F41, reflected 0x82F63B78).
//
// Used for the per-block checksums of disk components, WAL frames, the
// component manifest and the statistics catalog trailer.
//
// Extend() picks its implementation once per process, on first use, from a
// CPU check: on x86-64 with SSE4.2 and PCLMULQDQ it runs the `crc32`
// instruction (three interleaved streams on long inputs, joined with one
// carry-less multiply per stream); everywhere else it runs the byte-table
// loop below. Both compute the same function, so stored checksums do not
// depend on the machine that wrote them. There is no option to choose.

#ifndef LSMSTATS_COMMON_CRC32C_H_
#define LSMSTATS_COMMON_CRC32C_H_

#include <cstddef>
#include <cstdint>
#include <string_view>

namespace lsmstats {
namespace crc32c {

// Extends `crc` (the checksum of some byte prefix) with `data`, returning the
// checksum of the concatenation. Start from 0 for a fresh stream.
uint32_t Extend(uint32_t crc, const char* data, size_t n);

inline uint32_t Value(std::string_view data) {
  return Extend(0, data.data(), data.size());
}

namespace internal {

// The portable byte-table loop: Extend() on CPUs without the instructions,
// and the reference the hardware path is tested against. Not a selectable
// path.
uint32_t ExtendPortable(uint32_t crc, const char* data, size_t n);

}  // namespace internal

}  // namespace crc32c
}  // namespace lsmstats

#endif  // LSMSTATS_COMMON_CRC32C_H_
