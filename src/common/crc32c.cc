#include "common/crc32c.h"

#include <array>
#include <cstring>

#if defined(__x86_64__)
#include <nmmintrin.h>
#include <wmmintrin.h>
#endif

namespace lsmstats {
namespace crc32c {

namespace {

constexpr uint32_t kPoly = 0x82F63B78u;  // reflected Castagnoli

constexpr std::array<uint32_t, 256> MakeTable() {
  std::array<uint32_t, 256> table{};
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t crc = i;
    for (int bit = 0; bit < 8; ++bit) {
      crc = (crc & 1) ? (crc >> 1) ^ kPoly : crc >> 1;
    }
    table[i] = crc;
  }
  return table;
}

constexpr std::array<uint32_t, 256> kTable = MakeTable();

#if defined(__x86_64__)

// Long inputs run three independent `crc32` streams over adjacent lanes,
// hiding the instruction's 3-cycle latency, then join them.
constexpr size_t kLaneBytes = 256;
constexpr size_t kStripeBytes = 3 * kLaneBytes;

// x^n mod P in the reflected representation (bit 31 is x^0): multiplying by
// x is a right shift, reduced by P when x^31 shifts out.
constexpr uint32_t XPowModP(size_t n) {
  uint32_t v = 0x80000000u;
  for (size_t i = 0; i < n; ++i) v = (v & 1) ? (v >> 1) ^ kPoly : v >> 1;
  return v;
}

// A carry-less product of two reflected 32-bit values is the reflected
// 64-bit value x * a * b, and `crc32` of a 64-bit word d (from a zero
// register) is d * x^32 mod P. So feeding clmul(crc, x^(8k - 33)) through
// `crc32` advances `crc` past k zero bytes.
constexpr uint32_t kShift1Lane = XPowModP(8 * kLaneBytes - 33);
constexpr uint32_t kShift2Lanes = XPowModP(16 * kLaneBytes - 33);

__attribute__((target("sse4.2,pclmul"))) uint64_t ShiftedWord(uint64_t crc,
                                                               uint32_t k) {
  const __m128i product = _mm_clmulepi64_si128(
      _mm_cvtsi64_si128(static_cast<int64_t>(crc)),
      _mm_cvtsi32_si128(static_cast<int>(k)), 0);
  return static_cast<uint64_t>(_mm_cvtsi128_si64(product));
}

uint64_t LoadWord(const char* p) {
  uint64_t word;
  std::memcpy(&word, p, sizeof(word));  // unaligned-safe load
  return word;
}

__attribute__((target("sse4.2,pclmul"))) uint32_t ExtendHardware(
    uint32_t crc, const char* data, size_t n) {
  uint64_t c = crc ^ 0xFFFFFFFFu;
  while (n >= kStripeBytes) {
    uint64_t c1 = 0;
    uint64_t c2 = 0;
    const char* lane1 = data + kLaneBytes;
    const char* lane2 = data + 2 * kLaneBytes;
    // The third lane's last word is left for the join below.
    for (size_t i = 0; i < kLaneBytes - 8; i += 8) {
      c = _mm_crc32_u64(c, LoadWord(data + i));
      c1 = _mm_crc32_u64(c1, LoadWord(lane1 + i));
      c2 = _mm_crc32_u64(c2, LoadWord(lane2 + i));
    }
    c = _mm_crc32_u64(c, LoadWord(data + kLaneBytes - 8));
    c1 = _mm_crc32_u64(c1, LoadWord(lane1 + kLaneBytes - 8));
    // crc(A|B|C) = crc(A)*x^(2L) + crc(B)*x^(L) + crc(C), with the two
    // shifts folded into C's last word before its `crc32` step.
    const uint64_t last = LoadWord(lane2 + kLaneBytes - 8) ^
                          ShiftedWord(c, kShift2Lanes) ^
                          ShiftedWord(c1, kShift1Lane);
    c = _mm_crc32_u64(c2, last);
    data += kStripeBytes;
    n -= kStripeBytes;
  }
  while (n >= 8) {
    c = _mm_crc32_u64(c, LoadWord(data));
    data += 8;
    n -= 8;
  }
  uint32_t c32 = static_cast<uint32_t>(c);
  while (n > 0) {
    c32 = _mm_crc32_u8(c32, static_cast<uint8_t>(*data++));
    --n;
  }
  return c32 ^ 0xFFFFFFFFu;
}

#endif  // __x86_64__

using ExtendFn = uint32_t (*)(uint32_t, const char*, size_t);

ExtendFn ChooseExtend() {
#if defined(__x86_64__)
  __builtin_cpu_init();
  if (__builtin_cpu_supports("sse4.2") && __builtin_cpu_supports("pclmul")) {
    return ExtendHardware;
  }
#endif
  return internal::ExtendPortable;
}

}  // namespace

namespace internal {

uint32_t ExtendPortable(uint32_t crc, const char* data, size_t n) {
  uint32_t c = crc ^ 0xFFFFFFFFu;
  for (size_t i = 0; i < n; ++i) {
    c = kTable[(c ^ static_cast<uint8_t>(data[i])) & 0xFF] ^ (c >> 8);
  }
  return c ^ 0xFFFFFFFFu;
}

}  // namespace internal

uint32_t Extend(uint32_t crc, const char* data, size_t n) {
  // Resolved on first use rather than at namespace scope, so a static
  // initializer in another translation unit can never see it unset.
  static const ExtendFn extend = ChooseExtend();
  return extend(crc, data, n);
}

}  // namespace crc32c
}  // namespace lsmstats
