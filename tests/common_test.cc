// Tests for the common substrate: value domains, dictionary encoding, the
// binary coding layer, and file wrappers.

#include <cstdlib>
#include <filesystem>
#include <limits>

#include <gtest/gtest.h>

#include "common/coding.h"
#include "common/dictionary.h"
#include "common/file.h"
#include "common/random.h"
#include "common/types.h"

namespace lsmstats {
namespace {

// ------------------------------------------------------------ ValueDomain

TEST(ValueDomain, FullTypeDomains) {
  auto d8 = ValueDomain::ForType(FieldType::kInt8);
  EXPECT_EQ(d8.min_value(), -128);
  EXPECT_EQ(d8.max_value(), 127);
  EXPECT_EQ(d8.log_length(), 8);
  EXPECT_EQ(d8.Position(-128), 0u);
  EXPECT_EQ(d8.Position(127), 255u);

  auto d64 = ValueDomain::ForType(FieldType::kInt64);
  EXPECT_EQ(d64.log_length(), 64);
  EXPECT_EQ(d64.min_value(), std::numeric_limits<int64_t>::min());
  EXPECT_EQ(d64.max_value(), std::numeric_limits<int64_t>::max());
  EXPECT_EQ(d64.Position(std::numeric_limits<int64_t>::max()), ~0ULL);
}

TEST(ValueDomain, PaddedToNextPowerOfTwo) {
  // Paper §3.1: narrower ranges pad with zeros to the nearest power of two.
  auto d = ValueDomain::Padded(10, 100);  // span 91 -> 128
  EXPECT_EQ(d.log_length(), 7);
  EXPECT_EQ(d.min_value(), 10);
  EXPECT_TRUE(d.Contains(100));
  EXPECT_TRUE(d.Contains(137));   // padding region
  EXPECT_FALSE(d.Contains(138));
  EXPECT_FALSE(d.Contains(9));

  auto exact = ValueDomain::Padded(0, 255);  // exactly 2^8
  EXPECT_EQ(exact.log_length(), 8);
  auto single = ValueDomain::Padded(5, 5);
  EXPECT_EQ(single.log_length(), 1);
}

TEST(ValueDomain, PositionRoundTrip) {
  Random rng(1);
  ValueDomain domain(-5000, 17);
  for (int i = 0; i < 1000; ++i) {
    uint64_t pos = rng.Uniform(domain.MaxPosition() + 1);
    EXPECT_EQ(domain.Position(domain.ValueAt(pos)), pos);
  }
}

// ------------------------------------------------------------- Dictionary

TEST(Dictionary, SortedBuildPreservesOrder) {
  auto dict = Dictionary::BuildSorted(
      {"cherry", "apple", "banana", "apple", "date"});
  EXPECT_EQ(dict.size(), 4u);
  EXPECT_EQ(dict.ordered_size(), 4u);
  int64_t apple = dict.Lookup("apple").value();
  int64_t banana = dict.Lookup("banana").value();
  int64_t cherry = dict.Lookup("cherry").value();
  EXPECT_LT(apple, banana);
  EXPECT_LT(banana, cherry);
  EXPECT_EQ(dict.Decode(apple), "apple");
  EXPECT_EQ(dict.Lookup("grape").status().code(), StatusCode::kNotFound);
}

TEST(Dictionary, InternAppendsPastOrderedRegion) {
  auto dict = Dictionary::BuildSorted({"a", "b"});
  int64_t z = dict.Intern("z");
  int64_t m = dict.Intern("m");
  EXPECT_EQ(dict.size(), 4u);
  EXPECT_EQ(dict.ordered_size(), 2u);
  EXPECT_EQ(dict.Intern("z"), z);  // idempotent
  EXPECT_GT(z, dict.Lookup("b").value());
  EXPECT_GT(m, z);  // append order, not sort order: documented limitation
}

// ----------------------------------------------------------------- Coding

TEST(Coding, VarintBoundaries) {
  for (uint64_t v : {0ULL, 127ULL, 128ULL, 16383ULL, 16384ULL,
                     ~0ULL, 1ULL << 63}) {
    Encoder enc;
    enc.PutVarint64(v);
    Decoder dec(enc.buffer());
    uint64_t out;
    ASSERT_TRUE(dec.GetVarint64(&out).ok());
    EXPECT_EQ(out, v);
    EXPECT_TRUE(dec.Done());
  }
}

TEST(Coding, RandomRoundTrips) {
  Random rng(4);
  for (int trial = 0; trial < 200; ++trial) {
    Encoder enc;
    std::vector<int> kinds;
    std::vector<uint64_t> u64s;
    std::vector<double> doubles;
    std::vector<std::string> strings;
    int ops = 1 + static_cast<int>(rng.Uniform(20));
    for (int i = 0; i < ops; ++i) {
      switch (rng.Uniform(3)) {
        case 0: {
          uint64_t v = rng.NextU64() >> rng.Uniform(64);
          enc.PutVarint64(v);
          u64s.push_back(v);
          kinds.push_back(0);
          break;
        }
        case 1: {
          double v = rng.NextDouble() * 1e9 - 5e8;
          enc.PutDouble(v);
          doubles.push_back(v);
          kinds.push_back(1);
          break;
        }
        default: {
          std::string s(rng.Uniform(100), 'x');
          for (auto& c : s) c = static_cast<char>(rng.Uniform(256));
          enc.PutString(s);
          strings.push_back(s);
          kinds.push_back(2);
          break;
        }
      }
    }
    Decoder dec(enc.buffer());
    size_t ui = 0, di = 0, si = 0;
    for (int kind : kinds) {
      if (kind == 0) {
        uint64_t v;
        ASSERT_TRUE(dec.GetVarint64(&v).ok());
        EXPECT_EQ(v, u64s[ui++]);
      } else if (kind == 1) {
        double v;
        ASSERT_TRUE(dec.GetDouble(&v).ok());
        EXPECT_EQ(v, doubles[di++]);
      } else {
        std::string s;
        ASSERT_TRUE(dec.GetString(&s).ok());
        EXPECT_EQ(s, strings[si++]);
      }
    }
    EXPECT_TRUE(dec.Done());
  }
}

TEST(Coding, TruncationIsAnErrorNotACrash) {
  Encoder enc;
  enc.PutU64(42);
  enc.PutString("payload");
  std::string full = enc.buffer();
  for (size_t cut = 0; cut < full.size(); ++cut) {
    Decoder dec(std::string_view(full.data(), cut));
    uint64_t v;
    Status s = dec.GetU64(&v);
    if (s.ok()) {
      std::string out;
      s = dec.GetString(&out);
    }
    if (cut < full.size()) {
      EXPECT_FALSE(s.ok()) << "cut=" << cut;
      EXPECT_EQ(s.code(), StatusCode::kCorruption);
    }
  }
}

// ------------------------------------------------------------------- File

TEST(File, WriteReadRoundTrip) {
  char tmpl[] = "/tmp/lsmstats_file_XXXXXX";
  std::string dir = ::mkdtemp(tmpl);
  std::string path = dir + "/data.bin";
  std::string payload(100000, '\0');
  Random rng(6);
  for (auto& c : payload) c = static_cast<char>(rng.Uniform(256));
  {
    auto file = WritableFile::Create(path).value();
    // Mix small and large appends to cross the buffer boundary.
    size_t offset = 0;
    while (offset < payload.size()) {
      size_t n = std::min<size_t>(1 + rng.Uniform(40000),
                                  payload.size() - offset);
      ASSERT_TRUE(
          file->Append(std::string_view(payload.data() + offset, n)).ok());
      offset += n;
    }
    EXPECT_EQ(file->size(), payload.size());
    ASSERT_TRUE(file->Close().ok());
  }
  auto raf = RandomAccessFile::Open(path).value();
  EXPECT_EQ(raf->size(), payload.size());
  std::string chunk;
  ASSERT_TRUE(raf->Read(500, 1000, &chunk).ok());
  EXPECT_EQ(chunk, payload.substr(500, 1000));

  // One positional read covers the whole file, past every buffer boundary.
  std::string recovered;
  ASSERT_TRUE(raf->Read(0, payload.size(), &recovered).ok());
  EXPECT_EQ(recovered, payload);

  ASSERT_TRUE(RemoveFileIfExists(path).ok());
  EXPECT_FALSE(FileExists(path));
  ASSERT_TRUE(RemoveFileIfExists(path).ok());  // idempotent
  std::filesystem::remove_all(dir);
}

TEST(File, ReadPastEndFails) {
  char tmpl[] = "/tmp/lsmstats_file_XXXXXX";
  std::string dir = ::mkdtemp(tmpl);
  std::string path = dir + "/tiny.bin";
  {
    auto file = WritableFile::Create(path).value();
    ASSERT_TRUE(file->Append("abc").ok());
    ASSERT_TRUE(file->Close().ok());
  }
  auto raf = RandomAccessFile::Open(path).value();
  std::string out;
  EXPECT_FALSE(raf->Read(0, 10, &out).ok());
  EXPECT_FALSE(raf->Read(5, 1, &out).ok());
  std::filesystem::remove_all(dir);
}

// ----------------------------------------------------------------- Random

TEST(Random, UniformBoundsAndCoverage) {
  Random rng(10);
  std::vector<int> seen(10, 0);
  for (int i = 0; i < 10000; ++i) {
    uint64_t v = rng.Uniform(10);
    ASSERT_LT(v, 10u);
    ++seen[v];
  }
  for (int count : seen) EXPECT_GT(count, 800);  // roughly uniform
}

TEST(Random, UniformInRangeInclusive) {
  Random rng(11);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 5000; ++i) {
    int64_t v = rng.UniformInRange(-3, 3);
    ASSERT_GE(v, -3);
    ASSERT_LE(v, 3);
    saw_lo |= v == -3;
    saw_hi |= v == 3;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
  // Full-width range does not crash or loop.
  (void)rng.UniformInRange(std::numeric_limits<int64_t>::min(),
                           std::numeric_limits<int64_t>::max());
}

TEST(Random, ZipfSamplerSkew) {
  ZipfSampler sampler(100, 1.0, 13);
  std::vector<int> counts(100, 0);
  for (int i = 0; i < 50000; ++i) ++counts[sampler.Next()];
  EXPECT_GT(counts[0], counts[50] * 10);
  double total_pmf = 0;
  for (size_t k = 0; k < 100; ++k) total_pmf += sampler.Pmf(k);
  EXPECT_NEAR(total_pmf, 1.0, 1e-9);
}

}  // namespace
}  // namespace lsmstats
