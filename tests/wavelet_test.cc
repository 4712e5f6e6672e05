// Tests for the wavelet synopsis and the streaming decomposition builder
// (paper Algorithm 1, Appendix B).

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstring>
#include <map>
#include <memory>
#include <unordered_map>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"
#include "synopsis/wavelet.h"
#include "synopsis/wavelet_builder.h"
#include "synopsis/wavelet_naive.h"

namespace lsmstats {
namespace {

std::unique_ptr<WaveletSynopsis> AsWavelet(std::unique_ptr<Synopsis> s) {
  return std::unique_ptr<WaveletSynopsis>(
      static_cast<WaveletSynopsis*>(s.release()));
}

// Builds a streaming wavelet over (position, frequency) tuples.
std::unique_ptr<WaveletSynopsis> BuildStreaming(
    const ValueDomain& domain, size_t budget,
    const std::vector<std::pair<uint64_t, uint64_t>>& tuples) {
  StreamingWaveletBuilder builder(domain, budget);
  for (const auto& [pos, freq] : tuples) {
    for (uint64_t i = 0; i < freq; ++i) {
      builder.Add(domain.ValueAt(pos));
    }
  }
  return AsWavelet(builder.Finish());
}

// Exact prefix sums of a tuple list over a domain.
std::vector<double> PrefixSums(const ValueDomain& domain,
                               const std::vector<std::pair<uint64_t, uint64_t>>&
                                   tuples) {
  uint64_t length = domain.MaxPosition() + 1;
  std::vector<double> prefix(length, 0.0);
  for (const auto& [pos, freq] : tuples) {
    prefix[pos] += static_cast<double>(freq);
  }
  for (uint64_t i = 1; i < length; ++i) prefix[i] += prefix[i - 1];
  return prefix;
}

// ------------------------------------------------------ paper worked example

TEST(Wavelet, PaperAppendixBExample) {
  // F = [1 0 1 0 0 2 1 4], F+ = [1 1 2 2 2 4 5 9].
  ValueDomain domain(0, 3);
  std::vector<std::pair<uint64_t, uint64_t>> tuples = {
      {0, 1}, {2, 1}, {5, 2}, {6, 1}, {7, 4}};
  auto synopsis = BuildStreaming(domain, 64, tuples);

  // The decomposition of the prefix sum is
  // [3.25, 1.75, 0.5, 2, 0, 0, 1, 2] (main average + details, Appendix B).
  std::map<uint64_t, double> expected = {
      {0, 3.25}, {1, 1.75}, {2, 0.5}, {3, 2.0}, {6, 1.0}, {7, 2.0}};
  std::map<uint64_t, double> actual;
  for (const auto& c : synopsis->CoefficientsInPreOrder()) {
    actual[c.index] = c.value;
  }
  EXPECT_EQ(actual, expected);

  // Reconstruction recovers the prefix sum exactly.
  std::vector<double> prefix = {1, 1, 2, 2, 2, 4, 5, 9};
  for (uint64_t p = 0; p < 8; ++p) {
    EXPECT_DOUBLE_EQ(synopsis->ReconstructPoint(p), prefix[p]) << "p=" << p;
  }
}

TEST(Wavelet, PaperAlgorithmFigure1Example) {
  // X = [0 0 2 0 0 0 1 0] from Figure 1; prefix sum [0 0 2 2 2 2 3 3].
  ValueDomain domain(0, 3);
  std::vector<std::pair<uint64_t, uint64_t>> tuples = {{2, 2}, {6, 1}};
  auto synopsis = BuildStreaming(domain, 64, tuples);
  std::vector<double> prefix = {0, 0, 2, 2, 2, 2, 3, 3};
  for (uint64_t p = 0; p < 8; ++p) {
    EXPECT_DOUBLE_EQ(synopsis->ReconstructPoint(p), prefix[p]) << "p=" << p;
  }
  // Figure 1b: pushing x3 leaves average a2 = 1 on the stack, i.e. the
  // average over [0, 3] of the prefix sum is 1. The corresponding detail at
  // the root's left child (node 2) is (avg[2,3] - avg[0,1]) / 2 = 1.
  for (const auto& c : synopsis->CoefficientsInPreOrder()) {
    if (c.index == 2) {
      EXPECT_DOUBLE_EQ(c.value, 1.0);
    }
  }
}

// --------------------------------------------- streaming == naive, exact

TEST(Wavelet, StreamingMatchesNaiveExactlyUnlimitedBudget) {
  Random rng(7);
  for (int trial = 0; trial < 60; ++trial) {
    int log_domain = 1 + static_cast<int>(rng.Uniform(12));
    ValueDomain domain(static_cast<int64_t>(rng.Uniform(1000)) - 500,
                       log_domain);
    uint64_t length = domain.MaxPosition() + 1;
    std::vector<std::pair<uint64_t, uint64_t>> tuples;
    for (uint64_t p = 0; p < length; ++p) {
      if (rng.Bernoulli(0.3)) tuples.push_back({p, 1 + rng.Uniform(9)});
    }
    size_t budget = 4 * static_cast<size_t>(length) + 8;  // keep everything
    auto streaming = BuildStreaming(domain, budget, tuples);
    auto naive =
        BuildWaveletNaive(domain, budget, WaveletEncoding::kPrefixSum, tuples);

    auto a = streaming->CoefficientsInPreOrder();
    auto b = naive->CoefficientsInPreOrder();
    ASSERT_EQ(a.size(), b.size()) << "trial " << trial;
    for (size_t i = 0; i < a.size(); ++i) {
      EXPECT_EQ(a[i].index, b[i].index) << "trial " << trial << " i=" << i;
      EXPECT_NEAR(a[i].value, b[i].value, 1e-9)
          << "trial " << trial << " i=" << i;
    }
  }
}

TEST(Wavelet, StreamingMatchesNaiveTopBImportances) {
  // With a binding budget the retained sets can differ on importance ties,
  // but the sorted importance values must agree.
  Random rng(11);
  for (int trial = 0; trial < 40; ++trial) {
    int log_domain = 4 + static_cast<int>(rng.Uniform(8));
    ValueDomain domain(0, log_domain);
    uint64_t length = domain.MaxPosition() + 1;
    std::vector<std::pair<uint64_t, uint64_t>> tuples;
    for (uint64_t p = 0; p < length; ++p) {
      if (rng.Bernoulli(0.2)) tuples.push_back({p, 1 + rng.Uniform(50)});
    }
    size_t budget = 8 + rng.Uniform(24);
    auto streaming = BuildStreaming(domain, budget, tuples);
    auto naive =
        BuildWaveletNaive(domain, budget, WaveletEncoding::kPrefixSum, tuples);

    auto importances = [log_domain](const WaveletSynopsis& s) {
      std::vector<double> v;
      for (const auto& c : s.CoefficientsInPreOrder()) {
        v.push_back(WaveletImportance(c.index, c.value, log_domain));
      }
      std::sort(v.begin(), v.end());
      return v;
    };
    auto ia = importances(*streaming);
    auto ib = importances(*naive);
    ASSERT_EQ(ia.size(), ib.size()) << "trial " << trial;
    for (size_t i = 0; i < ia.size(); ++i) {
      EXPECT_NEAR(ia[i], ib[i], 1e-9) << "trial " << trial << " i=" << i;
    }
  }
}

// ----------------------------------------------------------- estimates

TEST(Wavelet, ExactEstimatesWithFullBudget) {
  Random rng(23);
  for (int trial = 0; trial < 20; ++trial) {
    int log_domain = 2 + static_cast<int>(rng.Uniform(9));
    ValueDomain domain(-100, log_domain);
    uint64_t length = domain.MaxPosition() + 1;
    std::vector<std::pair<uint64_t, uint64_t>> tuples;
    for (uint64_t p = 0; p < length; ++p) {
      if (rng.Bernoulli(0.4)) tuples.push_back({p, 1 + rng.Uniform(5)});
    }
    auto synopsis =
        BuildStreaming(domain, 4 * static_cast<size_t>(length) + 8, tuples);
    auto prefix = PrefixSums(domain, tuples);

    for (int q = 0; q < 50; ++q) {
      uint64_t a = rng.Uniform(length);
      uint64_t b = rng.Uniform(length);
      if (a > b) std::swap(a, b);
      double exact = prefix[b] - (a == 0 ? 0.0 : prefix[a - 1]);
      double est = synopsis->EstimateRange(domain.ValueAt(a),
                                           domain.ValueAt(b));
      EXPECT_NEAR(est, exact, 1e-6) << "trial " << trial;
    }
  }
}

TEST(Wavelet, PointEstimatesWithFullBudget) {
  ValueDomain domain(0, 6);
  std::vector<std::pair<uint64_t, uint64_t>> tuples = {
      {3, 5}, {17, 2}, {40, 9}, {63, 1}};
  auto synopsis = BuildStreaming(domain, 1024, tuples);
  for (const auto& [pos, freq] : tuples) {
    EXPECT_NEAR(synopsis->EstimatePoint(domain.ValueAt(pos)),
                static_cast<double>(freq), 1e-9);
  }
  EXPECT_NEAR(synopsis->EstimatePoint(domain.ValueAt(10)), 0.0, 1e-9);
}

TEST(Wavelet, RawFrequencyRangeSumMatchesBruteForce) {
  Random rng(31);
  ValueDomain domain(0, 8);
  std::vector<std::pair<uint64_t, uint64_t>> tuples;
  for (uint64_t p = 0; p < 256; ++p) {
    if (rng.Bernoulli(0.3)) tuples.push_back({p, 1 + rng.Uniform(7)});
  }
  auto synopsis = BuildWaveletNaive(domain, 1 << 12,
                                    WaveletEncoding::kRawFrequency, tuples);
  std::vector<double> freq(256, 0.0);
  for (const auto& [p, f] : tuples) freq[p] = static_cast<double>(f);
  for (int q = 0; q < 100; ++q) {
    uint64_t a = rng.Uniform(256), b = rng.Uniform(256);
    if (a > b) std::swap(a, b);
    double exact = 0;
    for (uint64_t p = a; p <= b; ++p) exact += freq[p];
    EXPECT_NEAR(synopsis->EstimateRange(static_cast<int64_t>(a),
                                        static_cast<int64_t>(b)),
                exact, 1e-6);
  }
}

// ------------------------------------------------- step table == tree walk

// The per-level error-tree walk the step table replaced, kept as the
// reference: one hash probe per level, adding +c over the right half of each
// kept coefficient's support and -c over the left.
class ReferenceWalk {
 public:
  explicit ReferenceWalk(const WaveletSynopsis& synopsis)
      : log_domain_(synopsis.domain().log_length()) {
    for (const WaveletCoefficient& c : synopsis.CoefficientsInPreOrder()) {
      coefficients_.emplace(c.index, c.value);
    }
  }

  double Point(uint64_t position) const {
    auto root = coefficients_.find(0);
    double value = root == coefficients_.end() ? 0.0 : root->second;
    uint64_t node = 1;
    for (int d = log_domain_ - 1; d >= 0; --d) {
      auto it = coefficients_.find(node);
      uint64_t bit = (position >> d) & 1;
      if (it != coefficients_.end()) value += bit ? it->second : -it->second;
      if (d > 0) node = (node << 1) | bit;
    }
    return value;
  }

 private:
  int log_domain_;
  std::unordered_map<uint64_t, double> coefficients_;
};

bool SameBits(double a, double b) {
  return std::memcmp(&a, &b, sizeof a) == 0;
}

// Every position of the domain: ReconstructPoint and the prefix estimate
// EstimateRange(min, p) are bit-for-bit the reference walk.
void ExpectStepsMatchWalk(const WaveletSynopsis& synopsis) {
  EXPECT_LE(synopsis.StepCount(), 3 * synopsis.ElementCount() + 1);
  ReferenceWalk walk(synopsis);
  const ValueDomain& domain = synopsis.domain();
  for (uint64_t p = 0; p <= domain.MaxPosition(); ++p) {
    const double expected = walk.Point(p);
    ASSERT_TRUE(SameBits(synopsis.ReconstructPoint(p), expected))
        << "p=" << p << " " << synopsis.DebugString();
    ASSERT_TRUE(SameBits(
        synopsis.EstimateRange(domain.min_value(), domain.ValueAt(p)),
        expected - 0.0))
        << "p=" << p << " " << synopsis.DebugString();
  }
  Random rng(domain.MaxPosition());
  for (int q = 0; q < 200; ++q) {
    uint64_t a = rng.Uniform(domain.MaxPosition() + 1);
    uint64_t b = rng.Uniform(domain.MaxPosition() + 1);
    if (a > b) std::swap(a, b);
    const double expected =
        walk.Point(b) - (a == 0 ? 0.0 : walk.Point(a - 1));
    ASSERT_TRUE(SameBits(
        synopsis.EstimateRange(domain.ValueAt(a), domain.ValueAt(b)),
        expected))
        << "[" << a << ", " << b << "]";
  }
}

std::vector<std::pair<uint64_t, uint64_t>> RandomTuples(
    const ValueDomain& domain, size_t count, uint64_t seed) {
  Random rng(seed);
  std::map<uint64_t, uint64_t> tuples;
  for (size_t i = 0; i < count; ++i) {
    tuples[rng.Uniform(domain.MaxPosition() + 1)] += 1 + rng.Uniform(20);
  }
  return {tuples.begin(), tuples.end()};
}

TEST(WaveletSteps, MatchTreeWalkOnBuiltDecodedClonedAndMerged) {
  for (int log_domain : {8, 12, 16}) {
    const ValueDomain domain(-300, log_domain);
    for (size_t budget : {1u, 16u, 256u}) {
      SCOPED_TRACE("log_domain=" + std::to_string(log_domain) +
                   " budget=" + std::to_string(budget));
      auto built =
          BuildStreaming(domain, budget, RandomTuples(domain, 600, budget));
      auto other = BuildStreaming(domain, budget,
                                  RandomTuples(domain, 400, budget + 1));
      {
        SCOPED_TRACE("built");
        ASSERT_NO_FATAL_FAILURE(ExpectStepsMatchWalk(*built));
      }
      {
        SCOPED_TRACE("decoded");
        Encoder enc;
        built->EncodeTo(&enc);
        Decoder dec(enc.buffer());
        auto decoded = DecodeSynopsis(&dec);
        ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
        ASSERT_NO_FATAL_FAILURE(
            ExpectStepsMatchWalk(*AsWavelet(std::move(decoded).value())));
      }
      {
        SCOPED_TRACE("cloned");
        ASSERT_NO_FATAL_FAILURE(
            ExpectStepsMatchWalk(*AsWavelet(built->Clone())));
      }
      {
        SCOPED_TRACE("merged");
        ASSERT_TRUE(built->MergeFrom(*other).ok());
        ASSERT_NO_FATAL_FAILURE(ExpectStepsMatchWalk(*built));
      }
    }
  }
}

TEST(WaveletSteps, MatchTreeWalkOnInexactCoefficients) {
  // Built coefficients are dyadic rationals, whose sums are exact in any
  // order. Arbitrary doubles make the order of the additions visible.
  const ValueDomain domain(0, 12);
  auto random_synopsis = [&](uint64_t seed) {
    Random rng(seed);
    // A large overall average: the thresholding keeps it.
    std::vector<WaveletCoefficient> coefficients = {
        {0, 1e4 / 3.0 + static_cast<double>(seed)}};
    for (int i = 0; i < 300; ++i) {
      coefficients.push_back(
          {rng.Uniform(uint64_t{1} << 12),
           (static_cast<double>(rng.Uniform(1000000)) - 5e5) / 7.0 * 1e-3});
    }
    return WaveletSynopsis(domain, 256, WaveletEncoding::kPrefixSum,
                           std::move(coefficients), 1000);
  };
  WaveletSynopsis a = random_synopsis(1);
  ASSERT_NO_FATAL_FAILURE(ExpectStepsMatchWalk(a));
  ASSERT_TRUE(a.MergeFrom(random_synopsis(2)).ok());
  ASSERT_NO_FATAL_FAILURE(ExpectStepsMatchWalk(a));
}

TEST(WaveletSteps, EmptyAndRootOnlySynopses) {
  const ValueDomain domain(0, 12);
  StreamingWaveletBuilder builder(domain, 64);
  auto empty = AsWavelet(builder.Finish());
  EXPECT_EQ(empty->StepCount(), 1u);
  ASSERT_NO_FATAL_FAILURE(ExpectStepsMatchWalk(*empty));

  WaveletSynopsis root_only(domain, 16, WaveletEncoding::kPrefixSum,
                            {{0, 2.5}}, 10);
  EXPECT_EQ(root_only.StepCount(), 1u);
  ASSERT_NO_FATAL_FAILURE(ExpectStepsMatchWalk(root_only));
}

TEST(WaveletSteps, RawFrequencyPointsMatchTreeWalk) {
  const ValueDomain domain(0, 8);
  auto synopsis = BuildWaveletNaive(domain, 16, WaveletEncoding::kRawFrequency,
                                    RandomTuples(domain, 80, 5));
  ReferenceWalk walk(*synopsis);
  for (uint64_t p = 0; p <= domain.MaxPosition(); ++p) {
    ASSERT_TRUE(SameBits(synopsis->ReconstructPoint(p), walk.Point(p)))
        << "p=" << p;
  }
}

TEST(WaveletSteps, FullInt64DomainStepEdgesMatchTreeWalk) {
  // Supports up to 2^64 long: the walk's overflow guards, checked at every
  // step edge (the only places the reconstruction can change).
  const ValueDomain domain = ValueDomain::ForType(FieldType::kInt64);
  StreamingWaveletBuilder builder(domain, 64);
  const std::vector<int64_t> values = {INT64_MIN, INT64_MIN + 1, -77, 0, 0, 5,
                                       int64_t{1} << 40, INT64_MAX - 1,
                                       INT64_MAX};
  for (int64_t v : values) builder.Add(v);
  auto synopsis = AsWavelet(builder.Finish());
  ReferenceWalk walk(*synopsis);
  // Probe around every support's start, middle and end.
  std::vector<uint64_t> probes = {0, UINT64_MAX};
  for (const WaveletCoefficient& c : synopsis->CoefficientsInPreOrder()) {
    if (c.index == 0) continue;
    const int depth = std::bit_width(c.index) - 1;
    const int support_log = 64 - depth;
    const uint64_t start =
        depth == 0 ? 0 : (c.index - (uint64_t{1} << depth)) << support_log;
    const uint64_t half = uint64_t{1} << (support_log - 1);
    for (uint64_t edge : {start, start + half, start + half + half}) {
      for (uint64_t p : {edge - 1, edge, edge + 1}) probes.push_back(p);
    }
  }
  for (uint64_t p : probes) {
    ASSERT_TRUE(SameBits(synopsis->ReconstructPoint(p), walk.Point(p)))
        << "p=" << p;
  }
  EXPECT_LE(synopsis->StepCount(), 3 * synopsis->ElementCount() + 1);
}

// -------------------------------------------------------------- merging

TEST(Wavelet, MergeEqualsUnionWithFullBudget) {
  Random rng(47);
  ValueDomain domain(0, 10);
  std::vector<std::pair<uint64_t, uint64_t>> ta, tb, tu;
  std::map<uint64_t, uint64_t> unioned;
  for (uint64_t p = 0; p < 1024; ++p) {
    if (rng.Bernoulli(0.2)) {
      uint64_t f = 1 + rng.Uniform(4);
      ta.push_back({p, f});
      unioned[p] += f;
    }
    if (rng.Bernoulli(0.2)) {
      uint64_t f = 1 + rng.Uniform(4);
      tb.push_back({p, f});
      unioned[p] += f;
    }
  }
  for (const auto& [p, f] : unioned) tu.push_back({p, f});

  size_t budget = 1 << 14;  // effectively unlimited
  auto sa = BuildStreaming(domain, budget, ta);
  auto sb = BuildStreaming(domain, budget, tb);
  auto su = BuildStreaming(domain, budget, tu);
  ASSERT_TRUE(sa->MergeFrom(*sb).ok());

  EXPECT_EQ(sa->TotalRecords(), su->TotalRecords());
  for (uint64_t p = 0; p < 1024; p += 13) {
    EXPECT_NEAR(sa->ReconstructPoint(p), su->ReconstructPoint(p), 1e-6);
  }
}

TEST(Wavelet, MergeRejectsMismatchedDomains) {
  auto a = BuildStreaming(ValueDomain(0, 8), 16, {{1, 1}});
  auto b = BuildStreaming(ValueDomain(0, 9), 16, {{1, 1}});
  EXPECT_EQ(a->MergeFrom(*b).code(), StatusCode::kInvalidArgument);
}

// ------------------------------------------------------------ structure

TEST(Wavelet, PreOrderComparatorProperties) {
  // Root average first, then pre-order of the detail tree.
  EXPECT_TRUE(WaveletPreOrderLess(0, 1));
  EXPECT_TRUE(WaveletPreOrderLess(1, 2));   // node before left child
  EXPECT_TRUE(WaveletPreOrderLess(2, 3));   // left subtree before right
  EXPECT_TRUE(WaveletPreOrderLess(2, 5));   // 5 = right child of 2
  EXPECT_TRUE(WaveletPreOrderLess(5, 3));   // whole left subtree before 3
  EXPECT_TRUE(WaveletPreOrderLess(4, 5));
  EXPECT_FALSE(WaveletPreOrderLess(3, 3));
  EXPECT_TRUE(WaveletPreOrderLess(3, 6));   // parent before its left child
  // Strict weak ordering spot check: antisymmetry on random pairs.
  Random rng(3);
  for (int i = 0; i < 200; ++i) {
    uint64_t a = rng.Uniform(1 << 12);
    uint64_t b = rng.Uniform(1 << 12);
    if (a == b) continue;
    EXPECT_NE(WaveletPreOrderLess(a, b), WaveletPreOrderLess(b, a));
  }
}

TEST(Wavelet, SerializationRoundTrip) {
  ValueDomain domain(-500, 12);
  std::vector<std::pair<uint64_t, uint64_t>> tuples = {
      {0, 3}, {100, 7}, {2000, 1}, {4095, 11}};
  auto synopsis = BuildStreaming(domain, 32, tuples);
  Encoder enc;
  synopsis->EncodeTo(&enc);
  Decoder dec(enc.buffer());
  auto decoded = DecodeSynopsis(&dec);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_TRUE(dec.Done());
  EXPECT_EQ((*decoded)->type(), SynopsisType::kWavelet);
  EXPECT_EQ((*decoded)->TotalRecords(), synopsis->TotalRecords());
  EXPECT_EQ((*decoded)->ElementCount(), synopsis->ElementCount());
  for (int64_t v : {-500, -400, 0, 3000, 3595}) {
    EXPECT_DOUBLE_EQ((*decoded)->EstimateRange(-500, v),
                     synopsis->EstimateRange(-500, v));
  }
}

TEST(Wavelet, EmptyInputYieldsZeroEstimates) {
  StreamingWaveletBuilder builder(ValueDomain(0, 16), 64);
  auto synopsis = builder.Finish();
  EXPECT_EQ(synopsis->TotalRecords(), 0u);
  EXPECT_DOUBLE_EQ(synopsis->EstimateRange(0, 65535), 0.0);
}

TEST(Wavelet, FullInt64DomainSmoke) {
  // The full 2^64 domain exercises every overflow guard in the builder.
  ValueDomain domain = ValueDomain::ForType(FieldType::kInt64);
  StreamingWaveletBuilder builder(domain, 1 << 12);
  std::vector<int64_t> values = {INT64_MIN, -5, 0, 1, 1, 1, 999999999999LL,
                                 INT64_MAX};
  for (int64_t v : values) builder.Add(v);
  std::unique_ptr<Synopsis> synopsis = builder.Finish();
  EXPECT_EQ(synopsis->TotalRecords(), values.size());
  // With an ample budget every nonzero coefficient survives, so estimates
  // are exact.
  EXPECT_NEAR(synopsis->EstimateRange(INT64_MIN, INT64_MAX), 8.0, 1e-3);
  EXPECT_NEAR(synopsis->EstimatePoint(1), 3.0, 1e-3);
  EXPECT_NEAR(synopsis->EstimateRange(-5, 1), 5.0, 1e-3);
}

TEST(Wavelet, FullInt64DomainTailValueOnly) {
  // A single record at the very top of the domain: next_position_ wraps.
  ValueDomain domain = ValueDomain::ForType(FieldType::kInt64);
  StreamingWaveletBuilder builder(domain, 256);
  builder.Add(INT64_MAX);
  std::unique_ptr<Synopsis> synopsis = builder.Finish();
  EXPECT_NEAR(synopsis->EstimatePoint(INT64_MAX), 1.0, 1e-6);
  EXPECT_NEAR(synopsis->EstimateRange(INT64_MIN, INT64_MAX - 1), 0.0, 1e-6);
}

TEST(Wavelet, ThresholdingKeepsBudget) {
  Random rng(91);
  ValueDomain domain(0, 14);
  std::vector<std::pair<uint64_t, uint64_t>> tuples;
  for (uint64_t p = 0; p < (1 << 14); p += 1 + rng.Uniform(5)) {
    tuples.push_back({p, 1 + rng.Uniform(100)});
  }
  for (size_t budget : {4u, 16u, 64u, 256u}) {
    auto synopsis = BuildStreaming(domain, budget, tuples);
    EXPECT_LE(synopsis->ElementCount(), budget);
  }
}

TEST(Wavelet, BiggerBudgetNeverHurtsTotalRangeAccuracy) {
  // The L2-optimal greedy selection should make broad range estimates
  // monotonically better (or equal) as the budget grows, on average.
  Random rng(131);
  ValueDomain domain(0, 12);
  std::vector<std::pair<uint64_t, uint64_t>> tuples;
  for (uint64_t p = 0; p < (1 << 12); ++p) {
    if (rng.Bernoulli(0.5)) tuples.push_back({p, 1 + rng.Uniform(20)});
  }
  auto prefix = PrefixSums(domain, tuples);
  double prev_error = 1e300;
  for (size_t budget : {8u, 32u, 128u, 512u, 4096u, 16384u}) {
    auto synopsis = BuildStreaming(domain, budget, tuples);
    double err = 0;
    Random qrng(7);
    for (int q = 0; q < 200; ++q) {
      uint64_t a = qrng.Uniform(1 << 12), b = qrng.Uniform(1 << 12);
      if (a > b) std::swap(a, b);
      double exact = prefix[b] - (a == 0 ? 0.0 : prefix[a - 1]);
      err += std::abs(synopsis->EstimateRange(static_cast<int64_t>(a),
                                              static_cast<int64_t>(b)) -
                      exact);
    }
    EXPECT_LE(err, prev_error * 1.10) << "budget " << budget;
    prev_error = err;
  }
}

}  // namespace
}  // namespace lsmstats
