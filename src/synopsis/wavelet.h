// Haar-wavelet synopsis (paper §3.2, Appendix B).
//
// The synopsis stores the top-B coefficients (by L2-normalized magnitude) of
// the discrete Haar decomposition of a signal over the attribute's
// power-of-two value domain. Two signal encodings are supported:
//
//  * kPrefixSum (the paper's choice): the encoded signal at position p is the
//    running prefix sum of record frequencies, P[p] = sum_{q<=p} f(q). A
//    range cardinality [lo, hi] is then W(hi) - W(lo-1), the paper's two
//    root-to-leaf reconstructions (§3.6). The prefix sum is dense, which is
//    why it approximates range queries far better than raw frequencies.
//  * kRawFrequency: the classical encoding of the raw frequency vector, kept
//    as the baseline for the prefix-sum ablation experiment. Range
//    cardinalities are exact range-sums over the error tree, O(B).
//
// Error-tree numbering: index 0 is the overall average; detail node i >= 1
// sits at depth bit_width(i)-1 and covers the dyadic interval of length
// 2^(logD - depth) starting at (i - 2^depth) << (logD - depth). A detail
// coefficient c adds +c to the right half of its support and -c to the left
// half (the paper's Appendix B sign convention: detail = (right - left)/2).
//
// The thresholded reconstruction W(p) is piecewise constant: it can change
// only at the start, middle and end of a kept detail coefficient's support,
// so B coefficients give at most 3B+1 steps. Whenever the coefficients become
// final (construction, MergeFrom) the synopsis compiles W into a sorted step
// table, and a point reconstruction is one O(log B) binary search. Each
// step's value is summed root to leaf in the same order as a per-level
// error-tree walk, so it is bit-for-bit that walk's result.
//
// Wavelets are mergeable (§3.5): the transform is linear, so coefficient-wise
// addition followed by re-thresholding combines two synopses.

#ifndef LSMSTATS_SYNOPSIS_WAVELET_H_
#define LSMSTATS_SYNOPSIS_WAVELET_H_

#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

#include "synopsis/builder.h"
#include "synopsis/synopsis.h"

namespace lsmstats {

struct WaveletCoefficient {
  // Error-tree index; 0 is the overall average.
  uint64_t index = 0;
  // Unnormalized coefficient value.
  double value = 0.0;
};

enum class WaveletEncoding : uint8_t {
  kPrefixSum = 0,
  kRawFrequency = 1,
};

// L2 importance of a coefficient: |value| * sqrt(support length). This is the
// normalization under which greedy top-B selection is provably optimal for
// the L2 reconstruction error (paper Appendix B).
double WaveletImportance(uint64_t index, double value, int log_domain);

// Pre-order comparison of two error-tree indices (paper §3.2 serializes
// coefficients "using a binary tree pre-order"). Index 0 precedes everything.
bool WaveletPreOrderLess(uint64_t a, uint64_t b);

class WaveletSynopsis : public Synopsis {
 public:
  WaveletSynopsis(const ValueDomain& domain, size_t budget,
                  WaveletEncoding encoding,
                  std::vector<WaveletCoefficient> coefficients,
                  uint64_t total_records);

  SynopsisType type() const override { return SynopsisType::kWavelet; }
  const ValueDomain& domain() const override { return domain_; }
  double EstimateRange(int64_t lo, int64_t hi) const override;
  size_t ElementCount() const override { return coefficients_.size(); }
  size_t Budget() const override { return budget_; }
  uint64_t TotalRecords() const override { return total_records_; }
  void EncodeTo(Encoder* enc) const override;
  std::unique_ptr<Synopsis> Clone() const override;
  std::string DebugString() const override;

  [[nodiscard]]
  static StatusOr<std::unique_ptr<WaveletSynopsis>> DecodeFrom(Decoder* dec);

  WaveletEncoding encoding() const { return encoding_; }

  // Reconstructs the encoded signal's value at a domain position (§3.6): a
  // binary search of the step table.
  double ReconstructPoint(uint64_t position) const;

  // Number of constant steps of the reconstruction; at most
  // 3 * ElementCount() + 1.
  size_t StepCount() const { return step_starts_.size(); }

  // Adds `other`'s coefficients into this synopsis and re-thresholds to the
  // budget. Requires identical domain and encoding.
  [[nodiscard]] Status MergeFrom(const WaveletSynopsis& other);

  // Coefficients in error-tree pre-order.
  std::vector<WaveletCoefficient> CoefficientsInPreOrder() const;

 private:
  // Sum of the encoded signal over positions [lo, hi] in O(#coefficients);
  // used by the raw-frequency encoding.
  double RangeSum(uint64_t lo, uint64_t hi) const;

  void Threshold(size_t budget);

  // Compiles the current coefficients into the step table.
  void BuildSteps();

  ValueDomain domain_;
  size_t budget_;
  WaveletEncoding encoding_;
  std::unordered_map<uint64_t, double> coefficients_;
  uint64_t total_records_;
  // W(p) == step_values_[i] for step_starts_[i] <= p < step_starts_[i + 1]
  // (the last step runs to the end of the domain). step_starts_[0] == 0, and
  // neighbouring values differ bitwise.
  std::vector<uint64_t> step_starts_;
  std::vector<double> step_values_;
};

}  // namespace lsmstats

#endif  // LSMSTATS_SYNOPSIS_WAVELET_H_
