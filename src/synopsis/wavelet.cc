#include "synopsis/wavelet.h"

#include <algorithm>
#include <bit>
#include <cmath>

#include "common/check.h"

namespace lsmstats {

namespace {

int DepthOf(uint64_t index) {
  LSMSTATS_DCHECK(index >= 1);
  return std::bit_width(index) - 1;
}

}  // namespace

double WaveletImportance(uint64_t index, double value, int log_domain) {
  int support_log =
      index == 0 ? log_domain : log_domain - DepthOf(index);
  return std::abs(value) * std::exp2(0.5 * support_log);
}

bool WaveletPreOrderLess(uint64_t a, uint64_t b) {
  if (a == b) return false;
  if (a == 0) return true;   // The overall average leads the serialization.
  if (b == 0) return false;
  int da = DepthOf(a);
  int db = DepthOf(b);
  int m = std::min(da, db);
  uint64_t pa = a >> (da - m);
  uint64_t pb = b >> (db - m);
  if (pa != pb) {
    // Divergent subtrees: at equal depth, numeric order is left-to-right
    // order, which matches pre-order.
    return pa < pb;
  }
  // One is an ancestor of the other; the ancestor comes first in pre-order.
  return da < db;
}

WaveletSynopsis::WaveletSynopsis(const ValueDomain& domain, size_t budget,
                                 WaveletEncoding encoding,
                                 std::vector<WaveletCoefficient> coefficients,
                                 uint64_t total_records)
    : domain_(domain),
      budget_(budget),
      encoding_(encoding),
      total_records_(total_records) {
  LSMSTATS_CHECK(budget >= 1);
  coefficients_.reserve(coefficients.size());
  for (const WaveletCoefficient& c : coefficients) {
    if (c.value != 0.0) coefficients_.emplace(c.index, c.value);
  }
  Threshold(budget_);
  BuildSteps();
}

double WaveletSynopsis::ReconstructPoint(uint64_t position) const {
  auto next = std::upper_bound(step_starts_.begin(), step_starts_.end(),
                               position);
  return step_values_[static_cast<size_t>(next - step_starts_.begin()) - 1];
}

void WaveletSynopsis::BuildSteps() {
  step_starts_.clear();
  step_values_.clear();
  const int log_domain = domain_.log_length();
  // A kept detail coefficient whose support contains the walk position.
  // `left`/`right` are W over its two halves as summed so far: the value
  // its nearest kept ancestor gives the support, plus -c or +c.
  struct Open {
    uint64_t mid;   // first position of the right half
    uint64_t last;  // last position of the support
    double left;
    double right;
  };
  std::vector<Open> open;  // outermost first; supports nest
  double root = 0.0;
  uint64_t pos = 0;  // first position no step covers yet
  auto emit = [this](uint64_t start, double value) {
    // Bitwise, not ==: 0.0 and -0.0 are different results.
    if (!step_values_.empty() &&
        std::bit_cast<uint64_t>(value) ==
            std::bit_cast<uint64_t>(step_values_.back())) {
      return;
    }
    step_starts_.push_back(start);
    step_values_.push_back(value);
  };
  // Emits the steps for positions [pos, through].
  auto cover = [&](uint64_t through) {
    for (;;) {
      while (!open.empty() && open.back().last < pos) open.pop_back();
      double value = root;
      uint64_t step_last = through;
      if (!open.empty()) {
        const Open& o = open.back();
        value = pos < o.mid ? o.left : o.right;
        step_last = std::min(through, pos < o.mid ? o.mid - 1 : o.last);
      }
      emit(pos, value);
      if (step_last == through) break;
      pos = step_last + 1;
    }
    pos = through + 1;  // wraps only after the domain's last position
  };
  // Pre-order visits supports by start position, ancestors first, so every
  // coefficient covering a position is open before the position is emitted.
  for (const WaveletCoefficient& c : CoefficientsInPreOrder()) {
    if (c.index == 0) {
      root = c.value;
      continue;
    }
    const int depth = DepthOf(c.index);
    if (depth >= log_domain) continue;  // below the leaves; never reached
    const int half_log = log_domain - depth - 1;
    // depth == 0 is the root detail, whose support starts at 0 (guarding the
    // undefined shift by 64).
    const uint64_t start =
        depth == 0 ? 0 : (c.index - (1ULL << depth)) << (half_log + 1);
    const uint64_t mid = start + (1ULL << half_log);
    if (start > pos) cover(start - 1);
    while (!open.empty() && open.back().last < start) open.pop_back();
    double base = root;
    if (!open.empty()) {
      base = start < open.back().mid ? open.back().left : open.back().right;
    }
    // The same additions, in the same order, as a root-to-leaf walk that
    // adds +c over the right half of each support and -c over the left.
    open.push_back({mid, mid + ((1ULL << half_log) - 1), base + -c.value,
                    base + c.value});
  }
  cover(domain_.MaxPosition());
  LSMSTATS_DCHECK_LE(step_starts_.size(), 3 * coefficients_.size() + 1);
}

double WaveletSynopsis::RangeSum(uint64_t lo, uint64_t hi) const {
  LSMSTATS_DCHECK(lo <= hi);
  const int log_domain = domain_.log_length();
  double width = static_cast<double>(hi - lo) + 1.0;
  double sum = 0.0;
  auto overlap = [lo, hi](uint64_t a, uint64_t b) -> double {
    // |[lo, hi] ∩ [a, b]| with inclusive bounds.
    uint64_t s = std::max(lo, a);
    uint64_t e = std::min(hi, b);
    return e >= s ? static_cast<double>(e - s) + 1.0 : 0.0;
  };
  for (const auto& [index, value] : coefficients_) {
    if (index == 0) {
      sum += value * width;
      continue;
    }
    int depth = DepthOf(index);
    if (depth >= log_domain) continue;  // corrupt index; defensively skip
    int support_log = log_domain - depth;
    int half_log = support_log - 1;
    // depth == 0 means index 1, the root detail, whose support starts at 0
    // (guarding the undefined shift by support_log == 64).
    uint64_t start =
        depth == 0 ? 0 : (index - (1ULL << depth)) << support_log;
    uint64_t mid = start + (1ULL << half_log);
    uint64_t last = mid + (1ULL << half_log) - 1;
    // Right half gains +value, left half gains -value.
    sum += value * (overlap(mid, last) - overlap(start, mid - 1));
  }
  return sum;
}

double WaveletSynopsis::EstimateRange(int64_t lo, int64_t hi) const {
  if (hi < lo) return 0.0;
  lo = std::max(lo, domain_.min_value());
  hi = std::min(hi, domain_.max_value());
  if (hi < lo) return 0.0;
  uint64_t lo_pos = domain_.Position(lo);
  uint64_t hi_pos = domain_.Position(hi);
  if (encoding_ == WaveletEncoding::kRawFrequency) {
    return RangeSum(lo_pos, hi_pos);
  }
  // Prefix-sum encoding: cardinality([lo, hi]) = P[hi] - P[lo - 1], two
  // point reconstructions (§3.6).
  double upper = ReconstructPoint(hi_pos);
  double lower = lo_pos == 0 ? 0.0 : ReconstructPoint(lo_pos - 1);
  return upper - lower;
}

Status WaveletSynopsis::MergeFrom(const WaveletSynopsis& other) {
  if (!(domain_ == other.domain_) || encoding_ != other.encoding_) {
    return Status::InvalidArgument(
        "wavelet synopses must share domain and encoding to merge");
  }
  // The Haar transform is linear: transform(f + g) = transform(f) +
  // transform(g), so coefficient-wise addition combines the synopses. Some
  // accuracy is lost because both inputs were already thresholded (§3.5).
  for (const auto& [index, value] : other.coefficients_) {
    double& slot = coefficients_[index];
    slot += value;
    if (slot == 0.0) coefficients_.erase(index);
  }
  total_records_ += other.total_records_;
  Threshold(budget_);
  BuildSteps();
  return Status::OK();
}

void WaveletSynopsis::Threshold(size_t budget) {
  LSMSTATS_DCHECK_GE(budget, size_t{1});
  if (coefficients_.size() <= budget) return;
  std::vector<std::pair<double, uint64_t>> ranked;
  ranked.reserve(coefficients_.size());
  for (const auto& [index, value] : coefficients_) {
    ranked.emplace_back(WaveletImportance(index, value, domain_.log_length()),
                        index);
  }
  std::nth_element(
      ranked.begin(), ranked.begin() + static_cast<ptrdiff_t>(budget) - 1,
      ranked.end(), [](const auto& a, const auto& b) { return a > b; });
  for (size_t i = budget; i < ranked.size(); ++i) {
    coefficients_.erase(ranked[i].second);
  }
  // Post-condition: thresholding brought the synopsis within its element
  // budget; every caller (constructor, MergeFrom) relies on this to keep the
  // serialized size bounded.
  LSMSTATS_DCHECK_LE(coefficients_.size(), budget);
}

std::vector<WaveletCoefficient> WaveletSynopsis::CoefficientsInPreOrder()
    const {
  std::vector<WaveletCoefficient> result;
  result.reserve(coefficients_.size());
  for (const auto& [index, value] : coefficients_) {
    result.push_back({index, value});
  }
  std::sort(result.begin(), result.end(),
            [](const WaveletCoefficient& a, const WaveletCoefficient& b) {
              return WaveletPreOrderLess(a.index, b.index);
            });
  return result;
}

void WaveletSynopsis::EncodeTo(Encoder* enc) const {
  enc->PutU8(static_cast<uint8_t>(type()));
  enc->PutI64(domain_.min_value());
  enc->PutU8(static_cast<uint8_t>(domain_.log_length()));
  enc->PutVarint64(budget_);
  enc->PutVarint64(total_records_);
  enc->PutU8(static_cast<uint8_t>(encoding_));
  auto ordered = CoefficientsInPreOrder();
  enc->PutVarint64(ordered.size());
  for (const WaveletCoefficient& c : ordered) {
    enc->PutU64(c.index);
    enc->PutDouble(c.value);
  }
}

StatusOr<std::unique_ptr<WaveletSynopsis>> WaveletSynopsis::DecodeFrom(
    Decoder* dec) {
  int64_t min_value;
  uint8_t log_length;
  LSMSTATS_RETURN_IF_ERROR(dec->GetI64(&min_value));
  LSMSTATS_RETURN_IF_ERROR(dec->GetU8(&log_length));
  if (log_length < 1 || log_length > 64) {
    return Status::Corruption("bad domain log_length");
  }
  uint64_t budget, total, count;
  uint8_t encoding;
  LSMSTATS_RETURN_IF_ERROR(dec->GetVarint64(&budget));
  LSMSTATS_RETURN_IF_ERROR(dec->GetVarint64(&total));
  LSMSTATS_RETURN_IF_ERROR(dec->GetU8(&encoding));
  LSMSTATS_RETURN_IF_ERROR(dec->GetVarint64(&count));
  if (budget == 0) return Status::Corruption("zero wavelet budget");
  if (encoding > 1) return Status::Corruption("bad wavelet encoding");
  if (budget > (1ULL << 26) || count > dec->remaining() / 16) {
    return Status::Corruption("wavelet size exceeds buffer");
  }
  std::vector<WaveletCoefficient> coefficients(count);
  for (auto& c : coefficients) {
    LSMSTATS_RETURN_IF_ERROR(dec->GetU64(&c.index));
    LSMSTATS_RETURN_IF_ERROR(dec->GetDouble(&c.value));
  }
  return std::make_unique<WaveletSynopsis>(
      ValueDomain(min_value, log_length), static_cast<size_t>(budget),
      static_cast<WaveletEncoding>(encoding), std::move(coefficients), total);
}

std::unique_ptr<Synopsis> WaveletSynopsis::Clone() const {
  return std::make_unique<WaveletSynopsis>(*this);
}

std::string WaveletSynopsis::DebugString() const {
  return "Wavelet(coefficients=" + std::to_string(coefficients_.size()) +
         ", encoding=" +
         (encoding_ == WaveletEncoding::kPrefixSum ? "prefix-sum" : "raw") +
         ", total=" + std::to_string(total_records_) + ")";
}

}  // namespace lsmstats
