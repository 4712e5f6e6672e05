#include "synopsis/synopsis.h"

#include "synopsis/equi_height_histogram.h"
#include "synopsis/gk_sketch.h"
#include "synopsis/grid_histogram.h"
#include "synopsis/maxdiff_histogram.h"
#include "synopsis/equi_width_histogram.h"
#include "synopsis/wavelet.h"

namespace lsmstats {

const char* SynopsisTypeToString(SynopsisType type) {
  switch (type) {
    case SynopsisType::kNone:
      return "NoStats";
    case SynopsisType::kEquiWidthHistogram:
      return "EquiWidth";
    case SynopsisType::kEquiHeightHistogram:
      return "EquiHeight";
    case SynopsisType::kWavelet:
      return "Wavelet";
    case SynopsisType::kGKQuantile:
      return "GKQuantile";
    case SynopsisType::kMaxDiff:
      return "MaxDiff";
    case SynopsisType::kGrid2D:
      return "Grid2D";
    case SynopsisType::kVOptimal:
      return "VOptimal";
  }
  return "unknown";
}

bool SynopsisTypeIsMergeable(SynopsisType type) {
  switch (type) {
    case SynopsisType::kEquiWidthHistogram:
    case SynopsisType::kWavelet:
    case SynopsisType::kGKQuantile:
    case SynopsisType::kGrid2D:
      return true;
    case SynopsisType::kNone:
    case SynopsisType::kEquiHeightHistogram:
    case SynopsisType::kMaxDiff:
    case SynopsisType::kVOptimal:
      return false;
  }
  return false;
}

StatusOr<std::unique_ptr<Synopsis>> DecodeSynopsis(Decoder* dec) {
  uint8_t type = 0;
  LSMSTATS_RETURN_IF_ERROR(dec->GetU8(&type));
  switch (static_cast<SynopsisType>(type)) {
    case SynopsisType::kEquiWidthHistogram: {
      auto result = EquiWidthHistogram::DecodeFrom(dec);
      LSMSTATS_RETURN_IF_ERROR(result.status());
      return std::unique_ptr<Synopsis>(std::move(result).value());
    }
    case SynopsisType::kEquiHeightHistogram: {
      auto result = EquiHeightHistogram::DecodeFrom(dec);
      LSMSTATS_RETURN_IF_ERROR(result.status());
      return std::unique_ptr<Synopsis>(std::move(result).value());
    }
    case SynopsisType::kWavelet: {
      auto result = WaveletSynopsis::DecodeFrom(dec);
      LSMSTATS_RETURN_IF_ERROR(result.status());
      return std::unique_ptr<Synopsis>(std::move(result).value());
    }
    case SynopsisType::kGKQuantile: {
      auto result = GKSketch::DecodeFrom(dec);
      LSMSTATS_RETURN_IF_ERROR(result.status());
      return std::unique_ptr<Synopsis>(std::move(result).value());
    }
    case SynopsisType::kMaxDiff: {
      auto result = MaxDiffHistogram::DecodeFrom(dec);
      LSMSTATS_RETURN_IF_ERROR(result.status());
      return std::unique_ptr<Synopsis>(std::move(result).value());
    }
    case SynopsisType::kGrid2D: {
      auto result = GridHistogram::DecodeFrom(dec);
      LSMSTATS_RETURN_IF_ERROR(result.status());
      return std::unique_ptr<Synopsis>(std::move(result).value());
    }
    case SynopsisType::kVOptimal: {
      auto result = VOptimalHistogram::DecodeFrom(dec);
      LSMSTATS_RETURN_IF_ERROR(result.status());
      return std::unique_ptr<Synopsis>(std::move(result).value());
    }
    case SynopsisType::kNone:
      break;
  }
  return Status::Corruption("unknown synopsis type tag");
}

StatusOr<std::unique_ptr<Synopsis>> MergeSynopses(const Synopsis& a,
                                                  const Synopsis& b,
                                                  size_t budget) {
  if (a.type() != b.type()) {
    return Status::InvalidArgument("cannot merge different synopsis types");
  }
  if (!SynopsisTypeIsMergeable(a.type())) {
    return Status::FailedPrecondition(
        std::string(SynopsisTypeToString(a.type())) +
        " synopses are not mergeable");
  }
  if (!(a.domain() == b.domain())) {
    return Status::InvalidArgument("cannot merge synopses over different "
                                   "value domains");
  }
  switch (a.type()) {
    case SynopsisType::kEquiWidthHistogram: {
      auto merged = std::make_unique<EquiWidthHistogram>(
          static_cast<const EquiWidthHistogram&>(a));
      LSMSTATS_RETURN_IF_ERROR(
          merged->MergeFrom(static_cast<const EquiWidthHistogram&>(b)));
      (void)budget;  // Bucket structure is fixed by the domain and budget.
      return std::unique_ptr<Synopsis>(std::move(merged));
    }
    case SynopsisType::kWavelet: {
      auto merged = std::make_unique<WaveletSynopsis>(
          static_cast<const WaveletSynopsis&>(a));
      LSMSTATS_RETURN_IF_ERROR(
          merged->MergeFrom(static_cast<const WaveletSynopsis&>(b)));
      return std::unique_ptr<Synopsis>(std::move(merged));
    }
    case SynopsisType::kGKQuantile: {
      auto merged =
          std::make_unique<GKSketch>(static_cast<const GKSketch&>(a));
      LSMSTATS_RETURN_IF_ERROR(
          merged->MergeFrom(static_cast<const GKSketch&>(b)));
      return std::unique_ptr<Synopsis>(std::move(merged));
    }
    case SynopsisType::kGrid2D: {
      auto merged = std::make_unique<GridHistogram>(
          static_cast<const GridHistogram&>(a));
      LSMSTATS_RETURN_IF_ERROR(
          merged->MergeFrom(static_cast<const GridHistogram&>(b)));
      return std::unique_ptr<Synopsis>(std::move(merged));
    }
    default:
      return Status::Internal("unreachable");
  }
}

}  // namespace lsmstats
