#include "stats/analyze_job.h"

#include <chrono>
#include <limits>

#include "synopsis/maxdiff_histogram.h"

namespace lsmstats {

StatusOr<AnalyzeResult> RunAnalyze(Dataset* dataset, const std::string& field,
                                   SynopsisType type, size_t budget) {
  LsmTree* index = dataset->secondary(field);
  if (index == nullptr) {
    return Status::NotFound("no secondary index on field " + field);
  }
  // budget == 0 defers to the dataset's live element budget, which is where
  // a memory-arbiter grant lands ("synopsis budgets shrink at the next
  // ANALYZE"). Without an arbiter this is the static synopsis_budget option.
  if (budget == 0) budget = dataset->EffectiveSynopsisBudget();
  auto field_index = dataset->schema().FieldIndex(field);
  LSMSTATS_RETURN_IF_ERROR(field_index.status());
  const ValueDomain domain =
      dataset->schema().field(field_index.value()).EffectiveDomain();

  AnalyzeResult result;
  for (const ComponentMetadata& md : index->ComponentsMetadata()) {
    result.bytes_read += md.file_size;
  }

  auto started = std::chrono::steady_clock::now();
  const LsmKey scan_lo =
      SecondaryKey(domain.min_value(), std::numeric_limits<int64_t>::min());
  const LsmKey scan_hi =
      SecondaryKey(domain.max_value(), std::numeric_limits<int64_t>::max());

  if (type == SynopsisType::kMaxDiff || type == SynopsisType::kVOptimal) {
    // MaxDiff needs the full (value, frequency) aggregate before it can
    // place a single boundary — the multi-pass requirement that bars it
    // from the streaming framework (§2).
    std::vector<std::pair<uint64_t, uint64_t>> aggregate;
    LSMSTATS_RETURN_IF_ERROR(index->Scan(scan_lo, scan_hi,
                                         [&](const EntryView& entry) {
      uint64_t position = domain.Position(entry.key.k0);
      if (!aggregate.empty() && aggregate.back().first == position) {
        ++aggregate.back().second;
      } else {
        aggregate.push_back({position, 1});
      }
      ++result.records_scanned;
    }));
    if (type == SynopsisType::kMaxDiff) {
      result.synopsis = std::shared_ptr<const Synopsis>(
          MaxDiffHistogram::Build(domain, budget, aggregate).release());
    } else {
      result.synopsis = std::shared_ptr<const Synopsis>(
          VOptimalHistogram::Build(domain, budget, aggregate).release());
    }
  } else {
    // For streaming-capable types ANALYZE knows the exact record count up
    // front only by scanning twice; use the index metadata instead (live
    // records <= total disk records), which is what a real ANALYZE can see.
    SynopsisConfig config{type, budget, domain};
    auto builder = CreateSynopsisBuilder(config, index->TotalDiskRecords());
    if (!builder) {
      return Status::InvalidArgument("synopsis type has no builder");
    }
    LSMSTATS_RETURN_IF_ERROR(index->Scan(scan_lo, scan_hi,
                                         [&](const EntryView& entry) {
      builder->Add(entry.key.k0);
      ++result.records_scanned;
    }));
    result.synopsis = std::shared_ptr<const Synopsis>(
        builder->Finish().release());
  }
  result.seconds = std::chrono::duration<double>(
                       std::chrono::steady_clock::now() - started)
                       .count();
  return result;
}

void InstallAnalyzeResult(StatisticsCatalog* catalog,
                          const StatisticsKey& key,
                          const AnalyzeResult& result) {
  // Drop every existing entry for the key, then install the single
  // dataset-wide synopsis.
  std::vector<uint64_t> existing;
  const StatisticsCatalog::StreamSnapshot snapshot = catalog->Snapshot(key);
  if (snapshot.entries != nullptr) {
    for (const SynopsisEntry& entry : *snapshot.entries) {
      existing.push_back(entry.component_id);
    }
  }
  SynopsisEntry entry;
  entry.component_id = std::numeric_limits<uint64_t>::max();  // synthetic
  entry.timestamp = std::numeric_limits<uint64_t>::max();
  entry.synopsis = result.synopsis;
  catalog->Register(key, std::move(entry), existing);
}

}  // namespace lsmstats
