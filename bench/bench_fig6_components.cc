// Figure 6: effect of the number of LSM components.
//
// Using the Constant merge policy to pin the number of disk components at
// 8 -> 128 while keeping the TOTAL statistics space fixed (per-component
// budget = total / K, §4.3.3), measure
//   (a) the normalized L1 error of FixedLength(128) queries, and
//   (b) the query-optimization-time overhead of computing an estimate
//       (probing all K component synopses, merged-synopsis cache disabled so
//       every query pays the full Algorithm 2 loop).
//
// Expected shape: more components -> slightly worse accuracy (each synopsis
// holds fewer elements) and slightly higher query-time overhead, but the
// overhead stays well under a millisecond.

#include <cinttypes>

#include "bench_common.h"

namespace lsmstats::bench {
namespace {

void Run(const Flags& flags) {
  const uint64_t records = flags.GetU64("records", 200000);
  const size_t values = flags.GetU64("values", 2000);
  const size_t queries = flags.GetU64("queries", 1000);
  const int log_domain = static_cast<int>(flags.GetU64("log_domain", 16));
  const size_t total_budget = flags.GetU64("total_budget", 1024);
  const auto frequency = ParseFrequencyDistribution(
      flags.GetString("frequencies", "Uniform"));
  LSMSTATS_CHECK_OK(frequency.status());
  // Storage knobs; the defaults reproduce the paper figure bit-for-bit.
  const std::string compression = flags.GetString("compression", "none");
  const uint64_t block_cache_mb = flags.GetU64("block_cache_mb", 0);
  const std::vector<size_t> component_counts = {8, 16, 32, 64, 128};

  std::printf("Figure 6: accuracy and query overhead vs #components "
              "(records=%" PRIu64 ", %s frequencies, total budget %zu "
              "elements)\n",
              records, FrequencyDistributionToString(*frequency),
              total_budget);

  for (SpreadDistribution spread : AllSpreadDistributions()) {
    DistributionSpec spec;
    spec.spread = spread;
    spec.frequency = *frequency;
    spec.num_values = values;
    spec.total_records = records;
    spec.domain = ValueDomain(0, log_domain);
    spec.seed = 42;
    auto dist = SyntheticDistribution::Generate(spec);
    auto record_values = dist.ExpandShuffled(7);
    auto query_set = QueryGenerator::Make(QueryType::kFixedLength,
                                          spec.domain, 128, 99, queries);

    PrintHeader(std::string("Fig 6, spread = ") +
                    SpreadDistributionToString(spread) +
                    "  [error | ms/query]",
                {"Synopsis", "K", "error", "ms/query", "components"});
    for (size_t k : component_counts) {
      std::vector<StatsRig::SynopsisSlot> slots;
      for (SynopsisType type : EvaluatedSynopsisTypes()) {
        slots.push_back({SynopsisTypeToString(type), type,
                         std::max<size_t>(1, total_budget / k)});
      }
      ScopedTempDir dir;
      // 2k memtable generations guarantee the Constant policy converges to
      // exactly k disk components.
      StatsRig rig(dir.path(), spec.domain, slots,
                   std::make_shared<ConstantMergePolicy>(k),
                   records / (2 * k) + 1, compression, block_cache_mb);
      rig.IngestAll(record_values);
      rig.Flush();

      // Disable the merged cache: every query walks all K synopses, the
      // overhead the figure measures.
      CardinalityEstimator::Options options;
      options.enable_merged_cache = false;
      CardinalityEstimator estimator(rig.catalog(), options);

      for (SynopsisType type : EvaluatedSynopsisTypes()) {
        StatisticsKey key{"rig", SynopsisTypeToString(type), 0};
        double error = NormalizedL1Error(
            query_set,
            [&](const RangeQuery& q) {
              return estimator.EstimateRangePartition(key, q.lo, q.hi);
            },
            [&](const RangeQuery& q) { return dist.ExactRange(q.lo, q.hi); },
            dist.total_records());
        WallTimer timer;
        double checksum = 0;
        for (const RangeQuery& q : query_set) {
          checksum += estimator.EstimateRangePartition(key, q.lo, q.hi);
        }
        double ms_per_query =
            timer.ElapsedMillis() / static_cast<double>(query_set.size());
        (void)checksum;
        PrintCell(SynopsisTypeToString(type));
        PrintCell(static_cast<double>(k));
        PrintCell(error);
        PrintCell(ms_per_query);
        PrintCell(static_cast<double>(rig.tree()->ComponentCount()));
        EndRow();
      }
    }
  }
}

}  // namespace
}  // namespace lsmstats::bench

int main(int argc, char** argv) {
  lsmstats::bench::Run(lsmstats::bench::Flags(argc, argv));
  return 0;
}
