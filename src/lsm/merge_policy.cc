#include "lsm/merge_policy.h"

#include <algorithm>

#include "common/check.h"

namespace lsmstats {

MergeDecision MergePolicy::FromRange(
    const std::vector<ComponentMetadata>& components, size_t begin,
    size_t end) {
  LSMSTATS_CHECK(begin < end);
  LSMSTATS_CHECK(end <= components.size());
  MergeDecision decision;
  decision.input_ids.reserve(end - begin);
  for (size_t i = begin; i < end; ++i) {
    decision.input_ids.push_back(components[i].id);
  }
  return decision;
}

bool ComponentRangesOverlap(const ComponentMetadata& a,
                            const ComponentMetadata& b) {
  if (a.record_count + a.anti_matter_count == 0 ||
      b.record_count + b.anti_matter_count == 0) {
    return false;  // empty components cover no keys
  }
  return !(a.max_key < b.min_key || b.max_key < a.min_key);
}

std::optional<MergeDecision> NoMergePolicy::PickMerge(
    const std::vector<ComponentMetadata>& components) const {
  (void)components;
  return std::nullopt;
}

ConstantMergePolicy::ConstantMergePolicy(size_t max_components)
    : max_components_(max_components) {
  LSMSTATS_CHECK(max_components >= 1);
}

std::optional<MergeDecision> ConstantMergePolicy::PickMerge(
    const std::vector<ComponentMetadata>& components) const {
  if (components.size() <= max_components_) return std::nullopt;
  // Merge the oldest surplus components (always at least two) so the stack
  // shrinks back to the bound in one step.
  size_t surplus = components.size() - max_components_ + 1;
  return FromRange(components, components.size() - surplus, components.size());
}

std::string ConstantMergePolicy::name() const {
  return "Constant(" + std::to_string(max_components_) + ")";
}

PrefixMergePolicy::PrefixMergePolicy(uint64_t max_mergable_size,
                                     size_t max_tolerance_count)
    : max_mergable_size_(max_mergable_size),
      max_tolerance_count_(max_tolerance_count) {
  LSMSTATS_CHECK(max_tolerance_count >= 1);
}

std::optional<MergeDecision> PrefixMergePolicy::PickMerge(
    const std::vector<ComponentMetadata>& components) const {
  // Longest newest-prefix of small components. The trigger counts the whole
  // small run; the byte cap only bounds how much of it one merge chews.
  // (Coupling the two — as an earlier version did — deadlocks the policy:
  // once the run's cumulative size passes the cap, the capped prefix stays
  // below the tolerance forever and the stack grows without bound.)
  size_t run = 0;
  while (run < components.size() &&
         components[run].file_size < max_mergable_size_) {
    ++run;
  }
  if (run <= max_tolerance_count_ || run < 2) return std::nullopt;
  size_t take = 0;
  uint64_t take_bytes = 0;
  while (take < run &&
         (take < 2 ||
          take_bytes + components[take].file_size < max_mergable_size_)) {
    take_bytes += components[take].file_size;
    ++take;
  }
  return FromRange(components, 0, take);
}

std::string PrefixMergePolicy::name() const {
  return "Prefix(max=" + std::to_string(max_mergable_size_) +
         ",tolerance=" + std::to_string(max_tolerance_count_) + ")";
}

TieredMergePolicy::TieredMergePolicy(double size_ratio, size_t min_width,
                                     size_t max_width)
    : size_ratio_(size_ratio), min_width_(min_width), max_width_(max_width) {
  LSMSTATS_CHECK(size_ratio >= 1.0);
  LSMSTATS_CHECK(min_width >= 2);
  LSMSTATS_CHECK(max_width >= min_width);
}

std::optional<MergeDecision> TieredMergePolicy::PickMerge(
    const std::vector<ComponentMetadata>& components) const {
  if (components.size() < min_width_) return std::nullopt;
  // Search from the oldest end for a window of similar-sized components.
  // Components are newest-first, so "oldest end" is the back.
  for (size_t end = components.size(); end >= min_width_; --end) {
    size_t begin_limit = end - std::min(max_width_, end);
    uint64_t min_size = UINT64_MAX;
    uint64_t max_size = 0;
    for (size_t begin = end; begin-- > begin_limit;) {
      min_size = std::min(min_size, components[begin].file_size);
      max_size = std::max(max_size, components[begin].file_size);
      size_t width = end - begin;
      if (width >= min_width_ &&
          static_cast<double>(max_size) <=
              size_ratio_ * static_cast<double>(std::max<uint64_t>(
                                1, min_size))) {
        return FromRange(components, begin, end);
      }
    }
  }
  return std::nullopt;
}

std::string TieredMergePolicy::name() const {
  return "Tiered(ratio=" + std::to_string(size_ratio_) + ")";
}

LeveledMergePolicy::LeveledMergePolicy(LeveledPolicyOptions options)
    : options_(options) {
  LSMSTATS_CHECK(options_.level0_limit >= 1);
  LSMSTATS_CHECK(options_.base_level_bytes >= 1);
  LSMSTATS_CHECK(options_.level_size_ratio >= 1.0);
}

std::optional<MergeDecision> LeveledMergePolicy::PickMerge(
    const std::vector<ComponentMetadata>& components) const {
  // Group stack positions by level (positions stay in stack order, which is
  // recency order within level 0 and min_key order within deeper levels).
  std::vector<std::vector<size_t>> levels;
  for (size_t i = 0; i < components.size(); ++i) {
    size_t level = components[i].level;
    if (levels.size() <= level) levels.resize(level + 1);
    levels[level].push_back(i);
  }

  // Level-0 pressure: fold the whole arrival area, plus every level-1
  // partition its key HULL overlaps, into level 1. The hull — not the
  // individual L0 ranges — because the merge output tiles one contiguous
  // interval spanning all inputs: a level-1 partition sitting in a gap
  // between two L0 ranges would end up interval-covered by the output, and
  // leaving it out would break the level's disjointness invariant.
  if (!levels.empty() && levels[0].size() > options_.level0_limit) {
    MergeDecision decision;
    decision.target_level = 1;
    decision.output_split_bytes = options_.partition_split_bytes;
    ComponentMetadata hull;  // empty until the first non-empty L0 component
    for (size_t pos : levels[0]) {
      decision.input_ids.push_back(components[pos].id);
      const ComponentMetadata& md = components[pos];
      if (md.record_count + md.anti_matter_count == 0) continue;
      if (hull.record_count == 0) {
        hull = md;
      } else {
        hull.min_key = std::min(hull.min_key, md.min_key);
        hull.max_key = std::max(hull.max_key, md.max_key);
      }
    }
    if (levels.size() > 1) {
      for (size_t pos : levels[1]) {
        if (ComponentRangesOverlap(components[pos], hull)) {
          decision.input_ids.push_back(components[pos].id);
        }
      }
    }
    return decision;
  }

  // Deeper levels: promote one victim from the shallowest over-capacity
  // level into the next one, merging only the next level's overlapping
  // partitions. The victim is the component dragging the fewest overlap
  // bytes with it (the classic write-amplification-minimizing pick); ties
  // go to the smaller min_key so the choice is deterministic.
  double capacity = static_cast<double>(options_.base_level_bytes);
  for (size_t k = 1; k < levels.size();
       ++k, capacity *= options_.level_size_ratio) {
    uint64_t level_bytes = 0;
    for (size_t pos : levels[k]) level_bytes += components[pos].file_size;
    if (static_cast<double>(level_bytes) <= capacity) continue;

    const std::vector<size_t>* next =
        k + 1 < levels.size() ? &levels[k + 1] : nullptr;
    size_t victim = SIZE_MAX;
    uint64_t victim_overlap = UINT64_MAX;
    for (size_t pos : levels[k]) {
      uint64_t overlap_bytes = 0;
      if (next != nullptr) {
        for (size_t below : *next) {
          if (ComponentRangesOverlap(components[pos], components[below])) {
            overlap_bytes += components[below].file_size;
          }
        }
      }
      if (victim == SIZE_MAX || overlap_bytes < victim_overlap ||
          (overlap_bytes == victim_overlap &&
           components[pos].min_key < components[victim].min_key)) {
        victim = pos;
        victim_overlap = overlap_bytes;
      }
    }
    LSMSTATS_CHECK(victim != SIZE_MAX);

    MergeDecision decision;
    decision.target_level = static_cast<uint32_t>(k + 1);
    decision.output_split_bytes = options_.partition_split_bytes;
    decision.input_ids.push_back(components[victim].id);
    if (next != nullptr) {
      for (size_t below : *next) {
        if (ComponentRangesOverlap(components[victim], components[below])) {
          decision.input_ids.push_back(components[below].id);
        }
      }
    }
    return decision;
  }

  // Partitioned hygiene: re-split any partition that outgrew twice the
  // split bound (a single-input, same-level plan the tree executes as an
  // in-place rewrite into several disjoint components).
  if (options_.partition_split_bytes > 0) {
    for (size_t k = 1; k < levels.size(); ++k) {
      for (size_t pos : levels[k]) {
        if (components[pos].file_size > 2 * options_.partition_split_bytes) {
          MergeDecision decision;
          decision.target_level = static_cast<uint32_t>(k);
          decision.output_split_bytes = options_.partition_split_bytes;
          decision.input_ids.push_back(components[pos].id);
          return decision;
        }
      }
    }
  }
  return std::nullopt;
}

std::string LeveledMergePolicy::name() const {
  std::string label =
      options_.partition_split_bytes > 0 ? "Partitioned" : "Leveled";
  label += "(l0=" + std::to_string(options_.level0_limit) +
           ",base=" + std::to_string(options_.base_level_bytes) +
           ",ratio=" + std::to_string(options_.level_size_ratio);
  if (options_.partition_split_bytes > 0) {
    label += ",split=" + std::to_string(options_.partition_split_bytes);
  }
  return label + ")";
}

std::shared_ptr<MergePolicy> MakeMergePolicyByName(const std::string& name) {
  if (name == "nomerge") return std::make_shared<NoMergePolicy>();
  if (name == "constant") return std::make_shared<ConstantMergePolicy>(4);
  if (name == "prefix") return std::make_shared<PrefixMergePolicy>();
  if (name == "tiered") return std::make_shared<TieredMergePolicy>();
  if (name == "leveled") return std::make_shared<LeveledMergePolicy>();
  if (name == "partitioned") {
    LeveledPolicyOptions options;
    options.partition_split_bytes = 1ull << 20;
    return std::make_shared<LeveledMergePolicy>(options);
  }
  return nullptr;
}

}  // namespace lsmstats
