// Merge (compaction) policies.
//
// A policy examines the component stack (newest-first) after every flush and
// may pick a structural merge plan: which components to merge and which level
// the output lands on. The paper's experiments use AsterixDB's Constant
// policy (a fixed number of disk components per partition, §4.3.3) and the
// NoMerge policy (maximum possible number of components, §4.3.5); a
// size-tiered policy is the realistic default for general use, and the
// Leveled/Partitioned policies follow the Luo & Carey LSM survey's
// leveling/partitioning taxonomy so merge-heavy real-engine schedules can be
// measured against the paper's statistics pipeline.
//
// Policies are PURE decision functions: they read component metadata and
// return a plan. They must not touch the filesystem, the scheduler, or any
// tree lock (enforced by tools/lint.py rule `merge-policy`); the tree
// validates and executes the plan.

#ifndef LSMSTATS_LSM_MERGE_POLICY_H_
#define LSMSTATS_LSM_MERGE_POLICY_H_

#include <cstddef>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "lsm/disk_component.h"

namespace lsmstats {

// A structural merge plan. `input_ids` names the components to merge, in the
// order they appear in the newest-first stack. The tree validates the plan
// (ids must exist; no non-input component may sit recency-between two inputs
// it overlaps) and installs the output(s) at `target_level`.
//
// Levels generalize the flat stack: level 0 is the flush arrival area whose
// components may overlap arbitrarily (ordered by recency); every level >= 1
// is a sorted run of non-overlapping key ranges. The classic stack policies
// (Constant/Prefix/Tiered) keep everything at level 0 and merge contiguous
// ranges, exactly as before.
struct MergeDecision {
  // At least one id; a single-input plan is a promotion/split rewrite and
  // requires target_level != the input's level or output_split_bytes != 0.
  std::vector<uint64_t> input_ids;
  // Level the merged output is installed at. Must be at most one greater
  // than the highest input level.
  uint32_t target_level = 0;
  // When non-zero, the merge output is split into multiple components of
  // roughly this many bytes each (key-range partitioning): one major merge
  // then never rewrites a whole level, only the overlapping partitions.
  // Zero writes a single output component.
  uint64_t output_split_bytes = 0;
};

class MergePolicy {
 public:
  virtual ~MergePolicy() = default;

  virtual std::optional<MergeDecision> PickMerge(
      const std::vector<ComponentMetadata>& components) const = 0;

  virtual std::string name() const = 0;

 protected:
  // Helper for stack policies: plan merging the contiguous newest-first
  // range [begin, end) into level 0.
  static MergeDecision FromRange(
      const std::vector<ComponentMetadata>& components, size_t begin,
      size_t end);
};

// Never merges; the component count grows without bound (paper §4.3.5).
class NoMergePolicy : public MergePolicy {
 public:
  std::optional<MergeDecision> PickMerge(
      const std::vector<ComponentMetadata>& components) const override;
  std::string name() const override { return "NoMerge"; }
};

// Keeps at most `max_components` disk components by merging the oldest ones
// together whenever the bound is exceeded (AsterixDB's Constant policy,
// paper §4.3.3).
class ConstantMergePolicy : public MergePolicy {
 public:
  explicit ConstantMergePolicy(size_t max_components);

  std::optional<MergeDecision> PickMerge(
      const std::vector<ComponentMetadata>& components) const override;
  std::string name() const override;

 private:
  size_t max_components_;
};

// Modeled after AsterixDB's default Prefix policy: when more than
// `max_tolerance_count` components smaller than `max_mergable_size` have
// accumulated at the new end of the stack, the longest such newest-prefix
// whose cumulative size stays under `max_mergable_size` is merged. Large
// (already-merged) components are left alone, so write amplification stays
// bounded while the component count hovers around the tolerance.
class PrefixMergePolicy : public MergePolicy {
 public:
  PrefixMergePolicy(uint64_t max_mergable_size = 64ull << 20,
                    size_t max_tolerance_count = 5);

  std::optional<MergeDecision> PickMerge(
      const std::vector<ComponentMetadata>& components) const override;
  std::string name() const override;

 private:
  uint64_t max_mergable_size_;
  size_t max_tolerance_count_;
};

// Size-tiered: merges the first (oldest-most) window of at least `min_width`
// adjacent components whose file sizes are within `size_ratio` of each
// other, capped at `max_width` components per merge.
class TieredMergePolicy : public MergePolicy {
 public:
  TieredMergePolicy(double size_ratio = 1.5, size_t min_width = 4,
                    size_t max_width = 10);

  std::optional<MergeDecision> PickMerge(
      const std::vector<ComponentMetadata>& components) const override;
  std::string name() const override;

 private:
  double size_ratio_;
  size_t min_width_;
  size_t max_width_;
};

// Leveling knobs shared by the Leveled and Partitioned policies.
struct LeveledPolicyOptions {
  // Merge all of level 0 into level 1 once more than this many flush
  // components have accumulated.
  size_t level0_limit = 4;
  // Capacity of level 1; level k holds base_level_bytes * ratio^(k-1).
  uint64_t base_level_bytes = 4ull << 20;
  double level_size_ratio = 4.0;
  // Non-zero = key-range-partitioned leveling: merge outputs are split into
  // components of roughly this many bytes, and a partition that grows past
  // twice this bound is split in place. Zero = one sorted run per merge.
  uint64_t partition_split_bytes = 0;
};

// Leveled compaction (Luo & Carey, §2.2 "leveling"): level 0 collects
// flushes; when it exceeds `level0_limit` components, all of level 0 is
// merged with the overlapping part of level 1. When level k (>= 1)
// outgrows its capacity, one component is promoted into level k+1, merged
// with only the level-k+1 components its key range overlaps. Every level
// >= 1 is maintained as a sorted run of non-overlapping key ranges (the
// invariant the tree checks at install). With
// `partition_split_bytes` set the policy is the key-range-partitioned
// variant: merge outputs are split on key boundaries so a promotion
// rewrites only overlapping partitions, never the whole level.
class LeveledMergePolicy : public MergePolicy {
 public:
  explicit LeveledMergePolicy(LeveledPolicyOptions options = {});

  std::optional<MergeDecision> PickMerge(
      const std::vector<ComponentMetadata>& components) const override;
  std::string name() const override;

  const LeveledPolicyOptions& options() const { return options_; }

 private:
  LeveledPolicyOptions options_;
};

// Key ranges [a.min,a.max] and [b.min,b.max] intersect. Components with no
// records have an empty range and overlap nothing.
bool ComponentRangesOverlap(const ComponentMetadata& a,
                            const ComponentMetadata& b);

// Factory by lower-case name: "nomerge", "constant", "prefix", "tiered",
// "leveled", "partitioned" (leveled with a partition split bound), each with
// its default knobs. Returns null for unknown names.
std::shared_ptr<MergePolicy> MakeMergePolicyByName(const std::string& name);

}  // namespace lsmstats

#endif  // LSMSTATS_LSM_MERGE_POLICY_H_
