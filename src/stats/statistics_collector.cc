#include "stats/statistics_collector.h"

#include "common/check.h"

namespace lsmstats {

void LocalCatalogSink::PublishComponentStatistics(
    const StatisticsKey& key, const ComponentMetadata& metadata,
    const std::vector<uint64_t>& replaced_component_ids,
    std::shared_ptr<const Synopsis> synopsis,
    std::shared_ptr<const Synopsis> anti_synopsis) {
  if (metadata.record_count == 0) {
    catalog_->Drop(key, replaced_component_ids);
    return;
  }
  SynopsisEntry entry;
  entry.component_id = metadata.id;
  entry.timestamp = metadata.timestamp;
  entry.synopsis = std::move(synopsis);
  entry.anti_synopsis = std::move(anti_synopsis);
  catalog_->Register(key, std::move(entry), replaced_component_ids);
}

// Feeds every written entry into the regular or anti-matter builder and
// publishes both synopses when the component seals.
class StatisticsCollector::Observer : public ComponentWriteObserver {
 public:
  Observer(StatisticsCollector* parent, const OperationContext& context)
      : parent_(parent) {
    // The equi-height invariant (bucket height) needs the stream length up
    // front (§3.2). Anti-matter entries are routed to the anti builder, so
    // each builder gets its own expectation.
    uint64_t expected_regular =
        context.expected_records >= context.expected_anti_matter
            ? context.expected_records - context.expected_anti_matter
            : 0;
    regular_builder_ =
        CreateSynopsisBuilder(parent->config_, expected_regular);
    anti_builder_ =
        CreateSynopsisBuilder(parent->config_, context.expected_anti_matter);
  }

  void OnEntryView(const EntryView& entry) override {
    ++parent_->entries_observed_;
    // The statistics attribute is the leading key slot: the PK for primary
    // components, the SK for secondary components (§3.1).
    if (entry.anti_matter) {
      anti_builder_->Add(entry.key.k0);
    } else {
      regular_builder_->Add(entry.key.k0);
    }
  }

  void OnComponentSealed(const ComponentMetadata& metadata,
                         const std::vector<uint64_t>& replaced_ids) override {
    parent_->sink_->PublishComponentStatistics(
        parent_->key_, metadata, replaced_ids, regular_builder_->Finish(),
        anti_builder_->Finish());
  }

 private:
  StatisticsCollector* parent_;
  std::unique_ptr<SynopsisBuilder> regular_builder_;
  std::unique_ptr<SynopsisBuilder> anti_builder_;
};

StatisticsCollector::StatisticsCollector(StatisticsKey key,
                                         SynopsisConfig config,
                                         SynopsisSink* sink)
    : key_(std::move(key)), config_(config), sink_(sink) {
  LSMSTATS_CHECK(sink != nullptr || config.type == SynopsisType::kNone);
}

std::unique_ptr<ComponentWriteObserver> StatisticsCollector::OnOperationBegin(
    const OperationContext& context) {
  if (config_.type == SynopsisType::kNone) return nullptr;
  return std::make_unique<Observer>(this, context);
}

}  // namespace lsmstats
