#include "stats/unsorted_field_collector.h"

#include "common/check.h"
#include "synopsis/gk_sketch.h"

namespace lsmstats {

UnsortedFieldCollector::UnsortedFieldCollector(
    std::string dataset, const Schema* schema,
    std::vector<std::string> fields, size_t budget, SynopsisSink* sink,
    uint32_t partition)
    : dataset_(std::move(dataset)),
      schema_(schema),
      budget_(budget),
      sink_(sink) {
  LSMSTATS_CHECK(schema != nullptr);
  LSMSTATS_CHECK(sink != nullptr);
  for (const std::string& field : fields) {
    auto index = schema->FieldIndex(field);
    LSMSTATS_CHECK_OK(index.status());
    const FieldDef& def = schema->field(index.value());
    slots_.push_back({index.value(),
                      StatisticsKey{dataset_, field, partition},
                      def.EffectiveDomain()});
  }
}

class UnsortedFieldCollector::Observer : public ComponentWriteObserver {
 public:
  explicit Observer(UnsortedFieldCollector* parent) : parent_(parent) {
    for (const FieldSlot& slot : parent->slots_) {
      builders_.push_back(
          std::make_unique<GKSketchBuilder>(slot.domain, parent->budget_));
    }
  }

  void OnEntryView(const EntryView& entry) override {
    if (entry.anti_matter) {
      // Tombstones carry no record; see the header caveat.
      ++anti_matter_seen_;
      return;
    }
    Record record;
    Status s = DecodeRecordValue(entry.value,
                                 parent_->schema_->field_count(), &record);
    if (!s.ok()) {
      ++parent_->decode_failures_;
      return;
    }
    ++parent_->records_observed_;
    for (size_t i = 0; i < parent_->slots_.size(); ++i) {
      builders_[i]->Add(record.fields[parent_->slots_[i].field_index]);
    }
  }

  void OnComponentSealed(const ComponentMetadata& metadata,
                         const std::vector<uint64_t>& replaced) override {
    for (size_t i = 0; i < parent_->slots_.size(); ++i) {
      // No anti-matter synopsis is possible for unsorted fields; publish an
      // empty one so the estimator's subtraction path degrades to a no-op.
      SynopsisConfig empty_config{SynopsisType::kGKQuantile, parent_->budget_,
                                  parent_->slots_[i].domain};
      auto empty_anti = CreateSynopsisBuilder(empty_config, 0);
      parent_->sink_->PublishComponentStatistics(
          parent_->slots_[i].key, metadata, replaced,
          std::shared_ptr<const Synopsis>(builders_[i]->Finish().release()),
          std::shared_ptr<const Synopsis>(empty_anti->Finish().release()));
    }
  }

 private:
  UnsortedFieldCollector* parent_;
  std::vector<std::unique_ptr<GKSketchBuilder>> builders_;
  uint64_t anti_matter_seen_ = 0;
};

std::unique_ptr<ComponentWriteObserver>
UnsortedFieldCollector::OnOperationBegin(const OperationContext& context) {
  (void)context;
  if (slots_.empty()) return nullptr;
  return std::make_unique<Observer>(this);
}

}  // namespace lsmstats
