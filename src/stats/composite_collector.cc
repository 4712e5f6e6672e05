#include "stats/composite_collector.h"

#include "common/check.h"

namespace lsmstats {

class CompositeStatisticsCollector::Observer : public ComponentWriteObserver {
 public:
  explicit Observer(CompositeStatisticsCollector* parent)
      : parent_(parent),
        regular_(std::make_unique<GridHistogram>(
            parent->domain0_, parent->domain1_, parent->budget_)),
        anti_(std::make_unique<GridHistogram>(
            parent->domain0_, parent->domain1_, parent->budget_)) {}

  void OnEntryView(const EntryView& entry) override {
    GridHistogram* target = entry.anti_matter ? anti_.get() : regular_.get();
    target->AddValue(entry.key.k0, entry.key.k1, 1.0);
  }

  void OnComponentSealed(const ComponentMetadata& metadata,
                         const std::vector<uint64_t>& replaced) override {
    parent_->sink_->PublishComponentStatistics(
        parent_->key_, metadata, replaced,
        std::shared_ptr<const Synopsis>(regular_.release()),
        std::shared_ptr<const Synopsis>(anti_.release()));
  }

 private:
  CompositeStatisticsCollector* parent_;
  std::unique_ptr<GridHistogram> regular_;
  std::unique_ptr<GridHistogram> anti_;
};

CompositeStatisticsCollector::CompositeStatisticsCollector(
    StatisticsKey key, ValueDomain domain0, ValueDomain domain1,
    size_t budget, SynopsisSink* sink)
    : key_(std::move(key)),
      domain0_(domain0),
      domain1_(domain1),
      budget_(budget),
      sink_(sink) {
  LSMSTATS_CHECK(sink != nullptr);
}

std::unique_ptr<ComponentWriteObserver>
CompositeStatisticsCollector::OnOperationBegin(
    const OperationContext& context) {
  (void)context;
  return std::make_unique<Observer>(this);
}

}  // namespace lsmstats
