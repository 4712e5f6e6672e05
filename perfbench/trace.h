// In-memory span recorder for the benchmark's traced run.
//
// Spans come from two places, both outside the engine:
//   * the benchmark's own call sites, around every public Dataset /
//     CardinalityEstimator call (db.write, db.get, ...);
//   * SpanListener, an LsmEventListener attached to the dataset's trees, which
//     opens a span when a flush/merge/bulkload begins (OnOperationBegin) and
//     closes it when the new component is sealed (OnComponentSealed) — the
//     paper's own statistics hook doubling as the tracing point.
//
// A span's parent is the span open on the same thread when it began, so a
// flush that a write call triggers inline nests under that call, while one
// running on a scheduler worker is a root. Spans are kept in memory and written
// out once, when the benchmark ends.

#ifndef LSMSTATS_PERFBENCH_TRACE_H_
#define LSMSTATS_PERFBENCH_TRACE_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "lsm/event_listener.h"

namespace perfbench {

inline uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

enum class SpanKind : uint8_t {
  kWrite,
  kGet,
  kCountRange,
  kEstimate,
  kFlushCall,  // Dataset::Flush at the end of a timed loop
  kDrain,      // Dataset::WaitForBackgroundWork at the end of a timed loop
  kReopen,
  kLsmFlush,
  kLsmMerge,
  kLsmBulkload,
};

inline const char* SpanName(SpanKind kind) {
  switch (kind) {
    case SpanKind::kWrite: return "db.write";
    case SpanKind::kGet: return "db.get";
    case SpanKind::kCountRange: return "db.count_range";
    case SpanKind::kEstimate: return "stats.estimator";
    case SpanKind::kFlushCall: return "db.flush";
    case SpanKind::kDrain: return "lsm.scheduler.drain";
    case SpanKind::kReopen: return "db.reopen";
    case SpanKind::kLsmFlush: return "lsm.tree.flush";
    case SpanKind::kLsmMerge: return "lsm.tree.merge";
    case SpanKind::kLsmBulkload: return "lsm.tree.bulkload";
  }
  return "?";
}

struct Span {
  SpanKind kind = SpanKind::kWrite;
  uint32_t parent = 0;  // 1-based index of the parent span; 0 = root
  uint32_t round = 0;
  uint64_t start_ns = 0;
  uint64_t end_ns = 0;
  // Flush/merge/bulkload spans: entries and bytes of the sealed component.
  uint64_t entries = 0;
  uint64_t bytes = 0;
};

class Tracer {
 public:
  Tracer() = default;
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  // Recording is off unless enabled; Begin/End are then no-ops returning 0.
  // Flipped between rounds, while no background work runs; atomic because
  // scheduler workers read it.
  void set_enabled(bool enabled) { enabled_.store(enabled); }
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }
  void set_round(uint32_t round) { round_.store(round); }

  uint32_t Begin(SpanKind kind) {
    if (!enabled()) return 0;
    Span span;
    span.kind = kind;
    span.parent = current_;
    span.round = round_.load(std::memory_order_relaxed);
    span.start_ns = NowNs();
    std::lock_guard<std::mutex> lock(mu_);
    spans_.push_back(span);
    const auto id = static_cast<uint32_t>(spans_.size());
    current_ = id;
    return id;
  }

  void End(uint32_t id, uint64_t entries = 0, uint64_t bytes = 0) {
    if (id == 0) return;
    const uint64_t now = NowNs();
    std::lock_guard<std::mutex> lock(mu_);
    Span& span = spans_[id - 1];
    span.end_ns = now;
    span.entries = entries;
    span.bytes = bytes;
    current_ = span.parent;
  }

  // Snapshot of every span recorded so far.
  std::vector<Span> Spans() const {
    std::lock_guard<std::mutex> lock(mu_);
    return spans_;
  }

  // Writes one CSV row per span: id,parent,round,name,start_ns,end_ns,
  // entries,bytes. Returns false if the file cannot be written.
  bool WriteCsv(const std::string& path) const {
    std::FILE* out = std::fopen(path.c_str(), "w");
    if (out == nullptr) return false;
    std::fprintf(out, "id,parent,round,name,start_ns,end_ns,entries,bytes\n");
    std::lock_guard<std::mutex> lock(mu_);
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::fprintf(out, "%zu,%u,%u,%s,%llu,%llu,%llu,%llu\n", i + 1, s.parent,
                   s.round, SpanName(s.kind),
                   static_cast<unsigned long long>(s.start_ns),
                   static_cast<unsigned long long>(s.end_ns),
                   static_cast<unsigned long long>(s.entries),
                   static_cast<unsigned long long>(s.bytes));
    }
    return std::fclose(out) == 0;
  }

 private:
  std::atomic<bool> enabled_{false};
  std::atomic<uint32_t> round_{0};
  mutable std::mutex mu_;
  std::vector<Span> spans_;
  // The innermost open span of the calling thread.
  static thread_local uint32_t current_;
};

inline thread_local uint32_t Tracer::current_ = 0;

// Opens a span for one flush/merge/bulkload and closes it when the component
// is sealed (or when the engine drops the observer without sealing).
class SpanListener : public lsmstats::LsmEventListener {
 public:
  explicit SpanListener(Tracer* tracer) : tracer_(tracer) {}

  std::unique_ptr<lsmstats::ComponentWriteObserver> OnOperationBegin(
      const lsmstats::OperationContext& context) override {
    if (!tracer_->enabled()) return nullptr;
    SpanKind kind = SpanKind::kLsmFlush;
    if (context.op == lsmstats::LsmOperation::kMerge) {
      kind = SpanKind::kLsmMerge;
    } else if (context.op == lsmstats::LsmOperation::kBulkload) {
      kind = SpanKind::kLsmBulkload;
    }
    return std::make_unique<Observer>(tracer_, tracer_->Begin(kind));
  }

 private:
  class Observer : public lsmstats::ComponentWriteObserver {
   public:
    Observer(Tracer* tracer, uint32_t span) : tracer_(tracer), span_(span) {}
    ~Observer() override { tracer_->End(span_, entries_, 0); }

    void OnEntry(const lsmstats::Entry&) override { ++entries_; }

    void OnComponentSealed(const lsmstats::ComponentMetadata& metadata,
                           const std::vector<uint64_t>&) override {
      tracer_->End(span_, entries_, metadata.file_size);
      span_ = 0;
    }

   private:
    Tracer* tracer_;
    uint32_t span_;
    uint64_t entries_ = 0;
  };

  Tracer* tracer_;
};

}  // namespace perfbench

#endif  // LSMSTATS_PERFBENCH_TRACE_H_
