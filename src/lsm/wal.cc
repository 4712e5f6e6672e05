#include "lsm/wal.h"

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <thread>
#include <utility>

#include "common/check.h"
#include "common/coding.h"
#include "common/crc32c.h"
#include "common/logging.h"
#include "lsm/write_batch.h"

namespace lsmstats {

namespace {

constexpr char kWalSuffix[] = ".wal";
constexpr size_t kWalSuffixLen = 4;
constexpr size_t kCrcBytes = 4;

// Bounded wait a leader candidate gives re-arriving writers before syncing
// a group smaller than the previous one (see WaitDurable). Sized well under
// a device fsync, so a mispredicted stall costs a fraction of the sync it
// tries to amortize.
constexpr std::chrono::microseconds kGroupCommitStallWindow{100};

// Once the forming group reaches the previous group's size, the stall ends
// after this much time passes with no new arrival (see WaitDurable).
constexpr std::chrono::microseconds kGroupCommitQuietWindow{25};

bool IsAllDigits(std::string_view s) {
  if (s.empty()) return false;
  for (char c : s) {
    if (c < '0' || c > '9') return false;
  }
  return true;
}

// Frames `payload` ([len varint][crc u32][payload]) onto `*out`.
void AppendFramedPayload(const Encoder& payload, std::string* out) {
  Encoder header;
  header.PutVarint64(payload.size());
  header.PutU32(crc32c::Value(payload.buffer()));
  out->append(header.buffer());
  out->append(payload.buffer());
}

// Smallest batch entry: tree_id varint, op u8, k0/k1/k2 i64, empty value.
constexpr size_t kMinBatchEntryBytes = 1 + 1 + 3 * 8 + 1;

void PutRecordFields(Encoder* payload, WalOp op, const LsmKey& key,
                     std::string_view value) {
  payload->PutU8(static_cast<uint8_t>(op));
  payload->PutI64(key.k0);
  payload->PutI64(key.k1);
  payload->PutI64(key.k2);
  payload->PutString(value);
}

bool IsRecordOp(uint8_t op_byte) {
  return op_byte >= static_cast<uint8_t>(WalOp::kPut) &&
         op_byte <= static_cast<uint8_t>(WalOp::kAntiMatter);
}

}  // namespace

const char* WalSyncModeToString(WalSyncMode mode) {
  switch (mode) {
    case WalSyncMode::kNone:
      return "none";
    case WalSyncMode::kFlushOnly:
      return "flush-only";
    case WalSyncMode::kEveryRecord:
      return "every-record";
  }
  return "unknown";
}

StatusOr<WalSyncMode> WalSyncModeFromString(std::string_view s) {
  if (s == "none") return WalSyncMode::kNone;
  if (s == "flush-only") return WalSyncMode::kFlushOnly;
  if (s == "every-record") return WalSyncMode::kEveryRecord;
  return Status::InvalidArgument(
      "unknown wal sync mode \"" + std::string(s) +
      "\" (expected none, flush-only, or every-record)");
}

std::string WalFilePath(const std::string& directory,
                        const std::string& prefix, uint64_t sequence) {
  return directory + "/" + prefix + "_" + std::to_string(sequence) +
         kWalSuffix;
}

// ---------------------------------------------------------------- encoding

void EncodeWalRecordFrame(WalOp op, const LsmKey& key, std::string_view value,
                          std::string* out) {
  Encoder payload;
  PutRecordFields(&payload, op, key, value);
  AppendFramedPayload(payload, out);
}

void EncodeWalBatchFrame(const WriteBatch& batch, std::string* out) {
  Encoder payload;
  payload.PutU8(kWalBatchFrameTag);
  payload.PutVarint64(batch.size());
  for (const WriteBatchEntry& entry : batch.entries()) {
    payload.PutVarint64(entry.tree_id);
    PutRecordFields(&payload, entry.op, entry.key, entry.value);
  }
  AppendFramedPayload(payload, out);
}

// ------------------------------------------------------------------ writer

StatusOr<std::unique_ptr<WalSegmentWriter>> WalSegmentWriter::Create(
    Env* env, std::string path) {
  auto file = env->NewWritableFile(path);
  LSMSTATS_RETURN_IF_ERROR(file.status());
  return std::unique_ptr<WalSegmentWriter>(
      new WalSegmentWriter(std::move(file).value(), std::move(path)));
}

Status WalSegmentWriter::Append(WalOp op, const LsmKey& key,
                                std::string_view value) {
  std::string bytes;
  EncodeWalRecordFrame(op, key, value, &bytes);
  return AppendFrames(bytes, 1);
}

Status WalSegmentWriter::AppendFrames(std::string_view frames,
                                      uint64_t record_count) {
  LSMSTATS_RETURN_IF_ERROR(file_->Append(frames));
  records_ += record_count;
  return Status::OK();
}

Status WalSegmentWriter::Sync() { return file_->Sync(); }

Status WalSegmentWriter::Close() { return file_->Close(); }

// ----------------------------------------------------------------- WalLog

WalLog::WalLog(WalLogOptions options)
    : options_(std::move(options)),
      every_record_(options_.sync_mode == WalSyncMode::kEveryRecord),
      next_sequence_(options_.next_sequence) {}

WalLog::~WalLog() {
  MutexLock lock(&mu_);
  // Destruction implies no concurrent writers, so no leader can be mid-sync.
  if (writer_ == nullptr) return;
  if (!pending_.empty()) {
    Status flush = writer_->AppendFrames(pending_, pending_records_);
    if (!flush.ok()) {
      LSMSTATS_LOG(kWarning) << options_.prefix
                             << ": flushing buffered wal frames on shutdown "
                                "failed: " << flush.message();
    }
  }
  Status close = writer_->Close();
  if (!close.ok()) {
    LSMSTATS_LOG(kWarning) << options_.prefix << ": closing wal segment "
                           << writer_->path()
                           << " failed: " << close.message();
  }
}

Status WalLog::EnsureWriterLocked() {
  if (writer_ != nullptr) return Status::OK();
  if (options_.min_free_bytes > 0) {
    auto free = options_.env->GetFreeSpace(options_.directory);
    // A failed probe must not block the log: only a successful answer below
    // the floor counts as "disk full".
    if (free.ok() && *free < options_.min_free_bytes) {
      return Status::IOError(
          "wal segment creation aborted: " + std::to_string(*free) +
          " bytes free in " + options_.directory + ", need " +
          std::to_string(options_.min_free_bytes));
    }
  }
  auto writer = WalSegmentWriter::Create(
      options_.env,
      WalFilePath(options_.directory, options_.prefix, next_sequence_));
  LSMSTATS_RETURN_IF_ERROR(writer.status());
  if (options_.sync_mode != WalSyncMode::kNone) {
    // Make the segment's directory entry durable before any record in it can
    // be acknowledged; otherwise a power loss could drop the whole file out
    // from under records the sync mode promised to keep.
    LSMSTATS_RETURN_IF_ERROR(options_.env->SyncDir(options_.directory));
  }
  writer_ = std::move(writer).value();
  ++next_sequence_;
  return Status::OK();
}

StatusOr<uint64_t> WalLog::AppendFrameLocked(std::string frame,
                                             uint64_t record_count) {
  // A leader failure left frame durability unknown; appending above the
  // hole would let a later ack imply an earlier, lost record. (Only ever set
  // under kEveryRecord.)
  LSMSTATS_RETURN_IF_ERROR(commit_error_);
  LSMSTATS_RETURN_IF_ERROR(EnsureWriterLocked());
  if (every_record_) {
    pending_.append(frame);
    pending_records_ += record_count;
    records_ += record_count;
    return ++appended_seq_;
  }
  LSMSTATS_RETURN_IF_ERROR(writer_->AppendFrames(frame, record_count));
  records_ += record_count;
  durable_seq_ = ++appended_seq_;
  return appended_seq_;
}

StatusOr<uint64_t> WalLog::Append(WalOp op, const LsmKey& key,
                                  std::string_view value) {
  std::string frame;
  EncodeWalRecordFrame(op, key, value, &frame);
  MutexLock lock(&mu_);
  return AppendFrameLocked(std::move(frame), 1);
}

StatusOr<uint64_t> WalLog::AppendBatch(const WriteBatch& batch) {
  if (batch.empty()) return uint64_t{0};
  std::string frame;
  EncodeWalBatchFrame(batch, &frame);
  MutexLock lock(&mu_);
  return AppendFrameLocked(std::move(frame), batch.size());
}

void WalLog::LeadCommitLocked() {
  sync_in_progress_ = true;
  std::string batch = std::move(pending_);
  pending_.clear();
  const uint64_t batch_records = pending_records_;
  pending_records_ = 0;
  last_group_records_ = batch_records;
  const uint64_t target = appended_seq_;
  // Non-null: an undurable ticket implies an appended frame, and Seal()
  // (the only reset) first waits for !sync_in_progress_ and publishes
  // durable_seq_ = appended_seq_ before releasing the writer.
  WalSegmentWriter* writer = writer_.get();
  // The sync_in_progress_ flag gives this thread exclusive use of the
  // segment file; followers keep buffering into pending_ under mu_.
  mu_.Unlock();
  Status s = writer->AppendFrames(batch, batch_records);
  bool attempted_sync = false;
  if (s.ok()) {
    attempted_sync = true;
    s = writer->Sync();
  }
  mu_.Lock();
  if (attempted_sync) ++syncs_;
  sync_in_progress_ = false;
  if (s.ok()) {
    if (target > durable_seq_) durable_seq_ = target;
  } else if (commit_error_.ok()) {
    commit_error_ = s;
  }
  cv_.NotifyAll();
}

Status WalLog::WaitDurable(uint64_t ticket) {
  if (ticket == 0 || !every_record_) return Status::OK();
  MutexLock lock(&mu_);
  bool stalled = false;
  while (true) {
    if (durable_seq_ >= ticket) return Status::OK();
    if (!commit_error_.ok()) return commit_error_;
    if (sync_in_progress_) {
      cv_.Wait(&mu_);
      continue;
    }
    // Leader stall (cf. Postgres commit_delay): if the group about to be
    // synced is smaller than the one that just committed, the missing
    // writers are almost certainly re-arriving — they were all released
    // together and are only a memtable apply behind. Spin one bounded
    // window for them to land before spending an fsync on a fraction of a
    // group. A spin (not a CondVar wait) because reacting to the group
    // filling is the commit critical path; a sleep would add a wakeup
    // latency comparable to the fsync being saved. The window ends when the
    // group has reached the previous size AND stopped growing for a quiet
    // interval — the quiet check lets the group overshoot the hint, so a
    // writer pool larger than the last group is re-captured whole instead
    // of equilibrating at the hint. One window per WaitDurable call, so a
    // shrinking pool pays the deadline at most once before the hint decays.
    if (!stalled && pending_records_ < last_group_records_) {
      stalled = true;
      const auto start = std::chrono::steady_clock::now();
      const auto deadline = start + kGroupCommitStallWindow;
      auto last_growth = start;
      uint64_t seen = pending_records_;
      while (!sync_in_progress_ && durable_seq_ < ticket &&
             commit_error_.ok()) {
        const auto now = std::chrono::steady_clock::now();
        if (now >= deadline) break;
        if (pending_records_ != seen) {
          seen = pending_records_;
          last_growth = now;
        } else if (seen >= last_group_records_ &&
                   now - last_growth >= kGroupCommitQuietWindow) {
          break;
        }
        mu_.Unlock();
        std::this_thread::yield();
        mu_.Lock();
      }
      continue;
    }
    LeadCommitLocked();
  }
}

StatusOr<std::optional<std::string>> WalLog::Seal() {
  MutexLock lock(&mu_);
  cv_.Wait(&mu_, [this]() REQUIRES(mu_) { return !sync_in_progress_; });
  if (writer_ == nullptr) return std::optional<std::string>();
  const bool had_pending = !pending_.empty();
  if (had_pending) {
    Status flush = writer_->AppendFrames(pending_, pending_records_);
    if (!flush.ok()) {
      // pending_ is kept so a retried Seal (or the next leader) can still
      // commit the frames; a duplicated partial append replays idempotently.
      if (every_record_ && commit_error_.ok()) commit_error_ = flush;
      cv_.NotifyAll();
      return flush;
    }
    pending_.clear();
    pending_records_ = 0;
  }
  // kFlushOnly's durability point is the seal; under kEveryRecord any frame
  // flushed just now was promised durability before its ack.
  if (options_.sync_mode == WalSyncMode::kFlushOnly ||
      (every_record_ && had_pending)) {
    ++syncs_;
    Status sync = writer_->Sync();
    if (!sync.ok()) {
      if (every_record_ && commit_error_.ok()) commit_error_ = sync;
      cv_.NotifyAll();
      return sync;
    }
  }
  durable_seq_ = appended_seq_;
  LSMSTATS_RETURN_IF_ERROR(writer_->Close());
  std::string path = writer_->path();
  writer_.reset();
  cv_.NotifyAll();
  return std::optional<std::string>(std::move(path));
}

uint64_t WalLog::sync_count() const {
  MutexLock lock(&mu_);
  return syncs_;
}

uint64_t WalLog::records_appended() const {
  MutexLock lock(&mu_);
  return records_;
}

// ------------------------------------------------------------------ replay

namespace {

struct DecodedWalEntry {
  uint32_t tree_id = 0;
  WalOp op = WalOp::kPut;
  LsmKey key;
  std::string value;
};

bool DecodeRecordFields(Decoder* dec, uint8_t op_byte, uint32_t tree_id,
                        DecodedWalEntry* out) {
  if (!IsRecordOp(op_byte)) return false;
  out->tree_id = tree_id;
  out->op = static_cast<WalOp>(op_byte);
  Status decode = dec->GetI64(&out->key.k0);
  if (decode.ok()) decode = dec->GetI64(&out->key.k1);
  if (decode.ok()) decode = dec->GetI64(&out->key.k2);
  if (decode.ok()) decode = dec->GetString(&out->value);
  return decode.ok();
}

// Decodes a whole frame payload into `*entries` (one entry for a
// single-record payload, all of them for a batch payload). Returning false
// means the payload is corrupt; nothing is applied from it.
bool DecodeWalPayload(std::string_view payload,
                      std::vector<DecodedWalEntry>* entries) {
  Decoder dec(payload);
  uint8_t op_byte = 0;
  if (!dec.GetU8(&op_byte).ok()) return false;
  if (op_byte == kWalBatchFrameTag) {
    uint64_t count = 0;
    if (!dec.GetVarint64(&count).ok()) return false;
    if (count > dec.remaining() / kMinBatchEntryBytes) return false;
    entries->reserve(static_cast<size_t>(count));
    for (uint64_t i = 0; i < count; ++i) {
      uint64_t tree_id = 0;
      uint8_t entry_op = 0;
      if (!dec.GetVarint64(&tree_id).ok() || !dec.GetU8(&entry_op).ok()) {
        return false;
      }
      if (tree_id > std::numeric_limits<uint32_t>::max()) return false;
      DecodedWalEntry entry;
      if (!DecodeRecordFields(&dec, entry_op,
                              static_cast<uint32_t>(tree_id), &entry)) {
        return false;
      }
      entries->push_back(std::move(entry));
    }
    return dec.Done();
  }
  DecodedWalEntry entry;
  if (!DecodeRecordFields(&dec, op_byte, /*tree_id=*/0, &entry)) return false;
  if (!dec.Done()) return false;
  entries->push_back(std::move(entry));
  return true;
}

}  // namespace

StatusOr<WalSegmentReplayResult> ReplayWalSegment(Env* env,
                                                  const std::string& path,
                                                  const WalReplayFn& apply) {
  auto file = env->NewRandomAccessFile(path);
  LSMSTATS_RETURN_IF_ERROR(file.status());
  const uint64_t size = (*file)->size();
  std::string data;
  LSMSTATS_RETURN_IF_ERROR(
      (*file)->Read(0, static_cast<size_t>(size), &data));

  WalSegmentReplayResult result;
  uint64_t pos = 0;
  while (pos < data.size()) {
    const uint64_t frame_start = pos;
    // Frame length varint, decoded by hand so an incomplete final byte run
    // (torn) is distinguishable from a malformed one (corrupt).
    uint64_t payload_len = 0;
    uint64_t p = pos;
    int shift = 0;
    bool complete = false;
    bool malformed = false;
    while (p < data.size() && shift <= 63) {
      const uint8_t byte = static_cast<uint8_t>(data[p++]);
      if (shift == 63 && (byte & 0x7e) != 0) {
        malformed = true;
        break;
      }
      payload_len |= static_cast<uint64_t>(byte & 0x7f) << shift;
      if ((byte & 0x80) == 0) {
        complete = true;
        break;
      }
      shift += 7;
    }
    if (malformed || (!complete && p < data.size())) {
      result.tail = WalTail::kCorrupt;
      result.valid_bytes = frame_start;
      return result;
    }
    if (!complete || data.size() - p < kCrcBytes ||
        payload_len > data.size() - p - kCrcBytes) {
      // The frame extends past EOF: an append that never finished.
      result.tail = WalTail::kTorn;
      result.valid_bytes = frame_start;
      return result;
    }
    uint32_t expected_crc;
    std::memcpy(&expected_crc, data.data() + p, kCrcBytes);
    const std::string_view payload(data.data() + p + kCrcBytes,
                                   static_cast<size_t>(payload_len));
    if (crc32c::Value(payload) != expected_crc) {
      result.tail = WalTail::kCorrupt;
      result.valid_bytes = frame_start;
      return result;
    }
    // Decode the entire frame before applying any record from it: this is
    // what makes a batch frame atomic under replay.
    std::vector<DecodedWalEntry> entries;
    if (!DecodeWalPayload(payload, &entries)) {
      // The CRC matched but the payload is not a record we understand: the
      // frame was written corrupt (or by a future format), not torn.
      result.tail = WalTail::kCorrupt;
      result.valid_bytes = frame_start;
      return result;
    }
    for (const DecodedWalEntry& entry : entries) {
      apply(entry.tree_id, entry.op, entry.key, entry.value);
    }
    result.records_applied += entries.size();
    pos = p + kCrcBytes + payload_len;
    result.valid_bytes = pos;
  }
  result.tail = WalTail::kClean;
  result.valid_bytes = data.size();
  return result;
}

StatusOr<WalRecoveryResult> RecoverWalSegments(Env* env,
                                               const std::string& directory,
                                               const std::string& prefix,
                                               bool quarantine_corrupt,
                                               const WalReplayFn& apply) {
  WalRecoveryResult result;
  std::vector<std::string> names;
  LSMSTATS_RETURN_IF_ERROR(env->ListDir(directory, &names));
  const std::string name_prefix = prefix + "_";
  std::vector<std::pair<uint64_t, std::string>> segments;  // (seq, path)
  for (const std::string& filename : names) {
    if (filename.rfind(name_prefix, 0) != 0) continue;
    if (filename.size() <= name_prefix.size() + kWalSuffixLen ||
        filename.substr(filename.size() - kWalSuffixLen) != kWalSuffix) {
      continue;
    }
    const std::string id_text = filename.substr(
        name_prefix.size(),
        filename.size() - name_prefix.size() - kWalSuffixLen);
    if (!IsAllDigits(id_text)) continue;  // foreign file
    segments.emplace_back(std::strtoull(id_text.c_str(), nullptr, 10),
                          directory + "/" + filename);
  }
  std::sort(segments.begin(), segments.end());  // oldest first
  if (!segments.empty()) result.next_sequence = segments.back().first + 1;

  bool mutated = false;
  for (size_t i = 0; i < segments.size(); ++i) {
    const std::string& path = segments[i].second;
    auto replay = ReplayWalSegment(env, path, apply);
    LSMSTATS_RETURN_IF_ERROR(replay.status());
    result.records_applied += replay->records_applied;
    const bool final_segment = i + 1 == segments.size();
    if (replay->tail == WalTail::kClean ||
        (replay->tail == WalTail::kTorn && final_segment)) {
      if (replay->tail == WalTail::kTorn) {
        LSMSTATS_LOG(kWarning)
            << prefix << ": wal segment " << path
            << " has a torn tail; truncating to " << replay->valid_bytes
            << " bytes (" << replay->records_applied << " whole records)";
        LSMSTATS_RETURN_IF_ERROR(
            env->TruncateFile(path, replay->valid_bytes));
        result.truncated_torn_tail = true;
        mutated = true;
      }
      if (replay->records_applied == 0) {
        // An empty segment backs no records; removing it now keeps flushes
        // from tracking files that will never be replayed.
        LSMSTATS_RETURN_IF_ERROR(env->RemoveFileIfExists(path));
        mutated = true;
      } else {
        result.live_segments.push_back(path);
      }
      continue;
    }
    // Mid-log corruption, or a tear in a segment that is not the newest:
    // records after the damage are lost, so keeping any newer segment would
    // replay newer writes above a hole — the same resurrection hazard as a
    // missing component. Quarantine the damaged segment and everything newer.
    const std::string reason = replay->tail == WalTail::kTorn
                                   ? "torn before newer segments"
                                   : "failed checksum or decode";
    if (!quarantine_corrupt) {
      return Status::Corruption("wal segment " + path + " " + reason);
    }
    LSMSTATS_LOG(kError) << prefix << ": wal segment " << path << " "
                         << reason
                         << "; quarantining it and all newer segments";
    for (size_t j = i; j < segments.size(); ++j) {
      const std::string& victim = segments[j].second;
      if (!env->FileExists(victim)) continue;
      LSMSTATS_RETURN_IF_ERROR(
          env->RenameFile(victim, victim + ".quarantine"));
      result.quarantined_files.push_back(victim + ".quarantine");
      mutated = true;
    }
    break;
  }
  if (mutated) {
    LSMSTATS_RETURN_IF_ERROR(env->SyncDir(directory));
  }
  return result;
}

Status DeleteWalSegments(Env* env, const std::vector<std::string>& segments) {
  for (const std::string& segment : segments) {
    LSMSTATS_RETURN_IF_ERROR(env->RemoveFileIfExists(segment));
  }
  return Status::OK();
}

}  // namespace lsmstats
