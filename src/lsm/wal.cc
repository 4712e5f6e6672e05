#include "lsm/wal.h"

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <tuple>
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
    : options_(std::move(options)), next_sequence_(options_.next_sequence) {}

WalLog::~WalLog() {
  MutexLock lock(&mu_);
  if (writer_ == nullptr) return;
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

Status WalLog::AppendBatch(const WriteBatch& batch) {
  if (batch.empty()) return Status::OK();
  std::string frame;
  EncodeWalBatchFrame(batch, &frame);
  MutexLock lock(&mu_);
  // Sticky: after a failed every-record write or fsync, acking this frame
  // could imply the earlier one, whose on-disk state is unknown.
  LSMSTATS_RETURN_IF_ERROR(commit_error_);
  LSMSTATS_RETURN_IF_ERROR(EnsureWriterLocked());
  Status s = writer_->AppendFrames(frame, batch.size());
  if (s.ok()) records_ += batch.size();
  if (options_.sync_mode != WalSyncMode::kEveryRecord) return s;
  if (s.ok()) {
    ++syncs_;
    s = writer_->Sync();
  }
  if (!s.ok()) commit_error_ = s;
  return s;
}

StatusOr<std::optional<std::string>> WalLog::Seal() {
  MutexLock lock(&mu_);
  if (writer_ == nullptr) return std::optional<std::string>();
  // kFlushOnly's durability point is the seal; every-record frames were
  // synced as they were appended.
  if (options_.sync_mode == WalSyncMode::kFlushOnly) {
    ++syncs_;
    LSMSTATS_RETURN_IF_ERROR(writer_->Sync());
  }
  LSMSTATS_RETURN_IF_ERROR(writer_->Close());
  std::string path = writer_->path();
  writer_.reset();
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

std::vector<WalSegmentFile> FindWalSegments(
    const std::vector<std::string>& names, const std::string& directory,
    const std::string& prefix) {
  const std::string name_prefix = prefix + "_";
  std::vector<WalSegmentFile> segments;
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
    segments.push_back(WalSegmentFile{
        std::strtoull(id_text.c_str(), nullptr, 10),
        directory + "/" + filename});
  }
  std::sort(segments.begin(), segments.end(),
            [](const WalSegmentFile& a, const WalSegmentFile& b) {
              return std::tie(a.sequence, a.path) <
                     std::tie(b.sequence, b.path);
            });
  return segments;
}

StatusOr<WalRecoveryResult> RecoverWalSegments(Env* env,
                                               const std::string& directory,
                                               const std::string& prefix,
                                               const WalReplayFn& apply) {
  WalRecoveryResult result;
  std::vector<std::string> names;
  LSMSTATS_RETURN_IF_ERROR(env->ListDir(directory, &names));
  const std::vector<WalSegmentFile> segments =
      FindWalSegments(names, directory, prefix);
  if (!segments.empty()) result.next_sequence = segments.back().sequence + 1;

  bool mutated = false;
  for (size_t i = 0; i < segments.size(); ++i) {
    const std::string& path = segments[i].path;
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
    LSMSTATS_LOG(kError) << prefix << ": wal segment " << path << " "
                         << reason
                         << "; quarantining it and all newer segments";
    for (size_t j = i; j < segments.size(); ++j) {
      const std::string& victim = segments[j].path;
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
