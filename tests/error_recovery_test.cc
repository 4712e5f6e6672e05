// Error taxonomy, auto-recovery, and graceful degradation: severity
// classification, transient faults healing in the background (including
// simulated ENOSPC), hard faults parking the tree read-only while reads and
// estimates keep serving, the free-space watchdog refusing to start doomed
// flushes/merges/WAL segments, and shutdown interrupting recovery backoff.

#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/env.h"
#include "common/error_taxonomy.h"
#include "db/dataset.h"
#include "lsm/lsm_tree.h"
#include "lsm/scheduler.h"
#include "workload/tweets.h"

namespace lsmstats {
namespace {

// ---------------------------------------------------------- error taxonomy

TEST(ErrorTaxonomy, ClassifiesEveryStatusCode) {
  EXPECT_EQ(ClassifySeverity(Status::OK()), ErrorSeverity::kNone);
  // I/O errors are retryable outages: EIO, ENOSPC, EINTR and friends.
  EXPECT_EQ(ClassifySeverity(Status::IOError("disk full")),
            ErrorSeverity::kTransient);
  // Corruption means data-plane damage: retrying cannot help, reads of the
  // undamaged components still can.
  EXPECT_EQ(ClassifySeverity(Status::Corruption("bad crc")),
            ErrorSeverity::kHard);
  // Everything else on a structural path is a logic invariant violation.
  EXPECT_EQ(ClassifySeverity(Status::InvalidArgument("x")),
            ErrorSeverity::kFatal);
  EXPECT_EQ(ClassifySeverity(Status::NotFound("x")), ErrorSeverity::kFatal);
  EXPECT_EQ(ClassifySeverity(Status::AlreadyExists("x")),
            ErrorSeverity::kFatal);
  EXPECT_EQ(ClassifySeverity(Status::FailedPrecondition("x")),
            ErrorSeverity::kFatal);
  EXPECT_EQ(ClassifySeverity(Status::OutOfRange("x")), ErrorSeverity::kFatal);
  EXPECT_EQ(ClassifySeverity(Status::Unimplemented("x")),
            ErrorSeverity::kFatal);
  EXPECT_EQ(ClassifySeverity(Status::Internal("x")), ErrorSeverity::kFatal);
}

TEST(ErrorTaxonomy, SeverityOrdersByBadness) {
  // Escalation logic compares severities directly; the enum order is API.
  EXPECT_LT(ErrorSeverity::kNone, ErrorSeverity::kTransient);
  EXPECT_LT(ErrorSeverity::kTransient, ErrorSeverity::kHard);
  EXPECT_LT(ErrorSeverity::kHard, ErrorSeverity::kFatal);
}

TEST(ErrorTaxonomy, SeverityNames) {
  EXPECT_STREQ(ErrorSeverityToString(ErrorSeverity::kNone), "none");
  EXPECT_STREQ(ErrorSeverityToString(ErrorSeverity::kTransient), "transient");
  EXPECT_STREQ(ErrorSeverityToString(ErrorSeverity::kHard), "hard");
  EXPECT_STREQ(ErrorSeverityToString(ErrorSeverity::kFatal), "fatal");
}

TEST(ErrorTaxonomy, PosixFreeSpaceProbeAnswers) {
  auto free = Env::Default()->GetFreeSpace("/tmp");
  ASSERT_TRUE(free.ok()) << free.status().ToString();
  EXPECT_GT(*free, 0u);
  EXPECT_FALSE(Env::Default()->GetFreeSpace("/nonexistent-path-xyz").ok());
}

// -------------------------------------------------------------- fixtures

class ErrorRecoveryTest : public ::testing::Test {
 protected:
  void SetUp() override {
    char tmpl[] = "/tmp/lsmstats_recovery_XXXXXX";
    dir_ = ::mkdtemp(tmpl);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  // Baseline options: big memtable so flushes only happen when a test asks;
  // the WAL is off, so injected write faults hit the component seal.
  LsmTreeOptions BaseOptions(FaultInjectionEnv* env) {
    LsmTreeOptions options;
    options.directory = dir_;
    options.name = "t";
    options.memtable_max_entries = 100;
    options.env = env;
    return options;
  }

  // Waits (bounded) until the tree has left kHealthy.
  static void WaitUntilDegraded(LsmTree* tree) {
    for (int i = 0; i < 5000; ++i) {
      if (tree->Health().mode != TreeMode::kHealthy) return;
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    FAIL() << "tree never left kHealthy";
  }

  std::string dir_;
};

// ------------------------------------------------- transient auto-recovery

TEST_F(ErrorRecoveryTest, TransientOutageAutoRecoversWithoutLosingWrites) {
  FaultInjectionEnv env;
  BackgroundScheduler scheduler(2);
  LsmTreeOptions options = BaseOptions(&env);
  options.scheduler = &scheduler;
  options.background_flush_retries = 0;
  options.max_auto_recovery_attempts = 30;
  options.auto_recovery_backoff = std::chrono::milliseconds(1);
  auto tree = LsmTree::Open(options).value();

  for (int64_t k = 0; k < 25; ++k) {
    ASSERT_TRUE(tree->Put(PrimaryKey(k), "v" + std::to_string(k), true).ok());
  }
  // A burst of 12 write failures: long enough to outlast the inline retries
  // and force the recovery manager to carry the flush across several
  // backoff rounds.
  env.FailWritesWith(Status::IOError("injected outage"), 12);
  ASSERT_TRUE(tree->RequestFlush().ok());

  // WaitForBackgroundWork holds the job slot through recovery: it returns OK
  // only once the outage healed and the flush landed.
  ASSERT_TRUE(tree->WaitForBackgroundWork().ok());
  EXPECT_TRUE(tree->BackgroundError().ok());
  HealthSnapshot health = tree->Health();
  EXPECT_EQ(health.mode, TreeMode::kHealthy);
  EXPECT_GE(health.recovery_attempts, 1u);
  EXPECT_GE(health.recoveries_succeeded, 1u);
  EXPECT_EQ(health.last_severity, ErrorSeverity::kTransient);
  EXPECT_GE(env.InjectedFailureCount(), 12u);

  // No acked write lost, and the tree takes new ones.
  EXPECT_EQ(tree->ScanCount(PrimaryKey(0), PrimaryKey(24)).value(), 25u);
  ASSERT_TRUE(tree->Put(PrimaryKey(100), "post-recovery", true).ok());
  ASSERT_TRUE(tree->Flush().ok());
  std::string value;
  EXPECT_TRUE(tree->Get(PrimaryKey(100), &value).ok());
  scheduler.Shutdown();
}

TEST_F(ErrorRecoveryTest, EnospcHealsWhenSpaceReturns) {
  FaultInjectionEnv env;
  BackgroundScheduler scheduler(2);
  LsmTreeOptions options = BaseOptions(&env);
  options.scheduler = &scheduler;
  options.background_flush_retries = 0;
  options.max_auto_recovery_attempts = 1000;
  options.auto_recovery_backoff = std::chrono::milliseconds(2);
  auto tree = LsmTree::Open(options).value();

  for (int64_t k = 0; k < 25; ++k) {
    ASSERT_TRUE(tree->Put(PrimaryKey(k), "v", true).ok());
  }
  // The disk "fills": every append now fails with an injected ENOSPC.
  env.SetFreeSpaceBudget(0);
  ASSERT_TRUE(tree->RequestFlush().ok());
  WaitUntilDegraded(tree.get());
  EXPECT_EQ(tree->Health().last_severity, ErrorSeverity::kTransient);

  // An operator frees space; the scheduled recovery pass finds it and the
  // pinned flush drains without any explicit resume call.
  env.AddFreeSpace(64u << 20);
  ASSERT_TRUE(tree->WaitForBackgroundWork().ok());
  EXPECT_EQ(tree->Health().mode, TreeMode::kHealthy);
  EXPECT_GE(tree->Health().recoveries_succeeded, 1u);
  EXPECT_EQ(tree->ScanCount(PrimaryKey(0), PrimaryKey(24)).value(), 25u);
  scheduler.Shutdown();
}

TEST_F(ErrorRecoveryTest, InlineTransientFlushErrorIsNotSticky) {
  // Without a scheduler a transient structural failure returns to the caller
  // and the tree stays writable — the seed's crash sweeps rely on a failed
  // inline flush being retryable by simply calling again.
  FaultInjectionEnv env;
  auto tree = LsmTree::Open(BaseOptions(&env)).value();
  for (int64_t k = 0; k < 25; ++k) {
    ASSERT_TRUE(tree->Put(PrimaryKey(k), "v", true).ok());
  }
  env.SetFreeSpaceBudget(0);
  Status s = tree->Flush();
  ASSERT_FALSE(s.ok());
  EXPECT_EQ(ClassifySeverity(s), ErrorSeverity::kTransient);
  EXPECT_TRUE(tree->BackgroundError().ok());
  EXPECT_EQ(tree->Health().mode, TreeMode::kHealthy);
  EXPECT_EQ(tree->Health().last_error.code(), StatusCode::kIOError);

  env.ClearFreeSpaceBudget();
  ASSERT_TRUE(tree->Flush().ok());
  EXPECT_EQ(tree->ScanCount(PrimaryKey(0), PrimaryKey(24)).value(), 25u);
}

// ---------------------------------------------------- graceful degradation

TEST_F(ErrorRecoveryTest, HardErrorParksReadOnlyButKeepsServing) {
  FaultInjectionEnv env;
  auto tree = LsmTree::Open(BaseOptions(&env)).value();
  // Two generations of data: one on disk, one still in the memtable when the
  // corruption hits, so degraded reads cover both.
  for (int64_t k = 0; k < 10; ++k) {
    ASSERT_TRUE(tree->Put(PrimaryKey(k), "disk", true).ok());
  }
  ASSERT_TRUE(tree->Flush().ok());
  for (int64_t k = 10; k < 20; ++k) {
    ASSERT_TRUE(tree->Put(PrimaryKey(k), "mem", true).ok());
  }

  env.FailWritesWith(Status::Corruption("injected bit rot"), 1);
  Status died = tree->Flush();
  ASSERT_FALSE(died.ok());
  EXPECT_EQ(died.code(), StatusCode::kCorruption);

  // Degraded: writes fail fast with a descriptive status...
  HealthSnapshot health = tree->Health();
  EXPECT_EQ(health.mode, TreeMode::kReadOnly);
  EXPECT_EQ(health.last_severity, ErrorSeverity::kHard);
  EXPECT_GT(tree->Health().time_in_degraded.count(), -1);
  Status put = tree->Put(PrimaryKey(1000), "x", true);
  ASSERT_FALSE(put.ok());
  EXPECT_NE(put.message().find("read-only"), std::string::npos)
      << put.ToString();
  EXPECT_NE(put.message().find("hard"), std::string::npos) << put.ToString();

  // ...while point reads, scans, and count estimates keep serving, from both
  // the sealed components and the still-pinned memtables.
  std::string value;
  ASSERT_TRUE(tree->Get(PrimaryKey(5), &value).ok());
  EXPECT_EQ(value, "disk");
  ASSERT_TRUE(tree->Get(PrimaryKey(15), &value).ok());
  EXPECT_EQ(value, "mem");
  uint64_t seen = 0;
  ASSERT_TRUE(tree->Scan(PrimaryKey(0), PrimaryKey(19),
                         [&](const EntryView&) { ++seen; })
                  .ok());
  EXPECT_EQ(seen, 20u);
  EXPECT_EQ(tree->ScanCount(PrimaryKey(0), PrimaryKey(19)).value(), 20u);

  // The fault was one-shot; an explicit resume drains the pinned flush and
  // reopens writes. No acked write was lost across the episode.
  ASSERT_TRUE(tree->Resume().ok());
  EXPECT_EQ(tree->Health().mode, TreeMode::kHealthy);
  EXPECT_GE(tree->Health().recoveries_succeeded, 1u);
  ASSERT_TRUE(tree->Put(PrimaryKey(1000), "post-resume", true).ok());
  ASSERT_TRUE(tree->Flush().ok());
  EXPECT_EQ(tree->ScanCount(PrimaryKey(0), PrimaryKey(1000)).value(), 21u);
}

TEST_F(ErrorRecoveryTest, FatalErrorRefusesResume) {
  FaultInjectionEnv env;
  auto tree = LsmTree::Open(BaseOptions(&env)).value();
  for (int64_t k = 0; k < 10; ++k) {
    ASSERT_TRUE(tree->Put(PrimaryKey(k), "v", true).ok());
  }
  env.FailWritesWith(Status::Internal("injected invariant violation"), 1);
  ASSERT_FALSE(tree->Flush().ok());
  EXPECT_EQ(tree->Health().mode, TreeMode::kReadOnly);
  EXPECT_EQ(tree->Health().last_severity, ErrorSeverity::kFatal);

  Status resume = tree->Resume();
  ASSERT_FALSE(resume.ok());
  EXPECT_EQ(resume.code(), StatusCode::kFailedPrecondition);
  EXPECT_NE(resume.message().find("fatal"), std::string::npos);
  // Reads still serve even here.
  std::string value;
  EXPECT_TRUE(tree->Get(PrimaryKey(3), &value).ok());
}

// ------------------------------------------------------ disk-space watchdog

TEST_F(ErrorRecoveryTest, WatchdogStopsFlushBeforeAnyFileAppears) {
  FaultInjectionEnv env;
  LsmTreeOptions options = BaseOptions(&env);
  options.min_free_bytes = 1u << 20;
  auto tree = LsmTree::Open(options).value();
  for (int64_t k = 0; k < 25; ++k) {
    ASSERT_TRUE(tree->Put(PrimaryKey(k), "v", true).ok());
  }

  env.SetFreeSpaceBudget(1000);  // below the 1 MiB floor
  uint64_t ops_before = env.MutatingOpCount();
  Status s = tree->Flush();
  ASSERT_FALSE(s.ok());
  EXPECT_NE(s.message().find("free-space watchdog"), std::string::npos)
      << s.ToString();
  // The watchdog fired BEFORE the flush touched the filesystem: no mutating
  // op ran, so no half-written component or temporary can exist.
  EXPECT_EQ(env.MutatingOpCount(), ops_before);
  std::vector<std::string> names;
  ASSERT_TRUE(env.ListDir(dir_, &names).ok());
  for (const std::string& name : names) {
    EXPECT_EQ(name.find(".tmp"), std::string::npos) << name;
  }

  // Space returns; the same flush now lands.
  env.AddFreeSpace(64u << 20);
  ASSERT_TRUE(tree->Flush().ok());
  EXPECT_EQ(tree->ScanCount(PrimaryKey(0), PrimaryKey(24)).value(), 25u);
}

TEST_F(ErrorRecoveryTest, WatchdogStopsWalSegmentCreation) {
  FaultInjectionEnv env;
  DatasetOptions options;
  options.directory = dir_;
  options.name = "tweets";
  options.schema = TweetSchema(ValueDomain(0, 14));
  options.env = &env;
  options.wal = true;
  options.min_free_bytes = 1u << 20;
  auto dataset = Dataset::Open(options).value();
  Record record;
  record.pk = 1;
  record.fields = {2, 0};

  // Disk "fills" before the first Insert, so the first WAL segment would be
  // born onto a full disk — the probe refuses to create it and the write
  // fails before touching any memtable.
  env.SetFreeSpaceBudget(1000);
  Status insert = dataset->Insert(record);
  ASSERT_FALSE(insert.ok());
  EXPECT_NE(insert.message().find("wal segment creation aborted"),
            std::string::npos)
      << insert.ToString();
  EXPECT_EQ(dataset->Get(1).status().code(), StatusCode::kNotFound);
  std::vector<std::string> names;
  ASSERT_TRUE(env.ListDir(dir_, &names).ok());
  for (const std::string& name : names) {
    EXPECT_EQ(name.find(".wal"), std::string::npos) << name;
  }

  env.ClearFreeSpaceBudget();
  Status retried = dataset->Insert(record);
  ASSERT_TRUE(retried.ok()) << retried.ToString();
  EXPECT_TRUE(dataset->Get(1).ok());
}

// ------------------------------------------------- interruptible recovery

TEST_F(ErrorRecoveryTest, ShutdownInterruptsRecoveryBackoff) {
  FaultInjectionEnv env;
  BackgroundScheduler scheduler(2);
  LsmTreeOptions options = BaseOptions(&env);
  options.scheduler = &scheduler;
  options.background_flush_retries = 0;
  options.max_auto_recovery_attempts = 5;
  // A backoff far longer than the test: teardown must not sit it out.
  options.auto_recovery_backoff = std::chrono::seconds(60);
  auto tree = LsmTree::Open(options).value();
  for (int64_t k = 0; k < 25; ++k) {
    ASSERT_TRUE(tree->Put(PrimaryKey(k), "v", true).ok());
  }
  env.FailWritesWith(Status::IOError("persistent outage"), 1u << 20);
  ASSERT_TRUE(tree->RequestFlush().ok());
  WaitUntilDegraded(tree.get());

  auto start = std::chrono::steady_clock::now();
  tree.reset();  // destructor wakes the recovery job out of its backoff wait
  auto elapsed = std::chrono::steady_clock::now() - start;
  EXPECT_LT(elapsed, std::chrono::seconds(30));
  scheduler.Shutdown();
}

}  // namespace
}  // namespace lsmstats
