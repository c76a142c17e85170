// Tests for the runtime lock-rank checker in common/mutex.h.
//
// The checker is the dynamic half of the locking discipline: Clang's
// -Wthread-safety proves *which lock* guards each field at compile
// time, and the rank checker proves *in which order* locks are taken
// at run time (DESIGN.md §10). Inversions abort, so the violation
// cases here are death tests.

#include "common/mutex.h"

#include <gtest/gtest.h>

namespace dbpl {
namespace {

#if DBPL_LOCK_RANK_CHECKS
constexpr bool kRankChecksOn = true;
#else
constexpr bool kRankChecksOn = false;
#endif

TEST(LockRankTest, OrderedAcquisitionIsAllowed) {
  Mutex writer(LockRank::kShardWriter, "test.writer");
  Mutex state(LockRank::kState, "test.state");
  // shard writer (30) < state publication (60): the Publish order.
  writer.Lock();
  state.Lock();
  state.Unlock();
  writer.Unlock();
}

TEST(LockRankTest, ServeIsTheOutermostRank) {
  // serve.mu_ (5) sits below the entire database stack: an event loop
  // that takes its inbox and then executes a request (which reaches
  // shard writer, lane, status, ...) follows the table. Note the
  // server never actually holds mu_ across execution — the rank only
  // proves that even if the inbox handoff and the first database lock
  // overlapped, the order would still be sound.
  Mutex serve(LockRank::kServe, "test.serve");
  Mutex writer(LockRank::kShardWriter, "test.writer");
  Mutex status(LockRank::kWalStatus, "test.status");
  MutexLock l0(&serve);
  MutexLock l1(&writer);
  MutexLock l2(&status);
}

TEST(LockRankDeathTest, ServeUnderDatabaseLockAborts) {
  if (!kRankChecksOn) GTEST_SKIP() << "built with DBPL_LOCK_RANKS=OFF";
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  // The forbidden shape: calling back into the server's inboxes
  // from inside the database write path (e.g. a write observer trying
  // to broadcast to sessions) would take 5 under 30.
  Mutex serve(LockRank::kServe, "test.serve");
  Mutex writer(LockRank::kShardWriter, "test.writer");
  EXPECT_DEATH(
      {
        MutexLock l0(&writer);
        MutexLock l1(&serve);
      },
      "lock-rank violation.*test\\.serve.*rank 5.*test\\.writer.*rank 30");
}

TEST(LockRankTest, FullTableInOrderIsAllowed) {
  // Every rank in ascending order — the widest legal stack.
  Mutex serve(LockRank::kServe, "test.serve");
  Mutex replica(LockRank::kReplica, "test.replica");
  Mutex meta(LockRank::kWalMeta, "test.meta");
  Mutex writer(LockRank::kShardWriter, "test.writer");
  Mutex sync(LockRank::kGroupCommit, "test.sync");
  Mutex lane(LockRank::kWalLane, "test.lane");
  Mutex state(LockRank::kState, "test.state");
  Mutex status(LockRank::kWalStatus, "test.status");
  MutexLock l0(&serve);
  MutexLock l1(&replica);
  MutexLock l2(&meta);
  MutexLock l3(&writer);
  MutexLock l4(&sync);
  MutexLock l5(&lane);
  MutexLock l6(&state);
  MutexLock l7(&status);
}

TEST(LockRankTest, ClusteredRanksMayBeHeldTogether) {
  // Shard writer mutexes are acquired as a set (in index order) by
  // RegisterExtent and SetWriteObserver; equal-rank re-acquisition is
  // legal for clustered ranks.
  ASSERT_TRUE(LockRankClusters(LockRank::kShardWriter));
  ASSERT_TRUE(LockRankClusters(LockRank::kWalLane));
  Mutex w0(LockRank::kShardWriter, "test.writer0");
  Mutex w1(LockRank::kShardWriter, "test.writer1");
  MutexLock l0(&w0);
  MutexLock l1(&w1);
}

TEST(LockRankTest, UnrankedMutexesAreExempt) {
  // Default-constructed mutexes opt out of rank checking entirely;
  // they may interleave with ranked ones in any order.
  Mutex plain;
  Mutex state(LockRank::kState, "test.state");
  MutexLock l0(&state);
  MutexLock l1(&plain);
}

TEST(LockRankTest, ReleaseAndReacquireLowerIsAllowed) {
  // Dropping back to an empty stack resets the watermark: the order
  // constraint is on *held* locks, not on history.
  Mutex writer(LockRank::kShardWriter, "test.writer");
  Mutex state(LockRank::kState, "test.state");
  { MutexLock lock(&state); }
  { MutexLock lock(&writer); }
}

TEST(LockRankDeathTest, InversionAborts) {
  if (!kRankChecksOn) GTEST_SKIP() << "built with DBPL_LOCK_RANKS=OFF";
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  // state publication (60) then shard writer (30) — the classic
  // deadlock shape the table exists to forbid.
  Mutex writer(LockRank::kShardWriter, "test.writer");
  Mutex state(LockRank::kState, "test.state");
  EXPECT_DEATH(
      {
        MutexLock l0(&state);
        MutexLock l1(&writer);
      },
      "lock-rank violation.*test\\.writer.*rank 30.*test\\.state.*rank 60");
}

TEST(LockRankDeathTest, EqualRankWithoutClusteringAborts) {
  if (!kRankChecksOn) GTEST_SKIP() << "built with DBPL_LOCK_RANKS=OFF";
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  // kState does not cluster: two state mutexes held together is a
  // latent deadlock (no defined order between them).
  Mutex s0(LockRank::kState, "test.state0");
  Mutex s1(LockRank::kState, "test.state1");
  EXPECT_DEATH(
      {
        MutexLock l0(&s0);
        MutexLock l1(&s1);
      },
      "lock-rank violation");
}

TEST(LockRankDeathTest, CondVarWaitKeepsStackBalanced) {
  // CondVar::WaitFor unlocks and relocks through Mutex::unlock/lock,
  // so the rank bookkeeping must survive a wait: afterwards the same
  // higher rank can still be taken, and an inversion still aborts.
  Mutex sync(LockRank::kGroupCommit, "test.sync");
  Mutex status(LockRank::kWalStatus, "test.status");
  CondVar cv;
  sync.Lock();
  (void)cv.WaitFor(sync, std::chrono::milliseconds(1));
  { MutexLock lock(&status); }  // 40 -> 70: still legal after the wait
  sync.Unlock();
  if (!kRankChecksOn) GTEST_SKIP() << "built with DBPL_LOCK_RANKS=OFF";
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(
      {
        Mutex sync2(LockRank::kGroupCommit, "test.sync2");
        Mutex status2(LockRank::kWalStatus, "test.status2");
        CondVar cv2;
        status2.Lock();
        (void)cv2.WaitFor(status2, std::chrono::milliseconds(1));
        sync2.Lock();  // 70 held, taking 40: inversion
      },
      "lock-rank violation");
}

#if DBPL_LOCK_RANK_CHECKS
TEST(LockRankDeathTest, ReleasingAnUnheldRankAborts) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  // Exercise the bookkeeping directly (unlocking a real std::mutex the
  // thread does not hold would be UB before the checker could speak).
  EXPECT_DEATH(internal::RankCheckRelease(LockRank::kState),
               "releasing rank 60 that this thread does not hold");
}
#endif

TEST(LockRankTest, SeqLockWriteSideParticipatesInRanking) {
  // The registration seqlock write side ranks at 55: above the shard
  // writers (30, held by RegisterExtent when it bumps the sequence),
  // below state publication (60).
  Mutex writer(LockRank::kShardWriter, "test.writer");
  Mutex state(LockRank::kState, "test.state");
  SeqLock seq;
  MutexLock lock(&writer);
  seq.WriteBegin();
  { MutexLock inner(&state); }
  seq.WriteEnd();
  // Reader validation is lock-free and unaffected.
  uint64_t before = seq.ReadBegin();
  EXPECT_TRUE(seq.ReadValidate(before));
}

TEST(LockRankDeathTest, SeqLockUnderStateAborts) {
  if (!kRankChecksOn) GTEST_SKIP() << "built with DBPL_LOCK_RANKS=OFF";
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(
      {
        Mutex state(LockRank::kState, "test.state");
        SeqLock seq;
        MutexLock lock(&state);
        seq.WriteBegin();  // 55 under 60: inversion
      },
      "lock-rank violation");
}

}  // namespace
}  // namespace dbpl
