#ifndef DBPL_COMMON_MUTEX_H_
#define DBPL_COMMON_MUTEX_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <mutex>

#include "common/thread_annotations.h"

// Annotated locking primitives for the concurrent core.
//
// dbpl::Mutex is std::mutex plus two checkers:
//
//  * Statically, it is a Clang *capability*: fields declared
//    DBPL_GUARDED_BY(mu) and functions declared DBPL_REQUIRES(mu) are
//    verified at compile time under the `analyze` preset (see
//    common/thread_annotations.h).
//
//  * Dynamically, a mutex constructed with a LockRank participates in
//    lock-rank checking: each thread tracks the ranks it holds, and
//    acquiring a mutex whose rank is not strictly above every held
//    rank aborts immediately with both ranks and the full held stack —
//    turning a potential deadlock (which `-L tsan` only catches if the
//    schedule cooperates) into a deterministic failure on *any*
//    schedule that reaches the acquisition. Ranks encode the global
//    acquisition order of DESIGN.md §10; the short form is
//    shard writer < group-commit < wal lane < state.
//
// Rank checking costs a thread-local scan of at most kMaxHeldLocks
// entries per lock/unlock (single-digit nanoseconds; the guarded
// critical sections are tens of nanoseconds at minimum). It is on by
// default; configure with -DDBPL_LOCK_RANKS=OFF to compile it out of a
// release build.

#if !defined(DBPL_LOCK_RANK_CHECKS)
#define DBPL_LOCK_RANK_CHECKS 1
#endif

namespace dbpl {

/// The global lock-acquisition order, smallest first: while holding a
/// lock of rank R, a thread may only acquire locks of rank > R (or
/// == R for the two "clustered" ranks below). The gaps leave room for
/// future subsystems.
enum class LockRank : int {
  /// Rank-check exempt: a Mutex constructed without a rank composes
  /// with any acquisition order (used outside the concurrent core).
  kUnranked = 0,
  /// serve::Server::mu_ — the event loops' inboxes of new connections
  /// and the stop flag of the network front-end. The outermost rank: a
  /// loop executes requests against the database (whose write path
  /// re-enters the replica/WAL/shard stack), so the serve lock must sit
  /// below everything — and by design it is taken once per connection,
  /// never on the request path.
  kServe = 5,
  /// persist::Replica::mu_ — held across whole poll/bootstrap cycles,
  /// which re-enter the primary's WAL bounds and the follower's write
  /// path, so it must sit below everything they take.
  kReplica = 10,
  /// persist::WalDatabase::meta_mu_ — checkpoint/rotation metadata;
  /// held while the checkpoint freezes every WAL lane.
  kWalMeta = 20,
  /// dyndb shard writer mutexes (clustered: RegisterExtent and
  /// SetWriteObserver hold all K, acquired in shard-index order).
  kShardWriter = 30,
  /// persist::WalDatabase::sync_mu_ — the group-commit barrier. Never
  /// held during I/O; ranked under the lanes so a leader that did not
  /// drop it before flushing would still be order-correct.
  kGroupCommit = 40,
  /// persist::WalDatabase per-shard lane mutexes (clustered: a
  /// checkpoint freezes all K lanes, acquired in shard-index order).
  kWalLane = 50,
  /// dyndb registration seqlock write side — held across the K state
  /// publications of one extent registration.
  kRegistration = 55,
  /// dyndb per-shard state (publication) mutexes — the innermost
  /// blocking lock of the write path; two are never held at once.
  kState = 60,
  /// persist::WalDatabase::status_mu_ — the sticky poison word; a leaf
  /// taken under lanes, the barrier, and checkpoint metadata alike.
  kWalStatus = 70,
};

/// True for ranks where holding several same-rank locks is part of the
/// discipline (always acquired in shard-index order by construction).
constexpr bool LockRankClusters(LockRank rank) {
  return rank == LockRank::kShardWriter || rank == LockRank::kWalLane;
}

#if DBPL_LOCK_RANK_CHECKS
namespace internal {
/// Aborts (after printing both ranks and the held stack) unless `rank`
/// may be acquired now by this thread; records the acquisition.
void RankCheckAcquire(LockRank rank, const char* name);
/// Records the release of one lock of `rank`.
void RankCheckRelease(LockRank rank);
}  // namespace internal
#endif

/// std::mutex as an annotated, rank-checked capability.
class DBPL_CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  explicit Mutex(LockRank rank, const char* name = "mutex")
      : rank_(rank), name_(name) {}
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void Lock() DBPL_ACQUIRE() {
#if DBPL_LOCK_RANK_CHECKS
    if (rank_ != LockRank::kUnranked) internal::RankCheckAcquire(rank_, name_);
#endif
    mu_.lock();
  }

  void Unlock() DBPL_RELEASE() {
    mu_.unlock();
#if DBPL_LOCK_RANK_CHECKS
    if (rank_ != LockRank::kUnranked) internal::RankCheckRelease(rank_);
#endif
  }

  // BasicLockable spelling, so std::condition_variable_any (see
  // CondVar) and std:: scoped helpers can drive a Mutex directly.
  void lock() DBPL_ACQUIRE() { Lock(); }
  void unlock() DBPL_RELEASE() { Unlock(); }

  LockRank rank() const { return rank_; }
  const char* name() const { return name_; }

 private:
  std::mutex mu_;
  const LockRank rank_ = LockRank::kUnranked;
  const char* const name_ = "mutex";
};

/// RAII lock: acquires in the constructor, releases in the destructor,
/// and tells the static analysis so (a MutexLock that outlives its
/// scope, or a guarded access after it died, is a compile error under
/// `analyze`).
class DBPL_SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex* mu) DBPL_ACQUIRE(mu) : mu_(mu) { mu_->Lock(); }
  ~MutexLock() DBPL_RELEASE() { mu_->Unlock(); }
  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

 private:
  Mutex* const mu_;
};

/// Condition variable over dbpl::Mutex. Waits keep the rank bookkeeping
/// exact: the wait releases (pops) and re-acquires (re-checks) the
/// mutex through Mutex::unlock/lock, so a thread sleeping in Wait holds
/// precisely the ranks it holds.
class CondVar {
 public:
  /// Atomically releases `mu` and blocks; re-acquires before
  /// returning. As with std::condition_variable, spurious wakeups
  /// happen — wrap in a predicate loop.
  void Wait(Mutex& mu) DBPL_REQUIRES(mu) { cv_.wait(mu); }

  template <typename Clock, typename Duration>
  std::cv_status WaitUntil(
      Mutex& mu, const std::chrono::time_point<Clock, Duration>& deadline)
      DBPL_REQUIRES(mu) {
    return cv_.wait_until(mu, deadline);
  }

  template <typename Rep, typename Period>
  std::cv_status WaitFor(Mutex& mu,
                         const std::chrono::duration<Rep, Period>& rel)
      DBPL_REQUIRES(mu) {
    return cv_.wait_for(mu, rel);
  }

  void NotifyOne() { cv_.notify_one(); }
  void NotifyAll() { cv_.notify_all(); }

 private:
  std::condition_variable_any cv_;
};

/// The registration seqlock as a named capability. Writers bracket a
/// multi-object publication with WriteBegin/WriteEnd (odd while
/// mid-publish); readers snapshot the sequence, do their reads, and
/// retry if it was odd or moved. The write side participates in rank
/// checking (rank kRegistration: above the shard writer mutexes it is
/// taken under, below the state mutexes the bracketed publications
/// acquire); the read side takes nothing and can never deadlock.
///
/// The static analysis sees WriteBegin/WriteEnd as acquire/release of
/// a "seqlock" capability, so a write path that returns mid-publish
/// (leaving the sequence odd — a permanent reader livelock) is a
/// compile error under `analyze`.
class DBPL_CAPABILITY("seqlock") SeqLock {
 public:
  SeqLock() = default;
  SeqLock(const SeqLock&) = delete;
  SeqLock& operator=(const SeqLock&) = delete;

  /// Enters the write-side critical section: sequence becomes odd.
  /// Callers must already hold whatever serializes writers (for the
  /// registration seqlock: all shard writer mutexes).
  void WriteBegin() DBPL_ACQUIRE() {
#if DBPL_LOCK_RANK_CHECKS
    internal::RankCheckAcquire(LockRank::kRegistration, "extent_seq");
#endif
    seq_.fetch_add(1, std::memory_order_acq_rel);
  }

  /// Leaves the write-side critical section: sequence becomes even.
  void WriteEnd() DBPL_RELEASE() {
    seq_.fetch_add(1, std::memory_order_acq_rel);
#if DBPL_LOCK_RANK_CHECKS
    internal::RankCheckRelease(LockRank::kRegistration);
#endif
  }

  /// Read-side protocol: `s = ReadBegin(); <reads>; ReadValidate(s)`.
  /// A false return (odd sequence, or a write slipped in) means the
  /// reads may be torn — discard and retry.
  uint64_t ReadBegin() const { return seq_.load(std::memory_order_acquire); }
  bool ReadValidate(uint64_t before) const {
    return before % 2 == 0 &&
           seq_.load(std::memory_order_acquire) == before;
  }

 private:
  std::atomic<uint64_t> seq_{0};
};

}  // namespace dbpl

#endif  // DBPL_COMMON_MUTEX_H_
