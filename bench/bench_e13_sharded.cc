// E13 — sharded multi-writer entry log (DESIGN.md §8/§9,
// EXPERIMENTS.md §E13).
//
// The claim under test: partitioning the append-only entry log into K
// hash-routed shards — each with its own writer mutex, chunk spine and
// WAL segment — removes the single writer lock from the insert path,
// so concurrent writers stop serializing on one mutex. On a
// many-core machine that buys parallel insert scaling; on one core it
// still shows up as lower lock-handoff overhead. Readers are
// unaffected either way (snapshots stay lock-free).
//
//  * BM_ShardedInsert/K/threads:T       — in-memory dyndb inserts, K
//    shards, T concurrent writer threads. The K=1/T>1 rows are the
//    single-mutex baseline the sharded rows are read against.
//  * BM_ShardedWalInsert/K/threads:T    — the same through
//    persist::WalDatabase with group commit (sync, every_n=8): lane
//    appends happen under per-shard mutexes and one leader batches
//    the fsyncs for everyone.
//  * BM_ShardedCheckpoint/K/n           — the once-per-checkpoint cost
//    at size n: snapshot save + rotating all K lane segments.
//
// WAL I/O goes through the production VFS into a fresh temp directory
// per run.

#include <benchmark/benchmark.h>

#include <unistd.h>

#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <iostream>
#include <memory>
#include <string>

#include "core/value.h"
#include "dyndb/database.h"
#include "persist/wal_database.h"
#include "storage/vfs.h"

namespace {

using dbpl::core::Value;
using dbpl::dyndb::Database;
using dbpl::dyndb::DatabaseOptions;
using dbpl::persist::CommitPolicy;
using dbpl::persist::WalDatabase;
using dbpl::persist::WalOptions;

Value MakeRec(int64_t i) {
  return Value::RecordOf({{"seq", Value::Int(i)},
                          {"name", Value::String("r" + std::to_string(i % 97))},
                          {"flag", Value::Bool((i & 1) != 0)}});
}

std::string FreshDir() {
  static int counter = 0;
  std::string dir = std::filesystem::temp_directory_path() /
                    ("dbpl_bench_e13_" + std::to_string(::getpid()) + "_" +
                     std::to_string(counter++));
  std::filesystem::remove_all(dir);
  return dir;
}

struct Ctx {
  std::string dir;
  std::unique_ptr<Database> db;
  std::unique_ptr<WalDatabase> wdb;
};

Ctx* g_ctx = nullptr;

void SetupMemory(const benchmark::State& state) {
  g_ctx = new Ctx;
  g_ctx->db = std::make_unique<Database>(
      DatabaseOptions{static_cast<int>(state.range(0))});
}

void SetupWal(const benchmark::State& state) {
  g_ctx = new Ctx;
  g_ctx->dir = FreshDir();
  auto wdb = WalDatabase::Open(
      dbpl::storage::Vfs::Default(), g_ctx->dir,
      WalOptions{CommitPolicy{8, true}, static_cast<int>(state.range(0))});
  if (!wdb.ok()) {
    std::cerr << "bench_e13: open failed: " << wdb.status() << "\n";
    std::abort();
  }
  g_ctx->wdb = std::move(*wdb);
}

void SetupCheckpoint(const benchmark::State& state) {
  g_ctx = new Ctx;
  g_ctx->dir = FreshDir();
  auto wdb = WalDatabase::Open(
      dbpl::storage::Vfs::Default(), g_ctx->dir,
      WalOptions{CommitPolicy{64, true}, static_cast<int>(state.range(0))});
  if (!wdb.ok()) std::abort();
  g_ctx->wdb = std::move(*wdb);
  const int64_t n = state.range(1);
  for (int64_t i = 0; i < n; ++i) {
    (void)g_ctx->wdb->InsertValue(MakeRec(i));
  }
}

void Teardown(const benchmark::State&) {
  g_ctx->wdb.reset();
  if (!g_ctx->dir.empty()) std::filesystem::remove_all(g_ctx->dir);
  delete g_ctx;
  g_ctx = nullptr;
}

void AddWriterCounters(benchmark::State& state, int64_t shards) {
  // Config counters must not be summed across threads (the default
  // aggregation); the throughput counter must be (total inserts / s).
  state.counters["shards"] = benchmark::Counter(
      static_cast<double>(shards), benchmark::Counter::kAvgThreads);
  state.counters["inserts_per_sec"] =
      benchmark::Counter(static_cast<double>(state.iterations()),
                         benchmark::Counter::kIsRate);
}

void BM_ShardedInsert(benchmark::State& state) {
  // Distinct value streams per thread so the hash routing spreads work
  // the same way a real multi-writer workload would.
  int64_t i = static_cast<int64_t>(state.thread_index()) << 32;
  for (auto _ : state) {
    g_ctx->db->MustInsertValue(MakeRec(i++));
  }
  AddWriterCounters(state, state.range(0));
}

void BM_ShardedWalInsert(benchmark::State& state) {
  int64_t i = static_cast<int64_t>(state.thread_index()) << 32;
  for (auto _ : state) {
    auto id = g_ctx->wdb->InsertValue(MakeRec(i++));
    if (!id.ok()) {
      state.SkipWithError("insert failed");
      return;
    }
  }
  AddWriterCounters(state, state.range(0));
}

void BM_ShardedCheckpoint(benchmark::State& state) {
  int64_t i = state.range(1);
  for (auto _ : state) {
    (void)g_ctx->wdb->InsertValue(MakeRec(i++));
    if (!g_ctx->wdb->Checkpoint().ok()) {
      state.SkipWithError("checkpoint failed");
      return;
    }
  }
  state.counters["shards"] = static_cast<double>(state.range(0));
  state.counters["n"] = static_cast<double>(state.range(1));
}

}  // namespace

BENCHMARK(BM_ShardedInsert)
    ->Arg(1)
    ->Arg(4)
    ->Arg(8)
    ->Threads(1)
    ->Threads(2)
    ->Threads(4)
    ->UseRealTime()
    ->Setup(SetupMemory)
    ->Teardown(Teardown);
BENCHMARK(BM_ShardedWalInsert)
    ->Arg(1)
    ->Arg(4)
    ->Threads(1)
    ->Threads(4)
    ->UseRealTime()
    ->Setup(SetupWal)
    ->Teardown(Teardown);
BENCHMARK(BM_ShardedCheckpoint)
    ->Args({1, 4096})
    ->Args({4, 4096})
    ->UseRealTime()
    ->Setup(SetupCheckpoint)
    ->Teardown(Teardown)
    ->Unit(benchmark::kMicrosecond);
