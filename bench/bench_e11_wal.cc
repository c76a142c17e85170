// E11 — write-ahead durability (DESIGN.md §9, EXPERIMENTS.md §E11).
//
// The claim under test: with persist::WalDatabase the cost of making
// one insert durable is O(1) — append a redo record + commit marker and
// fsync — independent of how large the database already is, whereas the
// snapshot model (persist::SaveDatabase) rewrites the whole image, so
// its per-insert durability cost grows with n.
//
//  * BM_WalInsertCommit        — insert + synced commit per iteration,
//    against a database pre-seeded with n entries. Flat in n.
//  * BM_WalInsertGroupCommit   — the same with CommitPolicy{every_n},
//    amortizing the marker + fsync over a batch (every_n 1/16/128).
//  * BM_SnapshotSaveAfterInsert — the baseline: insert, then persist by
//    rewriting the whole snapshot. Linear in n.
//  * BM_WalCheckpoint          — the cost WalDatabase pays *once per
//    checkpoint* (not per insert) to bound log growth: save the
//    snapshot and rotate the log.
//
// All I/O goes through the production VFS into a fresh temp directory
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
#include "persist/database_io.h"
#include "persist/wal_database.h"

namespace {

using dbpl::core::Value;
using dbpl::dyndb::Database;
using dbpl::persist::CommitPolicy;
using dbpl::persist::WalDatabase;

Value MakeRec(int64_t i) {
  return Value::RecordOf({{"seq", Value::Int(i)},
                          {"name", Value::String("r" + std::to_string(i % 97))},
                          {"flag", Value::Bool((i & 1) != 0)}});
}

std::string FreshDir() {
  static int counter = 0;
  std::string dir = std::filesystem::temp_directory_path() /
                    ("dbpl_bench_e11_" + std::to_string(::getpid()) + "_" +
                     std::to_string(counter++));
  std::filesystem::remove_all(dir);
  return dir;
}

/// Per-run context: a WAL database pre-seeded with n entries and then
/// checkpointed, so the measured loop starts from an empty log.
struct Ctx {
  std::string dir;
  std::unique_ptr<WalDatabase> wdb;
  Database db;  // for the snapshot-save baseline
  int64_t next = 0;
};

Ctx* g_ctx = nullptr;

void SetupWal(const benchmark::State& state, CommitPolicy policy) {
  g_ctx = new Ctx;
  g_ctx->dir = FreshDir();
  auto wdb = WalDatabase::Open(g_ctx->dir, policy);
  if (!wdb.ok()) {
    std::cerr << "bench_e11: open failed: " << wdb.status() << "\n";
    std::abort();
  }
  g_ctx->wdb = std::move(*wdb);
  const int64_t n = state.range(0);
  for (int64_t i = 0; i < n; ++i) {
    (void)g_ctx->wdb->InsertValue(MakeRec(i));
  }
  if (!g_ctx->wdb->Checkpoint().ok()) std::abort();
  g_ctx->next = n;
}

void SetupWalSynced(const benchmark::State& state) {
  SetupWal(state, CommitPolicy{1, true});
}

void SetupWalGrouped(const benchmark::State& state) {
  SetupWal(state, CommitPolicy{static_cast<uint64_t>(state.range(1)), true});
}

void SetupSnapshotBaseline(const benchmark::State& state) {
  g_ctx = new Ctx;
  g_ctx->dir = FreshDir();
  std::filesystem::create_directories(g_ctx->dir);
  const int64_t n = state.range(0);
  for (int64_t i = 0; i < n; ++i) g_ctx->db.MustInsertValue(MakeRec(i));
  g_ctx->next = n;
}

void Teardown(const benchmark::State&) {
  g_ctx->wdb.reset();
  std::filesystem::remove_all(g_ctx->dir);
  delete g_ctx;
  g_ctx = nullptr;
}

void BM_WalInsertCommit(benchmark::State& state) {
  for (auto _ : state) {
    auto id = g_ctx->wdb->InsertValue(MakeRec(g_ctx->next++));
    if (!id.ok()) {
      state.SkipWithError("insert failed");
      return;
    }
  }
  state.counters["n"] = static_cast<double>(state.range(0));
  state.counters["every_n"] = 1;
  state.counters["commits_per_sec"] =
      benchmark::Counter(static_cast<double>(state.iterations()),
                         benchmark::Counter::kIsRate);
}

void BM_WalInsertGroupCommit(benchmark::State& state) {
  for (auto _ : state) {
    auto id = g_ctx->wdb->InsertValue(MakeRec(g_ctx->next++));
    if (!id.ok()) {
      state.SkipWithError("insert failed");
      return;
    }
  }
  // Close the open batch so every measured insert is eventually durable.
  if (!g_ctx->wdb->Commit().ok()) state.SkipWithError("final commit failed");
  state.counters["n"] = static_cast<double>(state.range(0));
  state.counters["every_n"] = static_cast<double>(state.range(1));
  state.counters["commits_per_sec"] =
      benchmark::Counter(static_cast<double>(state.iterations()),
                         benchmark::Counter::kIsRate);
}

void BM_SnapshotSaveAfterInsert(benchmark::State& state) {
  const std::string path = g_ctx->dir + "/image.dbpl";
  for (auto _ : state) {
    g_ctx->db.MustInsertValue(MakeRec(g_ctx->next++));
    if (!dbpl::persist::SaveDatabase(path, g_ctx->db).ok()) {
      state.SkipWithError("save failed");
      return;
    }
  }
  state.counters["n"] = static_cast<double>(state.range(0));
  state.counters["every_n"] = 1;
  state.counters["commits_per_sec"] =
      benchmark::Counter(static_cast<double>(state.iterations()),
                         benchmark::Counter::kIsRate);
}

void BM_WalCheckpoint(benchmark::State& state) {
  for (auto _ : state) {
    // Each iteration logs one insert and then pays the full checkpoint:
    // snapshot save + log rotation at size ~n.
    (void)g_ctx->wdb->InsertValue(MakeRec(g_ctx->next++));
    if (!g_ctx->wdb->Checkpoint().ok()) {
      state.SkipWithError("checkpoint failed");
      return;
    }
  }
  state.counters["n"] = static_cast<double>(state.range(0));
  state.counters["every_n"] = 1;
}

}  // namespace

BENCHMARK(BM_WalInsertCommit)
    ->Arg(256)
    ->Arg(4096)
    ->Arg(32768)
    ->UseRealTime()
    ->Setup(SetupWalSynced)
    ->Teardown(Teardown);
BENCHMARK(BM_WalInsertGroupCommit)
    ->ArgsProduct({{4096}, {1, 16, 128}})
    ->UseRealTime()
    ->Setup(SetupWalGrouped)
    ->Teardown(Teardown);
BENCHMARK(BM_SnapshotSaveAfterInsert)
    ->Arg(256)
    ->Arg(4096)
    ->Arg(32768)
    ->UseRealTime()
    ->Setup(SetupSnapshotBaseline)
    ->Teardown(Teardown)
    ->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_WalCheckpoint)
    ->Arg(256)
    ->Arg(4096)
    ->Arg(32768)
    ->UseRealTime()
    ->Setup(SetupWalSynced)
    ->Teardown(Teardown)
    ->Unit(benchmark::kMicrosecond);
