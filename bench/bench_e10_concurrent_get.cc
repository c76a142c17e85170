// E10 — concurrent Get under snapshot isolation (DESIGN.md §8,
// EXPERIMENTS.md §E10).
//
// Workloads, all over a database of n self-describing records spread
// across several principal types:
//  * BM_SnapshotScanPinned      — k benchmark threads each repeatedly
//    GetScan a snapshot pinned at setup; no writer. The reader-scaling
//    baseline.
//  * BM_SnapshotScanWithWriter  — the same scan fan-out while one
//    background writer thread keeps inserting. Scans stay on their
//    pinned epoch (stable work per iteration) while the writer
//    publishes newer ones — the acceptance workload: aggregate
//    `scan_items_per_sec` at 8 reader threads vs 1.
//  * BM_ParallelGetScan         — one caller sharding a single scan
//    across GetOptions{threads} workers (core::ParallelFor).
//  * BM_ParallelGetViaIndex     — the principal-type index walk,
//    sharded one task per distinct type.
//  * BM_SnapshotAcquire         — the cost of GetSnapshot() itself
//    while a writer races it (a shared_ptr copy under the publication
//    mutex).

#include <benchmark/benchmark.h>

#include <atomic>
#include <cstdint>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "core/value.h"
#include "dyndb/database.h"
#include "types/type.h"

namespace {

using dbpl::core::Value;
using dbpl::dyndb::Database;
using dbpl::dyndb::GetOptions;
using dbpl::types::Type;

/// Record i: always carries {seq: Int}; one of eight shapes adds extra
/// fields, so the principal-type index holds several distinct groups.
Value MakeRec(int64_t i) {
  std::vector<dbpl::core::RecordField> fields;
  fields.push_back({"seq", Value::Int(i)});
  switch (i % 8) {
    case 0:
      break;
    case 1:
      fields.push_back({"a", Value::Int(i * 3)});
      break;
    case 2:
      fields.push_back({"b", Value::String("x")});
      break;
    case 3:
      fields.push_back({"a", Value::Int(i)});
      fields.push_back({"b", Value::String("y")});
      break;
    case 4:
      fields.push_back({"c", Value::Bool((i & 1) != 0)});
      break;
    case 5:
      fields.push_back({"a", Value::Int(i)});
      fields.push_back({"c", Value::Bool(true)});
      break;
    case 6:
      fields.push_back({"d", Value::Int(-i)});
      break;
    default:
      fields.push_back({"a", Value::Int(i)});
      fields.push_back({"d", Value::Int(i + 7)});
      break;
  }
  return Value::RecordOf(std::move(fields));
}

/// Every MakeRec value inhabits this type (record width subtyping).
Type QueryT() { return Type::RecordOf({{"seq", Type::Int()}}); }

/// Per-run shared context: the database, a snapshot pinned at setup,
/// and an optional background writer. Setup/Teardown run once per
/// benchmark run, before threads start and after they join.
struct Ctx {
  Database db;
  std::optional<Database::Snapshot> snap;
  std::thread writer;
  std::atomic<bool> stop{false};
};

Ctx* g_ctx = nullptr;

void SetupPinnedScan(const benchmark::State& state) {
  g_ctx = new Ctx;
  const int64_t n = state.range(0);
  for (int64_t i = 0; i < n; ++i) g_ctx->db.MustInsertValue(MakeRec(i));
  g_ctx->snap = g_ctx->db.GetSnapshot();
}

void SetupScanWithWriter(const benchmark::State& state) {
  SetupPinnedScan(state);
  g_ctx->writer = std::thread([ctx = g_ctx] {
    int64_t j = 1 << 24;
    while (!ctx->stop.load(std::memory_order_relaxed)) {
      ctx->db.MustInsertValue(MakeRec(j++));
      std::this_thread::yield();  // writer pressure, not writer monopoly
    }
  });
}

void TeardownScan(const benchmark::State&) {
  if (g_ctx->writer.joinable()) {
    g_ctx->stop.store(true, std::memory_order_relaxed);
    g_ctx->writer.join();
  }
  delete g_ctx;
  g_ctx = nullptr;
}

void ScanLoop(benchmark::State& state) {
  const Type t = QueryT();
  const int64_t n = state.range(0);
  for (auto _ : state) {
    std::vector<Value> out = g_ctx->snap->GetScan(t);
    benchmark::DoNotOptimize(out);
    if (out.size() != static_cast<size_t>(n)) {
      state.SkipWithError("pinned snapshot changed size");
      return;
    }
  }
  state.counters["n"] =
      benchmark::Counter(static_cast<double>(n), benchmark::Counter::kAvgThreads);
  // Rate counters are summed across threads then divided by real time:
  // the aggregate number of entries scanned per second.
  state.counters["scan_items_per_sec"] = benchmark::Counter(
      static_cast<double>(state.iterations()) * static_cast<double>(n),
      benchmark::Counter::kIsRate);
}

void BM_SnapshotScanPinned(benchmark::State& state) { ScanLoop(state); }

void BM_SnapshotScanWithWriter(benchmark::State& state) { ScanLoop(state); }

void BM_ParallelGetScan(benchmark::State& state) {
  const Type t = QueryT();
  const int64_t n = state.range(0);
  const GetOptions opts{.threads = static_cast<int>(state.range(1))};
  for (auto _ : state) {
    std::vector<Value> out = g_ctx->snap->GetScan(t, opts);
    benchmark::DoNotOptimize(out);
  }
  state.counters["n"] = static_cast<double>(n);
  state.counters["opt_threads"] = static_cast<double>(opts.threads);
  state.counters["scan_items_per_sec"] = benchmark::Counter(
      static_cast<double>(state.iterations()) * static_cast<double>(n),
      benchmark::Counter::kIsRate);
}

void BM_ParallelGetViaIndex(benchmark::State& state) {
  const Type t = QueryT();
  const int64_t n = state.range(0);
  const GetOptions opts{.threads = static_cast<int>(state.range(1))};
  for (auto _ : state) {
    std::vector<Value> out = g_ctx->snap->GetViaIndex(t, opts);
    benchmark::DoNotOptimize(out);
  }
  state.counters["n"] = static_cast<double>(n);
  state.counters["opt_threads"] = static_cast<double>(opts.threads);
  state.counters["scan_items_per_sec"] = benchmark::Counter(
      static_cast<double>(state.iterations()) * static_cast<double>(n),
      benchmark::Counter::kIsRate);
}

void BM_SnapshotAcquire(benchmark::State& state) {
  for (auto _ : state) {
    Database::Snapshot snap = g_ctx->db.GetSnapshot();
    benchmark::DoNotOptimize(snap);
  }
  state.counters["n"] = benchmark::Counter(static_cast<double>(state.range(0)),
                                           benchmark::Counter::kAvgThreads);
}

}  // namespace

BENCHMARK(BM_SnapshotScanPinned)
    ->Arg(256)
    ->Arg(16384)
    ->ThreadRange(1, 8)
    ->UseRealTime()
    ->Setup(SetupPinnedScan)
    ->Teardown(TeardownScan)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_SnapshotScanWithWriter)
    ->Arg(256)
    ->Arg(16384)
    ->ThreadRange(1, 8)
    ->UseRealTime()
    ->Setup(SetupScanWithWriter)
    ->Teardown(TeardownScan)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_ParallelGetScan)
    ->ArgsProduct({{256, 16384}, {1, 2, 4, 8}})
    ->UseRealTime()
    ->Setup(SetupPinnedScan)
    ->Teardown(TeardownScan)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_ParallelGetViaIndex)
    ->ArgsProduct({{256, 16384}, {1, 2, 4, 8}})
    ->UseRealTime()
    ->Setup(SetupPinnedScan)
    ->Teardown(TeardownScan)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_SnapshotAcquire)
    ->Arg(16384)
    ->ThreadRange(1, 8)
    ->UseRealTime()
    ->Setup(SetupScanWithWriter)
    ->Teardown(TeardownScan);
