// dbplbench — the repository benchmark. README.md in this directory
// describes the workloads, the metrics and the noise design; run.py
// builds this program and is the command users run.
//
// One run preloads a persist::WalDatabase in-process, serves it with a
// serve::Server on loopback TCP and drives it through the public
// serve::Client, serve::RemoteShipper and persist::Replica APIs:
//
//   point       a closed loop of 95 % Get / 5 % Insert+Commit on one
//               connection, and pipelined Gets on four;
//   type_query  Get[T] over a subtype lattice through GetScan,
//               GetViaIndex and GetViaExtent;
//   recovery    WalDatabase::Open of a copy of the preloaded directory;
//   catch-up    a fresh wire follower replays the primary's history;
//   streaming   a follower polling every 1 ms behind a writer that
//               commits on a fixed schedule.
//
// The first four are interleaved in small units, in rounds that
// alternate with streaming. A loopback echo pinned to two CPUs runs
// between them; every time but set-up is reported as a multiple of its
// round trip, which cancels drift of the host between runs.
//
// The workload names the preloaded database (shard count and shape);
// every workload runs every phase, so each reports every end-to-end
// metric from operations issued in volume. Every answer is checked.
// With --trace 1 the benchmark also times its own calls into each
// layer's public functions, keeps the spans in memory, writes them out
// at the end and reports the per-layer metrics instead.
//
// Usage:
//   dbplbench --workload point|type_query|follow --seed N --seconds S
//             --trace 0|1 --work-dir DIR [--trace-out FILE] [--entries N]
//
// The last line of standard output is one JSON object:
//   {"correct": .., "attempted": .., "failed": .., "metrics": {..}}
// The exit code is 0 only when every answer was correct.

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <pthread.h>
#include <sched.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/bytes.h"
#include "core/value.h"
#include "dyndb/database.h"
#include "dyndb/dynamic.h"
#include "persist/replica.h"
#include "persist/wal_database.h"
#include "serial/decoder.h"
#include "serial/encoder.h"
#include "serve/client.h"
#include "serve/protocol.h"
#include "serve/remote_shipper.h"
#include "serve/server.h"
#include "storage/log.h"
#include "storage/vfs.h"
#include "types/type.h"

namespace {

using dbpl::ByteBuffer;
using dbpl::ByteReader;
using dbpl::Result;
using dbpl::Status;
using dbpl::core::Value;
using dbpl::dyndb::Dynamic;
using dbpl::dyndb::MakeDynamic;
using dbpl::persist::CommitPolicy;
using dbpl::persist::Replica;
using dbpl::persist::WalDatabase;
using dbpl::persist::WalOptions;
using dbpl::serve::Client;
using dbpl::serve::RemoteShipper;
using dbpl::serve::ReqOp;
using dbpl::serve::Request;
using dbpl::serve::Response;
using dbpl::serve::ServeOptions;
using dbpl::serve::Server;
using dbpl::types::Type;
using EntryId = dbpl::dyndb::Database::EntryId;
using Snapshot = dbpl::dyndb::Database::Snapshot;

// ---------------------------------------------------------------------
// Fixed parameters. The seed changes values and order, never sizes, so
// every seed does the same amount of work of the same shape.
// ---------------------------------------------------------------------

constexpr int kDefaultEntries = 20000;
// Markers only at explicit Commit: the flush policy is "fsync on every
// Commit", and the preload commits every kPreloadCommitEvery inserts.
constexpr uint64_t kManualCommit = uint64_t{1} << 40;
constexpr int kPreloadCommitEvery = 1024;
constexpr int kSetups = 5;
// point: one closed-loop block is kBlockOps requests, then kEchoBlock
// echo round trips (and, traced, kPingBlock pings).
constexpr int kBlockOps = 256;
constexpr int kEchoBlock = 128;
constexpr int kPingBlock = 64;
constexpr int kWritePercent = 5;
constexpr int kPipeConnections = 4;
constexpr int kPipeDepth = 8;
constexpr auto kPipeWindow = std::chrono::milliseconds(50);
// follow: the scheduled writer commits kStreamBatch inserts every
// kStreamPeriod; the streaming follower polls every kPollInterval.
constexpr int kStreamBatch = 16;
// Echo round trips after each streaming batch and each catch-up.
constexpr int kStreamEcho = 16;
constexpr auto kStreamPeriod = std::chrono::milliseconds(10);
constexpr auto kPollInterval = std::chrono::milliseconds(1);
constexpr auto kWaitTimeout = std::chrono::milliseconds(10000);
constexpr int kCommitProbe = 64;
// Windows, in samples, for the windowed percentiles (see WindowedPct):
// about one point block of Gets, 100 commits, one type_query cycle and
// 25 streaming batches.
constexpr size_t kGetWindow = 240;
constexpr size_t kCommitWindow = 100;
constexpr size_t kTypeWindow = 11;
constexpr size_t kShipWindow = 25;

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// splitmix64: the same sequence on every platform.
struct Rng {
  uint64_t s;
  explicit Rng(uint64_t seed) : s(seed) {}
  uint64_t Next() {
    uint64_t z = (s += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
  }
  uint64_t Below(uint64_t n) { return Next() % n; }
};

template <typename T>
void Shuffle(std::vector<T>* v, Rng* rng) {
  for (size_t i = v->size(); i > 1; --i) {
    std::swap((*v)[i - 1], (*v)[rng->Below(i)]);
  }
}

/// Nearest-rank percentile (q in (0, 1]).
double Pct(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  size_t rank = static_cast<size_t>(std::ceil(q * static_cast<double>(v.size())));
  return v[std::min(v.size() - 1, rank == 0 ? 0 : rank - 1)];
}
double Median(std::vector<double> v) { return Pct(std::move(v), 0.5); }

/// The q-percentile of each consecutive window of `window` samples (a
/// last partial window counts if at least half full), then the median
/// of those: a stall of the host that hits a few windows does not move
/// it.
double WindowedPct(const std::vector<double>& v, size_t window, double q) {
  std::vector<double> per_window;
  for (size_t i = 0; i < v.size(); i += window) {
    const size_t n = std::min(window, v.size() - i);
    if (n * 2 < window && !per_window.empty()) break;
    per_window.push_back(Pct(std::vector<double>(v.begin() + static_cast<long>(i),
                                                 v.begin() + static_cast<long>(i + n)),
                             q));
  }
  return Median(std::move(per_window));
}

[[noreturn]] void Die(const std::string& what, const Status& s) {
  std::cerr << "dbplbench: " << what << ": " << s << "\n";
  std::exit(2);
}

// ---------------------------------------------------------------------
// Storage counting: a Vfs decorator over the production VFS that counts
// ReadAt and Sync calls. Counts are exact, so they repeat for a seed.
// ---------------------------------------------------------------------

class CountingVfs : public dbpl::storage::Vfs {
 public:
  explicit CountingVfs(dbpl::storage::Vfs* base) : base_(base) {}

  Result<std::unique_ptr<dbpl::storage::VfsFile>> Open(
      const std::string& path, dbpl::storage::OpenMode mode) override {
    auto file = base_->Open(path, mode);
    if (!file.ok()) return file.status();
    return std::unique_ptr<dbpl::storage::VfsFile>(
        std::make_unique<File>(std::move(*file), this));
  }
  bool Exists(const std::string& path) const override {
    return base_->Exists(path);
  }
  Status Remove(const std::string& path) override {
    return base_->Remove(path);
  }
  Status Rename(const std::string& from, const std::string& to) override {
    return base_->Rename(from, to);
  }
  Status CreateDir(const std::string& path) override {
    return base_->CreateDir(path);
  }
  Result<std::vector<std::string>> ListDir(
      const std::string& path) const override {
    return base_->ListDir(path);
  }

  std::atomic<uint64_t> reads{0};
  std::atomic<uint64_t> syncs{0};

 private:
  class File : public dbpl::storage::VfsFile {
   public:
    File(std::unique_ptr<dbpl::storage::VfsFile> base, CountingVfs* owner)
        : base_(std::move(base)), owner_(owner) {}
    Result<size_t> ReadAt(uint64_t offset, void* out, size_t n) override {
      owner_->reads.fetch_add(1, std::memory_order_relaxed);
      return base_->ReadAt(offset, out, n);
    }
    Status WriteAt(uint64_t offset, const void* data, size_t n) override {
      return base_->WriteAt(offset, data, n);
    }
    Status Append(const void* data, size_t n) override {
      return base_->Append(data, n);
    }
    Result<uint64_t> Size() const override { return base_->Size(); }
    Status Sync() override {
      owner_->syncs.fetch_add(1, std::memory_order_relaxed);
      return base_->Sync();
    }

   private:
    std::unique_ptr<dbpl::storage::VfsFile> base_;
    CountingVfs* const owner_;
  };

  dbpl::storage::Vfs* const base_;
};

// ---------------------------------------------------------------------
// Tracing: spans around the benchmark's own calls into each layer. A
// span's layer is its name up to the first '.'. Spans of one operation
// share an op id; a child names its parent's index.
// ---------------------------------------------------------------------

struct Span {
  const char* name;
  int64_t start_ns;
  int64_t end_ns;
  int32_t parent;
  uint32_t op;
};

class Tracer {
 public:
  explicit Tracer(bool on) : on_(on) {
    if (on_) spans_.reserve(1 << 20);
  }
  bool on() const { return on_; }
  uint32_t NewOp() { return ++last_op_; }
  int32_t Begin(const char* name, uint32_t op, int32_t parent) {
    spans_.push_back({name, NowNs(), 0, parent, op});
    return static_cast<int32_t>(spans_.size() - 1);
  }
  /// Closes span `i`; returns its duration in ns.
  int64_t End(int32_t i) {
    Span& s = spans_[static_cast<size_t>(i)];
    s.end_ns = NowNs();
    return s.end_ns - s.start_ns;
  }
  const std::vector<Span>& spans() const { return spans_; }

  /// Self time per layer in ns: each span's duration minus the part its
  /// children cover (children of one span never overlap: one thread
  /// records them in sequence).
  std::map<std::string, double> SelfNsByLayer() const {
    std::vector<int64_t> child_ns(spans_.size(), 0);
    for (const Span& s : spans_) {
      if (s.parent >= 0) {
        child_ns[static_cast<size_t>(s.parent)] += s.end_ns - s.start_ns;
      }
    }
    std::map<std::string, double> out;
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::string name(s.name);
      out[name.substr(0, name.find('.'))] +=
          static_cast<double>(s.end_ns - s.start_ns - child_ns[i]);
    }
    return out;
  }

  bool WriteJsonl(const std::string& path) const {
    std::ofstream out(path, std::ios::trunc);
    if (!out) return false;
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      out << "{\"i\":" << i << ",\"name\":\"" << s.name
          << "\",\"op\":" << s.op << ",\"parent\":" << s.parent
          << ",\"start_ns\":" << s.start_ns << ",\"end_ns\":" << s.end_ns
          << "}\n";
    }
    return static_cast<bool>(out);
  }

 private:
  const bool on_;
  std::vector<Span> spans_;
  uint32_t last_op_ = 0;
};

// ---------------------------------------------------------------------
// The host reference: a loopback TCP echo whose two threads are pinned
// to two distinct CPUs. It is not the program; every time but set-up is
// reported as a multiple of its p50, which cancels host-wide drift
// between runs.
// ---------------------------------------------------------------------

std::vector<int> AllowedCpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  std::vector<int> cpus;
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    for (int c = 0; c < CPU_SETSIZE; ++c) {
      if (CPU_ISSET(c, &set)) cpus.push_back(c);
    }
  }
  if (cpus.empty()) cpus.push_back(0);
  return cpus;
}

void PinThread(pthread_t thread, int cpu) {
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpu, &set);
  (void)pthread_setaffinity_np(thread, sizeof(set), &set);
}

/// Pins the calling thread to one CPU for its scope.
class ScopedPin {
 public:
  explicit ScopedPin(int cpu) {
    CPU_ZERO(&saved_);
    (void)pthread_getaffinity_np(pthread_self(), sizeof(saved_), &saved_);
    PinThread(pthread_self(), cpu);
  }
  ~ScopedPin() {
    (void)pthread_setaffinity_np(pthread_self(), sizeof(saved_), &saved_);
  }
  ScopedPin(const ScopedPin&) = delete;
  ScopedPin& operator=(const ScopedPin&) = delete;

 private:
  cpu_set_t saved_;
};

bool SendAllFd(int fd, const char* p, size_t n) {
  while (n > 0) {
    ssize_t w = ::send(fd, p, n, MSG_NOSIGNAL);
    if (w <= 0) return false;
    p += w;
    n -= static_cast<size_t>(w);
  }
  return true;
}
bool RecvAllFd(int fd, char* p, size_t n) {
  while (n > 0) {
    ssize_t r = ::recv(fd, p, n, 0);
    if (r <= 0) return false;
    p += r;
    n -= static_cast<size_t>(r);
  }
  return true;
}

class PinnedEcho {
 public:
  static constexpr size_t kMsg = 32;

  PinnedEcho(int client_cpu, int server_cpu)
      : client_cpu_(client_cpu), server_cpu_(server_cpu) {}
  ~PinnedEcho() {
    if (client_fd_ >= 0) ::close(client_fd_);  // the echo thread sees EOF
    if (listen_fd_ >= 0) ::shutdown(listen_fd_, SHUT_RDWR);
    if (thread_.joinable()) thread_.join();
    if (listen_fd_ >= 0) ::close(listen_fd_);
  }
  PinnedEcho(const PinnedEcho&) = delete;
  PinnedEcho& operator=(const PinnedEcho&) = delete;

  bool Start() {
    listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (listen_fd_ < 0) return false;
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = 0;
    socklen_t len = sizeof(addr);
    if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
            0 ||
        ::listen(listen_fd_, 1) != 0 ||
        ::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &len) !=
            0) {
      return false;
    }
    thread_ = std::thread([this] { Serve(); });
    client_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (client_fd_ < 0 ||
        ::connect(client_fd_, reinterpret_cast<sockaddr*>(&addr),
                  sizeof(addr)) != 0) {
      return false;
    }
    int one = 1;
    ::setsockopt(client_fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    return true;
  }

  /// Times `n` round trips from the calling thread, pinned for the
  /// block. Returns false on a transport failure.
  bool Block(int n, std::vector<double>* rtt_ns) {
    ScopedPin pin(client_cpu_);
    char buf[kMsg] = {};
    for (int i = 0; i < n; ++i) {
      const int64_t t0 = NowNs();
      if (!SendAllFd(client_fd_, buf, kMsg) || !RecvAllFd(client_fd_, buf, kMsg)) {
        return false;
      }
      rtt_ns->push_back(static_cast<double>(NowNs() - t0));
    }
    return true;
  }

 private:
  void Serve() {
    PinThread(pthread_self(), server_cpu_);
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) return;
    int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    char buf[kMsg];
    while (RecvAllFd(fd, buf, kMsg) && SendAllFd(fd, buf, kMsg)) {
    }
    ::close(fd);
  }

  const int client_cpu_;
  const int server_cpu_;
  int listen_fd_ = -1;
  int client_fd_ = -1;
  std::thread thread_;
};

// ---------------------------------------------------------------------
// The preloaded database. Lattice records have a key field k and a
// subset of {a, b, c, d}; the queried types sit at different levels of
// that lattice. The other values are heterogeneous non-lattice values.
// ---------------------------------------------------------------------

enum Field : unsigned { kA = 1, kB = 2, kC = 4, kD = 8 };

struct LatticeShape {
  unsigned fields;
  int weight;  // percent of the lattice records
};
// Result sizes (share of lattice records): {a,b,c,d} 1 %, {a,b,c}
// 10 %, {a,b} 25 %, {a,c} 35 %, {b} 50 %. The gaps between them keep a
// cycle's p50 and p90 from falling between two near-equal queries.
constexpr LatticeShape kShapes[] = {{kA, 25},          {kB, 25},
                                    {kA | kB, 15},     {kA | kC, 25},
                                    {kA | kB | kC, 9}, {kA | kB | kC | kD, 1}};
constexpr unsigned kQueries[] = {kA | kB | kC | kD, kA | kB | kC, kA | kB,
                                 kA | kC, kB};
constexpr unsigned kExtentQuery = kA | kB | kC;
constexpr int kOtherKinds = 6;

Type LatticeType(unsigned fields) {
  std::vector<std::pair<std::string, Type>> fs = {{"k", Type::Int()}};
  if (fields & kA) fs.emplace_back("a", Type::Int());
  if (fields & kB) fs.emplace_back("b", Type::String());
  if (fields & kC) fs.emplace_back("c", Type::Real());
  if (fields & kD) fs.emplace_back("d", Type::Bool());
  return Type::RecordOf(std::move(fs));
}

std::string Word(Rng* rng, int min_len, int max_len) {
  const int len = min_len + static_cast<int>(rng->Below(
                                static_cast<uint64_t>(max_len - min_len + 1)));
  std::string s(static_cast<size_t>(len), 'a');
  for (char& c : s) c = static_cast<char>('a' + rng->Below(26));
  return s;
}

/// A workload is the preloaded database: its shard count and the share
/// of lattice records in it.
struct Workload {
  int shards;
  int lattice_percent;
};

bool WorkloadOf(const std::string& name, Workload* out) {
  if (name == "point") *out = {1, 25};
  else if (name == "type_query") *out = {1, 100};
  else if (name == "follow") *out = {2, 50};
  else return false;
  return true;
}

/// Kind codes: 0..5 index kShapes (lattice), 6.. are other kinds.
Value MakeValue(int kind, int64_t key, Rng* rng) {
  if (kind < static_cast<int>(std::size(kShapes))) {
    const unsigned f = kShapes[kind].fields;
    std::vector<dbpl::core::RecordField> fs = {{"k", Value::Int(key)}};
    if (f & kA) fs.push_back({"a", Value::Int(static_cast<int64_t>(rng->Below(1000000)))});
    if (f & kB) fs.push_back({"b", Value::String(Word(rng, 4, 12))});
    if (f & kC) fs.push_back({"c", Value::Real(static_cast<double>(rng->Below(100000)) / 8.0)});
    if (f & kD) fs.push_back({"d", Value::Bool(rng->Below(2) == 1)});
    return Value::RecordOf(std::move(fs));
  }
  switch ((kind - static_cast<int>(std::size(kShapes))) % kOtherKinds) {
    case 0:
      return Value::Int(static_cast<int64_t>(rng->Next() >> 1));
    case 1:
      return Value::String(Word(rng, 3, 16));
    case 2: {
      std::vector<Value> xs;
      const int n = 1 + static_cast<int>(rng->Below(6));
      for (int i = 0; i < n; ++i) xs.push_back(Value::Int(static_cast<int64_t>(rng->Below(1000))));
      return Value::List(std::move(xs));
    }
    case 3:
      return Value::Tagged("t" + std::to_string(rng->Below(4)),
                           Value::Int(static_cast<int64_t>(rng->Below(1000))));
    case 4:
      return Value::RecordOf({{"x", Value::Int(static_cast<int64_t>(rng->Below(1000)))},
                              {"y", Value::Int(key)}});
    default: {
      std::vector<Value> tags;
      const int n = 1 + static_cast<int>(rng->Below(3));
      for (int i = 0; i < n; ++i) tags.push_back(Value::String(Word(rng, 3, 8)));
      return Value::RecordOf({{"name", Value::String(Word(rng, 4, 10))},
                              {"tags", Value::List(std::move(tags))}});
    }
  }
}

/// Exactly `entries` values whose kinds have fixed counts; the seed
/// shuffles their order and draws their contents.
std::vector<Value> MakeDataset(const Workload& w, int entries, uint64_t seed) {
  Rng rng(seed * 0x100000001b3ull + 7);
  const int lattice = entries * w.lattice_percent / 100;
  std::vector<int> kinds;
  kinds.reserve(static_cast<size_t>(entries));
  int assigned = 0;
  for (size_t s = 1; s < std::size(kShapes); ++s) {
    const int n = lattice * kShapes[s].weight / 100;
    kinds.insert(kinds.end(), static_cast<size_t>(n), static_cast<int>(s));
    assigned += n;
  }
  kinds.insert(kinds.end(), static_cast<size_t>(lattice - assigned), 0);
  for (int i = lattice; i < entries; ++i) {
    kinds.push_back(static_cast<int>(std::size(kShapes)) + i % kOtherKinds);
  }
  Shuffle(&kinds, &rng);
  std::vector<Value> values;
  values.reserve(static_cast<size_t>(entries));
  for (int i = 0; i < entries; ++i) values.push_back(MakeValue(kinds[static_cast<size_t>(i)], i, &rng));
  return values;
}

// ---------------------------------------------------------------------
// Results bookkeeping.
// ---------------------------------------------------------------------

struct Tally {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::string> errors;

  void Fail(const std::string& what) {
    ++attempted;
    ++failed;
    if (errors.size() < 20) errors.push_back(what);
  }
  /// Counts one operation, failed unless `ok`.
  void Check(bool ok, const std::string& what) {
    if (ok) ++attempted;
    else Fail(what);
  }
};

using Contents = std::vector<std::pair<EntryId, Dynamic>>;

Contents ContentsOf(const Snapshot& snap) {
  Contents out;
  out.reserve(snap.size());
  snap.ForEachEntry([&](EntryId id, const Dynamic& d) { out.emplace_back(id, d); });
  return out;
}

bool SameState(const Snapshot& a, const Snapshot& b) {
  return a.size() == b.size() && a.epoch() == b.epoch() &&
         ContentsOf(a) == ContentsOf(b);
}

void SortValues(std::vector<Value>* v) {
  std::sort(v->begin(), v->end(),
            [](const Value& x, const Value& y) { return Compare(x, y) < 0; });
}

struct Metrics {
  std::vector<std::pair<std::string, std::pair<double, std::string>>> items;
  void Set(const std::string& name, double value, const std::string& unit) {
    items.push_back({name, {value, unit}});
  }
};

// ---------------------------------------------------------------------
// The benchmark.
// ---------------------------------------------------------------------

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 20;
  bool trace = false;
  std::string work_dir;
  std::string trace_out;
  int entries = kDefaultEntries;
};

/// What the mixed loop interleaves, with its target share of the loop.
enum Activity { kPoint, kType, kPipe, kRecover, kCatchUp, kActivities };
constexpr double kShare[kActivities] = {0.40, 0.25, 0.09, 0.14, 0.12};
// The run alternates kSegments parts of the mixed loop with as many
// streaming segments, so no one stretch of the host decides a metric.
constexpr int kSegments = 3;

class Bench {
 public:
  Bench(const Args& args, const Workload& w)
      : args_(args),
        w_(w),
        tracer_(args.trace),
        vfs_(dbpl::storage::Vfs::Default()),
        recovery_vfs_(dbpl::storage::Vfs::Default()),
        rng_(args.seed ^ 0xd1b54a32d192ed03ull) {}

  int Run();

 private:
  struct Query {
    unsigned fields;
    ReqOp op;
  };

  WalOptions Options() const {
    return WalOptions{CommitPolicy{kManualCommit, true}, w_.shards};
  }
  int64_t BudgetNs(double share) const {
    return static_cast<int64_t>(args_.seconds * share * 1e9);
  }
  Client Connect() {
    auto client = Client::Connect("127.0.0.1", server_->port());
    if (!client.ok()) Die("client connect", client.status());
    return std::move(*client);
  }
  /// Writers insert only non-lattice values, so the Get[T] results keep
  /// a fixed size however many writes a run makes.
  Value NextWriteValue() {
    const int kind = static_cast<int>(std::size(kShapes)) +
                     static_cast<int>(rng_.Below(kOtherKinds));
    return MakeValue(kind, next_key_++, &rng_);
  }
  void Echo(int n) {
    if (!echo_->Block(n, &rtt_ns_)) Die("echo", Status::Internal("echo round trip failed"));
  }

  void Setup();
  void StartServer(int workers);
  void StopServer();
  void StreamSegment();
  void CatchUp(bool exact, std::unique_ptr<RemoteShipper>* shipper,
               std::unique_ptr<Replica>* follower);
  void Retire(std::unique_ptr<RemoteShipper>* shipper, std::unique_ptr<Replica>* follower);
  void ServeLoop();
  void UnserveLoop();
  void LoopFor(int64_t budget_ns, bool last);
  void PointBlock(bool traced);
  void TracedGet(size_t k);
  void PipeWindow();
  void TypeQuery(const Query& q);
  void RecoveryRep();
  void LogScan();
  void InProcessApply();
  void CommitProbe();
  double ChecksPerRow() const;
  void Report();

  const Args args_;
  const Workload w_;
  Tracer tracer_;
  CountingVfs vfs_;           // the primary's I/O
  CountingVfs recovery_vfs_;  // restart recovery of the archive copy
  Rng rng_;
  Tally tally_;
  Metrics m_;
  std::unique_ptr<PinnedEcho> echo_;

  std::vector<Value> dataset_;
  std::string dir_, archive_dir_;
  std::unique_ptr<WalDatabase> wdb_;
  std::unique_ptr<Server> server_;
  dbpl::serve::ServerStats server_totals_{};
  /// Preloaded ids and their expected entries.
  std::vector<EntryId> ids_;
  std::vector<Dynamic> expected_;
  int64_t next_key_ = 0;
  /// The preloaded state; the archive holds it, every recovery must
  /// reproduce it.
  std::unique_ptr<Snapshot> preload_;
  Contents archive_contents_;

  // Clients of the mixed loop.
  std::unique_ptr<Client> point_client_, type_client_;
  std::vector<Client> pipe_clients_;
  std::vector<std::deque<size_t>> pipe_inflight_;
  std::vector<std::pair<EntryId, Value>> written_;
  std::vector<Query> cycle_;
  double spent_[kActivities] = {};
  int units_[kActivities] = {};
  int block_ = 0;
  size_t cycle_pos_ = 0;
  int cycles_done_ = 0;
  std::map<unsigned, std::vector<Value>> expect_;
  std::map<unsigned, uint64_t> expect_epoch_;
  uint64_t cycle_rows_ = 0;
  double cycle_ns_ = 0;

  std::vector<double> setup_s_, rtt_ns_;
  // follow
  std::vector<double> recover_rate_, catchup_rate_, ship_delay_ns_, late_ns_;
  std::vector<double> reads_per_record_, rpcs_per_record_, rpc_ns_;
  uint64_t log_records_ = 0;
  dbpl::persist::ReplicaStats stream_stats_{};
  RemoteShipper::Stats shipper_totals_{};
  // point
  std::vector<double> get_ns_, get_traced_ns_, commit_ns_, ping_ns_, pipe_rate_;
  std::vector<double> transport_ns_, snapshot_ns_, dget_ns_, codec_ns_;
  std::vector<double> serial_enc_ns_, serial_dec_ns_;
  // type_query
  std::vector<double> type_ns_, type_rows_per_s_;
  std::vector<double> retype_ns_, encode_ns_, frame_ns_, decode_ns_;
  std::vector<double> scan_ns_, index_ns_, extent_ns_;
  // Totals over the first type_query cycle: exact for a seed.
  uint64_t cycle_bytes_ = 0, cycle_rows_total_ = 0;
  // probes
  std::vector<double> insert_ns_, commit_inproc_ns_;
  double syncs_per_commit_ = 0, wal_bytes_per_insert_ = 0;
  double log_rec_per_s_ = 0, apply_rec_per_s_ = 0;
};

void Bench::StartServer(int workers) {
  ServeOptions opts;
  opts.listen = true;
  opts.port = 0;
  opts.workers = workers;
  auto server = Server::Start(wdb_.get(), opts);
  if (!server.ok()) Die("server start", server.status());
  server_ = std::move(*server);
}

void Bench::StopServer() {
  if (server_ == nullptr) return;
  const dbpl::serve::ServerStats s = server_->stats();
  server_totals_.requests_error += s.requests_error;
  server_totals_.protocol_errors += s.protocol_errors;
  server_.reset();
}

// Set-up: preload through WalDatabase::Insert with a commit every
// kPreloadCommitEvery inserts, register the extent, start the server.
// Repeated kSetups times on fresh directories; the last one is kept,
// and a copy of its directory is the archive that restart recovery
// replays.
void Bench::Setup() {
  dataset_ = MakeDataset(w_, args_.entries, args_.seed);
  next_key_ = args_.entries;
  for (int rep = 0; rep < kSetups; ++rep) {
    StopServer();
    wdb_.reset();
    if (!dir_.empty()) std::filesystem::remove_all(dir_);
    dir_ = args_.work_dir + "/db" + std::to_string(rep);
    std::filesystem::remove_all(dir_);
    ids_.clear();
    ids_.reserve(dataset_.size());

    const int64_t t0 = NowNs();
    auto wdb = WalDatabase::Open(&vfs_, dir_, Options());
    if (!wdb.ok()) Die("open", wdb.status());
    wdb_ = std::move(*wdb);
    Status s = wdb_->RegisterExtent("q", LatticeType(kExtentQuery));
    if (!s.ok()) Die("register extent", s);
    for (size_t i = 0; i < dataset_.size(); ++i) {
      auto id = wdb_->Insert(MakeDynamic(dataset_[i]));
      if (!id.ok()) Die("preload insert", id.status());
      ids_.push_back(*id);
      if ((i + 1) % kPreloadCommitEvery == 0) {
        s = wdb_->Commit();
        if (!s.ok()) Die("preload commit", s);
      }
    }
    s = wdb_->Commit();
    if (!s.ok()) Die("preload commit", s);
    StartServer(2);
    setup_s_.push_back(static_cast<double>(NowNs() - t0) / 1e9);
  }
  const Snapshot snap = wdb_->db().GetSnapshot();
  expected_.clear();
  for (size_t i = 0; i < ids_.size(); ++i) {
    auto d = snap.Get(ids_[i]);
    const bool ok = d.ok() && *d == MakeDynamic(dataset_[i]);
    tally_.Check(ok, "preloaded entry does not read back");
    expected_.push_back(d.ok() ? *d : Dynamic{});
  }
  archive_dir_ = args_.work_dir + "/archive";
  std::filesystem::remove_all(archive_dir_);
  std::filesystem::copy(dir_, archive_dir_, std::filesystem::copy_options::recursive);
  archive_contents_ = ContentsOf(snap);
  preload_ = std::make_unique<Snapshot>(snap);
  StopServer();
}

// Restart recovery: WalDatabase::Open on the archive copy, which must
// reproduce the preloaded state exactly. The archive never changes, so
// every repetition does the same work and reads the same count.
void Bench::RecoveryRep() {
  recovery_vfs_.reads.store(0);
  const uint32_t op = tracer_.NewOp();
  const int32_t span = tracer_.on() ? tracer_.Begin("persist.open", op, -1) : -1;
  const int64_t t0 = NowNs();
  auto wdb = WalDatabase::Open(&recovery_vfs_, archive_dir_, Options());
  const int64_t ns = NowNs() - t0;
  if (span >= 0) tracer_.End(span);
  if (!wdb.ok()) Die("recovery open", wdb.status());
  const auto& rs = (*wdb)->recovery_stats();
  const Snapshot after = (*wdb)->db().GetSnapshot();
  tally_.Check(!rs.corrupt_tail && after.epoch() == preload_->epoch() &&
                   ContentsOf(after) == archive_contents_,
               "recovered database differs from the preloaded state");
  const double records = static_cast<double>(rs.replayed_inserts + rs.replayed_extents);
  recover_rate_.push_back(records / (static_cast<double>(ns) / 1e9));
  if (log_records_ > 0) {
    reads_per_record_.push_back(static_cast<double>(recovery_vfs_.reads.load()) /
                                static_cast<double>(log_records_));
  }
}

// One wire catch-up: a fresh follower dials the primary and replays its
// whole history. An exact one attaches without a poll thread, so its RPC
// count is exact; otherwise the follower keeps streaming afterwards.
void Bench::CatchUp(bool exact, std::unique_ptr<RemoteShipper>* shipper,
                    std::unique_ptr<Replica>* follower) {
  auto dialed = RemoteShipper::Connect("127.0.0.1", server_->port());
  if (!dialed.ok()) Die("shipper connect", dialed.status());
  *shipper = std::move(*dialed);
  *follower = std::make_unique<Replica>();
  const Snapshot primary = wdb_->db().GetSnapshot();
  const double records = static_cast<double>(primary.size());
  const uint64_t rpcs0 = (*shipper)->stats().rpcs;
  const uint32_t op = tracer_.NewOp();
  const int32_t span = tracer_.on() ? tracer_.Begin("remote_shipper.catchup", op, -1) : -1;
  const int64_t t0 = NowNs();
  Status s = (*follower)->Attach(
      shipper->get(), {exact ? std::chrono::milliseconds(0) : kPollInterval});
  const int64_t ns = NowNs() - t0;
  if (span >= 0) tracer_.End(span);
  const uint64_t rpcs = (*shipper)->stats().rpcs - rpcs0;
  tally_.Check(s.ok() && SameState((*follower)->db().GetSnapshot(), primary),
               "wire follower did not converge: " + s.ToString());
  catchup_rate_.push_back(records / (static_cast<double>(ns) / 1e9));
  if (exact) {
    rpcs_per_record_.push_back(static_cast<double>(rpcs) / records);
    rpc_ns_.push_back(static_cast<double>(ns) / static_cast<double>(rpcs));
  }
  Echo(kStreamEcho);
}

void Bench::Retire(std::unique_ptr<RemoteShipper>* shipper,
                   std::unique_ptr<Replica>* follower) {
  (*follower)->Detach();
  const RemoteShipper::Stats st = (*shipper)->stats();
  shipper_totals_.reconnects += st.reconnects;
  shipper_totals_.transport_errors += st.transport_errors;
  follower->reset();
  shipper->reset();
}

// follow, streaming: a fresh follower catches up (one more catch-up
// sample) and keeps polling every 1 ms behind a generator that commits
// kStreamBatch inserts every kStreamPeriod over the wire. One server
// worker leaves a CPU for the follower's poll thread.
void Bench::StreamSegment() {
  UnserveLoop();
  StartServer(1);
  std::unique_ptr<RemoteShipper> shipper;
  std::unique_ptr<Replica> follower;
  Echo(kEchoBlock);
  CatchUp(false, &shipper, &follower);
  Echo(kEchoBlock);

  Client client = Connect();
  uint64_t epoch = wdb_->db().epoch();
  const int64_t period = std::chrono::duration_cast<std::chrono::nanoseconds>(kStreamPeriod).count();
  const int batches =
      std::max(10, static_cast<int>(BudgetNs(0.15 / kSegments) / period));
  const int64_t start = NowNs() + period;
  for (int b = 0; b < batches; ++b) {
    const int64_t due = start + b * period;
    if (due - NowNs() > 200000) {
      std::this_thread::sleep_for(std::chrono::nanoseconds(due - NowNs() - 100000));
    }
    while (NowNs() < due) {
    }
    late_ns_.push_back(static_cast<double>(NowNs() - due));
    bool ok = true;
    for (int i = 0; i < kStreamBatch; ++i) {
      Request req;
      req.op = ReqOp::kInsert;
      req.entry = MakeDynamic(NextWriteValue());
      ok = ok && client.Send(std::move(req)).ok();
    }
    Request commit;
    commit.op = ReqOp::kCommit;
    ok = ok && client.Send(std::move(commit)).ok();
    for (int i = 0; i <= kStreamBatch && ok; ++i) {
      auto r = client.Await();
      ok = r.ok() && r->status.ok();
    }
    const int64_t acked = NowNs();
    epoch += kStreamBatch;
    ok = ok && follower->WaitForEpoch(epoch, kWaitTimeout).ok();
    const int64_t visible = NowNs();
    tally_.Check(ok, "streaming batch did not reach the follower");
    if (ok) ship_delay_ns_.push_back(static_cast<double>(visible - acked));
    Echo(kStreamEcho);
  }
  tally_.Check(follower->WaitForEpoch(wdb_->db().epoch(), kWaitTimeout).ok() &&
                   SameState(follower->db().GetSnapshot(), wdb_->db().GetSnapshot()),
               "streaming follower differs from the primary");
  const dbpl::persist::ReplicaStats rs = follower->stats();
  stream_stats_.bootstraps += rs.bootstraps;
  stream_stats_.resyncs += rs.resyncs;
  stream_stats_.polls += rs.polls;
  Retire(&shipper, &follower);
  StopServer();
  ServeLoop();
}

// point, closed loop on one connection: kBlockOps requests, each a Get
// of a random preloaded id or (kWritePercent %) an Insert then a Commit
// with fsync; then an echo block. Traced runs alternate traced and
// untraced blocks, which measures the tracing overhead.
void Bench::PointBlock(bool traced) {
  for (int i = 0; i < kBlockOps; ++i) {
    if (static_cast<int>(rng_.Below(100)) < kWritePercent) {
      Value v = NextWriteValue();
      const int64_t t0 = NowNs();
      auto id = point_client_->Insert(MakeDynamic(v));
      Status s = id.ok() ? point_client_->Commit() : id.status();
      const int64_t ns = NowNs() - t0;
      tally_.Check(s.ok(), "insert+commit failed: " + s.ToString());
      if (s.ok()) {
        commit_ns_.push_back(static_cast<double>(ns));
        written_.emplace_back(*id, std::move(v));
      }
      continue;
    }
    const size_t k = rng_.Below(ids_.size());
    if (traced) {
      TracedGet(k);
      continue;
    }
    const int64_t t0 = NowNs();
    auto d = point_client_->Get(ids_[k]);
    const int64_t ns = NowNs() - t0;
    tally_.Check(d.ok() && *d == expected_[k], "Get answer differs from the snapshot");
    get_ns_.push_back(static_cast<double>(ns));
  }
  Echo(kEchoBlock);
  if (tracer_.on()) {
    for (int i = 0; i < kPingBlock; ++i) {
      const int64_t t0 = NowNs();
      Status s = point_client_->Ping();
      tally_.Check(s.ok(), "ping failed");
      ping_ns_.push_back(static_cast<double>(NowNs() - t0));
    }
  }
}

// A traced Get: the wire round trip, then the same work replayed
// in-process layer by layer under one op id. What the replays do not
// account for is transport plus dispatch.
void Bench::TracedGet(size_t k) {
  const uint32_t op = tracer_.NewOp();
  const int32_t root = tracer_.Begin("op.get", op, -1);
  int32_t sp = tracer_.Begin("wire.get", op, root);
  auto d = point_client_->Get(ids_[k]);
  const int64_t wire = tracer_.End(sp);
  tally_.Check(d.ok() && *d == expected_[k], "Get answer differs from the snapshot");
  get_traced_ns_.push_back(static_cast<double>(wire));
  sp = tracer_.Begin("dyndb.snapshot", op, root);
  const Snapshot snap = wdb_->db().GetSnapshot();
  const int64_t snap_ns = tracer_.End(sp);
  sp = tracer_.Begin("dyndb.get", op, root);
  auto local = snap.Get(ids_[k]);
  const int64_t get_ns = tracer_.End(sp);
  if (!local.ok()) Die("in-process get", local.status());
  Response resp;
  resp.id = 1;
  resp.op = ReqOp::kGet;
  resp.entries.push_back(*local);
  ByteBuffer row, body, frame;
  sp = tracer_.Begin("serial.encode", op, root);
  dbpl::serial::EncodeDynamic(*local, &row);
  serial_enc_ns_.push_back(static_cast<double>(tracer_.End(sp)));
  sp = tracer_.Begin("serial.decode", op, root);
  ByteReader reader(row.data(), row.size());
  auto back = dbpl::serial::DecodeDynamic(&reader);
  serial_dec_ns_.push_back(static_cast<double>(tracer_.End(sp)));
  const int64_t c0 = NowNs();
  sp = tracer_.Begin("serve.encode", op, root);
  dbpl::serve::EncodeResponse(resp, &body);
  tracer_.End(sp);
  sp = tracer_.Begin("serve.frame", op, root);
  Status fs = dbpl::serve::EncodeFrame(body, &frame);
  tracer_.End(sp);
  size_t total = 0;
  std::string error;
  sp = tracer_.Begin("serve.inspect", op, root);
  const auto fst = dbpl::serve::InspectFrame(frame.data(), frame.size(), &total, &error);
  tracer_.End(sp);
  sp = tracer_.Begin("serve.decode", op, root);
  auto decoded = dbpl::serve::DecodeResponse(frame.data() + dbpl::serve::kFrameHeaderBytes,
                                             frame.size() - dbpl::serve::kFrameHeaderBytes);
  tracer_.End(sp);
  const int64_t codec = NowNs() - c0;
  tracer_.End(root);
  tally_.Check(back.ok() && *back == *local && fs.ok() &&
                   fst == dbpl::serve::FrameStatus::kFrame && decoded.ok() &&
                   decoded->entries == resp.entries,
               "in-process codec round trip differs");
  snapshot_ns_.push_back(static_cast<double>(snap_ns));
  dget_ns_.push_back(static_cast<double>(get_ns));
  codec_ns_.push_back(static_cast<double>(codec));
  transport_ns_.push_back(static_cast<double>(wire - snap_ns - get_ns - codec));
}

// point, pipelined: kPipeConnections connections with kPipeDepth Gets
// in flight each, all driven round-robin from this one thread, for one
// kPipeWindow. The rate is taken per window.
void Bench::PipeWindow() {
  auto send = [&](size_t c) {
    const size_t k = rng_.Below(ids_.size());
    Request req;
    req.op = ReqOp::kGet;
    req.entry_id = ids_[k];
    if (!pipe_clients_[c].Send(std::move(req)).ok()) {
      Die("pipelined send", Status::Internal("send failed"));
    }
    pipe_inflight_[c].push_back(k);
  };
  auto await = [&](size_t c) {
    auto r = pipe_clients_[c].Await();
    const size_t k = pipe_inflight_[c].front();
    pipe_inflight_[c].pop_front();
    tally_.Check(r.ok() && r->status.ok() && r->entries.size() == 1 && r->entries[0] == expected_[k],
                 "pipelined Get answer differs from the snapshot");
  };
  for (size_t c = 0; c < pipe_clients_.size(); ++c) {
    while (pipe_inflight_[c].size() < kPipeDepth) send(c);
  }
  uint64_t done = 0;
  const int64_t t0 = NowNs();
  const int64_t end = t0 + std::chrono::duration_cast<std::chrono::nanoseconds>(kPipeWindow).count();
  while (NowNs() < end) {
    for (size_t c = 0; c < pipe_clients_.size(); ++c) {
      await(c);
      send(c);
      ++done;
    }
  }
  pipe_rate_.push_back(static_cast<double>(done) / (static_cast<double>(NowNs() - t0) / 1e9));
  for (size_t c = 0; c < pipe_clients_.size(); ++c) {
    while (!pipe_inflight_[c].empty()) await(c);
  }
}

// type_query: one Get[T] round trip. The result must equal the
// in-process GetViaIndex on a snapshot at the same epoch (recomputed
// whenever the epoch moved), so all three strategies agree.
void Bench::TypeQuery(const Query& q) {
  const Type t = LatticeType(q.fields);
  const uint64_t epoch = wdb_->db().epoch();
  if (expect_epoch_[q.fields] != epoch || !expect_.count(q.fields)) {
    std::vector<Value> v = wdb_->db().GetSnapshot().GetViaIndex(t);
    SortValues(&v);
    expect_[q.fields] = std::move(v);
    expect_epoch_[q.fields] = epoch;
  }
  const bool first_cycle = cycles_done_ == 0;
  const uint32_t op = tracer_.NewOp();
  const int32_t root = tracer_.on() ? tracer_.Begin("op.type_query", op, -1) : -1;
  int32_t sp = tracer_.on() ? tracer_.Begin("wire.type_query", op, root) : -1;
  const int64_t t0 = NowNs();
  Result<std::vector<Value>> got = q.op == ReqOp::kGetScan ? type_client_->GetScan(t)
                                   : q.op == ReqOp::kGetViaIndex
                                       ? type_client_->GetViaIndex(t)
                                       : type_client_->GetViaExtent(t);
  const int64_t ns = NowNs() - t0;
  if (sp >= 0) tracer_.End(sp);
  bool ok = got.ok() && wdb_->db().epoch() == epoch;
  if (ok) {
    type_ns_.push_back(static_cast<double>(ns));
    cycle_rows_ += got->size();
    cycle_ns_ += static_cast<double>(ns);
    SortValues(&*got);
    ok = *got == expect_[q.fields];
  }
  tally_.Check(ok, "Get[T] answer differs from in-process GetViaIndex");
  if (!tracer_.on()) return;

  // The same query replayed in-process, layer by layer.
  sp = tracer_.Begin("dyndb.snapshot", op, root);
  const Snapshot local = wdb_->db().GetSnapshot();
  tracer_.End(sp);
  std::vector<Value> rows;
  if (q.op == ReqOp::kGetScan) {
    sp = tracer_.Begin("dyndb.scan", op, root);
    rows = local.GetScan(t);
    scan_ns_.push_back(static_cast<double>(tracer_.End(sp)));
  } else if (q.op == ReqOp::kGetViaIndex) {
    sp = tracer_.Begin("dyndb.index", op, root);
    rows = local.GetViaIndex(t);
    index_ns_.push_back(static_cast<double>(tracer_.End(sp)));
  } else {
    sp = tracer_.Begin("dyndb.extent", op, root);
    auto r = local.GetViaExtent(t);
    extent_ns_.push_back(static_cast<double>(tracer_.End(sp)));
    if (!r.ok()) Die("in-process extent", r.status());
    rows = std::move(*r);
  }
  Response resp;
  resp.id = 1;
  resp.op = q.op;
  sp = tracer_.Begin("serve.retype", op, root);
  for (Value& v : rows) resp.entries.push_back(MakeDynamic(std::move(v)));
  retype_ns_.push_back(static_cast<double>(tracer_.End(sp)));
  ByteBuffer body, frame;
  sp = tracer_.Begin("serve.encode", op, root);
  dbpl::serve::EncodeResponse(resp, &body);
  encode_ns_.push_back(static_cast<double>(tracer_.End(sp)));
  sp = tracer_.Begin("serve.frame", op, root);
  Status fs = dbpl::serve::EncodeFrame(body, &frame);
  frame_ns_.push_back(static_cast<double>(tracer_.End(sp)));
  sp = tracer_.Begin("serve.decode", op, root);
  auto decoded = dbpl::serve::DecodeResponse(frame.data() + dbpl::serve::kFrameHeaderBytes,
                                             frame.size() - dbpl::serve::kFrameHeaderBytes);
  decode_ns_.push_back(static_cast<double>(tracer_.End(sp)));
  tracer_.End(root);
  tally_.Check(fs.ok() && decoded.ok() && decoded->entries.size() == resp.entries.size(),
               "in-process Get[T] codec round trip differs");
  if (first_cycle) {
    cycle_bytes_ += frame.size();
    cycle_rows_total_ += resp.entries.size();
  }
}

// The mixed loop's server (2 workers) and its clients.
void Bench::ServeLoop() {
  StartServer(2);
  point_client_ = std::make_unique<Client>(Connect());
  type_client_ = std::make_unique<Client>(Connect());
  for (int c = 0; c < kPipeConnections; ++c) pipe_clients_.push_back(Connect());
  pipe_inflight_.assign(kPipeConnections, {});
}

void Bench::UnserveLoop() {
  point_client_.reset();
  type_client_.reset();
  pipe_clients_.clear();
  StopServer();
}

// The point, pipelined, type_query, recovery and catch-up work,
// interleaved by a deficit scheduler in small units, so a slow stretch
// of the host is shared by every metric instead of falling on one
// phase. The last part also runs until every activity has run twice
// and the type_query cycle is whole, so the query mix is balanced.
void Bench::LoopFor(int64_t budget_ns, bool last) {
  std::unique_ptr<RemoteShipper> shipper;
  std::unique_ptr<Replica> follower;
  const int64_t end = NowNs() + budget_ns;
  while (NowNs() < end ||
         (last && (cycle_pos_ != 0 || cycles_done_ < 2 ||
                   *std::min_element(units_, units_ + kActivities) < 2))) {
    int a = 0;
    for (int i = 1; i < kActivities; ++i) {
      if (spent_[i] / kShare[i] < spent_[a] / kShare[a]) a = i;
    }
    if (last && NowNs() >= end && cycle_pos_ != 0) a = kType;
    const int64_t t0 = NowNs();
    switch (a) {
      case kPoint:
        PointBlock(tracer_.on() && block_++ % 2 == 1);
        break;
      case kType:
        TypeQuery(cycle_[cycle_pos_]);
        if (++cycle_pos_ == cycle_.size()) {
          type_rows_per_s_.push_back(static_cast<double>(cycle_rows_) / (cycle_ns_ / 1e9));
          cycle_rows_ = 0;
          cycle_ns_ = 0;
          cycle_pos_ = 0;
          ++cycles_done_;
          Shuffle(&cycle_, &rng_);
        }
        break;
      case kPipe:
        PipeWindow();
        break;
      case kRecover:
        RecoveryRep();
        break;
      default:
        CatchUp(true, &shipper, &follower);
        Retire(&shipper, &follower);
        break;
    }
    spent_[a] += static_cast<double>(NowNs() - t0);
    ++units_[a];
  }
}

// LogReader::Next over every segment of the archive; sets log_records_
// (commit markers included), the denominator of reads_per_record.
void Bench::LogScan() {
  const uint32_t op = tracer_.NewOp();
  const int32_t span = tracer_.Begin("storage.log_scan", op, -1);
  const int64_t t0 = NowNs();
  uint64_t records = 0;
  for (int s = 0; s < wdb_->shard_count(); ++s) {
    const std::string name = std::filesystem::path(wdb_->wal_path(s)).filename();
    auto reader = dbpl::storage::LogReader::Open(&recovery_vfs_, archive_dir_ + "/" + name);
    if (!reader.ok()) Die("log reader", reader.status());
    dbpl::storage::LogRecord rec;
    while (true) {
      auto has = (*reader)->Next(&rec);
      if (!has.ok()) Die("log read", has.status());
      if (!*has) break;
      ++records;
    }
  }
  log_rec_per_s_ = static_cast<double>(records) / (static_cast<double>(NowNs() - t0) / 1e9);
  tracer_.End(span);
  log_records_ = records;
}

// Replica::Attach on the primary's own in-process shipper: the
// follower's apply ceiling, with no wire.
void Bench::InProcessApply() {
  std::vector<double> rates;
  const Snapshot primary = wdb_->db().GetSnapshot();
  for (int rep = 0; rep < 2; ++rep) {
    Replica follower;
    const uint32_t op = tracer_.NewOp();
    const int32_t span = tracer_.Begin("replica.attach", op, -1);
    const int64_t t0 = NowNs();
    Status s = follower.Attach(wdb_.get());
    const int64_t ns = NowNs() - t0;
    tracer_.End(span);
    tally_.Check(s.ok() && SameState(follower.db().GetSnapshot(), primary),
                 "in-process follower did not converge");
    rates.push_back(static_cast<double>(primary.size()) / (static_cast<double>(ns) / 1e9));
    follower.Detach();
  }
  apply_rec_per_s_ = Median(rates);
}

// In-process WalDatabase::Insert + Commit, kCommitProbe times: the
// write path's own cost, its fsyncs and its WAL bytes. Own generator
// and keys: the probe writes the same values for a seed however much
// the timed phases wrote before it.
void Bench::CommitProbe() {
  Rng rng(args_.seed + 0x5eed);
  const uint64_t syncs0 = vfs_.syncs.load();
  const uint64_t bytes0 = wdb_->wal_bytes();
  for (int i = 0; i < kCommitProbe; ++i) {
    const int kinds = static_cast<int>(std::size(kShapes)) + kOtherKinds;
    Value v = MakeValue(i % kinds, -1 - i, &rng);
    const uint32_t op = tracer_.NewOp();
    const int32_t root = tracer_.Begin("op.commit_probe", op, -1);
    int32_t sp = tracer_.Begin("persist.insert", op, root);
    auto id = wdb_->Insert(MakeDynamic(v));
    insert_ns_.push_back(static_cast<double>(tracer_.End(sp)));
    sp = tracer_.Begin("persist.commit", op, root);
    Status s = wdb_->Commit();
    commit_inproc_ns_.push_back(static_cast<double>(tracer_.End(sp)));
    tracer_.End(root);
    tally_.Check(id.ok() && s.ok(), "in-process insert+commit failed");
  }
  syncs_per_commit_ = static_cast<double>(vfs_.syncs.load() - syncs0) / kCommitProbe;
  wal_bytes_per_insert_ = static_cast<double>(wdb_->wal_bytes() - bytes0) / kCommitProbe;
}

// Subtype checks per returned row over one query cycle on the preloaded
// state: a scan checks every entry, the index each distinct principal
// type. Taken on the preload so it is exact for a seed.
double Bench::ChecksPerRow() const {
  uint64_t checks = 0, rows = 0;
  for (const Query& q : cycle_) {
    if (q.op == ReqOp::kGetViaExtent) continue;
    checks += q.op == ReqOp::kGetScan ? preload_->size() : preload_->DistinctTypeCount();
    rows += preload_->GetViaIndex(LatticeType(q.fields)).size();
  }
  return static_cast<double>(checks) / static_cast<double>(rows);
}

/// True when every value is equal: counts that must repeat exactly.
bool AllEqual(const std::vector<double>& v) {
  return std::all_of(v.begin(), v.end(), [&](double x) { return x == v.front(); });
}

void Bench::Report() {
  const double rtt = Median(rtt_ns_);
  std::printf("# host: pinned loopback echo p50 %.2f us over %zu round trips\n", rtt / 1e3,
              rtt_ns_.size());
  std::printf("# raw: get p50 %.2f us p90 %.2f us p99 %.2f us (n=%zu); commit p50 %.1f us "
              "p90 %.1f us (n=%zu); pipelined %.0f Gets/s; catch-up %.0f rec/s (n=%zu); ship "
              "delay p50 %.3f ms p90 %.3f ms (n=%zu); generator late p50 %.3f ms max %.3f ms\n",
              Pct(get_ns_, 0.5) / 1e3, Pct(get_ns_, 0.9) / 1e3, Pct(get_ns_, 0.99) / 1e3,
              get_ns_.size(), Pct(commit_ns_, 0.5) / 1e3, Pct(commit_ns_, 0.9) / 1e3,
              commit_ns_.size(), Median(pipe_rate_), Median(catchup_rate_), catchup_rate_.size(),
              Pct(ship_delay_ns_, 0.5) / 1e6, Pct(ship_delay_ns_, 0.9) / 1e6,
              ship_delay_ns_.size(), Pct(late_ns_, 0.5) / 1e6, Pct(late_ns_, 1.0) / 1e6);
  std::printf("# raw: type_query p50 %.3f ms p90 %.3f ms, %.0f rows/s (%zu queries in %zu "
              "cycles); recovery %.0f rec/s (n=%zu); set-up %.4f s\n",
              Pct(type_ns_, 0.5) / 1e6, Pct(type_ns_, 0.9) / 1e6, Median(type_rows_per_s_),
              type_ns_.size(), type_rows_per_s_.size(), Median(recover_rate_),
              recover_rate_.size(), Median(setup_s_));
  if (!tracer_.on()) {
    // Every time but set-up is in units of the host's round trip.
    m_.Set("get_p50_rtt", WindowedPct(get_ns_, kGetWindow, 0.5) / rtt, "rtt");
    m_.Set("get_p90_rtt", WindowedPct(get_ns_, kGetWindow, 0.9) / rtt, "rtt");
    m_.Set("commit_p50_rtt", WindowedPct(commit_ns_, kCommitWindow, 0.5) / rtt, "rtt");
    m_.Set("commit_p90_rtt", WindowedPct(commit_ns_, kCommitWindow, 0.9) / rtt, "rtt");
    m_.Set("get_per_rtt", Median(pipe_rate_) * rtt / 1e9, "1/rtt");
    m_.Set("type_p50_rtt", WindowedPct(type_ns_, kTypeWindow, 0.5) / rtt, "rtt");
    m_.Set("type_p90_rtt", WindowedPct(type_ns_, kTypeWindow, 0.9) / rtt, "rtt");
    m_.Set("type_rows_per_rtt", Median(type_rows_per_s_) * rtt / 1e9, "1/rtt");
    m_.Set("recover_rec_per_rtt", Median(recover_rate_) * rtt / 1e9, "1/rtt");
    m_.Set("catchup_rec_per_rtt", Median(catchup_rate_) * rtt / 1e9, "1/rtt");
    m_.Set("ship_delay_p50_rtt", WindowedPct(ship_delay_ns_, kShipWindow, 0.5) / rtt, "rtt");
    m_.Set("ship_delay_p90_rtt", WindowedPct(ship_delay_ns_, kShipWindow, 0.9) / rtt, "rtt");
    m_.Set("setup_s", Median(setup_s_), "s");
    return;
  }
  // Recovery replays the same archive every time, so its read count
  // must repeat exactly; run.py --smoke compares two runs of one seed.
  tally_.Check(AllEqual(reads_per_record_), "recovery read counts differ between repetitions");
  m_.Set("host.rtt_p50_us", rtt / 1e3, "us");
  m_.Set("serve.ping_p50_us", Median(ping_ns_) / 1e3, "us");
  m_.Set("serve.get_p50_us", Median(get_ns_) / 1e3, "us");
  m_.Set("serve.get_p99_us", Pct(get_ns_, 0.99) / 1e3, "us");
  m_.Set("serve.get_samples", static_cast<double>(get_ns_.size()), "count");
  m_.Set("serve.commit_p50_us", Median(commit_ns_) / 1e3, "us");
  m_.Set("serve.get_per_s", Median(pipe_rate_), "1/s");
  m_.Set("serve.get_codec_ns", Median(codec_ns_), "ns");
  m_.Set("serve.transport_dispatch_us", Median(transport_ns_) / 1e3, "us");
  m_.Set("serve.type_p50_ms", Pct(type_ns_, 0.5) / 1e6, "ms");
  m_.Set("serve.type_rows_per_s", Median(type_rows_per_s_), "1/s");
  m_.Set("serve.retype_ms", Median(retype_ns_) / 1e6, "ms");
  m_.Set("serve.encode_ms", Median(encode_ns_) / 1e6, "ms");
  m_.Set("serve.frame_ms", Median(frame_ns_) / 1e6, "ms");
  m_.Set("serve.decode_ms", Median(decode_ns_) / 1e6, "ms");
  m_.Set("serve.bytes_per_row",
         static_cast<double>(cycle_bytes_) / static_cast<double>(cycle_rows_total_), "count");
  m_.Set("serve.requests_error", static_cast<double>(server_totals_.requests_error), "count");
  m_.Set("serve.protocol_errors", static_cast<double>(server_totals_.protocol_errors), "count");
  m_.Set("serial.encode_ns", Median(serial_enc_ns_), "ns");
  m_.Set("serial.decode_ns", Median(serial_dec_ns_), "ns");
  m_.Set("dyndb.snapshot_ns", Median(snapshot_ns_), "ns");
  m_.Set("dyndb.get_ns", Median(dget_ns_), "ns");
  m_.Set("dyndb.scan_ms", Median(scan_ns_) / 1e6, "ms");
  m_.Set("dyndb.index_ms", Median(index_ns_) / 1e6, "ms");
  m_.Set("dyndb.extent_ms", Median(extent_ns_) / 1e6, "ms");
  m_.Set("dyndb.checks_per_row", ChecksPerRow(), "count");
  m_.Set("persist.insert_us", Median(insert_ns_) / 1e3, "us");
  m_.Set("persist.commit_us", Median(commit_inproc_ns_) / 1e3, "us");
  m_.Set("persist.wal_bytes_per_insert", wal_bytes_per_insert_, "count");
  m_.Set("persist.recover_rec_per_s", Median(recover_rate_), "1/s");
  m_.Set("storage.log_rec_per_s", log_rec_per_s_, "1/s");
  m_.Set("storage.reads_per_record", reads_per_record_.front(), "count");
  m_.Set("storage.syncs_per_commit", syncs_per_commit_, "count");
  m_.Set("replica.apply_rec_per_s", apply_rec_per_s_, "1/s");
  m_.Set("replica.bootstraps", static_cast<double>(stream_stats_.bootstraps), "count");
  m_.Set("replica.resyncs", static_cast<double>(stream_stats_.resyncs), "count");
  m_.Set("replica.polls", static_cast<double>(stream_stats_.polls), "count");
  m_.Set("replica.ship_delay_p50_ms", Pct(ship_delay_ns_, 0.5) / 1e6, "ms");
  m_.Set("remote_shipper.catchup_rec_per_s", Median(catchup_rate_), "1/s");
  m_.Set("remote_shipper.rpcs_per_record", rpcs_per_record_.front(), "count");
  m_.Set("remote_shipper.rpc_us", Median(rpc_ns_) / 1e3, "us");
  m_.Set("remote_shipper.reconnects", static_cast<double>(shipper_totals_.reconnects), "count");
  m_.Set("remote_shipper.transport_errors", static_cast<double>(shipper_totals_.transport_errors),
         "count");
  const double untraced = Median(get_ns_);
  m_.Set("trace.overhead_pct", 100.0 * (Median(get_traced_ns_) - untraced) / untraced, "%");
  m_.Set("trace.spans", static_cast<double>(tracer_.spans().size()), "count");
  const auto self = tracer_.SelfNsByLayer();
  for (const char* layer : {"op", "wire", "serve", "serial", "dyndb", "persist", "storage",
                            "replica", "remote_shipper"}) {
    auto it = self.find(layer);
    m_.Set(std::string("self.") + layer + "_ms", it == self.end() ? 0 : it->second / 1e6, "ms");
  }
  if (!args_.trace_out.empty() && !tracer_.WriteJsonl(args_.trace_out)) {
    tally_.Fail("could not write spans to " + args_.trace_out);
  }
}

int Bench::Run() {
  std::filesystem::create_directories(args_.work_dir);
  const std::vector<int> cpus = AllowedCpus();
  echo_ = std::make_unique<PinnedEcho>(cpus.front(), cpus.size() > 1 ? cpus[1] : cpus.front());
  if (!echo_->Start()) Die("echo", Status::Internal("loopback echo failed"));

  Setup();
  if (tracer_.on()) LogScan();
  for (unsigned q : kQueries) {
    cycle_.push_back({q, ReqOp::kGetScan});
    cycle_.push_back({q, ReqOp::kGetViaIndex});
    if (q == kExtentQuery) cycle_.push_back({q, ReqOp::kGetViaExtent});
  }
  Shuffle(&cycle_, &rng_);
  ServeLoop();
  {
    // The first catch-up replays exactly the preloaded state without a
    // poll thread: its RPC count is exact for a seed.
    std::unique_ptr<RemoteShipper> shipper;
    std::unique_ptr<Replica> follower;
    CatchUp(true, &shipper, &follower);
    Retire(&shipper, &follower);
  }
  for (int seg = 0; seg < kSegments; ++seg) {
    LoopFor(BudgetNs(0.75 / kSegments), seg == kSegments - 1);
    StreamSegment();
  }
  UnserveLoop();
  const Snapshot snap = wdb_->db().GetSnapshot();
  for (const auto& [id, v] : written_) {
    auto d = snap.Get(id);
    tally_.Check(d.ok() && *d == MakeDynamic(v), "committed insert does not read back");
  }
  if (tracer_.on()) {
    InProcessApply();
    CommitProbe();
  }
  Report();
  wdb_.reset();
  echo_.reset();
  std::filesystem::remove_all(args_.work_dir);

  for (const std::string& e : tally_.errors) std::printf("# error: %s\n", e.c_str());
  for (const auto& [name, vu] : m_.items) {
    std::printf("# %-34s %16.6g %s\n", name.c_str(), vu.first, vu.second.c_str());
  }
  const bool correct = tally_.failed == 0;
  std::ostringstream json;
  json.precision(17);
  json << "{\"correct\": " << (correct ? "true" : "false")
       << ", \"attempted\": " << tally_.attempted << ", \"failed\": " << tally_.failed
       << ", \"metrics\": {";
  for (size_t i = 0; i < m_.items.size(); ++i) {
    const auto& [name, vu] = m_.items[i];
    json << (i ? ", " : "") << "\"" << name << "\": {\"value\": " << vu.first
         << ", \"unit\": \"" << vu.second << "\"}";
  }
  json << "}}";
  std::printf("%s\n", json.str().c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string val = argv[i + 1];
    if (key == "--workload") args.workload = val;
    else if (key == "--seed") args.seed = std::strtoull(val.c_str(), nullptr, 10);
    else if (key == "--seconds") args.seconds = std::strtod(val.c_str(), nullptr);
    else if (key == "--trace") args.trace = val == "1";
    else if (key == "--work-dir") args.work_dir = val;
    else if (key == "--trace-out") args.trace_out = val;
    else if (key == "--entries") args.entries = std::atoi(val.c_str());
    else {
      std::cerr << "dbplbench: unknown flag " << key << "\n";
      return 2;
    }
  }
  Workload w;
  if (!WorkloadOf(args.workload, &w) || args.work_dir.empty() || !(args.seconds > 0) ||
      args.entries < 100) {
    std::cerr << "usage: dbplbench --workload point|type_query|follow --seed N "
                 "--seconds S --trace 0|1 --work-dir DIR [--trace-out FILE] "
                 "[--entries N]\n";
    return 2;
  }
  Bench bench(args, w);
  return bench.Run();
}
