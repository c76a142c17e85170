// dbpl_serve: the network front-end binary.
//
// Opens (or creates) a WAL-backed database directory and serves the
// dbpl-serve wire protocol (src/serve/protocol.h) over TCP until
// SIGINT/SIGTERM, then shuts down cleanly: stop accepting, join the
// event loops, flush the WAL.
//
// Usage:
//   dbpl_serve --dir <path> [--host 127.0.0.1] [--port 7474]
//              [--workers 4] [--max-sessions 1024]
//              [--commit-every-n 1] [--no-sync] [--shards 0]
//
// --workers is the number of event loops; each one receives, executes
// and answers its own sessions' requests (DESIGN.md §12).
//
// Exit status: 0 on clean shutdown, 1 on a startup or serve error.

#include <csignal>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "persist/wal_database.h"
#include "serve/server.h"

namespace {

int Usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s --dir <path> [--host H] [--port P] [--workers N]\n"
      "          [--max-sessions N] [--commit-every-n N] [--no-sync]\n"
      "          [--shards K]\n",
      argv0);
  return 1;
}

}  // namespace

int main(int argc, char** argv) {
  // Block the stop signals before any thread exists: every thread
  // inherits the mask, so a signal stays pending — even one arriving
  // during recovery — until sigwait below takes it, and the final WAL
  // flush always runs.
  sigset_t stop_signals;
  sigemptyset(&stop_signals);
  sigaddset(&stop_signals, SIGINT);
  sigaddset(&stop_signals, SIGTERM);
  pthread_sigmask(SIG_BLOCK, &stop_signals, nullptr);

  std::string dir;
  dbpl::serve::ServeOptions serve_opts;
  serve_opts.listen = true;
  serve_opts.port = 7474;
  dbpl::persist::WalOptions wal_opts;

  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    if (arg == "--dir") {
      const char* v = next();
      if (v == nullptr) return Usage(argv[0]);
      dir = v;
    } else if (arg == "--host") {
      const char* v = next();
      if (v == nullptr) return Usage(argv[0]);
      serve_opts.host = v;
    } else if (arg == "--port") {
      const char* v = next();
      if (v == nullptr) return Usage(argv[0]);
      serve_opts.port = static_cast<uint16_t>(std::atoi(v));
    } else if (arg == "--workers") {
      const char* v = next();
      if (v == nullptr) return Usage(argv[0]);
      serve_opts.workers = std::atoi(v);
    } else if (arg == "--max-sessions") {
      const char* v = next();
      if (v == nullptr) return Usage(argv[0]);
      serve_opts.max_sessions = std::atoi(v);
    } else if (arg == "--commit-every-n") {
      const char* v = next();
      if (v == nullptr) return Usage(argv[0]);
      wal_opts.commit.every_n = static_cast<uint64_t>(std::atoll(v));
    } else if (arg == "--no-sync") {
      wal_opts.commit.sync = false;
    } else if (arg == "--shards") {
      const char* v = next();
      if (v == nullptr) return Usage(argv[0]);
      wal_opts.shards = std::atoi(v);
    } else {
      return Usage(argv[0]);
    }
  }
  if (dir.empty()) return Usage(argv[0]);

  auto wdb = dbpl::persist::WalDatabase::Open(dbpl::storage::Vfs::Default(),
                                              dir, wal_opts);
  if (!wdb.ok()) {
    std::fprintf(stderr, "dbpl_serve: open %s: %s\n", dir.c_str(),
                 wdb.status().ToString().c_str());
    return 1;
  }
  const dbpl::persist::WalRecoveryStats& rec = (*wdb)->recovery_stats();
  std::fprintf(stderr,
               "dbpl_serve: recovered %s (%llu entries; +%llu inserts, "
               "+%llu extents replayed%s)\n",
               dir.c_str(),
               static_cast<unsigned long long>((*wdb)->db().size()),
               static_cast<unsigned long long>(rec.replayed_inserts),
               static_cast<unsigned long long>(rec.replayed_extents),
               rec.corrupt_tail ? "; torn tail healed" : "");

  auto server = dbpl::serve::Server::Start(wdb->get(), serve_opts);
  if (!server.ok()) {
    std::fprintf(stderr, "dbpl_serve: start: %s\n",
                 server.status().ToString().c_str());
    return 1;
  }
  std::fprintf(stderr, "dbpl_serve: listening on %s:%u (%d loops)\n",
               serve_opts.host.c_str(), (*server)->port(),
               serve_opts.workers);

  int sig = 0;
  sigwait(&stop_signals, &sig);

  std::fprintf(stderr, "dbpl_serve: shutting down\n");
  (*server)->Stop();
  dbpl::Status flush = (*wdb)->Commit();
  if (!flush.ok()) {
    std::fprintf(stderr, "dbpl_serve: final commit: %s\n",
                 flush.ToString().c_str());
    return 1;
  }
  return 0;
}
