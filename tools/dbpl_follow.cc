// dbpl_follow: a read-only network follower.
//
// Dials a dbpl_serve primary, attaches an in-memory persist::Replica
// through serve::RemoteShipper, and tails the primary's WAL over the
// wire until SIGINT/SIGTERM. Periodically reports the follower's
// position (size, epoch) and the shipping counters; survives primary
// restarts by reconnecting and re-bootstrapping.
//
// Usage:
//   dbpl_follow --primary <host:port> [--poll-ms 100] [--report-ms 1000]
//
// Exit status: 0 on clean shutdown, 1 on a startup error.

#include <csignal>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <string>

#include "persist/replica.h"
#include "serve/remote_shipper.h"

namespace {

int Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --primary <host:port> [--poll-ms N] "
               "[--report-ms N]\n",
               argv0);
  return 1;
}

}  // namespace

int main(int argc, char** argv) {
  // Block the stop signals before any thread exists, so they stay
  // pending until the sigtimedwait of the polling loop takes them.
  sigset_t stop_signals;
  sigemptyset(&stop_signals);
  sigaddset(&stop_signals, SIGINT);
  sigaddset(&stop_signals, SIGTERM);
  pthread_sigmask(SIG_BLOCK, &stop_signals, nullptr);

  std::string primary;
  int poll_ms = 100;
  int report_ms = 1000;

  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    if (arg == "--primary") {
      const char* v = next();
      if (v == nullptr) return Usage(argv[0]);
      primary = v;
    } else if (arg == "--poll-ms") {
      const char* v = next();
      if (v == nullptr) return Usage(argv[0]);
      poll_ms = std::atoi(v);
    } else if (arg == "--report-ms") {
      const char* v = next();
      if (v == nullptr) return Usage(argv[0]);
      report_ms = std::atoi(v);
    } else {
      return Usage(argv[0]);
    }
  }
  const size_t colon = primary.rfind(':');
  if (primary.empty() || colon == std::string::npos) return Usage(argv[0]);
  const std::string host = primary.substr(0, colon);
  const int port = std::atoi(primary.c_str() + colon + 1);
  if (port <= 0 || port > 65535 || poll_ms <= 0) return Usage(argv[0]);

  auto shipper = dbpl::serve::RemoteShipper::Connect(
      host, static_cast<uint16_t>(port));
  if (!shipper.ok()) {
    std::fprintf(stderr, "dbpl_follow: connect %s: %s\n", primary.c_str(),
                 shipper.status().ToString().c_str());
    return 1;
  }
  std::fprintf(stderr, "dbpl_follow: connected to %s (%d shard(s))\n",
               primary.c_str(), (*shipper)->shard_count());

  dbpl::persist::Replica follower;
  dbpl::Status attached = follower.Attach(shipper->get());
  if (!attached.ok()) {
    std::fprintf(stderr, "dbpl_follow: attach: %s\n",
                 attached.ToString().c_str());
    return 1;
  }
  std::fprintf(stderr,
               "dbpl_follow: bootstrapped (%llu entries, epoch %llu)\n",
               static_cast<unsigned long long>(follower.db().size()),
               static_cast<unsigned long long>(follower.Epoch()));

  // Manual polling loop (rather than Replica's streaming thread) so
  // the signal can interrupt a sleep immediately and transient poll
  // errors can be logged with context.
  const struct timespec poll_wait = {poll_ms / 1000,
                                     (poll_ms % 1000) * 1000000L};
  int since_report_ms = report_ms;  // report immediately on first lap
  while (true) {
    dbpl::Status polled = follower.Poll();
    if (!polled.ok()) {
      std::fprintf(stderr, "dbpl_follow: poll: %s\n",
                   polled.ToString().c_str());
    }
    if (since_report_ms >= report_ms) {
      since_report_ms = 0;
      const dbpl::persist::ReplicaStats rs = follower.stats();
      const dbpl::serve::RemoteShipper::Stats ss = (*shipper)->stats();
      std::fprintf(
          stderr,
          "dbpl_follow: size=%llu epoch=%llu bootstraps=%llu "
          "batches=%llu resyncs=%llu rpcs=%llu reconnects=%llu\n",
          static_cast<unsigned long long>(follower.db().size()),
          static_cast<unsigned long long>(follower.Epoch()),
          static_cast<unsigned long long>(rs.bootstraps),
          static_cast<unsigned long long>(rs.batches_applied),
          static_cast<unsigned long long>(rs.resyncs),
          static_cast<unsigned long long>(ss.rpcs),
          static_cast<unsigned long long>(ss.reconnects));
    }
    if (sigtimedwait(&stop_signals, nullptr, &poll_wait) >= 0) break;
    since_report_ms += poll_ms;
  }

  std::fprintf(stderr, "dbpl_follow: detaching\n");
  follower.Detach();
  return 0;
}
