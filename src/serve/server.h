#ifndef DBPL_SERVE_SERVER_H_
#define DBPL_SERVE_SERVER_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/mutex.h"
#include "common/result.h"
#include "persist/wal_database.h"
#include "serve/protocol.h"
#include "serve/socket.h"

namespace dbpl::serve {

/// Construction-time knobs for a Server.
struct ServeOptions {
  /// Event-loop threads. Each admitted session is assigned to one loop
  /// (round-robin) for its whole life, and that loop alone receives,
  /// executes and answers its requests — which is what makes pipelined
  /// responses arrive in request order without any per-session lock.
  int workers = 4;
  /// Admission bound: the most sessions admitted at once. A connection
  /// arriving beyond it is *shed* — answered with one kUnavailable
  /// frame and closed — instead of queued, so saturation degrades into
  /// explicit, retryable refusals rather than unbounded latency.
  int max_sessions = 1024;
  /// When true, bind a TCP listener on `host`:`port` (0 = ephemeral;
  /// read the bound port back with Server::port()). When false the
  /// server only serves connections handed to AdoptConnection — the
  /// transport the in-process tests use.
  bool listen = false;
  std::string host = "127.0.0.1";
  uint16_t port = 0;
  int backlog = 128;
};

/// Monotonic counters, readable at any time without stopping traffic.
struct ServerStats {
  uint64_t sessions_accepted = 0;
  uint64_t sessions_shed = 0;
  uint64_t sessions_closed = 0;
  uint64_t requests_ok = 0;
  uint64_t requests_error = 0;
  /// Sessions dropped for framing violations (bad CRC, oversized
  /// length, undecodable request body).
  uint64_t protocol_errors = 0;
};

/// The dbpl-serve front-end: `workers` symmetric event loops serving
/// the wire protocol of serve/protocol.h on top of a
/// persist::WalDatabase.
///
/// ## Architecture
///
///   listener ──(loop 0 accepts)──> admission ──round-robin──> inbox[i]
///                                                                │
///   loop i: poll(own sessions) → recv → execute → send  <────────┘
///
/// Each loop is one thread that owns its sessions outright. It polls
/// them, reads at most a bounded amount per session per turn, executes
/// every complete request inline (reads resolve against a lock-free
/// dyndb snapshot; writes funnel through the WalDatabase's sharded
/// group-commit path) and sends the replies — a request is received,
/// executed and answered on one thread, with no lock and no handoff.
/// Loop 0 also polls the listener.
///
/// Sends never block: replies the socket will not take yet stay
/// buffered on the session, which then waits for POLLOUT and reads no
/// further requests until they drain. A peer that pipelines requests
/// and never reads its replies therefore stalls only itself.
///
/// ## Locking
///
/// A single mutex (rank kServe, below the whole database stack —
/// DESIGN.md §10/§12) guards the per-loop inboxes of new sockets and
/// the stop flag. It is taken once per connection (and at Stop), never
/// on the request path. Admission is one atomic count.
///
/// ## Failure containment
///
/// Per-request errors (NotFound, TypeError, a vetoed write, ...) are
/// answered in-band with the typed status mapping and the session
/// lives on. Framing violations are unrecoverable for that stream:
/// the session is answered with one final error frame (op kNone) and
/// closed. A peer vanishing mid-request tears down only its session;
/// buffered partial requests are discarded unexecuted.
class Server {
 public:
  /// Starts the loops (and listener, when configured). `wdb` must
  /// outlive the returned server.
  static Result<std::unique_ptr<Server>> Start(persist::WalDatabase* wdb,
                                               const ServeOptions& options);

  /// Stops and joins all loops, closing every session.
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Hands an already-connected byte stream (e.g. one end of a
  /// socketpair) to the server, subject to the same admission bound as
  /// accepted connections: over capacity the socket is answered with a
  /// kUnavailable frame, closed, and kUnavailable is returned.
  Status AdoptConnection(Socket sock) DBPL_EXCLUDES(mu_);

  /// The bound TCP port (0 when not listening).
  uint16_t port() const { return port_; }

  /// Sessions currently admitted (served, or waiting in an inbox).
  int active_sessions() const { return live_.load(); }

  ServerStats stats() const;

  /// Idempotent shutdown: refuse new work, join the loops, close
  /// sessions. Never waits on a peer. Called by the destructor.
  void Stop() DBPL_EXCLUDES(mu_);

 private:
  /// One connection, owned by exactly one loop for its whole life.
  struct Session {
    explicit Session(Socket s) : sock(std::move(s)) {}
    Socket sock;
    /// Received-but-unparsed bytes (may end mid-frame).
    std::vector<uint8_t> in;
    /// Framed replies; bytes before `sent` are already on the socket.
    ByteBuffer out;
    size_t sent = 0;
    /// No further requests will be read: the peer shut down its write
    /// side, or the stream lost its framing. The session closes once
    /// its buffered replies drain.
    bool eof = false;
  };

  Server(persist::WalDatabase* wdb, const ServeOptions& options)
      : wdb_(wdb), options_(options) {}

  Status StartLocked();

  /// Loop `index`: owns its sessions; loop 0 also accepts.
  void LoopMain(size_t index) DBPL_EXCLUDES(mu_);
  /// Accepts until EAGAIN, applying admission control.
  void AcceptReady() DBPL_EXCLUDES(mu_);
  /// Hands `sock` to a loop or sheds it. The returned status is
  /// kUnavailable iff shed.
  Status Admit(Socket sock) DBPL_EXCLUDES(mu_);
  /// Best-effort "server at capacity" frame + close.
  Status Shed(Socket sock);

  /// One service turn of a session whose socket is ready: flush, read,
  /// answer every complete request, flush. False = close it now.
  bool Turn(Session* s);
  /// Executes buffered complete frames until `kMaxPendingReply` bytes
  /// of replies wait. True iff it stopped at that cap.
  bool ExecuteBuffered(Session* s);
  /// Sends what the socket takes without blocking. False on a dead
  /// socket.
  static bool Flush(Session* s);
  /// Decodes and executes one CRC-valid frame body, appending the
  /// framed response to `out`. False = session must close (the body
  /// was not a well-formed request).
  bool HandleFrame(const uint8_t* body, size_t n, ByteBuffer* out);
  /// Executes one decoded request against the database.
  Response Execute(const Request& req);

  persist::WalDatabase* const wdb_;
  const ServeOptions options_;

  Listener listener_;
  uint16_t port_ = 0;
  /// One eventfd per loop, written when its inbox grows or at Stop.
  std::vector<int> wake_fds_;
  std::atomic<bool> started_{false};
  /// The admission count: sessions admitted and not yet closed.
  std::atomic<int> live_{0};

  /// Guards the inboxes and stop flag; never held across request
  /// execution. Rank kServe: the outermost lock of the process
  /// (DESIGN.md §12).
  dbpl::Mutex mu_{dbpl::LockRank::kServe, "serve.mu_"};
  /// Admitted sockets not yet picked up by their loop, per loop.
  std::vector<std::vector<Socket>> inboxes_ DBPL_GUARDED_BY(mu_);
  size_t next_loop_ DBPL_GUARDED_BY(mu_) = 0;
  bool stop_ DBPL_GUARDED_BY(mu_) = false;

  // Stats are atomics so loops never take mu_ on the request path.
  std::atomic<uint64_t> n_accepted_{0};
  std::atomic<uint64_t> n_shed_{0};
  std::atomic<uint64_t> n_closed_{0};
  std::atomic<uint64_t> n_requests_ok_{0};
  std::atomic<uint64_t> n_requests_error_{0};
  std::atomic<uint64_t> n_protocol_errors_{0};

  /// Declared last: the loops use every member above.
  std::vector<std::thread> loops_;
};

}  // namespace dbpl::serve

#endif  // DBPL_SERVE_SERVER_H_
