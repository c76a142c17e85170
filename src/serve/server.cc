#include "serve/server.h"

#include <poll.h>
#include <sys/eventfd.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <utility>

#include "dyndb/dynamic.h"

namespace dbpl::serve {

namespace {

/// Cap on bytes read from one session per turn, so a fire-hosing
/// pipeliner cannot starve the other sessions of its loop.
constexpr size_t kMaxReadPerTurn = 256 * 1024;
constexpr size_t kRecvChunkBytes = 16 * 1024;
/// A session stops executing requests while this many reply bytes wait
/// for the peer, bounding its buffered output to this plus one reply.
constexpr size_t kMaxPendingReply = 256 * 1024;

void Wake(int fd) {
  const uint64_t one = 1;
  (void)!::write(fd, &one, sizeof(one));
}

}  // namespace

Result<std::unique_ptr<Server>> Server::Start(persist::WalDatabase* wdb,
                                              const ServeOptions& options) {
  if (wdb == nullptr) {
    return Status::InvalidArgument("Server::Start: null database");
  }
  if (options.workers < 1) {
    return Status::InvalidArgument("Server::Start: need at least one worker");
  }
  if (options.max_sessions < 1) {
    return Status::InvalidArgument("Server::Start: max_sessions must be >= 1");
  }
  std::unique_ptr<Server> server(new Server(wdb, options));
  DBPL_RETURN_IF_ERROR(server->StartLocked());
  return server;
}

Status Server::StartLocked() {
  if (options_.listen) {
    DBPL_ASSIGN_OR_RETURN(
        listener_,
        Listener::Listen(options_.host, options_.port, options_.backlog));
    DBPL_RETURN_IF_ERROR(listener_.SetNonBlocking());
    port_ = listener_.port();
  }
  const auto n = static_cast<size_t>(options_.workers);
  for (size_t i = 0; i < n; ++i) {
    const int fd = ::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC);
    if (fd < 0) {
      return Status::IoError(std::string("eventfd: ") + std::strerror(errno));
    }
    wake_fds_.push_back(fd);
  }
  {
    MutexLock lock(&mu_);
    inboxes_.resize(n);
  }
  started_.store(true, std::memory_order_release);
  for (size_t i = 0; i < n; ++i) {
    loops_.emplace_back([this, i] { LoopMain(i); });
  }
  return Status::OK();
}

Server::~Server() {
  Stop();
  for (int fd : wake_fds_) ::close(fd);
}

void Server::Stop() {
  if (!started_.exchange(false, std::memory_order_acq_rel)) return;
  {
    MutexLock lock(&mu_);
    stop_ = true;
    for (int fd : wake_fds_) Wake(fd);
  }
  // Loops only ever wait in poll(2), which the wake interrupts, so
  // joining never depends on a peer. Each loop's sessions close (and
  // their clients see EOF) as it returns.
  for (std::thread& loop : loops_) loop.join();
  listener_.Close();
  MutexLock lock(&mu_);
  inboxes_.clear();
  live_.store(0);
}

Status Server::AdoptConnection(Socket sock) {
  if (!sock.valid()) {
    return Status::InvalidArgument("AdoptConnection: invalid socket");
  }
  return Admit(std::move(sock));
}

ServerStats Server::stats() const {
  ServerStats out;
  out.sessions_accepted = n_accepted_.load(std::memory_order_relaxed);
  out.sessions_shed = n_shed_.load(std::memory_order_relaxed);
  out.sessions_closed = n_closed_.load(std::memory_order_relaxed);
  out.requests_ok = n_requests_ok_.load(std::memory_order_relaxed);
  out.requests_error = n_requests_error_.load(std::memory_order_relaxed);
  out.protocol_errors = n_protocol_errors_.load(std::memory_order_relaxed);
  return out;
}

void Server::LoopMain(size_t index) {
  const int wake_fd = wake_fds_[index];
  const bool listening = index == 0 && listener_.valid();
  std::vector<Session> sessions;
  std::vector<struct pollfd> pfds;
  while (true) {
    pfds.assign(1, {wake_fd, POLLIN, 0});
    if (listening) pfds.push_back({listener_.fd(), POLLIN, 0});
    const size_t base = pfds.size();
    for (const Session& s : sessions) {
      // Pending replies gate further reads until the peer drains them.
      const short events = s.sent < s.out.size() ? POLLOUT : POLLIN;
      pfds.push_back({s.sock.fd(), events, 0});
    }
    if (::poll(pfds.data(), static_cast<nfds_t>(pfds.size()), -1) < 0) {
      if (errno != EINTR) return;  // unrecoverable; Stop will tear down
      continue;
    }

    for (size_t i = 0; i < sessions.size(); ++i) {
      if (pfds[base + i].revents != 0 && !Turn(&sessions[i])) {
        sessions[i].sock.Close();
      }
    }
    const size_t closed = std::erase_if(
        sessions, [](const Session& s) { return !s.sock.valid(); });
    if (closed > 0) {
      live_.fetch_sub(static_cast<int>(closed));
      n_closed_.fetch_add(closed, std::memory_order_relaxed);
    }

    if (listening && pfds[1].revents != 0) AcceptReady();
    if (pfds[0].revents != 0) {
      uint64_t count = 0;
      (void)!::read(wake_fd, &count, sizeof(count));
      MutexLock lock(&mu_);
      if (stop_) return;
      for (Socket& sock : inboxes_[index]) {
        sessions.emplace_back(std::move(sock));
      }
      inboxes_[index].clear();
    }
  }
}

void Server::AcceptReady() {
  // The listener is non-blocking: accept until it runs dry.
  while (true) {
    Result<Socket> sock = listener_.Accept();
    if (!sock.ok()) return;  // EAGAIN (drained) or a transient error
    (void)Admit(std::move(*sock));
  }
}

Status Server::Admit(Socket sock) {
  sock.SetNoDelay();
  DBPL_RETURN_IF_ERROR(sock.SetNonBlocking(true));
  int live = live_.load();
  do {
    if (live >= options_.max_sessions) return Shed(std::move(sock));
  } while (!live_.compare_exchange_weak(live, live + 1));
  {
    MutexLock lock(&mu_);
    if (!stop_) {
      const size_t loop = next_loop_++ % inboxes_.size();
      inboxes_[loop].push_back(std::move(sock));
      Wake(wake_fds_[loop]);
      n_accepted_.fetch_add(1, std::memory_order_relaxed);
      return Status::OK();
    }
  }
  live_.fetch_sub(1);
  return Shed(std::move(sock));
}

Status Server::Shed(Socket sock) {
  n_shed_.fetch_add(1, std::memory_order_relaxed);
  Response resp;
  resp.id = 0;
  resp.op = ReqOp::kNone;
  resp.status = Status::Unavailable("server at capacity");
  ByteBuffer body;
  EncodeResponse(resp, &body);
  ByteBuffer frame;
  // A bare error response cannot exceed the frame limit, and it fits
  // a fresh socket's empty buffer: one non-blocking send, then close.
  if (EncodeFrame(body, &frame).ok()) {
    (void)sock.Send(frame.data(), frame.size());
  }
  return resp.status;
}

bool Server::Turn(Session* s) {
  if (!Flush(s)) return false;
  if (s->sent < s->out.size()) return true;  // still waiting for POLLOUT

  // Read a bounded batch of requests.
  for (size_t drained = 0; !s->eof && drained < kMaxReadPerTurn;) {
    uint8_t chunk[kRecvChunkBytes];
    Result<size_t> got = s->sock.Recv(chunk, sizeof(chunk));
    if (!got.ok()) {
      if (Socket::IsWouldBlock(got.status())) break;
      return false;
    }
    if (*got == 0) {
      s->eof = true;  // orderly shutdown: answer what is buffered, then close
      break;
    }
    s->in.insert(s->in.end(), chunk, chunk + *got);
    drained += *got;
    // A short read emptied the socket; poll(2) reports anything newer,
    // so skip the recv that would only say EAGAIN.
    if (*got < sizeof(chunk)) break;
  }

  // Answer them in arrival order, as far as the peer keeps draining.
  bool more = true;
  while (more) {
    more = ExecuteBuffered(s);
    if (!Flush(s)) return false;
    if (s->sent < s->out.size()) return true;
  }
  // Once the peer is done sending, what remains is a torn request:
  // discard it unexecuted and close.
  return !s->eof;
}

bool Server::ExecuteBuffered(Session* s) {
  size_t consumed = 0;
  while (s->out.size() < kMaxPendingReply) {
    size_t total = 0;
    std::string error;
    FrameStatus fs = InspectFrame(s->in.data() + consumed,
                                  s->in.size() - consumed, &total, &error);
    if (fs == FrameStatus::kNeedMore) break;
    if (fs == FrameStatus::kFrame &&
        HandleFrame(s->in.data() + consumed + kFrameHeaderBytes,
                    total - kFrameHeaderBytes, &s->out)) {
      consumed += total;
      continue;
    }
    if (fs == FrameStatus::kBad) {
      // Framing is lost for good: answer once (op kNone, no id to
      // echo) and drop the session.
      n_protocol_errors_.fetch_add(1, std::memory_order_relaxed);
      Response resp;
      resp.status = Status::Corruption(error);
      ByteBuffer body;
      EncodeResponse(resp, &body);
      (void)EncodeFrame(body, &s->out);  // bare error: cannot be oversize
    }
    // The error reply is the session's last: read and run nothing more,
    // close once it drains.
    s->eof = true;
    s->in.clear();
    return false;
  }
  s->in.erase(s->in.begin(),
              s->in.begin() + static_cast<ptrdiff_t>(consumed));
  return s->out.size() >= kMaxPendingReply;
}

bool Server::Flush(Session* s) {
  while (s->sent < s->out.size()) {
    Result<size_t> n =
        s->sock.Send(s->out.data() + s->sent, s->out.size() - s->sent);
    if (!n.ok()) return Socket::IsWouldBlock(n.status());
    s->sent += *n;
  }
  s->out.clear();
  s->sent = 0;
  return true;
}

bool Server::HandleFrame(const uint8_t* body, size_t n, ByteBuffer* out) {
  Result<Request> req = DecodeRequest(body, n);
  Response resp;
  const bool well_formed = req.ok();
  if (!well_formed) {
    // CRC-valid frame, undecodable body: the peer speaks another
    // protocol (or version) — answer and disconnect.
    n_protocol_errors_.fetch_add(1, std::memory_order_relaxed);
    resp.status = req.status();
  } else {
    resp = Execute(*req);
  }
  ByteBuffer resp_body;
  EncodeResponse(resp, &resp_body);
  Status framed = EncodeFrame(resp_body, out);
  if (!framed.ok()) {
    // The response materialized larger than a legal frame (e.g. a
    // GetScan over a huge extent). Answer the *same request* in-band
    // with the refusal instead — the session keeps its framing and
    // lives on; the client can narrow the query and retry.
    Response refusal;
    refusal.id = resp.id;
    refusal.op = resp.op;
    refusal.status = std::move(framed);
    resp.status = refusal.status;
    ByteBuffer refusal_body;
    EncodeResponse(refusal, &refusal_body);
    (void)EncodeFrame(refusal_body, out);  // bare error: always framable
  }
  if (well_formed) {
    if (resp.status.ok()) {
      n_requests_ok_.fetch_add(1, std::memory_order_relaxed);
    } else {
      n_requests_error_.fetch_add(1, std::memory_order_relaxed);
    }
  }
  return well_formed;
}

Response Server::Execute(const Request& req) {
  Response resp;
  resp.id = req.id;
  resp.op = req.op;
  switch (req.op) {
    case ReqOp::kPing:
      break;
    case ReqOp::kInsert: {
      Result<dyndb::Database::EntryId> id = wdb_->Insert(req.entry);
      if (id.ok()) {
        resp.entry_id = *id;
      } else {
        resp.status = id.status();
      }
      break;
    }
    case ReqOp::kGet: {
      Result<dyndb::Dynamic> d = wdb_->db().Get(req.entry_id);
      if (d.ok()) {
        resp.entries.push_back(*std::move(d));
      } else {
        resp.status = d.status();
      }
      break;
    }
    case ReqOp::kGetScan: {
      dyndb::Database::Snapshot snap = wdb_->db().GetSnapshot();
      for (core::Value& v : snap.GetScan(req.type)) {
        resp.entries.push_back(dyndb::MakeDynamic(std::move(v)));
      }
      break;
    }
    case ReqOp::kGetViaExtent: {
      dyndb::Database::Snapshot snap = wdb_->db().GetSnapshot();
      Result<std::vector<core::Value>> vs = snap.GetViaExtent(req.type);
      if (vs.ok()) {
        for (core::Value& v : *vs) {
          resp.entries.push_back(dyndb::MakeDynamic(std::move(v)));
        }
      } else {
        resp.status = vs.status();
      }
      break;
    }
    case ReqOp::kGetViaIndex: {
      dyndb::Database::Snapshot snap = wdb_->db().GetSnapshot();
      for (core::Value& v : snap.GetViaIndex(req.type)) {
        resp.entries.push_back(dyndb::MakeDynamic(std::move(v)));
      }
      break;
    }
    case ReqOp::kGetPackages: {
      dyndb::Database::Snapshot snap = wdb_->db().GetSnapshot();
      resp.entries = snap.GetPackages(req.type);
      break;
    }
    case ReqOp::kRegisterExtent:
      resp.status = wdb_->RegisterExtent(req.extent_name, req.type);
      break;
    case ReqOp::kCommit:
      resp.status = wdb_->Commit();
      break;
    case ReqOp::kInfo: {
      dyndb::Database::Snapshot snap = wdb_->db().GetSnapshot();
      resp.size = snap.size();
      resp.epoch = snap.epoch();
      resp.shards = snap.shards();
      break;
    }
    case ReqOp::kShipBounds:
      resp.ship = wdb_->ship_bounds();
      break;
    case ReqOp::kReadChunk: {
      // The (kind, shard) pair resolves to a path server-side; clients
      // never name files, so there is nothing to traverse. Decode
      // already bounded shard and length; geometry is checked here.
      if (req.file == ShipFile::kWalSegment &&
          req.shard >= wdb_->shard_count()) {
        resp.status = Status::InvalidArgument(
            "shard " + std::to_string(req.shard) + " out of range (primary has " +
            std::to_string(wdb_->shard_count()) + ")");
        break;
      }
      const std::string& path = req.file == ShipFile::kCheckpoint
                                    ? wdb_->checkpoint_path()
                                    : wdb_->wal_path(req.shard);
      auto file = wdb_->vfs()->Open(path, storage::OpenMode::kRead);
      if (!file.ok()) {
        // A segment/checkpoint may legitimately not exist yet; map the
        // VFS's NotFound (or crash-injected error) in-band.
        resp.status = file.status();
        break;
      }
      Result<uint64_t> size = (*file)->Size();
      if (!size.ok()) {
        resp.status = size.status();
        break;
      }
      resp.file_size = *size;
      resp.chunk.resize(static_cast<size_t>(req.length));
      if (req.length > 0) {
        Result<size_t> got =
            (*file)->ReadAt(req.offset, resp.chunk.data(),
                            static_cast<size_t>(req.length));
        if (!got.ok()) {
          resp.status = got.status();
          resp.chunk.clear();
          break;
        }
        resp.chunk.resize(*got);  // short at EOF, like ReadAt itself
      }
      break;
    }
    default:
      resp.status = Status::Internal("unhandled opcode");
      break;
  }
  return resp;
}

}  // namespace dbpl::serve
