#include "serve/socket.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/types.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>

namespace dbpl::serve {

namespace {

constexpr const char* kWouldBlockMsg = "socket would block";

Status ErrnoStatus(const char* what) {
  return Status::IoError(std::string(what) + ": " + std::strerror(errno));
}

/// Blocks until `fd` is ready for `events` (POLLIN/POLLOUT).
Status PollFor(int fd, short events) {
  struct pollfd pfd = {fd, events, 0};
  while (true) {
    int rc = ::poll(&pfd, 1, -1);
    if (rc > 0) return Status::OK();
    if (rc < 0 && errno == EINTR) continue;
    return ErrnoStatus("poll");
  }
}

/// As PollFor, but gives up at `deadline` with kDeadlineExceeded.
Status PollUntil(int fd, short events,
                 std::chrono::steady_clock::time_point deadline) {
  struct pollfd pfd = {fd, events, 0};
  while (true) {
    const auto now = std::chrono::steady_clock::now();
    if (now >= deadline) {
      return Status::DeadlineExceeded("recv deadline expired");
    }
    const auto left =
        std::chrono::duration_cast<std::chrono::milliseconds>(deadline - now);
    // Wait at least 1ms so a sub-millisecond remainder cannot
    // busy-spin, and at most 60s so a huge deadline (> ~24.8 days)
    // cannot overflow the int cast into a negative value that poll(2)
    // reads as "wait forever" — the deadline is re-checked each round,
    // so the cap changes nothing observable.
    const int wait_ms = static_cast<int>(
        std::min<int64_t>(std::max<int64_t>(1, left.count()), 60000));
    int rc = ::poll(&pfd, 1, wait_ms);
    if (rc > 0) return Status::OK();
    if (rc == 0) continue;  // timed out this round; deadline re-checked
    if (errno == EINTR) continue;
    return ErrnoStatus("poll");
  }
}

}  // namespace

void Socket::Close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

Status Socket::SendAll(const void* data, size_t n) {
  const char* p = static_cast<const char*>(data);
  size_t left = n;
  while (left > 0) {
    Result<size_t> sent = Send(p, left);
    if (!sent.ok()) {
      if (!IsWouldBlock(sent.status())) return sent.status();
      DBPL_RETURN_IF_ERROR(PollFor(fd_, POLLOUT));
      continue;
    }
    p += *sent;
    left -= *sent;
  }
  return Status::OK();
}

Result<size_t> Socket::Send(const void* data, size_t n) {
  while (true) {
    ssize_t sent = ::send(fd_, data, n, MSG_NOSIGNAL);
    if (sent >= 0) return static_cast<size_t>(sent);
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) {
      return Status::IoError(kWouldBlockMsg);
    }
    return ErrnoStatus("send");
  }
}

Result<size_t> Socket::Recv(void* out, size_t n) {
  while (true) {
    ssize_t got = ::recv(fd_, out, n, 0);
    if (got >= 0) return static_cast<size_t>(got);
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) {
      return Status::IoError(kWouldBlockMsg);
    }
    return ErrnoStatus("recv");
  }
}

bool Socket::IsWouldBlock(const Status& s) {
  return s.code() == StatusCode::kIoError && s.message() == kWouldBlockMsg;
}

Status Socket::RecvAll(void* out, size_t n) {
  // The deadline covers the whole read: a peer trickling one byte per
  // timeout interval cannot stretch the wait indefinitely.
  const bool bounded = recv_timeout_.count() > 0;
  const auto deadline = std::chrono::steady_clock::now() + recv_timeout_;
  char* p = static_cast<char*>(out);
  size_t left = n;
  while (left > 0) {
    // Poll *before* reading: on a blocking socket recv(2) itself would
    // park forever, so the deadline must gate entry into it. When data
    // is already buffered the poll returns immediately.
    if (bounded) DBPL_RETURN_IF_ERROR(PollUntil(fd_, POLLIN, deadline));
    Result<size_t> got = Recv(p, left);
    if (!got.ok()) {
      if (IsWouldBlock(got.status())) {
        if (!bounded) DBPL_RETURN_IF_ERROR(PollFor(fd_, POLLIN));
        continue;
      }
      return got.status();
    }
    if (*got == 0) return Status::IoError("connection closed by peer");
    p += *got;
    left -= *got;
  }
  return Status::OK();
}

Status Socket::SetNonBlocking(bool enable) {
  int flags = ::fcntl(fd_, F_GETFL, 0);
  if (flags < 0) return ErrnoStatus("fcntl(F_GETFL)");
  if (enable) {
    flags |= O_NONBLOCK;
  } else {
    flags &= ~O_NONBLOCK;
  }
  if (::fcntl(fd_, F_SETFL, flags) < 0) return ErrnoStatus("fcntl(F_SETFL)");
  return Status::OK();
}

void Socket::SetNoDelay() {
  int one = 1;
  // Best effort: fails harmlessly on non-TCP fds (socketpairs).
  (void)::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
}

Result<std::pair<Socket, Socket>> Socket::Pair() {
  int fds[2];
  if (::socketpair(AF_UNIX, SOCK_STREAM, 0, fds) != 0) {
    return ErrnoStatus("socketpair");
  }
  return std::make_pair(Socket(fds[0]), Socket(fds[1]));
}

Result<Listener> Listener::Listen(const std::string& host, uint16_t port,
                                  int backlog) {
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return ErrnoStatus("socket");
  Socket sock(fd);

  int one = 1;
  (void)::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  struct sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    return Status::InvalidArgument("bad listen address: " + host);
  }
  if (::bind(fd, reinterpret_cast<struct sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    return ErrnoStatus("bind");
  }
  if (::listen(fd, backlog) != 0) return ErrnoStatus("listen");

  socklen_t len = sizeof(addr);
  if (::getsockname(fd, reinterpret_cast<struct sockaddr*>(&addr), &len) !=
      0) {
    return ErrnoStatus("getsockname");
  }

  Listener out;
  out.sock_ = std::move(sock);
  out.port_ = ntohs(addr.sin_port);
  return out;
}

Result<Socket> Listener::Accept() {
  while (true) {
    int fd = ::accept(sock_.fd(), nullptr, nullptr);
    if (fd >= 0) return Socket(fd);
    if (errno == EINTR) continue;
    return ErrnoStatus("accept");
  }
}

Result<Socket> ConnectTcp(const std::string& host, uint16_t port) {
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return ErrnoStatus("socket");
  Socket sock(fd);

  struct sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    return Status::InvalidArgument("bad connect address: " + host);
  }
  while (::connect(fd, reinterpret_cast<struct sockaddr*>(&addr),
                   sizeof(addr)) != 0) {
    if (errno == EINTR) continue;
    return ErrnoStatus("connect");
  }
  sock.SetNoDelay();
  return sock;
}

}  // namespace dbpl::serve
