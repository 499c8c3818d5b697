// Wake channel between `gpufi run` and its shard workers: one AF_UNIX
// socketpair per worker. A plan-following worker sends a byte after each
// block it journals; the supervisor sends a byte to every live worker after
// each plan-file append. Each side blocks on its end instead of sleeping
// between polls of the journals or the plan file.
//
// The bytes carry no data. Journals and the plan file stay the only source
// of truth, and every reader re-reads them on a wake, so a dropped or
// coalesced byte costs latency, never correctness. EOF is the one signal
// with meaning: the peer process is gone.
#pragma once

#include <poll.h>
#include <sys/socket.h>
#include <sys/types.h>

#include <cerrno>

namespace gfi::fi::wake {

/// Sends one wake byte. Never blocks (a full buffer already holds a pending
/// wake) and never raises SIGPIPE: a dead peer must not kill the sender,
/// and Supervisor::run sends from inside its caller's process.
inline void send(int fd) {
  const char byte = 1;
  (void)::send(fd, &byte, 1, MSG_DONTWAIT | MSG_NOSIGNAL);
}

/// Drains pending wake bytes without blocking. False once the peer has
/// closed its end.
inline bool drain(int fd) {
  char buffer[64];
  while (true) {
    const ssize_t got = ::recv(fd, buffer, sizeof(buffer), MSG_DONTWAIT);
    if (got > 0) continue;
    return got < 0 && (errno == EAGAIN || errno == EWOULDBLOCK ||
                       errno == EINTR);
  }
}

/// Blocks until a wake byte arrives or `timeout_ms` passes, then drains.
/// False once the peer has closed its end.
inline bool wait(int fd, int timeout_ms) {
  pollfd pfd{fd, POLLIN, 0};
  if (::poll(&pfd, 1, timeout_ms) <= 0) return true;
  return drain(fd);
}

}  // namespace gfi::fi::wake
