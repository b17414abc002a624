//===- server/Wire.cpp - Socket and frame helpers -------------------------===//
//
// Part of the RelC data representation synthesis library.
//
//===----------------------------------------------------------------------===//

#include "server/Wire.h"

#include <arpa/inet.h>
#include <cerrno>
#include <cstring>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <sys/uio.h>
#include <unistd.h>

namespace relc {
namespace wire {

static void setErr(std::string *Err, const char *What) {
  if (Err)
    *Err = std::string(What) + ": " + std::strerror(errno);
}

int listenTcp(uint16_t Port, std::string *Err) {
  int Fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (Fd < 0) {
    setErr(Err, "socket");
    return -1;
  }
  int One = 1;
  ::setsockopt(Fd, SOL_SOCKET, SO_REUSEADDR, &One, sizeof(One));
  sockaddr_in Addr{};
  Addr.sin_family = AF_INET;
  Addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  Addr.sin_port = htons(Port);
  if (::bind(Fd, reinterpret_cast<sockaddr *>(&Addr), sizeof(Addr)) != 0) {
    setErr(Err, "bind");
    ::close(Fd);
    return -1;
  }
  if (::listen(Fd, 64) != 0) {
    setErr(Err, "listen");
    ::close(Fd);
    return -1;
  }
  return Fd;
}

uint16_t boundPort(int Fd) {
  sockaddr_in Addr{};
  socklen_t Len = sizeof(Addr);
  if (::getsockname(Fd, reinterpret_cast<sockaddr *>(&Addr), &Len) != 0)
    return 0;
  return ntohs(Addr.sin_port);
}

int connectTcp(uint16_t Port, std::string *Err) {
  int Fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (Fd < 0) {
    setErr(Err, "socket");
    return -1;
  }
  sockaddr_in Addr{};
  Addr.sin_family = AF_INET;
  Addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  Addr.sin_port = htons(Port);
  if (::connect(Fd, reinterpret_cast<sockaddr *>(&Addr), sizeof(Addr)) != 0) {
    setErr(Err, "connect");
    ::close(Fd);
    return -1;
  }
  int One = 1;
  ::setsockopt(Fd, IPPROTO_TCP, TCP_NODELAY, &One, sizeof(One));
  return Fd;
}

bool readFull(int Fd, void *Buf, size_t N) {
  uint8_t *P = static_cast<uint8_t *>(Buf);
  while (N != 0) {
    ssize_t R = ::recv(Fd, P, N, 0);
    if (R == 0)
      return false; // orderly EOF
    if (R < 0) {
      if (errno == EINTR)
        continue;
      return false;
    }
    P += R;
    N -= static_cast<size_t>(R);
  }
  return true;
}

/// Sends \p Iov[0..N) in order, advancing the entries in place. A short
/// write may stop inside any iovec; the loop resumes after it, and
/// after EINTR.
static bool sendAll(int Fd, iovec *Iov, size_t N) {
  msghdr Msg{};
  Msg.msg_iov = Iov;
  Msg.msg_iovlen = N;
  size_t Sent = 0;
  for (;;) {
    while (Msg.msg_iovlen != 0 && Sent >= Msg.msg_iov->iov_len) {
      Sent -= Msg.msg_iov->iov_len;
      ++Msg.msg_iov;
      --Msg.msg_iovlen;
    }
    if (Msg.msg_iovlen == 0)
      return true;
    iovec &Part = *Msg.msg_iov;
    Part.iov_base = static_cast<uint8_t *>(Part.iov_base) + Sent;
    Part.iov_len -= Sent;
    // MSG_NOSIGNAL, which writev cannot pass: a peer that closed
    // mid-write must surface as an error return, not a process-killing
    // SIGPIPE.
    ssize_t R = ::sendmsg(Fd, &Msg, MSG_NOSIGNAL);
    if (R < 0 && errno != EINTR)
      return false;
    Sent = R < 0 ? 0 : static_cast<size_t>(R);
  }
}

bool writeFull(int Fd, const void *Buf, size_t N) {
  iovec Iov{const_cast<void *>(Buf), N};
  return sendAll(Fd, &Iov, 1);
}

bool readFrame(int Fd, std::vector<uint8_t> &Body) {
  uint8_t Prefix[4];
  if (!readFull(Fd, Prefix, 4))
    return false;
  uint32_t Len = 0;
  for (int I = 0; I != 4; ++I)
    Len |= static_cast<uint32_t>(Prefix[I]) << (8 * I);
  if (Len > MaxBody)
    return false; // poisoned stream: never allocate attacker-sized buffers
  Body.resize(Len);
  return Len == 0 || readFull(Fd, Body.data(), Len);
}

bool writeFrame(int Fd, const uint8_t *Body, size_t N) {
  if (N > MaxBody)
    return false;
  uint8_t Prefix[4];
  for (int I = 0; I != 4; ++I)
    Prefix[I] = static_cast<uint8_t>(N >> (8 * I));
  // A frame must leave in one write. A body written after its prefix
  // waits, under Nagle's algorithm, for the peer to ACK the prefix,
  // and a peer blocked reading the frame delays that ACK (~40 ms); with
  // TCP_NODELAY the prefix still goes as a 4-byte segment of its own,
  // and the reader wakes to half a frame. One sendmsg over both parts,
  // with no copy, makes a frame that fits in a segment one segment.
  // Writers on one fd serialize under the connection's write mutex.
  iovec Iov[2] = {{Prefix, 4}, {const_cast<uint8_t *>(Body), N}};
  return sendAll(Fd, Iov, 2);
}

} // namespace wire
} // namespace relc
