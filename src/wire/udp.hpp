// Nonblocking UDP sockets with batched syscalls.
//
// One recvmmsg() drains up to kBatch datagrams per syscall and one
// sendmmsg() pushes a whole flight of challenges/token chunks — at 10k+
// simulated devices per agent process the syscall count, not the
// payload bytes, is what limits round rate on loopback.
//
// Error discipline (the part the simulator never had to get right):
//   * EINTR   — retry the syscall; signals (SIGUSR1 metrics snapshots)
//               must never surface as transport errors.
//   * EAGAIN  — recv: the socket is drained, return what we have;
//               send: the socket buffer is full, return the count
//               actually queued and let the caller re-try the rest.
//   * ECONNREFUSED — a peer's port closed between its hello and now;
//               recv reports it as a normal empty read (UDP keeps the
//               error latched on the socket), send drops the datagram.
//   * ENOBUFS  — send: kernel transiently out of buffer space; treated
//               like EAGAIN (short count, caller retries) but tallied
//               separately in Stats.
//   * EMSGSIZE — send: the datagram cannot fit the path MTU; it will
//               never succeed, so it is dropped (skip one) and tallied.
// Anything else throws std::system_error: real misconfiguration.
#pragma once

#include <netinet/in.h>

#include <cstdint>
#include <string>

#include "common/bytes.hpp"

namespace cra::obs {
class MetricsRegistry;
}  // namespace cra::obs

namespace cra::wire {

/// IPv4 endpoint. The wire layer is deliberately v4-only: every
/// deployment target here is loopback or a flat LAN.
struct Endpoint {
  sockaddr_in sa{};

  Endpoint() { sa.sin_family = AF_INET; }

  static Endpoint loopback(std::uint16_t port);
  /// Parse "a.b.c.d:port"; throws std::invalid_argument on bad input.
  static Endpoint parse(const std::string& hostport);

  std::uint16_t port() const noexcept;
  std::string to_string() const;

  friend bool operator==(const Endpoint& a, const Endpoint& b) noexcept {
    return a.sa.sin_addr.s_addr == b.sa.sin_addr.s_addr &&
           a.sa.sin_port == b.sa.sin_port;
  }
};

/// One received datagram: a length-delimited view into the batch
/// buffer pool (valid until the next recv_batch call).
struct RecvDatagram {
  Endpoint from;
  BytesView data;
};

/// One datagram to send. `data` must stay alive across the send call.
struct SendDatagram {
  Endpoint to;
  BytesView data;
};

class UdpSocket {
 public:
  static constexpr std::size_t kBatch = 64;
  static constexpr std::size_t kRecvBufSize = 2048;

  /// Distinct send-path error tallies, so chaos runs can tell kernel
  /// backpressure (ENOBUFS), oversized datagrams (EMSGSIZE), and dead
  /// peers (ECONNREFUSED) apart from shaped loss. The daemons mirror
  /// these into `wire.*` counters after each send burst.
  struct Stats {
    std::uint64_t enobufs = 0;       // kernel out of buffer space
    std::uint64_t emsgsize = 0;      // datagram exceeded the path MTU
    std::uint64_t econnrefused = 0;  // peer port closed (latched ICMP)
  };

  UdpSocket() = default;
  ~UdpSocket();
  UdpSocket(UdpSocket&& other) noexcept;
  UdpSocket& operator=(UdpSocket&& other) noexcept;
  UdpSocket(const UdpSocket&) = delete;
  UdpSocket& operator=(const UdpSocket&) = delete;

  /// Bind a nonblocking socket to 127.0.0.1:`port` (0 = ephemeral).
  /// Socket buffers are raised to `sndbuf`/`rcvbuf` bytes (SO_SNDBUF /
  /// SO_RCVBUF, clamped by net.core.*mem_max) so a 100k-device token
  /// flight does not shed datagrams inside the local stack.
  static UdpSocket bind(std::uint16_t port, int buf_bytes = 4 << 20);

  bool valid() const noexcept { return fd_ >= 0; }
  int fd() const noexcept { return fd_; }
  std::uint16_t local_port() const;

  /// Drain up to `max` (<= kBatch) datagrams in one recvmmsg. Returns
  /// the count received; 0 means the socket is empty (EAGAIN) — never
  /// blocks. The returned views alias internal buffers owned by this
  /// socket and are invalidated by the next recv_batch.
  std::size_t recv_batch(RecvDatagram* out, std::size_t max);

  /// Queue `n` datagrams with as few sendmmsg calls as possible.
  /// Returns how many were accepted by the kernel; a short count means
  /// the socket buffer filled (EAGAIN) — the caller owns the retry.
  std::size_t send_batch(const SendDatagram* msgs, std::size_t n);

  /// Single-datagram convenience; true if the kernel accepted it.
  bool send_one(const Endpoint& to, BytesView data);

  const Stats& stats() const noexcept { return stats_; }

 private:
  explicit UdpSocket(int fd);

  int fd_ = -1;
  // recvmmsg scatter buffers, allocated lazily on first recv_batch.
  Bytes recv_pool_;
  Stats stats_;
};

/// Add the send errors `socket` tallied since `synced` to the
/// `<prefix>.tx_enobufs`, `.tx_emsgsize` and `.tx_econnrefused`
/// counters (each registered only once nonzero), then advance `synced`.
void mirror_send_errors(const UdpSocket& socket, UdpSocket::Stats& synced,
                        obs::MetricsRegistry& metrics,
                        const std::string& prefix);

}  // namespace cra::wire
