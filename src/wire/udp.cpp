#include "wire/udp.hpp"

#include <arpa/inet.h>
#include <errno.h>
#include <fcntl.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <stdexcept>
#include <system_error>

#include "obs/metrics.hpp"

namespace cra::wire {

namespace {

[[noreturn]] void throw_errno(const char* what) {
  throw std::system_error(errno, std::generic_category(), what);
}

}  // namespace

Endpoint Endpoint::loopback(std::uint16_t port) {
  Endpoint ep;
  ep.sa.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  ep.sa.sin_port = htons(port);
  return ep;
}

Endpoint Endpoint::parse(const std::string& hostport) {
  const std::size_t colon = hostport.rfind(':');
  if (colon == std::string::npos || colon == 0 ||
      colon + 1 >= hostport.size()) {
    throw std::invalid_argument("Endpoint::parse: want host:port, got '" +
                                hostport + "'");
  }
  const std::string host = hostport.substr(0, colon);
  const std::string port_s = hostport.substr(colon + 1);
  char* end = nullptr;
  const unsigned long port = std::strtoul(port_s.c_str(), &end, 10);
  if (end == nullptr || *end != '\0' || port == 0 || port > 65535) {
    throw std::invalid_argument("Endpoint::parse: bad port '" + port_s + "'");
  }
  Endpoint ep;
  ep.sa.sin_port = htons(static_cast<std::uint16_t>(port));
  if (inet_pton(AF_INET, host.c_str(), &ep.sa.sin_addr) != 1) {
    throw std::invalid_argument("Endpoint::parse: bad IPv4 address '" + host +
                                "'");
  }
  return ep;
}

std::uint16_t Endpoint::port() const noexcept { return ntohs(sa.sin_port); }

std::string Endpoint::to_string() const {
  char buf[INET_ADDRSTRLEN] = {};
  inet_ntop(AF_INET, &sa.sin_addr, buf, sizeof(buf));
  return std::string(buf) + ":" + std::to_string(port());
}

UdpSocket::UdpSocket(int fd) : fd_(fd) {}

UdpSocket::~UdpSocket() {
  if (fd_ >= 0) ::close(fd_);
}

UdpSocket::UdpSocket(UdpSocket&& other) noexcept
    : fd_(other.fd_), recv_pool_(std::move(other.recv_pool_)) {
  other.fd_ = -1;
}

UdpSocket& UdpSocket::operator=(UdpSocket&& other) noexcept {
  if (this != &other) {
    if (fd_ >= 0) ::close(fd_);
    fd_ = other.fd_;
    recv_pool_ = std::move(other.recv_pool_);
    other.fd_ = -1;
  }
  return *this;
}

UdpSocket UdpSocket::bind(std::uint16_t port, int buf_bytes) {
  const int fd =
      ::socket(AF_INET, SOCK_DGRAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
  if (fd < 0) throw_errno("socket(AF_INET, SOCK_DGRAM)");
  UdpSocket sock(fd);

  // Best effort — the kernel clamps to net.core.{r,w}mem_max and that
  // is fine; the shaper and adaptive re-polls absorb residual drops.
  (void)::setsockopt(fd, SOL_SOCKET, SO_SNDBUF, &buf_bytes,
                     sizeof(buf_bytes));
  (void)::setsockopt(fd, SOL_SOCKET, SO_RCVBUF, &buf_bytes,
                     sizeof(buf_bytes));

  const Endpoint ep = Endpoint::loopback(port);
  if (::bind(fd, reinterpret_cast<const sockaddr*>(&ep.sa), sizeof(ep.sa)) !=
      0) {
    throw_errno("bind(udp)");
  }
  return sock;
}

std::uint16_t UdpSocket::local_port() const {
  sockaddr_in sa{};
  socklen_t len = sizeof(sa);
  if (::getsockname(fd_, reinterpret_cast<sockaddr*>(&sa), &len) != 0) {
    throw_errno("getsockname");
  }
  return ntohs(sa.sin_port);
}

std::size_t UdpSocket::recv_batch(RecvDatagram* out, std::size_t max) {
  const std::size_t want = std::min(max, kBatch);
  if (want == 0) return 0;
  if (recv_pool_.empty()) recv_pool_.resize(kBatch * kRecvBufSize);

  mmsghdr msgs[kBatch];
  iovec iovs[kBatch];
  sockaddr_in addrs[kBatch];
  std::memset(msgs, 0, sizeof(mmsghdr) * want);
  for (std::size_t i = 0; i < want; ++i) {
    iovs[i].iov_base = recv_pool_.data() + i * kRecvBufSize;
    iovs[i].iov_len = kRecvBufSize;
    msgs[i].msg_hdr.msg_iov = &iovs[i];
    msgs[i].msg_hdr.msg_iovlen = 1;
    msgs[i].msg_hdr.msg_name = &addrs[i];
    msgs[i].msg_hdr.msg_namelen = sizeof(sockaddr_in);
  }

  int got;
  do {
    got = ::recvmmsg(fd_, msgs, static_cast<unsigned>(want), 0, nullptr);
  } while (got < 0 && errno == EINTR);
  if (got < 0) {
    // ECONNREFUSED: an async ICMP error latched by a previous send to a
    // dead peer. Consume it and report "nothing to read".
    if (errno == EAGAIN || errno == EWOULDBLOCK || errno == ECONNREFUSED) {
      return 0;
    }
    throw_errno("recvmmsg");
  }
  for (int i = 0; i < got; ++i) {
    out[i].from.sa = addrs[i];
    out[i].data = BytesView(recv_pool_.data() + static_cast<std::size_t>(i) *
                                                    kRecvBufSize,
                            msgs[i].msg_len);
  }
  return static_cast<std::size_t>(got);
}

std::size_t UdpSocket::send_batch(const SendDatagram* msgs, std::size_t n) {
  std::size_t sent = 0;
  while (sent < n) {
    const std::size_t chunk = std::min(n - sent, kBatch);
    mmsghdr hdrs[kBatch];
    iovec iovs[kBatch];
    std::memset(hdrs, 0, sizeof(mmsghdr) * chunk);
    for (std::size_t i = 0; i < chunk; ++i) {
      const SendDatagram& m = msgs[sent + i];
      iovs[i].iov_base = const_cast<std::uint8_t*>(m.data.data());
      iovs[i].iov_len = m.data.size();
      hdrs[i].msg_hdr.msg_iov = &iovs[i];
      hdrs[i].msg_hdr.msg_iovlen = 1;
      hdrs[i].msg_hdr.msg_name =
          const_cast<sockaddr_in*>(&m.to.sa);
      hdrs[i].msg_hdr.msg_namelen = sizeof(sockaddr_in);
    }
    int pushed;
    do {
      pushed = ::sendmmsg(fd_, hdrs, static_cast<unsigned>(chunk), 0);
    } while (pushed < 0 && errno == EINTR);
    if (pushed < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK) return sent;
      if (errno == ENOBUFS) {
        // Kernel transiently out of socket buffer memory — same
        // backpressure contract as EAGAIN, but tallied apart so chaos
        // runs can tell kernel pressure from shaped loss.
        ++stats_.enobufs;
        return sent;
      }
      if (errno == ECONNREFUSED) {
        // Latched ICMP error from an earlier flight; the current
        // datagram was not sent. Skip one and keep going.
        ++stats_.econnrefused;
        ++sent;
        continue;
      }
      if (errno == EMSGSIZE) {
        // This datagram can never fit; retrying is pointless. Drop it
        // and move on so one oversized frame cannot wedge the flight.
        ++stats_.emsgsize;
        ++sent;
        continue;
      }
      throw_errno("sendmmsg");
    }
    sent += static_cast<std::size_t>(pushed);
    if (static_cast<std::size_t>(pushed) < chunk) return sent;  // EAGAIN next
  }
  return sent;
}

bool UdpSocket::send_one(const Endpoint& to, BytesView data) {
  const SendDatagram m{to, data};
  return send_batch(&m, 1) == 1;
}

void mirror_send_errors(const UdpSocket& socket, UdpSocket::Stats& synced,
                        obs::MetricsRegistry& metrics,
                        const std::string& prefix) {
  const UdpSocket::Stats& s = socket.stats();
  const auto mirror = [&](const char* name, std::uint64_t now,
                          std::uint64_t before) {
    if (now > before) metrics.counter(prefix + name).inc(now - before);
  };
  mirror(".tx_enobufs", s.enobufs, synced.enobufs);
  mirror(".tx_emsgsize", s.emsgsize, synced.emsgsize);
  mirror(".tx_econnrefused", s.econnrefused, synced.econnrefused);
  synced = s;
}

}  // namespace cra::wire
