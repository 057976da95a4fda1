// Datagram framing for the live UDP transport.
//
// The simulator's SAP payloads (sap/messages.hpp: chal, identify-ex
// token entries) move across real sockets unchanged; this header only
// adds the envelope a connectionless transport needs — a magic/version
// gate, a frame kind, the sender's base device id, the round tick, and
// a per-sender sequence number (drop/reorder accounting at the
// receiver). All integers little-endian, matching the SAP payloads.
//
//   frame = magic(4) || ver(1) || kind(1) || sender(4) || tick(4) ||
//           seq(4) || payload_len(2) || payload
//
// One frame per datagram. Frames are size-capped so every datagram
// fits a conservative 1500-byte MTU without fragmentation; the agent
// splits a swarm's token report across as many kTokens frames as
// needed (the identify-ex entry format is self-delimiting).
#pragma once

#include <cstdint>
#include <optional>
#include <string_view>

#include "common/bytes.hpp"

namespace cra::wire {

inline constexpr std::uint32_t kFrameMagic = 0x57415243;  // "CRAW"
inline constexpr std::uint8_t kFrameVersion = 1;
inline constexpr std::size_t kFrameHeaderSize = 4 + 1 + 1 + 4 + 4 + 4 + 2;

/// Conservative ethernet MTU minus IP/UDP headers; every frame
/// (header + payload) must fit.
inline constexpr std::size_t kMaxDatagram = 1472;
inline constexpr std::size_t kMaxPayload = kMaxDatagram - kFrameHeaderSize;

enum class FrameKind : std::uint8_t {
  kHello = 1,     // agent -> daemon: payload = first_id(4) || count(4)
  kHelloAck = 2,  // daemon -> agent: payload echoes the hello
  kChal = 3,      // daemon -> agent: payload = sap chal [|| want-ranges]
  kTokens = 4,    // agent -> daemon: payload = identify-ex entries
  kBye = 5,       // either side: peer is going away; empty payload
};

const char* frame_kind_name(FrameKind kind) noexcept;

struct FrameHeader {
  FrameKind kind = FrameKind::kHello;
  /// Agent frames: the sender's first device id (its stable identity).
  /// Daemon frames: 0.
  std::uint32_t sender = 0;
  /// Round tick the frame belongs to; 0 for session frames.
  std::uint32_t tick = 0;
  /// Per-sender datagram sequence number, monotonically increasing
  /// across the connection. Receivers use gaps/regressions for loss and
  /// reorder metrics only — frames are otherwise self-contained.
  std::uint32_t seq = 0;
};

struct Frame {
  FrameHeader header;
  BytesView payload;  // view into the receive buffer
};

/// Serialize header + payload into one datagram buffer. Throws
/// std::length_error if the payload exceeds kMaxPayload.
Bytes encode_frame(const FrameHeader& header, BytesView payload);

/// Allocation-free variant: writes into `out` (>= kFrameHeaderSize +
/// payload.size() bytes) and returns the frame's total size.
std::size_t encode_frame_into(const FrameHeader& header, BytesView payload,
                              std::uint8_t* out);

/// Parse one datagram. Returns nullopt for anything malformed: short
/// buffer, wrong magic/version, unknown kind, payload_len disagreeing
/// with the datagram size or over kMaxPayload. The returned payload
/// view aliases `datagram`.
std::optional<Frame> decode_frame(BytesView datagram) noexcept;

/// kHello / kHelloAck payload: the contiguous device-id range an agent
/// serves, plus the agent's session epoch. The epoch changes on every
/// agent restart (persisted via next_agent_epoch(), or derived from the
/// monotonic clock), so a daemon that sees a new epoch from a known
/// range resets its per-agent sequence accounting instead of reading
/// the restarted agent's seq=0 as a massive reorder.
struct HelloPayload {
  std::uint32_t first_id = 0;
  std::uint32_t count = 0;
  std::uint64_t epoch = 0;
};

/// 16 bytes: first_id(4) || count(4) || epoch(8).
Bytes encode_hello(const HelloPayload& hello);
/// Accepts the 16-byte form and the legacy 8-byte (epoch-less) form —
/// a pre-epoch agent decodes as epoch 0.
std::optional<HelloPayload> decode_hello(BytesView payload) noexcept;

/// Optional kChal trailer: after the fixed-size sap chal bytes, a
/// repoll challenge may carry (start, count) id ranges so agents
/// re-send only the tokens the daemon is still missing. No trailer
/// (payload == chal_size) means "all devices".
struct WantRange {
  std::uint32_t start = 0;
  std::uint32_t count = 0;
};

/// Append `ranges` after the chal bytes already in `payload`.
void append_want_ranges(Bytes& payload, const std::vector<WantRange>& ranges);

/// Parse the trailer of a kChal payload of known chal size. Empty vector
/// = no trailer (poll everything); nullopt = malformed trailer.
std::optional<std::vector<WantRange>> decode_want_ranges(
    BytesView payload, std::size_t chal_size) noexcept;

/// Per-sender datagram sequence accounting that survives 32-bit
/// wraparound. Serial-number arithmetic (RFC 1982): the signed
/// difference `seq - last` classifies a frame as forward progress,
/// duplicate, or reorder, so the 0xffffffff -> 0 step on a long-lived
/// agent reads as one forward step instead of a 4-billion-frame
/// regression. reset() on an epoch change — a restarted agent starts
/// over at seq 0 legitimately.
class SeqTracker {
 public:
  enum class Verdict : std::uint8_t {
    kFirst,      // nothing observed yet
    kAdvance,    // forward progress (possibly past a gap)
    kDuplicate,  // same seq again
    kReorder,    // arrived behind the newest seen
  };

  Verdict observe(std::uint32_t seq) noexcept {
    if (!seen_) {
      seen_ = true;
      last_ = seq;
      return Verdict::kFirst;
    }
    const std::int32_t delta = static_cast<std::int32_t>(seq - last_);
    if (delta > 0) {
      last_ = seq;
      return Verdict::kAdvance;
    }
    return delta == 0 ? Verdict::kDuplicate : Verdict::kReorder;
  }

  void reset() noexcept {
    seen_ = false;
    last_ = 0;
  }
  bool seen() const noexcept { return seen_; }
  std::uint32_t last() const noexcept { return last_; }

 private:
  std::uint32_t last_ = 0;
  bool seen_ = false;
};

/// HKDF label of device_content: its bytes are the device key of this
/// label, so a provisioning loop derives them in batches through
/// crypto::Hkdf::device_keys.
inline constexpr std::string_view kDeviceContentLabel = "cra-wire-content";

/// The deployment's expected PMEM digest for device `id`, derived from
/// the shared master secret. Daemon and agents derive the same bytes
/// independently, so a live deployment needs no content-provisioning
/// protocol: the daemon seeds its Verifier's valid-state set with
/// exactly these, and a healthy agent attests over them.
Bytes device_content(BytesView master, std::uint32_t id, std::size_t size);

}  // namespace cra::wire
