// Crash-safe state journaling for the wire daemons.
//
// A kill -9 of cra_verifierd used to forget every registered agent and
// the in-flight round; this header is the recovery substrate that makes
// the wire stack restartable at any instruction:
//
//   * Journal — a CRC32-framed append-only write-ahead log. Every
//     record is `len(4) || crc(4) || kind(1) || payload`; replay walks
//     the file front to back and TRUNCATES at the first short or
//     corrupt record (a torn tail from a crash mid-write is expected,
//     not an error). fsync policy is the caller's: sync() after
//     registration/round-boundary records, skip it for per-frame report
//     records — an unsynced tail only costs a few re-polled tokens.
//
//   * Snapshot files — the compacted form. write_snapshot_file() is
//     atomic (tmp + rename, fsync'd file and directory) so a crash
//     mid-snapshot leaves the previous snapshot intact;
//     read_snapshot_file() returns nullopt for missing, truncated, or
//     bit-flipped snapshots and recovery falls back to the WAL alone.
//
//   * VerifierState — the VerifierDaemon's state, durable or not
//     (registration table with per-agent session epochs and addresses,
//     round counter, per-round coverage bitmap + collected reports,
//     re-poll attempt). The daemon holds one and changes it only through
//     its transitions; apply() decodes a WAL record and calls the same
//     transition, so a replayed record does exactly what the live event
//     did. The transitions are idempotent keyed on the monotonic round
//     tick, so replaying snapshot + the WAL the daemon wrote — or that
//     WAL twice, which a crash between snapshot and WAL reset produces —
//     converges to the same state. digest() is a SHA-256 over the
//     canonical encoding; two processes that replayed the same files
//     agree byte-for-byte.
//
// Report entries are SAP's extended identify entries, the form of the
// daemon's token frames (sap::IdentifyCodec), and stay bytes throughout:
// the open round's accepted entries, kReports records (`tick || count ||
// entries`, a frame's entries as accepted) and an open round's snapshot
// (`count || entries`, sorted by id).
//
// The agent side persists one thing: its hello epoch
// (next_agent_epoch()), bumped on every restart so the daemon can tell
// a rebooted agent from a reordered datagram.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "common/bytes.hpp"
#include "crypto/sha256.hpp"
#include "sap/messages.hpp"

namespace cra::wire {

/// IEEE 802.3 CRC-32 (reflected, poly 0xEDB88320), the framing checksum.
std::uint32_t crc32_ieee(BytesView data, std::uint32_t seed = 0) noexcept;

/// Append-only write-ahead log with torn-tail-tolerant replay.
class Journal {
 public:
  /// Replay callback: one call per valid record, in file order.
  using ReplayFn = std::function<void(std::uint8_t kind, BytesView payload)>;

  struct OpenStats {
    std::size_t records = 0;          // valid records replayed
    std::size_t truncated_bytes = 0;  // torn/corrupt tail removed
  };

  /// Sanity cap: no daemon record approaches this; a larger length
  /// field means the file is corrupt, not that the record is big.
  static constexpr std::size_t kMaxRecord = 4u << 20;

  Journal() = default;
  ~Journal();
  Journal(Journal&& other) noexcept;
  Journal& operator=(Journal&& other) noexcept;
  Journal(const Journal&) = delete;
  Journal& operator=(const Journal&) = delete;

  /// Open (creating if absent), replay every intact record through
  /// `replay`, truncate any torn tail, and position for append. Replay
  /// never throws for damaged data — damage ends the replay; only real
  /// IO errors (unreachable path, EACCES) throw std::system_error.
  static Journal open(const std::string& path, const ReplayFn& replay,
                      OpenStats* stats = nullptr);

  bool valid() const noexcept { return fd_ >= 0; }

  /// Append one record. Durable only after the next sync().
  void append(std::uint8_t kind, BytesView payload);

  /// fdatasync the log — the commit point for everything appended.
  void sync();

  /// Drop every record (after the state was compacted into a snapshot
  /// file). The file itself stays, empty and synced.
  void reset();

  /// Current file size in bytes (appended, not necessarily synced).
  std::uint64_t size_bytes() const noexcept { return offset_; }

 private:
  explicit Journal(int fd) : fd_(fd) {}

  int fd_ = -1;
  std::uint64_t offset_ = 0;
};

/// Atomic snapshot file: `magic "CRAS" || ver(1) || len(4) || crc(4) ||
/// payload`, written to `path.tmp` then rename()d over `path`, with the
/// file and its directory fsync'd. Returns false on IO failure.
bool write_snapshot_file(const std::string& path, BytesView payload);

/// Read back a snapshot; nullopt when the file is missing, truncated,
/// or fails its CRC — the caller recovers from the WAL alone.
std::optional<Bytes> read_snapshot_file(const std::string& path);

/// Atomic text-file write (tmp + rename) of `text` as given, shared by
/// the metrics exports of both daemons. Returns false on IO failure.
bool write_text_atomic(const std::string& path, std::string_view text);

/// The VerifierDaemon's state, its transitions and its WAL record
/// vocabulary.
struct VerifierState {
  struct Agent {
    std::uint32_t first_id = 0;
    std::uint32_t count = 0;
    std::uint64_t epoch = 0;  // agent session epoch from its hello
    std::uint32_t ip = 0;     // sockaddr_in fields, stored raw
    std::uint16_t port = 0;   // (network byte order preserved)
  };

  // WAL record kinds.
  static constexpr std::uint8_t kAgentRecord = 1;  // registration/update
  static constexpr std::uint8_t kRoundStart = 2;
  static constexpr std::uint8_t kReports = 3;  // accepted report entries
  static constexpr std::uint8_t kRepoll = 4;
  static constexpr std::uint8_t kRoundClose = 5;

  std::uint32_t devices = 0;  // swarm size; recovery guard
  std::uint32_t rounds_done = 0;
  std::uint32_t tick = 0;
  bool round_open = false;
  std::uint32_t repoll_attempt = 0;
  std::map<std::uint32_t, Agent> agents;  // keyed by first_id
  // Valid while round_open: per-device coverage and the accepted
  // entries in arrival order; have[id-1] is 1 exactly for their ids.
  std::vector<std::uint8_t> have;  // index id-1
  Bytes reports;

  /// The codec of `reports`, kReports records and snapshots.
  static sap::IdentifyCodec report_codec(std::size_t token_size) noexcept {
    return sap::IdentifyCodec(sap::IdentifyFormat::kExtended, token_size);
  }

  // --- Record payload builders (what the daemon appends) ---
  static Bytes encode_agent(const Agent& a);
  static Bytes encode_round_start(std::uint32_t tick);
  /// A kReports record of well-formed entries, copied as given.
  static Bytes encode_reports(std::uint32_t tick, BytesView entries,
                              std::size_t token_size);
  /// The same from DeviceReports; throws for a wrong-size token.
  static Bytes encode_reports(std::uint32_t tick,
                              const sap::DeviceReport* reports,
                              std::size_t count, std::size_t token_size);
  static Bytes encode_repoll(std::uint32_t tick, std::uint32_t attempt);
  static Bytes encode_round_close(std::uint32_t tick,
                                  std::uint32_t rounds_done);

  // --- Transitions, one per record kind. Each is idempotent, as replay
  // needs: a stale tick, an already covered id, or a lower attempt or
  // round counter is a no-op. ---

  /// Register or update an agent (keyed by first_id; the latest wins).
  void put_agent(const Agent& a);
  /// Open round `t`. A no-op returning false unless `t` > tick.
  bool start_round(std::uint32_t t);
  /// Append to `reports` the entries of open round `t`, from a
  /// well-formed payload, whose ids lie in [1, devices] and are not yet
  /// covered; returns how many it appended.
  std::size_t accept_reports(std::uint32_t t, BytesView entries,
                             std::size_t token_size);
  /// Entries in `reports`.
  std::size_t report_count(std::size_t token_size) const noexcept {
    return report_codec(token_size).entry_count(reports);
  }
  /// Raise open round `t`'s re-poll attempt to `attempt`.
  void note_repoll(std::uint32_t t, std::uint32_t attempt);
  /// Close open round `t`, raising rounds_done to `done`.
  void close_round(std::uint32_t t, std::uint32_t done);

  /// Decode one WAL record and apply its transition. Malformed payloads
  /// are ignored (counted nowhere: the CRC layer already vouched for
  /// them, so this only guards against version drift).
  void apply(std::uint8_t kind, BytesView payload, std::size_t token_size);

  /// Canonical encoding (agents by first_id, reports by device id) —
  /// the snapshot payload and the digest preimage.
  Bytes encode(std::size_t token_size) const;
  /// nullopt for a malformed payload, including an open round whose
  /// coverage bitmap and report list disagree.
  static std::optional<VerifierState> decode(BytesView payload,
                                             std::size_t token_size);

  /// SHA-256 of encode(); equal iff the states are equal.
  crypto::Sha256::Digest digest(std::size_t token_size) const;
  /// Low 8 bytes of digest(), LE — fits an obs gauge for cross-process
  /// recovered-state comparison.
  std::uint64_t digest64(std::size_t token_size) const;
};

/// Agent-side epoch persistence: replay `path`, take the largest
/// recorded epoch + 1, append + fsync the new value, and return it.
/// First run (or fresh file) yields 1.
std::uint64_t next_agent_epoch(const std::string& path);

}  // namespace cra::wire
