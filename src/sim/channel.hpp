// Shard-boundary channel transports for the parallel engine.
//
// Every cross-shard interaction in the sharded engine crosses exactly
// one of these. Two currencies travel:
//
//   * Callbacks (InlineCallback closures) — cheap and zero-copy, but
//     meaningful only inside one address space. The in-process
//     transport carries them; the shared-memory transport refuses (a
//     closure cannot be serialized), which is why the protocol layers
//     route network traffic as ShardMessages instead.
//   * ShardMessages — plain serializable records {at, entity, src,
//     kind, payload}. Both transports carry them: in-process as a
//     closure wrapping the owned message (zero-copy move), shared
//     memory as a length-prefixed record in a per-(src,dst) SPSC ring.
//
// The epoch protocol guarantees exclusivity: post_* is called only by
// the source shard's worker during phase B, drain() only by the
// destination shard's worker during phase A, with a barrier between
// them — so lanes need no locks and rings need exactly their SPSC
// ordering. drain() visits source shards in ascending order and each
// lane FIFO, which is what keeps the merged event order (and therefore
// every digest) a pure function of (inputs, shard count), independent
// of transport, thread count, and process placement.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <vector>

#include "common/bytes.hpp"
#include "sim/scheduler.hpp"
#include "sim/time.hpp"

namespace cra::sim {

class SharedArena;

/// A serializable cross-shard event: deliver `payload` to `entity` at
/// absolute time `at`. src/kind are opaque to the engine (the protocol
/// layers put the network source node and message discriminator there).
struct ShardMessage {
  SimTime at{};
  std::uint32_t entity = 0;
  std::uint32_t src = 0;
  std::uint32_t kind = 0;
  Bytes payload;
};

/// Borrowed view of a ShardMessage (payload aliases transport or engine
/// storage; valid only for the duration of the callback it is passed to).
struct ShardMessageView {
  SimTime at{};
  std::uint32_t entity = 0;
  std::uint32_t src = 0;
  std::uint32_t kind = 0;
  BytesView payload;
};

class ChannelTransport {
 public:
  enum class Kind : std::uint8_t { kInproc, kShm };

  virtual ~ChannelTransport() = default;

  virtual Kind kind() const noexcept = 0;
  virtual const char* name() const noexcept = 0;

  /// Queue a closure from shard `from` to shard `to`. Returns false when
  /// this transport cannot carry closures (shared memory).
  virtual bool post_callback(std::uint32_t from, std::uint32_t to, SimTime at,
                             Scheduler::Callback cb) = 0;

  /// Queue a serialized message. Returns the spent payload buffer when
  /// the transport copied it out (so the caller can recycle the
  /// capacity); returns an empty buffer when the payload moved onward.
  /// Throws std::logic_error when a lane between two processes is full
  /// (the epoch protocol drains only at phase boundaries, so "full"
  /// cannot resolve itself).
  virtual Bytes post_message(std::uint32_t from, std::uint32_t to,
                             ShardMessage&& m) = 0;

  /// Deliver everything queued for shard `to`, visiting source shards
  /// in ascending order, each FIFO. Callback records go to `sched_cb`,
  /// serialized records to `sched_msg` (the view's payload is valid
  /// only during the call — the engine copies it into an owned buffer
  /// before the record's storage is released).
  virtual void drain(
      std::uint32_t to,
      const std::function<void(SimTime, Scheduler::Callback&&)>& sched_cb,
      const std::function<void(const ShardMessageView&)>& sched_msg) = 0;

  /// Lane-capacity growth events since construction (0 for rings, which
  /// never reallocate). Exported as the pdes.lane_reallocs counter.
  virtual std::uint64_t lane_reallocs() const noexcept = 0;
};

/// In-process transport: per-(src,dst) vectors of posted events. Lane
/// capacity is recycled across epochs — drain() clears contents but
/// keeps the allocation, so steady-state epochs push into warm storage
/// and lane_reallocs() stops moving after the first heavy epoch.
std::unique_ptr<ChannelTransport> make_inproc_channel(
    std::uint32_t shard_count);

/// Shared-memory transport: one SpscRing per ordered shard pair,
/// allocated from `arena` (create the arena — and therefore the engine —
/// before ProcessGroup::spawn()). `ring_slots` is the per-ring slot
/// count (power of two; 64-byte slots). `rank_of[s]` is the process
/// that owns shard s; empty means one process.
///
/// A lane whose two shards live in one process never overflows: a
/// record its ring cannot take, and every later record of the same
/// epoch, spills to a process-local FIFO that the reader drains right
/// after the ring, so delivery order does not depend on ring size. A
/// lane between two processes has only its ring, and post_message
/// throws when it is full.
std::unique_ptr<ChannelTransport> make_shm_channel(
    std::uint32_t shard_count, std::uint32_t ring_slots, SharedArena& arena,
    std::span<const std::uint32_t> rank_of = {});

}  // namespace cra::sim
