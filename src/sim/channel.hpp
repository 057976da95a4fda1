// Shard-boundary channel transports for the parallel engine.
//
// Every cross-shard interaction in the sharded engine crosses exactly
// one of these, and it is always a ShardMessage: a plain record {at,
// entity, src, kind, payload}. Closures never cross a shard boundary
// (they cannot serialize, and one currency keeps both transports
// interchangeable). The in-process transport moves the owned message
// through a per-(src, dst) vector, so the payload never copies; the
// shared-memory transport writes it as a length-prefixed record into a
// per-(src, dst) SPSC ring and rebuilds an owned message on drain. The
// interface hides that record format from the engine.
//
// The epoch protocol guarantees exclusivity: post_message is called only
// by the source shard's worker during phase B, drain() only by the
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

#include "common/bytes.hpp"
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

class ChannelTransport {
 public:
  virtual ~ChannelTransport() = default;

  /// Queue `m` from shard `from` to shard `to`. Returns the spent payload
  /// buffer when the transport copied it out (so the caller can recycle
  /// the capacity); returns an empty buffer when the payload moved
  /// onward. Throws std::logic_error when a lane between two processes
  /// is full (the epoch protocol drains only at phase boundaries, so
  /// "full" cannot resolve itself).
  virtual Bytes post_message(std::uint32_t from, std::uint32_t to,
                             ShardMessage&& m) = 0;

  /// Hand everything queued for shard `to` to `deliver` as owned
  /// messages, visiting source shards in ascending order, each FIFO.
  virtual void drain(std::uint32_t to,
                     const std::function<void(ShardMessage&&)>& deliver) = 0;

  /// Lane-capacity growth events since construction (0 for rings, which
  /// never reallocate). Exported as the pdes.lane_reallocs counter.
  virtual std::uint64_t lane_reallocs() const noexcept = 0;
};

/// In-process transport: per-(src,dst) vectors of owned messages. Lane
/// capacity is recycled across epochs — drain() moves the messages out
/// and clears the lane but keeps the allocation, so steady-state epochs
/// push into warm storage and lane_reallocs() stops moving after the
/// first heavy epoch.
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
