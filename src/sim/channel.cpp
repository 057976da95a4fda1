#include "sim/channel.hpp"

#include <cstring>
#include <stdexcept>
#include <string>
#include <vector>

#include "sim/process_group.hpp"
#include "sim/spsc_ring.hpp"

namespace cra::sim {
namespace {

// ---------------------------------------------------------------------------
// In-process lanes

class InprocChannel final : public ChannelTransport {
 public:
  explicit InprocChannel(std::uint32_t shard_count)
      : shard_count_(shard_count) {
    lanes_.reserve(static_cast<std::size_t>(shard_count) * shard_count);
    for (std::size_t i = 0;
         i < static_cast<std::size_t>(shard_count) * shard_count; ++i) {
      lanes_.push_back(std::make_unique<Lane>());
    }
  }

  Bytes post_message(std::uint32_t from, std::uint32_t to,
                     ShardMessage&& m) override {
    Lane& l = lane(from, to);
    if (l.items.size() == l.items.capacity()) ++l.reallocs;
    l.items.push_back(std::move(m));  // the payload moves, never copies
    return {};
  }

  void drain(std::uint32_t to,
             const std::function<void(ShardMessage&&)>& deliver) override {
    for (std::uint32_t from = 0; from < shard_count_; ++from) {
      Lane& l = lane(from, to);
      for (ShardMessage& m : l.items) deliver(std::move(m));
      // clear() keeps capacity: next epoch's posts land in warm storage.
      l.items.clear();
    }
  }

  std::uint64_t lane_reallocs() const noexcept override {
    std::uint64_t n = 0;
    for (const auto& l : lanes_) n += l->reallocs;
    return n;
  }

 private:
  // Heap-allocated and cacheline-aligned: a lane's single writer and
  // single reader run on different workers in alternating phases.
  struct alignas(64) Lane {
    std::vector<ShardMessage> items;
    std::uint64_t reallocs = 0;
  };

  Lane& lane(std::uint32_t from, std::uint32_t to) noexcept {
    return *lanes_[static_cast<std::size_t>(from) * shard_count_ + to];
  }

  std::uint32_t shard_count_;
  std::vector<std::unique_ptr<Lane>> lanes_;
};

// ---------------------------------------------------------------------------
// Shared-memory rings

/// Wire header of a serialized ShardMessage inside a ring record.
struct RecordHeader {
  std::int64_t at_ns;
  std::uint32_t entity;
  std::uint32_t src;
  std::uint32_t kind;
};
static_assert(sizeof(RecordHeader) == 24);

class ShmChannel final : public ChannelTransport {
 public:
  ShmChannel(std::uint32_t shard_count, std::uint32_t ring_slots,
             SharedArena& arena, std::span<const std::uint32_t> rank_of)
      : shard_count_(shard_count),
        lanes_(static_cast<std::size_t>(shard_count) * shard_count) {
    for (std::uint32_t from = 0; from < shard_count; ++from) {
      for (std::uint32_t to = 0; to < shard_count; ++to) {
        if (from == to) continue;  // same-shard events never reach a channel
        Lane& l = lane(from, to);
        l.ring = SpscRing::create(
            arena.alloc(SpscRing::region_bytes(ring_slots)), ring_slots);
        l.cross_process = !rank_of.empty() && rank_of[from] != rank_of[to];
      }
    }
  }

  Bytes post_message(std::uint32_t from, std::uint32_t to,
                     ShardMessage&& m) override {
    Lane& l = lane(from, to);
    const RecordHeader h{m.at.ns(), m.entity, m.src, m.kind};
    const auto len = static_cast<std::uint32_t>(m.payload.size());
    // Once a record has spilled, the rest of the epoch follows it, so
    // the lane stays FIFO.
    if (l.spill.empty() && sizeof(h) + len <= l.ring->max_record_bytes() &&
        l.ring->try_push2(&h, sizeof(h), m.payload.data(), len)) {
      Bytes spent = std::move(m.payload);
      spent.clear();
      return spent;
    }
    if (l.cross_process) {
      throw std::logic_error(
          "ShmChannel: cross-process ring " + std::to_string(from) + "->" +
          std::to_string(to) + " (" + std::to_string(l.ring->slot_count()) +
          " slots) cannot take a " + std::to_string(len) +
          "-byte record — one epoch posted more traffic than the ring "
          "holds");
    }
    l.spill.push_back(std::move(m));
    return {};
  }

  void drain(std::uint32_t to,
             const std::function<void(ShardMessage&&)>& deliver) override {
    for (std::uint32_t from = 0; from < shard_count_; ++from) {
      if (from == to) continue;
      Lane& l = lane(from, to);
      std::uint32_t len = 0;
      const std::uint8_t* rec;
      while ((rec = l.ring->peek(len)) != nullptr) {
        if (len < sizeof(RecordHeader)) {
          throw std::runtime_error("ShmChannel: truncated record");
        }
        RecordHeader h;
        std::memcpy(&h, rec, sizeof(h));
        // Own the payload before the slot is released.
        ShardMessage m{SimTime(h.at_ns), h.entity, h.src, h.kind,
                       Bytes(rec + sizeof(h), rec + len)};
        l.ring->pop();
        deliver(std::move(m));
      }
      for (ShardMessage& m : l.spill) deliver(std::move(m));
      l.spill.clear();
    }
  }

  std::uint64_t lane_reallocs() const noexcept override { return 0; }

 private:
  // One per ordered shard pair, written by the source shard's worker and
  // read by the destination's, in alternating phases.
  struct alignas(64) Lane {
    SpscRing* ring = nullptr;  // arena-owned storage
    bool cross_process = false;
    std::vector<ShardMessage> spill;  // process-local overflow, FIFO
  };

  Lane& lane(std::uint32_t from, std::uint32_t to) noexcept {
    return lanes_[static_cast<std::size_t>(from) * shard_count_ + to];
  }

  std::uint32_t shard_count_;
  std::vector<Lane> lanes_;
};

}  // namespace

std::unique_ptr<ChannelTransport> make_inproc_channel(
    std::uint32_t shard_count) {
  return std::make_unique<InprocChannel>(shard_count);
}

std::unique_ptr<ChannelTransport> make_shm_channel(
    std::uint32_t shard_count, std::uint32_t ring_slots, SharedArena& arena,
    std::span<const std::uint32_t> rank_of) {
  return std::make_unique<ShmChannel>(shard_count, ring_slots, arena,
                                      rank_of);
}

}  // namespace cra::sim
