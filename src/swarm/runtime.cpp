#include "swarm/runtime.hpp"

#include <algorithm>
#include <stdexcept>

#include "common/rng.hpp"
#include "obs/trace.hpp"

namespace cra::swarm {
namespace {

/// Sharding needs a positive conservative lookahead: the smallest delay
/// of any message is the per-hop latency (payloads can be empty, and
/// transmission time can round to zero).
sim::SimConfig engine_config(sim::SimConfig sim, const net::LinkParams& link) {
  if (link.per_hop_latency <= sim::Duration::zero()) sim.shards = 1;
  return sim;
}

/// Subtree-aligned placement: shards own contiguous DFS-preorder runs of
/// the deployment tree (see sim/parallel.hpp). One shard places nothing;
/// the engine maps every unplaced entity to its last, here only, shard.
std::vector<std::uint32_t> placement(const net::Tree& tree,
                                     const sim::SimConfig& sim) {
  if (!sim.sharded()) return {};
  return net::dfs_preorder(tree);
}

}  // namespace

SwarmRuntime::SwarmRuntime(const net::Tree& tree, const sim::SimConfig& sim,
                           const net::LinkParams& link, Handler on_message,
                           DeviceFaultHook on_device_fault,
                           const std::vector<net::NodeId>* entity_at)
    : tree_(tree),
      entity_at_(entity_at),
      on_message_(std::move(on_message)),
      on_device_fault_(std::move(on_device_fault)) {
  const sim::SimConfig cfg = engine_config(sim, link);
  engine_ = std::make_unique<sim::ParallelScheduler>(placement(tree, cfg), cfg,
                                                     link.per_hop_latency);
  // Bucket the entities by owning shard once, in one counting pass, so
  // every shard's run stays ascending.
  const std::uint32_t shards = engine_->shard_count();
  run_begin_.assign(shards + 1, 0);
  for (std::uint32_t e = 0; e < tree_.size(); ++e) {
    ++run_begin_[shard_of(e) + 1];
  }
  for (std::uint32_t s = 0; s < shards; ++s) {
    run_begin_[s + 1] += run_begin_[s];
  }
  std::vector<std::uint32_t> next(run_begin_.begin(), run_begin_.end() - 1);
  entities_.resize(tree_.size());
  for (std::uint32_t e = 0; e < tree_.size(); ++e) {
    entities_[next[shard_of(e)]++] = e;
  }
  nets_.reserve(shards);
  for (std::uint32_t s = 0; s < shards; ++s) {
    nets_.push_back(std::make_unique<ShardNetwork>(engine_->shard(s), link));
    nets_.back()->set_handler(on_message_);
    nets_.back()->bind_metrics(&registry(s));
  }
  if (one_shard()) {
    surface_ = nets_[0].get();
    return;
  }
  for (auto& net : nets_) net->set_router(route_from(*net));
  config_net_ = std::make_unique<net::Network>(engine_->shard(0), link);
  config_net_->set_router(route_from(*config_net_));
  surface_ = config_net_.get();
  // The delivery sink runs on the DESTINATION shard's worker at the
  // message's arrival time and owns the payload buffer, which recycles
  // into the destination's network, where the next send from there
  // acquires.
  engine_->set_message_sink([this](sim::ShardMessage&& sm) {
    net::Message m{sm.src, sm.entity, sm.kind, std::move(sm.payload)};
    on_message_(m);
    net_of(m.dst).recycle_payload(std::move(m.payload));
  });
}

void SwarmRuntime::for_each_shard(
    const std::function<void(std::uint32_t)>& fn) {
  const std::uint32_t shards = engine_->shard_count();
  const std::uint32_t threads = engine_->threads();  // <= shards
  sim::run_workers(threads, [&](std::uint32_t w) {
    for (std::uint32_t s = w; s < shards; s += threads) fn(s);
  });
}

std::span<const std::uint32_t> SwarmRuntime::entities_of(
    std::uint32_t s, std::uint32_t first) const {
  const auto begin = entities_.begin() + run_begin_[s];
  const auto end = entities_.begin() + run_begin_[s + 1];
  return {std::lower_bound(begin, end, first), end};
}

net::NodeId SwarmRuntime::device_id(net::NodeId id) const {
  if (id == 0 || id > tree_.device_count()) {
    throw std::out_of_range("device id out of range");
  }
  return id;
}

obs::MetricsRegistry& SwarmRuntime::registry(std::uint32_t s) noexcept {
  // One shard writes the merged view directly; more shards write
  // shard-confined registries that run_window() folds in shard order.
  return one_shard() ? metrics_ : engine_->shard_metrics(s);
}

net::Network::Router SwarmRuntime::route_from(net::Network& sender) {
  // Deliveries go to the engine as ShardMessages, the only thing that
  // crosses a shard boundary; the arrival time carries the full link
  // delay, which is >= the engine's lookahead by construction. When the
  // transport serialized the payload out, the spent capacity recycles
  // into the SENDING network's pool — the router runs on that network's
  // thread.
  return [this, &sender](net::Message m, sim::SimTime at) {
    Bytes spent = engine_->post_message(m.dst, at, m.src, m.kind,
                                        std::move(m.payload));
    if (spent.capacity() != 0) sender.recycle_payload(std::move(spent));
  };
}

std::uint64_t SwarmRuntime::shard_loss_seed(std::uint64_t seed,
                                            std::uint32_t s) const noexcept {
  SplitMix64 mix(seed + 0x9e3779b97f4a7c15ULL * (s + 1) + windows_);
  return mix.next();
}

void SwarmRuntime::begin_window(
    const std::function<void(std::uint32_t)>& open_shard) {
  metrics_.reset_values();
  engine_->reset_shard_metrics();
  surface_->reset_accounting();
  if (!one_shard()) {
    if (surface_->has_tamper_hook()) {
      throw std::logic_error(
          "SwarmRuntime: tamper hooks need a single shard (construct with "
          "config.sim.shards == 1)");
    }
    const double rate = surface_->loss_rate();
    for (std::uint32_t s = 0; s < nets_.size(); ++s) {
      // A link's sender lives in exactly one shard, so the per-link maps
      // never overlap; merged totals come out of the metrics layer.
      nets_[s]->enable_per_link_accounting(surface_->per_link_accounting());
      nets_[s]->reset_accounting();
      nets_[s]->set_loss_rate(
          rate, rate > 0.0 ? shard_loss_seed(surface_->loss_seed(), s) : 0);
    }
  }
  if (open_shard) {
    obs::Span span("swarm.round_open");
    for_each_shard(open_shard);
  }
}

void SwarmRuntime::run_window() {
  engine_->run();
  ++windows_;
  engine_->merge_metrics_into(metrics_);
  for (const auto& net : nets_) net->assert_ledgers_consistent();
  if (config_net_) config_net_->assert_ledgers_consistent();
}

void SwarmRuntime::advance_time(sim::Duration d) {
  const sim::SimTime target = now() + d;
  arm_faults(target);
  engine_->run_until(target);
}

void SwarmRuntime::arm_faults(sim::SimTime horizon) {
  if (!faults_) return;
  faults_->arm_until(horizon, [this](const fault::FaultEvent& ev) {
    fault::observe_event(metrics_, ev);
    replay(ev);
  });
}

void SwarmRuntime::replay(const fault::FaultEvent& ev) {
  using fault::FaultKind;
  switch (ev.kind) {
    case FaultKind::kCrash:
    case FaultKind::kReboot:
    case FaultKind::kSleep:
    case FaultKind::kWake:
    case FaultKind::kLeave:
    case FaultKind::kJoin:
    case FaultKind::kClockSkew:
      (void)device_id(ev.device);
      on_device_fault_(ev);
      break;
    case FaultKind::kLinkDown:
    case FaultKind::kLinkUp: {
      if (ev.device >= tree_.size() || ev.peer >= tree_.size()) {
        throw std::out_of_range("fault plan: link endpoint out of range");
      }
      const bool down = ev.kind == FaultKind::kLinkDown;
      set_link(ev.device, ev.peer, down, ev.at);
      set_link(ev.peer, ev.device, down, ev.at);
      break;
    }
    case FaultKind::kPartition:
    case FaultKind::kHeal: {
      for (net::NodeId pos : ev.island) {
        if (pos >= tree_.size()) {
          throw std::out_of_range("fault plan: island position out of range");
        }
      }
      const bool down = ev.kind == FaultKind::kPartition;
      for (const auto& [a, b] : fault::partition_cut(tree_, ev.island)) {
        set_link(a, b, down, ev.at);
        set_link(b, a, down, ev.at);
      }
      break;
    }
    case FaultKind::kLossSpike:
      // The clear event restores whatever the user had configured before
      // the first spike fired.
      if (!loss_spiked_) {
        baseline_loss_rate_ = surface_->loss_rate();
        baseline_loss_seed_ = surface_->loss_seed();
        loss_spiked_ = true;
      }
      set_loss(ev.rate, ev.draw, ev.at);
      break;
    case FaultKind::kLossClear:
      loss_spiked_ = false;
      set_loss(baseline_loss_rate_, baseline_loss_seed_, ev.at);
      break;
    case FaultKind::kProcKill:
      break;  // process-level chaos: only the wire-chaos supervisor acts
  }
}

void SwarmRuntime::set_link(net::NodeId src_pos, net::NodeId dst_pos,
                            bool down, sim::SimTime at) {
  // Positions bind to the entities occupying them when the event is
  // armed. Outage checks run on the sending side, so the switch lives on
  // the sender's shard.
  const net::NodeId src = entity_at_ ? (*entity_at_)[src_pos] : src_pos;
  const net::NodeId dst = entity_at_ ? (*entity_at_)[dst_pos] : dst_pos;
  apply_at(src, at, [this, src, dst, down] {
    net_of(src).set_link_down(src, dst, down);
  });
}

void SwarmRuntime::set_loss(double rate, std::uint64_t seed, sim::SimTime at) {
  if (one_shard()) {
    on_shard(0, at,
             [this, rate, seed] { surface_->set_loss_rate(rate, seed); });
    return;
  }
  // The surface flips now, so the next window's mirror sees the new
  // rate; each live shard network switches at the event time on its own
  // shard, with its own substream.
  surface_->set_loss_rate(rate, seed);
  for (std::uint32_t s = 0; s < nets_.size(); ++s) {
    const std::uint64_t shard_seed = shard_loss_seed(seed, s);
    on_shard(s, at, [this, s, rate, shard_seed] {
      nets_[s]->set_loss_rate(rate, shard_seed);
    });
  }
}

}  // namespace cra::swarm
