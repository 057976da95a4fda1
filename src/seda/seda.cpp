#include "seda/seda.hpp"

#include <algorithm>
#include <stdexcept>

#include "common/rng.hpp"
#include "crypto/backend.hpp"
#include "crypto/chacha20.hpp"
#include "obs/trace.hpp"
#include "crypto/ct.hpp"
#include "crypto/kdf.hpp"
#include "crypto/x25519.hpp"

namespace cra::seda {
namespace {

enum SedaMessageKind : std::uint32_t {
  kRequestMsg = 1,
  kReportMsg = 2,
  kJoinInviteMsg = 3,  // parent -> child: parent's static public key
  kJoinAckMsg = 4,     // child -> parent: child's static public key
};

Bytes master_from_seed(std::uint64_t seed) {
  crypto::SecureRandom rng(seed ^ 0x5345'4441'6d73'7472ULL);  // "SEDAmstr"
  return rng.bytes(32);
}

}  // namespace

SedaSimulation::SedaSimulation(SedaConfig config, net::Tree tree,
                               std::uint64_t seed)
    : config_(config),
      tree_(std::move(tree)),
      scheduler_(),
      network_(scheduler_, config.link),
      master_(master_from_seed(seed)),
      devices_(tree_.device_count()),
      key_at_parent_(tree_.device_count() + 1),
      mac_at_parent_(tree_.device_count() + 1) {
  crypto::SecureRandom vrf_rng(seed ^ 0x7672'666b'6579ULL);
  vrf_sk_ = vrf_rng.bytes(32);
  vrf_pk_ = crypto::x25519_base(vrf_sk_);
  for (net::NodeId id = 1; id <= device_count(); ++id) {
    Dev& d = dev(id);
    // Provisioning-time pre-shared keys; run_join() replaces them with
    // X25519-agreed ones.
    d.key_to_parent = edge_key(id);
    d.mac_to_parent.init(config_.alg, d.key_to_parent);
    key_at_parent_[id] = d.key_to_parent;
    mac_at_parent_[id].init(config_.alg, key_at_parent_[id]);
    d.static_sk = crypto::derive_device_key(master_, id, 32, "seda-x25519");
    d.static_pk = crypto::x25519_base(d.static_sk);
  }
  network_.set_handler([this](const net::Message& m) { on_message(m); });
  setup_engine();
}

SedaSimulation SedaSimulation::balanced(SedaConfig config,
                                        std::uint32_t devices,
                                        std::uint64_t seed) {
  return SedaSimulation(
      config, net::balanced_kary_tree(devices, config.tree_arity), seed);
}

void SedaSimulation::setup_engine() {
  // Sharding needs a positive conservative lookahead: the minimum
  // latency of any message is the per-hop processing latency. Configs
  // with zero-latency links stay single-threaded.
  if (!config_.sim.sharded() ||
      config_.link.per_hop_latency <= sim::Duration::zero()) {
    // Classic mode: metrics_ is the live registry for everything.
    network_.bind_metrics(&metrics_);
    mac_ctrs_ = {&metrics_.counter("seda.mac_failures")};
    join_ctrs_ = {&metrics_.counter("seda.join_acks")};
    return;
  }
  // Subtree-aligned placement, as in sap::SapSimulation::setup_engine.
  engine_ = std::make_unique<sim::ParallelScheduler>(
      net::dfs_preorder(tree_), config_.sim, config_.link.per_hop_latency);
  // Engine mode: network_ is only the configuration surface — every
  // instrument lives in its shard's registry and metrics_ holds the
  // post-run merge.
  network_.bind_metrics(nullptr);
  shard_nets_.reserve(engine_->shard_count());
  mac_ctrs_.reserve(engine_->shard_count());
  join_ctrs_.reserve(engine_->shard_count());
  for (std::uint32_t s = 0; s < engine_->shard_count(); ++s) {
    auto net = std::make_unique<net::Network>(engine_->shard(s), config_.link);
    net->set_handler([this](const net::Message& m) { on_message(m); });
    net->bind_metrics(&engine_->shard_metrics(s));
    mac_ctrs_.push_back(&engine_->shard_metrics(s).counter("seda.mac_failures"));
    join_ctrs_.push_back(&engine_->shard_metrics(s).counter("seda.join_acks"));
    // Deliveries cross shard boundaries through the engine's channel as
    // serialized ShardMessages (transport-portable); the arrival time
    // carries the full link delay, which is >= the engine's lookahead by
    // construction. A spent payload (shm serialization) recycles into
    // the SENDING shard's pool — this router runs on that worker.
    net->set_router([this, s](net::Message m, sim::SimTime at) {
      Bytes spent =
          engine_->post_message(m.dst, at, m.src, m.kind, std::move(m.payload));
      if (spent.capacity() != 0) {
        shard_nets_[s]->recycle_payload(std::move(spent));
      }
    });
    shard_nets_.push_back(std::move(net));
  }
  // Delivery sinks run on the destination shard's worker; see the
  // identical wiring in sap::SapSimulation::setup_engine for the
  // owning-vs-view split.
  engine_->set_message_sinks(
      [this](sim::ShardMessage&& sm) {
        net::Message m{sm.src, sm.entity, sm.kind, std::move(sm.payload)};
        on_message(m);
        net_of(m.dst).recycle_payload(std::move(m.payload));
      },
      [this](const sim::ShardMessageView& v) {
        net::Message m{v.src, v.entity, v.kind,
                       net_of(v.entity).acquire_payload()};
        m.payload.assign(v.payload.begin(), v.payload.end());
        on_message(m);
        net_of(m.dst).recycle_payload(std::move(m.payload));
      });
}

void SedaSimulation::sync_shard_networks() {
  // network_ is the public configuration surface; mirror its fault
  // settings onto the per-shard networks before each run. Loss draws
  // come from per-shard deterministic sub-streams so a lossy parallel
  // run is a pure function of (seed, shard count).
  if (network_.has_tamper_hook()) {
    throw std::logic_error(
        "SedaSimulation: tamper hooks require the single-threaded engine "
        "(construct with config.sim.threads == 1)");
  }
  for (std::uint32_t s = 0; s < shard_nets_.size(); ++s) {
    // Per-link accounting shards cleanly: bytes are charged on the
    // sender's shard, so each directed link lives in exactly one map.
    shard_nets_[s]->enable_per_link_accounting(network_.per_link_accounting());
    shard_nets_[s]->reset_accounting();
    if (network_.loss_rate() > 0.0) {
      SplitMix64 mix(network_.loss_seed() +
                     0x9e3779b97f4a7c15ULL * (s + 1) + rounds_run_);
      shard_nets_[s]->set_loss_rate(network_.loss_rate(), mix.next());
    } else {
      shard_nets_[s]->set_loss_rate(0.0);
    }
  }
}

void SedaSimulation::run_engine() {
  if (engine_) {
    engine_->run();
  } else {
    scheduler_.run();
  }
  ++rounds_run_;
}

void SedaSimulation::compromise_device(net::NodeId id) {
  dev(id).compromised = true;
}

void SedaSimulation::restore_device(net::NodeId id) {
  dev(id).compromised = false;
}

void SedaSimulation::set_device_unresponsive(net::NodeId id,
                                             bool unresponsive) {
  dev(id).unresponsive = unresponsive;
}

void SedaSimulation::advance_time(sim::Duration d) {
  if (engine_) {
    const sim::SimTime target = engine_->now() + d;
    arm_faults(target);
    engine_->run_until(target);
    return;
  }
  const sim::SimTime target = scheduler_.now() + d;
  arm_faults(target);
  scheduler_.run_until(target);
}

void SedaSimulation::attach_fault_plan(fault::FaultPlan plan) {
  if (round_active_) {
    throw std::logic_error("attach_fault_plan: round in progress");
  }
  faults_ = std::make_unique<fault::FaultInjector>(std::move(plan));
}

void SedaSimulation::clear_fault_plan() {
  if (round_active_) {
    throw std::logic_error("clear_fault_plan: round in progress");
  }
  faults_.reset();
}

void SedaSimulation::arm_faults(sim::SimTime horizon) {
  if (!faults_) return;
  faults_->arm_until(horizon, [this](const fault::FaultEvent& ev) {
    fault::observe_event(metrics_, ev);
    schedule_fault(ev);
  });
}

void SedaSimulation::schedule_fault(const fault::FaultEvent& ev) {
  using fault::FaultKind;
  switch (ev.kind) {
    case FaultKind::kCrash:
    case FaultKind::kReboot:
    case FaultKind::kSleep:
    case FaultKind::kWake:
    case FaultKind::kLeave:
    case FaultKind::kJoin:
    case FaultKind::kClockSkew: {
      if (ev.device == 0 || ev.device > device_count()) {
        throw std::out_of_range("fault plan: device id out of range");
      }
      if (ev.at <= current_time()) {
        apply_device_fault(ev);
      } else {
        sched(ev.device).schedule_at(ev.at,
                                     [this, ev] { apply_device_fault(ev); });
      }
      break;
    }
    case FaultKind::kLinkDown:
    case FaultKind::kLinkUp: {
      if (ev.device >= tree_.size() || ev.peer >= tree_.size()) {
        throw std::out_of_range("fault plan: link endpoint out of range");
      }
      const bool down = ev.kind == FaultKind::kLinkDown;
      apply_link(ev.device, ev.peer, down, ev.at);
      apply_link(ev.peer, ev.device, down, ev.at);
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
        apply_link(a, b, down, ev.at);
        apply_link(b, a, down, ev.at);
      }
      break;
    }
    case FaultKind::kLossSpike:
      if (!loss_spiked_) {
        baseline_loss_rate_ = network_.loss_rate();
        baseline_loss_seed_ = network_.loss_seed();
        loss_spiked_ = true;
      }
      apply_loss(ev.rate, ev.draw, ev.at);
      break;
    case FaultKind::kLossClear:
      loss_spiked_ = false;
      apply_loss(baseline_loss_rate_, baseline_loss_seed_, ev.at);
      break;
    case FaultKind::kProcKill:
      break;  // process-level chaos: only the wire-chaos supervisor acts
  }
}

void SedaSimulation::apply_device_fault(const fault::FaultEvent& ev) {
  using fault::FaultKind;
  Dev& d = dev(ev.device);
  switch (ev.kind) {
    case FaultKind::kCrash:
      // Volatile round state is gone with the power.
      d.unresponsive = true;
      d.got_request = false;
      d.self_done = false;
      d.waiting = 0;
      d.total = 0;
      d.passed = 0;
      d.got_children.clear();
      sched(ev.device).cancel(d.deadline);
      break;
    case FaultKind::kReboot:
    case FaultKind::kWake:
    case FaultKind::kJoin:
      d.unresponsive = false;
      break;
    case FaultKind::kSleep:
    case FaultKind::kLeave:
      // SEDA tracks no membership either: a departed device is an
      // unresponsive leaf until it rejoins.
      d.unresponsive = true;
      break;
    case FaultKind::kClockSkew:
      break;  // SEDA has no synchronized clock to skew
    default:
      break;
  }
}

void SedaSimulation::apply_link(net::NodeId src, net::NodeId dst, bool down,
                                sim::SimTime at) {
  if (at <= current_time()) {
    net_of(src).set_link_down(src, dst, down);
    return;
  }
  sched(src).schedule_at(at, [this, src, dst, down] {
    net_of(src).set_link_down(src, dst, down);
  });
}

void SedaSimulation::apply_loss(double rate, std::uint64_t seed,
                                sim::SimTime at) {
  if (!engine_) {
    if (at <= scheduler_.now()) {
      network_.set_loss_rate(rate, seed);
    } else {
      scheduler_.schedule_at(
          at, [this, rate, seed] { network_.set_loss_rate(rate, seed); });
    }
    return;
  }
  network_.set_loss_rate(rate, seed);
  for (std::uint32_t s = 0; s < shard_nets_.size(); ++s) {
    SplitMix64 mix(seed + 0x9e3779b97f4a7c15ULL * (s + 1) + rounds_run_);
    const std::uint64_t shard_seed = mix.next();
    if (at <= engine_->now()) {
      shard_nets_[s]->set_loss_rate(rate, shard_seed);
    } else {
      engine_->shard(s).schedule_at(at, [this, s, rate, shard_seed] {
        shard_nets_[s]->set_loss_rate(rate, shard_seed);
      });
    }
  }
}

Bytes SedaSimulation::edge_key(net::NodeId child) const {
  // Pairwise key for the (parent(child), child) edge, as established by
  // SEDA's join phase.
  return crypto::derive_device_key(master_, child,
                                   crypto::digest_size(config_.alg),
                                   "seda-edge-key");
}

sim::Duration SedaSimulation::attest_time() const {
  const std::uint64_t blocks =
      crypto::hmac_compression_calls(config_.alg, config_.pmem_size + 4);
  return sim::cycles_to_time(
      config_.attest_overhead_cycles + blocks * config_.cycles_per_block,
      config_.device_hz);
}

sim::Duration SedaSimulation::sig_verify_time() const {
  return sim::cycles_to_time(config_.sig_verify_cycles, config_.device_hz);
}

namespace {

sim::Duration mac_time(const SedaConfig& config, std::size_t message_len) {
  return sim::cycles_to_time(
      crypto::hmac_compression_calls(config.alg, message_len) *
          config.cycles_per_block,
      config.device_hz);
}

}  // namespace

sim::Duration SedaSimulation::predicted_total(std::uint32_t depth) const {
  const sim::Duration hop_req =
      network_.link_delay(config_.request_size());
  const sim::Duration hop_rep = network_.link_delay(config_.report_size());
  const sim::Duration verify = mac_time(config_, config_.report_size() +
                                                     config_.nonce_size);
  const sim::Duration agg =
      sim::cycles_to_time(config_.aggregate_cycles, config_.device_hz);
  return hop_req * static_cast<std::int64_t>(depth) + sig_verify_time() +
         attest_time() +
         (hop_rep + verify + agg) * static_cast<std::int64_t>(depth);
}

std::uint64_t SedaSimulation::predicted_u_ca_bytes(
    std::uint32_t edges) const {
  return (config_.request_size() + config_.report_size() +
          2ULL * config_.link.header_bytes) *
         edges;
}

Bytes SedaSimulation::report_payload(net::NodeId id, std::uint32_t total,
                                     std::uint32_t passed) const {
  // MACed with the CHILD's half of the uplink key: only if join derived
  // the same secret on both ends does the parent accept.
  Bytes body;
  append_u32le(body, total);
  append_u32le(body, passed);
  crypto::MacBuf mac;
  devices_[id - 1].mac_to_parent.mac_into(body, round_nonce_, mac);
  body.insert(body.end(), mac.bytes.begin(),
              mac.bytes.begin() + config_.report_mac_size);
  return body;
}

bool SedaSimulation::report_authentic(net::NodeId child,
                                      BytesView payload) const {
  // Verified with the PARENT's half of the key, through the active
  // crypto backend (a batch of one falls back to the scalar reference,
  // so the work tally is the same either way).
  if (payload.size() != config_.report_size()) return false;
  const crypto::MacJob job{&mac_at_parent_[child],
                           BytesView(payload.data(), 8), round_nonce_};
  crypto::MacBuf expected;
  crypto::active_backend().hmac_batch(&job, 1, &expected);
  return crypto::ct_equal(
      BytesView(payload.data() + 8, config_.report_mac_size),
      BytesView(expected.bytes.data(), config_.report_mac_size));
}

SedaJoinReport SedaSimulation::run_join() {
  obs::Span join_span("seda.join");
  metrics_.reset_values();
  if (engine_) engine_->reset_shard_metrics();
  network_.reset_accounting();
  if (engine_) sync_shard_networks();
  join_acks_done_ = 0;
  const sim::SimTime start = current_time();
  // Vrf invites its children, carrying its public key; invites cascade.
  for (net::NodeId child : tree_.children(0)) {
    Bytes invite = vrf_pk_;
    net_of(0).send(0, child, kJoinInviteMsg, std::move(invite));
  }
  run_engine();

  if (engine_) engine_->merge_metrics_into(metrics_);
  network_.assert_ledgers_consistent();
  for (const auto& net : shard_nets_) net->assert_ledgers_consistent();
  join_acks_done_ =
      static_cast<std::uint32_t>(metrics_.counter_value("seda.join_acks"));
  SedaJoinReport report;
  report.edges = device_count();
  report.total_time = current_time() - start;
  report.bytes = metrics_.counter_value("net.bytes_transmitted");
  report.messages = metrics_.counter_value("net.messages_sent");
  report.complete = join_acks_done_ == device_count();
  for (net::NodeId id = 1; id <= device_count() && report.complete; ++id) {
    report.complete = dev(id).joined;
  }
  join_span.sim_range(start.ns(), current_time().ns());
  return report;
}

void SedaSimulation::corrupt_join_key(net::NodeId child) {
  Bytes& k = key_at_parent_.at(child);
  if (k.empty()) k = Bytes(crypto::digest_size(config_.alg), 0);
  k[0] = static_cast<std::uint8_t>(k[0] ^ 0xff);
  mac_at_parent_[child].init(config_.alg, k);
}

void SedaSimulation::handle_join_invite(net::NodeId id,
                                        const net::Message& msg) {
  Dev& d = dev(id);
  if (msg.payload.size() != 32 || d.unresponsive) return;
  d.parent_pk = msg.payload;
  // Cascade the invite with OUR public key before grinding the DH.
  for (net::NodeId child : tree_.children(id)) {
    net_of(id).send(id, child, kJoinInviteMsg, d.static_pk);
  }
  const sim::Duration dh =
      sim::cycles_to_time(config_.dh_cycles, config_.device_hz);
  sched(id).schedule_after(dh, [this, id] {
    Dev& dd = dev(id);
    const Bytes shared = crypto::x25519(dd.static_sk, dd.parent_pk);
    dd.key_to_parent = crypto::hkdf(shared, /*salt=*/{},
                                    to_bytes("seda-pairwise"),
                                    crypto::digest_size(config_.alg));
    dd.mac_to_parent.init(config_.alg, dd.key_to_parent);
    dd.joined = true;
    // Ack upward with our public key so the parent can derive its half.
    net_of(id).send(id, tree_.parent(id), kJoinAckMsg, dd.static_pk);
  });
}

void SedaSimulation::handle_join_ack(net::NodeId parent,
                                     const net::Message& msg) {
  if (msg.payload.size() != 32) return;
  const net::NodeId child = msg.src;
  if (child == 0 || child > device_count()) return;
  if (parent == 0) {
    // Vrf derives instantly (it is not a constrained device).
    const Bytes shared = crypto::x25519(vrf_sk_, msg.payload);
    key_at_parent_[child] = crypto::hkdf(shared, /*salt=*/{},
                                         to_bytes("seda-pairwise"),
                                         crypto::digest_size(config_.alg));
    mac_at_parent_[child].init(config_.alg, key_at_parent_[child]);
    join_ack_counter(0).inc();
    return;
  }
  if (dev(parent).unresponsive) return;
  const Bytes child_pk = msg.payload;
  const sim::Duration dh =
      sim::cycles_to_time(config_.dh_cycles, config_.device_hz);
  sched(parent).schedule_after(dh, [this, parent, child, child_pk] {
    const Bytes shared = crypto::x25519(dev(parent).static_sk, child_pk);
    key_at_parent_[child] = crypto::hkdf(shared, /*salt=*/{},
                                         to_bytes("seda-pairwise"),
                                         crypto::digest_size(config_.alg));
    mac_at_parent_[child].init(config_.alg, key_at_parent_[child]);
    join_ack_counter(parent).inc();
  });
}

SedaRoundReport SedaSimulation::run_round() {
  if (round_active_) {
    throw std::logic_error("SEDA run_round: round already active");
  }
  round_active_ = true;

  for (net::NodeId id = 1; id <= device_count(); ++id) {
    Dev& d = dev(id);
    d.got_request = false;
    d.self_done = false;
    d.sent = false;
    d.waiting = static_cast<std::uint32_t>(tree_.children(id).size());
    d.total = 0;
    d.passed = 0;
    d.got_children.clear();
    d.pending.clear();
    d.deadline = sim::EventHandle();
  }
  root_done_ = false;
  root_waiting_ = static_cast<std::uint32_t>(tree_.children(0).size());
  root_total_ = 0;
  root_passed_ = 0;
  root_got_children_.clear();
  mac_failures_ = 0;
  obs::Span round_span("seda.round");
  metrics_.reset_values();
  if (engine_) engine_->reset_shard_metrics();
  network_.reset_accounting();
  if (engine_) sync_shard_networks();

  SedaRoundReport report;
  report.devices = device_count();
  report.t_req = current_time();

  // Fresh nonce + (modelled) signature from Vrf.
  crypto::SecureRandom nonce_rng(
      static_cast<std::uint64_t>(current_time().ns()) ^ 0x6e6f6e6365ULL);
  round_nonce_ = nonce_rng.bytes(config_.nonce_size);
  Bytes request = round_nonce_;
  request.resize(config_.request_size(), 0xa5);  // signature placeholder

  for (net::NodeId child : tree_.children(0)) {
    net::Network& net = net_of(0);
    Bytes fwd = net.acquire_payload();
    fwd.assign(request.begin(), request.end());
    net.send(0, child, kRequestMsg, std::move(fwd));
  }

  // Vrf give-up deadline.
  const sim::SimTime give_up =
      current_time() +
      predicted_total(tree_.max_depth() == 0 ? 1 : tree_.max_depth()) +
      config_.report_margin *
          static_cast<std::int64_t>(tree_.max_depth() + 2);
  t_resp_ = give_up;
  root_deadline_ = sched(0).schedule_at(give_up, [this] { root_complete(); });

  arm_faults(give_up);

  run_engine();

  if (engine_) engine_->merge_metrics_into(metrics_);
  network_.assert_ledgers_consistent();
  for (const auto& net : shard_nets_) net->assert_ledgers_consistent();
  mac_failures_ =
      static_cast<std::uint32_t>(metrics_.counter_value("seda.mac_failures"));
  report.t_resp = t_resp_;
  report.total = root_total_;
  report.passed = root_passed_;
  report.verified =
      root_total_ == device_count() && root_passed_ == device_count();
  report.u_ca_bytes = metrics_.counter_value("net.bytes_transmitted");
  report.messages = metrics_.counter_value("net.messages_sent");
  report.mac_failures = mac_failures_;
  round_active_ = false;
  round_span.sim_range(report.t_req.ns(), report.t_resp.ns());
  return report;
}

void SedaSimulation::on_message(const net::Message& msg) {
  if (msg.dst == 0) {
    if (msg.kind == kJoinAckMsg) {
      handle_join_ack(0, msg);
      return;
    }
    root_receive(msg);
    return;
  }
  if (msg.dst > device_count() || dev(msg.dst).unresponsive) return;
  switch (msg.kind) {
    case kRequestMsg:
      handle_request(msg.dst, msg);
      break;
    case kReportMsg:
      handle_report(msg.dst, msg);
      break;
    case kJoinInviteMsg:
      handle_join_invite(msg.dst, msg);
      break;
    case kJoinAckMsg:
      handle_join_ack(msg.dst, msg);
      break;
    default:
      break;
  }
}

void SedaSimulation::handle_request(net::NodeId id, const net::Message& msg) {
  Dev& d = dev(id);
  if (d.got_request) return;
  d.got_request = true;

  // Forward to children immediately (in pooled buffers); signature
  // verification and the self-measurement then occupy this device's CPU.
  for (net::NodeId child : tree_.children(id)) {
    net::Network& net = net_of(id);
    Bytes fwd = net.acquire_payload();
    fwd.assign(msg.payload.begin(), msg.payload.end());
    net.send(id, child, kRequestMsg, std::move(fwd));
  }
  sched(id).schedule_after(sig_verify_time() + attest_time(),
                           [this, id] { self_attested(id); });

  if (!tree_.children(id).empty()) {
    const std::uint32_t levels_below = tree_.max_depth() - tree_.depth(id);
    const sim::Duration hop_req =
        network_.link_delay(config_.request_size());
    const sim::Duration hop_rep = network_.link_delay(config_.report_size());
    const sim::Duration verify =
        mac_time(config_, config_.report_size() + config_.nonce_size);
    const sim::Duration agg =
        sim::cycles_to_time(config_.aggregate_cycles, config_.device_hz);
    const sim::SimTime deadline =
        sched(id).now() +
        hop_req * static_cast<std::int64_t>(levels_below) +
        sig_verify_time() + attest_time() +
        (hop_rep + verify + agg) * static_cast<std::int64_t>(levels_below) +
        // Height-scaled margin: a descendant flushing at its own deadline
        // must still beat ours (see sap::SapSimulation::node_deadline).
        config_.report_margin * static_cast<std::int64_t>(levels_below + 1);
    d.deadline = sched(id).schedule_at(deadline, [this, id] { flush(id); });
  }
}

void SedaSimulation::self_attested(net::NodeId id) {
  Dev& d = dev(id);
  if (d.unresponsive) return;
  d.self_done = true;
  d.total += 1;
  if (!d.compromised) d.passed += 1;
  try_forward(id);
}

void SedaSimulation::handle_report(net::NodeId id, const net::Message& msg) {
  Dev& d = dev(id);
  if (d.sent) return;
  const net::NodeId child = msg.src;
  if (std::find(d.got_children.begin(), d.got_children.end(), child) !=
      d.got_children.end()) {
    return;  // duplicate child report
  }
  d.got_children.push_back(child);
  // Hop-by-hop verification: the parent authenticates every child report
  // with the pairwise key before aggregating. The MAC check costs
  // simulated CPU time per report; the host-side computation is queued
  // so overlapping checks at one parent resolve as a single backend
  // batch when the first one completes (SEDA aggregation hot path).
  d.pending.push_back({child, Bytes(msg.payload.begin(), msg.payload.end()),
                       /*checked=*/false, /*ok=*/false});
  const sim::Duration verify =
      mac_time(config_, config_.report_size() + config_.nonce_size);
  sched(id).schedule_after(verify,
                           [this, id, child] { finish_report_check(id, child); });
}

void SedaSimulation::verify_pending_batch(net::NodeId id) {
  Dev& d = dev(id);
  // Wrong-sized payloads fail without a MAC computation, exactly as the
  // serial report_authentic() short-circuited (zero compressions).
  std::vector<Dev::PendingReport*> todo;
  todo.reserve(d.pending.size());
  for (auto& p : d.pending) {
    if (p.checked) continue;
    if (p.payload.size() != config_.report_size()) {
      p.checked = true;
      p.ok = false;
      continue;
    }
    todo.push_back(&p);
  }
  if (todo.empty()) return;
  std::vector<crypto::MacJob> jobs(todo.size());
  std::vector<crypto::MacBuf> outs(todo.size());
  for (std::size_t i = 0; i < todo.size(); ++i) {
    jobs[i] = {&mac_at_parent_[todo[i]->child],
               BytesView(todo[i]->payload.data(), 8), round_nonce_};
  }
  crypto::active_backend().hmac_batch(jobs.data(), jobs.size(), outs.data());
  for (std::size_t i = 0; i < todo.size(); ++i) {
    todo[i]->checked = true;
    todo[i]->ok = crypto::ct_equal(
        BytesView(todo[i]->payload.data() + 8, config_.report_mac_size),
        BytesView(outs[i].bytes.data(), config_.report_mac_size));
  }
}

void SedaSimulation::finish_report_check(net::NodeId id, net::NodeId child) {
  Dev& dd = dev(id);
  if (dd.sent) return;
  const auto it =
      std::find_if(dd.pending.begin(), dd.pending.end(),
                   [child](const Dev::PendingReport& p) {
                     return p.child == child;
                   });
  if (it == dd.pending.end()) return;
  if (!it->checked) verify_pending_batch(id);
  const bool ok = it->ok;
  const Bytes payload = std::move(it->payload);
  dd.pending.erase(it);
  if (!ok) {
    mac_failure_counter(id).inc();  // forged/tampered report: drop it
  } else {
    dd.total += read_u32le(payload, 0);
    dd.passed += read_u32le(payload, 4);
  }
  if (dd.waiting > 0) --dd.waiting;
  try_forward(id);
}

void SedaSimulation::try_forward(net::NodeId id) {
  Dev& d = dev(id);
  if (d.sent || !d.self_done || d.waiting != 0) return;
  sched(id).cancel(d.deadline);
  send_report(id);
}

void SedaSimulation::flush(net::NodeId id) {
  Dev& d = dev(id);
  if (d.sent || d.unresponsive) return;
  send_report(id);  // partial aggregate; Vrf sees total < N
}

void SedaSimulation::send_report(net::NodeId id) {
  Dev& d = dev(id);
  d.sent = true;
  const sim::Duration agg =
      sim::cycles_to_time(config_.aggregate_cycles, config_.device_hz);
  const Bytes payload = report_payload(id, d.total, d.passed);
  const net::NodeId parent = tree_.parent(id);
  sched(id).schedule_after(agg, [this, id, parent, payload] {
    if (dev(id).unresponsive) return;  // crashed mid-aggregation
    net_of(id).send(id, parent, kReportMsg, payload);
  });
}

void SedaSimulation::root_receive(const net::Message& msg) {
  if (root_done_ || msg.kind != kReportMsg) return;
  if (std::find(root_got_children_.begin(), root_got_children_.end(),
                msg.src) != root_got_children_.end()) {
    return;  // duplicate child report
  }
  root_got_children_.push_back(msg.src);
  if (!report_authentic(msg.src, msg.payload)) {
    mac_failure_counter(0).inc();
  } else {
    root_total_ += read_u32le(msg.payload, 0);
    root_passed_ += read_u32le(msg.payload, 4);
  }
  if (root_waiting_ > 0) --root_waiting_;
  if (root_waiting_ == 0) {
    sched(0).cancel(root_deadline_);
    root_complete();
  }
}

void SedaSimulation::root_complete() {
  if (root_done_) return;
  root_done_ = true;
  t_resp_ = sched(0).now();
}

}  // namespace cra::seda
