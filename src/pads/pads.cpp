#include "pads/pads.hpp"

#include <algorithm>
#include <array>
#include <stdexcept>
#include <utility>

#include "crypto/backend.hpp"
#include "crypto/chacha20.hpp"
#include "crypto/ct.hpp"
#include "crypto/kdf.hpp"
#include "crypto/sha256.hpp"
#include "device/attest_tcb.hpp"
#include "obs/trace.hpp"
#include "pads/messages.hpp"

namespace cra::pads {
namespace {

Bytes master_from_seed(std::uint64_t seed) {
  crypto::SecureRandom rng(seed ^ 0x5041'4453'6d73'7472ULL);  // "PADSmstr"
  return rng.bytes(32);
}

}  // namespace

PadsSimulation::PadsSimulation(PadsConfig config, net::Tree tree,
                               std::uint64_t seed)
    : PadsSimulation(obs::Span("pads.setup"), config, std::move(tree), seed) {}

PadsSimulation::PadsSimulation(const obs::Span& /*setup*/, PadsConfig config,
                               net::Tree tree, std::uint64_t seed)
    : config_(config),
      tree_(std::move(tree)),
      // Device n sits at position n of the deployment tree, so the
      // runtime's DFS-preorder placement is subtree-aligned here too.
      rt_(tree_, config.sim, config.link,
          [this](const net::Message& m) { on_message(m); },
          [this](const fault::FaultEvent& ev) { on_device_fault(ev); },
          &dev_at_),
      stats_(rt_.per_shard([](obs::MetricsRegistry& reg) {
        return ShardStats{&reg.counter("pads.merges"),
                          &reg.counter("pads.token_failures")};
      })),
      devices_(tree_.device_count() + 1) {
  if (config_.token_size == 0 ||
      config_.token_size > crypto::digest_size(config_.alg)) {
    throw std::invalid_argument(
        "PadsConfig: token_size must be in [1, digest_size(alg)]");
  }
  dev_at_.resize(tree_.size());
  pos_of_.resize(tree_.size());
  for (net::NodeId n = 0; n < tree_.size(); ++n) {
    dev_at_[n] = n;
    pos_of_[n] = n;
  }
  // Every node — the verifier included — holds a self-attestation key
  // provisioned at deployment; token authenticity is what gates merging.
  // Each shard's worker provisions the nodes it owns.
  Bytes master = master_from_seed(seed);
  const crypto::Hkdf kdf(master);
  crypto::secure_wipe(master);
  rt_.for_each_shard([&](std::uint32_t s) {
    obs::Span span("pads.provision");
    kdf.device_keys(rt_.entities_of(s, 0), crypto::digest_size(config_.alg),
                    "pads-key", [this](net::NodeId id, BytesView key) {
                      dev(id).mac.init(config_.alg, key);
                    });
  });
  present_.assign(tree_.size(), 1);
  vrf_present_.assign(tree_.size(), 1);
  blocks_ = knowledge_blocks(device_count());
  known_.assign(tree_.size() * blocks_, 0);
  bad_.assign(known_.size(), 0);
  tokens_.assign(tree_.size() * config_.token_size, 0);
  expected_tokens_.assign(tokens_.size(), 0);
}

PadsSimulation PadsSimulation::balanced(PadsConfig config,
                                        std::uint32_t devices,
                                        std::uint64_t seed) {
  return PadsSimulation(
      config, net::balanced_kary_tree(devices, config.tree_arity), seed);
}

void PadsSimulation::compromise_device(net::NodeId id) {
  dev(rt_.device_id(id)).compromised = true;
}

void PadsSimulation::restore_device(net::NodeId id) {
  dev(rt_.device_id(id)).compromised = false;
}

void PadsSimulation::set_device_unresponsive(net::NodeId id,
                                             bool unresponsive) {
  dev(rt_.device_id(id)).unresponsive = unresponsive;
}

void PadsSimulation::rebuild_topology(
    net::Tree tree, std::vector<net::NodeId> device_at_position) {
  if (tree.device_count() != device_count() ||
      device_at_position.size() != tree.size() ||
      device_at_position[0] != 0) {
    throw std::invalid_argument("rebuild_topology: shape mismatch");
  }
  std::vector<net::NodeId> new_pos(tree.size(), net::kNoNode);
  for (net::NodeId pos = 0; pos < tree.size(); ++pos) {
    const net::NodeId id = device_at_position[pos];
    if (id >= tree.size() || new_pos[id] != net::kNoNode) {
      throw std::invalid_argument("rebuild_topology: not a permutation");
    }
    new_pos[id] = pos;
  }
  // Safe mid-round: callers only reach here from the driver thread while
  // the engine is quiescent (between run_until slices), and gossip
  // consults the routing tables at send time.
  tree_ = std::move(tree);
  dev_at_ = std::move(device_at_position);
  pos_of_ = std::move(new_pos);
}

void PadsSimulation::set_rewire_schedule(std::vector<net::RewireStep> steps) {
  rt_.require_idle("set_rewire_schedule");
  std::stable_sort(steps.begin(), steps.end(),
                   [](const net::RewireStep& a, const net::RewireStep& b) {
                     return a.at < b.at;
                   });
  rewires_ = std::move(steps);
}

void PadsSimulation::advance_time(sim::Duration d) { rt_.advance_time(d); }

void PadsSimulation::on_device_fault(const fault::FaultEvent& ev) {
  using fault::FaultKind;
  if (ev.kind != FaultKind::kLeave && ev.kind != FaultKind::kJoin) {
    rt_.apply_at(ev.device, ev.at, [this, ev] { apply_device_fault(ev); });
    return;
  }
  const net::NodeId id = ev.device;
  const std::uint8_t present = ev.kind == FaultKind::kJoin ? 1 : 0;
  // Two views, two events, both scheduled now (engine idle) so neither
  // is a cross-shard post: the device's shard owns the authoritative
  // flag, and the verifier's shard keeps its own mirror so the consensus
  // check never reads cross-shard state.
  rt_.apply_at(id, ev.at, [this, id, present] { present_[id] = present; });
  rt_.apply_at(0, ev.at, [this, id, present] {
    vrf_present_[id] = present;
    // A departure can shrink the consensus target to exactly what the
    // verifier already covers; a join can grow it past what a latched
    // verdict covered, which revokes the verdict until gossip catches
    // back up.
    if (consensus_reached_ && !verifier_covered()) {
      consensus_reached_ = false;
    }
    note_verifier_progress(rt_.sched(0).now());
  });
}

void PadsSimulation::apply_device_fault(const fault::FaultEvent& ev) {
  using fault::FaultKind;
  Dev& d = dev(ev.device);
  switch (ev.kind) {
    case FaultKind::kCrash:
      // Volatile state is gone with the power: the knowledge vectors and
      // this round's self-attestation. The device cannot re-attest until
      // the next round, so it stays silent even after a reboot.
      d.unresponsive = true;
      d.attested = false;
      std::fill_n(known_row(ev.device), blocks_, 0);
      std::fill_n(bad_row(ev.device), blocks_, 0);
      break;
    case FaultKind::kReboot:
    case FaultKind::kWake:
      d.unresponsive = false;
      break;
    case FaultKind::kSleep:
      d.unresponsive = true;
      break;
    case FaultKind::kClockSkew:
      // PADS needs no synchronized clock: epochs are local timers.
      break;
    case FaultKind::kLeave:
    case FaultKind::kJoin:
      break;  // handled by on_device_fault's membership path
    default:
      break;
  }
}

sim::Duration PadsSimulation::attest_time() const {
  return sim::cycles_to_time(
      device::attest_cycles(config_.alg, config_.pmem_size + 4,
                            config_.attest_overhead_cycles,
                            config_.cycles_per_block),
      config_.device_hz);
}

std::size_t PadsSimulation::gossip_wire_size() const noexcept {
  return 13 + config_.token_size + 16 * knowledge_blocks(device_count());
}

sim::Duration PadsSimulation::effective_gossip_period() const {
  // Floor: one full gossip message must clear a link (plus a hair of
  // slack) within a period, or epoch e+1's send would outrun epoch e's
  // arrival and knowledge would never advance.
  const sim::Duration floor =
      rt_.network().link_delay(gossip_wire_size()) + sim::Duration::from_us(1);
  return config_.gossip_period > floor ? config_.gossip_period : floor;
}

std::uint32_t PadsSimulation::effective_gossip_epochs() const noexcept {
  if (config_.gossip_epochs != 0) return config_.gossip_epochs;
  // Knowledge needs depth hops up plus depth hops down, one hop per
  // epoch; the slack absorbs rewires and stragglers.
  return 2 * tree_.max_depth() + 6;
}

void PadsSimulation::mark(net::NodeId owner, net::NodeId subject,
                          bool is_bad) noexcept {
  const std::uint32_t bit = subject - 1;
  known_row(owner)[bit / 64] |= 1ULL << (bit % 64);
  if (is_bad) bad_row(owner)[bit / 64] |= 1ULL << (bit % 64);
}

bool PadsSimulation::verifier_covered() const noexcept {
  const std::uint64_t* kr = known_.data();  // row 0 = the verifier
  for (net::NodeId id = 1; id <= device_count(); ++id) {
    if (!vrf_present_[id]) continue;
    const std::uint32_t bit = id - 1;
    if ((kr[bit / 64] & (1ULL << (bit % 64))) == 0) return false;
  }
  return true;
}

void PadsSimulation::note_verifier_progress(sim::SimTime at) noexcept {
  if (consensus_reached_) return;
  if (verifier_covered()) {
    consensus_reached_ = true;
    consensus_at_ = at;
  }
}

void PadsSimulation::open_shard(std::uint32_t s, std::uint32_t nonce) {
  // One SIMD-friendly batch computes each node's round token twice: the
  // value its hardware actually emits (state byte reflects compromise)
  // and the healthy value receivers expect.
  const std::span<const net::NodeId> ids = rt_.entities_of(s);
  const std::size_t n = ids.size();
  std::array<std::uint8_t, 4> nonce_le{};
  store_u32le(nonce_le.data(), nonce);
  const BytesView nonce_view(nonce_le.data(), nonce_le.size());
  static constexpr std::uint8_t kHealthy = 0x00;
  static constexpr std::uint8_t kInfected = 0xff;
  std::vector<crypto::MacJob> jobs(2 * n);
  std::vector<crypto::MacBuf> outs(2 * n);
  for (std::size_t i = 0; i < n; ++i) {
    Dev& d = dev(ids[i]);
    d.attested = ids[i] == 0;  // Vrf has no self-measurement
    std::fill_n(known_row(ids[i]), blocks_, 0);
    std::fill_n(bad_row(ids[i]), blocks_, 0);
    jobs[i] = {&d.mac, nonce_view,
               BytesView(d.compromised ? &kInfected : &kHealthy, 1)};
    jobs[n + i] = {&d.mac, nonce_view, BytesView(&kHealthy, 1)};
  }
  crypto::active_backend().hmac_batch(jobs.data(), jobs.size(), outs.data());
  const std::size_t token_size = config_.token_size;
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t row = std::size_t{ids[i]} * token_size;
    std::copy_n(outs[i].bytes.data(), token_size, tokens_.data() + row);
    std::copy_n(outs[n + i].bytes.data(), token_size,
                expected_tokens_.data() + row);
  }
}

void PadsSimulation::self_attest(net::NodeId id) {
  Dev& d = dev(id);
  if (!present_[id] || d.unresponsive) return;  // was not awake to measure
  d.attested = true;
  // Honest self-verdict; a compromised device's claims never propagate
  // anyway because its token fails every receiver's check.
  mark(id, id, d.compromised);
}

void PadsSimulation::gossip_tick(net::NodeId id, std::uint32_t epoch) {
  // Reschedule unconditionally: a device that is absent or asleep now
  // may be back before the round ends, and the timer chain is the only
  // thing that brings it back into the gossip.
  if (epoch + 1 < epochs_total_) {
    rt_.sched(id).schedule_at(
        first_epoch_at_ + period_ * static_cast<std::int64_t>(epoch + 1),
        [this, id, epoch] { gossip_tick(id, epoch + 1); });
  }
  const Dev& d = dev(id);
  if (!present_[id] || d.unresponsive || !d.attested) return;
  // Route over the CURRENT tree: position lookups happen at send time,
  // so a rewire applied mid-round redirects the very next epoch.
  const net::NodeId pos = pos_of_[id];
  const std::span<const std::uint64_t> known(known_row(id), blocks_);
  const std::span<const std::uint64_t> bad(bad_row(id), blocks_);
  net::Network& net = rt_.net_of(id);
  auto send_to = [&](net::NodeId neighbor) {
    Bytes buf = net.acquire_payload();
    encode_gossip(buf, id, epoch, device_count(), token_row(tokens_, id),
                  known, bad);
    net.send(id, neighbor, kGossipKind, std::move(buf));
  };
  if (pos != 0) send_to(dev_at_[tree_.parent(pos)]);
  for (const net::NodeId child_pos : tree_.children(pos)) {
    send_to(dev_at_[child_pos]);
  }
}

void PadsSimulation::on_message(const net::Message& msg) {
  if (msg.kind != kGossipKind) return;
  GossipView v;
  if (!GossipView::parse(msg.payload, v)) return;
  if (v.devices != device_count() || v.sender != msg.src ||
      v.sender >= tree_.size()) {
    return;
  }
  const net::NodeId dst = msg.dst;
  if (dst > device_count()) return;  // stray/forged address
  if (!present_[dst] || dev(dst).unresponsive) return;  // radio is off
  const bool authentic =
      crypto::ct_equal(v.token, token_row(expected_tokens_, v.sender));
  if (!authentic) {
    stats(dst).rejects->inc();
    // The sender is alive but cannot produce the healthy token: that IS
    // the untrusted verdict. Nothing it claims gets merged.
    if (v.sender != 0) mark(dst, v.sender, true);
  } else {
    if (v.sender != 0) mark(dst, v.sender, false);
    std::uint64_t* kr = known_row(dst);
    std::uint64_t* br = bad_row(dst);
    for (std::size_t b = 0; b < blocks_; ++b) {
      kr[b] |= v.known_block(b);
      br[b] |= v.bad_block(b);
    }
    stats(dst).merges->inc();
  }
  if (dst == 0) note_verifier_progress(rt_.sched(0).now());
}

PadsRoundReport PadsSimulation::run_round() {
  obs::Span round_span("pads.round");
  // Every shard resets its own nodes and MACs their round tokens on its
  // worker; the nonce is fresh per completed window.
  const auto nonce = static_cast<std::uint32_t>(rt_.windows() + 1);
  const auto window = rt_.begin_window(
      [this, nonce](std::uint32_t s) { open_shard(s, nonce); });
  consensus_reached_ = false;
  // The verifier's membership view starts from the authoritative one —
  // both are only written by the driver thread between rounds.
  vrf_present_ = present_;
  const std::vector<net::RewireStep> rewires = std::exchange(rewires_, {});

  t_start_ = current_time();

  // Rewires scheduled at or before the round start describe the initial
  // deployment: apply them before anything is in flight.
  std::size_t ri = 0;
  for (; ri < rewires.size() && rewires[ri].at <= t_start_; ++ri) {
    rebuild_topology(rewires[ri].tree, rewires[ri].device_at_position);
  }

  period_ = effective_gossip_period();
  epochs_total_ = effective_gossip_epochs();
  first_epoch_at_ = t_start_ + attest_time();

  // Every node measures itself first (the HMAC over PMEM occupies its
  // CPU for attest_time), then the gossip timer chain starts.
  for (net::NodeId id = 1; id <= device_count(); ++id) {
    rt_.sched(id).schedule_at(first_epoch_at_, [this, id] { self_attest(id); });
  }
  for (net::NodeId id = 0; id <= device_count(); ++id) {
    rt_.sched(id).schedule_at(first_epoch_at_,
                              [this, id] { gossip_tick(id, 0); });
  }

  const sim::SimTime horizon =
      first_epoch_at_ + period_ * static_cast<std::int64_t>(epochs_total_ + 1);
  rt_.arm_faults(horizon);

  // Slice the run at each rewire instant: run_until parks the engine at
  // a quiescent barrier, the driver thread swaps the routing tables,
  // and the next slice (or the final run to quiescence) continues with
  // identical event order on every engine.
  for (; ri < rewires.size(); ++ri) {
    rt_.run_until(rewires[ri].at);
    rebuild_topology(rewires[ri].tree, rewires[ri].device_at_position);
  }
  rt_.run_window();
  const obs::MetricsRegistry& reg = rt_.metrics();

  PadsRoundReport report;
  report.devices = device_count();
  report.t_start = t_start_;
  report.t_end = current_time();
  const std::uint64_t* vk = known_.data();
  const std::uint64_t* vb = bad_.data();
  for (net::NodeId id = 1; id <= device_count(); ++id) {
    if (!vrf_present_[id]) continue;
    ++report.present;
    const std::uint32_t bit = id - 1;
    const std::uint64_t m = 1ULL << (bit % 64);
    if (vk[bit / 64] & m) ++report.known;
    if (vb[bit / 64] & m) {
      ++report.untrusted;
      if (!dev(id).compromised) ++report.false_untrusted;
    }
  }
  report.converged = verifier_covered();
  report.consensus_at = consensus_reached_ ? consensus_at_ : report.t_end;
  report.u_ca_bytes = reg.counter_value("net.bytes_transmitted");
  report.messages = reg.counter_value("net.messages_sent");
  report.token_failures =
      static_cast<std::uint32_t>(reg.counter_value("pads.token_failures"));
  report.epochs = epochs_total_;
  report.digest = round_digest(report);
  round_span.sim_range(report.t_start.ns(), report.t_end.ns());
  return report;
}

std::string PadsSimulation::round_digest(const PadsRoundReport& report) const {
  // Canonical serialization of everything the round decided: membership
  // (both views), every node's knowledge vectors, the consensus instant
  // and the traffic ledgers. Any divergence between engines or thread
  // counts — a reordered merge, a lost message, a misrouted rewire —
  // lands in at least one of these.
  Bytes blob;
  blob.reserve(16 + 2 * present_.size() + 16 * known_.size());
  append_u32le(blob, report.devices);
  blob.insert(blob.end(), present_.begin(), present_.end());
  blob.insert(blob.end(), vrf_present_.begin(), vrf_present_.end());
  for (const std::uint64_t w : known_) append_u64le(blob, w);
  for (const std::uint64_t w : bad_) append_u64le(blob, w);
  append_u64le(blob, static_cast<std::uint64_t>(report.consensus_at.ns()));
  append_u64le(blob, static_cast<std::uint64_t>(report.t_end.ns()));
  append_u64le(blob, report.u_ca_bytes);
  append_u64le(blob, report.messages);
  append_u64le(blob, report.token_failures);
  const crypto::Sha256::Digest d = crypto::Sha256::digest(blob);
  return to_hex(BytesView(d.data(), d.size()));
}

}  // namespace cra::pads
