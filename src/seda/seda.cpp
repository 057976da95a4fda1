#include "seda/seda.hpp"

#include <algorithm>

#include "crypto/backend.hpp"
#include "crypto/chacha20.hpp"
#include "obs/trace.hpp"
#include "crypto/ct.hpp"
#include "crypto/kdf.hpp"
#include "crypto/x25519.hpp"
#include "device/attest_tcb.hpp"

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

/// Key `mac` with one end's half of an edge's pairwise key, derived from
/// that end's X25519 shared secret.
void init_pairwise_mac(crypto::PrecomputedMac& mac, crypto::HashAlg alg,
                       BytesView shared) {
  mac.init(alg, crypto::hkdf(shared, /*salt=*/{}, to_bytes("seda-pairwise"),
                             crypto::digest_size(alg)));
}

}  // namespace

SedaSimulation::SedaSimulation(SedaConfig config, net::Tree tree,
                               std::uint64_t seed)
    : SedaSimulation(obs::Span("seda.setup"), config, std::move(tree), seed) {}

SedaSimulation::SedaSimulation(const obs::Span& /*setup*/, SedaConfig config,
                               net::Tree tree, std::uint64_t seed)
    : config_(config),
      tree_(std::move(tree)),
      rt_(tree_, config.sim, config.link,
          [this](const net::Message& m) { on_message(m); },
          [this](const fault::FaultEvent& ev) {
            rt_.apply_at(ev.device, ev.at,
                         [this, ev] { apply_device_fault(ev); });
          }),
      stats_(rt_.per_shard([](obs::MetricsRegistry& reg) {
        return ShardStats{&reg.counter("seda.mac_failures"),
                          &reg.counter("seda.join_acks")};
      })),
      master_(master_from_seed(seed)),
      devices_(tree_.device_count() + 1),
      mac_at_parent_(tree_.device_count() + 1) {
  Dev& vrf = dev(0);
  crypto::SecureRandom vrf_rng(seed ^ 0x7672'666b'6579ULL);
  vrf.static_sk = vrf_rng.bytes(32);
  vrf.static_pk = crypto::x25519_base(vrf.static_sk);
  // Provisioning-time pre-shared keys for the (parent(id), id) edge, on
  // the worker of id's shard; run_join() replaces them with X25519-agreed
  // ones. Both halves start equal, so the device copies the parent-side
  // midstates.
  rt_.for_each_shard([&](std::uint32_t s) {
    obs::Span span("seda.provision");
    master_.device_keys(rt_.entities_of(s, 1),
                        crypto::digest_size(config_.alg), "seda-edge-key",
                        [this](net::NodeId id, BytesView key) {
                          mac_at_parent_[id].init(config_.alg, key);
                          dev(id).mac_to_parent = mac_at_parent_[id];
                        });
  });
}

SedaSimulation SedaSimulation::balanced(SedaConfig config,
                                        std::uint32_t devices,
                                        std::uint64_t seed) {
  return SedaSimulation(
      config, net::balanced_kary_tree(devices, config.tree_arity), seed);
}

void SedaSimulation::compromise_device(net::NodeId id) {
  dev(rt_.device_id(id)).compromised = true;
}

void SedaSimulation::restore_device(net::NodeId id) {
  dev(rt_.device_id(id)).compromised = false;
}

void SedaSimulation::set_device_unresponsive(net::NodeId id,
                                             bool unresponsive) {
  dev(rt_.device_id(id)).unresponsive = unresponsive;
}

void SedaSimulation::advance_time(sim::Duration d) { rt_.advance_time(d); }

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
      rt_.sched(ev.device).cancel(d.deadline);
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

sim::Duration SedaSimulation::attest_time() const {
  return sim::cycles_to_time(
      device::attest_cycles(config_.alg, config_.pmem_size + 4,
                            config_.attest_overhead_cycles,
                            config_.cycles_per_block),
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
      rt_.network().link_delay(config_.request_size());
  const sim::Duration hop_rep = rt_.network().link_delay(config_.report_size());
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
  devices_[id].mac_to_parent.mac_into(body, round_nonce_, mac);
  body.insert(body.end(), mac.bytes.begin(),
              mac.bytes.begin() + config_.report_mac_size);
  return body;
}

SedaJoinReport SedaSimulation::run_join() {
  obs::Span join_span("seda.join");
  const auto window = rt_.begin_window();
  join_acks_done_ = 0;
  const sim::SimTime start = current_time();
  // Vrf invites its children, carrying its public key; invites cascade.
  for (net::NodeId child : tree_.children(0)) {
    rt_.net_of(0).send(0, child, kJoinInviteMsg, dev(0).static_pk);
  }
  rt_.run_window();

  const obs::MetricsRegistry& m = rt_.metrics();
  join_acks_done_ =
      static_cast<std::uint32_t>(m.counter_value("seda.join_acks"));
  SedaJoinReport report;
  report.edges = device_count();
  report.total_time = current_time() - start;
  report.bytes = m.counter_value("net.bytes_transmitted");
  report.messages = m.counter_value("net.messages_sent");
  report.complete = join_acks_done_ == device_count();
  for (net::NodeId id = 1; id <= device_count() && report.complete; ++id) {
    report.complete = dev(id).joined;
  }
  join_span.sim_range(start.ns(), current_time().ns());
  return report;
}

void SedaSimulation::corrupt_join_key(net::NodeId child) {
  // The parent's half becomes a fixed all-zero key, which the child's
  // half (derived by HKDF) does not match.
  mac_at_parent_.at(child).init(config_.alg,
                                Bytes(crypto::digest_size(config_.alg), 0));
}

void SedaSimulation::handle_join_invite(net::NodeId id,
                                        const net::Message& msg) {
  Dev& d = dev(id);
  if (msg.payload.size() != 32 || d.unresponsive) return;
  d.parent_pk = msg.payload;
  if (d.static_sk.empty()) {  // a repeated join keeps the first keypair
    d.static_sk = master_.device_key(id, 32, "seda-x25519");
    d.static_pk = crypto::x25519_base(d.static_sk);
  }
  // Cascade the invite with OUR public key before grinding the DH.
  for (net::NodeId child : tree_.children(id)) {
    rt_.net_of(id).send(id, child, kJoinInviteMsg, d.static_pk);
  }
  const sim::Duration dh =
      sim::cycles_to_time(config_.dh_cycles, config_.device_hz);
  rt_.sched(id).schedule_after(dh, [this, id] {
    Dev& dd = dev(id);
    init_pairwise_mac(dd.mac_to_parent, config_.alg,
                      crypto::x25519(dd.static_sk, dd.parent_pk));
    dd.joined = true;
    // Ack upward with our public key so the parent can derive its half.
    rt_.net_of(id).send(id, tree_.parent(id), kJoinAckMsg, dd.static_pk);
  });
}

void SedaSimulation::handle_join_ack(net::NodeId parent,
                                     const net::Message& msg) {
  if (msg.payload.size() != 32) return;
  // Only a child may agree its uplink key with this node.
  const net::NodeId child = msg.src;
  if (child == 0 || child > device_count() || tree_.parent(child) != parent) {
    return;
  }
  // A device derives its keypair at its own invite, before it invites
  // its children, so an ack reaching a device never invited is forged.
  if (dev(parent).static_sk.empty()) return;
  auto agree = [this, parent, child, child_pk = msg.payload] {
    init_pairwise_mac(mac_at_parent_[child], config_.alg,
                      crypto::x25519(dev(parent).static_sk, child_pk));
    stats(parent).join_acks->inc();
  };
  if (parent == 0) {
    agree();  // Vrf derives instantly (it is not a constrained device)
    return;
  }
  const sim::Duration dh =
      sim::cycles_to_time(config_.dh_cycles, config_.device_hz);
  rt_.sched(parent).schedule_after(dh, std::move(agree));
}

SedaRoundReport SedaSimulation::run_round() {
  obs::Span round_span("seda.round");
  const auto window = rt_.begin_window([this](std::uint32_t s) {
    // Reset per-round state, Vrf's included. Vrf has no self-measurement.
    for (const net::NodeId id : rt_.entities_of(s)) {
      Dev& d = dev(id);
      d.got_request = false;
      d.self_done = id == 0;
      d.sent = false;
      d.waiting = static_cast<std::uint32_t>(tree_.children(id).size());
      d.total = 0;
      d.passed = 0;
      d.got_children.clear();
      d.pending.clear();
      d.deadline = sim::EventHandle();
    }
  });

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
    net::Network& net = rt_.net_of(0);
    Bytes fwd = net.acquire_payload();
    fwd.assign(request.begin(), request.end());
    net.send(0, child, kRequestMsg, std::move(fwd));
  }

  // Vrf's give-up deadline: it flushes what it holds, as a device does.
  const sim::SimTime give_up =
      current_time() +
      predicted_total(tree_.max_depth() == 0 ? 1 : tree_.max_depth()) +
      config_.report_margin *
          static_cast<std::int64_t>(tree_.max_depth() + 2);
  t_resp_ = give_up;
  dev(0).deadline = rt_.sched(0).schedule_at(give_up, [this] { flush(0); });

  rt_.arm_faults(give_up);
  rt_.run_window();

  const obs::MetricsRegistry& m = rt_.metrics();
  const Dev& vrf = dev(0);
  report.t_resp = t_resp_;
  report.total = vrf.total;
  report.passed = vrf.passed;
  report.verified =
      vrf.total == device_count() && vrf.passed == device_count();
  report.u_ca_bytes = m.counter_value("net.bytes_transmitted");
  report.messages = m.counter_value("net.messages_sent");
  report.mac_failures =
      static_cast<std::uint32_t>(m.counter_value("seda.mac_failures"));
  round_span.sim_range(report.t_req.ns(), report.t_resp.ns());
  return report;
}

void SedaSimulation::on_message(const net::Message& msg) {
  if (msg.dst > device_count() || dev(msg.dst).unresponsive) return;
  // Vrf takes reports and join acks only.
  if (msg.dst == 0 && msg.kind != kReportMsg && msg.kind != kJoinAckMsg) {
    return;
  }
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
    net::Network& net = rt_.net_of(id);
    Bytes fwd = net.acquire_payload();
    fwd.assign(msg.payload.begin(), msg.payload.end());
    net.send(id, child, kRequestMsg, std::move(fwd));
  }
  rt_.sched(id).schedule_after(sig_verify_time() + attest_time(),
                               [this, id] { self_attested(id); });

  if (!tree_.children(id).empty()) {
    const std::uint32_t levels_below = tree_.max_depth() - tree_.depth(id);
    const sim::Duration hop_req =
        rt_.network().link_delay(config_.request_size());
    const sim::Duration hop_rep =
        rt_.network().link_delay(config_.report_size());
    const sim::Duration verify =
        mac_time(config_, config_.report_size() + config_.nonce_size);
    const sim::Duration agg =
        sim::cycles_to_time(config_.aggregate_cycles, config_.device_hz);
    const sim::SimTime deadline =
        rt_.sched(id).now() +
        hop_req * static_cast<std::int64_t>(levels_below) +
        sig_verify_time() + attest_time() +
        (hop_rep + verify + agg) * static_cast<std::int64_t>(levels_below) +
        // Height-scaled margin: a descendant flushing at its own deadline
        // must still beat ours (see sap::SapSimulation::node_deadline).
        config_.report_margin * static_cast<std::int64_t>(levels_below + 1);
    d.deadline = rt_.sched(id).schedule_at(deadline, [this, id] { flush(id); });
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
  // Only a child reports to this node, under its own uplink key.
  const net::NodeId child = msg.src;
  if (child == 0 || child > device_count() || tree_.parent(child) != id) {
    return;
  }
  if (std::find(d.got_children.begin(), d.got_children.end(), child) !=
      d.got_children.end()) {
    return;  // the child is counted already
  }
  // Hop-by-hop verification: the parent authenticates every child report
  // with the pairwise key before aggregating. The MAC check costs
  // simulated CPU time per report; the host-side computation is queued
  // so overlapping checks at one parent resolve as a single backend
  // batch when the first one completes (SEDA aggregation hot path). A
  // child is counted only once one of its reports passes, so a forged
  // report from its address cannot take its place.
  d.pending.push_back({child, Bytes(msg.payload.begin(), msg.payload.end()),
                       /*checked=*/false, /*ok=*/false});
  if (id == 0) {
    // Vrf is not a constrained device: it checks the report at once.
    finish_report_check(id, child);
    return;
  }
  const sim::Duration verify =
      mac_time(config_, config_.report_size() + config_.nonce_size);
  rt_.sched(id).schedule_after(
      verify, [this, id, child] { finish_report_check(id, child); });
}

void SedaSimulation::verify_pending_batch(net::NodeId id) {
  Dev& d = dev(id);
  // Wrong-sized payloads fail without a MAC computation (zero
  // compressions).
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
  // Every check takes the same modelled time, so a child's checks finish
  // in the order its reports arrived: this one is its oldest pending.
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
    // Forged or tampered: drop it, and keep waiting for the child.
    stats(id).mac_failures->inc();
    return;
  }
  if (std::find(dd.got_children.begin(), dd.got_children.end(), child) !=
      dd.got_children.end()) {
    return;  // an earlier report of this child passed already
  }
  dd.got_children.push_back(child);
  dd.total += read_u32le(payload, 0);
  dd.passed += read_u32le(payload, 4);
  if (dd.waiting > 0) --dd.waiting;
  try_forward(id);
}

void SedaSimulation::try_forward(net::NodeId id) {
  Dev& d = dev(id);
  if (d.sent || !d.self_done || d.waiting != 0) return;
  rt_.sched(id).cancel(d.deadline);
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
  if (id == 0) {
    // Vrf keeps the aggregate: this is the round's response.
    t_resp_ = rt_.sched(0).now();
    return;
  }
  const sim::Duration agg =
      sim::cycles_to_time(config_.aggregate_cycles, config_.device_hz);
  const Bytes payload = report_payload(id, d.total, d.passed);
  const net::NodeId parent = tree_.parent(id);
  rt_.sched(id).schedule_after(agg, [this, id, parent, payload] {
    if (dev(id).unresponsive) return;  // crashed mid-aggregation
    rt_.net_of(id).send(id, parent, kReportMsg, payload);
  });
}

}  // namespace cra::seda
