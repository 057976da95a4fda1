#include "sap/swarm.hpp"

#include <algorithm>
#include <stdexcept>

#include "crypto/chacha20.hpp"
#include "crypto/ct.hpp"
#include "crypto/kdf.hpp"
#include "device/attest_tcb.hpp"
#include "obs/trace.hpp"
#include "sap/analysis.hpp"

namespace cra::sap {
namespace {

Bytes master_from_seed(std::uint64_t seed) {
  crypto::SecureRandom rng(seed ^ 0x5a50'6d61'7374'6572ULL);  // "SAPmaster"
  return rng.bytes(32);
}

}  // namespace

SapSimulation::SapSimulation(SapConfig config, net::Tree tree,
                             std::uint64_t seed)
    : SapSimulation(obs::Span("sap.setup"), config, std::move(tree), seed) {}

SapSimulation::SapSimulation(const obs::Span& /*setup*/, SapConfig config,
                             net::Tree tree, std::uint64_t seed)
    : config_(config),
      identify_(config.adaptive.enabled ? IdentifyFormat::kExtended
                                        : IdentifyFormat::kLegacy,
                config.token_size()),
      tree_(std::move(tree)),
      rt_(tree_, config.sim, config.link,
          [this](const net::Message& m) { on_message(m); },
          [this](const fault::FaultEvent& ev) {
            rt_.apply_at(pos_of_[ev.device], ev.at,
                         [this, ev] { apply_device_fault(ev); });
          }),
      stats_(rt_.per_shard([](obs::MetricsRegistry& reg) {
        return ShardStats{&reg.counter("sap.repolls"),
                          &reg.gauge("sap.inbound_end_ns"),
                          &reg.counter("sap.backoff_wait_ns"),
                          &reg.counter("sap.unreachable_marks")};
      })),
      clock_(config.device_hz, config.clock_divisor),
      verifier_(config, tree_.device_count(), master_from_seed(seed)),
      devices_(tree_.device_count() + 1) {
  auth_key_ = verifier_.request_auth_key();

  // setup: provision keys and synthetic "firmware" contents, both
  // derived through the verifier's extracted master; register cfg_i with
  // the verifier. The verifier's midstate table is the one key table:
  // every K_{mi,Vrf} is derived once, here, the raw key never outlives
  // the derivation, and a device MACs through its table entry. Each
  // shard's worker provisions the devices at that shard's positions
  // (device i sits at position i), so every id is provisioned before a
  // round reads the table. It only fills buffers allocated on this
  // thread: long-lived allocations made on short-lived workers fragment
  // the allocator's per-thread arenas, and peak RSS grew with every
  // swarm built in one process.
  for (net::NodeId id = 1; id <= device_count(); ++id) {
    dev(id).content.resize(config_.token_size());
  }
  shares_.resize(stats_.size());
  rt_.for_each_shard([&](std::uint32_t s) {
    obs::Span span("sap.provision");
    const auto ids = rt_.entities_of(s, 1);
    verifier_.provision(ids);
    verifier_.kdf().device_keys(ids, config_.token_size(), "sap-firmware",
                                [this](net::NodeId id, BytesView content) {
                                  std::copy(content.begin(), content.end(),
                                            dev(id).content.begin());
                                });
  });
  for (net::NodeId id = 1; id <= device_count(); ++id) {
    verifier_.set_expected_content(id, dev(id).content);
  }

  // Identity position mapping: device i occupies tree position i.
  dev_at_.resize(tree_.size());
  pos_of_.resize(tree_.size());
  for (net::NodeId i = 0; i < tree_.size(); ++i) {
    dev_at_[i] = i;
    pos_of_[i] = i;
  }
  recompute_subtree_sizes();
}

void SapSimulation::recompute_subtree_sizes() {
  // Subtree sizes (node counts including the position itself), used by
  // the payload-aware report deadlines. Children always have larger
  // position indices than their parent, so one reverse pass suffices.
  subtree_size_.assign(tree_.size(), 1);
  for (net::NodeId pos = tree_.size() - 1; pos >= 1; --pos) {
    subtree_size_[tree_.parent(pos)] += subtree_size_[pos];
  }
}

void SapSimulation::rebuild_topology(
    net::Tree tree, std::vector<net::NodeId> device_at_position) {
  rt_.require_idle("rebuild_topology");
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
  tree_ = std::move(tree);
  dev_at_ = std::move(device_at_position);
  pos_of_ = std::move(new_pos);
  recompute_subtree_sizes();
}

SapSimulation SapSimulation::balanced(SapConfig config, std::uint32_t devices,
                                      std::uint64_t seed) {
  return SapSimulation(config,
                       net::balanced_kary_tree(devices, config.tree_arity),
                       seed);
}

void SapSimulation::compromise_device(net::NodeId id) {
  Dev& d = dev(rt_.device_id(id));
  if (d.compromised) return;  // a second flip would restore cfg_i
  d.compromised = true;
  if (d.vm != nullptr) {
    // One-byte malware implant at PMEM offset 0.
    const std::uint8_t implant =
        static_cast<std::uint8_t>(d.vm->memory().read8(
            d.vm->memory().layout().pmem_base()) ^ 0xff);
    d.vm->adv_infect_pmem(0, BytesView(&implant, 1));
  } else {
    d.content[0] = static_cast<std::uint8_t>(d.content[0] ^ 0xff);
  }
}

void SapSimulation::restore_device(net::NodeId id) {
  Dev& d = dev(rt_.device_id(id));
  d.compromised = false;
  if (d.vm != nullptr) {
    d.vm->memory().load(device::Section::kPmem,
                        verifier_.expected_content(id));
  } else {
    d.content = verifier_.expected_content(id);
  }
}

bool SapSimulation::is_compromised(net::NodeId id) const {
  return dev(rt_.device_id(id)).compromised;
}

void SapSimulation::set_device_unresponsive(net::NodeId id,
                                            bool unresponsive) {
  dev(rt_.device_id(id)).unresponsive = unresponsive;
}

void SapSimulation::set_clock_skew(net::NodeId id, sim::Duration skew) {
  Dev& d = dev(rt_.device_id(id));
  d.skew_ns = skew.ns();
  if (d.vm != nullptr) {
    d.vm->sync_clock(current_time(), skew);
  }
}

void SapSimulation::apply_device_fault(const fault::FaultEvent& ev) {
  using fault::FaultKind;
  const net::NodeId pos = pos_of_[ev.device];
  Dev& d = dev(ev.device);
  switch (ev.kind) {
    case FaultKind::kCrash:
      // Volatile state is gone: the device forgets the round entirely
      // (it can only rejoin via a chal-carrying re-poll after a reboot).
      // `sent` survives — a report that already left is on the wire.
      d.unresponsive = true;
      d.got_chal = false;
      d.responded_self = false;
      d.waiting = 0;
      d.count = 0;
      d.got_children.clear();
      d.agg_token.assign(config_.token_size(), 0);
      d.reports.clear();
      d.sent_payload.clear();
      rt_.sched(pos).cancel(d.deadline);
      break;
    case FaultKind::kReboot:
      d.unresponsive = false;
      d.rebooted = true;
      break;
    case FaultKind::kSleep:
      // Radio off, state retained (duty-cycling, not a crash).
      d.unresponsive = true;
      break;
    case FaultKind::kWake:
      d.unresponsive = false;
      break;
    case FaultKind::kLeave:
      // Departed the swarm: SAP has no membership view, so a device out
      // of radio range is simply unreachable until it wanders back.
      d.unresponsive = true;
      break;
    case FaultKind::kJoin:
      d.unresponsive = false;
      break;
    case FaultKind::kClockSkew:
      d.skew_ns = ev.skew_ns;
      if (d.vm != nullptr) {
        d.vm->sync_clock(rt_.sched(pos).now(), sim::Duration(ev.skew_ns));
      }
      break;
    default:
      break;
  }
}

void SapSimulation::assign_device_class(net::NodeId id, std::uint8_t cls) {
  if (cls > config_.extra_classes.size()) {
    throw std::out_of_range("assign_device_class: unknown class");
  }
  dev(rt_.device_id(id)).cls = cls;
}

sim::Duration SapSimulation::class_attest_time(std::uint8_t cls) const {
  if (cls == 0) return attest_time(config_);
  const DeviceClassSpec& spec = config_.extra_classes[cls - 1];
  return sim::cycles_to_time(
      device::attest_cycles(config_.alg, spec.pmem_size + 4,
                            config_.attest_overhead_cycles,
                            spec.cycles_per_block),
      spec.hz);
}

sim::Duration SapSimulation::attest_time_for(net::NodeId id) const {
  return class_attest_time(dev(rt_.device_id(id)).cls);
}

sim::Duration SapSimulation::max_attest_time() const {
  sim::Duration worst = class_attest_time(0);
  for (std::size_t cls = 1; cls <= config_.extra_classes.size(); ++cls) {
    worst = std::max(worst,
                     class_attest_time(static_cast<std::uint8_t>(cls)));
  }
  return worst;
}

void SapSimulation::attach_vm(net::NodeId id, device::Device* vm) {
  if (vm == nullptr) {
    throw std::invalid_argument("attach_vm: null device");
  }
  dev(rt_.device_id(id)).vm = vm;
  verifier_.set_expected_content(id, vm->expected_pmem());
}

void SapSimulation::advance_time(sim::Duration d) { rt_.advance_time(d); }

void SapSimulation::set_qoa(QoaMode mode) {
  rt_.require_idle("set_qoa");
  config_.qoa = mode;
}

Bytes SapSimulation::compute_token(net::NodeId pos, std::uint32_t tick) {
  const net::NodeId id = dev_at_[pos];
  Dev& d = dev(id);
  const sim::SimTime now = rt_.sched(pos).now();
  if (d.vm != nullptr) {
    // Full-fidelity path: synchronize the VM's secure clock with global
    // time (the network-wide clock), then run the real attest TCB.
    d.vm->sync_clock(now, sim::Duration(d.skew_ns));
    d.vm->invoke_attest(tick);
    return d.vm->read_token();
  }
  // Synthetic path: the device's clock check, then
  // HMAC_{K}(content || chal) — content stands in for PMEM(mi, t). In
  // the swarm model K_{mi,Vrf} never changes (compromise rewrites PMEM;
  // key extraction is modelled in device/), so the device resumes the
  // verifier's midstates for it.
  const std::uint32_t local_tick = clock_.read_at_time(
      now, sim::Duration(d.skew_ns));
  if (local_tick != tick) {
    return Bytes(config_.token_size(), 0);
  }
  std::uint8_t tick_le[4];
  store_u32le(tick_le, tick);
  return verifier_.device_mac(id).mac(d.content, BytesView(tick_le, 4));
}

RoundReport SapSimulation::run_round() {
  rt_.require_idle("run_round");  // the tick changes before begin_window
  obs::Span round_span("sap.round");

  RoundReport report;
  report.devices = device_count();
  report.t_chal = current_time();

  // request: pick t_att per Equation 9 (+ slack), quantized to the next
  // secure-clock tick.
  const sim::SimTime lower_bound =
      report.t_chal + request_lead_time(config_, tree_.max_depth());
  round_tick_ = clock_.time_to_tick_ceil(lower_bound);
  t_att_time_ = clock_.tick_to_time(round_tick_);
  report.chal_tick = round_tick_;
  report.t_att = t_att_time_;
  report.measurement_end = t_att_time_ + max_attest_time();

  // Round boundary: zero every instrument and ledger (registrations and
  // cached handles survive), mirror the network configuration, and open
  // every shard on its worker. The parts of RES_S then fold, in shard
  // order, before the challenge leaves; identify rounds have filled the
  // appraisal's token table instead.
  if (config_.qoa == QoaMode::kIdentify) appraisal_.open(round_tick_);
  const auto window =
      rt_.begin_window([this](std::uint32_t s) { open_shard(s); });
  Bytes res_s(config_.token_size(), 0);
  for (const Bytes& share : shares_) xor_inplace(res_s, share);

  // Flood chal down the tree.
  const Bytes chal =
      encode_chal(round_tick_, auth_key_, config_.chal_size());
  round_chal_ = chal;
  for (net::NodeId child : tree_.children(0)) {
    net::Network& net = rt_.net_of(0);
    Bytes fwd = net.acquire_payload();
    fwd.assign(chal.begin(), chal.end());
    net.send(0, child, kChalMsg, std::move(fwd));
  }

  // Give-up deadline for Vrf (covers lost subtrees and repolls).
  const sim::Duration repoll_allowance =
      config_.adaptive.enabled
          ? config_.adaptive.budget() +
                (config_.report_margin + hop_time(config_) * 2) *
                    static_cast<std::int64_t>(config_.adaptive.max_repolls + 1)
          : config_.report_margin + hop_time(config_) * 2;
  const sim::SimTime vrf_deadline =
      report.measurement_end + report_chain_time(0) + repoll_allowance +
      config_.report_margin *
          static_cast<std::int64_t>(tree_.max_depth() + 2);
  t_resp_ = vrf_deadline;
  // With re-polls, Vrf flushes at an inner node's deadline and re-polls
  // its children through the same backoff schedule; without them it
  // gives up once, at the worst-case deadline.
  dev(0).deadline = rt_.sched(0).schedule_at(
      config_.adaptive.enabled ? node_deadline(0) : vrf_deadline,
      [this] { flush(0); });

  // Hand this window's scripted faults to the engines. The horizon
  // covers the whole round including every possible adaptive re-poll.
  rt_.arm_faults(vrf_deadline);

  // The merged view (reduced in fixed shard order, engine quiescent) is
  // the single source every report field below reads from.
  rt_.run_window();
  const obs::MetricsRegistry& m = rt_.metrics();

  report.inbound_end = report.t_chal;
  if (m.gauge_value("sap.inbound_end_ns") > report.inbound_end.ns()) {
    report.inbound_end = sim::SimTime(m.gauge_value("sap.inbound_end_ns"));
  }
  report.repolls = static_cast<std::uint32_t>(m.counter_value("sap.repolls"));
  report.backoff_wait_ns = m.counter_value("sap.backoff_wait_ns");
  report.t_resp = t_resp_;
  report.u_ca_bytes = m.counter_value("net.bytes_transmitted");
  report.messages = m.counter_value("net.messages_sent");
  report.dropped = m.counter_value("net.messages_dropped");

  const Dev& vrf = dev(0);
  switch (config_.qoa) {
    case QoaMode::kBinary:
      report.responded = vrf.waiting == 0 ? device_count() : 0;
      report.verified = crypto::ct_equal(vrf.agg_token, res_s);
      break;
    case QoaMode::kCount:
      report.responded = vrf.count;
      report.verified = vrf.count == device_count() &&
                        crypto::ct_equal(vrf.agg_token, res_s);
      break;
    case QoaMode::kIdentify: {
      // Vrf's entries passed the reader's rule as they arrived; the
      // appraisal reads each in place and compares it against the table
      // the open step swept. A device's last entry decides, and one with
      // none is missing.
      appraisal_.absorb(vrf.reports);
      Verifier::Classification census = appraisal_.finish();
      const std::size_t entries = identify_.entry_count(vrf.reports);
      for (std::size_t i = 0; i < entries; ++i) {
        report.responded += identify_.entry(vrf.reports, i).status !=
                            DeviceReportStatus::kEntryUnreachable;
      }
      report.identify.bad = census.untrusted_ids;
      report.identify.missing = census.unreachable_ids;
      report.verified = census.all_healthy();
      // Legacy entries are never late, rebooted or unreachable; only
      // adaptive rounds report the degraded census.
      if (config_.adaptive.enabled) report.degraded = std::move(census);
      break;
    }
  }

  // Trace the round on both clocks: the wall-clock span closes when
  // round_span dies; the simulated-time lane gets the Figure 3(b)
  // phase breakdown as one span per phase.
  round_span.sim_range(report.t_chal.ns(), report.t_resp.ns());
  if (obs::TraceSink* sink = obs::global_sink()) {
    sink->sim_span("sap.inbound", report.t_chal.ns(),
                   report.inbound_end.ns());
    sink->sim_span("sap.slack", report.inbound_end.ns(), report.t_att.ns());
    sink->sim_span("sap.measurement", report.t_att.ns(),
                   report.measurement_end.ns());
    sink->sim_span("sap.outbound", report.measurement_end.ns(),
                   report.t_resp.ns());
  }
  return report;
}

void SapSimulation::open_shard(std::uint32_t s) {
  // RES_S is offline work: a share needs only the challenge and the
  // verifier's table, and any partition of the ids 1..N folds to it.
  // The shard sweeps the ids equal to its positions: its own devices
  // until rebuild_topology moves them, in ascending order either way.
  // Identify rounds keep each res_i too, in the shard's rows of the
  // appraisal's token table, so their verdict is one compare per entry.
  Bytes share(config_.token_size(), 0);
  verifier_.sweep(rt_.entities_of(s, 1), round_tick_, share,
                  config_.qoa == QoaMode::kIdentify ? appraisal_.table()
                                                    : nullptr);
  shares_[s] = std::move(share);
  // Reset per-round state, Vrf's included. Vrf has no self-measurement.
  for (const net::NodeId pos : rt_.entities_of(s)) {
    const net::NodeId id = dev_at_[pos];
    Dev& d = dev(id);
    d.tick = 0;
    d.got_chal = false;
    d.responded_self = id == 0;
    d.sent = false;
    d.waiting = static_cast<std::uint32_t>(tree_.children(pos).size());
    d.count = 0;
    d.retries = 0;
    d.self_grace = 0;
    d.got_children.clear();
    d.agg_token.assign(config_.token_size(), 0);
    d.sent_payload.clear();
    d.reports.clear();
    d.deadline = sim::EventHandle();
  }
}

void SapSimulation::on_message(const net::Message& msg) {
  // Messages travel between tree positions; position 0 is Vrf, which
  // takes reports only.
  if (msg.dst > device_count()) return;  // stray/tampered address
  if (dev_at_pos(msg.dst).unresponsive) return;
  if (msg.dst == 0 && msg.kind != kTokenMsg) return;

  switch (msg.kind) {
    case kChalMsg:
      handle_chal(msg.dst, msg);
      break;
    case kTokenMsg:
      handle_token(msg.dst, msg);
      break;
    case kRepollMsg:
      handle_repoll(msg.dst, msg);
      break;
    default:
      break;  // unknown kind: drop
  }
}

void SapSimulation::handle_chal(net::NodeId pos, const net::Message& msg) {
  Dev& d = dev_at_pos(pos);
  if (d.got_chal) return;  // duplicate (replay or adversarial copy)

  const auto chal = decode_chal(msg.payload, config_.chal_size());
  if (!chal) return;  // malformed
  if (!auth_key_.empty() && !chal_authentic(*chal, auth_key_)) {
    return;  // §VIII DoS mitigation: drop unauthenticated requests
  }
  // Staleness check against the device's OWN secure clock (this is what
  // the monotonically increasing clock buys in §V-C: chal can never
  // repeat, because a tick in the local past is plainly unanswerable —
  // no global round state needed).
  const sim::SimTime now = rt_.sched(pos).now();
  const std::uint32_t local_now =
      clock_.read_at_time(now, sim::Duration(d.skew_ns));
  if (chal->tick < local_now) return;
  d.got_chal = true;
  d.tick = chal->tick;
  stats(pos).inbound_end->max_in(now.ns());

  // Forward chal immediately to all children; the per-child copies are
  // staged in pooled buffers (one fresh allocation per shard at most —
  // every later copy reuses a recycled delivery buffer).
  for (net::NodeId child : tree_.children(pos)) {
    net::Network& net = rt_.net_of(pos);
    Bytes fwd = net.acquire_payload();
    fwd.assign(msg.payload.begin(), msg.payload.end());
    net.send(pos, child, kChalMsg, std::move(fwd));
  }

  // Schedule attest when the device's own clock reaches the tick.
  const sim::SimTime fire_global =
      clock_.tick_to_time(chal->tick) - sim::Duration(d.skew_ns);
  const sim::SimTime when = fire_global > now ? fire_global : now;
  rt_.sched(pos).schedule_at(when, [this, pos] { run_attest(pos); });

  // Inner nodes arm a report deadline in case children go silent.
  if (!tree_.children(pos).empty()) {
    d.deadline = rt_.sched(pos).schedule_at(node_deadline(pos),
                                            [this, pos] { flush(pos); });
  }
}

void SapSimulation::run_attest(net::NodeId pos) {
  const net::NodeId id = dev_at_[pos];
  Dev& d = dev(id);
  if (d.unresponsive) return;
  Bytes token = compute_token(pos, d.tick);
  // Token is ready T_att after invocation (per this device's hardware
  // class); aggregation happens then.
  rt_.sched(pos).schedule_after(
      attest_time_for(id),
      [this, pos, t = std::move(token)]() mutable {
        accumulate_self(pos, std::move(t));
      });
}

void SapSimulation::accumulate_self(net::NodeId pos, Bytes token) {
  const net::NodeId id = dev_at_[pos];
  Dev& d = dev(id);
  if (d.unresponsive) return;  // crashed between attest and aggregation
  d.responded_self = true;
  if (config_.qoa == QoaMode::kIdentify) {
    // Keyed by the stable device id; the legacy form drops status and tick.
    identify_.append(d.reports, id, token,
                     d.rebooted ? DeviceReportStatus::kEntryRebooted
                                : DeviceReportStatus::kEntryOk,
                     d.tick);
    d.rebooted = false;  // evidence delivered; flag is consumed
  }
  xor_inplace(d.agg_token, token);
  ++d.count;
  try_forward(pos);
}

void SapSimulation::handle_token(net::NodeId pos, const net::Message& msg) {
  Dev& d = dev_at_pos(pos);
  if (d.sent) return;  // already flushed; late token is lost information
  // One token per child per round: duplicates (adversarial copies, or a
  // repoll answer racing the original) would cancel under XOR.
  if (std::find(d.got_children.begin(), d.got_children.end(), msg.src) !=
      d.got_children.end()) {
    return;
  }
  switch (config_.qoa) {
    case QoaMode::kBinary: {
      if (msg.payload.size() != config_.token_size()) return;
      xor_inplace(d.agg_token, msg.payload);
      break;
    }
    case QoaMode::kCount: {
      const auto ct = decode_count_token(msg.payload, config_.token_size());
      if (!ct) return;
      xor_inplace(d.agg_token, ct->token);
      d.count += ct->count;
      break;
    }
    case QoaMode::kIdentify: {
      // A report is a concatenation of entries: checked, then kept as
      // received.
      if (!identify_.well_formed(msg.payload)) return;
      d.reports.insert(d.reports.end(), msg.payload.begin(),
                       msg.payload.end());
      break;
    }
  }
  d.got_children.push_back(msg.src);  // child *positions*
  if (d.waiting > 0) --d.waiting;
  try_forward(pos);
}

void SapSimulation::handle_repoll(net::NodeId pos, const net::Message& msg) {
  Dev& d = dev_at_pos(pos);
  if (!d.got_chal) {
    // Never saw the round — adaptive re-polls carry the challenge so a
    // rebooted/healed device can still contribute late evidence.
    late_join(pos, msg);
    return;
  }
  if (!d.sent_payload.empty()) {
    // Resend the cached report.
    rt_.net_of(pos).send(pos, tree_.parent(pos), kTokenMsg, d.sent_payload);
  }
  // If not yet flushed, the pending deadline/forward path will answer.
}

void SapSimulation::late_join(net::NodeId pos, const net::Message& msg) {
  if (!config_.adaptive.enabled || msg.payload.empty()) return;
  Dev& d = dev_at_pos(pos);
  const auto chal = decode_chal(msg.payload, config_.chal_size());
  if (!chal) return;
  if (!auth_key_.empty() && !chal_authentic(*chal, auth_key_)) return;
  d.got_chal = true;
  d.tick = chal->tick;
  // The synchronized measurement is over; in the aggregated modes a
  // token over the current (later) tick would corrupt the XOR, so the
  // device sits the round out and rejoins cleanly next round. kIdentify
  // carries the late evidence explicitly: attest the *current* tick and
  // report it as kEntryLate — the verifier accepts it iff the tick is
  // not older than the challenge and the token verifies at that tick.
  if (config_.qoa != QoaMode::kIdentify) return;
  const net::NodeId id = dev_at_[pos];
  const sim::SimTime now = rt_.sched(pos).now();
  const std::uint32_t local_tick =
      clock_.read_at_time(now, sim::Duration(d.skew_ns));
  Bytes payload;
  identify_.append(payload, id, compute_token(pos, local_tick),
                   DeviceReportStatus::kEntryLate, local_tick);
  d.rebooted = false;
  d.sent = true;  // self-only report; the subtree recovers next round
  const net::NodeId parent = tree_.parent(pos);
  // The report leaves once the attest computation and aggregation are
  // done; only then does it become available for re-poll resends.
  rt_.sched(pos).schedule_after(
      attest_time_for(id) + aggregate_time(config_),
      [this, pos, parent, p = std::move(payload)]() mutable {
        Dev& dd = dev_at_pos(pos);
        if (dd.unresponsive) return;
        dd.sent_payload = p;
        rt_.net_of(pos).send(pos, parent, kTokenMsg, std::move(p));
      });
}

void SapSimulation::try_forward(net::NodeId pos) {
  Dev& d = dev_at_pos(pos);
  if (d.sent || !d.responded_self || d.waiting != 0) return;
  rt_.sched(pos).cancel(d.deadline);
  send_report(pos);
}

void SapSimulation::flush(net::NodeId pos) {
  Dev& d = dev_at_pos(pos);
  if (d.sent || d.unresponsive) return;
  // Children whose token never arrived. Computed up front so a repoll
  // round is only *charged* when somebody is actually missing — a child
  // whose report landed between our deadline firing and this flush (the
  // late-report race) must not burn a re-poll slot.
  std::vector<net::NodeId> missing;
  for (net::NodeId child : tree_.children(pos)) {
    if (std::find(d.got_children.begin(), d.got_children.end(), child) ==
        d.got_children.end()) {
      missing.push_back(child);
    }
  }

  if (config_.adaptive.enabled) {
    if (!missing.empty() && d.retries < config_.adaptive.max_repolls) {
      ++d.retries;
      stats(pos).repolls->inc();
      for (net::NodeId child : missing) {
        // Adaptive re-polls carry the round challenge so a device that
        // missed the flood entirely can still late-join.
        net::Network& net = rt_.net_of(pos);
        Bytes repoll = net.acquire_payload();
        repoll.assign(round_chal_.begin(), round_chal_.end());
        net.send(pos, child, kRepollMsg, std::move(repoll));
      }
      const sim::Duration backoff = config_.adaptive.backoff_for(d.retries);
      stats(pos).backoff_wait->inc(static_cast<std::uint64_t>(backoff.ns()));
      d.deadline =
          rt_.sched(pos).schedule_after(backoff, [this, pos] { flush(pos); });
      return;
    }
    if (missing.empty() && !d.responded_self &&
        d.self_grace < config_.adaptive.max_repolls) {
      // All children answered but our own token is still pending (late
      // attest under clock skew): wait out the grace window instead of
      // reporting a hole we could still fill.
      ++d.self_grace;
      d.deadline = rt_.sched(pos).schedule_after(
          config_.adaptive.backoff_for(d.self_grace),
          [this, pos] { flush(pos); });
      return;
    }
    // Budget exhausted: classify what never answered instead of leaving
    // the verifier to infer it from a broken XOR.
    if (config_.qoa == QoaMode::kIdentify) {
      for (net::NodeId child : missing) mark_unreachable(pos, child);
    }
    send_report(pos);
    return;
  }
  // Give up on missing children; forward the partial aggregate. The
  // verifier's XOR will mismatch (binary) or the count/reports expose
  // the gap — unresponsiveness must fail attestation (Definition 1).
  send_report(pos);
}

void SapSimulation::mark_unreachable(net::NodeId pos, net::NodeId child) {
  // One synthesized entry for the silent child itself; its descendants
  // simply have no entry, which the verifier classifies as unreachable
  // too. The zero token keeps extended entries fixed-size.
  identify_.append(dev_at_pos(pos).reports, dev_at_[child],
                   Bytes(config_.token_size(), 0),
                   DeviceReportStatus::kEntryUnreachable);
  stats(pos).unreachable->inc();
}

void SapSimulation::send_report(net::NodeId pos) {
  Dev& d = dev_at_pos(pos);
  d.sent = true;
  if (pos == 0) {
    // Vrf keeps the aggregate: this is the round's response.
    t_resp_ = rt_.sched(0).now();
    return;
  }
  // Aggregation cost T_agg before the token leaves the node.
  const sim::Duration agg = aggregate_time(config_);
  Bytes payload;
  switch (config_.qoa) {
    case QoaMode::kBinary:
      payload = d.agg_token;
      break;
    case QoaMode::kCount:
      payload = encode_count_token(d.agg_token, d.count);
      break;
    case QoaMode::kIdentify:
      payload = d.reports;
      break;
  }
  d.sent_payload = payload;
  const net::NodeId parent = tree_.parent(pos);
  rt_.sched(pos).schedule_after(agg, [this, pos, parent,
                                      p = std::move(payload)]() mutable {
    if (dev_at_pos(pos).unresponsive) return;  // crashed mid-aggregation
    rt_.net_of(pos).send(pos, parent, kTokenMsg, std::move(p));
  });
}

sim::Duration SapSimulation::report_chain_time(net::NodeId pos) const {
  const std::uint32_t levels_below = tree_.max_depth() - tree_.depth(pos);
  switch (config_.qoa) {
    case QoaMode::kBinary:
    case QoaMode::kCount: {
      // Fixed-size reports: one hop per level.
      const std::size_t payload =
          config_.token_size() + (config_.qoa == QoaMode::kCount ? 4 : 0);
      return (rt_.network().link_delay(payload) + aggregate_time(config_)) *
             static_cast<std::int64_t>(levels_below);
    }
    case QoaMode::kIdentify: {
      // Reports grow with the subtree: along the deepest chain the
      // payload roughly doubles per level, so transmission time is
      // bounded by pushing ~2x this node's whole subtree once.
      const std::uint64_t entry = identify_.entry_size();
      const std::uint64_t worst_bytes =
          2ULL * subtree_size_[pos] * entry + levels_below *
              static_cast<std::uint64_t>(config_.link.header_bytes);
      return sim::transmission_delay(worst_bytes * 8,
                                     config_.link.rate_bps) +
             (config_.link.per_hop_latency + aggregate_time(config_)) *
                 static_cast<std::int64_t>(levels_below);
    }
  }
  return sim::Duration::zero();
}

sim::SimTime SapSimulation::node_deadline(net::NodeId pos) const {
  // Children's tokens arrive, at the latest, once the deepest descendant
  // has attested and its report climbed back to us. The margin scales
  // with the subtree height so that a descendant that itself flushed at
  // its deadline still beats OUR deadline by one margin — otherwise a
  // single dark leaf cascades into every ancestor flushing early.
  const std::uint32_t levels_below = tree_.max_depth() - tree_.depth(pos);
  return t_att_time_ + max_attest_time() + report_chain_time(pos) +
         config_.report_margin * static_cast<std::int64_t>(levels_below + 1);
}

}  // namespace cra::sap
