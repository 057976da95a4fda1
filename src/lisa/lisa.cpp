#include "lisa/lisa.hpp"

#include "crypto/chacha20.hpp"
#include "crypto/ct.hpp"
#include "crypto/kdf.hpp"
#include "device/attest_tcb.hpp"

namespace cra::lisa {
namespace {

enum LisaMessageKind : std::uint32_t {
  kRequestMsg = 1,
  kReportMsg = 2,  // kAlpha: one entry; kS: a bundle of entries
};

}  // namespace

const char* variant_name(LisaVariant variant) noexcept {
  switch (variant) {
    case LisaVariant::kAlpha: return "LISA-alpha";
    case LisaVariant::kS: return "LISA-s";
  }
  return "?";
}

LisaSimulation::LisaSimulation(LisaConfig config, net::Tree tree,
                               std::uint64_t seed)
    : config_(config),
      tree_(std::move(tree)),
      rt_(tree_, sim::SimConfig{}, config.link,
          [this](const net::Message& m) { on_message(m); }, {}),
      devices_(tree_.device_count()) {
  Bytes master = crypto::SecureRandom(seed ^ 0x4c49'5341'6b65'79ULL).bytes(32);
  const crypto::Hkdf kdf(master);
  crypto::secure_wipe(master);
  const auto ids = rt_.entities_of(0, 1);
  const std::size_t len = crypto::digest_size(config_.alg);
  kdf.device_keys(ids, len, "lisa-device-key",
                  [this](net::NodeId id, BytesView key) {
                    dev(id).mac.init(config_.alg, key);
                  });
  kdf.device_keys(ids, len, "lisa-firmware",
                  [this](net::NodeId id, BytesView content) {
                    dev(id).content.assign(content.begin(), content.end());
                    expected_.push_back(dev(id).content);  // enrolled cfg_i
                  });
  subtree_.assign(tree_.size(), 1);
  for (net::NodeId n = tree_.size() - 1; n >= 1; --n) {
    subtree_[tree_.parent(n)] += subtree_[n];
  }
}

LisaSimulation LisaSimulation::balanced(LisaConfig config,
                                        std::uint32_t devices,
                                        std::uint64_t seed) {
  return LisaSimulation(
      config, net::balanced_kary_tree(devices, config.tree_arity), seed);
}

void LisaSimulation::compromise_device(net::NodeId id) {
  Dev& d = dev(rt_.device_id(id));
  if (d.compromised) return;  // a second flip would restore cfg_i
  d.compromised = true;
  d.content[0] = static_cast<std::uint8_t>(d.content[0] ^ 0xff);
}

void LisaSimulation::restore_device(net::NodeId id) {
  Dev& d = dev(rt_.device_id(id));
  if (d.compromised) {
    d.content[0] = static_cast<std::uint8_t>(d.content[0] ^ 0xff);
    d.compromised = false;
  }
}

void LisaSimulation::set_device_unresponsive(net::NodeId id,
                                             bool unresponsive) {
  dev(rt_.device_id(id)).unresponsive = unresponsive;
}

void LisaSimulation::advance_time(sim::Duration d) { rt_.advance_time(d); }

sim::Duration LisaSimulation::attest_time() const {
  // LISA hashes PMEM || nonce.
  return sim::cycles_to_time(
      device::attest_cycles(config_.alg,
                            config_.pmem_size + config_.nonce_size,
                            config_.attest_overhead_cycles,
                            config_.cycles_per_block),
      config_.device_hz);
}

Bytes LisaSimulation::make_entry(net::NodeId id) const {
  // token = HMAC_{K_i}(content || nonce) — content stands in for PMEM.
  const Dev& d = devices_[id - 1];
  crypto::MacBuf mac;
  d.mac.mac_into(d.content, round_nonce_, mac);
  Bytes entry;
  append_u32le(entry, id);
  entry.insert(entry.end(), mac.bytes.begin(), mac.bytes.begin() + mac.len);
  return entry;
}

LisaRoundReport LisaSimulation::run_round() {
  const auto window = rt_.begin_window([this](std::uint32_t s) {
    for (const net::NodeId id : rt_.entities_of(s, 1)) {
      Dev& d = dev(id);
      d.got_request = false;
      d.self_done = false;
      d.sent = false;
      d.waiting = static_cast<std::uint32_t>(tree_.children(id).size());
      d.bundle.clear();
      d.deadline = sim::EventHandle();
    }
  });
  done_ = false;
  root_seen_.assign(device_count() + 1, 0);
  root_reports_.clear();
  root_waiting_bundles_ =
      static_cast<std::uint32_t>(tree_.children(0).size());

  LisaRoundReport report;
  report.devices = device_count();
  report.t_req = rt_.now();

  crypto::SecureRandom nonce_rng(
      static_cast<std::uint64_t>(rt_.now().ns()) ^ 0x4c6e6f6eULL);
  round_nonce_ = nonce_rng.bytes(config_.nonce_size);
  for (net::NodeId child : tree_.children(0)) {
    rt_.net_of(0).send(0, child, kRequestMsg, round_nonce_);
  }

  // Give-up deadline: request wave + one measurement + the report path.
  const sim::Duration hop_req = rt_.network().link_delay(config_.nonce_size);
  const sim::Duration relay =
      sim::cycles_to_time(config_.relay_cycles, config_.device_hz);
  const sim::Duration report_path =
      config_.variant == LisaVariant::kAlpha
          ? (rt_.network().link_delay(config_.entry_size()) + relay) *
                static_cast<std::int64_t>(tree_.max_depth() + 1)
          : sim::transmission_delay(2ULL * (device_count() + 1) *
                                        config_.entry_size() * 8,
                                    config_.link.rate_bps) +
                (config_.link.per_hop_latency + relay) *
                    static_cast<std::int64_t>(tree_.max_depth() + 1);
  // With per-radio serialization every relay pushes its whole subtree's
  // reports through one transmitter; bound by the root children's load
  // (plus the arity-fold request fan-out on the way down).
  const sim::Duration contention_allowance =
      config_.link.serialize_tx
          ? sim::transmission_delay(
                static_cast<std::uint64_t>(device_count() + 2) *
                    (config_.entry_size() + config_.link.header_bytes) * 8,
                config_.link.rate_bps) +
                hop_req * static_cast<std::int64_t>(
                              config_.tree_arity * tree_.max_depth())
          : sim::Duration::zero();
  const sim::SimTime give_up =
      rt_.now() +
      hop_req * static_cast<std::int64_t>(tree_.max_depth() + 1) +
      attest_time() + report_path + contention_allowance +
      config_.report_margin *
          static_cast<std::int64_t>(tree_.max_depth() + 2);
  t_resp_ = give_up;
  root_deadline_ =
      rt_.sched(0).schedule_at(give_up, [this] { finish_round(); });

  rt_.run_window();

  report.t_resp = t_resp_;
  report.u_ca_bytes = rt_.metrics().counter_value("net.bytes_transmitted");
  report.messages = rt_.metrics().counter_value("net.messages_sent");
  report.responded = static_cast<std::uint32_t>(root_reports_.size());

  // Vrf verification: per-device token against the enrolled cfg_i.
  crypto::MacBuf expected;
  for (const auto& [id, token] : root_reports_) {
    devices_[id - 1].mac.mac_into(expected_[id - 1], round_nonce_, expected);
    if (!crypto::ct_equal(token, expected.view())) {
      report.bad.push_back(id);
    }
  }
  for (net::NodeId id = 1; id <= device_count(); ++id) {
    if (!root_seen_[id]) report.missing.push_back(id);
  }
  report.verified = report.bad.empty() && report.missing.empty();
  return report;
}

void LisaSimulation::on_message(const net::Message& msg) {
  if (msg.dst == 0) {
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
    default:
      break;
  }
}

void LisaSimulation::handle_request(net::NodeId id, const net::Message& msg) {
  Dev& d = dev(id);
  if (d.got_request) return;
  d.got_request = true;
  for (net::NodeId child : tree_.children(id)) {
    rt_.net_of(id).send(id, child, kRequestMsg, msg.payload);
  }
  rt_.sched(id).schedule_after(attest_time(),
                               [this, id] { self_attested(id); });

  if (config_.variant == LisaVariant::kS && !tree_.children(id).empty()) {
    // Bundle deadline: children attest ~one hop later with the same
    // T_att; bundle transmission grows with the subtree (along the
    // deepest chain the payload roughly doubles per level, bounded by
    // pushing ~2x this node's subtree once).
    const sim::Duration hop_req =
        rt_.network().link_delay(config_.nonce_size);
    const std::uint32_t levels = tree_.max_depth() - tree_.depth(id);
    const sim::Duration relay =
        sim::cycles_to_time(config_.relay_cycles, config_.device_hz);
    const std::uint64_t worst_bits =
        2ULL * subtree_[id] * config_.entry_size() * 8;
    const sim::SimTime deadline =
        rt_.sched(id).now() + attest_time() +
        sim::transmission_delay(worst_bits, config_.link.rate_bps) +
        (hop_req + config_.link.per_hop_latency + relay) *
            static_cast<std::int64_t>(levels) +
        config_.report_margin * static_cast<std::int64_t>(levels + 1);
    d.deadline =
        rt_.sched(id).schedule_at(deadline, [this, id] { flush(id); });
  }
}

void LisaSimulation::self_attested(net::NodeId id) {
  Dev& d = dev(id);
  if (d.unresponsive) return;
  const Bytes entry = make_entry(id);
  if (config_.variant == LisaVariant::kAlpha) {
    // Send the individual report toward Vrf; parents relay.
    rt_.net_of(id).send(id, tree_.parent(id), kReportMsg, entry);
    return;
  }
  d.bundle.insert(d.bundle.end(), entry.begin(), entry.end());
  d.self_done = true;
  try_submit(id);
}

void LisaSimulation::handle_report(net::NodeId id, const net::Message& msg) {
  Dev& d = dev(id);
  const sim::Duration relay =
      sim::cycles_to_time(config_.relay_cycles, config_.device_hz);

  if (config_.variant == LisaVariant::kAlpha) {
    if (msg.payload.size() != config_.entry_size()) return;
    // Store-and-forward relay. Duplicates cannot arise on a tree from
    // honest traffic; the verifier deduplicates defensively anyway
    // (per-relay dedup state would cost O(N) per device).
    rt_.sched(id).schedule_after(relay, [this, id, p = msg.payload] {
      rt_.net_of(id).send(id, tree_.parent(id), kReportMsg, p);
    });
    return;
  }

  // kS: child bundle arrives; merge.
  if (d.sent) return;
  if (msg.payload.size() % config_.entry_size() != 0) return;
  d.bundle.insert(d.bundle.end(), msg.payload.begin(), msg.payload.end());
  if (d.waiting > 0) --d.waiting;
  try_submit(id);
}

void LisaSimulation::try_submit(net::NodeId id) {
  Dev& d = dev(id);
  if (d.sent || !d.self_done || d.waiting != 0) return;
  rt_.sched(id).cancel(d.deadline);
  d.sent = true;
  const sim::Duration relay =
      sim::cycles_to_time(config_.relay_cycles, config_.device_hz);
  rt_.sched(id).schedule_after(relay, [this, id, p = d.bundle] {
    rt_.net_of(id).send(id, tree_.parent(id), kReportMsg, p);
  });
}

void LisaSimulation::flush(net::NodeId id) {
  Dev& d = dev(id);
  if (d.sent) return;
  d.sent = true;
  rt_.net_of(id).send(id, tree_.parent(id), kReportMsg, d.bundle);
}

void LisaSimulation::root_receive(const net::Message& msg) {
  if (done_ || msg.kind != kReportMsg) return;
  if (msg.payload.size() % config_.entry_size() != 0 ||
      msg.payload.empty()) {
    return;
  }
  const std::size_t entry = config_.entry_size();
  for (std::size_t off = 0; off < msg.payload.size(); off += entry) {
    const std::uint32_t id = read_u32le(msg.payload, off);
    if (id == 0 || id > device_count() || root_seen_[id]) continue;
    root_seen_[id] = 1;
    root_reports_.emplace_back(
        id, Bytes(msg.payload.begin() +
                      static_cast<std::ptrdiff_t>(off + 4),
                  msg.payload.begin() +
                      static_cast<std::ptrdiff_t>(off + entry)));
  }
  if (config_.variant == LisaVariant::kS) {
    if (root_waiting_bundles_ > 0) --root_waiting_bundles_;
    if (root_waiting_bundles_ == 0) {
      rt_.sched(0).cancel(root_deadline_);
      finish_round();
      return;
    }
  }
  if (root_reports_.size() == device_count()) {
    rt_.sched(0).cancel(root_deadline_);
    finish_round();
  }
}

void LisaSimulation::finish_round() {
  if (done_) return;
  done_ = true;
  t_resp_ = rt_.sched(0).now();
}

}  // namespace cra::lisa
