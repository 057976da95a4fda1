#include "sap/heartbeat.hpp"

#include <algorithm>

#include "crypto/chacha20.hpp"
#include "crypto/ct.hpp"
#include "crypto/kdf.hpp"

namespace cra::sap {
namespace {

enum HeartbeatMessageKind : std::uint32_t {
  kBeatMsg = 10,
  kCollectMsg = 11,
  kLogMsg = 12,
};

}  // namespace

HeartbeatSimulation::HeartbeatSimulation(HeartbeatConfig config,
                                         net::Tree tree, std::uint64_t seed)
    : config_(config),
      tree_(std::move(tree)),
      rt_(tree_, sim::SimConfig{}, config.link,
          [this](const net::Message& m) { on_message(m); }, {}),
      devices_(tree_.device_count()),
      last_seen_(tree_.device_count() + 1, rt_.now()) {  // alive at start
  Bytes master = crypto::SecureRandom(seed ^ 0x6265'6174'6b65'79ULL).bytes(32);
  const crypto::Hkdf kdf(master);
  crypto::secure_wipe(master);
  kdf.device_keys(rt_.entities_of(0, 1), crypto::digest_size(config_.alg),
                  "heartbeat-key", [this](net::NodeId id, BytesView key) {
                    dev(id).beat_mac.init(config_.alg, key);
                  });
}

HeartbeatSimulation HeartbeatSimulation::balanced(HeartbeatConfig config,
                                                  std::uint32_t devices,
                                                  std::uint64_t seed) {
  return HeartbeatSimulation(
      config, net::balanced_kary_tree(devices, config.tree_arity), seed);
}

void HeartbeatSimulation::capture_device(net::NodeId id) {
  dev(rt_.device_id(id)).captured = true;
}

void HeartbeatSimulation::release_device(net::NodeId id) {
  dev(rt_.device_id(id)).captured = false;
}

bool HeartbeatSimulation::is_captured(net::NodeId id) const {
  return dev(rt_.device_id(id)).captured;
}

void HeartbeatSimulation::schedule_beat(net::NodeId id) {
  rt_.sched(id).schedule_after(config_.period, [this, id] {
    if (rt_.sched(id).now() > monitor_until_) return;  // monitoring window over
    Dev& d = dev(id);
    if (!d.captured) {
      Bytes beat;
      append_u32le(beat, id);
      append_u32le(beat, ++d.seq);
      crypto::MacBuf mac;
      d.beat_mac.mac_into(beat, mac);
      beat.insert(beat.end(), mac.bytes.begin(),
                  mac.bytes.begin() + config_.mac_size);
      rt_.net_of(id).send(id, tree_.parent(id), kBeatMsg, std::move(beat));
    }
    schedule_beat(id);
  });
}

void HeartbeatSimulation::run_monitoring(sim::Duration duration) {
  monitor_until_ = rt_.now() + duration;
  for (net::NodeId id = 1; id <= device_count(); ++id) {
    schedule_beat(id);
  }
  rt_.run_until(monitor_until_);
}

void HeartbeatSimulation::on_message(const net::Message& msg) {
  if (msg.dst > device_count()) return;  // stray/tampered address
  switch (msg.kind) {
    case kBeatMsg:
      handle_beat(msg.dst, msg);
      break;
    case kCollectMsg:
      if (msg.dst != 0) handle_collect(msg.dst);
      break;
    case kLogMsg:
      handle_log(msg.dst, msg);
      break;
    default:
      break;
  }
}

void HeartbeatSimulation::handle_beat(net::NodeId parent,
                                      const net::Message& msg) {
  // A captured relay drops everything passing through it.
  if (parent != 0 && dev(parent).captured) return;
  if (msg.payload.size() != config_.beat_size()) return;
  const std::uint32_t child = read_u32le(msg.payload, 0);
  if (child == 0 || child > device_count()) return;

  // The claimed identity is authenticated by the MAC alone — radio
  // source addresses are spoofable and carry no weight here.
  crypto::MacBuf expected;
  dev(child).beat_mac.mac_into(BytesView(msg.payload.data(), 8), expected);
  if (!crypto::ct_equal(
          BytesView(msg.payload.data() + 8, config_.mac_size),
          BytesView(expected.bytes.data(), config_.mac_size))) {
    ++forged_;  // presence cannot be forged without the pairwise key
    return;
  }
  // Nor replayed: a beat recorded before a capture would mask it.
  const std::uint32_t seq = read_u32le(msg.payload, 4);
  if (seq <= dev(child).heard_seq) {
    ++forged_;
    return;
  }
  dev(child).heard_seq = seq;
  last_seen_[child] = rt_.sched(parent).now();
}

void HeartbeatSimulation::absence_entries(net::NodeId id,
                                          std::vector<AbsenceReport>* out) {
  for (net::NodeId child : tree_.children(id)) {
    const sim::Duration gap = rt_.sched(id).now() - last_seen_[child];
    if (gap > config_.absence_threshold) {
      out->push_back({child, gap});
    }
  }
}

Bytes HeartbeatSimulation::encode_log(
    const std::vector<AbsenceReport>& entries) const {
  Bytes out;
  out.reserve(entries.size() * 8);
  for (const AbsenceReport& e : entries) {
    append_u32le(out, e.device);
    append_u32le(out, static_cast<std::uint32_t>(e.gap.ms()));
  }
  return out;
}

bool HeartbeatSimulation::decode_log(BytesView payload,
                                     std::vector<AbsenceReport>* out) const {
  if (payload.size() % 8 != 0) return false;
  for (std::size_t off = 0; off < payload.size(); off += 8) {
    AbsenceReport e;
    e.device = read_u32le(payload, off);
    e.gap = sim::Duration::from_ms(read_u32le(payload, off + 4));
    out->push_back(e);
  }
  return true;
}

void HeartbeatSimulation::handle_collect(net::NodeId id) {
  Dev& d = dev(id);
  if (d.captured || d.collecting) return;
  d.collecting = true;
  d.gathered.clear();
  d.waiting = 0;
  for (net::NodeId child : tree_.children(id)) {
    rt_.net_of(id).send(id, child, kCollectMsg, Bytes{});
    ++d.waiting;
  }
  absence_entries(id, &d.gathered);
  // A captured (or silent) child cannot answer the collect sweep; its
  // own gap entry above covers it. Wait only for children that are
  // *not* already flagged absent.
  for (const AbsenceReport& e : d.gathered) {
    if (d.waiting > 0) --d.waiting;
    (void)e;
  }
  if (d.waiting == 0) forward_log(id);
}

void HeartbeatSimulation::handle_log(net::NodeId id, const net::Message& msg) {
  if (id == 0) {
    std::vector<AbsenceReport> entries;
    if (decode_log(msg.payload, &entries)) {
      root_gathered_.insert(root_gathered_.end(), entries.begin(),
                            entries.end());
    }
    if (root_waiting_ > 0) --root_waiting_;
    return;
  }
  Dev& d = dev(id);
  if (!d.collecting || d.captured) return;
  std::vector<AbsenceReport> entries;
  if (decode_log(msg.payload, &entries)) {
    d.gathered.insert(d.gathered.end(), entries.begin(), entries.end());
  }
  if (d.waiting > 0) --d.waiting;
  if (d.waiting == 0) forward_log(id);
}

void HeartbeatSimulation::forward_log(net::NodeId id) {
  Dev& d = dev(id);
  d.collecting = false;
  rt_.net_of(id).send(id, tree_.parent(id), kLogMsg, encode_log(d.gathered));
}

std::vector<AbsenceReport> HeartbeatSimulation::collect() {
  // The sweep's instruments add to the monitoring plane's.
  const auto window = rt_.open_window();
  root_gathered_.clear();
  root_waiting_ = 0;

  // Vrf-side absence view of its direct children.
  std::vector<AbsenceReport> vrf_entries;
  for (net::NodeId child : tree_.children(0)) {
    const sim::Duration gap = rt_.now() - last_seen_[child];
    if (gap > config_.absence_threshold) {
      root_gathered_.push_back({child, gap});
    } else {
      rt_.net_of(0).send(0, child, kCollectMsg, Bytes{});
      ++root_waiting_;
    }
  }
  rt_.run_window();  // the sweep drains (tree depth x small messages)

  std::sort(root_gathered_.begin(), root_gathered_.end(),
            [](const AbsenceReport& a, const AbsenceReport& b) {
              return a.device < b.device;
            });
  return root_gathered_;
}

}  // namespace cra::sap
