#include "sap/heartbeat.hpp"

#include <algorithm>
#include <utility>

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
      devices_(tree_.device_count() + 1),
      last_seen_(tree_.device_count() + 1, rt_.now()),  // alive at start
      subtree_size_(tree_.size(), 1) {
  // Parents precede their children, so a reverse pass sees every child
  // before its parent.
  for (net::NodeId id = device_count(); id >= 1; --id) {
    subtree_size_[tree_.parent(id)] += subtree_size_[id];
  }
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
    Dev& d = dev(id);
    if (rt_.sched(id).now() > monitor_until_) {  // monitoring window over
      d.beating = false;
      return;
    }
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
  // A chain still pending from the last call carries on in phase.
  for (net::NodeId id = 1; id <= device_count(); ++id) {
    if (dev(id).beating) continue;
    dev(id).beating = true;
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
  if (dev(parent).captured) return;
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

void HeartbeatSimulation::decode_log(BytesView payload,
                                     std::vector<AbsenceReport>* out) const {
  if (payload.size() % 8 != 0) return;  // malformed: adds nothing
  for (std::size_t off = 0; off < payload.size(); off += 8) {
    AbsenceReport e;
    e.device = read_u32le(payload, off);
    e.gap = sim::Duration::from_ms(read_u32le(payload, off + 4));
    out->push_back(e);
  }
}

void HeartbeatSimulation::handle_collect(net::NodeId id) {
  Dev& d = dev(id);
  if (d.captured || d.collecting) return;
  d.collecting = true;
  d.gathered.clear();
  d.waiting = 0;
  // A child silent past the threshold is reported here: captured (or
  // silent), it cannot answer the sweep, so it is not asked. Every other
  // child is asked once and waited for once, until the deadline of the
  // largest subtree asked.
  std::uint32_t asked_size = 0;
  for (net::NodeId child : tree_.children(id)) {
    const sim::Duration gap = rt_.sched(id).now() - last_seen_[child];
    if (gap > config_.absence_threshold) {
      d.gathered.push_back({child, gap});
    } else {
      rt_.net_of(id).send(id, child, kCollectMsg, Bytes{});
      ++d.waiting;
      asked_size = std::max(asked_size, subtree_size_[child]);
    }
  }
  if (d.waiting == 0) {
    forward_log(id);
    return;
  }
  d.deadline = rt_.sched(id).schedule_after(sweep_deadline(id, asked_size),
                                            [this, id] { forward_log(id); });
}

sim::Duration HeartbeatSimulation::sweep_deadline(
    net::NodeId id, std::uint32_t asked_size) const {
  // A child's log holds at most one 8-byte entry per device below it,
  // and its own deadline spans one level fewer than its parent's. So
  // allowing each level below `id` a collect's link delay down and the
  // largest asked log's up, every answering child's log arrives in
  // time. Links are contention-free (LinkParams' default): no send
  // waits for a radio.
  const net::Network& net = rt_.network();
  const sim::Duration level =
      net.link_delay(0) + net.link_delay(8 * std::size_t{asked_size});
  return level *
         static_cast<std::int64_t>(tree_.max_depth() - tree_.depth(id));
}

void HeartbeatSimulation::handle_log(net::NodeId id, const net::Message& msg) {
  Dev& d = dev(id);
  if (!d.collecting || d.captured) return;
  decode_log(msg.payload, &d.gathered);
  if (d.waiting > 0) --d.waiting;
  if (d.waiting == 0) forward_log(id);
}

void HeartbeatSimulation::forward_log(net::NodeId id) {
  Dev& d = dev(id);
  d.collecting = false;  // a log that comes later is ignored
  rt_.sched(id).cancel(d.deadline);
  if (id == 0) return;  // Vrf keeps the sweep's log
  rt_.net_of(id).send(id, tree_.parent(id), kLogMsg, encode_log(d.gathered));
}

std::vector<AbsenceReport> HeartbeatSimulation::collect() {
  // The sweep's instruments add to the monitoring plane's.
  const auto window = rt_.open_window();
  handle_collect(0);
  rt_.run_window();  // the sweep drains (tree depth x small messages)

  std::vector<AbsenceReport> report = std::move(dev(0).gathered);
  std::sort(report.begin(), report.end(),
            [](const AbsenceReport& a, const AbsenceReport& b) {
              return a.device < b.device;
            });
  return report;
}

}  // namespace cra::sap
