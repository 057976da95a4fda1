#include "fault/plan.hpp"

#include <algorithm>
#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <stdexcept>

namespace cra::fault {

const char* fault_kind_name(FaultKind kind) noexcept {
  switch (kind) {
    case FaultKind::kCrash: return "crash";
    case FaultKind::kReboot: return "reboot";
    case FaultKind::kSleep: return "sleep";
    case FaultKind::kWake: return "wake";
    case FaultKind::kLinkDown: return "link-down";
    case FaultKind::kLinkUp: return "link-up";
    case FaultKind::kPartition: return "partition";
    case FaultKind::kHeal: return "heal";
    case FaultKind::kLossSpike: return "loss";
    case FaultKind::kLossClear: return "loss-clear";
    case FaultKind::kClockSkew: return "skew";
    case FaultKind::kLeave: return "leave";
    case FaultKind::kJoin: return "join";
    case FaultKind::kProcKill: return "proc-kill";
  }
  return "?";
}

std::vector<net::NodeId> subtree_positions(const net::Tree& tree,
                                           net::NodeId root) {
  std::vector<net::NodeId> out;
  out.push_back(root);
  // Children always have larger indices than their parent, so one pass
  // over the growing worklist visits the whole subtree in BFS order.
  for (std::size_t i = 0; i < out.size(); ++i) {
    for (net::NodeId child : tree.children(out[i])) {
      out.push_back(child);
    }
  }
  return out;
}

FaultPlan::FaultPlan(std::uint64_t draw_seed) : draws_(draw_seed) {}

FaultEvent& FaultPlan::add(sim::SimTime at, FaultKind kind) {
  if (at < sim::SimTime::zero()) {
    throw std::invalid_argument("FaultPlan: event time must be >= 0");
  }
  FaultEvent ev;
  ev.at = at;
  ev.kind = kind;
  ev.draw = draws_.next();
  ev.seq = next_seq_++;
  events_.push_back(std::move(ev));
  sorted_ = false;
  return events_.back();
}

FaultPlan& FaultPlan::crash(sim::SimTime at, net::NodeId device) {
  add(at, FaultKind::kCrash).device = device;
  return *this;
}

FaultPlan& FaultPlan::reboot(sim::SimTime at, net::NodeId device) {
  add(at, FaultKind::kReboot).device = device;
  return *this;
}

FaultPlan& FaultPlan::crash_for(sim::SimTime at, net::NodeId device,
                                sim::Duration downtime) {
  FaultEvent& ev = add(at, FaultKind::kCrash);
  ev.device = device;
  ev.duration = downtime;
  return reboot(at + downtime, device);
}

FaultPlan& FaultPlan::sleep(sim::SimTime at, net::NodeId device) {
  add(at, FaultKind::kSleep).device = device;
  return *this;
}

FaultPlan& FaultPlan::wake(sim::SimTime at, net::NodeId device) {
  add(at, FaultKind::kWake).device = device;
  return *this;
}

FaultPlan& FaultPlan::sleep_for(sim::SimTime at, net::NodeId device,
                                sim::Duration downtime) {
  FaultEvent& ev = add(at, FaultKind::kSleep);
  ev.device = device;
  ev.duration = downtime;
  return wake(at + downtime, device);
}

FaultPlan& FaultPlan::link_down(sim::SimTime at, net::NodeId a,
                                net::NodeId b) {
  FaultEvent& ev = add(at, FaultKind::kLinkDown);
  ev.device = a;
  ev.peer = b;
  return *this;
}

FaultPlan& FaultPlan::link_up(sim::SimTime at, net::NodeId a, net::NodeId b) {
  FaultEvent& ev = add(at, FaultKind::kLinkUp);
  ev.device = a;
  ev.peer = b;
  return *this;
}

FaultPlan& FaultPlan::link_down_for(sim::SimTime at, net::NodeId a,
                                    net::NodeId b, sim::Duration downtime) {
  FaultEvent& ev = add(at, FaultKind::kLinkDown);
  ev.device = a;
  ev.peer = b;
  ev.duration = downtime;
  return link_up(at + downtime, a, b);
}

FaultPlan& FaultPlan::partition(sim::SimTime at,
                                std::vector<net::NodeId> island) {
  if (island.empty()) {
    throw std::invalid_argument("FaultPlan: empty partition island");
  }
  add(at, FaultKind::kPartition).island = std::move(island);
  return *this;
}

FaultPlan& FaultPlan::heal(sim::SimTime at, std::vector<net::NodeId> island) {
  if (island.empty()) {
    throw std::invalid_argument("FaultPlan: empty heal island");
  }
  add(at, FaultKind::kHeal).island = std::move(island);
  return *this;
}

FaultPlan& FaultPlan::partition_for(sim::SimTime at,
                                    std::vector<net::NodeId> island,
                                    sim::Duration downtime) {
  if (island.empty()) {
    throw std::invalid_argument("FaultPlan: empty partition island");
  }
  FaultEvent& ev = add(at, FaultKind::kPartition);
  ev.island = island;
  ev.duration = downtime;
  return heal(at + downtime, std::move(island));
}

FaultPlan& FaultPlan::partition_subtree(sim::SimTime at,
                                        const net::Tree& tree,
                                        net::NodeId root,
                                        sim::Duration downtime) {
  return partition_for(at, subtree_positions(tree, root), downtime);
}

FaultPlan& FaultPlan::loss_spike(sim::SimTime at, double rate) {
  if (!(rate >= 0.0 && rate <= 1.0)) {  // NaN too: parse() refuses it
    throw std::invalid_argument("FaultPlan: loss rate must be in [0,1]");
  }
  add(at, FaultKind::kLossSpike).rate = rate;
  return *this;
}

FaultPlan& FaultPlan::loss_clear(sim::SimTime at) {
  add(at, FaultKind::kLossClear);
  return *this;
}

FaultPlan& FaultPlan::loss_spike_for(sim::SimTime at, double rate,
                                     sim::Duration downtime) {
  if (!(rate >= 0.0 && rate <= 1.0)) {
    throw std::invalid_argument("FaultPlan: loss rate must be in [0,1]");
  }
  FaultEvent& ev = add(at, FaultKind::kLossSpike);
  ev.rate = rate;
  ev.duration = downtime;
  return loss_clear(at + downtime);
}

FaultPlan& FaultPlan::clock_skew(sim::SimTime at, net::NodeId device,
                                 sim::Duration skew) {
  FaultEvent& ev = add(at, FaultKind::kClockSkew);
  ev.device = device;
  ev.skew_ns = skew.ns();
  return *this;
}

FaultPlan& FaultPlan::leave(sim::SimTime at, net::NodeId device) {
  add(at, FaultKind::kLeave).device = device;
  return *this;
}

FaultPlan& FaultPlan::join(sim::SimTime at, net::NodeId device) {
  add(at, FaultKind::kJoin).device = device;
  return *this;
}

FaultPlan& FaultPlan::leave_for(sim::SimTime at, net::NodeId device,
                                sim::Duration absence) {
  FaultEvent& ev = add(at, FaultKind::kLeave);
  ev.device = device;
  ev.duration = absence;
  return join(at + absence, device);
}

FaultPlan& FaultPlan::proc_kill(sim::SimTime at, net::NodeId proc) {
  add(at, FaultKind::kProcKill).device = proc;
  return *this;
}

FaultPlan& FaultPlan::proc_kill_for(sim::SimTime at, net::NodeId proc,
                                    sim::Duration downtime) {
  if (downtime < sim::Duration::zero()) {
    throw std::invalid_argument("FaultPlan: negative proc-kill downtime");
  }
  FaultEvent& ev = add(at, FaultKind::kProcKill);
  ev.device = proc;
  ev.duration = downtime;
  return *this;
}

const std::vector<FaultEvent>& FaultPlan::events() const {
  if (!sorted_) {
    std::stable_sort(events_.begin(), events_.end(),
                     [](const FaultEvent& a, const FaultEvent& b) {
                       if (a.at != b.at) return a.at < b.at;
                       return a.seq < b.seq;
                     });
    sorted_ = true;
  }
  return events_;
}

// --- Text grammar ---
//
//   @<time> crash <device> [<duration>]
//   @<time> reboot <device>
//   @<time> sleep <device> [<duration>]
//   @<time> wake <device>
//   @<time> leave <device> [<duration>]
//   @<time> join <device>
//   @<time> link-down <a> <b> [<duration>]
//   @<time> link-up <a> <b>
//   @<time> partition <nodes> [<duration>]
//                                  nodes: comma list with ranges, 3,9-12
//   @<time> heal <nodes>
//   @<time> loss <rate> [<duration>]
//   @<time> loss-clear
//   @<time> skew <device> <signed duration>
//   @<time> proc-kill <proc> [<downtime>]
//
// with <time>/<duration> = <number><unit>, unit in {ns, us, ms, s}.
// The optional <duration> is the span the paired builders (crash_for,
// ...) put on their first event; it sets only that event's field and
// adds no closing event. '#' starts a comment; blank lines are ignored.

namespace {

std::string format_ns(std::int64_t ns) {
  char buf[48];
  const char* sign = ns < 0 ? "-" : "";
  const std::int64_t mag = ns < 0 ? -ns : ns;
  if (mag % 1'000'000'000 == 0) {
    std::snprintf(buf, sizeof buf, "%s%llds", sign,
                  static_cast<long long>(mag / 1'000'000'000));
  } else if (mag % 1'000'000 == 0) {
    std::snprintf(buf, sizeof buf, "%s%lldms", sign,
                  static_cast<long long>(mag / 1'000'000));
  } else if (mag % 1'000 == 0) {
    std::snprintf(buf, sizeof buf, "%s%lldus", sign,
                  static_cast<long long>(mag / 1'000));
  } else {
    std::snprintf(buf, sizeof buf, "%s%lldns", sign,
                  static_cast<long long>(mag));
  }
  return buf;
}

/// A token plus its 1-based starting column, so every rejection can say
/// exactly where in the line the offending text sits.
struct Token {
  std::string_view text;
  std::size_t col = 1;
};

[[noreturn]] void parse_fail(std::size_t line_no, std::size_t col,
                             const std::string& why) {
  throw std::invalid_argument("FaultPlan::parse: line " +
                              std::to_string(line_no) + ", col " +
                              std::to_string(col) + ": " + why);
}

std::int64_t parse_duration_ns(const Token& tok, std::size_t line_no,
                               bool allow_negative) {
  std::int64_t scale = 0;
  std::string number;
  const std::string_view t = tok.text;
  if (t.size() > 2 && t.substr(t.size() - 2) == "ns") {
    scale = 1;
    number = std::string(t.substr(0, t.size() - 2));
  } else if (t.size() > 2 && t.substr(t.size() - 2) == "us") {
    scale = 1'000;
    number = std::string(t.substr(0, t.size() - 2));
  } else if (t.size() > 2 && t.substr(t.size() - 2) == "ms") {
    scale = 1'000'000;
    number = std::string(t.substr(0, t.size() - 2));
  } else if (t.size() > 1 && t.back() == 's') {
    scale = 1'000'000'000;
    number = std::string(t.substr(0, t.size() - 1));
  } else {
    parse_fail(line_no, tok.col,
               "time needs a unit (ns/us/ms/s): '" + std::string(t) + "'");
  }
  char* end = nullptr;
  const double value = std::strtod(number.c_str(), &end);
  if (end == number.c_str() || *end != '\0') {
    parse_fail(line_no, tok.col, "bad number '" + number + "'");
  }
  // Reject inf/nan and magnitudes the int64 nanosecond grid cannot hold
  // BEFORE the cast — static_cast of an out-of-range double is UB, and
  // "@infs" used to reach it.
  const double ns = value * static_cast<double>(scale);
  if (!(ns >= -9.2e18 && ns <= 9.2e18)) {  // !(..) also catches NaN
    parse_fail(line_no, tok.col,
               "duration out of range: '" + std::string(t) + "'");
  }
  if (!allow_negative && ns < 0) {
    parse_fail(line_no, tok.col,
               "negative duration not allowed here: '" + std::string(t) +
                   "'");
  }
  return static_cast<std::int64_t>(ns + (ns < 0 ? -0.5 : 0.5));
}

std::uint32_t parse_node(std::string_view text, std::size_t col,
                         std::size_t line_no) {
  // strtoul silently wraps negative input ("-3" parses as 4294967293)
  // and silently truncates values past 2^32, so validate by hand: plain
  // decimal digits only, value must fit a NodeId.
  if (text.empty()) parse_fail(line_no, col, "empty node id");
  unsigned long long v = 0;
  for (const char c : text) {
    if (c < '0' || c > '9') {
      parse_fail(line_no, col, "bad node id '" + std::string(text) + "'");
    }
    v = v * 10 + static_cast<unsigned long long>(c - '0');
    if (v > 0xffff'ffffULL) {
      parse_fail(line_no, col,
                 "node id out of range '" + std::string(text) + "'");
    }
  }
  return static_cast<std::uint32_t>(v);
}

std::uint32_t parse_node(const Token& tok, std::size_t line_no) {
  return parse_node(tok.text, tok.col, line_no);
}

// Positions one node list may name: 16x the largest swarm simulated, and
// small enough that a mistyped range cannot ask for gigabytes.
constexpr std::size_t kMaxNodeList = std::size_t{1} << 24;

std::vector<net::NodeId> parse_node_list(const Token& tok,
                                         std::size_t line_no) {
  std::vector<net::NodeId> out;
  const std::string_view t = tok.text;
  std::size_t pos = 0;
  // Walk comma-separated parts; an empty part (leading, doubled, or
  // trailing comma — "3,5," used to pass silently) is a parse error.
  while (true) {
    std::size_t comma = t.find(',', pos);
    if (comma == std::string_view::npos) comma = t.size();
    const std::string_view part = t.substr(pos, comma - pos);
    const std::size_t part_col = tok.col + pos;
    if (part.empty()) {
      parse_fail(line_no, part_col, "empty entry in node list '" +
                                        std::string(t) + "'");
    }
    const std::size_t dash = part.find('-');
    if (dash == std::string_view::npos) {
      out.push_back(parse_node(part, part_col, line_no));
    } else {
      const std::uint32_t lo =
          parse_node(part.substr(0, dash), part_col, line_no);
      const std::uint32_t hi =
          parse_node(part.substr(dash + 1), part_col + dash + 1, line_no);
      if (hi < lo) parse_fail(line_no, part_col, "descending range");
      if (out.size() + (hi - lo) >= kMaxNodeList) {
        parse_fail(line_no, part_col, "node list longer than " +
                                          std::to_string(kMaxNodeList));
      }
      // A 64-bit counter: "4294967295-4294967295" must end.
      for (std::uint64_t n = lo; n <= hi; ++n) {
        out.push_back(static_cast<net::NodeId>(n));
      }
    }
    if (comma == t.size()) break;
    pos = comma + 1;
  }
  return out;
}

std::vector<Token> split_ws(std::string_view line) {
  std::vector<Token> toks;
  std::size_t i = 0;
  while (i < line.size()) {
    while (i < line.size() &&
           std::isspace(static_cast<unsigned char>(line[i]))) {
      ++i;
    }
    std::size_t start = i;
    while (i < line.size() &&
           !std::isspace(static_cast<unsigned char>(line[i]))) {
      ++i;
    }
    if (i > start) toks.push_back({line.substr(start, i - start), start + 1});
  }
  return toks;
}

std::string format_node_list(const std::vector<net::NodeId>& nodes) {
  // Compress consecutive runs back into ranges.
  std::vector<net::NodeId> sorted = nodes;
  std::sort(sorted.begin(), sorted.end());
  std::string out;
  std::size_t i = 0;
  while (i < sorted.size()) {
    std::size_t j = i;
    while (j + 1 < sorted.size() && sorted[j + 1] == sorted[j] + 1) ++j;
    if (!out.empty()) out += ',';
    out += std::to_string(sorted[i]);
    if (j > i) {
      out += '-';
      out += std::to_string(sorted[j]);
    }
    i = j + 1;
  }
  return out;
}

}  // namespace

std::string FaultPlan::format() const {
  std::string out;
  char buf[64];
  for (const FaultEvent& ev : events()) {
    out += '@';
    out += format_ns(ev.at.ns());
    out += ' ';
    out += fault_kind_name(ev.kind);
    switch (ev.kind) {
      case FaultKind::kCrash:
      case FaultKind::kReboot:
      case FaultKind::kSleep:
      case FaultKind::kWake:
      case FaultKind::kLeave:
      case FaultKind::kJoin:
      case FaultKind::kProcKill:
        out += ' ';
        out += std::to_string(ev.device);
        break;
      case FaultKind::kLinkDown:
      case FaultKind::kLinkUp:
        out += ' ';
        out += std::to_string(ev.device);
        out += ' ';
        out += std::to_string(ev.peer);
        break;
      case FaultKind::kPartition:
      case FaultKind::kHeal:
        out += ' ';
        out += format_node_list(ev.island);
        break;
      case FaultKind::kLossSpike:
        // The shortest form that strtod reads back to the same double.
        out += ' ';
        out.append(buf, std::to_chars(buf, buf + sizeof buf, ev.rate).ptr);
        break;
      case FaultKind::kLossClear:
        break;
      case FaultKind::kClockSkew:
        out += ' ';
        out += std::to_string(ev.device);
        out += ' ';
        out += format_ns(ev.skew_ns);
        break;
    }
    // Only the kinds whose text takes one carry a span (see parse).
    if (ev.duration > sim::Duration::zero()) {
      out += ' ';
      out += format_ns(ev.duration.ns());
    }
    out += '\n';
  }
  return out;
}

FaultPlan FaultPlan::parse(std::string_view text) {
  FaultPlan plan;
  std::size_t line_no = 0;
  std::size_t pos = 0;
  while (pos <= text.size()) {
    std::size_t nl = text.find('\n', pos);
    if (nl == std::string_view::npos) nl = text.size();
    std::string_view line = text.substr(pos, nl - pos);
    pos = nl + 1;
    ++line_no;
    const std::size_t hash = line.find('#');
    if (hash != std::string_view::npos) line = line.substr(0, hash);
    const std::vector<Token> toks = split_ws(line);
    if (toks.empty()) {
      if (pos > text.size()) break;
      continue;
    }
    if (toks[0].text.size() < 2 || toks[0].text[0] != '@') {
      parse_fail(line_no, toks[0].col, "expected '@<time>'");
    }
    const Token time_tok{toks[0].text.substr(1), toks[0].col + 1};
    // Event times must be non-negative; FaultPlan::add would also throw,
    // but without saying which line put the event before t=0.
    const sim::SimTime at(
        parse_duration_ns(time_tok, line_no, /*allow_negative=*/false));
    if (toks.size() < 2) {
      parse_fail(line_no, toks[0].col + toks[0].text.size(),
                 "missing fault kind");
    }
    const std::string_view kind = toks[1].text;
    // Argument-count contract doubles as the trailing-garbage check: a
    // well-formed event followed by extra tokens names the first
    // unconsumed token instead of silently ignoring it.
    auto want = [&](std::size_t n) {
      if (toks.size() > 2 + n) {
        parse_fail(line_no, toks[2 + n].col,
                   "trailing garbage after " + std::string(kind) + ": '" +
                       std::string(toks[2 + n].text) + "'");
      }
      if (toks.size() < 2 + n) {
        parse_fail(line_no, toks.back().col + toks.back().text.size(),
                   std::string(kind) + " takes " + std::to_string(n) +
                       " argument(s)");
      }
    };
    // The kinds whose paired builder sets a span take it as an optional
    // last argument. Every unit ends in 's', so a token there that does
    // not is trailing garbage, not a malformed duration.
    const Token* span = nullptr;
    auto want_span = [&](std::size_t n) {
      if (toks.size() > 2 + n && toks[2 + n].text.back() == 's') {
        span = &toks[2 + n];
      }
      want(span != nullptr ? n + 1 : n);
    };
    if (kind == "crash") {
      want_span(1);
      plan.crash(at, parse_node(toks[2], line_no));
    } else if (kind == "reboot") {
      want(1);
      plan.reboot(at, parse_node(toks[2], line_no));
    } else if (kind == "sleep") {
      want_span(1);
      plan.sleep(at, parse_node(toks[2], line_no));
    } else if (kind == "wake") {
      want(1);
      plan.wake(at, parse_node(toks[2], line_no));
    } else if (kind == "leave") {
      want_span(1);
      plan.leave(at, parse_node(toks[2], line_no));
    } else if (kind == "join") {
      want(1);
      plan.join(at, parse_node(toks[2], line_no));
    } else if (kind == "link-down") {
      want_span(2);
      plan.link_down(at, parse_node(toks[2], line_no),
                     parse_node(toks[3], line_no));
    } else if (kind == "link-up") {
      want(2);
      plan.link_up(at, parse_node(toks[2], line_no),
                   parse_node(toks[3], line_no));
    } else if (kind == "partition") {
      want_span(1);
      plan.partition(at, parse_node_list(toks[2], line_no));
    } else if (kind == "heal") {
      want(1);
      plan.heal(at, parse_node_list(toks[2], line_no));
    } else if (kind == "loss") {
      want_span(1);
      char* end = nullptr;
      const std::string s(toks[2].text);
      const double rate = std::strtod(s.c_str(), &end);
      if (end == s.c_str() || *end != '\0' || !(rate >= 0.0) || rate > 1.0) {
        parse_fail(line_no, toks[2].col, "bad loss rate '" + s + "'");
      }
      plan.loss_spike(at, rate);
    } else if (kind == "loss-clear") {
      want(0);
      plan.loss_clear(at);
    } else if (kind == "skew") {
      want(2);
      plan.clock_skew(
          at, parse_node(toks[2], line_no),
          sim::Duration(parse_duration_ns(toks[3], line_no,
                                          /*allow_negative=*/true)));
    } else if (kind == "proc-kill") {
      want_span(1);  // the restart downtime
      plan.proc_kill(at, parse_node(toks[2], line_no));
    } else {
      parse_fail(line_no, toks[1].col,
                 "unknown fault kind '" + std::string(kind) + "'");
    }
    // Only the event's own field: no closing event is added.
    if (span != nullptr) {
      plan.events_.back().duration = sim::Duration(
          parse_duration_ns(*span, line_no, /*allow_negative=*/false));
    }
  }
  return plan;
}

FaultPlan FaultPlan::churn(std::uint64_t seed, const net::Tree& tree,
                           sim::SimTime start, sim::SimTime end,
                           const ChurnProfile& profile) {
  if (profile.period <= sim::Duration::zero()) {
    throw std::invalid_argument("churn: period must be positive");
  }
  if (profile.max_downtime < profile.min_downtime) {
    throw std::invalid_argument("churn: max_downtime < min_downtime");
  }
  FaultPlan plan(seed);
  Rng rng(seed ^ 0x6368'7572'6e21ULL);  // "churn!"
  const std::uint32_t devices = tree.device_count();
  const std::int64_t period_ns = profile.period.ns();
  auto events_this_period = [&](double rate) {
    const double expected = rate * static_cast<double>(devices);
    std::uint64_t n = static_cast<std::uint64_t>(expected);
    if (rng.next_bool(expected - static_cast<double>(n))) ++n;
    return n;
  };
  // Knuth's inversion sampler: exact Poisson counts from the plan's own
  // pre-seeded stream, so membership churn replays identically on both
  // engines. Fine for the mean values churn sweeps use (< ~30/period).
  auto poisson = [&](double mean) -> std::uint64_t {
    if (mean <= 0.0) return 0;
    const double limit = std::exp(-mean);
    std::uint64_t k = 0;
    double p = 1.0;
    do {
      ++k;
      p *= rng.next_double();
    } while (p > limit);
    return k - 1;
  };
  auto downtime = [&]() {
    const std::int64_t span =
        profile.max_downtime.ns() - profile.min_downtime.ns();
    return sim::Duration(profile.min_downtime.ns() +
                         (span > 0 ? static_cast<std::int64_t>(
                                         rng.next_below(
                                             static_cast<std::uint64_t>(
                                                 span + 1)))
                                   : 0));
  };
  for (sim::SimTime t0 = start; t0 < end; t0 += profile.period) {
    auto jitter = [&]() {
      return t0 + sim::Duration(static_cast<std::int64_t>(
                      rng.next_below(static_cast<std::uint64_t>(period_ns))));
    };
    const std::uint64_t crashes = events_this_period(profile.crash_rate);
    for (std::uint64_t i = 0; i < crashes; ++i) {
      const net::NodeId device = static_cast<net::NodeId>(
          rng.next_range(1, devices));
      plan.crash_for(jitter(), device, downtime());
    }
    const std::uint64_t sleeps = events_this_period(profile.sleep_rate);
    for (std::uint64_t i = 0; i < sleeps; ++i) {
      const net::NodeId device = static_cast<net::NodeId>(
          rng.next_range(1, devices));
      plan.sleep_for(jitter(), device, downtime());
    }
    const std::uint64_t leaves =
        poisson(profile.leave_rate * static_cast<double>(devices));
    for (std::uint64_t i = 0; i < leaves; ++i) {
      const net::NodeId device = static_cast<net::NodeId>(
          rng.next_range(1, devices));
      plan.leave_for(jitter(), device, downtime());
    }
    const std::uint64_t joins =
        poisson(profile.join_rate * static_cast<double>(devices));
    for (std::uint64_t i = 0; i < joins; ++i) {
      const net::NodeId device = static_cast<net::NodeId>(
          rng.next_range(1, devices));
      plan.join(jitter(), device);
    }
    if (profile.partition_rate > 0.0 && devices > 1 &&
        rng.next_bool(profile.partition_rate)) {
      // Cut a random non-root subtree; deep positions give small islands,
      // which matches how real partitions isolate pockets of the mesh.
      const net::NodeId root = static_cast<net::NodeId>(
          rng.next_range(1, tree.size() - 1));
      plan.partition_subtree(jitter(), tree, root,
                             profile.partition_duration);
    }
    if (profile.loss_spike_rate > 0.0 &&
        rng.next_bool(profile.loss_spike_rate)) {
      plan.loss_spike_for(jitter(), profile.loss_spike,
                          profile.loss_spike_duration);
    }
  }
  return plan;
}

}  // namespace cra::fault
