// Valid journal inputs shared by the wire journal suites: the WAL record
// stream of a small deployment and the state it replays to.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "wire/journal.hpp"

namespace cra::wire::samples {

constexpr std::size_t kTok = 8;

using Record = std::pair<std::uint8_t, Bytes>;

inline sap::DeviceReport make_report(std::uint32_t id, std::uint32_t tick) {
  sap::DeviceReport rep;
  rep.id = id;
  rep.tick = tick;
  rep.status = sap::DeviceReportStatus::kEntryOk;
  rep.token.assign(kTok, static_cast<std::uint8_t>(id * 13 + tick));
  return rep;
}

/// The WAL record stream of a small deployment mid-round: two agents,
/// one closed round, a second round open with partial coverage.
inline std::vector<Record> sample_stream() {
  std::vector<Record> recs;
  VerifierState::Agent a1{1, 4, 11, 0x0100007Fu, 0x3412};
  VerifierState::Agent a2{5, 4, 22, 0x0100007Fu, 0x7856};
  recs.emplace_back(VerifierState::kAgentRecord,
                    VerifierState::encode_agent(a1));
  recs.emplace_back(VerifierState::kAgentRecord,
                    VerifierState::encode_agent(a2));
  recs.emplace_back(VerifierState::kRoundStart,
                    VerifierState::encode_round_start(1));
  std::vector<sap::DeviceReport> r1;
  for (std::uint32_t id = 1; id <= 8; ++id) r1.push_back(make_report(id, 1));
  recs.emplace_back(VerifierState::kReports,
                    VerifierState::encode_reports(1, r1.data(), r1.size(),
                                                  kTok));
  recs.emplace_back(VerifierState::kRoundClose,
                    VerifierState::encode_round_close(1, 1));
  recs.emplace_back(VerifierState::kRoundStart,
                    VerifierState::encode_round_start(2));
  std::vector<sap::DeviceReport> r2;
  for (std::uint32_t id = 1; id <= 5; ++id) r2.push_back(make_report(id, 2));
  recs.emplace_back(VerifierState::kReports,
                    VerifierState::encode_reports(2, r2.data(), r2.size(),
                                                  kTok));
  recs.emplace_back(VerifierState::kRepoll,
                    VerifierState::encode_repoll(2, 1));
  return recs;
}

inline VerifierState replay_stream(const std::vector<Record>& recs,
                                   std::uint32_t devices = 8) {
  VerifierState st;
  st.devices = devices;
  for (const auto& [kind, payload] : recs) st.apply(kind, payload, kTok);
  return st;
}

}  // namespace cra::wire::samples
