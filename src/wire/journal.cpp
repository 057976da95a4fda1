#include "wire/journal.hpp"

#include <errno.h>
#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cstring>
#include <system_error>
#include <utility>

namespace cra::wire {

namespace {

[[noreturn]] void throw_errno(const char* what) {
  throw std::system_error(errno, std::generic_category(), what);
}

/// Read exactly `n` bytes at `off` (EINTR-retrying); returns bytes read
/// (short at EOF).
std::size_t pread_full(int fd, std::uint8_t* buf, std::size_t n,
                       std::uint64_t off) {
  std::size_t got = 0;
  while (got < n) {
    const ssize_t r = ::pread(fd, buf + got, n - got,
                              static_cast<off_t>(off + got));
    if (r < 0) {
      if (errno == EINTR) continue;
      throw_errno("journal pread");
    }
    if (r == 0) break;  // EOF
    got += static_cast<std::size_t>(r);
  }
  return got;
}

void write_full(int fd, const std::uint8_t* buf, std::size_t n) {
  std::size_t done = 0;
  while (done < n) {
    const ssize_t w = ::write(fd, buf + done, n - done);
    if (w < 0) {
      if (errno == EINTR) continue;
      throw_errno("journal write");
    }
    done += static_cast<std::size_t>(w);
  }
}

/// fsync the directory containing `path` so a fresh file / rename is
/// durable, not just the bytes. Best effort: some filesystems reject
/// directory fsync and the rename is still ordered on the ones we run.
void fsync_parent_dir(const std::string& path) {
  const std::size_t slash = path.rfind('/');
  const std::string dir = slash == std::string::npos
                              ? std::string(".")
                              : path.substr(0, slash == 0 ? 1 : slash);
  const int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY | O_CLOEXEC);
  if (fd < 0) return;
  (void)::fsync(fd);
  ::close(fd);
}

/// Stage `data` in `path.tmp`, then rename it over `path`, so readers
/// see the old file or the new one, never a partial write. `durable`
/// also fsyncs the file before the rename and its directory after, so
/// the same holds across a crash.
bool replace_file(const std::string& path, BytesView data, bool durable) {
  const std::string tmp = path + ".tmp";
  const int fd =
      ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
  if (fd < 0) return false;
  bool ok = true;
  try {
    write_full(fd, data.data(), data.size());
  } catch (const std::system_error&) {
    ok = false;
  }
  if (ok && durable) ok = ::fsync(fd) == 0;
  ::close(fd);
  if (ok) ok = ::rename(tmp.c_str(), path.c_str()) == 0;
  if (!ok) {
    ::unlink(tmp.c_str());
    return false;
  }
  if (durable) fsync_parent_dir(path);
  return true;
}

const std::array<std::uint32_t, 256>& crc_table() {
  static const std::array<std::uint32_t, 256> table = [] {
    std::array<std::uint32_t, 256> t{};
    for (std::uint32_t i = 0; i < 256; ++i) {
      std::uint32_t c = i;
      for (int k = 0; k < 8; ++k) {
        c = (c & 1u) != 0 ? 0xEDB88320u ^ (c >> 1) : c >> 1;
      }
      t[i] = c;
    }
    return t;
  }();
  return table;
}

constexpr std::size_t kRecordHeader = 8;  // len(4) || crc(4)

constexpr char kSnapMagic[4] = {'C', 'R', 'A', 'S'};
constexpr std::uint8_t kSnapVersion = 1;
constexpr std::size_t kSnapHeader = 4 + 1 + 4 + 4;

}  // namespace

std::uint32_t crc32_ieee(BytesView data, std::uint32_t seed) noexcept {
  const auto& t = crc_table();
  std::uint32_t c = seed ^ 0xFFFFFFFFu;
  for (const std::uint8_t b : data) {
    c = t[(c ^ b) & 0xFFu] ^ (c >> 8);
  }
  return c ^ 0xFFFFFFFFu;
}

Journal::~Journal() {
  if (fd_ >= 0) ::close(fd_);
}

Journal::Journal(Journal&& other) noexcept
    : fd_(other.fd_), offset_(other.offset_) {
  other.fd_ = -1;
  other.offset_ = 0;
}

Journal& Journal::operator=(Journal&& other) noexcept {
  if (this != &other) {
    if (fd_ >= 0) ::close(fd_);
    fd_ = other.fd_;
    offset_ = other.offset_;
    other.fd_ = -1;
    other.offset_ = 0;
  }
  return *this;
}

Journal Journal::open(const std::string& path, const ReplayFn& replay,
                      OpenStats* stats) {
  const int fd = ::open(path.c_str(), O_RDWR | O_CREAT | O_CLOEXEC, 0644);
  if (fd < 0) throw_errno("journal open");
  Journal j(fd);

  struct stat st{};
  if (::fstat(fd, &st) != 0) throw_errno("journal fstat");
  const std::uint64_t file_size = static_cast<std::uint64_t>(st.st_size);

  OpenStats local;
  Bytes record;
  std::uint64_t pos = 0;
  while (pos < file_size) {
    std::uint8_t header[kRecordHeader];
    if (pread_full(fd, header, kRecordHeader, pos) < kRecordHeader) break;
    const std::uint32_t len = read_u32le(BytesView(header, 4), 0);
    const std::uint32_t crc = read_u32le(BytesView(header, 8), 4);
    // len covers kind + payload; 0 or absurd means a torn/garbage tail.
    if (len == 0 || len > kMaxRecord) break;
    if (pos + kRecordHeader + len > file_size) break;
    record.resize(len);
    if (pread_full(fd, record.data(), len, pos + kRecordHeader) < len) break;
    if (crc32_ieee(record) != crc) break;
    if (replay) {
      replay(record[0], BytesView(record.data() + 1, len - 1));
    }
    ++local.records;
    pos += kRecordHeader + len;
  }

  if (pos < file_size) {
    local.truncated_bytes = static_cast<std::size_t>(file_size - pos);
    if (::ftruncate(fd, static_cast<off_t>(pos)) != 0) {
      throw_errno("journal ftruncate");
    }
  }
  if (::lseek(fd, static_cast<off_t>(pos), SEEK_SET) < 0) {
    throw_errno("journal lseek");
  }
  j.offset_ = pos;
  if (stats != nullptr) *stats = local;
  return j;
}

void Journal::append(std::uint8_t kind, BytesView payload) {
  if (fd_ < 0) return;
  Bytes rec;
  rec.reserve(kRecordHeader + 1 + payload.size());
  append_u32le(rec, static_cast<std::uint32_t>(1 + payload.size()));
  append_u32le(rec, 0);  // crc placeholder
  rec.push_back(kind);
  rec.insert(rec.end(), payload.begin(), payload.end());
  const std::uint32_t crc =
      crc32_ieee(BytesView(rec.data() + kRecordHeader,
                           rec.size() - kRecordHeader));
  store_u32le(rec.data() + 4, crc);
  write_full(fd_, rec.data(), rec.size());
  offset_ += rec.size();
}

void Journal::sync() {
  if (fd_ >= 0) (void)::fdatasync(fd_);
}

void Journal::reset() {
  if (fd_ < 0) return;
  if (::ftruncate(fd_, 0) != 0) throw_errno("journal reset ftruncate");
  if (::lseek(fd_, 0, SEEK_SET) < 0) throw_errno("journal reset lseek");
  offset_ = 0;
  (void)::fdatasync(fd_);
}

bool write_snapshot_file(const std::string& path, BytesView payload) {
  Bytes out(kSnapMagic, kSnapMagic + 4);
  out.reserve(kSnapHeader + payload.size());
  out.push_back(kSnapVersion);
  append_u32le(out, static_cast<std::uint32_t>(payload.size()));
  append_u32le(out, crc32_ieee(payload));
  out.insert(out.end(), payload.begin(), payload.end());
  return replace_file(path, out, /*durable=*/true);
}

std::optional<Bytes> read_snapshot_file(const std::string& path) {
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) return std::nullopt;
  struct stat st{};
  if (::fstat(fd, &st) != 0 ||
      static_cast<std::size_t>(st.st_size) < kSnapHeader) {
    ::close(fd);
    return std::nullopt;
  }
  Bytes file(static_cast<std::size_t>(st.st_size));
  const std::size_t got = pread_full(fd, file.data(), file.size(), 0);
  ::close(fd);
  if (got < file.size()) return std::nullopt;
  if (std::memcmp(file.data(), kSnapMagic, 4) != 0) return std::nullopt;
  if (file[4] != kSnapVersion) return std::nullopt;
  const std::uint32_t len = read_u32le(file, 5);
  const std::uint32_t crc = read_u32le(file, 9);
  if (file.size() != kSnapHeader + len) return std::nullopt;
  Bytes payload(file.begin() + kSnapHeader, file.end());
  if (crc32_ieee(payload) != crc) return std::nullopt;
  return payload;
}

bool write_text_atomic(const std::string& path, std::string_view text) {
  const auto* data = reinterpret_cast<const std::uint8_t*>(text.data());
  return replace_file(path, BytesView(data, text.size()), /*durable=*/false);
}

// --- VerifierState ---

namespace {

constexpr std::size_t kAgentRecordSize = 4 + 4 + 8 + 4 + 2;

/// The agent record at `off` (kAgentRecordSize bytes, caller-checked);
/// nullopt for an empty range, which no hello can register.
std::optional<VerifierState::Agent> parse_agent(BytesView data,
                                                std::size_t off) {
  VerifierState::Agent a;
  a.first_id = read_u32le(data, off);
  a.count = read_u32le(data, off + 4);
  a.epoch = read_u64le(data, off + 8);
  a.ip = read_u32le(data, off + 16);
  a.port = static_cast<std::uint16_t>(data[off + 20] | (data[off + 21] << 8));
  if (a.first_id == 0 || a.count == 0) return std::nullopt;
  return a;
}

}  // namespace

Bytes VerifierState::encode_agent(const Agent& a) {
  Bytes out;
  out.reserve(kAgentRecordSize);
  append_u32le(out, a.first_id);
  append_u32le(out, a.count);
  append_u64le(out, a.epoch);
  append_u32le(out, a.ip);
  out.push_back(static_cast<std::uint8_t>(a.port));
  out.push_back(static_cast<std::uint8_t>(a.port >> 8));
  return out;
}

Bytes VerifierState::encode_round_start(std::uint32_t tick) {
  Bytes out;
  append_u32le(out, tick);
  return out;
}

Bytes VerifierState::encode_reports(std::uint32_t tick, BytesView entries,
                                    std::size_t token_size) {
  Bytes out;
  out.reserve(8 + entries.size());
  append_u32le(out, tick);
  append_u32le(out, static_cast<std::uint32_t>(
                        report_codec(token_size).entry_count(entries)));
  out.insert(out.end(), entries.begin(), entries.end());
  return out;
}

Bytes VerifierState::encode_reports(std::uint32_t tick,
                                    const sap::DeviceReport* reports,
                                    std::size_t count,
                                    std::size_t token_size) {
  Bytes entries;
  report_codec(token_size).append(entries, reports, count);
  return encode_reports(tick, entries, token_size);
}

Bytes VerifierState::encode_repoll(std::uint32_t tick,
                                   std::uint32_t attempt) {
  Bytes out;
  append_u32le(out, tick);
  append_u32le(out, attempt);
  return out;
}

Bytes VerifierState::encode_round_close(std::uint32_t tick,
                                        std::uint32_t rounds_done) {
  Bytes out;
  append_u32le(out, tick);
  append_u32le(out, rounds_done);
  return out;
}

void VerifierState::put_agent(const Agent& a) { agents[a.first_id] = a; }

bool VerifierState::start_round(std::uint32_t t) {
  if (t <= tick) return false;  // stale or duplicate on replay
  tick = t;
  round_open = true;
  repoll_attempt = 0;
  have.assign(devices, 0);
  reports.clear();
  return true;
}

std::size_t VerifierState::accept_reports(std::uint32_t t, BytesView entries,
                                          std::size_t token_size) {
  if (!round_open || t != tick) return 0;
  const sap::IdentifyCodec codec = report_codec(token_size);
  const std::size_t entry = codec.entry_size();
  const std::size_t n = codec.entry_count(entries);
  std::size_t added = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint32_t id = codec.entry(entries, i).id;
    if (id == 0 || id > devices) continue;
    if (have[id - 1] != 0) continue;  // re-poll or replay duplicate
    have[id - 1] = 1;
    const auto at = entries.begin() + static_cast<std::ptrdiff_t>(i * entry);
    reports.insert(reports.end(), at, at + static_cast<std::ptrdiff_t>(entry));
    ++added;
  }
  return added;
}

void VerifierState::note_repoll(std::uint32_t t, std::uint32_t attempt) {
  if (!round_open || t != tick) return;
  repoll_attempt = std::max(repoll_attempt, attempt);
}

void VerifierState::close_round(std::uint32_t t, std::uint32_t done) {
  if (!round_open || t != tick) return;
  round_open = false;
  repoll_attempt = 0;
  have.clear();
  reports.clear();
  rounds_done = std::max(rounds_done, done);
}

void VerifierState::apply(std::uint8_t kind, BytesView payload,
                          std::size_t token_size) {
  switch (kind) {
    case kAgentRecord:
      if (payload.size() != kAgentRecordSize) return;
      if (const auto a = parse_agent(payload, 0)) put_agent(*a);
      return;
    case kRoundStart:
      if (payload.size() != 4) return;
      (void)start_round(read_u32le(payload, 0));
      return;
    case kReports: {
      if (payload.size() < 8) return;
      // A bad count or entry drops the whole record, as it does a frame.
      const BytesView entries = payload.subspan(8);
      const sap::IdentifyCodec codec = report_codec(token_size);
      if (!codec.well_formed(entries) ||
          codec.entry_count(entries) != read_u32le(payload, 4)) {
        return;
      }
      (void)accept_reports(read_u32le(payload, 0), entries, token_size);
      return;
    }
    case kRepoll:
      if (payload.size() != 8) return;
      note_repoll(read_u32le(payload, 0), read_u32le(payload, 4));
      return;
    case kRoundClose:
      if (payload.size() != 8) return;
      close_round(read_u32le(payload, 0), read_u32le(payload, 4));
      return;
    default:
      return;  // future record kind: skip, don't fail recovery
  }
}

Bytes VerifierState::encode(std::size_t token_size) const {
  Bytes out;
  append_u32le(out, devices);
  append_u32le(out, rounds_done);
  append_u32le(out, tick);
  out.push_back(round_open ? 1 : 0);
  append_u32le(out, repoll_attempt);
  append_u32le(out, static_cast<std::uint32_t>(agents.size()));
  for (const auto& [first_id, a] : agents) {
    const Bytes rec = encode_agent(a);
    out.insert(out.end(), rec.begin(), rec.end());
  }
  if (round_open) {
    out.insert(out.end(), have.begin(), have.end());
    // The entries sorted by id; `have` admits each id once.
    const sap::IdentifyCodec codec = report_codec(token_size);
    const std::size_t entry = codec.entry_size();
    std::vector<std::pair<std::uint32_t, std::size_t>> by_id(
        codec.entry_count(reports));
    for (std::size_t i = 0; i < by_id.size(); ++i) {
      by_id[i] = {codec.entry(reports, i).id, i * entry};
    }
    std::sort(by_id.begin(), by_id.end());
    append_u32le(out, static_cast<std::uint32_t>(by_id.size()));
    for (const auto& [id, at] : by_id) {
      out.insert(out.end(), reports.begin() + static_cast<std::ptrdiff_t>(at),
                 reports.begin() + static_cast<std::ptrdiff_t>(at + entry));
    }
  }
  return out;
}

std::optional<VerifierState> VerifierState::decode(BytesView payload,
                                                   std::size_t token_size) {
  constexpr std::size_t kFixed = 4 + 4 + 4 + 1 + 4 + 4;
  if (payload.size() < kFixed) return std::nullopt;
  VerifierState st;
  st.devices = read_u32le(payload, 0);
  st.rounds_done = read_u32le(payload, 4);
  st.tick = read_u32le(payload, 8);
  const std::uint8_t open_flag = payload[12];
  if (open_flag > 1) return std::nullopt;
  st.round_open = open_flag == 1;
  st.repoll_attempt = read_u32le(payload, 13);
  const std::uint32_t n_agents = read_u32le(payload, 17);
  std::size_t off = kFixed;
  if (payload.size() < off + static_cast<std::size_t>(n_agents) *
                                 kAgentRecordSize) {
    return std::nullopt;
  }
  for (std::uint32_t i = 0; i < n_agents; ++i) {
    const auto a = parse_agent(payload, off);
    if (!a.has_value()) return std::nullopt;
    st.put_agent(*a);
    off += kAgentRecordSize;
  }
  if (st.round_open) {
    if (payload.size() < off + st.devices + 4) return std::nullopt;
    const BytesView bitmap = payload.subspan(off, st.devices);
    off += st.devices;
    const BytesView entries = payload.subspan(off + 4);
    const sap::IdentifyCodec codec = report_codec(token_size);
    const std::size_t n = codec.entry_count(entries);
    // The bitmap and the list must name the same ids, each once: the
    // daemon counts coverage from the list and re-polls from the bitmap.
    // accept_reports takes the whole list only if its ids are distinct
    // and in [1, devices], and then covers exactly those ids.
    st.have.assign(st.devices, 0);
    if (!codec.well_formed(entries) || n != read_u32le(payload, off) ||
        st.accept_reports(st.tick, entries, token_size) != n ||
        !std::equal(st.have.begin(), st.have.end(), bitmap.begin())) {
      return std::nullopt;
    }
  } else if (payload.size() != off) {
    return std::nullopt;
  }
  return st;
}

crypto::Sha256::Digest VerifierState::digest(std::size_t token_size) const {
  return crypto::Sha256::digest(encode(token_size));
}

std::uint64_t VerifierState::digest64(std::size_t token_size) const {
  const auto d = digest(token_size);
  return read_u64le(BytesView(d.data(), d.size()), 0);
}

std::uint64_t next_agent_epoch(const std::string& path) {
  std::uint64_t last = 0;
  Journal j = Journal::open(path, [&](std::uint8_t kind, BytesView payload) {
    if (kind == 1 && payload.size() == 8) {
      last = std::max(last, read_u64le(payload, 0));
    }
  });
  const std::uint64_t epoch = last + 1;
  Bytes rec;
  append_u64le(rec, epoch);
  j.append(1, rec);
  j.sync();
  return epoch;
}

}  // namespace cra::wire
