#include "sap/vs_store.hpp"

#include <fstream>
#include <sstream>
#include <stdexcept>

namespace cra::sap {
namespace {

const char* alg_name(crypto::HashAlg alg) {
  return alg == crypto::HashAlg::kSha1 ? "sha1" : "sha256";
}

}  // namespace

std::string vs_to_string(const Verifier& verifier) {
  std::ostringstream os;
  os << "cra-vs 1\n";
  os << "alg " << alg_name(verifier.config().alg) << "\n";
  os << "devices " << verifier.device_count() << "\n";
  for (net::NodeId id = 1; id <= verifier.device_count(); ++id) {
    os << "cfg " << id << ' ' << to_hex(verifier.expected_content(id))
       << "\n";
  }
  return os.str();
}

std::vector<Bytes> vs_from_string(const std::string& text,
                                  crypto::HashAlg expect_alg,
                                  std::uint32_t expect_devices) {
  std::istringstream is(text);
  std::string magic;
  int version = 0;
  if (!(is >> magic >> version) || magic != "cra-vs" || version != 1) {
    throw std::invalid_argument("vs_from_string: bad header");
  }
  std::string key, alg;
  if (!(is >> key >> alg) || key != "alg") {
    throw std::invalid_argument("vs_from_string: missing alg");
  }
  if (alg != alg_name(expect_alg)) {
    throw std::invalid_argument("vs_from_string: algorithm mismatch");
  }
  std::uint32_t devices = 0;
  if (!(is >> key >> devices) || key != "devices" || devices == 0) {
    throw std::invalid_argument("vs_from_string: missing device count");
  }
  if (devices != expect_devices) {
    throw std::invalid_argument("vs_from_string: device count mismatch");
  }

  // Each cfg line is one unit, `cfg <id> <hex>`, whose hex is empty for
  // content that was never set.
  std::string line, extra;
  std::getline(is, line);  // the rest of the devices line
  if (std::istringstream(line) >> extra) {
    throw std::invalid_argument("vs_from_string: malformed device count");
  }
  std::vector<Bytes> contents(devices);
  std::vector<bool> seen(devices + 1, false);
  for (std::uint32_t i = 0; i < devices; ++i) {
    if (!std::getline(is, line)) {
      throw std::invalid_argument("vs_from_string: missing cfg line");
    }
    std::istringstream fields(line);
    std::uint32_t id = 0;
    std::string hex;
    if (!(fields >> key >> id) || key != "cfg" || id == 0 || id > devices ||
        ((fields >> hex) && (fields >> extra))) {
      throw std::invalid_argument("vs_from_string: malformed cfg line");
    }
    if (seen[id]) {
      throw std::invalid_argument("vs_from_string: duplicate cfg id");
    }
    seen[id] = true;
    contents[id - 1] = from_hex(hex);
  }
  return contents;
}

void save_vs(const Verifier& verifier, const std::string& path) {
  std::ofstream out(path, std::ios::trunc);
  if (!out) throw std::runtime_error("save_vs: cannot open " + path);
  out << vs_to_string(verifier);
  if (!out) throw std::runtime_error("save_vs: write failed for " + path);
}

void load_vs(Verifier& verifier, const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("load_vs: cannot open " + path);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  const std::vector<Bytes> contents = vs_from_string(
      buffer.str(), verifier.config().alg, verifier.device_count());
  for (net::NodeId id = 1; id <= verifier.device_count(); ++id) {
    verifier.set_expected_content(id, contents[id - 1]);
  }
}

}  // namespace cra::sap
