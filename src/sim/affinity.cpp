#include "sim/affinity.hpp"

#include <sched.h>

#include <cctype>
#include <cstdio>
#include <string>

namespace cra::sim {
namespace {

/// Parse a sysfs cpulist ("0-3,8,10-11") into CPU numbers. Ignores
/// malformed pieces rather than failing the whole plan.
std::vector<int> parse_cpulist(const std::string& list) {
  std::vector<int> cpus;
  std::size_t i = 0;
  while (i < list.size()) {
    if (!std::isdigit(static_cast<unsigned char>(list[i]))) {
      ++i;
      continue;
    }
    std::size_t end = i;
    const long lo = std::stol(list.substr(i), &end);
    end += i;
    long hi = lo;
    if (end < list.size() && list[end] == '-') {
      std::size_t end2 = 0;
      hi = std::stol(list.substr(end + 1), &end2);
      end = end + 1 + end2;
    }
    for (long c = lo; c <= hi && c - lo < 4096; ++c) {
      cpus.push_back(static_cast<int>(c));
    }
    i = end;
  }
  return cpus;
}

std::string read_small_file(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "r");
  if (f == nullptr) return {};
  char buf[4096];
  const std::size_t n = std::fread(buf, 1, sizeof(buf) - 1, f);
  std::fclose(f);
  return std::string(buf, n);
}

}  // namespace

CpuPlan detect_cpu_plan() noexcept {
  CpuPlan plan;
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (sched_getaffinity(0, sizeof(allowed), &allowed) != 0) {
    return plan;  // no mask, no pinning
  }
  try {
    for (int node = 0; node < 1024; ++node) {
      const std::string list = read_small_file(
          "/sys/devices/system/node/node" + std::to_string(node) + "/cpulist");
      if (list.empty()) {
        if (node == 0) break;  // no sysfs NUMA topology at all
        break;                 // nodes are contiguous; first gap ends them
      }
      std::vector<int> group;
      for (const int cpu : parse_cpulist(list)) {
        if (cpu < CPU_SETSIZE &&
            CPU_ISSET(static_cast<std::size_t>(cpu), &allowed)) {
          group.push_back(cpu);
        }
      }
      if (!group.empty()) plan.nodes.push_back(std::move(group));
    }
    if (plan.nodes.empty()) {
      // Single pseudo-node over the affinity mask.
      std::vector<int> group;
      for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
        if (CPU_ISSET(static_cast<std::size_t>(cpu), &allowed)) {
          group.push_back(cpu);
        }
      }
      if (!group.empty()) plan.nodes.push_back(std::move(group));
    }
  } catch (...) {
    plan.nodes.clear();
  }
  return plan;
}

int pick_cpu(const CpuPlan& plan, std::uint32_t rank, std::uint32_t nprocs,
             std::uint32_t worker, std::uint32_t workers) noexcept {
  if (!plan.usable()) return -1;
  const std::vector<int>& node =
      plan.nodes[rank % plan.nodes.size()];
  // Stagger ranks that share a node so their workers interleave over
  // the node's CPUs instead of piling onto the same ones.
  (void)nprocs;
  const std::uint32_t slot =
      worker + (rank / static_cast<std::uint32_t>(plan.nodes.size())) *
                   (workers != 0 ? workers : 1);
  return node[slot % node.size()];
}

bool pin_current_thread(int cpu) noexcept {
  if (cpu < 0) return false;
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(static_cast<std::size_t>(cpu), &set);
  return sched_setaffinity(0, sizeof(set), &set) == 0;
}

}  // namespace cra::sim
