// Full-fidelity integration: every swarm member is a real device::Device
// VM — secure clock checks, MPU-protected keys, HMAC over actual PMEM —
// driven by the SAP protocol over the simulated network.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "device/device.hpp"
#include "sap/swarm.hpp"

namespace cra::sap {
namespace {

struct VmSwarm {
  SapConfig cfg;
  std::unique_ptr<SapSimulation> sim;
  std::vector<std::unique_ptr<device::Device>> vms;

  explicit VmSwarm(std::uint32_t n) {
    cfg.pmem_size = 4 * 1024;
    sim = std::make_unique<SapSimulation>(
        cfg, net::balanced_kary_tree(n, cfg.tree_arity), /*seed=*/3);
    for (net::NodeId id = 1; id <= n; ++id) {
      device::DeviceConfig dcfg;
      dcfg.layout = device::MemoryLayout{256, cfg.pmem_size, 1024, 4096};
      auto vm = std::make_unique<device::Device>(
          id, dcfg, sim->verifier().device_key(id), Bytes(20, 0x77));
      vm->load_firmware(to_bytes("firmware of device " + std::to_string(id)));
      vm->provision();
      EXPECT_TRUE(vm->boot());
      sim->attach_vm(id, vm.get());
      vms.push_back(std::move(vm));
    }
  }
};

TEST(VmIntegration, HonestSwarmOfRealMachinesVerifies) {
  VmSwarm swarm(7);
  const RoundReport r = swarm.sim->run_round();
  EXPECT_TRUE(r.verified);
}

TEST(VmIntegration, RealMalwareInfectionDetected) {
  VmSwarm swarm(7);
  EXPECT_TRUE(swarm.sim->run_round().verified);

  // Actual byte-level infection of device 4's PMEM.
  swarm.vms[3]->adv_infect_pmem(100, to_bytes("\xde\xad\xbe\xef payload"));
  swarm.sim->advance_time(sim::Duration::from_ms(50));
  EXPECT_FALSE(swarm.sim->run_round().verified);
}

TEST(VmIntegration, SecondCompromiseKeepsTheVmInfected) {
  // Regression: each compromise XORed PMEM byte 0 with 0xff, so the
  // second implant undid the first and the round verified.
  VmSwarm swarm(7);
  swarm.sim->compromise_device(4);
  swarm.sim->compromise_device(4);
  EXPECT_FALSE(swarm.sim->run_round().verified);
  swarm.sim->restore_device(4);
  swarm.sim->advance_time(sim::Duration::from_ms(50));
  EXPECT_TRUE(swarm.sim->run_round().verified);
}

TEST(VmIntegration, ReflashRestoresTrust) {
  VmSwarm swarm(7);
  swarm.vms[2]->adv_infect_pmem(0, to_bytes("evil"));
  EXPECT_FALSE(swarm.sim->run_round().verified);

  // Re-flash the expected firmware (what a remediation action does).
  swarm.vms[2]->memory().load(device::Section::kPmem,
                              swarm.sim->verifier().expected_content(3));
  swarm.sim->advance_time(sim::Duration::from_ms(50));
  EXPECT_TRUE(swarm.sim->run_round().verified);
}

TEST(VmIntegration, MixedFidelitySwarm) {
  // VMs on some nodes, synthetic agents on the rest — both must agree.
  SapConfig cfg;
  cfg.pmem_size = 4 * 1024;
  auto sim = SapSimulation::balanced(cfg, 10, /*seed=*/4);
  device::DeviceConfig dcfg;
  dcfg.layout = device::MemoryLayout{256, cfg.pmem_size, 1024, 4096};
  device::Device vm(5, dcfg, sim.verifier().device_key(5), Bytes(20, 1));
  vm.load_firmware(to_bytes("real machine among stand-ins"));
  vm.provision();
  ASSERT_TRUE(vm.boot());
  sim.attach_vm(5, &vm);

  EXPECT_TRUE(sim.run_round().verified);
  vm.adv_infect_pmem(7, to_bytes("x"));
  sim.advance_time(sim::Duration::from_ms(50));
  EXPECT_FALSE(sim.run_round().verified);
}

TEST(VmIntegration, SkewedVmClockFailsItsAttestation) {
  VmSwarm swarm(7);
  swarm.sim->set_clock_skew(6, sim::Duration::from_ms(30));  // ~3 ticks
  const RoundReport r = swarm.sim->run_round();
  EXPECT_FALSE(r.verified);
}

TEST(VmIntegration, QoaIdentifyNamesTheInfectedVm) {
  SapConfig cfg;
  cfg.pmem_size = 4 * 1024;
  cfg.qoa = QoaMode::kIdentify;
  auto sim = SapSimulation::balanced(cfg, 7, /*seed=*/9);
  std::vector<std::unique_ptr<device::Device>> vms;
  for (net::NodeId id = 1; id <= 7; ++id) {
    device::DeviceConfig dcfg;
    dcfg.layout = device::MemoryLayout{256, cfg.pmem_size, 1024, 4096};
    auto vm = std::make_unique<device::Device>(
        id, dcfg, sim.verifier().device_key(id), Bytes(20, 0x42));
    vm->provision();
    ASSERT_TRUE(vm->boot());
    sim.attach_vm(id, vm.get());
    vms.push_back(std::move(vm));
  }
  vms[4]->adv_infect_pmem(11, to_bytes("rootkit"));
  const RoundReport r = sim.run_round();
  EXPECT_FALSE(r.verified);
  EXPECT_EQ(r.identify.bad, std::vector<net::NodeId>{5});
}

}  // namespace
}  // namespace cra::sap
