#include "device/attest_tcb.hpp"

namespace cra::device {

AttestMailboxes attest_mailboxes(const MemoryLayout& layout,
                                 const AttestTcbConfig& config) {
  AttestMailboxes mb;
  mb.chal = layout.dmem_base() + config.chal_mailbox_offset;
  mb.token = layout.dmem_base() + config.token_mailbox_offset;
  return mb;
}

std::uint64_t attest_cycles(crypto::HashAlg alg, std::uint64_t message_len,
                            std::uint64_t overhead_cycles,
                            std::uint64_t cycles_per_block) {
  return overhead_cycles +
         crypto::hmac_compression_calls(alg, message_len) * cycles_per_block;
}

std::uint64_t attest_cycles(const AttestTcbConfig& config,
                            std::uint32_t pmem_size) {
  // HMAC over PMEM || chal (4 bytes).
  return attest_cycles(config.alg, pmem_size + 4,
                       config.overhead_cycles, config.cycles_per_block);
}

Cpu::NativeRoutine make_attest_routine(AttestTcbConfig config,
                                       Region key_region) {
  return [config, key_region](Cpu& cpu, Memory& memory) -> std::uint64_t {
    const AttestMailboxes mb = attest_mailboxes(memory.layout(), config);
    const std::size_t l = crypto::digest_size(config.alg);

    // time = readSecureClock()
    const std::uint32_t time = cpu.read_secure_clock();
    const std::uint32_t chal = memory.read32(mb.chal);

    Bytes token(l, 0);
    if (chal == time) {
      const Bytes key = memory.read_range(key_region.start, key_region.size());
      Bytes message = memory.snapshot(Section::kPmem);
      append_u32le(message, chal);
      token = crypto::hmac(config.alg, key, message);
    }
    memory.write_range(mb.token, token);
    return attest_cycles(config, memory.layout().pmem_size);
  };
}

}  // namespace cra::device
