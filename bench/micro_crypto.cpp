// Microbenchmarks of the crypto substrate (google-benchmark).
//
// These calibrate nothing by themselves — the device timing model charges
// *simulated* 24 MHz cycles — but they document the host-side cost of a
// simulated round (every device's token is a real HMAC) and exercise the
// primitives at the paper's sizes (50 KB PMEM, 20-byte tokens).
#include <benchmark/benchmark.h>

#include <vector>

#include "common/bytes.hpp"
#include "common/rng.hpp"
#include "crypto/backend.hpp"
#include "crypto/chacha20.hpp"
#include "crypto/hmac.hpp"
#include "crypto/kdf.hpp"
#include "crypto/mac_cache.hpp"
#include "crypto/sha1.hpp"
#include "crypto/sha256.hpp"
#include "crypto/x25519.hpp"

namespace {

using namespace cra;

Bytes make_input(std::size_t n) {
  Rng rng(42);
  return rng.next_bytes(n);
}

void BM_Sha1(benchmark::State& state) {
  const Bytes input = make_input(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(crypto::Sha1::digest(input));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_Sha1)->Arg(64)->Arg(1024)->Arg(50 * 1024);

void BM_Sha256(benchmark::State& state) {
  const Bytes input = make_input(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(crypto::Sha256::digest(input));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_Sha256)->Arg(64)->Arg(1024)->Arg(50 * 1024);

void BM_HmacSha1_AttestMessage(benchmark::State& state) {
  // The exact attest computation: HMAC over PMEM || chal.
  const Bytes key = make_input(20);
  Bytes message = make_input(static_cast<std::size_t>(state.range(0)));
  append_u32le(message, 1234);
  for (auto _ : state) {
    benchmark::DoNotOptimize(crypto::HmacSha1::mac(key, message));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_HmacSha1_AttestMessage)->Arg(1024)->Arg(50 * 1024);

void BM_HmacSha1_TokenSized(benchmark::State& state) {
  // The synthetic-agent fast path: HMAC over a 24-byte message — this is
  // what bounds host wall-clock for million-device sweeps.
  const Bytes key = make_input(20);
  const Bytes message = make_input(24);
  for (auto _ : state) {
    benchmark::DoNotOptimize(crypto::HmacSha1::mac(key, message));
  }
}
BENCHMARK(BM_HmacSha1_TokenSized);

void BM_HmacSha1_TokenSizedCached(benchmark::State& state) {
  // Same 24-byte message through the midstate cache: the two pad-block
  // compressions and the key schedule are paid once at init, so the
  // steady-state cost is 2 compressions instead of 4.
  const Bytes key = make_input(20);
  const Bytes message = make_input(24);
  crypto::PrecomputedMac mac;
  mac.init(crypto::HashAlg::kSha1, key);
  crypto::MacBuf out;
  for (auto _ : state) {
    mac.mac_into(message, out);
    benchmark::DoNotOptimize(out.bytes.data());
  }
}
BENCHMARK(BM_HmacSha1_TokenSizedCached);

void BM_HmacSha1_TokenSizedInto(benchmark::State& state) {
  // One-shot dispatch into a caller buffer: isolates the allocation
  // saving of hmac_into from the midstate saving above.
  const Bytes key = make_input(20);
  const Bytes message = make_input(24);
  crypto::MacBuf out;
  for (auto _ : state) {
    crypto::hmac_into(crypto::HashAlg::kSha1, key, message, out);
    benchmark::DoNotOptimize(out.bytes.data());
  }
}
BENCHMARK(BM_HmacSha1_TokenSizedInto);

void BM_HmacSha256_TokenSizedCached(benchmark::State& state) {
  const Bytes key = make_input(32);
  const Bytes message = make_input(24);
  crypto::PrecomputedMac mac;
  mac.init(crypto::HashAlg::kSha256, key);
  crypto::MacBuf out;
  for (auto _ : state) {
    mac.mac_into(message, out);
    benchmark::DoNotOptimize(out.bytes.data());
  }
}
BENCHMARK(BM_HmacSha256_TokenSizedCached);

void BM_PrecomputedMacInit(benchmark::State& state) {
  // The one-time per-device cost the cache amortizes away.
  const Bytes key = make_input(20);
  for (auto _ : state) {
    crypto::PrecomputedMac mac;
    mac.init(crypto::HashAlg::kSha1, key);
    benchmark::DoNotOptimize(mac.ready());
  }
}
BENCHMARK(BM_PrecomputedMacInit);

// Token-sized batch verification through a crypto backend: the verifier
// hot path (expected-token recompute + constant-time compare) over a
// batch of per-device midstate-cached keys. Rows are labeled with the
// backend that actually ran, so AVX2/SSE2 hosts are distinguishable from
// the scalar reference in the output.
void run_token_batch_verify(benchmark::State& state,
                            const crypto::Backend& backend,
                            crypto::HashAlg alg) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  Rng rng(7);
  std::vector<crypto::PrecomputedMac> macs(n);
  std::vector<Bytes> prefixes(n);
  std::vector<Bytes> expects(n);
  const Bytes chal = rng.next_bytes(4);
  crypto::MacBuf out;
  for (std::size_t i = 0; i < n; ++i) {
    macs[i].init(alg, rng.next_bytes(20));
    prefixes[i] = rng.next_bytes(20);
    macs[i].mac_into(prefixes[i], chal, out);
    expects[i] = Bytes(out.bytes.begin(), out.bytes.begin() + out.len);
  }
  std::vector<crypto::VerifyJob> jobs(n);
  for (std::size_t i = 0; i < n; ++i) {
    jobs[i] = {&macs[i], prefixes[i], chal, expects[i]};
  }
  std::size_t matches = n;
  for (auto _ : state) {
    matches = backend.verify_tokens_batch(jobs.data(), n, nullptr);
    benchmark::DoNotOptimize(matches);
  }
  if (matches != n) state.SkipWithError("batch verify mismatch");
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
  state.SetLabel(backend.name());
}

void BM_TokenBatchVerify_Scalar(benchmark::State& state) {
  run_token_batch_verify(state, crypto::scalar_backend(),
                         crypto::HashAlg::kSha1);
}
BENCHMARK(BM_TokenBatchVerify_Scalar)->Arg(16)->Arg(1024);

void BM_TokenBatchVerify_Active(benchmark::State& state) {
  run_token_batch_verify(state, crypto::active_backend(),
                         crypto::HashAlg::kSha1);
}
BENCHMARK(BM_TokenBatchVerify_Active)->Arg(16)->Arg(1024);

void BM_TokenBatchVerifySha256_Scalar(benchmark::State& state) {
  run_token_batch_verify(state, crypto::scalar_backend(),
                         crypto::HashAlg::kSha256);
}
BENCHMARK(BM_TokenBatchVerifySha256_Scalar)->Arg(1024);

void BM_TokenBatchVerifySha256_Active(benchmark::State& state) {
  run_token_batch_verify(state, crypto::active_backend(),
                         crypto::HashAlg::kSha256);
}
BENCHMARK(BM_TokenBatchVerifySha256_Active)->Arg(1024);

void BM_XorAggregate(benchmark::State& state) {
  Bytes acc = make_input(20);
  const Bytes token = make_input(20);
  for (auto _ : state) {
    xor_inplace(acc, token);
    benchmark::DoNotOptimize(acc.data());
  }
}
BENCHMARK(BM_XorAggregate);

void BM_ChaCha20Keystream(benchmark::State& state) {
  crypto::SecureRandom rng(std::uint64_t{7});
  for (auto _ : state) {
    benchmark::DoNotOptimize(rng.bytes(static_cast<std::size_t>(
        state.range(0))));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_ChaCha20Keystream)->Arg(64)->Arg(4096);

void BM_X25519SharedSecret(benchmark::State& state) {
  // One join-phase key agreement (host-side; the device model charges
  // 14M simulated cycles for the same operation on a 24 MHz core).
  const Bytes sk = make_input(32);
  const Bytes pk = crypto::x25519_base(make_input(32));
  for (auto _ : state) {
    benchmark::DoNotOptimize(crypto::x25519(sk, pk));
  }
}
BENCHMARK(BM_X25519SharedSecret);

void BM_X25519Keygen(benchmark::State& state) {
  // One join-phase keypair: x25519_base's fixed-base comb.
  const Bytes sk = make_input(32);
  for (auto _ : state) {
    benchmark::DoNotOptimize(crypto::x25519_base(sk));
  }
}
BENCHMARK(BM_X25519Keygen);

void BM_DeriveDeviceKey(benchmark::State& state) {
  const Bytes master = make_input(32);
  std::uint32_t id = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(crypto::derive_device_key(master, ++id, 20));
  }
}
BENCHMARK(BM_DeriveDeviceKey);

}  // namespace
