// Seeded byte mutations shared by the decoder fuzz suites.
//
// Each suite feeds valid encodings through mutate() with fixed-seed
// common/rng generators, so every run checks the same cases and a
// failure names its seed and iteration; under ASan (the sanitize CI
// job) an over-read fails the run. A suite is then a seed corpus plus
// the properties its decoder must keep.
#pragma once

#include <cstdint>
#include <iterator>
#include <vector>

#include "common/bytes.hpp"
#include "common/rng.hpp"

namespace cra::fuzz {

/// One mutation of `in`: bit flips, a truncation, a splice with a
/// suffix of a corpus entry, or an edit of a 32-bit length field at one
/// of `length_fields`.
inline Bytes mutate(Rng& rng, const Bytes& in,
                    const std::vector<Bytes>& corpus,
                    const std::vector<std::size_t>& length_fields) {
  Bytes out = in;
  switch (rng.next_below(4)) {
    case 0: {
      if (out.empty()) break;
      const std::uint64_t flips = 1 + rng.next_below(4);
      for (std::uint64_t i = 0; i < flips; ++i) {
        const std::uint64_t bit = rng.next_below(out.size() * 8);
        out[bit / 8] ^= static_cast<std::uint8_t>(1u << (bit % 8));
      }
      break;
    }
    case 1:
      out.resize(rng.next_below(out.size() + 1));
      break;
    case 2: {
      const Bytes& other = corpus[rng.next_below(corpus.size())];
      out.resize(rng.next_below(out.size() + 1));
      const auto from =
          static_cast<std::ptrdiff_t>(rng.next_below(other.size() + 1));
      out.insert(out.end(), other.begin() + from, other.end());
      break;
    }
    default: {
      if (length_fields.empty()) break;
      const std::size_t at =
          length_fields[rng.next_below(length_fields.size())];
      if (at + 4 > out.size()) break;
      const std::uint32_t was = read_u32le(out, at);
      const std::uint32_t values[] = {
          0u, 1u, was - 1, was + 1, was * 2, 0x7fffffffu, 0xffffffffu,
          static_cast<std::uint32_t>(rng.next())};
      store_u32le(out.data() + at,
                  values[rng.next_below(std::size(values))]);
      break;
    }
  }
  return out;
}

}  // namespace cra::fuzz
