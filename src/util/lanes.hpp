#pragma once

#include <bit>
#include <cstdint>

namespace dp::util {

/// Two doubles in one SSE2 register. Every operation acts on each lane
/// alone and rounds exactly as the scalar operation would, so a kernel
/// that puts two independent computations in the two lanes keeps the bits
/// of each while paying for one instruction: a `Lanes` division is one
/// `divpd`, which issues as fast as one scalar `divsd`.
using Lanes = double __attribute__((vector_size(16)));
using LaneMask = std::int64_t __attribute__((vector_size(16)));

/// `a` in the lanes where `m` is set, else `b`: a bit mask, no branch.
inline Lanes pick(LaneMask m, Lanes a, Lanes b) {
  return std::bit_cast<Lanes>((std::bit_cast<LaneMask>(a) & m) |
                              (std::bit_cast<LaneMask>(b) & ~m));
}

}  // namespace dp::util
