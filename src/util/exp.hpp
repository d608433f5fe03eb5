#pragma once

#include <bit>
#include <cstdint>
#include <cstring>

#include "util/lanes.hpp"

namespace dp::util {

namespace exp_detail {

using Bits = std::uint64_t __attribute__((vector_size(16)));

/// 2^(j/128) for j = 0..127 as pairs {tail, scale bits - (j << 45)}
/// (scripts/gen_exp_table.py prints it).
inline constexpr int kTableBits = 7;  // 128 entries
extern const std::uint64_t kTable[2 << kTableBits];

/// The algorithm's constants, in both lanes.
constexpr Lanes both(double v) { return Lanes{v, v}; }
inline constexpr Lanes kInvLn2N = both(0x1.71547652b82fep0 * 128);
inline constexpr Lanes kShift = both(0x1.8p52);
inline constexpr Lanes kNegLn2HiN = both(-0x1.62e42fefa0000p-8);
inline constexpr Lanes kNegLn2LoN = both(-0x1.cf79abc9e3b3ap-47);
inline constexpr Lanes kC2 = both(0x1.ffffffffffdbdp-2);
inline constexpr Lanes kC3 = both(0x1.555555555543cp-3);
inline constexpr Lanes kC4 = both(0x1.55555cf172b91p-5);
inline constexpr Lanes kC5 = both(0x1.1111167a4d017p-7);

/// Below this the scale 2^(k/128) can leave the normal range, and
/// far() takes over.
inline constexpr Lanes kFar = both(-512.0);

/// e^x = scale * (1 + tmp), scale = 2^(k/128) with k = round(x * 128 /
/// ln2): `sbits` holds the bits of scale while it is a normal double.
struct Split {
  Lanes tmp;
  Bits sbits;
};

inline Split split(Lanes x) {
  // k through the shifter: its low bits land in the mantissa of kd.
  Lanes kd = x * kInvLn2N + kShift;
  const Bits ki = std::bit_cast<Bits>(kd);
  kd -= kShift;
  // r = x - k ln2 / 128 in two parts, |r| <= ln2 / 256.
  const Lanes r = x + kd * kNegLn2HiN + kd * kNegLn2LoN;
  Bits e0, e1;
  std::memcpy(&e0, &kTable[2 * (ki[0] % (1 << kTableBits))], sizeof e0);
  std::memcpy(&e1, &kTable[2 * (ki[1] % (1 << kTableBits))], sizeof e1);
  const Lanes tail = std::bit_cast<Lanes>(Bits{e0[0], e1[0]});
  const Lanes r2 = r * r;
  return {tail + r + r2 * (kC2 + r * kC3) + r2 * r2 * (kC4 + r * kC5),
          Bits{e0[1], e1[1]} + (ki << (52 - kTableBits))};
}

/// exp() of lanes of which at least one is below kFar.
Lanes far(Lanes x);

}  // namespace exp_detail

/// e^x in each lane, for x <= 0: the table-driven algorithm of glibc's
/// exp (ARM optimized-routines, 128 entries, a degree-5 polynomial),
/// evaluated in plain double arithmetic without fused multiply-adds, so
/// its bits depend neither on the host's libm nor on its ISA extensions.
/// Within 1 ulp of the correctly rounded result down to the underflow
/// threshold, subnormal results included; exactly 1 at +-0, 0 below
/// about -745.13 and at -inf. Each lane's result depends on that lane
/// alone. Positive x is out of contract.
inline Lanes exp(Lanes x) {
  const LaneMask far = x < exp_detail::kFar;
  if ((far[0] | far[1]) != 0) [[unlikely]] return exp_detail::far(x);
  const exp_detail::Split s = exp_detail::split(x);
  const Lanes scale = std::bit_cast<Lanes>(s.sbits);
  return scale + scale * s.tmp;
}

}  // namespace dp::util
