#pragma once

#include <bit>
#include <cstdint>
#include <cstring>

#if defined(__x86_64__)
#include <immintrin.h>
#endif

#include "util/lanes.hpp"

namespace dp::util {

namespace exp_detail {

using Bits = std::uint64_t __attribute__((vector_size(16)));

/// 2^(j/128) for j = 0..127 as pairs {tail, scale bits - (j << 45)}
/// (scripts/gen_exp_table.py prints it).
inline constexpr int kTableBits = 7;  // 128 entries
extern const std::uint64_t kTable[2 << kTableBits];

/// The algorithm's constants, the same in every lane.
inline constexpr double kInvLn2N = 0x1.71547652b82fep0 * 128;
inline constexpr double kShift = 0x1.8p52;
inline constexpr double kNegLn2HiN = -0x1.62e42fefa0000p-8;
inline constexpr double kNegLn2LoN = -0x1.cf79abc9e3b3ap-47;
inline constexpr double kC2 = 0x1.ffffffffffdbdp-2;
inline constexpr double kC3 = 0x1.555555555543cp-3;
inline constexpr double kC4 = 0x1.55555cf172b91p-5;
inline constexpr double kC5 = 0x1.1111167a4d017p-7;

/// Below this the scale 2^(k/128) can leave the normal range, and
/// far() takes over.
inline constexpr double kFar = -512.0;

/// The table entries of indices `ki` mod 128 into `tail` and `sbits`:
/// two scalar loads per lane.
inline void read_table(const Bits& ki, Lanes& tail, Bits& sbits) {
  Bits e0, e1;
  std::memcpy(&e0, &kTable[2 * (ki[0] % (1 << kTableBits))], sizeof e0);
  std::memcpy(&e1, &kTable[2 * (ki[1] % (1 << kTableBits))], sizeof e1);
  tail = std::bit_cast<Lanes>(Bits{e0[0], e1[0]});
  sbits = Bits{e0[1], e1[1]};
}

#if defined(__x86_64__)
using QuadBits = std::uint64_t __attribute__((vector_size(32)));

/// The same for four lanes: one gather for the tails, one for the scale
/// bits. Four scalar loads per array would cost more than the two-lane
/// exp saves.
__attribute__((target("avx2"))) inline void read_table(const QuadBits& ki,
                                                       Quad& tail,
                                                       QuadBits& sbits) {
  const QuadBits at = 2 * (ki % (1 << kTableBits));
  const auto idx = __builtin_bit_cast(__m256i, at);
  const auto* table = reinterpret_cast<const long long*>(kTable);
  tail = __builtin_bit_cast(
      Quad, _mm256_i64gather_pd(reinterpret_cast<const double*>(kTable), idx,
                                8));
  sbits = __builtin_bit_cast(QuadBits,
                             _mm256_i64gather_epi64(table + 1, idx, 8));
}
#endif

/// e^x = scale * (1 + tmp), scale = 2^(k/128) with k = round(x * 128 /
/// ln2): `sbits` gets the bits of scale while it is a normal double.
/// Written once for `Lanes` and `Quad` (with their bit vectors `B`), so
/// each lane does the same arithmetic at either width; vectors are passed
/// by reference, as the four-lane instance is compiled for AVX2 only
/// where it is inlined.
template <class V, class B>
inline void split(const V& x, V& tmp, B& sbits) {
  // k through the shifter: its low bits land in the mantissa of kd.
  V kd = x * kInvLn2N + kShift;
  const B ki = __builtin_bit_cast(B, kd);
  kd -= kShift;
  // r = x - k ln2 / 128 in two parts, |r| <= ln2 / 256.
  const V r = x + kd * kNegLn2HiN + kd * kNegLn2LoN;
  V tail;
  read_table(ki, tail, sbits);
  const V r2 = r * r;
  tmp = tail + r + r2 * (kC2 + r * kC3) + r2 * r2 * (kC4 + r * kC5);
  sbits += ki << (52 - kTableBits);
}

/// exp() of lanes of which at least one is below kFar.
Lanes far(Lanes x);

}  // namespace exp_detail

/// e^x in each lane, for -512 <= x <= 0 (exp_detail::kFar): exp() without
/// its test for the far range. A kernel that bounds every argument at
/// once, such as a net's weights by the net's span, tests that bound
/// itself and calls this.
inline Lanes exp_near(Lanes x) {
  Lanes tmp;
  exp_detail::Bits sbits;
  exp_detail::split(x, tmp, sbits);
  const Lanes scale = std::bit_cast<Lanes>(sbits);
  return scale + scale * tmp;
}

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
  return exp_near(x);
}

#if defined(__x86_64__)
/// exp_near() of four lanes: the same arithmetic in every lane, bit for
/// bit, with the table read by two AVX2 gathers. AVX2 hosts only.
__attribute__((target("avx2"))) inline Quad exp_near(Quad x) {
  Quad tmp;
  exp_detail::QuadBits sbits;
  exp_detail::split(x, tmp, sbits);
  const auto scale = __builtin_bit_cast(Quad, sbits);
  return scale + scale * tmp;
}

/// exp() of four lanes, bit for bit; a pair with a far lane takes the
/// two-lane far path. AVX2 hosts only.
__attribute__((target("avx2"))) inline Quad exp(Quad x) {
  const QuadMask far = x < exp_detail::kFar;
  if (_mm256_movemask_pd(__builtin_bit_cast(__m256d, far)) != 0)
      [[unlikely]] {
    const Lanes lo = exp(Lanes{x[0], x[1]});
    const Lanes hi = exp(Lanes{x[2], x[3]});
    return Quad{lo[0], lo[1], hi[0], hi[1]};
  }
  return exp_near(x);
}
#endif

}  // namespace dp::util
