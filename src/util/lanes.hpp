#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>

namespace dp::util {

/// Two doubles in one SSE2 register. Every operation acts on each lane
/// alone and rounds exactly as the scalar operation would, so a kernel
/// that puts two independent computations in the two lanes keeps the bits
/// of each while paying for one instruction: a `Lanes` division is one
/// `divpd`, which issues as fast as one scalar `divsd`.
using Lanes = double __attribute__((vector_size(16)));
using LaneMask = std::int64_t __attribute__((vector_size(16)));

/// Two adjacent doubles as one vector, at any alignment.
inline Lanes load(const double* p) {
  Lanes v;
  std::memcpy(&v, p, sizeof v);
  return v;
}
inline void store(double* p, Lanes v) { std::memcpy(p, &v, sizeof v); }

/// `a` in the lanes where `m` is set, else `b`: a bit mask, no branch.
inline Lanes pick(LaneMask m, Lanes a, Lanes b) {
  return std::bit_cast<Lanes>((std::bit_cast<LaneMask>(a) & m) |
                              (std::bit_cast<LaneMask>(b) & ~m));
}

#if defined(__x86_64__)
/// Four doubles in one AVX register: the four-lane twin of `Lanes`, with
/// the same per-lane rounding. Only functions compiled for AVX2
/// (`__attribute__((target("avx2")))`, never `fma` or `arch=`, so no
/// multiply-add is ever fused) may take or return a `Quad` by value
/// (GCC's -Wpsabi, an error under -Werror, says why). A kernel written
/// once over its vector type passes vectors by reference or `Boxed`,
/// and has its four-lane instance inlined into an AVX2 entry point
/// (`flatten`), so its two-lane instance runs on any x86-64 host.
/// Callers check widest_lanes() first. The four-lane code runs only
/// after that check, and no `#pragma GCC target` is used, so no header
/// function is ever compiled for AVX2 behind a caller's back.
using Quad = double __attribute__((vector_size(32)));
using QuadMask = std::int64_t __attribute__((vector_size(32)));
#endif

/// The doubles in a vector type V (`Lanes` or `Quad`), for kernels
/// written once over V.
template <class V>
inline constexpr std::size_t kLanesOf = sizeof(V) / sizeof(double);

/// A vector in a struct. Such a kernel's helpers return a vector Boxed: a
/// struct wider than 16 bytes travels in memory at every x86-64 ABI
/// level, so a function compiled without AVX2 may return one holding a
/// `Quad` (inlined into an AVX2 function, it costs nothing), which it may
/// not return bare.
template <class V>
struct Boxed {
  V v;
};

/// Lanes 2k and 2k + 1 of `v`: the whole of a `Lanes` (k = 0), or one
/// half of a `Quad`.
template <class V>
inline Lanes half(const V& v, std::size_t k) {
  if constexpr (kLanesOf<V> == 2) {
    return v;
  } else {
    return k == 0 ? __builtin_shufflevector(v, v, 0, 1)
                  : __builtin_shufflevector(v, v, 2, 3);
  }
}

/// The V whose lanes 2k and 2k + 1 are f(k), Boxed.
template <class V, class F>
inline Boxed<V> from_halves(F&& f) {
  if constexpr (kLanesOf<V> == 2) {
    return {f(0)};
  } else {
    return {__builtin_shufflevector(f(0), f(1), 0, 1, 2, 3)};
  }
}

/// The vector width a kernel runs its lanes at.
enum class LaneWidth {
  kTwo,   ///< `Lanes`, SSE2: every x86-64 host, and the portable build
  kFour,  ///< `Quad`, AVX2 hosts of x86-64 builds
};

/// kFour on an x86-64 host that runs AVX2 instructions, else kTwo. The
/// CPU is checked once per process. Each lane of either width does the
/// same scalar arithmetic, so the choice moves no bit of any result.
LaneWidth widest_lanes();

const char* to_string(LaneWidth width);

}  // namespace dp::util
