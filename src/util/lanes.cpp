#include "util/lanes.hpp"

namespace dp::util {

LaneWidth widest_lanes() {
#if defined(__x86_64__)
  static const LaneWidth width = [] {
    __builtin_cpu_init();
    return __builtin_cpu_supports("avx2") ? LaneWidth::kFour
                                          : LaneWidth::kTwo;
  }();
  return width;
#else
  return LaneWidth::kTwo;
#endif
}

const char* to_string(LaneWidth width) {
  switch (width) {
    case LaneWidth::kTwo:
      return "two-lane";
    case LaneWidth::kFour:
      return "four-lane";
  }
  return "unknown";
}

}  // namespace dp::util
