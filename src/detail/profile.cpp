#include "detail/profile.hpp"

#include <cstdio>

namespace dp::detail {

void Profile::merge(const Profile& other) {
  slide.merge(other.slide);
  swap.merge(other.swap);
  unit_slide.merge(other.unit_slide);
  rescans += other.rescans;
  guard_vetoes += other.guard_vetoes;
}

std::string Profile::to_string() const {
  char buf[160];
  auto fmt = [&buf](const char* name, const PassProfile& p) {
    std::snprintf(buf, sizeof buf, "%s %zux %zu/%zu cand %.3fs", name,
                  p.passes, p.accepted, p.candidates, p.seconds);
    return std::string(buf);
  };
  std::string out = fmt("slide", slide);
  out += " | " + fmt("swap", swap);
  out += " | " + fmt("unit", unit_slide);
  std::snprintf(buf, sizeof buf, " | rescans %zu", rescans);
  out += buf;
  if (guard_vetoes > 0) {
    std::snprintf(buf, sizeof buf, " | guard vetoes %zu", guard_vetoes);
    out += buf;
  }
  return out;
}

}  // namespace dp::detail
