#include "detail/profile.hpp"

#include <cstdio>

namespace dp::detail {

std::string Profile::to_string() const {
  char buf[160];
  auto fmt = [&buf](const char* name, const PassProfile& p) {
    std::snprintf(buf, sizeof buf, "%s %zux %zu/%zu cand %.3fs", name,
                  p.passes, p.accepted, p.candidates, p.seconds);
    return std::string(buf);
  };
  std::string out = fmt("slide", slide);
  out += " | " + fmt("swap", swap);
  std::snprintf(buf, sizeof buf, " | rescans %zu", rescans);
  out += buf;
  if (guard_vetoes > 0) {
    std::snprintf(buf, sizeof buf, " | guard vetoes %zu", guard_vetoes);
    out += buf;
  }
  return out;
}

}  // namespace dp::detail
