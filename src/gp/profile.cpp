#include "gp/profile.hpp"

#include <cstdio>

namespace dp::gp {

TermProfile& EvalProfile::extra(const std::string& name) {
  for (auto& [n, term] : extras) {
    if (n == name) return term;
  }
  extras.emplace_back(name, TermProfile{});
  return extras.back().second;
}

std::string EvalProfile::to_string() const {
  char buf[128];
  auto fmt = [&buf](const char* name, const TermProfile& t) {
    std::snprintf(buf, sizeof buf, "%s %zux/%.3fs", name, t.calls,
                  t.seconds);
    return std::string(buf);
  };
  std::string out = fmt("wl", wirelength);
  out += " | " + fmt("density", density);
  for (const auto& [name, term] : extras) {
    out += " | " + fmt(name.c_str(), term);
  }
  out += " | " + fmt("solver", solver);
  out += " | " + fmt("quadratic", quadratic);
  out += " | " + fmt("scans", outer_scans);
  std::snprintf(buf, sizeof buf, " | density-bins %llu",
                static_cast<unsigned long long>(density_bins));
  out += buf;
  return out;
}

}  // namespace dp::gp
