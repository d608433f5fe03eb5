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

void EvalProfile::merge(const EvalProfile& other) {
  wirelength.merge(other.wirelength);
  density.merge(other.density);
  line_search.merge(other.line_search);
  gradients += other.gradients;
  density_bins += other.density_bins;
  density_bells += other.density_bells;
  wirelength_exps += other.wirelength_exps;
  for (const auto& [name, term] : other.extras) extra(name).merge(term);
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
  out += " | " + fmt("line-search", line_search);
  std::snprintf(buf, sizeof buf,
                " | gradients %zux | density-bins %llu | density-bells %llu"
                " | wl-exps %llu",
                gradients, static_cast<unsigned long long>(density_bins),
                static_cast<unsigned long long>(density_bells),
                static_cast<unsigned long long>(wirelength_exps));
  out += buf;
  return out;
}

}  // namespace dp::gp
