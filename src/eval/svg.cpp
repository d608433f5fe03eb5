#include "eval/svg.hpp"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <stdexcept>

#include "geom/rect.hpp"

namespace dp::eval {

using netlist::CellId;
using netlist::kInvalidId;

namespace {

/// Green -> yellow -> red ramp for congestion ratios; full red at 2x
/// capacity. Returns "#rrggbb".
std::string heat_color(double ratio) {
  const double t = std::clamp(ratio / 2.0, 0.0, 1.0);
  const int r = t < 0.5 ? static_cast<int>(255 * 2 * t) : 255;
  const int g = t < 0.5 ? 255 : static_cast<int>(255 * 2 * (1.0 - t));
  char buf[8];
  std::snprintf(buf, sizeof(buf), "#%02x%02x00", r, g);
  return buf;
}

}  // namespace

void write_svg(const std::string& path, const netlist::Netlist& nl,
               const netlist::Design& design, const netlist::Placement& pl,
               const SvgOptions& options) {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("svg: cannot write " + path);
  const geom::Rect& core = design.core();
  const double scale = 900.0 / std::max(core.width(), core.height());
  const double margin = 20.0;
  auto X = [&](double x) { return margin + (x - core.lx) * scale; };
  // SVG y grows downward; flip so row 0 is at the bottom.
  auto Y = [&](double y) { return margin + (core.hy - y) * scale; };

  out << "<svg xmlns='http://www.w3.org/2000/svg' width='"
      << core.width() * scale + 2 * margin << "' height='"
      << core.height() * scale + 2 * margin << "'>\n";
  out << "<rect class='core' x='" << X(core.lx) << "' y='" << Y(core.hy)
      << "' width='" << core.width() * scale << "' height='"
      << core.height() * scale << "' fill='white' stroke='black'/>\n";

  // Congestion heatmap layer: one translucent rect per bin, below the
  // cells so hotspots read through the placement.
  if (options.heatmap_bins > 0 &&
      options.heatmap.size() >= options.heatmap_bins * options.heatmap_bins) {
    const std::size_t nb = options.heatmap_bins;
    const double bw = core.width() / static_cast<double>(nb);
    const double bh = core.height() / static_cast<double>(nb);
    for (std::size_t by = 0; by < nb; ++by) {
      for (std::size_t bx = 0; bx < nb; ++bx) {
        const double ratio = options.heatmap[by * nb + bx];
        out << "<rect class='heat' x='"
            << X(core.lx + static_cast<double>(bx) * bw) << "' y='"
            << Y(core.ly + static_cast<double>(by + 1) * bh) << "' width='"
            << bw * scale << "' height='" << bh * scale << "' fill='"
            << heat_color(ratio) << "' fill-opacity='"
            << std::clamp(0.35 * ratio, 0.0, 0.6) << "'/>\n";
      }
    }
  }

  std::vector<int> group_of(nl.num_cells(), -1);
  if (options.groups != nullptr) {
    for (std::size_t g = 0; g < options.groups->groups.size(); ++g) {
      for (CellId c : options.groups->groups[g].cells) {
        if (c != kInvalidId) group_of[c] = static_cast<int>(g);
      }
    }
  }
  static const char* kColors[] = {"#e41a1c", "#377eb8", "#4daf4a", "#984ea3",
                                  "#ff7f00", "#a65628", "#f781bf", "#17becf",
                                  "#66c2a5", "#fc8d62", "#8da0cb", "#e78ac3"};
  constexpr std::size_t kNumColors = sizeof(kColors) / sizeof(kColors[0]);

  for (CellId c = 0; c < nl.num_cells(); ++c) {
    if (nl.cell(c).fixed) continue;
    const double w = nl.cell_width(c) * scale;
    const double h = nl.cell_height(c) * scale;
    const bool dp = group_of[c] >= 0;
    const char* fill =
        dp ? kColors[static_cast<std::size_t>(group_of[c]) % kNumColors]
           : "#cccccc";
    out << "<rect class='" << (dp ? "cell dp" : "cell") << "' x='"
        << X(pl[c].x - nl.cell_width(c) / 2.0) << "' y='"
        << Y(pl[c].y + nl.cell_height(c) / 2.0) << "' width='" << w
        << "' height='" << h << "' fill='" << fill
        << "' fill-opacity='0.8' stroke='black' stroke-width='0.3'/>\n";
  }

  // Critical-path layer: one polyline over the cells, pin to pin, with
  // dots at the endpoints so short paths stay visible.
  if (options.critical_path.size() >= 2) {
    out << "<polyline class='critpath' points='";
    for (std::size_t i = 0; i < options.critical_path.size(); ++i) {
      const geom::Point& p = options.critical_path[i];
      if (i > 0) out << " ";
      out << X(p.x) << "," << Y(p.y);
    }
    out << "' fill='none' stroke='#d40000' stroke-width='2' "
           "stroke-opacity='0.85'/>\n";
    const geom::Point& a = options.critical_path.front();
    const geom::Point& b = options.critical_path.back();
    out << "<circle class='critpath' cx='" << X(a.x) << "' cy='" << Y(a.y)
        << "' r='4' fill='#d40000'/>\n";
    out << "<circle class='critpath' cx='" << X(b.x) << "' cy='" << Y(b.y)
        << "' r='4' fill='#d40000'/>\n";
  }
  out << "</svg>\n";
  out.close();
  if (!out) throw std::runtime_error("svg: cannot write " + path);
}

void write_svg(const std::string& path, const netlist::Netlist& nl,
               const netlist::Design& design, const netlist::Placement& pl,
               const netlist::StructureAnnotation* groups) {
  SvgOptions options;
  options.groups = groups;
  write_svg(path, nl, design, pl, options);
}

}  // namespace dp::eval
