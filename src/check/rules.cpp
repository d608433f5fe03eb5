#include "check/rules.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>
#include <unordered_map>

#include "eval/metrics.hpp"
#include "timing/timing_graph.hpp"

namespace dp::check {

using netlist::CellId;
using netlist::kInvalidId;
using netlist::NetId;
using netlist::PinId;

namespace {

std::string fmt(const char* pattern, double a) {
  char buf[96];
  std::snprintf(buf, sizeof(buf), pattern, a);
  return buf;
}

std::string fmt(const char* pattern, double a, double b) {
  char buf[96];
  std::snprintf(buf, sizeof(buf), pattern, a, b);
  return buf;
}

// ---- netlist: referential integrity ---------------------------------------

/// Every pin's cell/net ids are in range and the back-pointer lists agree
/// in both directions (pin listed by its cell and its net, lists point at
/// pins that point back).
void rule_pin_refs(const CheckContext& ctx, DiagnosticSink& sink) {
  const auto& nl = *ctx.netlist;
  for (PinId p = 0; p < nl.num_pins(); ++p) {
    const netlist::Pin& pin = nl.pin(p);
    if (pin.cell >= nl.num_cells()) {
      sink.report(Severity::kError, "netlist.pin-refs", Anchor::pin(p),
                  "pin references nonexistent cell id " +
                      std::to_string(pin.cell));
      continue;
    }
    if (pin.net >= nl.num_nets()) {
      sink.report(Severity::kError, "netlist.pin-refs", Anchor::pin(p),
                  "pin references nonexistent net id " +
                      std::to_string(pin.net));
      continue;
    }
    bool in_cell = false;
    for (PinId q : nl.cell_pins(pin.cell)) in_cell |= (q == p);
    if (!in_cell) {
      sink.report(Severity::kError, "netlist.pin-refs", Anchor::pin(p),
                  "pin not listed by its cell '" + nl.cell(pin.cell).name +
                      "'");
    }
    bool in_net = false;
    for (PinId q : nl.net_pins(pin.net)) in_net |= (q == p);
    if (!in_net) {
      sink.report(Severity::kError, "netlist.pin-refs", Anchor::pin(p),
                  "pin not listed by its net '" + nl.net(pin.net).name + "'");
    }
  }
  for (CellId c = 0; c < nl.num_cells(); ++c) {
    for (PinId p : nl.cell_pins(c)) {
      if (p >= nl.num_pins()) {
        sink.report(Severity::kError, "netlist.pin-refs", Anchor::cell(c),
                    "cell lists nonexistent pin id " + std::to_string(p));
      } else if (nl.pin(p).cell != c) {
        sink.report(Severity::kError, "netlist.pin-refs", Anchor::cell(c),
                    "cell lists pin " + std::to_string(p) +
                        " which belongs to cell id " +
                        std::to_string(nl.pin(p).cell));
      }
    }
  }
  for (NetId n = 0; n < nl.num_nets(); ++n) {
    for (PinId p : nl.net_pins(n)) {
      if (p >= nl.num_pins()) {
        sink.report(Severity::kError, "netlist.pin-refs", Anchor::net(n),
                    "net lists nonexistent pin id " + std::to_string(p));
      } else if (nl.pin(p).net != n) {
        sink.report(Severity::kError, "netlist.pin-refs", Anchor::net(n),
                    "net lists pin " + std::to_string(p) +
                        " which belongs to net id " +
                        std::to_string(nl.pin(p).net));
      }
    }
  }
}

/// Cell types exist in the library, have sane geometry, and every pin's
/// port index points into its type's pin bank (each port bound once).
void rule_cell_types(const CheckContext& ctx, DiagnosticSink& sink) {
  const auto& nl = *ctx.netlist;
  const auto& lib = nl.library();
  for (CellId c = 0; c < nl.num_cells(); ++c) {
    const netlist::Cell& cell = nl.cell(c);
    if (cell.type >= lib.size()) {
      sink.report(Severity::kError, "netlist.cell-types", Anchor::cell(c),
                  "cell references nonexistent type id " +
                      std::to_string(cell.type));
      continue;
    }
    const netlist::CellType& type = lib.type(cell.type);
    if (!std::isfinite(type.width) || !std::isfinite(type.height) ||
        type.width <= 0.0 || type.height <= 0.0) {
      sink.report(Severity::kError, "netlist.cell-types", Anchor::cell(c),
                  "cell type '" + type.name + "' has degenerate size " +
                      fmt("%gx%g", type.width, type.height));
    }
    std::unordered_map<std::uint16_t, PinId> bound;
    for (PinId p : nl.cell_pins(c)) {
      if (p >= nl.num_pins()) continue;  // rule_pin_refs reports these
      const netlist::Pin& pin = nl.pin(p);
      if (pin.port >= type.pins.size()) {
        sink.report(Severity::kError, "netlist.cell-types", Anchor::pin(p),
                    "pin port " + std::to_string(pin.port) +
                        " out of range for type '" + type.name + "' (" +
                        std::to_string(type.pins.size()) + " ports)");
        continue;
      }
      auto [it, inserted] = bound.emplace(pin.port, p);
      if (!inserted) {
        sink.report(Severity::kError, "netlist.cell-types", Anchor::cell(c),
                    "port " + std::to_string(pin.port) +
                        " bound by two pins (" + std::to_string(it->second) +
                        " and " + std::to_string(p) + ")");
      }
    }
  }
}

/// Pin directions match the cell type's pin specs. Pads are exempt (their
/// single pin legitimately flips direction per instance) and so are
/// generic cells (Bookshelf imports carry per-instance directions).
void rule_pin_dirs(const CheckContext& ctx, DiagnosticSink& sink) {
  const auto& nl = *ctx.netlist;
  for (PinId p = 0; p < nl.num_pins(); ++p) {
    const netlist::Pin& pin = nl.pin(p);
    if (pin.cell >= nl.num_cells()) continue;
    const netlist::Cell& cell = nl.cell(pin.cell);
    if (cell.type >= nl.library().size()) continue;
    const netlist::CellType& type = nl.library().type(cell.type);
    if (type.func == netlist::CellFunc::kPad ||
        type.func == netlist::CellFunc::kGeneric) {
      continue;
    }
    if (pin.port >= type.pins.size()) continue;
    if (pin.dir != type.pins[pin.port].dir) {
      sink.report(Severity::kError, "netlist.pin-dirs", Anchor::pin(p),
                  "direction disagrees with port '" +
                      type.pins[pin.port].name + "' of type '" + type.name +
                      "'");
    }
  }
}

/// Net shape sanity: finite positive weight, and (as a warning) multiple
/// drivers on one net. Undriven and single-pin nets are legal inputs the
/// placer tolerates, so they are not flagged.
void rule_net_shape(const CheckContext& ctx, DiagnosticSink& sink) {
  const auto& nl = *ctx.netlist;
  for (NetId n = 0; n < nl.num_nets(); ++n) {
    const netlist::Net& net = nl.net(n);
    if (!std::isfinite(net.weight) || net.weight <= 0.0) {
      sink.report(Severity::kError, "netlist.net-shape", Anchor::net(n),
                  "net weight " + std::to_string(net.weight) +
                      " is not a positive finite number");
    }
    std::size_t drivers = 0;
    for (PinId p : nl.net_pins(n)) {
      if (p < nl.num_pins() && nl.pin(p).dir == netlist::PinDir::kOutput) {
        ++drivers;
      }
    }
    if (drivers > 1) {
      sink.report(Severity::kWarning, "netlist.net-shape", Anchor::net(n),
                  "net has " + std::to_string(drivers) + " driver pins");
    }
  }
}

/// Every pin lies on or inside its cell's box: |offset| is at most half
/// the cell's width and height (plus the context's tolerance). A pin far
/// outside its cell adds wirelength no placement can remove.
void rule_pin_offsets(const CheckContext& ctx, DiagnosticSink& sink) {
  const auto& nl = *ctx.netlist;
  for (PinId p = 0; p < nl.num_pins(); ++p) {
    const netlist::Pin& pin = nl.pin(p);
    // netlist.pin-refs and netlist.cell-types report these.
    if (pin.cell >= nl.num_cells() ||
        nl.cell(pin.cell).type >= nl.library().size()) {
      continue;
    }
    const double hw = nl.cell_width(pin.cell) / 2.0 + ctx.tolerance;
    const double hh = nl.cell_height(pin.cell) / 2.0 + ctx.tolerance;
    if (!(std::abs(pin.offset_x) <= hw && std::abs(pin.offset_y) <= hh)) {
      sink.report(Severity::kError, "netlist.pin-offsets", Anchor::pin(p),
                  "pin offset " + fmt("(%g, %g)", pin.offset_x,
                                      pin.offset_y) +
                      " lies outside its cell's " +
                      fmt("%g x %g box", nl.cell_width(pin.cell),
                          nl.cell_height(pin.cell)));
    }
  }
}

// ---- geometry: coordinate sanity ------------------------------------------

/// The placement covers every cell and contains no NaN/Inf coordinate
/// (the classic way a diverged optimizer escapes detection).
void rule_finite(const CheckContext& ctx, DiagnosticSink& sink) {
  const auto& nl = *ctx.netlist;
  const auto& pl = *ctx.placement;
  if (pl.size() < nl.num_cells()) {
    sink.report(Severity::kError, "geom.finite", Anchor::none(),
                "placement has " + std::to_string(pl.size()) +
                    " positions for " + std::to_string(nl.num_cells()) +
                    " cells");
    return;
  }
  for (CellId c = 0; c < nl.num_cells(); ++c) {
    if (!std::isfinite(pl[c].x) || !std::isfinite(pl[c].y)) {
      sink.report(Severity::kError, "geom.finite", Anchor::cell(c),
                  "non-finite position " + fmt("(%g, %g)", pl[c].x, pl[c].y));
    }
  }
}

/// Movable cells sit fully inside the core (fixed pads legitimately ring
/// the outside), by eval::cell_legality. Tolerance comes from the context,
/// so the post-GP hook can allow boundary overhang before legalization
/// snaps cells in.
void rule_in_core(const CheckContext& ctx, DiagnosticSink& sink) {
  const auto& nl = *ctx.netlist;
  const auto& pl = *ctx.placement;
  for (CellId c = 0; c < nl.num_cells() && c < pl.size(); ++c) {
    if (nl.cell(c).fixed) continue;
    if (!std::isfinite(pl[c].x) || !std::isfinite(pl[c].y)) continue;
    if (eval::cell_legality(nl, *ctx.design, pl, c, ctx.tolerance)
            .out_of_core) {
      sink.report(Severity::kError, "geom.in-core", Anchor::cell(c),
                  "cell at " + fmt("(%g, %g)", pl[c].x, pl[c].y) +
                      " extends outside the core");
    }
  }
}

/// How far outside the core, in core widths (heights), a fixed cell may
/// sit before geom.far-terminals warns.
constexpr double kFarTerminalSpans = 3.0;

/// Fixed cells sit within kFarTerminalSpans core widths of the core in x
/// and core heights in y. A terminal far away adds wirelength no move can
/// remove; GP's relative stop test then stops early (a warning: the
/// design still places).
void rule_far_terminals(const CheckContext& ctx, DiagnosticSink& sink) {
  const auto& nl = *ctx.netlist;
  const auto& pl = *ctx.placement;
  const geom::Rect& core = ctx.design->core();
  for (CellId c = 0; c < nl.num_cells() && c < pl.size(); ++c) {
    if (!nl.cell(c).fixed) continue;
    const double dx = std::max({core.lx - pl[c].x, pl[c].x - core.hx, 0.0});
    const double dy = std::max({core.ly - pl[c].y, pl[c].y - core.hy, 0.0});
    if (dx > kFarTerminalSpans * core.width() ||
        dy > kFarTerminalSpans * core.height()) {
      sink.report(Severity::kWarning, "geom.far-terminals", Anchor::cell(c),
                  "fixed cell at " + fmt("(%g, %g)", pl[c].x, pl[c].y) +
                      fmt(" lies more than %g core spans outside the core",
                          kFarTerminalSpans));
    }
  }
}

/// Fixed cells have not moved relative to the reference placement. The
/// pipeline snapshots its input placement, so any phase that disturbs a
/// pad shows up at the phase that did it.
void rule_fixed_immobile(const CheckContext& ctx, DiagnosticSink& sink) {
  const auto& nl = *ctx.netlist;
  const auto& pl = *ctx.placement;
  const auto& ref = *ctx.fixed_reference;
  for (CellId c = 0; c < nl.num_cells(); ++c) {
    if (!nl.cell(c).fixed || c >= pl.size() || c >= ref.size()) continue;
    if (std::abs(pl[c].x - ref[c].x) > ctx.tolerance ||
        std::abs(pl[c].y - ref[c].y) > ctx.tolerance) {
      sink.report(Severity::kError, "geom.fixed-immobile", Anchor::cell(c),
                  "fixed cell moved from " + fmt("(%g, %g)", ref[c].x,
                                                 ref[c].y) +
                      " to " + fmt("(%g, %g)", pl[c].x, pl[c].y));
    }
  }
}

// ---- legality: row/site discipline ----------------------------------------

/// Movable cells' bottom edges land on row boundaries, by
/// eval::cell_legality.
void rule_row_align(const CheckContext& ctx, DiagnosticSink& sink) {
  const auto& nl = *ctx.netlist;
  const auto& pl = *ctx.placement;
  const auto& design = *ctx.design;
  for (CellId c = 0; c < nl.num_cells() && c < pl.size(); ++c) {
    if (nl.cell(c).fixed) continue;
    if (!eval::cell_legality(nl, design, pl, c, ctx.tolerance).off_row) {
      continue;
    }
    const double ly = pl[c].y - nl.cell_height(c) / 2.0;
    const double rel = (ly - design.core().ly) / design.row_height();
    sink.report(Severity::kError, "legal.row-align", Anchor::cell(c),
                "bottom edge " + fmt("%g is %g rows", ly,
                                     rel - std::round(rel)) +
                    " off the row grid");
  }
}

/// Movable cells' left edges land on the site grid, by
/// eval::cell_legality.
void rule_site_align(const CheckContext& ctx, DiagnosticSink& sink) {
  const auto& nl = *ctx.netlist;
  const auto& pl = *ctx.placement;
  const auto& design = *ctx.design;
  for (CellId c = 0; c < nl.num_cells() && c < pl.size(); ++c) {
    if (nl.cell(c).fixed) continue;
    if (!eval::cell_legality(nl, design, pl, c, ctx.tolerance).off_site) {
      continue;
    }
    const double lx = pl[c].x - nl.cell_width(c) / 2.0;
    const double rel = (lx - design.core().lx) / design.site_width();
    sink.report(Severity::kError, "legal.site-align", Anchor::cell(c),
                "left edge " + fmt("%g is %g sites", lx,
                                   rel - std::round(rel)) +
                    " off the site grid");
  }
}

/// No movable cell overlaps another or a fixed cell in the core, via the
/// row-bucketed sweep shared with eval::check_legality.
void rule_overlap(const CheckContext& ctx, DiagnosticSink& sink) {
  // The sweep reads every cell's position; a short placement is reported
  // by geom.finite instead.
  if (ctx.placement->size() < ctx.netlist->num_cells()) return;
  bool truncated = false;
  const auto pairs = eval::overlap_pairs(*ctx.netlist, *ctx.design,
                                         *ctx.placement, ctx.tolerance,
                                         /*max_pairs=*/4096, &truncated);
  for (const eval::OverlapPair& p : pairs) {
    sink.report(Severity::kError, "legal.overlap", Anchor::cell(p.a),
                "overlaps cell '" + ctx.netlist->cell(p.b).name + "' (id " +
                    std::to_string(p.b) + ") by area " + fmt("%g", p.area));
  }
  if (truncated) {
    sink.report(Severity::kWarning, "legal.overlap-truncated", Anchor::none(),
                "overlap sweep stopped at " + std::to_string(pairs.size()) +
                    " pairs; overlap counts are a lower bound");
  }
}

// ---- structure: datapath-group well-formedness -----------------------------

/// Groups are rectangular bits x stages arrays with at least one member.
void rule_structure_shape(const CheckContext& ctx, DiagnosticSink& sink) {
  const auto& groups = ctx.structure->groups;
  for (std::size_t g = 0; g < groups.size(); ++g) {
    const netlist::StructureGroup& grp = groups[g];
    if (grp.bits == 0 || grp.stages == 0) {
      sink.report(Severity::kError, "structure.shape", Anchor::group(g),
                  "group '" + grp.name + "' has degenerate shape " +
                      std::to_string(grp.bits) + "x" +
                      std::to_string(grp.stages));
      continue;
    }
    if (grp.cells.size() != grp.bits * grp.stages) {
      sink.report(Severity::kError, "structure.shape", Anchor::group(g),
                  "group '" + grp.name + "' is ragged: " +
                      std::to_string(grp.cells.size()) + " entries for " +
                      std::to_string(grp.bits) + "x" +
                      std::to_string(grp.stages));
      continue;
    }
    if (grp.num_cells() == 0) {
      sink.report(Severity::kWarning, "structure.shape", Anchor::group(g),
                  "group '" + grp.name + "' has no members (all holes)");
    }
  }
}

/// Member cell ids are valid movable cells, and no cell belongs to two
/// groups (or appears twice in one): slices must be disjoint so that one
/// cell is never pulled toward two different array positions.
void rule_structure_members(const CheckContext& ctx, DiagnosticSink& sink) {
  const auto& nl = *ctx.netlist;
  const auto& groups = ctx.structure->groups;
  std::unordered_map<CellId, std::size_t> owner;
  for (std::size_t g = 0; g < groups.size(); ++g) {
    const netlist::StructureGroup& grp = groups[g];
    for (CellId c : grp.cells) {
      if (c == kInvalidId) continue;
      if (c >= nl.num_cells()) {
        sink.report(Severity::kError, "structure.members", Anchor::group(g),
                    "group '" + grp.name +
                        "' references nonexistent cell id " +
                        std::to_string(c));
        continue;
      }
      if (nl.cell(c).fixed) {
        sink.report(Severity::kError, "structure.members", Anchor::cell(c),
                    "fixed cell '" + nl.cell(c).name + "' is a member of group '" +
                        grp.name + "'");
      }
      auto [it, inserted] = owner.emplace(c, g);
      if (!inserted) {
        sink.report(
            Severity::kError, "structure.members", Anchor::cell(c),
            it->second == g
                ? "cell '" + nl.cell(c).name + "' appears twice in group '" +
                      grp.name + "'"
                : "cell '" + nl.cell(c).name + "' belongs to groups '" +
                      groups[it->second].name + "' and '" + grp.name + "'");
      }
    }
  }
}

/// Cells within one stage column share a cell type: the alignment term
/// assumes a stage is one vertical slice of identical (signature-compatible)
/// cells. Mixed stages place fine but misalign, so
/// this is a warning.
void rule_structure_stage_types(const CheckContext& ctx,
                                DiagnosticSink& sink) {
  const auto& nl = *ctx.netlist;
  const auto& groups = ctx.structure->groups;
  for (std::size_t g = 0; g < groups.size(); ++g) {
    const netlist::StructureGroup& grp = groups[g];
    if (grp.cells.size() != grp.bits * grp.stages) continue;  // shape reports
    for (std::size_t s = 0; s < grp.stages; ++s) {
      netlist::CellTypeId first_type = 0;
      bool have = false, mixed = false;
      for (std::size_t b = 0; b < grp.bits && !mixed; ++b) {
        const CellId c = grp.at(b, s);
        if (c == kInvalidId || c >= nl.num_cells()) continue;
        if (!have) {
          first_type = nl.cell(c).type;
          have = true;
        } else if (nl.cell(c).type != first_type) {
          mixed = true;
        }
      }
      if (mixed) {
        sink.report(Severity::kWarning, "structure.stage-types",
                    Anchor::group(g),
                    "group '" + grp.name + "' stage " + std::to_string(s) +
                        " mixes cell types");
      }
    }
  }
}

// ---- timing: graph topology -------------------------------------------------

/// Building a TimingGraph dereferences pin->cell and cell->type links, so
/// the timing rules must not run on a netlist whose references are broken
/// (netlist.pin-refs / netlist.cell-types already report that).
bool timing_prereqs_ok(const netlist::Netlist& nl) {
  for (netlist::PinId p = 0; p < nl.num_pins(); ++p) {
    if (nl.pin(p).cell >= nl.num_cells()) return false;
  }
  for (CellId c = 0; c < nl.num_cells(); ++c) {
    if (nl.cell(c).type >= nl.library().size()) return false;
    for (const netlist::PinId p : nl.cell_pins(c)) {
      if (p >= nl.num_pins()) return false;
    }
  }
  for (netlist::NetId n = 0; n < nl.num_nets(); ++n) {
    for (const netlist::PinId p : nl.net_pins(n)) {
      if (p >= nl.num_pins()) return false;
    }
  }
  return true;
}

/// No combinational cycles: every pin must levelize. A cycle makes static
/// timing (and most downstream analyses) undefined, so each offending pin
/// is an error (capped; the count is always reported).
void rule_timing_loops(const CheckContext& ctx, DiagnosticSink& sink) {
  if (!timing_prereqs_ok(*ctx.netlist)) return;
  const timing::TimingGraph graph(*ctx.netlist);
  if (!graph.has_loops()) return;
  constexpr std::size_t kMaxReported = 8;
  const auto loops = graph.loop_pins();
  for (std::size_t i = 0; i < loops.size() && i < kMaxReported; ++i) {
    const PinId p = loops[i];
    const netlist::Cell& cell = ctx.netlist->cell(ctx.netlist->pin(p).cell);
    sink.report(Severity::kError, "timing.comb-loops", Anchor::pin(p),
                "pin of cell '" + cell.name +
                    "' is on or downstream of a combinational loop");
  }
  if (loops.size() > kMaxReported) {
    sink.report(Severity::kError, "timing.comb-loops", Anchor::none(),
                std::to_string(loops.size() - kMaxReported) +
                    " further pin(s) on or downstream of combinational "
                    "loops (reporting capped)");
  }
}

/// Primary-output pads driven by combinational logic instead of a
/// register or another pad. Legal (several dpgen benchmarks export
/// combinational flag buses), but worth surfacing: these cones set the
/// critical path without a pipeline stage to absorb it. One aggregated
/// note, so strict lint runs stay green.
void rule_timing_unregistered_outputs(const CheckContext& ctx,
                                      DiagnosticSink& sink) {
  const auto& nl = *ctx.netlist;
  if (!timing_prereqs_ok(nl)) return;
  const timing::TimingGraph graph(nl);

  // Longest combinational depth (cell arcs only) per pin, swept in
  // topological order.
  std::vector<std::size_t> depth(nl.num_pins(), 0);
  for (const PinId p : graph.order()) {
    std::size_t d = 0;
    for (std::size_t a = graph.fanin_first(p); a < graph.fanin_first(p + 1);
         ++a) {
      const std::size_t through =
          depth[graph.arc_src()[a]] +
          (graph.arc_kind()[a] == timing::ArcKind::kCell ? 1 : 0);
      d = std::max(d, through);
    }
    depth[p] = d;
  }

  std::size_t unregistered = 0, max_depth = 0;
  CellId example = kInvalidId;
  for (const PinId p : graph.endpoints()) {
    const CellId c = nl.pin(p).cell;
    if (nl.cell_type(c).func != netlist::CellFunc::kPad) continue;
    if (graph.level(p) == 0 && graph.fanin_first(p) != graph.fanin_first(p + 1)) {
      continue;  // loop pin: depth unknown, rule_timing_loops reports it
    }
    if (depth[p] == 0) continue;  // driven by a register or another pad
    ++unregistered;
    if (depth[p] > max_depth) {
      max_depth = depth[p];
      example = c;
    }
  }
  if (unregistered > 0) {
    sink.report(Severity::kNote, "timing.unregistered-outputs",
                Anchor::cell(example),
                std::to_string(unregistered) +
                    " primary-output pad(s) driven by combinational logic "
                    "(deepest cone: " +
                    std::to_string(max_depth) + " gate(s) at pad '" +
                    nl.cell(example).name + "')");
  }
}

// ---- catalog ----------------------------------------------------------------

using RuleFn = void (*)(const CheckContext&, DiagnosticSink&);

struct Rule {
  RuleInfo info;
  RuleFn fn;
  bool needs_placement = false;
  bool needs_design = false;
  bool needs_structure = false;
  bool needs_reference = false;
};

constexpr Rule kRules[] = {
    {{"netlist.pin-refs", kCatNetlist, true,
      "pin<->cell<->net back-pointers agree and all ids exist"},
     rule_pin_refs},
    {{"netlist.cell-types", kCatNetlist, true,
      "cell types exist, have positive size, ports bind once"},
     rule_cell_types},
    {{"netlist.pin-dirs", kCatNetlist, true,
      "pin directions match the cell type's pin specs"},
     rule_pin_dirs},
    {{"netlist.net-shape", kCatNetlist, true,
      "net weights are positive and nets have at most one driver"},
     rule_net_shape},
    {{"netlist.pin-offsets", kCatNetlist, true,
      "pin offsets lie inside their cell's box"},
     rule_pin_offsets},
    {{"geom.finite", kCatGeometry, true,
      "placement covers all cells with finite coordinates"},
     rule_finite, /*placement=*/true},
    {{"geom.in-core", kCatGeometry, true,
      "movable cells sit inside the core region"},
     rule_in_core, /*placement=*/true, /*design=*/true},
    {{"geom.far-terminals", kCatGeometry, true,
      "fixed cells lie within a few core spans of the core"},
     rule_far_terminals, /*placement=*/true, /*design=*/true},
    {{"geom.fixed-immobile", kCatGeometry, true,
      "fixed cells have not moved from the reference placement"},
     rule_fixed_immobile, /*placement=*/true, /*design=*/false,
     /*structure=*/false, /*reference=*/true},
    {{"legal.row-align", kCatLegality, true,
      "movable cells sit on row boundaries"},
     rule_row_align, /*placement=*/true, /*design=*/true},
    {{"legal.site-align", kCatLegality, true,
      "movable cells sit on the site grid"},
     rule_site_align, /*placement=*/true, /*design=*/true},
    {{"legal.overlap", kCatLegality, false,
      "no movable cell overlaps another or an in-core fixed cell "
      "(row-bucketed sweep)"},
     rule_overlap, /*placement=*/true, /*design=*/true},
    {{"structure.shape", kCatStructure, true,
      "groups are rectangular bits x stages arrays"},
     rule_structure_shape, /*placement=*/false, /*design=*/false,
     /*structure=*/true},
    {{"structure.members", kCatStructure, true,
      "group members are valid movable cells and slices are disjoint"},
     rule_structure_members, /*placement=*/false, /*design=*/false,
     /*structure=*/true},
    {{"structure.stage-types", kCatStructure, false,
      "cells within one stage column share a cell type"},
     rule_structure_stage_types, /*placement=*/false, /*design=*/false,
     /*structure=*/true},
    {{"timing.comb-loops", kCatTiming, true,
      "the timing graph levelizes (no combinational cycles)"},
     rule_timing_loops},
    {{"timing.unregistered-outputs", kCatTiming, false,
      "primary-output pads are driven by registers, not logic cones"},
     rule_timing_unregistered_outputs},
};

}  // namespace

std::span<const RuleInfo> rule_catalog() {
  static const auto infos = [] {
    std::vector<RuleInfo> v;
    for (const Rule& r : kRules) v.push_back(r.info);
    return v;
  }();
  return infos;
}

CheckSummary run_checks(const CheckContext& ctx, DiagnosticSink& sink,
                        CheckLevel level, unsigned categories) {
  CheckSummary summary;
  if (ctx.netlist == nullptr || level == CheckLevel::kOff) return summary;
  const std::size_t e0 = sink.num_errors();
  const std::size_t w0 = sink.num_warnings();
  const std::size_t n0 = sink.num_notes();
  for (const Rule& rule : kRules) {
    if ((rule.info.category & categories) == 0) continue;
    if (level == CheckLevel::kCheap && !rule.info.cheap) continue;
    if (rule.needs_placement && ctx.placement == nullptr) continue;
    if (rule.needs_design && ctx.design == nullptr) continue;
    if (rule.needs_structure && ctx.structure == nullptr) continue;
    if (rule.needs_reference && ctx.fixed_reference == nullptr) continue;
    rule.fn(ctx, sink);
    ++summary.rules_run;
  }
  summary.errors = sink.num_errors() - e0;
  summary.warnings = sink.num_warnings() - w0;
  summary.notes = sink.num_notes() - n0;
  return summary;
}

}  // namespace dp::check
