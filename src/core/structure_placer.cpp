#include "core/structure_placer.hpp"

#include <algorithm>
#include <memory>
#include <optional>
#include <span>
#include <stdexcept>

#include "core/partition.hpp"
#include "extract/extractor.hpp"
#include "legal/repair.hpp"
#include "route/congestion.hpp"
#include "util/logger.hpp"
#include "util/thread_pool.hpp"
#include "util/timer.hpp"

namespace dp::core {

namespace {

/// The alignment term activates once density overflow first drops below
/// the GP's spread point (aligning before cells are spread is wasted
/// work): phase A of the structure-aware global placement spreads plainly
/// down to it, then phase B runs with the alignment term on.
constexpr double kAlignmentActivationOverflow = gp::kSpreadOverflow;

/// Routability inflates the cells in congested bins once, at the first
/// outer iteration of the main GP that starts at or below this overflow.
/// It is the structured flow's phase A/B hand-off, which every suite
/// design's GP passes, so phase B spreads the inflated cells for its whole
/// alignment ramp. RUDY means something only once the quadratic start's
/// pile-up has spread. Later checkpoints were measured and dropped: on the
/// suite (seed 1) a second one at overflow 0.35, 0.3 or 0.2 raised the
/// sa-gentle flow's geomean final peak by 1-6%, because phase B, capped at
/// `align_outer` outers, then ends less spread and legalization
/// concentrates the rest.
constexpr double kInflationOverflow = gp::kSpreadOverflow;

/// Inflation may fill at most this share of the whitespace the movable
/// cells leave in the core: at utilization u the scaled movable area grows
/// to at most u + (1 - u) * share of the core (0.75 at the suite's 0.7).
/// The GP cannot spread area the core cannot hold; on the suite a third of
/// the whitespace (0.8 of the core) already stalls GP overflow near 0.09
/// and runs it to the outer-iteration cap.
constexpr double kInflationWhitespaceShare = 1.0 / 6.0;

/// Warns when a GP run used up its outer iterations above its stop
/// overflow.
void warn_if_capped(const char* phase, const gp::GpResult& res,
                    const gp::GpOptions& options) {
  if (res.stop_reason != gp::GpStop::kOuterCap) return;
  util::Logger::warn(
      "gp %s: stopped at the %zu-outer cap at overflow %.3f (stop %.3f)",
      phase, options.max_outer, res.final_overflow, options.stop_overflow);
}

/// One StructurePlacer::place run, phase by phase: the placement being
/// produced, the report filling up, and what one phase hands the next
/// (the global placers' thread pool, timing analyzer, congestion map and
/// density scale).
class RunContext {
 public:
  RunContext(const netlist::Netlist& nl, const netlist::Design& design,
             const PlacerConfig& config, netlist::Placement& pl)
      : nl_(nl),
        design_(design),
        config_(config),
        pl_(pl),
        pool_(std::make_shared<util::ThreadPool>(config.num_threads)) {
    if (config_.check_level != check::CheckLevel::kOff) fixed_reference_ = pl;
    // One map serves the in-GP inflation checkpoint, the GP-stage estimate
    // and the final report; every build() starts from scratch.
    if (config_.congestion.enabled()) {
      cmap_.emplace(nl_, design_, config_.congestion.map);
    }
    if (config_.timing.enabled()) {
      timed([&] {
        timing_graph_ = std::make_unique<timing::TimingGraph>(nl_);
        timing_ = std::make_unique<timing::TimingAnalyzer>(
            *timing_graph_, config_.timing.model);
        if (timing_graph_->has_loops()) {
          util::Logger::warn(
              "timing: %zu pin(s) on or behind combinational loops excluded "
              "from analysis",
              timing_graph_->loop_pins().size());
        }
      });
    }
  }

  PlaceReport report;

  // ---- phase 1: datapath structure -----------------------------------------
  void extract(const netlist::StructureAnnotation* truth) {
    util::Timer stage;
    if (config_.structure_aware) {
      if (config_.use_truth_structure && truth != nullptr) {
        report.structure = *truth;
      } else {
        auto ext = extract::extract_structures(nl_);
        report.structure = std::move(ext.annotation);
        report.extraction_seeds = ext.seeds_tried;
      }
      report.structure = partition_groups(nl_, design_, report.structure);
    }
    structured_ = config_.structure_aware && !report.structure.groups.empty();
    report.t_extract = stage.seconds();
    run_checks("extract",
               check::kCatNetlist | check::kCatStructure | check::kCatTiming,
               1e-6);
  }

  // ---- phase 2: global placement -------------------------------------------
  void global_place() {
    util::Timer stage;
    if (structured_) {
      structured_gp();
    } else {
      gp::GlobalPlacer placer = make_placer(config_.gp);
      install_outer_hook(placer, 1.0);
      report.gp_result = placer.place(pl_);
      warn_if_capped("baseline", report.gp_result, config_.gp);
    }
    report.hpwl_gp = report.gp_result.final_hpwl;
    report.t_gp = stage.seconds();
    if (timing_ != nullptr) {
      timed([&] { report.timing_gp = timing_->analyze(pl_); });
      report.timing_measured = true;
    }
    // Cells are not yet snapped to rows and the optimizer clamps centers
    // (not edges) to the core, so tolerate up to the widest movable cell's
    // half-extent of overhang until legalization pulls everything in.
    if (config_.check_level != check::CheckLevel::kOff) {
      double max_half_extent = 0.0;
      for (netlist::CellId c = 0; c < nl_.num_cells(); ++c) {
        if (nl_.cell(c).fixed) continue;
        max_half_extent =
            std::max(max_half_extent,
                     std::max(nl_.cell_width(c), nl_.cell_height(c)) / 2.0);
      }
      run_checks("gp", check::kCatGeometry, max_half_extent + 1e-6);
    }
  }

  // ---- phase 2b: congestion estimation -------------------------------------
  void congestion() {
    util::Timer stage;
    if (cmap_) {
      cmap_->build(pl_);
      report.congestion_measured = true;
      report.congestion_gp = cmap_->report();
    }
    report.t_congestion = stage.seconds();
  }

  // ---- phase 3: legalization -----------------------------------------------
  void legalize() {
    util::Timer stage;
    legal::abacus_all(nl_, design_, pl_);
    // Legality guarantee: overlaps and off-grid cells Abacus left are
    // ripped up and re-placed into real free space.
    legal::repair_legality(nl_, design_, pl_);
    report.t_legal = stage.seconds();
    run_checks("legal", check::kCatGeometry | check::kCatLegality, 1e-6);
  }

  // ---- phase 4: detailed placement -----------------------------------------
  void detail() {
    util::Timer stage;
    detail::DetailOptions opt;
    if (config_.timing.driven && timing_ != nullptr) {
      // Veto detail moves that increase the criticality-weighted wire
      // delay on the critical nets (beyond roundoff). Criticalities are
      // frozen at the post-legal analysis (the detailer moves cells less
      // than a row on average, so re-analysis per move would buy little
      // for its cost).
      timed([&] { timing_->analyze(pl_); });
      opt.move_guard = [crit = timing_->net_criticality()](
                           std::span<const eval::NetChange> nets) {
        double delta = 0.0;
        for (const eval::NetChange& nc : nets) {
          if (crit[nc.net] >= timing::kCritFloor) {
            delta += crit[nc.net] * timing::kWireDelayPerUnit *
                     (nc.after - nc.before);
          }
        }
        return delta <= 1e-12;
      };
    }
    // Detail moves keep every cell in its row, so bit rows stay aligned.
    report.detail_stats = detail::detailed_place(nl_, design_, pl_, opt);
    // The detailer opens by measuring the legalized placement.
    report.hpwl_legal = report.detail_stats.hpwl_before;
    report.t_detail = stage.seconds();
    run_checks("detail", check::kCatGeometry | check::kCatLegality, 1e-6);
  }

  // ---- reporting -----------------------------------------------------------
  void finish() {
    // The detailer's last measurement is of this placement.
    report.hpwl_final = report.detail_stats.hpwl_after;
    report.legality = eval::check_legality(nl_, design_, pl_);
    if (timing_ != nullptr) {
      timed([&] { report.timing = timing_->analyze(pl_); });
    }
    if (cmap_) {
      cmap_->build(pl_);
      report.congestion = cmap_->report();
    }
    report.datapath_hpwl_final =
        eval::datapath_hpwl(nl_, pl_, report.structure);
    report.alignment = eval::alignment_score(nl_, pl_, report.structure);
  }

 private:
  void structured_gp() {
    // Datapath cells are shrunk in the density model to the core
    // utilization (macro-shrink: they will legally pack solid), so settled
    // plates are density-neutral.
    const double dp_scale = nl_.movable_area() / design_.core().area();
    density_scale_.assign(nl_.num_cells(), 1.0);
    for (const auto& g : report.structure.groups) {
      for (netlist::CellId c : g.cells) {
        if (c != netlist::kInvalidId) density_scale_[c] = dp_scale;
      }
    }

    // Phase A: plain spreading down to the activation overflow. Its
    // placer, with the kernels' scratch, is freed before phase B's.
    {
      gp::GpOptions opt_a = config_.gp;
      opt_a.stop_overflow =
          std::max(config_.gp.stop_overflow, kAlignmentActivationOverflow);
      gp::GlobalPlacer phase_a = make_placer(opt_a, density_scale_);
      install_outer_hook(phase_a, 1.0);
      report.gp_result = phase_a.place(pl_);
      warn_if_capped("phase A", report.gp_result, opt_a);
    }

    // Phase B continues phase A's placement, density scale and record:
    // alignment on from the start, weight normalized against the
    // wirelength force and doubled each outer iteration (up to
    // 2^(align_outer - 1), 2048x at the default 12 outers) so slices and
    // stages converge onto their lines instead of stalling at a force
    // equilibrium.
    const AlignmentPenalty alignment(report.structure);
    gp::GpOptions opt_b = config_.gp;
    opt_b.max_outer = config_.align_outer;
    opt_b.gamma_init_bins = 3.0;
    gp::GlobalPlacer phase_b = make_placer(opt_b, density_scale_);
    // Timing attenuated in phase B: the alignment schedule is normalized
    // against the wirelength force once at the start, and strong
    // reweighting under it makes the steering fight the plate arrays
    // (consistent HPWL blowups on the datapath-heavy designs).
    install_outer_hook(phase_b, 0.3);
    phase_b.add_term({&alignment, config_.alignment_weight, "alignment"});
    report.gp_result = phase_b.place(pl_, std::move(report.gp_result));
    warn_if_capped("phase B", report.gp_result, opt_b);

    report.datapath_hpwl_gp = eval::datapath_hpwl(nl_, pl_, report.structure);
    report.alignment_gp =
        eval::alignment_score(nl_, pl_, report.structure).rms_misalignment;
  }

  /// A global placer on the run's pool; a non-empty `area_scale` goes to
  /// its density model.
  gp::GlobalPlacer make_placer(const gp::GpOptions& options,
                               std::vector<double> area_scale = {}) const {
    gp::GlobalPlacer placer(nl_, design_, options);
    placer.set_thread_pool(pool_);
    if (!area_scale.empty()) {
      placer.set_density_area_scale(std::move(area_scale));
    }
    return placer;
  }

  /// The outer hook of a GP phase: timing-driven criticality
  /// reweighting at `timing_strength` times the configured strength, and
  /// routability inflation once overflow reaches kInflationOverflow.
  /// Installs nothing when neither is on, so such runs are untouched.
  void install_outer_hook(gp::GlobalPlacer& placer, double timing_strength) {
    const bool reweight = config_.timing.driven && timing_ != nullptr;
    if (!reweight && !config_.congestion.refine) return;
    placer.set_outer_hook([this, reweight, timing_strength](
                              const gp::TermContext& ctx,
                              const netlist::Placement& cur,
                              gp::SmoothWirelength& wl,
                              gp::DensityPenalty& density) {
      if (reweight) reweight_nets(cur, wl, timing_strength);
      if (config_.congestion.refine && !inflated_ &&
          ctx.overflow <= kInflationOverflow) {
        inflated_ = true;
        inflate(cur, density);
      }
    });
  }

  /// Re-derives criticality net weights from `cur`, at `strength_mult`
  /// times the configured strength.
  void reweight_nets(const netlist::Placement& cur, gp::SmoothWirelength& wl,
                     double strength_mult) {
    timed([&] {
      timing_->analyze(cur);
      timing_->net_weight_scale(config_.timing.weight * strength_mult,
                                timing::kCritFloor, timing_scale_);
      // Smooth across outer iterations: criticalities jump around while
      // the placement is still fluid, and chasing each snapshot makes the
      // objective non-stationary (costly in HPWL for little WNS).
      constexpr double kBlend = 0.5;
      if (timing_scale_ema_.size() != timing_scale_.size()) {
        timing_scale_ema_ = timing_scale_;
      } else {
        for (std::size_t n = 0; n < timing_scale_.size(); ++n) {
          timing_scale_ema_[n] = (1.0 - kBlend) * timing_scale_ema_[n] +
                                 kBlend * timing_scale_[n];
        }
      }
      wl.set_net_weight_scale(timing_scale_ema_);
      ++report.timing_reweights;
    });
  }

  /// Estimates RUDY on `cur` and grows the density area of the cells in
  /// overflowed bins, within the whitespace budget. In the structured flow
  /// only glue cells inflate: the datapath plates keep their macro-shrink
  /// scale and the alignment the GP is buying.
  void inflate(const netlist::Placement& cur, gp::DensityPenalty& density) {
    cmap_->build(cur);
    if (density_scale_.empty()) density_scale_.assign(nl_.num_cells(), 1.0);
    std::vector<bool> eligible(nl_.num_cells(), true);
    for (const auto& g : report.structure.groups) {
      for (netlist::CellId c : g.cells) {
        if (c != netlist::kInvalidId) eligible[c] = false;
      }
    }
    std::vector<double> next = density_scale_;
    const std::size_t grown =
        route::inflate_cells(nl_, *cmap_, cur, eligible, next);
    if (grown == 0) return;
    // Shrink every cell's growth by one factor to fit the area budget.
    double area = 0.0, growth = 0.0;
    for (netlist::CellId c = 0; c < nl_.num_cells(); ++c) {
      if (nl_.cell(c).fixed) continue;
      area += nl_.cell_area(c) * density_scale_[c];
      growth += nl_.cell_area(c) * (next[c] - density_scale_[c]);
    }
    const double core = design_.core().area();
    const double utilization = nl_.movable_area() / core;
    const double budget =
        utilization + (1.0 - utilization) * kInflationWhitespaceShare;
    const double room = budget * core - area;
    if (room <= 0.0) {
      util::Logger::warn(
          "congestion inflation skipped: scaled movable area %.1f leaves no "
          "room in the budget (utilization %.3f)",
          area, utilization);
      return;
    }
    const double keep = std::min(1.0, room / growth);
    if (keep < 1.0) {
      util::Logger::info(
          "congestion inflation: area budget keeps %.0f%% of the growth "
          "(utilization %.3f)",
          keep * 100.0, utilization);
    }
    for (netlist::CellId c = 0; c < nl_.num_cells(); ++c) {
      density_scale_[c] += keep * (next[c] - density_scale_[c]);
    }
    density.set_area_scale(density_scale_);
    report.congestion_inflated_cells += grown;
    ++report.congestion_refine_iters;
  }

  /// Runs `f`, charging its wall time to PlaceReport::t_timing.
  template <typename F>
  void timed(F&& f) {
    util::Timer t;
    f();
    report.t_timing += t.seconds();
  }

  /// After each phase, run the rule families that phase is responsible
  /// for, so corruption is caught where it was introduced.
  void run_checks(const char* phase, unsigned categories, double tolerance) {
    if (config_.check_level == check::CheckLevel::kOff) return;
    check::CheckContext ctx;
    ctx.netlist = &nl_;
    ctx.design = &design_;
    ctx.placement = &pl_;
    ctx.structure =
        report.structure.groups.empty() ? nullptr : &report.structure;
    ctx.fixed_reference = &fixed_reference_;
    ctx.tolerance = tolerance;
    const check::CheckSummary summary = check::run_checks(
        ctx, report.diagnostics, config_.check_level, categories);
    report.checks.push_back({phase, summary});
    if (summary.errors > 0) {
      util::Logger::warn("check[%s]: %zu error(s), %zu warning(s)", phase,
                         summary.errors, summary.warnings);
    }
  }

  const netlist::Netlist& nl_;
  const netlist::Design& design_;
  const PlacerConfig& config_;
  netlist::Placement& pl_;
  std::shared_ptr<util::ThreadPool> pool_;
  /// The input placement: the fixed-cell immobility baseline of the checks.
  netlist::Placement fixed_reference_;

  std::unique_ptr<timing::TimingGraph> timing_graph_;
  std::unique_ptr<timing::TimingAnalyzer> timing_;
  std::vector<double> timing_scale_, timing_scale_ema_;
  std::optional<route::CongestionMap> cmap_;

  /// Structure-aware flow with at least one datapath group.
  bool structured_ = false;
  /// Density-model area factor per cell: the datapath macro-shrink
  /// (structured flow), times any congestion inflation; empty while
  /// neither applies.
  std::vector<double> density_scale_;
  /// The run's one inflation checkpoint has been reached.
  bool inflated_ = false;
};

}  // namespace

StructurePlacer::StructurePlacer(const netlist::Netlist& nl,
                                 const netlist::Design& design,
                                 PlacerConfig config)
    : nl_(&nl), design_(&design), config_(std::move(config)) {
  if (config_.legalization != LegalizationMode::kGentle) {
    throw std::invalid_argument(
        "StructurePlacer: the template-block flow (kStructured) is deleted; "
        "only kGentle legalization remains");
  }
}

PlaceReport StructurePlacer::place(netlist::Placement& pl,
                                   const netlist::StructureAnnotation* truth) {
  util::Timer total;
  RunContext run(*nl_, *design_, config_, pl);
  run.extract(truth);
  run.global_place();
  run.congestion();
  run.legalize();
  run.detail();
  run.finish();
  run.report.t_total = total.seconds();
  return std::move(run.report);
}

}  // namespace dp::core
