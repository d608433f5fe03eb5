#include "core/structure_placer.hpp"

#include <algorithm>
#include <cmath>
#include <memory>
#include <optional>

#include "core/overlap.hpp"
#include "eval/incremental_hpwl.hpp"
#include "legal/repair.hpp"
#include "route/congestion.hpp"
#include "util/logger.hpp"
#include "util/thread_pool.hpp"
#include "util/timer.hpp"

namespace dp::core {

namespace {

/// The alignment term activates once density overflow first drops below
/// this level (aligning before cells are spread is wasted work): phase A
/// of the structure-aware global placement spreads plainly down to it,
/// then phase B runs with the alignment term on.
constexpr double kAlignmentActivationOverflow = 0.5;

/// Weight schedule of a structure term: normalized against the wirelength
/// force on first use, then doubled per outer iteration (capped at 4096x).
std::function<double(const gp::TermContext&)> make_schedule(
    const gp::GlobalPlacer& owner, const gp::ObjectiveTerm& term,
    const netlist::Placement& pl, double w) {
  return [&owner, &term, &pl, w, base = std::optional<double>()](
             const gp::TermContext& ctx) mutable {
    if (!base) {
      const auto [wl_norm, term_norm] = owner.probe_norms(term, pl);
      base = term_norm > 0.0 ? w * wl_norm / term_norm : w;
    }
    return *base * std::min<double>(
                       4096.0, std::pow(2.0, static_cast<double>(ctx.outer)));
  };
}

/// One StructurePlacer::place run, phase by phase: the placement being
/// produced, the report filling up, and what one phase hands the next
/// (the run's thread pool, timing analyzer, congestion map, density scale
/// and group orientations).
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
    // The analyzer shares the run's pool: the GP outer hook runs between
    // the placer's fork-join regions, so the pool is never entered twice.
    if (config_.timing.enabled()) {
      timed([&] {
        timing_graph_ = std::make_unique<timing::TimingGraph>(nl_);
        timing_ = std::make_unique<timing::TimingAnalyzer>(
            *timing_graph_, config_.timing.model);
        timing_->set_thread_pool(pool_);
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
        auto ext = extract::extract_structures(nl_, config_.extraction);
        report.structure = std::move(ext.annotation);
        report.extraction_seeds = ext.seeds_tried;
        report.extraction_seconds = ext.seconds;
      }
      report.structure =
          partition_groups(nl_, design_, report.structure, config_.partition);
      util::Logger::info("structure: %zu groups, %zu cells",
                         report.structure.groups.size(),
                         report.structure.total_cells());
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
      gp::GlobalPlacer placer = make_placer(config_.gp, gp::VarMap(nl_));
      install_timing_hook(placer, 1.0);
      report.gp_result = placer.place(pl_);
    }
    report.hpwl_gp = report.gp_result.final_hpwl;
    report.t_gp = stage.seconds();
    if (timing_ != nullptr) {
      timed([&] { report.timing_gp = timing_->analyze(pl_); });
      report.timing_measured = true;
      util::Logger::info(
          "timing (gp): wns=%.2f tns=%.2f period=%.2f crit_delay=%.2f "
          "endpoints=%zu",
          report.timing_gp.wns, report.timing_gp.tns,
          report.timing_gp.clock_period, report.timing_gp.max_arrival,
          report.timing_gp.endpoints);
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

  // ---- phase 2b: congestion estimation + cell-inflation refinement ---------
  void congestion() {
    util::Timer stage;
    report.hpwl_pre_refine = report.hpwl_gp;
    if (config_.congestion.enabled()) {
      // One map serves the GP-stage estimate, the refinement and the final
      // report; every build() starts from scratch.
      cmap_.emplace(nl_, design_, config_.congestion.map);
      cmap_->set_thread_pool(pool_);
      cmap_->build(pl_);
      report.congestion_measured = true;
      report.congestion_gp = cmap_->report();
      util::Logger::info(
          "congestion (gp): peak=%.2f overflow=%.1f%% bins>cap=%zu/%zu",
          report.congestion_gp.peak,
          report.congestion_gp.overflow_frac * 100.0,
          report.congestion_gp.overflowed_bins,
          report.congestion_gp.bins * report.congestion_gp.bins);
      if (config_.congestion.refine) refine_congestion();
    }
    report.t_congestion = stage.seconds();
  }

  // ---- phase 3: legalization -----------------------------------------------
  void legalize() {
    util::Timer stage;
    if (structured_ &&
        config_.legalization == LegalizationMode::kStructured) {
      legalize_blocks();
    } else {
      legal::AbacusLegalizer legalizer(nl_, design_);
      legalizer.run_all(pl_);
      if (structured_) report.hpwl_first_legal = eval::hpwl(nl_, pl_);
    }
    // Legality guarantee: whatever mode ran, overlaps and off-grid cells
    // are ripped up and re-placed into real free space.
    legal::repair_legality(nl_, design_, pl_);
    if (util::Logger::level() <= util::LogLevel::kDebug) {
      const auto lr = eval::check_legality(nl_, design_, pl_);
      util::Logger::debug(
          "post-repair legality: ov=%zu row=%zu site=%zu out=%zu",
          lr.overlaps, lr.off_row, lr.off_site, lr.out_of_core);
    }
    report.hpwl_legal = eval::hpwl(nl_, pl_);
    report.t_legal = stage.seconds();
    run_checks("legal", check::kCatGeometry | check::kCatLegality, 1e-6);
  }

  // ---- phase 4: detailed placement -----------------------------------------
  void detail() {
    util::Timer stage;
    detail::DetailOptions opt = config_.detail;
    if (config_.timing.driven && timing_ != nullptr) {
      // Veto detail moves whose criticality-weighted wire-delay increase on
      // the critical nets exceeds the tolerance. Criticalities are frozen
      // at the post-legal analysis (the detailer moves cells less than a
      // row on average, so re-analysis per move would buy little for its
      // cost).
      timed([&] { timing_->analyze(pl_); });
      const timing::TimingControl& tc = config_.timing;
      opt.move_guard = [crit = timing_->net_criticality(),
                        &tc](const eval::IncrementalHpwl& inc) {
        double delta = 0.0;
        inc.for_each_staged_net(
            [&](netlist::NetId n, double before, double after) {
              if (crit[n] >= tc.crit_floor) {
                delta += crit[n] * tc.model.wire_delay_per_unit *
                         (after - before);
              }
            });
        return delta <= tc.guard_tolerance + 1e-12;
      };
    }
    detail::DetailedPlacer detailer(nl_, design_);
    report.detail_stats =
        structured_
            ? detailer.run_structured(pl_, report.structure, along_y_, opt)
            : detailer.run(pl_, opt);
    report.t_detail = stage.seconds();
    run_checks("detail", check::kCatGeometry | check::kCatLegality, 1e-6);
  }

  // ---- reporting -----------------------------------------------------------
  void finish(const netlist::StructureAnnotation* truth) {
    report.hpwl_final = eval::hpwl(nl_, pl_);
    report.legality = eval::check_legality(nl_, design_, pl_);
    if (timing_ != nullptr) {
      timed([&] { report.timing = timing_->analyze(pl_); });
      util::Logger::info(
          "timing (final): wns=%.2f tns=%.2f period=%.2f crit_delay=%.2f "
          "violations=%zu/%zu",
          report.timing.wns, report.timing.tns, report.timing.clock_period,
          report.timing.max_arrival, report.timing.violations,
          report.timing.endpoints);
    }
    if (cmap_) {
      cmap_->build(pl_);
      report.congestion = cmap_->report();
    }
    const netlist::StructureAnnotation* for_eval =
        !report.structure.groups.empty() ? &report.structure : truth;
    if (for_eval != nullptr) {
      report.datapath_hpwl_final = eval::datapath_hpwl(nl_, pl_, *for_eval);
      report.alignment = eval::alignment_score(nl_, pl_, *for_eval);
    }
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

    // Phase A: plain spreading down to the activation overflow.
    gp::GpOptions opt_a = config_.gp;
    opt_a.stop_overflow =
        std::max(config_.gp.stop_overflow, kAlignmentActivationOverflow);
    gp::GlobalPlacer phase_a =
        make_placer(opt_a, gp::VarMap(nl_), density_scale_);
    install_timing_hook(phase_a, 1.0);
    report.gp_result = phase_a.place(pl_);

    // Phase B: alignment on from the start, weight normalized against the
    // wirelength force and doubled each outer iteration so the plates
    // converge to tight ordered arrays instead of stalling at a force
    // equilibrium.
    const AlignmentPenalty alignment(nl_, report.structure, design_);
    const PlateOverlapPenalty plate_overlap(nl_, report.structure, design_);
    gp::GlobalPlacer phase_b =
        make_placer(continuation(config_.align_outer, 3.0), gp::VarMap(nl_),
                    density_scale_);
    // Attenuated in phase B: the alignment/overlap schedules are normalized
    // against the wirelength force once at the start, and strong
    // reweighting under them makes the steering fight the plate arrays
    // (consistent HPWL blowups on the datapath-heavy designs).
    install_timing_hook(phase_b, 0.3);
    const double w = config_.alignment_weight;
    phase_b.add_term({&alignment, make_schedule(phase_b, alignment, pl_, w),
                      "alignment"});
    phase_b.add_term({&plate_overlap,
                      make_schedule(phase_b, plate_overlap, pl_, w),
                      "overlap"});
    const gp::GpResult res_b = phase_b.place(pl_);

    gp::GpResult& gp_result = report.gp_result;
    const std::size_t offset = gp_result.trace.size();
    for (auto point : res_b.trace) {
      point.outer += offset;
      gp_result.trace.push_back(point);
    }
    gp_result.final_hpwl = res_b.final_hpwl;
    gp_result.final_overflow = res_b.final_overflow;
    gp_result.total_cg_iterations += res_b.total_cg_iterations;
    gp_result.total_evaluations += res_b.total_evaluations;
    gp_result.profile.merge(res_b.profile);

    along_y_.resize(report.structure.groups.size());
    for (std::size_t g = 0; g < along_y_.size(); ++g) {
      along_y_[g] =
          alignment.orientation(g) == GroupOrientation::kBitsAlongY;
    }
    log_group_boxes("post-GP");
    report.datapath_hpwl_gp = eval::datapath_hpwl(nl_, pl_, report.structure);
    report.alignment_gp =
        eval::alignment_score(nl_, pl_, report.structure).rms_misalignment;
  }

  void refine_congestion() {
    const route::CongestionControl& cc = config_.congestion;
    route::CongestionMap& cmap = *cmap_;
    // In the structure-aware flow the datapath plates keep the alignment
    // the GP phase bought: only glue cells inflate and re-spread, the
    // plates act as density obstacles.
    std::vector<bool> eligible(nl_.num_cells(), true);
    if (structured_) {
      for (const auto& g : report.structure.groups) {
        for (netlist::CellId c : g.cells) {
          if (c != netlist::kInvalidId) eligible[c] = false;
        }
      }
    }
    std::vector<double> base = density_scale_;
    if (base.empty()) base.assign(nl_.num_cells(), 1.0);
    std::vector<double> scale = base;

    // Acceptance is judged on a cheap legalized proxy of each candidate
    // (Abacus on a copy), not on the raw GP placement: legalization can
    // amplify or even invert a GP-stage improvement, and the 1% final-
    // HPWL budget only holds if the guard sees that amplification.
    auto proxy_eval = [&](const netlist::Placement& cand) {
      netlist::Placement copy = cand;
      legal::AbacusLegalizer proxy_legalizer(nl_, design_);
      proxy_legalizer.run_all(copy);
      cmap.build(copy);
      return std::make_pair(eval::hpwl(nl_, copy), cmap.report());
    };
    const auto [proxy_hpwl0, proxy_rep0] = proxy_eval(pl_);
    double best_proxy_peak = proxy_rep0.peak;

    route::CongestionReport cur = report.congestion_gp;
    const double hpwl_before = report.hpwl_gp;
    netlist::Placement accepted = pl_;
    for (std::size_t iter = 0; iter < cc.max_iters; ++iter) {
      if (cur.peak <= cc.stop_peak) break;
      cmap.build(pl_);
      const std::size_t grown = route::inflate_cells(
          nl_, cmap, pl_, cc.inflation, base, eligible, scale);
      if (grown == 0) break;

      // One-sided density: only bins pushed over the target by the
      // inflated cells spread; everything else stays at its wirelength
      // optimum, which keeps the HPWL price of congestion relief small.
      gp::GpOptions opt = continuation(cc.spread_outer, 2.0);
      opt.one_sided_max_density = cc.spread_max_density;
      gp::GlobalPlacer spreader =
          make_placer(opt, gp::VarMap(nl_, eligible), scale);
      const gp::GpResult res = spreader.place(pl_);
      report.gp_result.profile.merge(res.profile);

      cmap.build(pl_);
      const route::CongestionReport after = cmap.report();
      const auto [proxy_hpwl, proxy_rep] = proxy_eval(pl_);
      const bool within_budget =
          proxy_hpwl <= proxy_hpwl0 * (1.0 + cc.hpwl_guard) &&
          proxy_rep.peak < best_proxy_peak;
      util::Logger::debug(
          "congestion refine %zu: %zu cells inflated, peak %.2f -> %.2f, "
          "hpwl %.1f -> %.1f, proxy peak %.2f -> %.2f, proxy hpwl "
          "%.1f -> %.1f%s",
          iter + 1, grown, cur.peak, after.peak, hpwl_before,
          res.final_hpwl, best_proxy_peak, proxy_rep.peak, proxy_hpwl0,
          proxy_hpwl, within_budget ? "" : " (over budget, revert)");
      if (!(after.peak < cur.peak && within_budget)) break;
      best_proxy_peak = proxy_rep.peak;
      cur = after;
      accepted = pl_;
      report.hpwl_gp = res.final_hpwl;
      report.congestion_inflated_cells += grown;
      ++report.congestion_refine_iters;
    }
    pl_ = accepted;
    if (report.congestion_refine_iters > 0) {
      util::Logger::info(
          "congestion refine: %zu iteration(s), peak %.2f -> %.2f, "
          "gp hpwl %.1f -> %.1f",
          report.congestion_refine_iters, report.congestion_gp.peak,
          cur.peak, hpwl_before, report.hpwl_gp);
    }
  }

  void legalize_blocks() {
    legal::StructureLegalizer legalizer(nl_, design_, report.structure,
                                        along_y_);
    // Between plate commitment and glue legalization, re-place the glue
    // with a dedicated global placement around the frozen plates: the
    // plates become exact density obstacles and wirelength anchors, so
    // the glue no longer needs to be evicted from plate footprints by the
    // legalizer.
    auto glue_gp = [this](netlist::Placement& pl,
                          const std::vector<bool>& frozen) {
      std::vector<bool> glue = frozen;
      glue.flip();
      gp::VarMap vars(nl_, glue);
      const std::size_t n = vars.num_vars();
      if (n == 0) return;
      gp::GpOptions opt = config_.gp;
      // Fresh quadratic start: the glue arrives scrambled by the alignment
      // phase; re-anchoring it to the frozen plates and pads lets the
      // nonlinear solve find a clean arrangement.
      opt.run_quadratic_init = true;
      // The glue starts piled against its anchors; overflow improves only
      // after lambda has ramped for a while, so the plateau stop must be
      // off or it fires immediately.
      opt.plateau_stall = 0;
      // One-sided density: let the glue cluster at its wirelength optimum
      // in the channels between plates instead of being spread uniformly
      // over every pocket of free space.
      opt.one_sided_max_density = 0.8;
      const double before = eval::hpwl(nl_, pl);
      gp::GlobalPlacer glue_placer = make_placer(opt, std::move(vars));
      const auto res = glue_placer.place(pl);
      report.gp_result.profile.merge(res.profile);
      util::Logger::debug(
          "glue gp: %zu cells, hpwl %.1f -> %.1f (%zu outers, overflow "
          "%.3f)",
          n, before, res.final_hpwl, res.trace.size(), res.final_overflow);
    };
    const auto stats = legalizer.run(pl_, glue_gp);
    if (stats.groups_fallback > 0) {
      util::Logger::warn("structure legalization: %zu groups fell back",
                         stats.groups_fallback);
    }
    report.hpwl_first_legal = eval::hpwl(nl_, pl_);
    report.legal_blocks = stats.groups_placed_as_blocks;
    report.legal_fallback = stats.groups_fallback;
    util::Logger::debug("legal1: hpwl=%.1f slice_disp=%.2f rest_disp=%.2f",
                        report.hpwl_first_legal,
                        stats.slices.avg_displacement(),
                        stats.rest.avg_displacement());
    log_group_boxes("post-legal1");
  }

  /// A global placer on the run's pool; a non-empty `area_scale` goes to
  /// its density model.
  gp::GlobalPlacer make_placer(const gp::GpOptions& options, gp::VarMap vars,
                               std::vector<double> area_scale = {}) const {
    gp::GlobalPlacer placer(nl_, design_, options, std::move(vars));
    placer.set_thread_pool(pool_);
    if (!area_scale.empty()) {
      placer.set_density_area_scale(std::move(area_scale));
    }
    return placer;
  }

  /// Options of a GP run continuing from the current placement: no
  /// quadratic start, no plateau stop.
  gp::GpOptions continuation(std::size_t max_outer,
                             double gamma_init_bins) const {
    gp::GpOptions opt = config_.gp;
    opt.run_quadratic_init = false;
    opt.max_outer = max_outer;
    opt.plateau_stall = 0;
    opt.gamma_init_bins = gamma_init_bins;
    return opt;
  }

  /// Timing-driven: re-derive criticality net weights every outer
  /// iteration of `placer`, at `strength_mult` times the configured
  /// strength.
  void install_timing_hook(gp::GlobalPlacer& placer, double strength_mult) {
    if (!config_.timing.driven || timing_ == nullptr) return;
    placer.set_outer_hook([this, strength_mult](
                              std::size_t, const netlist::Placement& cur,
                              gp::SmoothWirelength& wl) {
      timed([&] {
        timing_->analyze(cur);
        timing_->net_weight_scale(config_.timing.weight * strength_mult,
                                  config_.timing.crit_floor, timing_scale_);
        // Smooth across outer iterations: criticalities jump around while
        // the placement is still fluid, and chasing each snapshot makes
        // the objective non-stationary (costly in HPWL for little WNS).
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
    });
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

  void log_group_boxes(const char* stage) const {
    if (util::Logger::level() > util::LogLevel::kDebug) return;
    for (const auto& g : report.structure.groups) {
      geom::Rect box;
      for (netlist::CellId c : g.cells) {
        if (c != netlist::kInvalidId) box.expand(pl_[c]);
      }
      util::Logger::debug("%s %s: %.1fx%.1f at (%.1f, %.1f)", stage,
                          g.name.c_str(), box.width(), box.height(),
                          box.center().x, box.center().y);
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
  /// Density-model area factor per cell (structured flow only).
  std::vector<double> density_scale_;
  /// Each group's bit direction, fixed by the alignment term; the
  /// structured legalizer and detail placement both follow it.
  std::vector<bool> along_y_;
};

}  // namespace

StructurePlacer::StructurePlacer(const netlist::Netlist& nl,
                                 const netlist::Design& design,
                                 PlacerConfig config)
    : nl_(&nl), design_(&design), config_(std::move(config)) {}

PlaceReport StructurePlacer::place(netlist::Placement& pl,
                                   const netlist::StructureAnnotation* truth) {
  util::Timer total;
  RunContext run(*nl_, *design_, config_, pl);
  run.extract(truth);
  run.global_place();
  run.congestion();
  run.legalize();
  run.detail();
  run.finish(truth);
  run.report.t_total = total.seconds();
  return std::move(run.report);
}

}  // namespace dp::core
