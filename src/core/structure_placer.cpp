#include "core/structure_placer.hpp"

#include <algorithm>
#include <limits>
#include <memory>

#include "core/overlap.hpp"
#include "core/partition.hpp"

#include "legal/repair.hpp"
#include "route/congestion.hpp"
#include "util/logger.hpp"
#include "util/thread_pool.hpp"
#include "util/timer.hpp"

namespace dp::core {

StructurePlacer::StructurePlacer(const netlist::Netlist& nl,
                                 const netlist::Design& design,
                                 PlacerConfig config)
    : nl_(&nl), design_(&design), config_(std::move(config)) {}

PlaceReport StructurePlacer::place(netlist::Placement& pl,
                                   const netlist::StructureAnnotation* truth) {
  PlaceReport report;
  util::Timer total;
  util::Timer stage;

  // Every GpOptions copy taken below inherits the pipeline-level thread
  // count.
  config_.gp.num_threads = config_.num_threads;

  // Timing graph + analyzer, shared by the GP feedback hook, the detail
  // move guard, and the report measurements. The analyzer owns its own
  // pool: the GP outer hook runs outside the placer's fork-join regions,
  // so the two pools never nest.
  std::unique_ptr<timing::TimingGraph> timing_graph;
  std::unique_ptr<timing::TimingAnalyzer> timing_analyzer;
  if (config_.timing.enabled()) {
    util::Timer t;
    timing_graph = std::make_unique<timing::TimingGraph>(*nl_);
    timing_analyzer = std::make_unique<timing::TimingAnalyzer>(
        *timing_graph, config_.timing.model);
    timing_analyzer->set_thread_pool(
        std::make_shared<util::ThreadPool>(config_.num_threads));
    if (timing_graph->has_loops()) {
      util::Logger::warn(
          "timing: %zu pin(s) on or behind combinational loops excluded "
          "from analysis",
          timing_graph->loop_pins().size());
    }
    report.t_timing += t.seconds();
  }
  std::vector<double> timing_scale, timing_scale_ema;
  auto install_timing_hook = [&](gp::GlobalPlacer& placer,
                                 double strength_mult) {
    if (!config_.timing.driven || timing_analyzer == nullptr) return;
    placer.set_outer_hook([&, strength_mult](std::size_t outer,
                                             const netlist::Placement& cur,
                                             gp::SmoothWirelength& wl) {
      (void)outer;
      util::Timer t;
      timing_analyzer->analyze(cur);
      timing_analyzer->net_weight_scale(
          config_.timing.weight * strength_mult, config_.timing.crit_floor,
          timing_scale);
      // Smooth across outer iterations: criticalities jump around while
      // the placement is still fluid, and chasing each snapshot makes
      // the objective non-stationary (costly in HPWL for little WNS).
      constexpr double kBlend = 0.5;
      if (timing_scale_ema.size() != timing_scale.size()) {
        timing_scale_ema = timing_scale;
      } else {
        for (std::size_t n = 0; n < timing_scale.size(); ++n) {
          timing_scale_ema[n] = (1.0 - kBlend) * timing_scale_ema[n] +
                                kBlend * timing_scale[n];
        }
      }
      wl.set_net_weight_scale(timing_scale_ema);
      ++report.timing_reweights;
      report.t_timing += t.seconds();
    });
  };

  // Phase hooks: after each phase, run the rule families that phase is
  // responsible for, so corruption is caught where it was introduced. The
  // input placement is snapshotted as the fixed-cell immobility baseline.
  netlist::Placement fixed_reference;
  if (config_.check_level != check::CheckLevel::kOff) fixed_reference = pl;
  auto run_phase_checks = [&](const char* phase, unsigned categories,
                              double tolerance) {
    if (config_.check_level == check::CheckLevel::kOff) return;
    check::CheckContext ctx;
    ctx.netlist = nl_;
    ctx.design = design_;
    ctx.placement = &pl;
    ctx.structure =
        report.structure.groups.empty() ? nullptr : &report.structure;
    ctx.fixed_reference = &fixed_reference;
    ctx.tolerance = tolerance;
    const check::CheckSummary summary = check::run_checks(
        ctx, report.diagnostics, config_.check_level, categories);
    report.checks.push_back({phase, summary});
    if (summary.errors > 0) {
      util::Logger::warn("check[%s]: %zu error(s), %zu warning(s)", phase,
                         summary.errors, summary.warnings);
    }
  };

  // ---- phase 1: datapath structure ---------------------------------------
  if (config_.structure_aware) {
    if (config_.use_truth_structure && truth != nullptr) {
      report.structure = *truth;
    } else {
      auto ext = extract::extract_structures(*nl_, config_.extraction);
      report.structure = std::move(ext.annotation);
      report.extraction_seeds = ext.seeds_tried;
      report.extraction_seconds = ext.seconds;
    }
    report.structure =
        partition_groups(*nl_, *design_, report.structure, config_.partition);
    util::Logger::info("structure: %zu groups, %zu cells",
                       report.structure.groups.size(),
                       report.structure.total_cells());
  }
  report.t_extract = stage.seconds();
  run_phase_checks("extract",
                   check::kCatNetlist | check::kCatStructure |
                       check::kCatTiming,
                   1e-6);
  stage.restart();

  // ---- phase 2: global placement ------------------------------------------
  std::unique_ptr<AlignmentPenalty> alignment;
  std::vector<double> density_scale;
  const bool structured =
      config_.structure_aware && !report.structure.groups.empty();

  if (!structured) {
    gp::GlobalPlacer placer(*nl_, *design_, config_.gp);
    install_timing_hook(placer, 1.0);
    report.gp_result = placer.place(pl);
  } else {
    // Datapath cells are shrunk in the density model (they will legally
    // pack solid), so settled plates are density-neutral.
    double dp_scale = config_.datapath_density_scale;
    if (dp_scale <= 0.0) {
      dp_scale = nl_->movable_area() / design_->core().area();
    }
    density_scale.assign(nl_->num_cells(), 1.0);
    for (const auto& g : report.structure.groups) {
      for (netlist::CellId c : g.cells) {
        if (c != netlist::kInvalidId) density_scale[c] = dp_scale;
      }
    }

    // Phase A: plain spreading down to the activation overflow.
    gp::GpOptions opt_a = config_.gp;
    opt_a.stop_overflow = std::max(config_.gp.stop_overflow,
                                   config_.alignment_activation_overflow);
    gp::GlobalPlacer phase_a(*nl_, *design_, opt_a);
    phase_a.set_density_area_scale(density_scale);
    install_timing_hook(phase_a, 1.0);
    report.gp_result = phase_a.place(pl);

    // Phase B: alignment on from the start, weight normalized against the
    // wirelength force and doubled each outer iteration so the plates
    // converge to tight ordered arrays instead of stalling at a force
    // equilibrium.
    alignment = std::make_unique<AlignmentPenalty>(*nl_, report.structure,
                                                   *design_);
    gp::GpOptions opt_b = config_.gp;
    opt_b.run_quadratic_init = false;
    opt_b.max_outer = config_.align_outer;
    opt_b.plateau_stall = 0;
    opt_b.gamma_init_bins = 3.0;
    // Attenuated in phase B: the alignment/overlap schedules are
    // normalized against the wirelength force once at the start, and
    // strong reweighting under them makes the steering fight the plate
    // arrays (consistent HPWL blowups on the datapath-heavy designs).
    gp::GlobalPlacer phase_b(*nl_, *design_, opt_b);
    phase_b.set_density_area_scale(density_scale);
    install_timing_hook(phase_b, 0.3);

    // Both structure terms use the same schedule: normalized against the
    // wirelength force on first evaluation, then doubled per outer.
    auto make_schedule = [&pl](gp::GlobalPlacer& owner,
                               const gp::ObjectiveTerm& term, double w) {
      struct ScheduleState {
        bool normalized = false;
        double base = 0.0;
      };
      auto state = std::make_shared<ScheduleState>();
      auto* owner_ptr = &owner;
      auto* term_ptr = &term;
      auto* pl_ptr = &pl;
      return [state, owner_ptr, term_ptr, pl_ptr,
              w](const gp::TermContext& ctx) {
        if (!state->normalized) {
          const auto [wl_norm, term_norm] =
              owner_ptr->probe_norms(*term_ptr, *pl_ptr);
          state->base = term_norm > 0.0 ? w * wl_norm / term_norm : w;
          state->normalized = true;
        }
        const double ramp = std::min<double>(
            4096.0, std::pow(2.0, static_cast<double>(ctx.outer)));
        return state->base * ramp;
      };
    };

    PlateOverlapPenalty plate_overlap(*nl_, report.structure, *design_);
    phase_b.add_term({alignment.get(),
                      make_schedule(phase_b, *alignment,
                                    config_.alignment_weight),
                      "alignment"});
    phase_b.add_term({&plate_overlap,
                      make_schedule(phase_b, plate_overlap,
                                    config_.alignment_weight),
                      "overlap"});
    gp::GpResult res_b = phase_b.place(pl);

    const std::size_t offset = report.gp_result.trace.size();
    for (auto point : res_b.trace) {
      point.outer += offset;
      report.gp_result.trace.push_back(point);
    }
    report.gp_result.final_hpwl = res_b.final_hpwl;
    report.gp_result.final_overflow = res_b.final_overflow;
    report.gp_result.total_cg_iterations += res_b.total_cg_iterations;
    report.gp_result.total_evaluations += res_b.total_evaluations;
    report.gp_result.profile.merge(res_b.profile);
  }
  report.hpwl_gp = report.gp_result.final_hpwl;
  if (util::Logger::level() <= util::LogLevel::kDebug) {
    for (const auto& g : report.structure.groups) {
      geom::Rect box;
      for (netlist::CellId c : g.cells) {
        if (c != netlist::kInvalidId) box.expand(pl[c]);
      }
      util::Logger::debug("post-GP %s: %.1fx%.1f at (%.1f, %.1f)",
                          g.name.c_str(), box.width(), box.height(),
                          box.center().x, box.center().y);
    }
  }
  if (!report.structure.groups.empty()) {
    report.datapath_hpwl_gp = eval::datapath_hpwl(*nl_, pl, report.structure);
    report.alignment_gp =
        eval::alignment_score(*nl_, pl, report.structure).rms_misalignment;
  }
  report.t_gp = stage.seconds();
  if (timing_analyzer != nullptr) {
    util::Timer t;
    report.timing_measured = true;
    report.timing_gp = timing_analyzer->analyze(pl);
    report.t_timing += t.seconds();
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
    for (netlist::CellId c = 0; c < nl_->num_cells(); ++c) {
      if (nl_->cell(c).fixed) continue;
      max_half_extent = std::max(
          max_half_extent,
          std::max(nl_->cell_width(c), nl_->cell_height(c)) / 2.0);
    }
    run_phase_checks("gp", check::kCatGeometry, max_half_extent + 1e-6);
  }
  stage.restart();

  // ---- phase 2b: congestion estimation + cell-inflation refinement ---------
  report.hpwl_pre_refine = report.hpwl_gp;
  if (config_.congestion.enabled()) {
    const route::CongestionControl& cc = config_.congestion;
    route::CongestionMap cmap(*nl_, *design_, cc.map);
    cmap.set_thread_pool(
        std::make_shared<util::ThreadPool>(config_.num_threads));
    cmap.build(pl);
    report.congestion_measured = true;
    report.congestion_gp = cmap.report();
    util::Logger::info(
        "congestion (gp): peak=%.2f overflow=%.1f%% bins>cap=%zu/%zu",
        report.congestion_gp.peak, report.congestion_gp.overflow_frac * 100.0,
        report.congestion_gp.overflowed_bins,
        report.congestion_gp.bins * report.congestion_gp.bins);

    if (cc.refine) {
      // In the structure-aware flow the datapath plates keep the alignment
      // the GP phase bought: only glue cells inflate and re-spread, the
      // plates act as density obstacles.
      std::vector<bool> eligible(nl_->num_cells(), true);
      if (structured) {
        for (const auto& g : report.structure.groups) {
          for (netlist::CellId c : g.cells) {
            if (c != netlist::kInvalidId) eligible[c] = false;
          }
        }
      }
      std::vector<double> base = density_scale;
      if (base.empty()) base.assign(nl_->num_cells(), 1.0);
      std::vector<double> scale = base;

      // Acceptance is judged on a cheap legalized proxy of each candidate
      // (Abacus on a copy), not on the raw GP placement: legalization can
      // amplify or even invert a GP-stage improvement, and the 1% final-
      // HPWL budget only holds if the guard sees that amplification.
      auto proxy_eval = [&](const netlist::Placement& cand) {
        netlist::Placement copy = cand;
        legal::AbacusLegalizer proxy_legalizer(*nl_, *design_);
        proxy_legalizer.run_all(copy);
        cmap.build(copy);
        return std::make_pair(eval::hpwl(*nl_, copy), cmap.report());
      };
      const auto [proxy_hpwl0, proxy_rep0] = proxy_eval(pl);
      double best_proxy_peak = proxy_rep0.peak;

      route::CongestionReport cur = report.congestion_gp;
      const double hpwl_before = report.hpwl_gp;
      netlist::Placement accepted = pl;
      for (std::size_t iter = 0; iter < cc.max_iters; ++iter) {
        if (cur.peak <= cc.stop_peak) break;
        cmap.build(pl);
        const std::size_t grown = route::inflate_cells(
            *nl_, cmap, pl, cc.inflation, base, eligible, scale);
        if (grown == 0) break;

        gp::GpOptions opt = config_.gp;
        opt.run_quadratic_init = false;
        opt.max_outer = cc.spread_outer;
        opt.plateau_stall = 0;
        opt.gamma_init_bins = 2.0;
        // One-sided density: only bins pushed over the target by the
        // inflated cells spread; everything else stays at its wirelength
        // optimum, which keeps the HPWL price of congestion relief small.
        opt.one_sided_max_density = cc.spread_max_density;
        std::unique_ptr<gp::GlobalPlacer> spreader;
        if (structured) {
          std::vector<bool> mask(nl_->num_cells(), false);
          for (netlist::CellId c = 0; c < nl_->num_cells(); ++c) {
            mask[c] = !nl_->cell(c).fixed && eligible[c];
          }
          spreader = std::make_unique<gp::GlobalPlacer>(
              *nl_, *design_, opt, gp::VarMap(*nl_, mask));
        } else {
          spreader =
              std::make_unique<gp::GlobalPlacer>(*nl_, *design_, opt);
        }
        spreader->set_density_area_scale(scale);
        const gp::GpResult res = spreader->place(pl);
        report.gp_result.profile.merge(res.profile);

        cmap.build(pl);
        const route::CongestionReport after = cmap.report();
        const auto [proxy_hpwl, proxy_rep] = proxy_eval(pl);
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
        if (after.peak < cur.peak && within_budget) {
          best_proxy_peak = proxy_rep.peak;
          cur = after;
          accepted = pl;
          report.hpwl_gp = res.final_hpwl;
          report.congestion_inflated_cells += grown;
          ++report.congestion_refine_iters;
        } else {
          pl = accepted;
          break;
        }
      }
      pl = accepted;
      if (report.congestion_refine_iters > 0) {
        util::Logger::info(
            "congestion refine: %zu iteration(s), peak %.2f -> %.2f, "
            "gp hpwl %.1f -> %.1f",
            report.congestion_refine_iters, report.congestion_gp.peak,
            cur.peak, hpwl_before, report.hpwl_gp);
      }
    }
  }
  report.t_congestion = stage.seconds();
  stage.restart();

  // Each group's bit direction, fixed since the alignment term was built;
  // the structured legalizer and detail placement both follow it.
  std::vector<bool> along_y;
  if (alignment != nullptr) {
    along_y.resize(report.structure.groups.size());
    for (std::size_t g = 0; g < along_y.size(); ++g) {
      along_y[g] =
          alignment->orientation(g) == GroupOrientation::kBitsAlongY;
    }
  }

  // ---- phase 3: legalization ------------------------------------------------
  if (config_.structure_aware && alignment != nullptr &&
      config_.legalization == LegalizationMode::kGentle) {
    legal::AbacusLegalizer legalizer(*nl_, *design_);
    legalizer.run_all(pl);
    report.hpwl_first_legal = eval::hpwl(*nl_, pl);
  } else if (config_.structure_aware && alignment != nullptr) {
    legal::StructureLegalizer legalizer(*nl_, *design_, report.structure,
                                        along_y);
    // Between plate commitment and glue legalization, re-place the glue
    // with a dedicated global placement around the frozen plates: the
    // plates become exact density obstacles and wirelength anchors, so
    // the glue no longer needs to be evicted from plate footprints by the
    // legalizer.
    auto glue_gp = [this, &report](netlist::Placement& pl2,
                                   const std::vector<bool>& frozen) {
      std::vector<bool> mask(nl_->num_cells(), false);
      std::size_t n = 0;
      for (netlist::CellId c = 0; c < nl_->num_cells(); ++c) {
        if (!nl_->cell(c).fixed && !frozen[c]) {
          mask[c] = true;
          ++n;
        }
      }
      if (n == 0) return;
      gp::GpOptions opt = config_.gp;
      // Fresh quadratic start: the glue arrives scrambled by the alignment
      // phase; re-anchoring it to the frozen plates and pads lets the
      // nonlinear solve find a clean arrangement.
      opt.run_quadratic_init = true;
      opt.max_outer = config_.gp.max_outer;
      // The glue starts piled against its anchors; overflow improves only
      // after lambda has ramped for a while, so the plateau stop must be
      // off or it fires immediately.
      opt.plateau_stall = 0;
      // One-sided density: let the glue cluster at its wirelength optimum
      // in the channels between plates instead of being spread uniformly
      // over every pocket of free space.
      opt.one_sided_max_density = 0.8;
      const double before = eval::hpwl(*nl_, pl2);
      gp::GlobalPlacer glue_placer(*nl_, *design_, opt,
                                   gp::VarMap(*nl_, mask));
      const auto res = glue_placer.place(pl2);
      report.gp_result.profile.merge(res.profile);
      util::Logger::debug(
          "glue gp: %zu cells, hpwl %.1f -> %.1f (%zu outers, overflow %.3f)",
          n, before, res.final_hpwl, res.trace.size(), res.final_overflow);
    };
    auto stats = legalizer.run(pl, glue_gp);
    if (stats.groups_fallback > 0) {
      util::Logger::warn("structure legalization: %zu groups fell back",
                         stats.groups_fallback);
    }
    report.hpwl_first_legal = eval::hpwl(*nl_, pl);
    report.legal_blocks = stats.groups_placed_as_blocks;
    report.legal_fallback = stats.groups_fallback;
    if (util::Logger::level() <= util::LogLevel::kDebug) {
      util::Logger::debug("legal1: hpwl=%.1f slice_disp=%.2f rest_disp=%.2f",
                          report.hpwl_first_legal,
                          stats.slices.avg_displacement(),
                          stats.rest.avg_displacement());
      for (const auto& g : report.structure.groups) {
        geom::Rect box;
        for (netlist::CellId c : g.cells) {
          if (c != netlist::kInvalidId) box.expand(pl[c]);
        }
        util::Logger::debug("post-legal1 %s: %.1fx%.1f at (%.1f, %.1f)",
                            g.name.c_str(), box.width(), box.height(),
                            box.center().x, box.center().y);
      }
    }

    if (config_.refine) {
      // ---- phase 3b: rigid-body refinement ---------------------------------
      // Each legalized plate becomes one variable; a short placement run
      // re-optimizes plate positions and glue together, then a second
      // structure legalization snaps the (barely moved) plates back onto
      // rows. This recovers the wirelength disturbed by plate compaction.
      std::vector<std::vector<netlist::CellId>> bodies;
      bodies.reserve(report.structure.groups.size());
      for (const auto& g : report.structure.groups) {
        std::vector<netlist::CellId> body;
        for (netlist::CellId c : g.cells) {
          if (c != netlist::kInvalidId) body.push_back(c);
        }
        bodies.push_back(std::move(body));
      }
      gp::GpOptions refine_opt = config_.gp;
      refine_opt.run_quadratic_init = false;
      refine_opt.max_outer = config_.refine_outer;
      refine_opt.gamma_init_bins = 2.0;
      gp::GlobalPlacer refiner(*nl_, *design_, refine_opt,
                               gp::VarMap(*nl_, pl, bodies));
      if (!density_scale.empty()) {
        refiner.set_density_area_scale(density_scale);
      }
      // Keep the rigid plates from re-overlapping while they move.
      PlateOverlapPenalty refine_overlap(*nl_, report.structure, *design_);
      struct RefState {
        bool normalized = false;
        double base = 0.0;
      };
      auto ref_state = std::make_shared<RefState>();
      auto* refiner_ptr = &refiner;
      auto* overlap_ptr = &refine_overlap;
      auto* pl_ptr = &pl;
      const double w = config_.alignment_weight;
      refiner.add_term(
          {overlap_ptr,
           [ref_state, refiner_ptr, overlap_ptr, pl_ptr,
            w](const gp::TermContext& ctx) {
             if (!ref_state->normalized) {
               const auto [wl_norm, term_norm] =
                   refiner_ptr->probe_norms(*overlap_ptr, *pl_ptr);
               ref_state->base =
                   term_norm > 0.0 ? w * wl_norm / term_norm : w;
               ref_state->normalized = true;
             }
             return ref_state->base *
                    std::min<double>(
                        4096.0,
                        std::pow(2.0, static_cast<double>(ctx.outer)));
           },
           "overlap"});
      const gp::GpResult refine_res = refiner.place(pl);
      report.gp_result.profile.merge(refine_res.profile);

      legal::StructureLegalizer legalizer2(*nl_, *design_, report.structure,
                                           along_y);
      stats = legalizer2.run(pl);
      if (stats.groups_fallback > 0) {
        util::Logger::warn("refine legalization: %zu groups fell back",
                           stats.groups_fallback);
      }
    }
  } else if (config_.baseline_legalizer == BaselineLegalizer::kAbacus) {
    legal::AbacusLegalizer legalizer(*nl_, *design_);
    legalizer.run_all(pl);
  } else {
    legal::TetrisLegalizer legalizer(*nl_, *design_);
    legalizer.run_all(pl);
  }
  // Legality guarantee: whatever mode ran, overlaps and off-grid cells
  // are ripped up and re-placed into real free space.
  legal::repair_legality(*nl_, *design_, pl);
  if (util::Logger::level() <= util::LogLevel::kDebug) {
    const auto lr = eval::check_legality(*nl_, *design_, pl);
    util::Logger::debug("post-repair legality: ov=%zu row=%zu site=%zu out=%zu",
                        lr.overlaps, lr.off_row, lr.off_site, lr.out_of_core);
  }
  report.hpwl_legal = eval::hpwl(*nl_, pl);
  report.t_legal = stage.seconds();
  run_phase_checks("legal", check::kCatGeometry | check::kCatLegality, 1e-6);
  stage.restart();

  // ---- phase 4: detailed placement -----------------------------------------
  // Timing-driven: analyze the legalized placement and veto detail moves
  // whose weighted extra wire delay on critical nets exceeds the
  // tolerance. Criticalities are frozen at the post-legal analysis (the
  // detailer moves cells less than a row on average, so re-analysis per
  // move would buy little for its cost).
  detail::DetailOptions detail_opt = config_.detail;
  if (config_.timing.driven && timing_analyzer != nullptr) {
    util::Timer t;
    timing_analyzer->analyze(pl);
    report.t_timing += t.seconds();
    const double crit_floor = config_.timing.crit_floor;
    const double tolerance = config_.timing.guard_tolerance;
    const double per_unit = config_.timing.model.wire_delay_per_unit;
    detail_opt.move_guard =
        [this, &pl, analyzer = timing_analyzer.get(), crit_floor, tolerance,
         per_unit](std::span<const netlist::CellId> cells,
                   std::span<const geom::Point> centers) {
          const std::span<const double> crit = analyzer->net_criticality();
          auto moved_index = [&](netlist::CellId c) -> std::ptrdiff_t {
            for (std::size_t k = 0; k < cells.size(); ++k) {
              if (cells[k] == c) return static_cast<std::ptrdiff_t>(k);
            }
            return -1;
          };
          // Weighted wire-delay delta over the critical nets incident to
          // the moved cells (each net scored once).
          double delta = 0.0;
          std::vector<netlist::NetId> seen;
          for (const netlist::CellId c : cells) {
            for (const netlist::PinId p : nl_->cell(c).pins) {
              const netlist::NetId n = nl_->pin(p).net;
              if (n == netlist::kInvalidId || crit[n] < crit_floor) continue;
              if (std::find(seen.begin(), seen.end(), n) != seen.end()) {
                continue;
              }
              seen.push_back(n);
              const auto& net_pins = nl_->net(n).pins;
              if (net_pins.size() < 2) continue;
              const double inf = std::numeric_limits<double>::infinity();
              double olx = inf, ohx = -inf, oly = inf, ohy = -inf;
              double nlx = inf, nhx = -inf, nly = inf, nhy = -inf;
              for (const netlist::PinId q : net_pins) {
                const auto& pin = nl_->pin(q);
                const geom::Point old{pl[pin.cell].x + pin.offset_x,
                                      pl[pin.cell].y + pin.offset_y};
                olx = std::min(olx, old.x);
                ohx = std::max(ohx, old.x);
                oly = std::min(oly, old.y);
                ohy = std::max(ohy, old.y);
                geom::Point cand = old;
                const std::ptrdiff_t k = moved_index(pin.cell);
                if (k >= 0) {
                  cand = {centers[static_cast<std::size_t>(k)].x +
                              pin.offset_x,
                          centers[static_cast<std::size_t>(k)].y +
                              pin.offset_y};
                }
                nlx = std::min(nlx, cand.x);
                nhx = std::max(nhx, cand.x);
                nly = std::min(nly, cand.y);
                nhy = std::max(nhy, cand.y);
              }
              const double d_hpwl =
                  ((nhx - nlx) + (nhy - nly)) - ((ohx - olx) + (ohy - oly));
              delta += crit[n] * per_unit * d_hpwl;
            }
          }
          return delta <= tolerance + 1e-12;
        };
  }
  detail::DetailedPlacer detailer(*nl_, *design_);
  if (config_.structure_aware && alignment != nullptr) {
    report.detail_stats = detailer.run_structured(pl, report.structure,
                                                  along_y, detail_opt);
  } else {
    report.detail_stats = detailer.run(pl, detail_opt);
  }
  report.t_detail = stage.seconds();
  run_phase_checks("detail", check::kCatGeometry | check::kCatLegality, 1e-6);

  // ---- reporting -------------------------------------------------------------
  report.hpwl_final = eval::hpwl(*nl_, pl);
  report.legality = eval::check_legality(*nl_, *design_, pl);
  if (timing_analyzer != nullptr) {
    util::Timer t;
    report.timing = timing_analyzer->analyze(pl);
    report.t_timing += t.seconds();
    util::Logger::info(
        "timing (final): wns=%.2f tns=%.2f period=%.2f crit_delay=%.2f "
        "violations=%zu/%zu",
        report.timing.wns, report.timing.tns, report.timing.clock_period,
        report.timing.max_arrival, report.timing.violations,
        report.timing.endpoints);
  }
  if (config_.congestion.enabled()) {
    route::CongestionMap cmap(*nl_, *design_, config_.congestion.map);
    cmap.set_thread_pool(
        std::make_shared<util::ThreadPool>(config_.num_threads));
    cmap.build(pl);
    report.congestion = cmap.report();
  }
  const netlist::StructureAnnotation* for_eval =
      !report.structure.groups.empty() ? &report.structure : truth;
  if (for_eval != nullptr) {
    report.datapath_hpwl_final = eval::datapath_hpwl(*nl_, pl, *for_eval);
    report.alignment = eval::alignment_score(*nl_, pl, *for_eval);
  }
  report.t_total = total.seconds();
  return report;
}

}  // namespace dp::core
