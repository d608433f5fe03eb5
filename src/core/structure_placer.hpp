#pragma once

#include <optional>

#include "check/rules.hpp"
#include "core/alignment.hpp"
#include "detail/detailed_placer.hpp"
#include "eval/metrics.hpp"
#include "extract/metrics.hpp"
#include "gp/global_placer.hpp"
#include "legal/abacus.hpp"
#include "route/inflation.hpp"
#include "timing/timing_analyzer.hpp"

namespace dp::core {

/// Kept only for `flowbench`, the end-to-end benchmark, which still names
/// both values. The structure-aware flow has one legalization: Abacus, then
/// repair_legality, then the detailer (kGentle). The template-block flow
/// (kStructured) is deleted; StructurePlacer rejects it.
enum class LegalizationMode {
  kStructured,
  kGentle,
};

/// Configuration of the full placement pipeline.
struct PlacerConfig {
  /// Master switch: false = structure-oblivious baseline flow
  /// (the NTUplace3-style placer alone), true = the paper's flow.
  bool structure_aware = true;

  gp::GpOptions gp;

  /// Worker threads of the run's one pool, shared by every global
  /// placement's gradient kernels, the timing analyzer and the congestion
  /// map (0 = hardware concurrency). Results are bitwise identical for any
  /// value (see gp::GlobalPlacer::set_thread_pool).
  std::size_t num_threads = 1;

  /// Weight factor of the alignment penalty once activated (see
  /// gp::ExtraTerm). Swept by the reconstructed Fig. 5 ablation.
  double alignment_weight = 0.5;
  /// Outer iterations of the alignment phase (phase B, which follows a
  /// plain spreading phase A down to overflow 0.5). The alignment
  /// weight doubles each outer, so this bounds the total ramp.
  std::size_t align_outer = 12;

  /// Use a provided ground-truth annotation instead of running extraction
  /// (extraction-oracle ablation).
  bool use_truth_structure = false;

  /// Kept only for `flowbench`, which still sets it: only kGentle is
  /// accepted (see LegalizationMode).
  LegalizationMode legalization = LegalizationMode::kGentle;

  /// Invariant checking between pipeline phases (see check::run_checks):
  /// kOff = no checking (default), kCheap = the linear-time rules after
  /// every phase, kFull = the whole catalog including the overlap sweep.
  /// Findings land in PlaceReport::checks / PlaceReport::diagnostics, so
  /// corruption is caught at the phase that introduced it.
  check::CheckLevel check_level = check::CheckLevel::kOff;

  /// Routing-congestion estimation and the optional routability inside
  /// global placement (see route::CongestionControl). Off by default; with
  /// `measure` set, PlaceReport::congestion_gp / congestion are filled;
  /// with `refine` set, the cells in overflowed RUDY bins inflate in the
  /// density model at a fixed overflow checkpoint of the GP, which then
  /// spreads them apart. In the structure-aware flow only glue cells
  /// inflate -- datapath plates keep the alignment the GP is buying.
  route::CongestionControl congestion;

  /// Static timing analysis and the timing-driven feedback loop (see
  /// timing::TimingControl). Off by default; with `measure` set,
  /// PlaceReport::timing_gp / timing are filled; with `driven` set, net
  /// criticality re-weights the smooth wirelength each GP outer iteration
  /// and a WNS-proxy guard filters detailed-placement moves.
  timing::TimingControl timing;
};

/// Invariant-check outcome of one pipeline phase hook.
struct PhaseCheck {
  std::string phase;  ///< "extract", "gp", "legal" or "detail"
  check::CheckSummary summary;
};

/// Per-stage runtimes and quality of one placement run.
struct PlaceReport {
  // Wirelength after each stage.
  double hpwl_gp = 0.0;
  double hpwl_legal = 0.0;
  double hpwl_final = 0.0;
  /// HPWL over nets touching a cell of `structure` (0 when it is empty).
  double datapath_hpwl_gp = 0.0;
  double datapath_hpwl_final = 0.0;
  /// Alignment RMS of `structure` after GP (before legalization snaps it).
  double alignment_gp = 0.0;

  // Stage runtimes (seconds).
  double t_extract = 0.0;
  double t_gp = 0.0;
  /// Post-GP estimation (0 when off); the in-GP inflation checkpoints
  /// are part of t_gp.
  double t_congestion = 0.0;
  double t_legal = 0.0;
  double t_detail = 0.0;
  double t_timing = 0.0;  ///< all timing analyses (0 when off)
  double t_total = 0.0;

  gp::GpResult gp_result;
  detail::DetailStats detail_stats;
  /// Always 0; kept only for `flowbench`, which still reads them.
  std::size_t legal_blocks = 0;
  std::size_t legal_fallback = 0;
  eval::LegalityReport legality;
  /// Final alignment of `structure`, the groups this run placed (0 if none).
  eval::AlignmentScore alignment;

  /// The structure annotation used (extracted, or truth if configured);
  /// empty in the baseline flow.
  netlist::StructureAnnotation structure;
  std::size_t extraction_seeds = 0;

  /// Routing congestion (filled when PlacerConfig::congestion is
  /// enabled): after global placement and on the final detailed placement.
  bool congestion_measured = false;
  route::CongestionReport congestion_gp;
  route::CongestionReport congestion;
  /// In-GP cell inflation (when congestion.refine is set): the overflow
  /// checkpoints that inflated cells (at most one), and the cells grown.
  std::size_t congestion_refine_iters = 0;
  std::size_t congestion_inflated_cells = 0;

  /// Static timing (filled when PlacerConfig::timing is enabled): after
  /// global placement and on the final detailed placement.
  bool timing_measured = false;
  timing::TimingReport timing_gp;
  timing::TimingReport timing;
  /// Criticality reweights applied across all GP outer iterations
  /// (timing-driven mode only).
  std::size_t timing_reweights = 0;

  /// Phase-hook check results, in pipeline order (empty when
  /// PlacerConfig::check_level == kOff).
  std::vector<PhaseCheck> checks;
  /// The diagnostics all phase hooks reported into.
  check::DiagnosticSink diagnostics;

  /// True iff no phase hook reported an error.
  bool checks_ok() const { return diagnostics.ok(); }
};

/// The complete structure-aware placement pipeline of the paper:
/// extraction -> alignment-augmented analytical global placement ->
/// row legalization (Abacus, then repair_legality) -> row-preserving
/// detailed placement. With `structure_aware = false` it degrades to the
/// plain analytical flow used as the baseline in every experiment.
class StructurePlacer {
 public:
  /// Throws std::invalid_argument when `config.legalization` is not
  /// kGentle: a removed flow fails loudly instead of running another.
  StructurePlacer(const netlist::Netlist& nl, const netlist::Design& design,
                  PlacerConfig config = {});

  /// Run the pipeline. `pl` must hold fixed-cell positions; movable
  /// positions are produced. `truth` is consumed only when
  /// `use_truth_structure` is set.
  PlaceReport place(netlist::Placement& pl,
                    const netlist::StructureAnnotation* truth = nullptr);

 private:
  const netlist::Netlist* nl_;
  const netlist::Design* design_;
  PlacerConfig config_;
};

}  // namespace dp::core
