#include "gp/global_placer.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>

#include "eval/metrics.hpp"
#include "geom/rect.hpp"
#include "netlist/flat_nets.hpp"
#include "util/logger.hpp"
#include "util/timer.hpp"

namespace dp::gp {

namespace {

// The fixed schedule GpOptions documents.
constexpr std::size_t kInnerIters = 50;
constexpr double kInnerRelTol = 3e-4;
constexpr double kTargetDensity = 1.0;
constexpr double kLambdaInitFactor = 2.0;

/// One term of the composite objective: its weight in the current outer
/// iteration and the profile entry its calls and time go to.
struct WeightedTerm {
  const ObjectiveTerm* term;
  double weight;
  TermProfile* profile;
};

/// Sums the weighted terms -- wirelength, density, then the extra terms --
/// into the flat Objective interface consumed by the Nesterov solver. Also
/// clamps variables to the core region before every evaluation (projected
/// descent). A term weighted 0 is skipped.
class CompositeObjective final : public Objective {
 public:
  CompositeObjective(const netlist::Design& design, const VarMap& vars,
                     netlist::Placement& pl, std::span<const WeightedTerm> terms,
                     const DensityPenalty& den, EvalProfile& profile)
      : design_(&design), vars_(&vars), pl_(&pl), terms_(terms), den_(&den),
        profile_(&profile) {}

  /// Every term's value and weighted gradient at the core-clamped `v`,
  /// one call each.
  double eval(std::span<const double> v, std::span<double> grad) override {
    const util::Timer eval_timer;
    const std::size_t n = vars_->num_vars();
    // Project into the core (keeps the bell-shaped density well-defined).
    const geom::Rect& core = design_->core();
    for (std::size_t i = 0; i < n; ++i) {
      geom::Point& p = (*pl_)[vars_->cell(i)];
      p.x = std::clamp(v[i], core.lx, core.hx);
      p.y = std::clamp(v[n + i], core.ly, core.hy);
    }

    std::fill(grad.begin(), grad.end(), 0.0);
    double f = 0.0;
    for (const WeightedTerm& t : terms_) {
      if (t.weight == 0.0) continue;
      const util::Timer timer;
      f += t.weight * t.term->eval(*pl_, *vars_, grad.first(n),
                                   grad.subspan(n), t.weight);
      t.profile->add(timer.seconds());
    }
    profile_->density_bins += den_->bins_visited();
    seconds_ += eval_timer.seconds();
    return f;
  }

  /// Wall time spent in eval() so far.
  double seconds() const { return seconds_; }

 private:
  const netlist::Design* design_;
  const VarMap* vars_;
  netlist::Placement* pl_;
  std::span<const WeightedTerm> terms_;
  const DensityPenalty* den_;
  EvalProfile* profile_;
  double seconds_ = 0.0;
};

/// eval::hpwl over the wirelength term's flat pin arrays: its nets are
/// those of two or more pins (a smaller net adds +0 to eval::hpwl's sum),
/// in NetId order, weighted by the netlist's weights rather than the
/// term's timing-scaled ones, so the sum has eval::hpwl's bits.
double flat_hpwl(const netlist::Netlist& nl, const netlist::FlatNets& f,
                 const netlist::Placement& pl) {
  double total = 0.0;
  for (std::size_t kn = 0; kn < f.num_nets(); ++kn) {
    geom::Rect box;
    for (std::uint32_t s = f.net_first[kn]; s < f.net_first[kn + 1]; ++s) {
      const geom::Point& c = pl[f.pin_cell[s]];
      box.expand(geom::Point{c.x + f.pin_dx[s], c.y + f.pin_dy[s]});
    }
    total += nl.net(f.net_id[kn]).weight * box.half_perimeter();
  }
  return total;
}

}  // namespace

const char* to_string(GpStop stop) {
  switch (stop) {
    case GpStop::kOverflowReached:
      return "overflow_reached";
    case GpStop::kOuterCap:
      return "outer_cap";
  }
  return "unknown";
}

GlobalPlacer::GlobalPlacer(const netlist::Netlist& nl,
                           const netlist::Design& design, GpOptions options)
    : nl_(&nl), design_(&design), options_(options), vars_(nl) {
  density_ = std::make_unique<DensityPenalty>(nl, design,
                                              options_.bins_per_side);
  const double gamma0 = options_.gamma_init_bins * density_->bin_width();
  wirelength_ =
      std::make_unique<SmoothWirelength>(nl, options_.wl_model, gamma0);
}

void GlobalPlacer::set_thread_pool(std::shared_ptr<util::ThreadPool> pool) {
  density_->set_thread_pool(pool);
  wirelength_->set_thread_pool(std::move(pool));
}

std::pair<double, double> GlobalPlacer::probe_norms(
    const ObjectiveTerm& term, const netlist::Placement& pl) const {
  const std::size_t n = vars_.num_vars();
  std::vector<double> gx(n, 0.0), gy(n, 0.0);
  wirelength_->eval(pl, vars_, gx, gy);
  double wl_norm = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    wl_norm += std::abs(gx[i]) + std::abs(gy[i]);
  }
  gx.assign(n, 0.0);
  gy.assign(n, 0.0);
  term.eval(pl, vars_, gx, gy);
  double term_norm = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    term_norm += std::abs(gx[i]) + std::abs(gy[i]);
  }
  return {wl_norm, term_norm};
}

GpResult GlobalPlacer::place(netlist::Placement& pl, GpResult so_far) {
  GpResult result = std::move(so_far);
  if (vars_.num_vars() == 0) {
    result.final_hpwl = eval::hpwl(*nl_, pl);
    return result;
  }

  density_->preload_obstacles(pl, vars_);

  const std::size_t first_outer = result.trace.size();
  if (first_outer == 0) {
    const util::Timer timer;
    quadratic_initial_placement(*nl_, *design_, vars_, wirelength_->nets(),
                                pl);
    result.profile.quadratic.add(timer.seconds());
  }

  std::vector<double> v = vars_.gather(pl);

  // The terms in summation order: wirelength (weight 1), density, extras.
  // Every extra's profile entry is created before any entry's address is
  // taken: they live in a vector.
  for (const ExtraTerm& e : extras_) result.profile.extra(e.name);
  std::vector<WeightedTerm> terms{
      {wirelength_.get(), 1.0, &result.profile.wirelength},
      {density_.get(), 0.0, &result.profile.density}};
  for (const ExtraTerm& e : extras_) {
    terms.push_back({e.term, 0.0, &result.profile.extra(e.name)});
  }
  CompositeObjective objective(*design_, vars_, pl, terms, *density_,
                               result.profile);

  // Terms 1.. weigh base * 2^outer. The density's base is normalized
  // here, before outer 0's hook: normalizing it after the hook, like the
  // extra terms', raised the routed mix25 GP from 413 to 531 evaluations
  // (+28.6%).
  std::vector<double> base(terms.size(), 0.0);
  const auto [wl_norm, den_norm] = probe_norms(*density_, pl);
  base[1] = den_norm > 0.0 ? kLambdaInitFactor * wl_norm / den_norm : 1.0;

  const double gamma0 = options_.gamma_init_bins * density_->bin_width();
  const double gamma1 = options_.gamma_final_bins * density_->bin_width();

  NesterovOptions solver;
  solver.rel_tol = kInnerRelTol;
  solver.step_ref = density_->bin_width();

  double overflow = 0.0;
  {
    const util::Timer timer;
    overflow = density_->overflow(pl, vars_, kTargetDensity);
    result.profile.outer_scans.add(timer.seconds());
  }

  for (std::size_t outer = 0; outer < options_.max_outer; ++outer) {
    const TermContext ctx{outer, overflow};
    if (outer_hook_) outer_hook_(ctx, pl, *wirelength_, *density_);
    const double frac =
        options_.max_outer > 1
            ? static_cast<double>(outer) /
                  static_cast<double>(options_.max_outer - 1)
            : 1.0;
    const double gamma = gamma0 * std::pow(gamma1 / gamma0, frac);
    wirelength_->set_gamma(gamma);
    for (std::size_t t = 1; t < terms.size(); ++t) {
      // Extra terms are normalized where the hook and gamma of outer 0
      // apply.
      if (outer == 0 && t >= 2) {
        const ExtraTerm& e = extras_[t - 2];
        const auto [wl, term_norm] = probe_norms(*e.term, pl);
        base[t] = term_norm > 0.0 ? e.factor * wl / term_norm : e.factor;
      }
      terms[t].weight = base[t] * std::pow(2.0, static_cast<double>(outer));
    }
    const double lambda = terms[1].weight;

    solver.max_iters =
        overflow > kSpreadOverflow ? kSpreadInnerIters : kInnerIters;
    const double eval_seconds = objective.seconds();
    const util::Timer solve_timer;
    const NesterovResult inner = minimize_nesterov(objective, v, solver);
    result.profile.solver.add(solve_timer.seconds() -
                              (objective.seconds() - eval_seconds));
    result.total_cg_iterations += inner.iterations;
    result.total_evaluations += inner.evaluations;

    // The objective evaluates a core-clamped copy of the variables; fold
    // that projection back into the iterate so positions (and the next
    // outer iteration's starting point) stay inside the core.
    {
      const std::size_t n = vars_.num_vars();
      const geom::Rect& core = design_->core();
      for (std::size_t i = 0; i < n; ++i) {
        v[i] = std::clamp(v[i], core.lx, core.hx);
        v[n + i] = std::clamp(v[n + i], core.ly, core.hy);
      }
    }

    vars_.scatter(v, pl);
    const util::Timer scan_timer;
    overflow = density_->overflow(pl, vars_, kTargetDensity);
    const double hp = flat_hpwl(*nl_, wirelength_->nets(), pl);
    result.profile.outer_scans.add(scan_timer.seconds());
    result.trace.push_back({first_outer + outer, hp, overflow, lambda,
                            gamma, inner.iterations, inner.evaluations,
                            inner.stop});
    util::Logger::debug(
        "gp outer %zu: hpwl=%.1f overflow=%.4f lambda=%.3g iters=%zu "
        "evals=%zu stop=%s",
        first_outer + outer, hp, overflow, lambda, inner.iterations, inner.evaluations,
        to_string(inner.stop));

    if (overflow <= options_.stop_overflow) break;
  }

  // The last outer scattered `v` into `pl` and measured it.
  result.final_hpwl = result.trace.size() > first_outer
                          ? result.trace.back().hpwl
                          : eval::hpwl(*nl_, pl);
  result.final_overflow = overflow;
  result.stop_reason = overflow <= options_.stop_overflow
                           ? GpStop::kOverflowReached
                           : GpStop::kOuterCap;
  return result;
}

}  // namespace dp::gp
