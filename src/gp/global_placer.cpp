#include "gp/global_placer.hpp"

#include <algorithm>
#include <cmath>

#include "eval/metrics.hpp"
#include "util/logger.hpp"
#include "util/timer.hpp"

namespace dp::gp {

namespace {

// The fixed schedule GpOptions documents.
constexpr std::size_t kInnerIters = 50;
constexpr double kInnerRelTol = 1e-4;
constexpr double kTargetDensity = 1.0;
constexpr double kLambdaInitFactor = 2.0;
constexpr double kLambdaMultiplier = 2.0;

/// Combines wirelength + lambda*density + extra terms into the flat
/// Objective interface consumed by the CG solver. Also clamps variables to
/// the core region before every evaluation (projected descent).
class CompositeObjective final : public Objective {
 public:
  CompositeObjective(const netlist::Design& design, const VarMap& vars,
                     const SmoothWirelength& wl, const DensityPenalty& den,
                     netlist::Placement& pl)
      : design_(&design), vars_(&vars), wl_(&wl), den_(&den), pl_(&pl) {}

  void set_lambda(double lambda) { lambda_ = lambda; }
  void set_extras(const std::vector<ExtraTerm>* extras,
                  const std::vector<double>* weights) {
    extras_ = extras;
    extra_weights_ = weights;
  }
  void set_profile(EvalProfile* profile) { profile_ = profile; }

  double eval(std::span<const double> v, std::span<double> grad) override {
    const double f = value(v);
    gradient(grad);
    return f;
  }

  /// Wirelength in full (its exps dominate value and gradient alike), the
  /// density value only, and every extra term in full with its gradient
  /// kept for gradient(); all at the core-clamped `v`.
  double value(std::span<const double> v) override {
    const std::size_t n = vars_->num_vars();
    // Project into the core (keeps the bell-shaped density well-defined).
    clamped_.assign(v.begin(), v.end());
    const geom::Rect& core = design_->core();
    for (std::size_t i = 0; i < n; ++i) {
      clamped_[i] = std::clamp(clamped_[i], core.lx, core.hx);
      clamped_[n + i] = std::clamp(clamped_[n + i], core.ly, core.hy);
    }
    vars_->scatter(clamped_, *pl_);

    util::Timer timer;
    gx_.assign(n, 0.0);
    gy_.assign(n, 0.0);
    double f = wl_->eval(*pl_, *vars_, gx_, gy_);
    if (profile_ != nullptr) {
      profile_->wirelength.add(timer.seconds());
      profile_->wirelength_exps += wl_->exp_calls();
    }

    timer.restart();
    f += lambda_ * den_->value(*pl_, *vars_);
    if (profile_ != nullptr) {
      profile_->density.add(timer.seconds());
      profile_->density_bins += den_->bins_visited();
      profile_->density_bells += den_->bells_evaluated();
    }

    const std::size_t num_extras = extras_ != nullptr ? extras_->size() : 0;
    extra_gx_.resize(num_extras);
    extra_gy_.resize(num_extras);
    for (std::size_t t = 0; t < num_extras; ++t) {
      const double w = (*extra_weights_)[t];
      if (w == 0.0) continue;
      timer.restart();
      extra_gx_[t].assign(n, 0.0);
      extra_gy_[t].assign(n, 0.0);
      f += w * (*extras_)[t].term->eval(*pl_, *vars_, extra_gx_[t],
                                        extra_gy_[t]);
      if (profile_ != nullptr) {
        profile_->extra((*extras_)[t].name).add(timer.seconds());
      }
    }
    return f;
  }

  /// Folds lambda * density gradient, then each weighted extra-term
  /// gradient kept by value(), into the wirelength gradient -- the order
  /// a single full evaluation has always used.
  void gradient(std::span<double> grad) override {
    const std::size_t n = vars_->num_vars();
    util::Timer timer;
    den_->gradient(gx_, gy_, lambda_);
    if (profile_ != nullptr) profile_->density.seconds += timer.seconds();

    for (std::size_t t = 0; t < extra_gx_.size(); ++t) {
      const double w = (*extra_weights_)[t];
      if (w == 0.0) continue;
      for (std::size_t i = 0; i < n; ++i) {
        gx_[i] += w * extra_gx_[t][i];
        gy_[i] += w * extra_gy_[t][i];
      }
    }

    for (std::size_t i = 0; i < n; ++i) {
      grad[i] = gx_[i];
      grad[n + i] = gy_[i];
    }
  }

 private:
  const netlist::Design* design_;
  const VarMap* vars_;
  const SmoothWirelength* wl_;
  const DensityPenalty* den_;
  netlist::Placement* pl_;
  double lambda_ = 0.0;
  const std::vector<ExtraTerm>* extras_ = nullptr;
  const std::vector<double>* extra_weights_ = nullptr;
  EvalProfile* profile_ = nullptr;
  std::vector<double> clamped_, gx_, gy_;
  /// Per extra term: its unweighted gradient from the last value().
  std::vector<std::vector<double>> extra_gx_, extra_gy_;
};

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

void GpResult::add_work(const GpResult& other) {
  total_cg_iterations += other.total_cg_iterations;
  total_evaluations += other.total_evaluations;
  for (std::size_t r = 0; r < kNumCgStops; ++r) {
    inner_stops[r] += other.inner_stops[r];
  }
  profile.merge(other.profile);
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

GpResult GlobalPlacer::place(netlist::Placement& pl) {
  GpResult result;
  if (vars_.num_vars() == 0) {
    result.final_hpwl = eval::hpwl(*nl_, pl);
    return result;
  }

  density_->preload_obstacles(pl, vars_);

  if (options_.run_quadratic_init) {
    quadratic_initial_placement(*nl_, *design_, vars_, pl);
  }

  CompositeObjective objective(*design_, vars_, *wirelength_, *density_,
                               pl);
  std::vector<double> extra_weights(extras_.size(), 0.0);
  objective.set_extras(&extras_, &extra_weights);
  objective.set_profile(&result.profile);

  std::vector<double> v = vars_.gather(pl);

  // Lambda normalization from the initial gradient ratio.
  const auto [wl_norm, den_norm] = probe_norms(*density_, pl);
  double lambda =
      den_norm > 0.0 ? kLambdaInitFactor * wl_norm / den_norm : 1.0;

  const double gamma0 = options_.gamma_init_bins * density_->bin_width();
  const double gamma1 = options_.gamma_final_bins * density_->bin_width();

  CgOptions cg;
  cg.rel_tol = kInnerRelTol;
  cg.step_ref = density_->bin_width();

  double overflow = density_->overflow(pl, vars_, kTargetDensity);

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
    objective.set_lambda(lambda);
    for (std::size_t t = 0; t < extras_.size(); ++t) {
      extra_weights[t] = extras_[t].weight ? extras_[t].weight(ctx) : 0.0;
    }

    cg.max_iters = overflow > kSpreadOverflow ? kSpreadInnerIters : kInnerIters;
    const CgResult inner = minimize_cg(objective, v, cg);
    result.total_cg_iterations += inner.iterations;
    result.total_evaluations += inner.evaluations;
    ++result.inner_stops[static_cast<std::size_t>(inner.stop)];
    result.profile.line_search.calls += inner.line_search_evals;
    result.profile.line_search.seconds += inner.line_search_seconds;
    result.profile.gradients += inner.gradient_evals;

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
    overflow = density_->overflow(pl, vars_, kTargetDensity);
    const double hp = eval::hpwl(*nl_, pl);
    result.trace.push_back({outer, hp, overflow, lambda, gamma,
                            inner.iterations, inner.evaluations, inner.stop});
    util::Logger::debug(
        "gp outer %zu: hpwl=%.1f overflow=%.4f lambda=%.3g cg=%zu evals=%zu "
        "stop=%s",
        outer, hp, overflow, lambda, inner.iterations, inner.evaluations,
        to_string(inner.stop));

    if (overflow <= options_.stop_overflow) break;
    lambda *= kLambdaMultiplier;
  }

  vars_.scatter(v, pl);
  result.final_hpwl = eval::hpwl(*nl_, pl);
  result.final_overflow = overflow;
  result.stop_reason = overflow <= options_.stop_overflow
                           ? GpStop::kOverflowReached
                           : GpStop::kOuterCap;
  return result;
}

}  // namespace dp::gp
