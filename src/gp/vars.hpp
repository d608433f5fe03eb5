#pragma once

#include <span>
#include <vector>

#include "netlist/netlist.hpp"

namespace dp::gp {

/// Maps between optimizer variables and the full Placement (all cells).
/// Every movable cell owns one (x, y) variable, in CellId order: variable
/// `v` belongs to `movable_cells()[v]`.
///
/// Fixed cells never have variables; they contribute to objectives through
/// their placement positions only.
class VarMap {
 public:
  explicit VarMap(const netlist::Netlist& nl) {
    var_of_.assign(nl.num_cells(), netlist::kInvalidId);
    for (netlist::CellId c = 0; c < nl.num_cells(); ++c) {
      if (!nl.cell(c).fixed) {
        var_of_[c] = static_cast<std::uint32_t>(movable_.size());
        movable_.push_back(c);
      }
    }
  }

  std::size_t num_vars() const { return movable_.size(); }

  /// The cell owning a variable.
  netlist::CellId cell(std::size_t var) const { return movable_[var]; }

  /// All cells with a variable, in variable order.
  std::span<const netlist::CellId> movable_cells() const { return movable_; }

  /// kInvalidId for fixed cells.
  std::uint32_t var(netlist::CellId cell) const { return var_of_[cell]; }
  bool is_movable(netlist::CellId cell) const {
    return var_of_[cell] != netlist::kInvalidId;
  }

  /// Copy variable vector (x0..xn-1, y0..yn-1) into the placement.
  void scatter(std::span<const double> vars, netlist::Placement& pl) const {
    const std::size_t n = num_vars();
    for (std::size_t v = 0; v < n; ++v) {
      pl[movable_[v]].x = vars[v];
      pl[movable_[v]].y = vars[n + v];
    }
  }

  /// Copy movable positions out of the placement into a variable vector.
  std::vector<double> gather(const netlist::Placement& pl) const {
    const std::size_t n = num_vars();
    std::vector<double> vars(2 * n);
    for (std::size_t v = 0; v < n; ++v) {
      vars[v] = pl[movable_[v]].x;
      vars[n + v] = pl[movable_[v]].y;
    }
    return vars;
  }

 private:
  std::vector<netlist::CellId> movable_;
  std::vector<std::uint32_t> var_of_;
};

/// One additive term of the global-placement objective, evaluated in two
/// steps, value() first and gradient() only when asked, as the solver's
/// Objective is.
class ObjectiveTerm {
 public:
  virtual ~ObjectiveTerm() = default;

  /// The term's value at `pl`. Keeps what a following gradient() needs.
  virtual double value(const netlist::Placement& pl,
                       const VarMap& vars) const = 0;

  /// Adds `scale` times d(term)/dx into gx and d/dy into gy, at the
  /// placement of the most recent value() call and indexed like that
  /// call's VarMap: one `g[v] += scale * d` per variable, so a scale of 1
  /// adds the gradient's bits.
  virtual void gradient(std::span<double> gx, std::span<double> gy,
                        double scale) const = 0;

  /// value() then gradient(gx, gy, 1): returns the value and adds the
  /// gradient into gx/gy.
  double eval(const netlist::Placement& pl, const VarMap& vars,
              std::span<double> gx, std::span<double> gy) const {
    const double f = value(pl, vars);
    gradient(gx, gy, 1.0);
    return f;
  }
};

}  // namespace dp::gp
