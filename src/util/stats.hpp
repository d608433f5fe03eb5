#pragma once

#include <span>
#include <vector>

namespace dp::util {

/// Arithmetic mean; 0 for an empty sample.
double mean(std::span<const double> xs);

/// Population variance; 0 for samples of size < 2.
double variance(std::span<const double> xs);

/// Geometric mean; requires strictly positive values, 0 for empty input.
double geomean(std::span<const double> xs);

/// Linear-interpolated percentile, p in [0, 100].
double percentile(std::vector<double> xs, double p);

}  // namespace dp::util
