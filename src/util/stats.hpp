#pragma once

#include <span>

namespace dp::util {

/// Population variance; 0 for samples of size < 2.
double variance(std::span<const double> xs);

}  // namespace dp::util
