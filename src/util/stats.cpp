#include "util/stats.hpp"

namespace dp::util {

double variance(std::span<const double> xs) {
  if (xs.size() < 2) return 0.0;
  double sum = 0.0;
  for (double x : xs) sum += x;
  const double m = sum / static_cast<double>(xs.size());
  double acc = 0.0;
  for (double x : xs) acc += (x - m) * (x - m);
  return acc / static_cast<double>(xs.size());
}

}  // namespace dp::util
