#pragma once

#include <string>
#include <vector>

namespace dp::util {

/// ASCII table formatter used by every benchmark harness to print the
/// reconstructed paper tables/figure series in a uniform, diffable layout.
class Table {
 public:
  explicit Table(std::vector<std::string> headers);

  /// Append one row; must have the same arity as the header.
  void add_row(std::vector<std::string> cells);

  /// Convenience cell formatters.
  static std::string num(double v, int precision = 2);
  static std::string integer(long long v);
  static std::string pct(double fraction, int precision = 1);

  /// Render with column alignment (numbers right-aligned heuristically).
  std::string to_string() const;

  std::size_t rows() const { return rows_.size(); }

 private:
  std::vector<std::string> headers_;
  std::vector<std::vector<std::string>> rows_;
};

}  // namespace dp::util
