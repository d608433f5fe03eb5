#include "util/table.hpp"

#include <algorithm>
#include <cassert>
#include <cstdio>
#include <sstream>

namespace dp::util {

Table::Table(std::vector<std::string> headers) : headers_(std::move(headers)) {}

void Table::add_row(std::vector<std::string> cells) {
  assert(cells.size() == headers_.size());
  rows_.push_back(std::move(cells));
}

std::string Table::num(double v, int precision) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.*f", precision, v);
  return buf;
}

std::string Table::integer(long long v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%lld", v);
  return buf;
}

std::string Table::pct(double fraction, int precision) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.*f%%", precision, fraction * 100.0);
  return buf;
}

namespace {

bool looks_numeric(const std::string& s) {
  if (s.empty()) return false;
  return s.find_first_not_of("0123456789.+-eE%x") == std::string::npos;
}

}  // namespace

std::string Table::to_string() const {
  std::vector<std::size_t> widths(headers_.size());
  for (std::size_t c = 0; c < headers_.size(); ++c) {
    widths[c] = headers_[c].size();
    for (const auto& row : rows_) {
      widths[c] = std::max(widths[c], row[c].size());
    }
  }

  std::ostringstream out;
  auto emit_row = [&](const std::vector<std::string>& cells, bool header) {
    out << '|';
    for (std::size_t c = 0; c < cells.size(); ++c) {
      const auto pad = widths[c] - cells[c].size();
      const bool right = !header && looks_numeric(cells[c]);
      out << ' ';
      if (right) out << std::string(pad, ' ');
      out << cells[c];
      if (!right) out << std::string(pad, ' ');
      out << " |";
    }
    out << '\n';
  };

  emit_row(headers_, /*header=*/true);
  out << '|';
  for (std::size_t w : widths) out << std::string(w + 2, '-') << '|';
  out << '\n';
  for (const auto& row : rows_) emit_row(row, /*header=*/false);
  return out.str();
}

}  // namespace dp::util
