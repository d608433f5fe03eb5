// Numeric flag values of the command-line tools (examples and benches).
#pragma once

#include <charconv>
#include <cmath>
#include <cstddef>
#include <stdexcept>
#include <string>
#include <string_view>
#include <type_traits>

namespace dp::util {

/// `text` as a number of type T: the whole token, finite and >= 0.
/// Throws std::invalid_argument naming `flag` otherwise.
template <typename T>
T parse_number(const std::string& flag, std::string_view text) {
  T value{};
  const auto [end, ec] =
      std::from_chars(text.data(), text.data() + text.size(), value);
  bool ok = !text.empty() && ec == std::errc() &&
            end == text.data() + text.size();
  if constexpr (std::is_floating_point_v<T>) {
    ok = ok && std::isfinite(value) && value >= 0.0;
  }
  if (!ok) {
    const char* expected = std::is_integral_v<T>
                               ? "a non-negative integer"
                               : "a finite non-negative number";
    throw std::invalid_argument(flag + ": expected " + expected + ", got '" +
                                std::string(text) + "'");
  }
  return value;
}

/// `text` as a count of at most `max`, rejected before anything is sized
/// by it. Throws std::invalid_argument naming `flag` otherwise.
inline std::size_t parse_count(const std::string& flag, std::string_view text,
                               std::size_t max) {
  const auto n = parse_number<std::size_t>(flag, text);
  if (n > max) {
    throw std::invalid_argument(flag + ": expected at most " +
                                std::to_string(max) + ", got '" +
                                std::string(text) + "'");
  }
  return n;
}

}  // namespace dp::util
