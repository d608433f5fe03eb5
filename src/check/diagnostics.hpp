#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "netlist/netlist.hpp"

namespace dp::check {

/// How bad a finding is. Errors mean the data structure violates an
/// invariant some later phase relies on; warnings flag suspicious but
/// survivable shapes (e.g. an undriven net); notes are informational.
enum class Severity : std::uint8_t { kNote, kWarning, kError };

const char* to_string(Severity severity);

/// What a diagnostic points at.
enum class AnchorKind : std::uint8_t { kNone, kCell, kNet, kPin, kGroup };

/// A typed reference into the design: the cell/net/pin id or the index of
/// a structure group within its annotation.
struct Anchor {
  AnchorKind kind = AnchorKind::kNone;
  std::uint32_t id = netlist::kInvalidId;

  static Anchor none() { return {}; }
  static Anchor cell(netlist::CellId c) { return {AnchorKind::kCell, c}; }
  static Anchor net(netlist::NetId n) { return {AnchorKind::kNet, n}; }
  static Anchor pin(netlist::PinId p) { return {AnchorKind::kPin, p}; }
  static Anchor group(std::size_t g) {
    return {AnchorKind::kGroup, static_cast<std::uint32_t>(g)};
  }
};

/// One finding of one rule.
struct Diagnostic {
  Severity severity = Severity::kError;
  std::string rule;  ///< rule id, e.g. "legal.overlap"
  Anchor anchor;
  std::string message;
};

/// Collects diagnostics. Counts every report but retains at most
/// `max_retained` Diagnostic objects, so a catastrophically broken design
/// (every cell overlapping) cannot blow up memory.
class DiagnosticSink {
 public:
  explicit DiagnosticSink(std::size_t max_retained = 256)
      : max_retained_(max_retained) {}

  void report(Severity severity, std::string rule, Anchor anchor,
              std::string message);

  const std::vector<Diagnostic>& diagnostics() const { return diagnostics_; }

  std::size_t num_errors() const { return errors_; }
  std::size_t num_warnings() const { return warnings_; }
  std::size_t num_notes() const { return notes_; }
  std::size_t total() const { return errors_ + warnings_ + notes_; }
  /// Reports beyond the retention cap (counted but not stored).
  std::size_t dropped() const { return total() - diagnostics_.size(); }

  /// No errors (warnings/notes allowed).
  bool ok() const { return errors_ == 0; }
  /// Nothing at all was reported.
  bool clean() const { return total() == 0; }

  /// True iff any retained diagnostic came from `rule`.
  bool fired(const std::string& rule) const;

  void clear();

 private:
  std::size_t max_retained_;
  std::vector<Diagnostic> diagnostics_;
  std::size_t errors_ = 0;
  std::size_t warnings_ = 0;
  std::size_t notes_ = 0;
};

/// Human-readable anchor description ("cell 'dp0_fa3' (id 17)"); uses
/// names when `nl` is given, bare ids otherwise.
std::string describe(const Anchor& anchor, const netlist::Netlist* nl);

/// Compiler-style text report, one line per retained diagnostic plus a
/// summary line. `nl` (optional) resolves anchors to names.
std::string format_text(const DiagnosticSink& sink,
                        const netlist::Netlist* nl = nullptr);

/// Escape a string for embedding in a JSON double-quoted literal:
/// backslash, quote, and every control character below 0x20 (the ones
/// JSON forbids raw) are encoded. Shared by every JSON writer of the
/// library (format_json, core::report_to_json).
std::string json_escape(const std::string& s);

/// Machine-readable report: {"summary": {...}, "diagnostics": [...]}.
std::string format_json(const DiagnosticSink& sink,
                        const netlist::Netlist* nl = nullptr);

}  // namespace dp::check
