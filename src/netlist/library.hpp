#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace dp::netlist {

/// Logic function of a standard cell. The extractor fingerprints cells by
/// function, and the datapath generator instantiates these; the set mirrors
/// a small industrial library (plus PAD for fixed I/O terminals).
enum class CellFunc : std::uint8_t {
  kInv,
  kBuf,
  kNand2,
  kNor2,
  kAnd2,
  kOr2,
  kXor2,
  kXnor2,
  kAnd3,
  kOr3,
  kNand3,
  kNor3,
  kAoi21,
  kOai21,
  kMux2,
  kHalfAdder,
  kFullAdder,
  kDff,
  kPad,
  /// Function-less cell, used for netlists imported from Bookshelf files
  /// (the format carries geometry and connectivity but no logic function).
  kGeneric,
};

const char* to_string(CellFunc func);

enum class PinDir : std::uint8_t { kInput, kOutput };

/// One pin of a cell *type* (the template); instances get Pin objects.
struct PinSpec {
  std::string name;
  PinDir dir = PinDir::kInput;
  /// Offset of the pin from the cell center, in database units.
  double offset_x = 0.0;
  double offset_y = 0.0;
};

using CellTypeId = std::uint32_t;

/// A standard-cell master: geometry plus pin templates.
struct CellType {
  std::string name;
  CellFunc func = CellFunc::kInv;
  double width = 1.0;   ///< database units
  double height = 1.0;  ///< database units (== row height for core cells)
  std::vector<PinSpec> pins;

  /// Index of the (single) output pin in `pins`, or -1 for PAD-style types.
  int output_pin = -1;
};

/// An immutable collection of cell types, indexed by CellTypeId.
class Library {
 public:
  CellTypeId add(CellType type);

  const CellType& type(CellTypeId id) const { return types_[id]; }
  /// Mutable access for library construction (e.g. file readers growing a
  /// generic type's pin bank). Not exposed through const Library&.
  CellType& mutable_type(CellTypeId id) { return types_[id]; }
  std::size_t size() const { return types_.size(); }

  /// Lookup by function; every function appears at most once in the
  /// standard library. Returns the id, or throws std::out_of_range.
  CellTypeId by_func(CellFunc func) const;

 private:
  std::vector<CellType> types_;
};

/// The built-in library used by the benchmark generator. Row height is 1.0;
/// widths are in sites of 0.25 units (INV = 3 sites, FA = 10 sites, ...).
const Library& standard_library();

/// Row height shared by all core cells in the standard library.
inline constexpr double kRowHeight = 1.0;
/// Placement site width used by the standard library.
inline constexpr double kSiteWidth = 0.25;

}  // namespace dp::netlist
