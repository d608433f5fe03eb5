#pragma once

#include <string>

#include "netlist/problem.hpp"

namespace dp::netlist {

/// Writes `basename.nodes/.nets/.pl/.scl/.aux` in the GSRC Bookshelf
/// subset used by the ISPD placement contests. Fixed cells are emitted as
/// terminals. Coordinates written are cell lower-left corners, per the
/// format convention.
void write_bookshelf(const std::string& basename, const Netlist& netlist,
                     const Design& design, const Placement& placement);

/// Reads a Bookshelf design written by write_bookshelf (or any design in
/// the same subset of the format). Cell functions are kGeneric since the
/// format carries no logic information; `truth` is empty.
Problem read_bookshelf(const std::string& aux_path);

/// Sidecar format for structure annotations:
///   group <name> <bits> <stages> [<confidence>]
///   <bits rows of stages cell names each, "-" for holes>
void write_groups(const std::string& path, const Netlist& netlist,
                  const StructureAnnotation& annotation);

/// Reads a sidecar written by write_groups. Throws std::runtime_error
/// naming `groups: FILE:LINE` on a header whose bits or stages is not a
/// positive integer, a row without exactly `stages` entries, a group
/// without exactly `bits` rows, or an unknown cell.
StructureAnnotation read_groups(const std::string& path,
                                const Netlist& netlist);

}  // namespace dp::netlist
