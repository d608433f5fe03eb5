#pragma once

#include <string>

#include "netlist/problem.hpp"

namespace dp::netlist {

/// Writes `basename.nodes/.nets/.pl/.scl/.aux` in the GSRC Bookshelf
/// subset used by the ISPD placement contests. Fixed cells are emitted as
/// terminals. Coordinates written are cell lower-left corners, per the
/// format convention. Throws std::runtime_error ("bookshelf: cannot write
/// PATH") when a file cannot be opened or written.
void write_bookshelf(const std::string& basename, const Netlist& netlist,
                     const Design& design, const Placement& placement);

/// Reads a Bookshelf design written by write_bookshelf (or any design in
/// the same subset of the format). Cell functions are kGeneric since the
/// format carries no logic information; `truth` is empty. Throws
/// std::runtime_error naming `bookshelf: FILE:LINE` on a malformed line,
/// a node listed twice in .nodes or positioned twice in .pl, and a
/// NumNodes, NumTerminals, NumNets or NumPins header that disagrees with
/// what its file lists.
Problem read_bookshelf(const std::string& aux_path);

/// Sidecar format for structure annotations:
///   group <name> <bits> <stages>
///   <bits rows of stages cell names each, "-" for holes>
/// read_groups also accepts, and ignores, the finite fourth header token
/// that sidecars from older writers carry. write_groups throws
/// std::runtime_error ("bookshelf: cannot write PATH") when `path` cannot
/// be opened or written.
void write_groups(const std::string& path, const Netlist& netlist,
                  const StructureAnnotation& annotation);

/// Reads a sidecar written by write_groups. Throws std::runtime_error
/// naming `groups: FILE:LINE` on a header whose bits or stages is not a
/// positive integer or whose legacy fourth token is not a finite number,
/// a row without exactly `stages` entries, a group without exactly `bits`
/// rows, or an unknown cell.
StructureAnnotation read_groups(const std::string& path,
                                const Netlist& netlist);

}  // namespace dp::netlist
