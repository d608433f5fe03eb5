#pragma once

#include <string>

#include "core/structure_placer.hpp"

namespace dp::core {

/// Schema version of report_to_json()'s output, emitted as its first
/// key. Bump on any breaking change (renamed or retyped keys), so
/// harvesting scripts can fail fast on stale expectations.
inline constexpr int kReportJsonSchemaVersion = 7;

/// Serialize a PlaceReport as a JSON object for scripted experiment
/// harvesting (`dpplace_cli --report-json`). Covers the quality numbers
/// (HPWL per stage, datapath HPWL, alignment), stage runtimes, GP's
/// counts and the seconds of its solver, quadratic start and per-outer
/// scans (gp::EvalProfile), legality
/// (including the overlap-sweep truncation flag), structure summary,
/// congestion and timing reports, and the phase-check summaries. Numbers
/// are emitted with enough digits to round-trip doubles; the leading
/// `schema_version` key carries kReportJsonSchemaVersion.
/// `nl`, when given, enriches the timing critical-path trace with cell
/// and port names (escaped via check::json_escape); without it the trace
/// carries pin ids only.
std::string report_to_json(const PlaceReport& report,
                           const netlist::Netlist* nl = nullptr);

}  // namespace dp::core
