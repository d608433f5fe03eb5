#include "core/report_json.hpp"

#include <cmath>
#include <cstdio>
#include <sstream>

namespace dp::core {

namespace {

/// Doubles with enough digits to round-trip; NaN/inf become null (JSON
/// has no literal for them).
void append_number(std::ostringstream& out, double v) {
  if (!std::isfinite(v)) {
    out << "null";
    return;
  }
  const auto old_precision = out.precision(17);
  out << v;
  out.precision(old_precision);
}

void append_timing(std::ostringstream& out, const timing::TimingReport& t,
                   const netlist::Netlist* nl) {
  out << "{\"wns\":";
  append_number(out, t.wns);
  out << ",\"tns\":";
  append_number(out, t.tns);
  out << ",\"clock_period\":";
  append_number(out, t.clock_period);
  out << ",\"max_arrival\":";
  append_number(out, t.max_arrival);
  out << ",\"endpoints\":" << t.endpoints
      << ",\"violations\":" << t.violations << ",\"levels\":" << t.levels
      << ",\"loop_pins\":" << t.loop_pins << ",\"critical_path\":[";
  for (std::size_t i = 0; i < t.critical_path.size(); ++i) {
    const timing::PathNode& node = t.critical_path[i];
    if (i > 0) out << ",";
    out << "{\"pin\":" << node.pin;
    if (nl != nullptr && node.pin < nl->num_pins()) {
      const netlist::Pin& pin = nl->pin(node.pin);
      const netlist::CellType& type = nl->cell_type(pin.cell);
      out << ",\"cell\":\"" << json_escape(nl->cell(pin.cell).name)
          << "\",\"port\":\""
          << (pin.port < type.pins.size()
                  ? json_escape(type.pins[pin.port].name)
                  : std::to_string(pin.port))
          << "\"";
    }
    out << ",\"arrival\":";
    append_number(out, node.arrival);
    out << "}";
  }
  out << "]}";
}

void append_congestion(std::ostringstream& out,
                       const route::CongestionReport& c) {
  out << "{\"bins\":" << c.bins << ",\"peak\":";
  append_number(out, c.peak);
  out << ",\"peak_h\":";
  append_number(out, c.peak_h);
  out << ",\"peak_v\":";
  append_number(out, c.peak_v);
  out << ",\"overflow_total\":";
  append_number(out, c.overflow_total);
  out << ",\"overflow_frac\":";
  append_number(out, c.overflow_frac);
  out << ",\"overflowed_bins\":" << c.overflowed_bins << ",\"ace\":{\"0.5\":";
  append_number(out, c.ace_0_5);
  out << ",\"1\":";
  append_number(out, c.ace_1);
  out << ",\"2\":";
  append_number(out, c.ace_2);
  out << ",\"5\":";
  append_number(out, c.ace_5);
  out << "}}";
}

}  // namespace

std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\b':
        out += "\\b";
        break;
      case '\f':
        out += "\\f";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\r':
        out += "\\r";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

std::string report_to_json(const PlaceReport& report,
                           const netlist::Netlist* nl) {
  std::ostringstream out;
  out << "{\"schema_version\":" << kReportJsonSchemaVersion
      << ",\"hpwl\":{\"gp\":";
  append_number(out, report.hpwl_gp);
  out << ",\"first_legal\":";
  append_number(out, report.hpwl_first_legal);
  out << ",\"legal\":";
  append_number(out, report.hpwl_legal);
  out << ",\"final\":";
  append_number(out, report.hpwl_final);
  out << "},\"datapath_hpwl\":{\"gp\":";
  append_number(out, report.datapath_hpwl_gp);
  out << ",\"final\":";
  append_number(out, report.datapath_hpwl_final);
  out << "},\"alignment\":{\"gp_rms\":";
  append_number(out, report.alignment_gp);
  out << ",\"final_rms\":";
  append_number(out, report.alignment.rms_misalignment);
  out << ",\"worst_group\":";
  append_number(out, report.alignment.worst_group);
  out << "},\"runtime\":{\"extract\":";
  append_number(out, report.t_extract);
  out << ",\"gp\":";
  append_number(out, report.t_gp);
  out << ",\"congestion\":";
  append_number(out, report.t_congestion);
  out << ",\"timing\":";
  append_number(out, report.t_timing);
  out << ",\"legal\":";
  append_number(out, report.t_legal);
  out << ",\"detail\":";
  append_number(out, report.t_detail);
  out << ",\"total\":";
  append_number(out, report.t_total);
  out << "},\"legality\":{\"legal\":"
      << (report.legality.legal() ? "true" : "false")
      << ",\"overlaps\":" << report.legality.overlaps
      << ",\"off_row\":" << report.legality.off_row
      << ",\"off_site\":" << report.legality.off_site
      << ",\"out_of_core\":" << report.legality.out_of_core
      << ",\"total_overlap_area\":";
  append_number(out, report.legality.total_overlap_area);
  out << ",\"overlap_truncated\":"
      << (report.legality.overlap_truncated ? "true" : "false")
      << "},\"structure\":{\"groups\":" << report.structure.groups.size()
      << ",\"cells\":" << report.structure.total_cells()
      << ",\"extraction_seeds\":" << report.extraction_seeds
      << ",\"legal_blocks\":" << report.legal_blocks
      << ",\"legal_fallback\":" << report.legal_fallback
      << ",\"plate_overlap_gp\":";
  append_number(out, report.plate_overlap_gp);
  out << "},\"gp\":{\"final_overflow\":";
  append_number(out, report.gp_result.final_overflow);
  out << ",\"stop_reason\":\"" << gp::to_string(report.gp_result.stop_reason)
      << "\",\"outer_iterations\":" << report.gp_result.trace.size()
      << ",\"cg_iterations\":" << report.gp_result.total_cg_iterations
      << ",\"evaluations\":" << report.gp_result.total_evaluations
      << "},\"congestion\":";
  if (report.congestion_measured) {
    out << "{\"gp\":";
    append_congestion(out, report.congestion_gp);
    out << ",\"final\":";
    append_congestion(out, report.congestion);
    out << ",\"refine_iters\":" << report.congestion_refine_iters
        << ",\"inflated_cells\":" << report.congestion_inflated_cells << "}";
  } else {
    out << "null";
  }
  out << ",\"timing\":";
  if (report.timing_measured) {
    out << "{\"gp\":";
    append_timing(out, report.timing_gp, nl);
    out << ",\"final\":";
    append_timing(out, report.timing, nl);
    out << ",\"reweights\":" << report.timing_reweights << "}";
  } else {
    out << "null";
  }
  out << ",\"checks\":{\"run\":" << report.checks.size() << ",\"errors\":"
      << report.diagnostics.num_errors()
      << ",\"warnings\":" << report.diagnostics.num_warnings()
      << ",\"ok\":" << (report.checks_ok() ? "true" : "false") << "}}";
  return out.str();
}

}  // namespace dp::core
