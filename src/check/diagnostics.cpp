#include "check/diagnostics.hpp"

#include <cstdio>
#include <sstream>

namespace dp::check {

const char* to_string(Severity severity) {
  switch (severity) {
    case Severity::kNote:
      return "note";
    case Severity::kWarning:
      return "warning";
    case Severity::kError:
      return "error";
  }
  return "?";
}

void DiagnosticSink::report(Severity severity, std::string rule, Anchor anchor,
                            std::string message) {
  switch (severity) {
    case Severity::kError:
      ++errors_;
      break;
    case Severity::kWarning:
      ++warnings_;
      break;
    case Severity::kNote:
      ++notes_;
      break;
  }
  if (diagnostics_.size() < max_retained_) {
    diagnostics_.push_back(
        {severity, std::move(rule), anchor, std::move(message)});
  }
}

bool DiagnosticSink::fired(const std::string& rule) const {
  for (const Diagnostic& d : diagnostics_) {
    if (d.rule == rule) return true;
  }
  return false;
}

void DiagnosticSink::clear() {
  diagnostics_.clear();
  errors_ = warnings_ = notes_ = 0;
}

std::string describe(const Anchor& anchor, const netlist::Netlist* nl) {
  std::ostringstream out;
  const bool named = nl != nullptr && anchor.id != netlist::kInvalidId;
  switch (anchor.kind) {
    case AnchorKind::kNone:
      out << "design";
      break;
    case AnchorKind::kCell:
      out << "cell ";
      if (named && anchor.id < nl->num_cells()) {
        out << "'" << nl->cell(anchor.id).name << "' ";
      }
      out << "(id " << anchor.id << ")";
      break;
    case AnchorKind::kNet:
      out << "net ";
      if (named && anchor.id < nl->num_nets()) {
        out << "'" << nl->net(anchor.id).name << "' ";
      }
      out << "(id " << anchor.id << ")";
      break;
    case AnchorKind::kPin:
      out << "pin (id " << anchor.id << ")";
      if (named && anchor.id < nl->num_pins()) {
        const netlist::Pin& p = nl->pin(anchor.id);
        if (p.cell < nl->num_cells()) {
          out << " on cell '" << nl->cell(p.cell).name << "'";
        }
      }
      break;
    case AnchorKind::kGroup:
      out << "group " << anchor.id;
      break;
  }
  return out.str();
}

std::string format_text(const DiagnosticSink& sink,
                        const netlist::Netlist* nl) {
  std::ostringstream out;
  for (const Diagnostic& d : sink.diagnostics()) {
    out << to_string(d.severity) << "[" << d.rule << "] "
        << describe(d.anchor, nl) << ": " << d.message << "\n";
  }
  if (sink.dropped() > 0) {
    out << "... " << sink.dropped() << " further diagnostics not shown\n";
  }
  out << sink.num_errors() << " error(s), " << sink.num_warnings()
      << " warning(s), " << sink.num_notes() << " note(s)\n";
  return out.str();
}

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

namespace {

const char* anchor_kind_name(AnchorKind kind) {
  switch (kind) {
    case AnchorKind::kNone:
      return "none";
    case AnchorKind::kCell:
      return "cell";
    case AnchorKind::kNet:
      return "net";
    case AnchorKind::kPin:
      return "pin";
    case AnchorKind::kGroup:
      return "group";
  }
  return "?";
}

}  // namespace

std::string format_json(const DiagnosticSink& sink,
                        const netlist::Netlist* nl) {
  std::ostringstream out;
  out << "{\"summary\":{\"errors\":" << sink.num_errors()
      << ",\"warnings\":" << sink.num_warnings()
      << ",\"notes\":" << sink.num_notes() << ",\"dropped\":" << sink.dropped()
      << "},\"diagnostics\":[";
  bool first = true;
  for (const Diagnostic& d : sink.diagnostics()) {
    if (!first) out << ",";
    first = false;
    out << "{\"severity\":\"" << to_string(d.severity) << "\",\"rule\":";
    out << '"' << json_escape(d.rule) << '"';
    out << ",\"anchor\":{\"kind\":\"" << anchor_kind_name(d.anchor.kind)
        << "\",\"id\":";
    if (d.anchor.id == netlist::kInvalidId) {
      out << "null";
    } else {
      out << d.anchor.id;
    }
    out << ",\"name\":";
    bool have_name = false;
    if (nl != nullptr && d.anchor.id != netlist::kInvalidId) {
      if (d.anchor.kind == AnchorKind::kCell && d.anchor.id < nl->num_cells()) {
        out << '"' << json_escape(nl->cell(d.anchor.id).name) << '"';
        have_name = true;
      } else if (d.anchor.kind == AnchorKind::kNet &&
                 d.anchor.id < nl->num_nets()) {
        out << '"' << json_escape(nl->net(d.anchor.id).name) << '"';
        have_name = true;
      }
    }
    if (!have_name) out << "null";
    out << "},\"message\":";
    out << '"' << json_escape(d.message) << '"';
    out << "}";
  }
  out << "]}";
  return out.str();
}

}  // namespace dp::check
