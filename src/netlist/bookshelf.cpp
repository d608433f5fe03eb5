#include "netlist/bookshelf.hpp"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <fstream>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <unordered_map>
#include <vector>

namespace dp::netlist {

namespace {

std::ofstream open_out(const std::string& path) {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("bookshelf: cannot write " + path);
  return out;
}

std::ifstream open_in(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("bookshelf: cannot read " + path);
  return in;
}

/// Strip comments and return whether any tokens remain. `line_no`, when
/// given, counts every line read.
bool next_content_line(std::istream& in, std::string& line,
                       std::size_t* line_no = nullptr) {
  while (std::getline(in, line)) {
    if (line_no != nullptr) ++*line_no;
    const auto hash = line.find('#');
    if (hash != std::string::npos) line.erase(hash);
    if (line.find_first_not_of(" \t\r\n") != std::string::npos) return true;
  }
  return false;
}

/// The whole of `token` as a double, "nan" and "inf" included.
bool parse_double(const std::string& token, double& value) {
  const char* end = token.data() + token.size();
  const auto [ptr, ec] = std::from_chars(token.data(), end, value);
  return !token.empty() && ec == std::errc() && ptr == end;
}

/// `value` as an error message prints it.
std::string fmt_number(double value) {
  std::ostringstream out;
  out << value;
  return out.str();
}

/// The content lines of one input file, counted so that errors name
/// FILE:LINE after `format`.
class LineReader {
 public:
  explicit LineReader(std::string path, std::string format = "bookshelf")
      : format_(std::move(format)), path_(std::move(path)), in_(path_) {
    if (!in_) throw std::runtime_error(format_ + ": cannot read " + path_);
  }

  bool next(std::string& line) {
    return next_content_line(in_, line, &line_no_);
  }

  [[noreturn]] void fail(const std::string& what) const {
    throw std::runtime_error(format_ + ": " + path_ + ":" +
                             std::to_string(line_no_) + ": " + what);
  }

  /// The next token of `ls` as a finite number, > 0 when `positive`;
  /// fails naming `what` otherwise.
  double number(std::istringstream& ls, const std::string& what,
                bool positive = false) const {
    std::string token;
    ls >> token;
    double value = 0.0;
    if (!parse_double(token, value) || !std::isfinite(value) ||
        (positive && value <= 0.0)) {
      fail(what + ": expected a finite" + (positive ? " positive" : "") +
           " number, got '" + token + "'");
    }
    return value;
  }

  /// The next token of `ls` as a positive integer; fails naming `what`
  /// otherwise.
  std::size_t count(std::istringstream& ls, const std::string& what) const {
    std::string token;
    ls >> token;
    std::size_t value = 0;
    const char* end = token.data() + token.size();
    const auto [ptr, ec] = std::from_chars(token.data(), end, value);
    if (token.empty() || ec != std::errc() || ptr != end || value == 0) {
      fail(what + ": expected a positive integer, got '" + token + "'");
    }
    return value;
  }

 private:
  std::string format_;
  std::string path_;
  std::ifstream in_;
  std::size_t line_no_ = 0;
};

}  // namespace

void write_bookshelf(const std::string& basename, const Netlist& netlist,
                     const Design& design, const Placement& placement) {
  {  // .aux references sibling files by bare name, per the format.
    const auto slash = basename.find_last_of('/');
    const std::string stem =
        slash == std::string::npos ? basename : basename.substr(slash + 1);
    auto out = open_out(basename + ".aux");
    out << "RowBasedPlacement : " << stem << ".nodes " << stem << ".nets "
        << stem << ".pl " << stem << ".scl\n";
  }
  {  // .nodes
    auto out = open_out(basename + ".nodes");
    out << "UCLA nodes 1.0\n";
    std::size_t terminals = 0;
    for (const Cell& c : netlist.cells()) terminals += c.fixed ? 1u : 0u;
    out << "NumNodes : " << netlist.num_cells() << "\n";
    out << "NumTerminals : " << terminals << "\n";
    for (CellId c = 0; c < netlist.num_cells(); ++c) {
      out << "  " << netlist.cell(c).name << " " << netlist.cell_width(c)
          << " " << netlist.cell_height(c)
          << (netlist.cell(c).fixed ? " terminal" : "") << "\n";
    }
  }
  {  // .nets
    auto out = open_out(basename + ".nets");
    out << "UCLA nets 1.0\n";
    out << "NumNets : " << netlist.num_nets() << "\n";
    out << "NumPins : " << netlist.num_pins() << "\n";
    for (NetId n = 0; n < netlist.num_nets(); ++n) {
      const Net& net = netlist.net(n);
      out << "NetDegree : " << net.pins.size() << " " << net.name << "\n";
      for (PinId p : net.pins) {
        const Pin& pin = netlist.pin(p);
        out << "  " << netlist.cell(pin.cell).name << " "
            << (pin.dir == PinDir::kOutput ? "O" : "I") << " : "
            << pin.offset_x << " " << pin.offset_y << "\n";
      }
    }
  }
  {  // .pl — lower-left corners per the format convention.
    auto out = open_out(basename + ".pl");
    out << "UCLA pl 1.0\n";
    for (CellId c = 0; c < netlist.num_cells(); ++c) {
      const double lx = placement[c].x - netlist.cell_width(c) / 2.0;
      const double ly = placement[c].y - netlist.cell_height(c) / 2.0;
      out << netlist.cell(c).name << " " << lx << " " << ly << " : N"
          << (netlist.cell(c).fixed ? " /FIXED" : "") << "\n";
    }
  }
  {  // .scl
    auto out = open_out(basename + ".scl");
    out << "UCLA scl 1.0\n";
    out << "NumRows : " << design.num_rows() << "\n";
    for (std::size_t r = 0; r < design.num_rows(); ++r) {
      const Row& row = design.row(r);
      const auto sites = static_cast<long long>(
          std::floor((row.hx - row.lx) / design.site_width()));
      out << "CoreRow Horizontal\n";
      out << "  Coordinate : " << row.y << "\n";
      out << "  Height : " << design.row_height() << "\n";
      out << "  Sitewidth : " << design.site_width() << "\n";
      out << "  Sitespacing : " << design.site_width() << "\n";
      out << "  SubrowOrigin : " << row.lx << " NumSites : " << sites << "\n";
      out << "End\n";
    }
  }
}

Problem read_bookshelf(const std::string& aux_path) {
  std::string nodes_path, nets_path, pl_path, scl_path;
  {
    auto in = open_in(aux_path);
    std::string line;
    if (!next_content_line(in, line)) {
      throw std::runtime_error("bookshelf: empty aux file");
    }
    std::istringstream ls(line);
    std::string tag, colon;
    ls >> tag >> colon;
    std::string file;
    const auto dir_end = aux_path.find_last_of('/');
    const std::string dir =
        dir_end == std::string::npos ? "" : aux_path.substr(0, dir_end + 1);
    while (ls >> file) {
      const std::string path = dir + file;
      if (file.ends_with(".nodes")) nodes_path = path;
      else if (file.ends_with(".nets")) nets_path = path;
      else if (file.ends_with(".pl")) pl_path = path;
      else if (file.ends_with(".scl")) scl_path = path;
    }
    if (nodes_path.empty() || nets_path.empty() || pl_path.empty() ||
        scl_path.empty()) {
      throw std::runtime_error("bookshelf: aux file missing sections");
    }
  }

  // Pass 1: node records; the library must be complete before the Netlist
  // is built, so nodes are staged first.
  struct RawNode {
    std::string name;
    double w = 0.0, h = 0.0;
    bool terminal = false;
  };
  std::vector<RawNode> raw_nodes;
  {
    LineReader in(nodes_path);
    std::string line;
    while (in.next(line)) {
      std::istringstream ls(line);
      std::string first;
      ls >> first;
      if (first == "UCLA" || first == "NumNodes" || first == "NumTerminals") {
        continue;
      }
      RawNode r;
      r.name = first;
      r.w = in.number(ls, "width of node " + first, true);
      r.h = in.number(ls, "height of node " + first, true);
      std::string tail;
      ls >> tail;
      r.terminal = (tail == "terminal");
      raw_nodes.push_back(std::move(r));
    }
  }

  // One generic type per distinct (width, height). Pin offsets come from
  // the .nets file, so the type's pin bank carries zero offsets.
  auto library = std::make_shared<Library>();
  std::unordered_map<long long, CellTypeId> type_by_size;
  auto size_key = [](double w, double h) {
    return static_cast<long long>(std::llround(w * 1e6)) * 1000003LL +
           static_cast<long long>(std::llround(h * 1e6));
  };
  for (const RawNode& r : raw_nodes) {
    const long long key = size_key(r.w, r.h);
    if (type_by_size.contains(key)) continue;
    CellType t;
    t.name = "GEN_" + std::to_string(type_by_size.size());
    t.func = CellFunc::kGeneric;
    t.width = r.w;
    t.height = r.h;
    type_by_size.emplace(key, library->add(std::move(t)));
  }

  NetlistBuilder builder{std::shared_ptr<const Library>(library)};
  struct NodeRec {
    CellId cell = kInvalidId;
    std::uint16_t next_port = 0;
  };
  std::unordered_map<std::string, NodeRec> by_name;
  by_name.reserve(raw_nodes.size());
  for (const RawNode& r : raw_nodes) {
    const CellId id = builder.add_cell(
        r.name, type_by_size.at(size_key(r.w, r.h)), r.terminal);
    by_name.emplace(r.name, NodeRec{id, 0});
  }

  // Pass 2: nets. Ports are appended to generic types on demand; since the
  // shared Library is owned by this reader until take(), extending its pin
  // banks before any connect() that uses them keeps indices valid.
  struct PendingOffset {
    PinId pin;
    double x, y;
  };
  std::vector<PendingOffset> offsets;
  {
    LineReader in(nets_path);
    std::string line;
    NetId current = kInvalidId;
    std::size_t net_count = 0;
    std::size_t degree = 0;
    // The pins listed under the current net must number its NetDegree.
    auto check_degree = [&] {
      if (current == kInvalidId) return;
      const Net& net = builder.peek().net(current);
      if (net.pins.size() == degree) return;
      throw std::runtime_error(
          "bookshelf: net '" + net.name + "' in " + nets_path +
          " declares NetDegree " + std::to_string(degree) + " but lists " +
          std::to_string(net.pins.size()) + " pin(s)");
    };
    while (in.next(line)) {
      std::istringstream ls(line);
      std::string first;
      ls >> first;
      if (first == "UCLA" || first == "NumNets" || first == "NumPins") {
        continue;
      }
      if (first == "NetDegree") {
        check_degree();
        std::string colon, name;
        degree = 0;
        ls >> colon >> degree >> name;
        if (name.empty()) name = "net_" + std::to_string(net_count);
        current = builder.add_net(name);
        ++net_count;
        continue;
      }
      if (current == kInvalidId) in.fail("pin before NetDegree");
      auto it = by_name.find(first);
      if (it == by_name.end()) in.fail("pin on unknown node " + first);
      // "name DIR [: x_offset y_offset]"
      std::string dir, colon;
      ls >> dir;
      if (dir != "I" && dir != "O" && dir != "B") {
        in.fail("pin direction of node " + first +
                ": expected I, O or B, got '" + dir + "'");
      }
      double ox = 0.0, oy = 0.0;
      if (ls >> colon) {
        if (colon != ":") in.fail("expected ':' after the pin direction");
        ox = in.number(ls, "pin x offset of node " + first);
        oy = in.number(ls, "pin y offset of node " + first);
      }
      NodeRec& rec = it->second;
      // Grow the generic type's pin bank if this instance needs more ports.
      const CellTypeId tid = builder.peek().cell(rec.cell).type;
      CellType& type = library->mutable_type(tid);
      while (type.pins.size() <= rec.next_port) {
        type.pins.push_back(
            {std::string("P").append(std::to_string(type.pins.size())),
             PinDir::kInput, 0.0, 0.0});
      }
      type.pins[rec.next_port].dir =
          (dir == "O") ? PinDir::kOutput : PinDir::kInput;
      const PinId pin = builder.connect(rec.cell, rec.next_port++, current);
      offsets.push_back({pin, ox, oy});
    }
    check_degree();
  }

  Netlist netlist = builder.take();
  for (const PendingOffset& o : offsets) {
    netlist.set_pin_offset(o.pin, o.x, o.y);
  }

  // Pass 3: .scl rows. A Design holds uniform full-width rows stacked
  // without gaps, so every row must repeat the first row's Height,
  // Sitewidth, SubrowOrigin and NumSites, sit directly on the row before
  // it, and hold one subrow.
  Design design;
  {
    LineReader in(scl_path);
    std::string line;
    double row_height = 1.0, site_width = 1.0, origin = 0.0, sites = 0.0;
    double y = 0.0, first_y = 0.0;
    std::size_t rows = 0, subrows = 0;
    // Sets `value` to `next`, which after the first row must not change it.
    auto same_as_first = [&](double& value, const char* what, double next) {
      if (rows > 0 && next != value) {
        in.fail(std::string(what) + " " + fmt_number(next) +
                " differs from the first row's " + fmt_number(value));
      }
      value = next;
    };
    while (in.next(line)) {
      std::istringstream ls(line);
      std::string first;
      ls >> first;
      std::string colon;
      if (first == "CoreRow") {
        subrows = 0;
      } else if (first == "Coordinate") {
        ls >> colon;
        y = in.number(ls, "Coordinate");
        const double want = first_y + static_cast<double>(rows) * row_height;
        const double tol = 1e-6 * std::max(row_height, std::abs(want));
        if (rows > 0 && std::abs(y - want) > tol) {
          in.fail("row at Coordinate " + fmt_number(y) +
                  " is not stacked on the row before it (expected " +
                  fmt_number(want) + ")");
        }
      } else if (first == "Height") {
        ls >> colon;
        same_as_first(row_height, "Height", in.number(ls, "Height", true));
      } else if (first == "Sitewidth") {
        ls >> colon;
        same_as_first(site_width, "Sitewidth",
                      in.number(ls, "Sitewidth", true));
      } else if (first == "SubrowOrigin") {
        if (++subrows > 1) in.fail("a second subrow in one row");
        std::string numsites;
        ls >> colon;
        same_as_first(origin, "SubrowOrigin", in.number(ls, "SubrowOrigin"));
        ls >> numsites >> colon;
        same_as_first(sites, "NumSites", in.number(ls, "NumSites", true));
        if (rows++ == 0) first_y = y;
      }
    }
    if (rows == 0) throw std::runtime_error("bookshelf: scl has no rows");
    design = Design({origin, first_y, origin + sites * site_width,
                     first_y + static_cast<double>(rows) * row_height},
                    row_height, site_width);
  }

  // Pass 4: .pl positions (convert lower-left corners to centers).
  Placement placement(netlist.num_cells());
  {
    LineReader in(pl_path);
    std::string line;
    while (in.next(line)) {
      std::istringstream ls(line);
      std::string name, xs, ys;
      ls >> name;
      if (name == "UCLA") continue;
      ls >> xs >> ys;
      double lx = 0.0, ly = 0.0;
      if (!parse_double(xs, lx) || !parse_double(ys, ly)) {
        in.fail("expected 'name x y', got '" + line + "'");
      }
      if (!std::isfinite(lx) || !std::isfinite(ly)) {
        in.fail("non-finite position of node " + name);
      }
      auto it = by_name.find(name);
      if (it == by_name.end()) in.fail("unknown node " + name);
      const CellId c = it->second.cell;
      placement[c] = {lx + netlist.cell_width(c) / 2.0,
                      ly + netlist.cell_height(c) / 2.0};
    }
  }

  return Problem{{}, std::move(netlist), std::move(design),
                 std::move(placement), {}};
}

void write_groups(const std::string& path, const Netlist& netlist,
                  const StructureAnnotation& annotation) {
  auto out = open_out(path);
  out << "# dpplace structure groups\n";
  for (const auto& g : annotation.groups) {
    out << "group " << g.name << " " << g.bits << " " << g.stages << " "
        << g.confidence << "\n";
    for (std::size_t b = 0; b < g.bits; ++b) {
      out << " ";
      for (std::size_t s = 0; s < g.stages; ++s) {
        const CellId c = g.at(b, s);
        out << " "
            << (c == kInvalidId ? std::string("-") : netlist.cell(c).name);
      }
      out << "\n";
    }
  }
}

StructureAnnotation read_groups(const std::string& path,
                                const Netlist& netlist) {
  std::unordered_map<std::string, CellId> by_name;
  for (CellId c = 0; c < netlist.num_cells(); ++c) {
    by_name.emplace(netlist.cell(c).name, c);
  }
  LineReader in(path, "groups");
  StructureAnnotation ann;
  // Rows read into the last group; its cells grow by one row at a time,
  // so nothing is sized from a header before its rows are seen.
  std::size_t rows = 0;
  auto expect_all_rows = [&] {
    if (ann.groups.empty()) return;
    const StructureGroup& g = ann.groups.back();
    if (rows != g.bits) {
      in.fail("group " + g.name + " has " + std::to_string(rows) +
              " rows, expected " + std::to_string(g.bits));
    }
  };
  std::string line;
  while (in.next(line)) {
    std::istringstream ls(line);
    std::string first;
    ls >> first;
    if (first == "group") {
      expect_all_rows();
      StructureGroup g;
      ls >> g.name;
      g.bits = in.count(ls, "BITS of group " + g.name);
      g.stages = in.count(ls, "STAGES of group " + g.name);
      if (std::string conf; ls >> conf) {
        if (!parse_double(conf, g.confidence) ||
            !std::isfinite(g.confidence)) {
          in.fail("confidence of group " + g.name +
                  ": expected a finite number, got '" + conf + "'");
        }
      }
      ann.groups.push_back(std::move(g));
      rows = 0;
      continue;
    }
    if (ann.groups.empty()) in.fail("row outside any group");
    StructureGroup& g = ann.groups.back();
    if (rows == g.bits) {
      in.fail("group " + g.name + " has more than " +
              std::to_string(g.bits) + " rows");
    }
    std::vector<std::string> tokens{first};
    for (std::string tok; ls >> tok;) tokens.push_back(tok);
    if (tokens.size() != g.stages) {
      in.fail("row of group " + g.name + " has " +
              std::to_string(tokens.size()) + " cells, expected " +
              std::to_string(g.stages));
    }
    for (const std::string& tok : tokens) {
      if (tok == "-") {
        g.cells.push_back(kInvalidId);
        continue;
      }
      const auto it = by_name.find(tok);
      if (it == by_name.end()) in.fail("unknown cell " + tok);
      g.cells.push_back(it->second);
    }
    ++rows;
  }
  expect_all_rows();
  return ann;
}

}  // namespace dp::netlist
