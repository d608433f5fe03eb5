#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <vector>

#include "dpgen/benchmarks.hpp"
#include "eval/metrics.hpp"
#include "netlist/bookshelf.hpp"

namespace dp::netlist {
namespace {

class BookshelfRoundTrip : public ::testing::Test {
 protected:
  void SetUp() override {
    bench_.emplace(dpgen::make_benchmark("dp_add32"));
    base_ = ::testing::TempDir() + "bs_test";
    write_bookshelf(base_, bench_->netlist, bench_->design,
                    bench_->placement);
  }

  std::optional<dpgen::Benchmark> bench_;
  std::string base_;
};

TEST_F(BookshelfRoundTrip, CountsPreserved) {
  const Problem loaded = read_bookshelf(base_ + ".aux");
  // The format carries no structure: the problem has no ground truth.
  EXPECT_TRUE(loaded.truth.groups.empty());
  EXPECT_EQ(loaded.netlist.num_cells(), bench_->netlist.num_cells());
  EXPECT_EQ(loaded.netlist.num_nets(), bench_->netlist.num_nets());
  EXPECT_EQ(loaded.netlist.num_pins(), bench_->netlist.num_pins());
  EXPECT_EQ(loaded.netlist.num_movable(), bench_->netlist.num_movable());
}

TEST_F(BookshelfRoundTrip, GeometryPreserved) {
  const Problem loaded = read_bookshelf(base_ + ".aux");
  EXPECT_EQ(loaded.design.num_rows(), bench_->design.num_rows());
  EXPECT_NEAR(loaded.design.core().width(), bench_->design.core().width(),
              1e-6);
  for (CellId c = 0; c < loaded.netlist.num_cells(); ++c) {
    EXPECT_NEAR(loaded.netlist.cell_width(c), bench_->netlist.cell_width(c),
                1e-9);
  }
}

TEST_F(BookshelfRoundTrip, HpwlPreserved) {
  // Pin offsets and positions both round-trip, so HPWL must match.
  const Problem loaded = read_bookshelf(base_ + ".aux");
  EXPECT_NEAR(eval::hpwl(loaded.netlist, loaded.placement),
              eval::hpwl(bench_->netlist, bench_->placement),
              1e-4 * eval::hpwl(bench_->netlist, bench_->placement) + 1e-6);
}

TEST_F(BookshelfRoundTrip, FixedFlagsPreserved) {
  const Problem loaded = read_bookshelf(base_ + ".aux");
  std::size_t fixed_in = 0, fixed_out = 0;
  for (const auto& c : bench_->netlist.cells()) fixed_in += c.fixed ? 1 : 0;
  for (const auto& c : loaded.netlist.cells()) fixed_out += c.fixed ? 1 : 0;
  EXPECT_EQ(fixed_in, fixed_out);
}

TEST_F(BookshelfRoundTrip, GroupsSidecarRoundTrips) {
  const std::string path = base_ + ".groups";
  write_groups(path, bench_->netlist, bench_->truth);
  const StructureAnnotation loaded = read_groups(path, bench_->netlist);
  ASSERT_EQ(loaded.groups.size(), bench_->truth.groups.size());
  for (std::size_t g = 0; g < loaded.groups.size(); ++g) {
    EXPECT_EQ(loaded.groups[g].bits, bench_->truth.groups[g].bits);
    EXPECT_EQ(loaded.groups[g].stages, bench_->truth.groups[g].stages);
    EXPECT_EQ(loaded.groups[g].cells, bench_->truth.groups[g].cells);
  }
}

TEST(Bookshelf, MissingFileThrows) {
  EXPECT_THROW(read_bookshelf("/nonexistent/foo.aux"), std::runtime_error);
  const auto bench = dpgen::make_benchmark("dp_add32");
  try {
    read_groups("/nonexistent/foo.groups", bench.netlist);
    FAIL() << "read a missing .groups file";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "groups: cannot read /nonexistent/foo.groups");
  }
}

// Malformed .groups sidecars. The reader must reject each, naming the file,
// the line it stopped at, and what is wrong; "%" stands for a real cell.
struct GroupsCase {
  const char* name;
  const char* text;
  int line;
  const char* error;  ///< expected fragment of the message
};

class MalformedGroups : public ::testing::TestWithParam<GroupsCase> {};

TEST_P(MalformedGroups, RejectedWithFileAndLine) {
  const GroupsCase& gc = GetParam();
  const auto bench = dpgen::make_benchmark("dp_add32");
  const std::string path =
      ::testing::TempDir() + "bad_" + gc.name + ".groups";
  std::string text = gc.text;
  for (auto pct = text.find('%'); pct != std::string::npos;
       pct = text.find('%')) {
    text.replace(pct, 1, bench.netlist.cell(0).name);
  }
  {
    std::ofstream out(path);
    out << text;
  }
  try {
    read_groups(path, bench.netlist);
    FAIL() << "accepted:\n" << text;
  } catch (const std::runtime_error& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("groups: " + path + ":" + std::to_string(gc.line) +
                       ": "),
              std::string::npos)
        << msg;
    EXPECT_NE(msg.find(gc.error), std::string::npos) << msg;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Bookshelf, MalformedGroups,
    testing::Values(
        // BITS x STAGES wraps to 0 in 64 bits.
        GroupsCase{"wrapping_header",
                   "group g 4611686018427387904 4 1\n  % - - -\n", 2,
                   "group g has 1 rows, expected 4611686018427387904"},
        GroupsCase{"non_numeric_header", "group g x y 1\n  %\n", 1,
                   "BITS of group g: expected a positive integer, got 'x'"},
        GroupsCase{"zero_stages", "group g 1 0 1\n", 1,
                   "STAGES of group g"},
        GroupsCase{"bad_confidence", "group g 1 1 high\n  %\n", 1,
                   "confidence of group g"},
        GroupsCase{"short_group",
                   "group g 2 1 1\n  %\n# next\ngroup h 1 1 1\n  -\n", 4,
                   "group g has 1 rows, expected 2"},
        GroupsCase{"long_group", "group g 1 1 1\n  %\n  -\n", 3,
                   "group g has more than 1 rows"},
        GroupsCase{"long_row", "group g 1 2 1\n  % - -\n", 2,
                   "row of group g has 3 cells, expected 2"},
        GroupsCase{"short_row", "group g 1 2 1\n  %\n", 2,
                   "row of group g has 1 cells, expected 2"},
        GroupsCase{"row_outside_group", "  %\n", 1, "row outside any group"},
        GroupsCase{"unknown_cell", "group g 1 1 1\n  not_a_cell\n", 2,
                   "unknown cell not_a_cell"}),
    [](const testing::TestParamInfo<GroupsCase>& param_info) {
      return std::string(param_info.param.name);
    });

// Malformed .nets files: one net's NetDegree disagrees with the pins
// listed under it. The reader must reject the file, naming the net and
// the file.
struct DegreeCase {
  const char* name;
  bool last_net;  ///< corrupt the last net (checked at end of file)
  int delta;      ///< added to the declared degree
};

class NetDegreeMismatch : public ::testing::TestWithParam<DegreeCase> {};

TEST_P(NetDegreeMismatch, RejectedWithNetAndFile) {
  const DegreeCase& dc = GetParam();
  const auto bench = dpgen::make_benchmark("dp_add32");
  const std::string base = ::testing::TempDir() + "bs_degree_" + dc.name;
  write_bookshelf(base, bench.netlist, bench.design, bench.placement);

  std::vector<std::string> lines;
  {
    std::ifstream in(base + ".nets");
    for (std::string line; std::getline(in, line);) lines.push_back(line);
  }
  std::vector<std::size_t> degree_lines;
  for (std::size_t i = 0; i < lines.size(); ++i) {
    if (lines[i].starts_with("NetDegree")) degree_lines.push_back(i);
  }
  ASSERT_FALSE(degree_lines.empty());
  std::string& target =
      lines[dc.last_net ? degree_lines.back() : degree_lines.front()];
  std::istringstream ls(target);
  std::string keyword, colon, net;
  int degree = 0;
  ls >> keyword >> colon >> degree >> net;
  target = "NetDegree : " + std::to_string(degree + dc.delta) + " " + net;
  {
    std::ofstream out(base + ".nets");
    for (const std::string& line : lines) out << line << "\n";
  }

  try {
    read_bookshelf(base + ".aux");
    FAIL() << "accepted NetDegree " << degree + dc.delta << " on net " << net;
  } catch (const std::runtime_error& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("'" + net + "'"), std::string::npos) << msg;
    EXPECT_NE(msg.find("bs_degree_" + std::string(dc.name) + ".nets"),
              std::string::npos)
        << msg;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Bookshelf, NetDegreeMismatch,
    testing::Values(DegreeCase{"first_too_high", false, 1},
                    DegreeCase{"first_too_low", false, -1},
                    DegreeCase{"last_too_high", true, 1},
                    DegreeCase{"last_too_low", true, -1}),
    [](const testing::TestParamInfo<DegreeCase>& param_info) {
      return std::string(param_info.param.name);
    });

// Malformed input files: one line of one file is replaced. The reader
// must reject the file, naming it, the line, and what is wrong.
struct MalformedCase {
  const char* name;
  const char* ext;  ///< the file to corrupt
  /// The last line starting with this is replaced (in a .scl, the last
  /// row's); null = the last line.
  const char* prefix;
  /// The replacement line; "%" stands for the line's first token (the
  /// node's name on node, pin and placement lines).
  const char* line;
  const char* error;  ///< expected fragment of the message
};

class Malformed : public ::testing::TestWithParam<MalformedCase> {};

TEST_P(Malformed, RejectedWithFileAndLine) {
  const MalformedCase& mc = GetParam();
  const auto bench = dpgen::make_benchmark("dp_add32");
  const std::string base = ::testing::TempDir() + "bs_bad_" + mc.name;
  write_bookshelf(base, bench.netlist, bench.design, bench.placement);
  const std::string path = base + mc.ext;

  std::vector<std::string> lines;
  {
    std::ifstream in(path);
    for (std::string line; std::getline(in, line);) lines.push_back(line);
  }
  ASSERT_GT(lines.size(), 2u);
  std::size_t target = lines.size() - 1;
  if (mc.prefix != nullptr) {
    while (target > 0 && !lines[target].starts_with(mc.prefix)) --target;
    ASSERT_TRUE(lines[target].starts_with(mc.prefix))
        << "no line starts with " << mc.prefix;
  }
  std::istringstream first(lines[target]);
  std::string token;
  first >> token;
  std::string replacement = mc.line;
  if (const auto pct = replacement.find('%'); pct != std::string::npos) {
    replacement.replace(pct, 1, token);
  }
  lines[target] = replacement;
  {
    std::ofstream out(path);
    for (const std::string& line : lines) out << line << "\n";
  }

  try {
    read_bookshelf(base + ".aux");
    FAIL() << "accepted " << mc.ext << " line '" << replacement << "'";
  } catch (const std::runtime_error& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("bs_bad_" + std::string(mc.name) + mc.ext + ":" +
                       std::to_string(target + 1) + ":"),
              std::string::npos)
        << msg;
    EXPECT_NE(msg.find(mc.error), std::string::npos) << msg;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Bookshelf, Malformed,
    testing::Values(
        MalformedCase{"pl_unknown_node", ".pl", nullptr,
                      "no_such_cell 1 2 : N", "unknown node"},
        MalformedCase{"pl_missing_y", ".pl", nullptr, "% 1",
                      "expected 'name x y'"},
        MalformedCase{"pl_not_a_number", ".pl", nullptr, "% 1x 2 : N",
                      "expected 'name x y'"},
        MalformedCase{"pl_nan_x", ".pl", nullptr, "% nan 2 : N",
                      "non-finite"},
        MalformedCase{"pl_inf_y", ".pl", nullptr, "% 1 -inf : N",
                      "non-finite"},
        MalformedCase{"nodes_zero_width", ".nodes", nullptr, "  % 0 1",
                      "width of node"},
        MalformedCase{"nodes_negative_height", ".nodes", nullptr,
                      "  % 1 -1", "height of node"},
        MalformedCase{"nodes_nan_width", ".nodes", nullptr, "  % nan 1",
                      "width of node"},
        MalformedCase{"nodes_inf_height", ".nodes", nullptr, "  % 1 inf",
                      "height of node"},
        MalformedCase{"nodes_missing_height", ".nodes", nullptr, "  % 1",
                      "height of node"},
        MalformedCase{"scl_zero_height", ".scl", "  Height",
                      "  Height : 0", "Height"},
        MalformedCase{"scl_nan_height", ".scl", "  Height",
                      "  Height : nan", "Height"},
        MalformedCase{"scl_negative_sitewidth", ".scl", "  Sitewidth",
                      "  Sitewidth : -1", "Sitewidth"},
        MalformedCase{"scl_inf_sitewidth", ".scl", "  Sitewidth",
                      "  Sitewidth : inf", "Sitewidth"},
        MalformedCase{"scl_zero_numsites", ".scl", "  SubrowOrigin",
                      "  SubrowOrigin : 0 NumSites : 0", "NumSites"},
        MalformedCase{"scl_bad_numsites", ".scl", "  SubrowOrigin",
                      "  SubrowOrigin : 0 NumSites : many", "NumSites"},
        MalformedCase{"scl_height_differs", ".scl", "  Height",
                      "  Height : 2", "Height 2 differs from the first row"},
        MalformedCase{"scl_sitewidth_differs", ".scl", "  Sitewidth",
                      "  Sitewidth : 0.5",
                      "Sitewidth 0.5 differs from the first row"},
        MalformedCase{"scl_origin_differs", ".scl", "  SubrowOrigin",
                      "  SubrowOrigin : 1 NumSites : 1",
                      "SubrowOrigin 1 differs from the first row"},
        MalformedCase{"scl_numsites_differs", ".scl", "  SubrowOrigin",
                      "  SubrowOrigin : 0 NumSites : 1",
                      "NumSites 1 differs from the first row"},
        MalformedCase{"scl_row_not_stacked", ".scl", "  Coordinate",
                      "  Coordinate : 1000", "not stacked on the row before"},
        MalformedCase{"scl_second_subrow", ".scl", nullptr,
                      "  SubrowOrigin : 0 NumSites : 1", "second subrow"},
        MalformedCase{"nets_unknown_node", ".nets", nullptr,
                      "  no_such_cell I : 0 0", "pin on unknown node"},
        MalformedCase{"nets_bad_direction", ".nets", nullptr,
                      "  % X : 0 0", "pin direction"},
        MalformedCase{"nets_missing_colon", ".nets", nullptr, "  % I 0 0",
                      "expected ':'"},
        MalformedCase{"nets_bad_x_offset", ".nets", nullptr,
                      "  % I : 0x 0", "pin x offset"},
        MalformedCase{"nets_missing_y_offset", ".nets", nullptr,
                      "  % O : 0.5", "pin y offset"},
        MalformedCase{"nets_nan_y_offset", ".nets", nullptr,
                      "  % O : 0.5 nan", "pin y offset"}),
    [](const testing::TestParamInfo<MalformedCase>& param_info) {
      return std::string(param_info.param.name);
    });

}  // namespace
}  // namespace dp::netlist
