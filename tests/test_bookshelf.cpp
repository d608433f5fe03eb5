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
  const BookshelfDesign loaded = read_bookshelf(base_ + ".aux");
  EXPECT_EQ(loaded.netlist.num_cells(), bench_->netlist.num_cells());
  EXPECT_EQ(loaded.netlist.num_nets(), bench_->netlist.num_nets());
  EXPECT_EQ(loaded.netlist.num_pins(), bench_->netlist.num_pins());
  EXPECT_EQ(loaded.netlist.num_movable(), bench_->netlist.num_movable());
}

TEST_F(BookshelfRoundTrip, GeometryPreserved) {
  const BookshelfDesign loaded = read_bookshelf(base_ + ".aux");
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
  const BookshelfDesign loaded = read_bookshelf(base_ + ".aux");
  EXPECT_NEAR(eval::hpwl(loaded.netlist, loaded.placement),
              eval::hpwl(bench_->netlist, bench_->placement),
              1e-4 * eval::hpwl(bench_->netlist, bench_->placement) + 1e-6);
}

TEST_F(BookshelfRoundTrip, FixedFlagsPreserved) {
  const BookshelfDesign loaded = read_bookshelf(base_ + ".aux");
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
}

TEST(Bookshelf, GroupsUnknownCellThrows) {
  const auto bench = dpgen::make_benchmark("dp_add32");
  const std::string path = ::testing::TempDir() + "bad.groups";
  {
    std::ofstream out(path);
    out << "group g 1 1 1.0\n  not_a_cell\n";
  }
  EXPECT_THROW(read_groups(path, bench.netlist), std::runtime_error);
}

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

// Malformed .pl files: one node line is replaced. The reader must reject
// the file, naming it, the line, and what is wrong.
struct PlCase {
  const char* name;
  /// The replacement line; "%" stands for the node's own name.
  const char* line;
  const char* error;  ///< expected fragment of the message
};

class PlMalformed : public ::testing::TestWithParam<PlCase> {};

TEST_P(PlMalformed, RejectedWithFileAndLine) {
  const PlCase& pc = GetParam();
  const auto bench = dpgen::make_benchmark("dp_add32");
  const std::string base = ::testing::TempDir() + "bs_pl_" + pc.name;
  write_bookshelf(base, bench.netlist, bench.design, bench.placement);

  std::vector<std::string> lines;
  {
    std::ifstream in(base + ".pl");
    for (std::string line; std::getline(in, line);) lines.push_back(line);
  }
  // The last line places some node; keep its name for the replacement.
  ASSERT_GT(lines.size(), 2u);
  const std::size_t target = lines.size() - 1;
  const std::string node = lines[target].substr(0, lines[target].find(' '));
  std::string replacement = pc.line;
  if (const auto pct = replacement.find('%'); pct != std::string::npos) {
    replacement.replace(pct, 1, node);
  }
  lines[target] = replacement;
  {
    std::ofstream out(base + ".pl");
    for (const std::string& line : lines) out << line << "\n";
  }

  try {
    read_bookshelf(base + ".aux");
    FAIL() << "accepted .pl line '" << replacement << "'";
  } catch (const std::runtime_error& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("bs_pl_" + std::string(pc.name) + ".pl:" +
                       std::to_string(target + 1) + ":"),
              std::string::npos)
        << msg;
    EXPECT_NE(msg.find(pc.error), std::string::npos) << msg;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Bookshelf, PlMalformed,
    testing::Values(
        PlCase{"unknown_node", "no_such_cell 1 2 : N", "unknown node"},
        PlCase{"missing_y", "% 1", "expected 'name x y'"},
        PlCase{"not_a_number", "% 1x 2 : N", "expected 'name x y'"},
        PlCase{"nan_x", "% nan 2 : N", "non-finite"},
        PlCase{"inf_y", "% 1 -inf : N", "non-finite"}),
    [](const testing::TestParamInfo<PlCase>& param_info) {
      return std::string(param_info.param.name);
    });

}  // namespace
}  // namespace dp::netlist
