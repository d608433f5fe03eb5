#include <gtest/gtest.h>

#include "netlist/structure.hpp"

namespace dp::netlist {
namespace {

TEST(StructureGroup, MakeInitializesHoles) {
  const auto g = StructureGroup::make("g", 4, 3);
  EXPECT_EQ(g.bits, 4u);
  EXPECT_EQ(g.stages, 3u);
  EXPECT_EQ(g.cells.size(), 12u);
  EXPECT_EQ(g.num_cells(), 0u);
  for (CellId c : g.cells) EXPECT_EQ(c, kInvalidId);
}

TEST(StructureGroup, AtIndexing) {
  auto g = StructureGroup::make("g", 2, 3);
  g.at(0, 0) = 10;
  g.at(1, 2) = 20;
  EXPECT_EQ(g.at(0, 0), 10u);
  EXPECT_EQ(g.at(1, 2), 20u);
  EXPECT_EQ(g.cells[0], 10u);
  EXPECT_EQ(g.cells[1 * 3 + 2], 20u);
  EXPECT_EQ(g.num_cells(), 2u);
}

TEST(StructureGroup, SliceSkipsHoles) {
  auto g = StructureGroup::make("g", 2, 3);
  g.at(0, 0) = 1;
  g.at(0, 2) = 3;
  const auto slice = g.slice(0);
  EXPECT_EQ(slice, (std::vector<CellId>{1, 3}));
  EXPECT_TRUE(g.slice(1).empty());
}

TEST(StructureGroup, StageSkipsHoles) {
  auto g = StructureGroup::make("g", 3, 2);
  g.at(0, 1) = 5;
  g.at(2, 1) = 7;
  EXPECT_EQ(g.stage(1), (std::vector<CellId>{5, 7}));
  EXPECT_TRUE(g.stage(0).empty());
}

TEST(StructureAnnotation, MembershipAndTotals) {
  StructureAnnotation ann;
  auto g = StructureGroup::make("g", 2, 2);
  g.at(0, 0) = 0;
  g.at(1, 1) = 3;
  ann.groups.push_back(g);
  EXPECT_EQ(ann.total_cells(), 2u);
  const auto member = ann.membership(5);
  EXPECT_TRUE(member[0]);
  EXPECT_FALSE(member[1]);
  EXPECT_TRUE(member[3]);
  EXPECT_FALSE(member[4]);
}

}  // namespace
}  // namespace dp::netlist
