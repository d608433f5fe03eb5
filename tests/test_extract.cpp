#include <gtest/gtest.h>

#include <set>

#include "dpgen/benchmarks.hpp"
#include "extract/extractor.hpp"
#include "extract/metrics.hpp"
#include "extract/signature.hpp"

namespace dp::extract {
namespace {

using netlist::CellId;
using netlist::kInvalidId;

TEST(Signature, EquivalentBitsShareSignature) {
  // Interior FA cells of a ripple-carry stage are structurally identical.
  dpgen::Generator gen("t", 50);
  auto a = gen.input_bus("a", 8);
  auto b = gen.input_bus("b", 8);
  gen.add_pipelined_adder("add", a, b, 1);
  const auto bench = gen.finish();
  const auto sig = cell_signatures(bench.netlist);
  const auto& g = bench.truth.groups[0];
  // Interior bits (not 0 or last, away from boundary effects).
  const auto s3 = sig[g.at(3, 0)];
  const auto s4 = sig[g.at(4, 0)];
  EXPECT_EQ(s3, s4);
  // An FA and a DFF never share a signature.
  EXPECT_NE(sig[g.at(3, 0)], sig[g.at(3, 1)]);
}

TEST(Signature, Deterministic) {
  const auto bench = dpgen::make_benchmark("dp_add32");
  EXPECT_EQ(cell_signatures(bench.netlist), cell_signatures(bench.netlist));
}

TEST(Signature, FanoutLimitMakesControlRailsNeutral) {
  // Signatures must not blow up on designs with big control nets.
  const auto bench = dpgen::make_benchmark("dp_rf16x32");
  const auto sig = cell_signatures(bench.netlist);
  EXPECT_EQ(sig.size(), bench.netlist.num_cells());
}

TEST(Extractor, CleanAdderFullyRecovered) {
  dpgen::Generator gen("t", 51);
  auto a = gen.input_bus("a", 16);
  auto b = gen.input_bus("b", 16);
  gen.add_pipelined_adder("add", a, b, 2);
  const auto bench = gen.finish();
  const auto result = extract_structures(bench.netlist);
  const auto q =
      compare_extraction(bench.netlist, result.annotation, bench.truth);
  EXPECT_DOUBLE_EQ(q.precision, 1.0);
  EXPECT_GT(q.recall, 0.7);
  EXPECT_GT(q.lane_accuracy, 0.95);
}

TEST(Extractor, PureGlueYieldsNothing) {
  dpgen::Generator gen("t", 52);
  gen.add_glue("g", 800, {});
  const auto bench = gen.finish();
  const auto result = extract_structures(bench.netlist);
  EXPECT_TRUE(result.annotation.groups.empty());
}

TEST(Extractor, NoCellInTwoGroups) {
  const auto bench = dpgen::make_benchmark("mix50");
  const auto result = extract_structures(bench.netlist);
  std::set<CellId> seen;
  for (const auto& g : result.annotation.groups) {
    for (CellId c : g.cells) {
      if (c == kInvalidId) continue;
      EXPECT_TRUE(seen.insert(c).second) << "duplicated cell " << c;
    }
  }
}

TEST(Extractor, NoCellTwiceWithinGroup) {
  const auto bench = dpgen::make_benchmark("dp_alu32");
  const auto result = extract_structures(bench.netlist);
  for (const auto& g : result.annotation.groups) {
    std::set<CellId> seen;
    for (CellId c : g.cells) {
      if (c == kInvalidId) continue;
      EXPECT_TRUE(seen.insert(c).second)
          << "cell " << c << " twice in group " << g.name;
    }
  }
}

TEST(Extractor, NeverClaimsFixedCells) {
  const auto bench = dpgen::make_benchmark("dp_add32");
  const auto result = extract_structures(bench.netlist);
  for (const auto& g : result.annotation.groups) {
    for (CellId c : g.cells) {
      if (c != kInvalidId) {
        EXPECT_FALSE(bench.netlist.cell(c).fixed);
      }
    }
  }
}

TEST(Extractor, Deterministic) {
  const auto bench = dpgen::make_benchmark("dp_mul16");
  const auto r1 = extract_structures(bench.netlist);
  const auto r2 = extract_structures(bench.netlist);
  ASSERT_EQ(r1.annotation.groups.size(), r2.annotation.groups.size());
  for (std::size_t i = 0; i < r1.annotation.groups.size(); ++i) {
    EXPECT_EQ(r1.annotation.groups[i].cells, r2.annotation.groups[i].cells);
  }
}

/// A `bits` x `stages` array: per lane an AND2 gated by one shared enable
/// net, followed by a chain of `stages - 1` inverters, between fixed pads.
/// The enable net is the only bus seed; each lane's pipeline nets are the
/// growth edges.
netlist::Netlist gated_array(std::size_t bits, std::size_t stages) {
  using netlist::CellFunc;
  using netlist::PinDir;
  netlist::NetlistBuilder b(netlist::standard_library());
  const netlist::NetId en = b.add_net("en");
  b.connect_dir(b.add_cell("pi_en", CellFunc::kPad, true), 0, en,
                PinDir::kOutput);
  for (std::size_t lane = 0; lane < bits; ++lane) {
    const std::string l = std::to_string(lane);
    netlist::NetId in = b.add_net("in" + l);
    b.connect_dir(b.add_cell("pi" + l, CellFunc::kPad, true), 0, in,
                  PinDir::kOutput);
    const CellId gate = b.add_cell("and" + l, CellFunc::kAnd2);
    b.connect(gate, "A", in);
    b.connect(gate, "B", en);
    in = b.add_net("s0_" + l);
    b.connect(gate, "Y", in);
    for (std::size_t s = 1; s < stages; ++s) {
      const CellId inv =
          b.add_cell("inv" + l + "_" + std::to_string(s), CellFunc::kInv);
      b.connect(inv, "A", in);
      in = b.add_net(std::string("s").append(std::to_string(s)) + "_" + l);
      b.connect(inv, "Y", in);
    }
    b.connect_dir(b.add_cell("po" + l, CellFunc::kPad, true), 0, in,
                  PinDir::kInput);
  }
  return b.take();
}

TEST(Extractor, GatedArrayIsExtracted) {
  const auto result = extract_structures(gated_array(4, 2));
  ASSERT_EQ(result.annotation.groups.size(), 1u);
  EXPECT_EQ(result.annotation.groups[0].bits, 4u);
  EXPECT_EQ(result.annotation.groups[0].stages, 2u);
}

TEST(Extractor, MinBitsRespected) {
  // Three lanes are one short of the 4-bit minimum.
  EXPECT_TRUE(extract_structures(gated_array(3, 2)).annotation.groups.empty());
}

TEST(Extractor, MinStagesRespected) {
  // One stage column is one short of the 2-stage minimum.
  EXPECT_TRUE(extract_structures(gated_array(8, 1)).annotation.groups.empty());
}

class SuiteExtraction : public ::testing::TestWithParam<std::string> {};

TEST_P(SuiteExtraction, PerfectPrecisionHighRecall) {
  const auto bench = dpgen::make_benchmark(GetParam());
  const auto result = extract_structures(bench.netlist);
  const auto q =
      compare_extraction(bench.netlist, result.annotation, bench.truth);
  if (bench.truth.groups.empty()) {
    EXPECT_EQ(q.cells_extracted, 0u);
    return;
  }
  EXPECT_DOUBLE_EQ(q.precision, 1.0) << GetParam();
  EXPECT_GT(q.recall, 0.7) << GetParam();
}

INSTANTIATE_TEST_SUITE_P(AllBenchmarks, SuiteExtraction,
                         ::testing::ValuesIn(dpgen::standard_benchmarks()));

TEST(Metrics, PerfectMatchScoresOne) {
  const auto bench = dpgen::make_benchmark("dp_add32");
  const auto q =
      compare_extraction(bench.netlist, bench.truth, bench.truth);
  EXPECT_DOUBLE_EQ(q.precision, 1.0);
  EXPECT_DOUBLE_EQ(q.recall, 1.0);
  EXPECT_DOUBLE_EQ(q.lane_accuracy, 1.0);
}

// A group whose slices run along truth stages is transposed; the truth
// itself has none, and its transpose (bits <-> stages) has all.
TEST(Metrics, CountsTransposedGroups) {
  const auto bench = dpgen::make_benchmark("mix50");
  EXPECT_EQ(
      compare_extraction(bench.netlist, bench.truth, bench.truth)
          .transposed_groups,
      0u);
  netlist::StructureAnnotation transposed;
  for (const auto& g : bench.truth.groups) {
    auto t = netlist::StructureGroup::make(g.name, g.stages, g.bits);
    for (std::size_t b = 0; b < g.bits; ++b) {
      for (std::size_t s = 0; s < g.stages; ++s) t.at(s, b) = g.at(b, s);
    }
    transposed.groups.push_back(std::move(t));
  }
  const auto q = compare_extraction(bench.netlist, transposed, bench.truth);
  EXPECT_GT(q.groups_found, 1u);
  EXPECT_EQ(q.transposed_groups, q.groups_found);
  // Lane accuracy cannot tell the transpose from the truth.
  EXPECT_DOUBLE_EQ(q.lane_accuracy, 1.0);
}

TEST(Metrics, EmptyExtractionScoresZeroRecall) {
  const auto bench = dpgen::make_benchmark("dp_add32");
  const netlist::StructureAnnotation empty;
  const auto q = compare_extraction(bench.netlist, empty, bench.truth);
  EXPECT_DOUBLE_EQ(q.recall, 0.0);
  EXPECT_EQ(q.groups_found, 0u);
}

}  // namespace
}  // namespace dp::extract
