#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "check/rules.hpp"
#include "core/structure_placer.hpp"
#include "dpgen/benchmarks.hpp"
#include "netlist/library.hpp"

namespace dp::check {
namespace {

using netlist::CellFunc;
using netlist::CellId;
using netlist::NetlistSurgeon;
using netlist::PinDir;
using netlist::Placement;

/// A tiny, fully healthy design: one driving pad outside the core plus
/// two chained inverters, legally placed, annotated as a 1x2 group. Every
/// corruption test starts from this and breaks exactly one invariant.
struct LintBench {
  LintBench() {
    netlist::NetlistBuilder b(netlist::standard_library());
    pad = b.add_cell("pad", CellFunc::kPad, true);
    c1 = b.add_cell("c1", CellFunc::kInv);
    c2 = b.add_cell("c2", CellFunc::kInv);
    n1 = b.add_net("n1");
    b.connect_dir(pad, 0, n1, PinDir::kOutput);
    b.connect(c1, "A", n1);
    n2 = b.add_net("n2");
    b.connect(c1, "Y", n2);
    b.connect(c2, "A", n2);
    nl.emplace(b.take());
    design.emplace(geom::Rect{0, 0, 10, 4}, 1.0, 0.25);

    pl.assign(3, {});
    pl[pad] = {-1.0, 2.0};  // pads ring the outside of the core
    pl[c1] = at_site(1, 0);
    pl[c2] = at_site(12, 1);

    auto g = netlist::StructureGroup::make("g", 1, 2);
    g.at(0, 0) = c1;
    g.at(0, 1) = c2;
    ann.groups.push_back(std::move(g));
  }

  /// Center of an INV whose left edge is on site `site` of row `row`.
  geom::Point at_site(int site, int row) const {
    return {0.25 * site + nl->cell_width(c1) / 2.0, row + 0.5};
  }

  CheckContext ctx() {
    CheckContext c;
    c.netlist = &*nl;
    c.design = &*design;
    c.placement = &pl;
    c.structure = &ann;
    return c;
  }

  /// Run the full catalog and return the sink.
  DiagnosticSink lint(CheckLevel level = CheckLevel::kFull,
                      unsigned categories = kCatAll) {
    DiagnosticSink sink;
    run_checks(ctx(), sink, level, categories);
    return sink;
  }

  CellId pad, c1, c2;
  netlist::NetId n1, n2;
  std::optional<netlist::Netlist> nl;
  std::optional<netlist::Design> design;
  Placement pl;
  netlist::StructureAnnotation ann;
};

TEST(Checker, CleanDesignNoDiagnostics) {
  LintBench lb;
  const auto sink = lb.lint();
  EXPECT_TRUE(sink.clean()) << format_text(sink, &*lb.nl);
}

TEST(Checker, CatalogIsCompleteAndUnique) {
  const auto catalog = rule_catalog();
  EXPECT_GE(catalog.size(), 10u);
  for (std::size_t i = 0; i < catalog.size(); ++i) {
    for (std::size_t j = i + 1; j < catalog.size(); ++j) {
      EXPECT_STRNE(catalog[i].id, catalog[j].id);
    }
  }
}

// ---- netlist rules ---------------------------------------------------------

TEST(Checker, DanglingPinCellFires) {
  LintBench lb;
  NetlistSurgeon(*lb.nl).pin(0).cell = 999999;
  const auto sink = lb.lint();
  EXPECT_GT(sink.num_errors(), 0u);
  EXPECT_TRUE(sink.fired("netlist.pin-refs"));
}

TEST(Checker, PinRewiredToForeignNetFires) {
  LintBench lb;
  NetlistSurgeon surgeon(*lb.nl);
  // The pin now claims n1 but is still listed (only) by n2.
  surgeon.pin(lb.nl->net(lb.n2).pins[0]).net = lb.n1;
  const auto sink = lb.lint();
  EXPECT_TRUE(sink.fired("netlist.pin-refs"));
}

TEST(Checker, BadPortIndexFires) {
  LintBench lb;
  NetlistSurgeon(*lb.nl).pin(1).port = 77;
  const auto sink = lb.lint();
  EXPECT_TRUE(sink.fired("netlist.cell-types"));
}

TEST(Checker, DegenerateTypeSizeFires) {
  netlist::Library lib;
  netlist::CellType t;
  t.name = "BROKEN";
  t.width = 0.0;
  t.height = 1.0;
  const netlist::CellTypeId tid = lib.add(std::move(t));
  netlist::NetlistBuilder b(lib);
  b.add_cell("x", tid);
  const auto nl = b.take();
  CheckContext ctx;
  ctx.netlist = &nl;
  DiagnosticSink sink;
  run_checks(ctx, sink);
  EXPECT_TRUE(sink.fired("netlist.cell-types"));
}

TEST(Checker, FlippedPinDirFires) {
  LintBench lb;
  NetlistSurgeon surgeon(*lb.nl);
  const netlist::PinId p = lb.nl->net(lb.n2).pins[0];  // c1's output "Y"
  surgeon.pin(p).dir = PinDir::kInput;
  const auto sink = lb.lint();
  EXPECT_TRUE(sink.fired("netlist.pin-dirs"));
}

TEST(Checker, BadNetWeightFires) {
  LintBench lb;
  NetlistSurgeon(*lb.nl).net(lb.n1).weight = -1.0;
  const auto sink = lb.lint();
  EXPECT_TRUE(sink.fired("netlist.net-shape"));
  EXPECT_GT(sink.num_errors(), 0u);
}

TEST(Checker, TwoDriversWarn) {
  LintBench lb;
  NetlistSurgeon surgeon(*lb.nl);
  // Make c2's input pin on n2 a second driver.
  surgeon.pin(lb.nl->net(lb.n2).pins[1]).dir = PinDir::kOutput;
  const auto sink = lb.lint();
  EXPECT_TRUE(sink.fired("netlist.net-shape"));
  EXPECT_GT(sink.num_warnings(), 0u);
}

// ---- geometry rules --------------------------------------------------------

TEST(Checker, NaNCoordinateFires) {
  LintBench lb;
  lb.pl[lb.c1].x = std::numeric_limits<double>::quiet_NaN();
  const auto sink = lb.lint();
  EXPECT_TRUE(sink.fired("geom.finite"));
}

TEST(Checker, ShortPlacementFires) {
  LintBench lb;
  lb.pl.resize(1);
  const auto sink = lb.lint();
  EXPECT_TRUE(sink.fired("geom.finite"));
}

TEST(Checker, OutOfCoreFires) {
  LintBench lb;
  lb.pl[lb.c2] = {50.0, 1.5};
  const auto sink = lb.lint();
  EXPECT_TRUE(sink.fired("geom.in-core"));
}

TEST(Checker, MovedFixedCellFires) {
  LintBench lb;
  const Placement reference = lb.pl;
  lb.pl[lb.pad] = {3.0, 2.0};
  CheckContext ctx = lb.ctx();
  ctx.fixed_reference = &reference;
  DiagnosticSink sink;
  run_checks(ctx, sink);
  EXPECT_TRUE(sink.fired("geom.fixed-immobile"));
}

// ---- legality rules --------------------------------------------------------

TEST(Checker, OffRowFires) {
  LintBench lb;
  lb.pl[lb.c1].y += 0.3;
  const auto sink = lb.lint();
  EXPECT_TRUE(sink.fired("legal.row-align"));
}

TEST(Checker, OffSiteFires) {
  LintBench lb;
  lb.pl[lb.c1].x += 0.1;
  const auto sink = lb.lint();
  EXPECT_TRUE(sink.fired("legal.site-align"));
}

TEST(Checker, OverlappingPairFires) {
  LintBench lb;
  lb.pl[lb.c2] = lb.at_site(2, 0);  // one site right of c1 (width 3 sites)
  const auto sink = lb.lint();
  EXPECT_TRUE(sink.fired("legal.overlap"));
}

TEST(Checker, CheapLevelSkipsOverlapSweep) {
  LintBench lb;
  lb.pl[lb.c2] = lb.at_site(2, 0);  // overlapping but row/site aligned
  const auto sink = lb.lint(CheckLevel::kCheap);
  EXPECT_FALSE(sink.fired("legal.overlap"));
  EXPECT_TRUE(sink.clean()) << format_text(sink, &*lb.nl);
}

TEST(Checker, CategoryMaskRespected) {
  LintBench lb;
  NetlistSurgeon(*lb.nl).pin(0).cell = 999999;  // netlist corruption
  const auto sink = lb.lint(CheckLevel::kFull, kCatGeometry | kCatLegality);
  EXPECT_TRUE(sink.clean()) << format_text(sink, &*lb.nl);
}

// ---- structure rules -------------------------------------------------------

TEST(Checker, RaggedGroupFires) {
  LintBench lb;
  lb.ann.groups[0].cells.resize(1);  // 1x2 group with one entry
  const auto sink = lb.lint();
  EXPECT_TRUE(sink.fired("structure.shape"));
}

TEST(Checker, ZeroShapeGroupFires) {
  LintBench lb;
  lb.ann.groups[0].bits = 0;
  lb.ann.groups[0].cells.clear();
  const auto sink = lb.lint();
  EXPECT_TRUE(sink.fired("structure.shape"));
}

TEST(Checker, DuplicateMemberFires) {
  LintBench lb;
  lb.ann.groups[0].at(0, 1) = lb.c1;  // c1 twice in one group
  const auto sink = lb.lint();
  EXPECT_TRUE(sink.fired("structure.members"));
}

TEST(Checker, OverlappingGroupsFire) {
  LintBench lb;
  auto g2 = netlist::StructureGroup::make("g2", 1, 1);
  g2.at(0, 0) = lb.c2;  // c2 already belongs to "g"
  lb.ann.groups.push_back(std::move(g2));
  const auto sink = lb.lint();
  EXPECT_TRUE(sink.fired("structure.members"));
}

TEST(Checker, FixedGroupMemberFires) {
  LintBench lb;
  lb.ann.groups[0].at(0, 1) = lb.pad;
  const auto sink = lb.lint();
  EXPECT_TRUE(sink.fired("structure.members"));
}

TEST(Checker, DanglingGroupMemberFires) {
  LintBench lb;
  lb.ann.groups[0].at(0, 1) = 424242;
  const auto sink = lb.lint();
  EXPECT_TRUE(sink.fired("structure.members"));
}

TEST(Checker, MixedStageTypesWarn) {
  dpgen::Benchmark bench = dpgen::make_benchmark("dp_add32");
  auto& g = bench.truth.groups[0];
  // Swap two cells from different stage columns (FA vs DFF) to mix types.
  std::swap(g.at(0, 0), g.at(0, 1));
  CheckContext ctx;
  ctx.netlist = &bench.netlist;
  ctx.structure = &bench.truth;
  DiagnosticSink sink;
  run_checks(ctx, sink, CheckLevel::kFull, kCatStructure);
  EXPECT_TRUE(sink.fired("structure.stage-types"));
}

// ---- timing rules ----------------------------------------------------------

TEST(Checker, CombinationalLoopFires) {
  // Two inverters in a ring: c1.Y -> c2.A, c2.Y -> c1.A. Every pin is on
  // the cycle, so the levelizer releases nothing.
  netlist::NetlistBuilder b(netlist::standard_library());
  const CellId c1 = b.add_cell("c1", CellFunc::kInv);
  const CellId c2 = b.add_cell("c2", CellFunc::kInv);
  const netlist::NetId na = b.add_net("na");
  const netlist::NetId nb = b.add_net("nb");
  b.connect(c1, "Y", na);
  b.connect(c2, "A", na);
  b.connect(c2, "Y", nb);
  b.connect(c1, "A", nb);
  const auto nl = b.take();
  CheckContext ctx;
  ctx.netlist = &nl;
  DiagnosticSink sink;
  run_checks(ctx, sink, CheckLevel::kFull, kCatTiming);
  EXPECT_TRUE(sink.fired("timing.comb-loops"));
  EXPECT_EQ(sink.num_errors(), 4u) << "one error per looped pin";
}

TEST(Checker, LoopReportingCapsAtEight) {
  // A 16-inverter ring: 32 looped pins, 8 reported + 1 aggregate error.
  netlist::NetlistBuilder b(netlist::standard_library());
  constexpr std::size_t kRing = 16;
  std::vector<CellId> cells;
  std::vector<netlist::NetId> nets;
  for (std::size_t i = 0; i < kRing; ++i) {
    cells.push_back(
        b.add_cell(std::string("i").append(std::to_string(i)), CellFunc::kInv));
    nets.push_back(b.add_net(std::string("n").append(std::to_string(i))));
  }
  for (std::size_t i = 0; i < kRing; ++i) {
    b.connect(cells[i], "Y", nets[i]);
    b.connect(cells[(i + 1) % kRing], "A", nets[i]);
  }
  const auto nl = b.take();
  CheckContext ctx;
  ctx.netlist = &nl;
  DiagnosticSink sink;
  run_checks(ctx, sink, CheckLevel::kFull, kCatTiming);
  EXPECT_TRUE(sink.fired("timing.comb-loops"));
  EXPECT_EQ(sink.num_errors(), 9u);
}

TEST(Checker, UnregisteredOutputNoteFires) {
  // Input pad -> inverter -> output pad: the output pad's cone holds one
  // gate, so the (single, aggregated) note fires.
  netlist::NetlistBuilder b(netlist::standard_library());
  const CellId pi = b.add_cell("pi", CellFunc::kPad, true);
  const CellId inv = b.add_cell("inv", CellFunc::kInv);
  const CellId po = b.add_cell("po", CellFunc::kPad, true);
  const netlist::NetId n1 = b.add_net("n1");
  const netlist::NetId n2 = b.add_net("n2");
  b.connect_dir(pi, 0, n1, PinDir::kOutput);
  b.connect(inv, "A", n1);
  b.connect(inv, "Y", n2);
  b.connect_dir(po, 0, n2, PinDir::kInput);
  const auto nl = b.take();
  CheckContext ctx;
  ctx.netlist = &nl;
  DiagnosticSink sink;
  run_checks(ctx, sink, CheckLevel::kFull, kCatTiming);
  EXPECT_TRUE(sink.fired("timing.unregistered-outputs"));
  EXPECT_EQ(sink.num_errors(), 0u);
  EXPECT_EQ(sink.num_warnings(), 0u);
  EXPECT_EQ(sink.num_notes(), 1u);
}

TEST(Checker, RegisteredOutputStaysQuiet) {
  // Input pad -> inverter -> DFF -> output pad: the pad is driven by a
  // register, so no note.
  netlist::NetlistBuilder b(netlist::standard_library());
  const CellId pi = b.add_cell("pi", CellFunc::kPad, true);
  const CellId inv = b.add_cell("inv", CellFunc::kInv);
  const CellId ff = b.add_cell("ff", CellFunc::kDff);
  const CellId po = b.add_cell("po", CellFunc::kPad, true);
  const netlist::NetId n1 = b.add_net("n1");
  const netlist::NetId n2 = b.add_net("n2");
  const netlist::NetId n3 = b.add_net("n3");
  b.connect_dir(pi, 0, n1, PinDir::kOutput);
  b.connect(inv, "A", n1);
  b.connect(inv, "Y", n2);
  b.connect(ff, "D", n2);
  b.connect(ff, "Q", n3);
  b.connect_dir(po, 0, n3, PinDir::kInput);
  const auto nl = b.take();
  CheckContext ctx;
  ctx.netlist = &nl;
  DiagnosticSink sink;
  run_checks(ctx, sink, CheckLevel::kFull, kCatTiming);
  EXPECT_TRUE(sink.clean()) << format_text(sink, &nl);
}

TEST(Checker, TimingRulesSkipCorruptNetlists) {
  // A dangling pin->cell reference must not crash the timing rules (they
  // dereference those links to build the graph); pin-refs reports it.
  LintBench lb;
  NetlistSurgeon(*lb.nl).pin(0).cell = 999999;
  const auto sink = lb.lint(CheckLevel::kFull, kCatTiming);
  EXPECT_TRUE(sink.clean()) << format_text(sink, &*lb.nl);
}

// ---- sink & reporters ------------------------------------------------------

TEST(DiagnosticSink, CapsRetentionButCountsEverything) {
  DiagnosticSink sink(2);
  for (int i = 0; i < 5; ++i) {
    sink.report(Severity::kError, "r", Anchor::cell(0), "m");
  }
  EXPECT_EQ(sink.diagnostics().size(), 2u);
  EXPECT_EQ(sink.num_errors(), 5u);
  EXPECT_EQ(sink.dropped(), 3u);
}

TEST(Reporters, TextNamesRuleAndCell) {
  LintBench lb;
  lb.pl[lb.c1].x = std::numeric_limits<double>::quiet_NaN();
  const auto sink = lb.lint();
  const std::string text = format_text(sink, &*lb.nl);
  EXPECT_NE(text.find("geom.finite"), std::string::npos);
  EXPECT_NE(text.find("'c1'"), std::string::npos);
}

TEST(Reporters, JsonHasSummaryAndAnchors) {
  LintBench lb;
  lb.pl[lb.c1].x = std::numeric_limits<double>::quiet_NaN();
  const auto sink = lb.lint();
  const std::string json = format_json(sink, &*lb.nl);
  EXPECT_NE(json.find("\"summary\""), std::string::npos);
  EXPECT_NE(json.find("\"rule\":\"geom.finite\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"c1\""), std::string::npos);
}

TEST(Reporters, JsonEscapesMessages) {
  DiagnosticSink sink;
  sink.report(Severity::kError, "r", Anchor::none(),
              "say \"hi\" c:\\d\nnext\x01");
  const std::string json = format_json(sink);
  EXPECT_NE(json.find(R"("message":"say \"hi\" c:\\d\nnext\u0001")"),
            std::string::npos)
      << json;
}

// ---- pipeline phase hooks --------------------------------------------------

TEST(PhaseHooks, FullPipelineRunsClean) {
  dpgen::Benchmark bench = dpgen::make_benchmark("dp_add32");
  core::PlacerConfig config;
  config.check_level = CheckLevel::kFull;
  core::StructurePlacer placer(bench.netlist, bench.design, config);
  Placement pl = bench.placement;
  const core::PlaceReport report = placer.place(pl, &bench.truth);
  ASSERT_EQ(report.checks.size(), 4u);
  EXPECT_EQ(report.checks[0].phase, "extract");
  EXPECT_EQ(report.checks[1].phase, "gp");
  EXPECT_EQ(report.checks[2].phase, "legal");
  EXPECT_EQ(report.checks[3].phase, "detail");
  for (const auto& phase : report.checks) {
    EXPECT_GT(phase.summary.rules_run, 0u) << phase.phase;
  }
  EXPECT_TRUE(report.checks_ok())
      << format_text(report.diagnostics, &bench.netlist);
  // dp_add32 exports combinational flag outputs, so the (informational)
  // unregistered-outputs note fires at each phase; nothing else may.
  EXPECT_EQ(report.diagnostics.num_errors(), 0u)
      << format_text(report.diagnostics, &bench.netlist);
  EXPECT_EQ(report.diagnostics.num_warnings(), 0u)
      << format_text(report.diagnostics, &bench.netlist);
  for (const auto& diag : report.diagnostics.diagnostics()) {
    EXPECT_EQ(std::string(diag.rule), "timing.unregistered-outputs");
  }
}

TEST(PhaseHooks, OffLevelRecordsNothing) {
  dpgen::Benchmark bench = dpgen::make_benchmark("dp_add32");
  core::PlacerConfig config;
  config.structure_aware = false;
  config.check_level = CheckLevel::kOff;
  core::StructurePlacer placer(bench.netlist, bench.design, config);
  Placement pl = bench.placement;
  const core::PlaceReport report = placer.place(pl, &bench.truth);
  EXPECT_TRUE(report.checks.empty());
  EXPECT_TRUE(report.diagnostics.clean());
}

}  // namespace
}  // namespace dp::check
