#include <gtest/gtest.h>

#include <cmath>
#include <span>
#include <vector>

#include "dpgen/benchmarks.hpp"
#include "netlist/bookshelf.hpp"
#include "netlist/design.hpp"
#include "netlist/flat_nets.hpp"
#include "netlist/netlist.hpp"
#include "netlist/stats.hpp"

namespace dp::netlist {
namespace {

TEST(Library, StandardLibraryHasAllFunctions) {
  const Library& lib = standard_library();
  EXPECT_GE(lib.size(), 18u);
  EXPECT_NO_THROW(lib.by_func(CellFunc::kFullAdder));
  EXPECT_NO_THROW(lib.by_func(CellFunc::kPad));
  EXPECT_THROW(lib.by_func(CellFunc::kGeneric), std::out_of_range);
}

TEST(Library, CellGeometrySane) {
  const Library& lib = standard_library();
  for (CellTypeId i = 0; i < lib.size(); ++i) {
    const CellType& t = lib.type(i);
    EXPECT_GT(t.width, 0.0) << t.name;
    EXPECT_GT(t.height, 0.0) << t.name;
    // Widths are whole numbers of sites.
    const double sites = t.width / kSiteWidth;
    EXPECT_NEAR(sites, std::round(sites), 1e-9) << t.name;
  }
}

TEST(Library, OutputPinMarked) {
  const Library& lib = standard_library();
  const CellType& inv = lib.type(lib.by_func(CellFunc::kInv));
  ASSERT_GE(inv.output_pin, 0);
  EXPECT_EQ(inv.pins[static_cast<std::size_t>(inv.output_pin)].dir,
            PinDir::kOutput);
  EXPECT_EQ(inv.pins.size(), 2u);
}

TEST(Library, FullAdderHasTwoOutputs) {
  const Library& lib = standard_library();
  const CellType& fa = lib.type(lib.by_func(CellFunc::kFullAdder));
  int outputs = 0;
  for (const auto& p : fa.pins) outputs += p.dir == PinDir::kOutput ? 1 : 0;
  EXPECT_EQ(outputs, 2);
}

class BuilderTest : public ::testing::Test {
 protected:
  NetlistBuilder builder_{standard_library()};
};

TEST_F(BuilderTest, AddCellAndConnect) {
  const CellId inv = builder_.add_cell("u1", CellFunc::kInv);
  const NetId in = builder_.add_net("in");
  const NetId out = builder_.add_net("out");
  builder_.connect(inv, "A", in);
  builder_.connect(inv, "Y", out);
  const Netlist nl = builder_.take();
  EXPECT_EQ(nl.num_cells(), 1u);
  EXPECT_EQ(nl.num_nets(), 2u);
  EXPECT_EQ(nl.num_pins(), 2u);
  EXPECT_EQ(nl.cell_pins(inv).size(), 2u);
  EXPECT_EQ(nl.net_pins(out).size(), 1u);
}

TEST_F(BuilderTest, DoubleConnectThrows) {
  const CellId inv = builder_.add_cell("u1", CellFunc::kInv);
  const NetId n = builder_.add_net("n");
  builder_.connect(inv, "A", n);
  EXPECT_THROW(builder_.connect(inv, "A", n), std::logic_error);
}

TEST_F(BuilderTest, UnknownPortThrows) {
  const CellId inv = builder_.add_cell("u1", CellFunc::kInv);
  const NetId n = builder_.add_net("n");
  EXPECT_THROW(builder_.connect(inv, "NOPE", n), std::out_of_range);
  EXPECT_THROW(builder_.connect(inv, 99, n), std::out_of_range);
}

TEST_F(BuilderTest, PortBoundTwiceNamesTheCell) {
  builder_.add_cell("u0", CellFunc::kInv);
  const CellId inv = builder_.add_cell("u1", CellFunc::kInv);
  const NetId n = builder_.add_net("n");
  const NetId m = builder_.add_net("m");
  builder_.connect(inv, 0, n);
  builder_.connect(inv, "Y", m);
  try {
    builder_.connect(inv, "A", m);  // port 0 again, by name
    FAIL() << "binding port A twice did not throw";
  } catch (const std::logic_error& e) {
    EXPECT_EQ(std::string(e.what()),
              "NetlistBuilder::connect: port already bound on u1");
  }
  // The rejected connection left no pin behind.
  const Netlist nl = builder_.take();
  EXPECT_EQ(nl.num_pins(), 2u);
}

TEST_F(BuilderTest, PortPastTheTypeThrowsOutOfRange) {
  const CellId inv = builder_.add_cell("u1", CellFunc::kInv);
  const NetId n = builder_.add_net("n");
  const auto ports = static_cast<std::uint16_t>(
      standard_library().type(standard_library().by_func(CellFunc::kInv))
          .pins.size());
  try {
    builder_.connect(inv, ports, n);
    FAIL() << "port " << ports << " of a " << ports
           << "-port type did not throw";
  } catch (const std::out_of_range& e) {
    EXPECT_EQ(std::string(e.what()),
              "NetlistBuilder::connect: bad port index");
  }
  builder_.connect(inv, static_cast<std::uint16_t>(ports - 1), n);
  EXPECT_EQ(builder_.take().num_pins(), 1u);
}

TEST_F(BuilderTest, UnknownNetThrowsOutOfRange) {
  const CellId inv = builder_.add_cell("u1", CellFunc::kInv);
  const NetId n = builder_.add_net("n");
  EXPECT_THROW(builder_.connect(inv, "A", n + 1), std::out_of_range);
  EXPECT_EQ(builder_.take().num_pins(), 0u);
}

TEST_F(BuilderTest, UnknownCellThrowsOutOfRange) {
  const CellId inv = builder_.add_cell("u1", CellFunc::kInv);
  const NetId n = builder_.add_net("n");
  for (const bool by_name : {false, true}) {
    try {
      if (by_name) {
        builder_.connect(inv + 1, "A", n);
      } else {
        builder_.connect(inv + 1, 0, n);
      }
      FAIL() << "cell " << inv + 1 << " of 1 did not throw";
    } catch (const std::out_of_range& e) {
      EXPECT_EQ(std::string(e.what()), "NetlistBuilder::connect: bad cell id");
    }
  }
  EXPECT_EQ(builder_.take().num_pins(), 0u);
}

TEST_F(BuilderTest, UnknownCellTypeThrowsOutOfRange) {
  const auto types = static_cast<CellTypeId>(standard_library().size());
  try {
    builder_.add_cell("u1", types);
    FAIL() << "type " << types << " of " << types << " did not throw";
  } catch (const std::out_of_range& e) {
    EXPECT_EQ(std::string(e.what()),
              "NetlistBuilder::add_cell: bad cell type id");
  }
  builder_.add_cell("u1", static_cast<CellTypeId>(types - 1));
  EXPECT_EQ(builder_.take().num_cells(), 1u);
}

TEST_F(BuilderTest, DriverFound) {
  const CellId a = builder_.add_cell("a", CellFunc::kInv);
  const CellId b = builder_.add_cell("b", CellFunc::kInv);
  const NetId n = builder_.add_net("n");
  builder_.connect(a, "Y", n);
  builder_.connect(b, "A", n);
  const Netlist nl = builder_.take();
  const PinId drv = nl.driver(n);
  ASSERT_NE(drv, kInvalidId);
  EXPECT_EQ(nl.pin(drv).cell, a);
}

TEST_F(BuilderTest, MovableAreaExcludesFixed) {
  builder_.add_cell("pad", CellFunc::kPad, /*fixed=*/true);
  const CellId inv = builder_.add_cell("u", CellFunc::kInv);
  const Netlist nl = builder_.take();
  EXPECT_EQ(nl.num_movable(), 1u);
  EXPECT_DOUBLE_EQ(nl.movable_area(), nl.cell_area(inv));
}

TEST_F(BuilderTest, PinPositionUsesOffsets) {
  const CellId inv = builder_.add_cell("u", CellFunc::kInv);
  const NetId n = builder_.add_net("n");
  const PinId p = builder_.connect(inv, "A", n);
  const Netlist nl = builder_.take();
  Placement pl(1);
  pl[inv] = {10.0, 20.0};
  const geom::Point pos = nl.pin_position(p, pl);
  EXPECT_DOUBLE_EQ(pos.x, 10.0 + nl.pin(p).offset_x);
  EXPECT_DOUBLE_EQ(pos.y, 20.0 + nl.pin(p).offset_y);
}

TEST_F(BuilderTest, ConnectDirOverridesDirection) {
  const CellId pad = builder_.add_cell("pad", CellFunc::kPad, true);
  const NetId n = builder_.add_net("n");
  const PinId p = builder_.connect_dir(pad, 0, n, PinDir::kOutput);
  const Netlist nl = builder_.take();
  EXPECT_EQ(nl.pin(p).dir, PinDir::kOutput);
  EXPECT_EQ(nl.driver(n), p);
}

TEST_F(BuilderTest, FlatNetsDropNetsBelowMinPins) {
  const CellId a = builder_.add_cell("a", CellFunc::kInv);
  const CellId b = builder_.add_cell("b", CellFunc::kInv);
  const NetId in = builder_.add_net("in", 3.0);  // a.A alone
  const NetId ab = builder_.add_net("ab", 2.0);  // a.Y -> b.A
  builder_.connect(a, "A", in);
  builder_.connect(a, "Y", ab);
  builder_.connect(b, "A", ab);
  const Netlist nl = builder_.take();

  const FlatNets two(nl, 2);
  EXPECT_EQ(two.net_id, (std::vector<NetId>{ab}));
  EXPECT_EQ(two.net_first, (std::vector<std::uint32_t>{0, 2}));
  EXPECT_EQ(two.net_weight, (std::vector<double>{2.0}));
  EXPECT_EQ(two.pin_cell, (std::vector<CellId>{a, b}));

  const FlatNets one(nl, 1);
  EXPECT_EQ(one.net_id, (std::vector<NetId>{in, ab}));
  EXPECT_EQ(one.net_first, (std::vector<std::uint32_t>{0, 1, 3}));
  EXPECT_EQ(one.net_weight, (std::vector<double>{3.0, 2.0}));
}

TEST(FlatNets, PinsMatchTheNetlist) {
  const dpgen::Benchmark bench = dpgen::make_scaled(4000);
  const Netlist& nl = bench.netlist;
  const FlatNets flat(nl, 2);

  std::size_t slot = 0;
  for (std::size_t kn = 0; kn < flat.num_nets(); ++kn) {
    const auto pins = nl.net_pins(flat.net_id[kn]);
    ASSERT_GE(pins.size(), 2u);
    ASSERT_EQ(flat.net_first[kn], slot);
    for (const PinId p : pins) {
      EXPECT_EQ(flat.pin_cell[slot], nl.pin(p).cell);
      EXPECT_EQ(flat.pin_dx[slot], nl.pin(p).offset_x);
      EXPECT_EQ(flat.pin_dy[slot], nl.pin(p).offset_y);
      ++slot;
    }
  }
  EXPECT_EQ(flat.net_first.back(), slot);
}

/// The CSR pin lists against the pins' own cell and net fields: every pin
/// sits once in its cell's list and once in its net's, each list ascends
/// by PinId (the order connect() created them in), each CSR's lists sum to
/// num_pins(), and take() left no array with spare capacity.
void expect_csr_invariants(const Netlist& nl) {
  std::vector<int> in_cell(nl.num_pins(), 0), in_net(nl.num_pins(), 0);
  std::size_t cell_total = 0, net_total = 0;
  for (CellId c = 0; c < nl.num_cells(); ++c) {
    const auto pins = nl.cell_pins(c);
    cell_total += pins.size();
    for (std::size_t k = 0; k < pins.size(); ++k) {
      ASSERT_LT(pins[k], nl.num_pins());
      EXPECT_EQ(nl.pin(pins[k]).cell, c);
      if (k > 0) {
        EXPECT_LT(pins[k - 1], pins[k]);
      }
      ++in_cell[pins[k]];
    }
  }
  for (NetId n = 0; n < nl.num_nets(); ++n) {
    const auto pins = nl.net_pins(n);
    net_total += pins.size();
    for (std::size_t k = 0; k < pins.size(); ++k) {
      ASSERT_LT(pins[k], nl.num_pins());
      EXPECT_EQ(nl.pin(pins[k]).net, n);
      if (k > 0) {
        EXPECT_LT(pins[k - 1], pins[k]);
      }
      ++in_net[pins[k]];
    }
  }
  EXPECT_EQ(cell_total, nl.num_pins());
  EXPECT_EQ(net_total, nl.num_pins());
  for (PinId p = 0; p < nl.num_pins(); ++p) {
    EXPECT_EQ(in_cell[p], 1) << "pin " << p;
    EXPECT_EQ(in_net[p], 1) << "pin " << p;
  }
  EXPECT_EQ(nl.spare_capacity(), 0u);
}

TEST_F(BuilderTest, PinListsKeepConnectionOrder) {
  const CellId a = builder_.add_cell("a", CellFunc::kNand2);
  const CellId b = builder_.add_cell("b", CellFunc::kInv);
  const NetId x = builder_.add_net("x");
  const NetId y = builder_.add_net("y");
  // Interleaved across cells and nets, ports out of order.
  const PinId a_y = builder_.connect(a, "Y", y);
  const PinId b_a = builder_.connect(b, "A", y);
  const PinId a_b = builder_.connect(a, "B", x);
  const PinId b_y = builder_.connect(b, "Y", x);
  const PinId a_a = builder_.connect(a, "A", x);
  const Netlist nl = builder_.take();
  const auto list = [](std::span<const PinId> s) {
    return std::vector<PinId>(s.begin(), s.end());
  };
  EXPECT_EQ(list(nl.cell_pins(a)), (std::vector<PinId>{a_y, a_b, a_a}));
  EXPECT_EQ(list(nl.cell_pins(b)), (std::vector<PinId>{b_a, b_y}));
  EXPECT_EQ(list(nl.net_pins(x)), (std::vector<PinId>{a_b, b_y, a_a}));
  EXPECT_EQ(list(nl.net_pins(y)), (std::vector<PinId>{a_y, b_a}));
  expect_csr_invariants(nl);
}

TEST(NetlistCsr, ScaledDesign) {
  expect_csr_invariants(dpgen::make_scaled(4000).netlist);
}

TEST(NetlistCsr, SuiteDesign) {
  expect_csr_invariants(dpgen::make_benchmark("dp_alu32").netlist);
}

TEST(NetlistCsr, BookshelfRoundTrip) {
  const dpgen::Benchmark bench = dpgen::make_benchmark("mix50");
  const std::string base = ::testing::TempDir() + "csr_round_trip";
  write_bookshelf(base, bench.netlist, bench.design, bench.placement);
  const Problem loaded = read_bookshelf(base + ".aux");
  expect_csr_invariants(loaded.netlist);
  // The reader connects net by net in the order .nets lists the pins,
  // which is the written netlist's net order, so each net's list names
  // the same cells in the same order.
  ASSERT_EQ(loaded.netlist.num_nets(), bench.netlist.num_nets());
  for (NetId n = 0; n < bench.netlist.num_nets(); ++n) {
    const auto want = bench.netlist.net_pins(n);
    const auto got = loaded.netlist.net_pins(n);
    ASSERT_EQ(got.size(), want.size()) << bench.netlist.net(n).name;
    for (std::size_t k = 0; k < want.size(); ++k) {
      EXPECT_EQ(loaded.netlist.cell(loaded.netlist.pin(got[k]).cell).name,
                bench.netlist.cell(bench.netlist.pin(want[k]).cell).name);
    }
  }
}

TEST(Design, RowsCoverCore) {
  const Design d(geom::Rect{0, 0, 10, 5}, 1.0, 0.25);
  EXPECT_EQ(d.num_rows(), 5u);
  EXPECT_DOUBLE_EQ(d.row(0).y, 0.0);
  EXPECT_DOUBLE_EQ(d.row(4).y, 4.0);
}

TEST(Design, DegenerateThrows) {
  EXPECT_THROW(Design(geom::Rect{0, 0, 10, 0.5}, 1.0, 0.25),
               std::invalid_argument);
  EXPECT_THROW(Design(geom::Rect{}, 1.0, 0.25), std::invalid_argument);
}

TEST(Design, NearestRowClamped) {
  const Design d(geom::Rect{0, 0, 10, 5}, 1.0, 0.25);
  EXPECT_EQ(d.nearest_row(-100.0), 0u);
  EXPECT_EQ(d.nearest_row(100.0), 4u);
  EXPECT_EQ(d.nearest_row(2.5), 2u);
}

TEST(Design, SnapX) {
  const Design d(geom::Rect{0, 0, 10, 5}, 1.0, 0.25);
  EXPECT_DOUBLE_EQ(d.snap_x(0.3), 0.25);
  EXPECT_DOUBLE_EQ(d.snap_x(0.4), 0.5);
}

TEST(Design, ForNetlistMeetsUtilization) {
  NetlistBuilder b(standard_library());
  for (int i = 0; i < 100; ++i) {
    b.add_cell(std::string("c").append(std::to_string(i)), CellFunc::kNand2);
  }
  const Netlist nl = b.take();
  const Design d = Design::for_netlist(nl, 0.7);
  const double util = nl.movable_area() / d.core().area();
  EXPECT_LE(util, 0.75);
  EXPECT_GE(util, 0.5);
}

TEST(Design, ForNetlistRejectsBadUtilization) {
  NetlistBuilder b(standard_library());
  b.add_cell("c", CellFunc::kInv);
  const Netlist nl = b.take();
  EXPECT_THROW(Design::for_netlist(nl, 0.0), std::invalid_argument);
  EXPECT_THROW(Design::for_netlist(nl, 1.5), std::invalid_argument);
}

TEST(Stats, ComputeStatsCounts) {
  NetlistBuilder b(standard_library());
  const CellId a = b.add_cell("a", CellFunc::kInv);
  const CellId p = b.add_cell("p", CellFunc::kPad, true);
  const NetId n = b.add_net("n");
  b.connect(a, "Y", n);
  b.connect_dir(p, 0, n, PinDir::kInput);
  const Netlist nl = b.take();
  const NetlistStats s = compute_stats(nl);
  EXPECT_EQ(s.num_cells, 2u);
  EXPECT_EQ(s.num_movable, 1u);
  EXPECT_EQ(s.num_fixed, 1u);
  EXPECT_EQ(s.num_pins, 2u);
  EXPECT_EQ(s.max_net_degree, 2u);
}

}  // namespace
}  // namespace dp::netlist
