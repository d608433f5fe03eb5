#pragma once

#include <string>
#include <vector>

#include "netlist/problem.hpp"
#include "util/prng.hpp"

namespace dp::dpgen {

/// A bundle of nets carrying a multi-bit signal, LSB first.
using Bus = std::vector<netlist::NetId>;

/// A generated placement problem: its initial placement has the fixed
/// pads positioned and the movables at the core center.
using Benchmark = netlist::Problem;

/// Composable generator of datapath-intensive netlists.
///
/// Each `add_*` datapath builder instantiates one regular unit, records its
/// ground-truth StructureGroup, and returns its output bus so units can be
/// chained. `add_glue` grows random (structure-free) control logic. All
/// randomness comes from the seed, so a given recipe is fully deterministic.
class Generator {
 public:
  Generator(std::string name, std::uint64_t seed);

  // ---- primary I/O -------------------------------------------------------

  /// A bus of `width` nets, each driven by a fixed input pad.
  Bus input_bus(const std::string& prefix, std::size_t width);
  netlist::NetId input(const std::string& name);

  /// Generate a block of random control logic and register its nets as
  /// the source pool for datapath control signals (carry-ins, mux
  /// selects, write enables, opcode bits). Without a pool, each control
  /// signal falls back to its own input pad -- unrealistic for anything
  /// but tiny test cases.
  void add_control_block(const std::string& prefix, std::size_t num_cells);

  /// A control signal: drawn round-robin from the control pool, or a
  /// fresh input pad when no pool exists.
  netlist::NetId control(const std::string& name);

  /// Sink every net of `bus` into a fixed output pad.
  void output_bus(const std::string& prefix, const Bus& bus);
  void output(const std::string& name, netlist::NetId net);

  // ---- datapath units (each records one StructureGroup) ------------------

  /// Ripple-carry adder pipelined `depth` times: per bit and pipe stage,
  /// one FA (carry chained across bits), a sum register, and an operand
  /// register carrying `b` forward (fully registered pipeline, so no net
  /// spans more than one stage). Group shape: bits x (3 * depth).
  Bus add_pipelined_adder(const std::string& prefix, const Bus& a,
                          const Bus& b, std::size_t depth = 2);

  /// Single-bit-slice ALU: XOR/AND/OR logic unit, ripple-carry add,
  /// two result muxes and an output register per bit, controlled by a
  /// shared 2-bit opcode. Group shape: bits x 7.
  Bus add_alu(const std::string& prefix, const Bus& a, const Bus& b);

  /// Carry-save array multiplier. Group shape: bits x (2 * bits) with
  /// holes (row 0 has no adders). Returns the `bits` sum outputs of the
  /// last row (a full multiplier would add a final CPA).
  Bus add_multiplier(const std::string& prefix, const Bus& a, const Bus& b);

  /// Logarithmic barrel shifter (rotate-left). Group: bits x log2(bits).
  /// `a.size()` must be a power of two.
  Bus add_shifter(const std::string& prefix, const Bus& a);

  /// Register file: per word a (MUX2 + DFF) write slice, plus a read-port
  /// mux tree. One group per word (bits x 2) and one group for the read
  /// tree (bits x (words - 1)).
  Bus add_register_file(const std::string& prefix, const Bus& data,
                        std::size_t words);

  // ---- irregular logic ----------------------------------------------------

  /// Grow `num_cells` of random combinational/sequential control logic.
  /// Inputs are drawn from `seeds` plus its own freshly created nets with a
  /// locality bias. Returns a handful of output nets.
  std::vector<netlist::NetId> add_glue(const std::string& prefix,
                                       std::size_t num_cells,
                                       std::vector<netlist::NetId> seeds);

  // ---- finalize ------------------------------------------------------------

  std::size_t num_cells() const { return builder_.num_cells(); }

  /// Build the floorplan at `utilization`, place pads around the periphery,
  /// park movables at the core center, and return everything.
  Benchmark finish(double utilization = 0.7);

 private:
  netlist::NetId fresh_net(const std::string& name);
  /// add_glue's cells. Returns the nets they draw inputs from: `seeds` (or
  /// two fresh seed pads' nets when it is empty), then each glue cell's
  /// output net in creation order; `fanout` gets each one's input count.
  std::vector<netlist::NetId> grow_glue(const std::string& prefix,
                                        std::size_t num_cells,
                                        std::vector<netlist::NetId> seeds,
                                        std::vector<std::size_t>& fanout);
  netlist::CellId add_pad(const std::string& name);

  std::string name_;
  netlist::NetlistBuilder builder_;
  netlist::StructureAnnotation truth_;
  util::Rng rng_;
  std::vector<netlist::CellId> input_pads_;
  std::vector<netlist::CellId> output_pads_;
  std::vector<netlist::NetId> control_pool_;
  std::size_t control_next_ = 0;
};

}  // namespace dp::dpgen
