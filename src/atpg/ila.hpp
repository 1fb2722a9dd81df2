#pragma once
// Iterative-logic-array addressing and fault-cone precomputation.
//
// The sequential ATPG engine works on a W-frame unrolling of the circuit.
// Nothing is materialized: a cell is (frame, gate) packed into one index,
// combinational edges stay within a frame, and each sequential element's
// output cell at frame k+1 links to its data-input cell at frame k.
// Frame-0 sequential outputs are the unknown initial state and may never
// take a binary value.

#include "fault/fault.hpp"
#include "netlist/topology.hpp"

#include <cstdint>
#include <vector>

namespace seqlearn::atpg {

using netlist::GateId;
using netlist::Netlist;

/// Index of a (frame, gate) pair in the unrolled model.
using Cell = std::uint32_t;

struct Ila {
    std::size_t num_gates;
    std::uint32_t frames;

    Ila(const netlist::Topology& topo, std::uint32_t w)
        : num_gates(topo.size()), frames(w) {}

    std::size_t num_cells() const noexcept { return num_gates * frames; }
    Cell cell(std::uint32_t frame, GateId gate) const noexcept {
        return static_cast<Cell>(frame * num_gates + gate);
    }
    std::uint32_t frame_of(Cell c) const noexcept {
        return static_cast<std::uint32_t>(c / num_gates);
    }
    GateId gate_of(Cell c) const noexcept { return static_cast<GateId>(c % num_gates); }
};

/// Gates whose value can differ between the good and faulty machines: the
/// forward cone of the fault site, traversed *through* sequential elements
/// (a latched fault effect persists across frames) — Topology::forward_cone.
/// Gates outside this set always have equal planes, which the engine
/// exploits by mirroring writes.
std::vector<bool> fault_cone_mask(const netlist::Topology& topo, const fault::Fault& f);

}  // namespace seqlearn::atpg
