#pragma once
// Structural traversals: fanin/fanout cones and reconvergence helpers.

#include "netlist/netlist.hpp"
#include "netlist/topology.hpp"

#include <vector>

namespace seqlearn::netlist {

/// Gates reachable forward from `start` (excluding `start` itself).
/// When `through_seq` is false the traversal stops at sequential elements
/// (they are included in the result but not expanded).
std::vector<GateId> fanout_cone(const Netlist& nl, GateId start, bool through_seq);

/// Gates reachable backward from `start` (excluding `start` itself); same
/// sequential-element rule as fanout_cone.
std::vector<GateId> fanin_cone(const Netlist& nl, GateId start, bool through_seq);

/// Sequential depth: the longest distance, counted in sequential elements,
/// from any primary input to any output/element, capped at `cap` to stay
/// finite on cyclic state machines.
std::size_t sequential_depth(const Netlist& nl, std::size_t cap = 64);

/// Topology overload of sequential_depth: identical result, computed over
/// the CSR snapshot (no Netlist adjacency walks).
std::size_t sequential_depth(const Topology& topo, std::size_t cap = 64);

}  // namespace seqlearn::netlist
