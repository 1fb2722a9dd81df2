#pragma once
// Exhaustive state-space oracles for small circuits.
//
// Used by tests, examples, and the retiming study to ground-truth learned
// invalid states and to measure the density of encoding (the paper's
// complexity indicator from reference [9]).

#include "netlist/netlist.hpp"

#include <vector>

namespace seqlearn::workload {

/// States with at least `depth` predecessor frames: Image^depth(AllStates)
/// with inputs free at every step, indexed by the packed state (bit i =
/// Netlist::seq_elements()[i]). The sequence is monotonically shrinking and
/// is cut short at its fixpoint. Throws when the circuit has more than
/// `max_ffs` sequential elements or more than 16 inputs.
std::vector<bool> image_set(const netlist::Netlist& nl, std::size_t depth,
                            std::size_t max_ffs = 20);

}  // namespace seqlearn::workload
