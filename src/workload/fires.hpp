#pragma once
// FIRE-style fault-independent untestable-fault identification — the
// comparator of the paper's Table 4 (Iyer/Long/Abramovici's FIRES).
//
// Principle: every test assigns each fanout stem 0 or 1 (a test leaving the
// stem at X still works under either refinement, by Kleene monotonicity).
// Therefore a fault undetectable when s=0 is asserted AND undetectable when
// s=1 is asserted is undetectable outright. For each stem value the
// analysis computes necessary implications (forward + unique backward, one
// frame, free state) and declares a fault undetectable under that value
// when it is unexcitable: the faulted line is implied to the stuck value.
//
// Only this excitation half of FIRE is applied. The published algorithm
// also declares a fault unpropagatable when every path from its site to an
// observation point passes a gate with an implied controlling side input;
// without per-fault reconvergence analysis that is unsound (a "blocking"
// side input inside the fault's cone can itself carry the effect), so it is
// left out, and the comparator reports conservatively fewer untestable
// faults than the published one would.

#include "fault/fault.hpp"

#include <vector>

namespace seqlearn::workload {

struct FiresResult {
    /// Faults proven untestable, in universe order.
    std::vector<fault::Fault> untestable;
    std::size_t stems_analyzed = 0;
};

/// Run the analysis over every fanout stem of `nl` against `universe`.
FiresResult fires_untestable(const netlist::Netlist& nl,
                             std::span<const fault::Fault> universe);

}  // namespace seqlearn::workload
