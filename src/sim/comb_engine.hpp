#pragma once
// Levelized full-circuit 3-valued evaluation, plus a scalar multi-frame
// sequence simulator built on it.
//
// These are the *reference* engines: simple, exhaustive, used by tests,
// reachability analysis, and anywhere clarity beats speed. The learning
// passes use the sparse event-driven BatchFrameSimulator instead.

#include "logic/val3.hpp"
#include "netlist/levelize.hpp"
#include "netlist/netlist.hpp"
#include "netlist/topology.hpp"

#include <vector>

namespace seqlearn::sim {

using logic::Val3;
using netlist::GateId;
using netlist::Netlist;

/// Levelized evaluator over all combinational gates: sim::eval_gates over
/// the CSR topology schedule.
class CombEngine {
public:
    explicit CombEngine(const Netlist& nl);

    /// Evaluate every combinational gate from the source values already in
    /// `vals` (primary inputs, constants, and sequential-element outputs;
    /// constants are overwritten with their fixed value). `vals` must be
    /// sized nl.size().
    void eval(std::vector<Val3>& vals) const;

    const netlist::Levelization& levels() const noexcept { return topo_.levels(); }
    const netlist::Topology& topology() const noexcept { return topo_; }
    const Netlist& netlist() const noexcept { return *nl_; }

private:
    const Netlist* nl_;
    netlist::Topology topo_;
};

/// One frame of primary-input values, indexed like Netlist::inputs().
using InputFrame = std::vector<Val3>;

/// A test sequence: one InputFrame per clock cycle.
using InputSequence = std::vector<InputFrame>;

/// Result of simulating a sequence: values of every gate in every frame.
struct SequenceResult {
    /// frame -> gate -> value.
    std::vector<std::vector<Val3>> frames;
    /// frame -> output values (indexed like Netlist::outputs()).
    std::vector<std::vector<Val3>> outputs;
};

/// Simulate `seq` from the all-X initial state under 3-valued semantics.
/// Flip-flops capture their D value at each frame boundary; latches are
/// treated as transparent captures at the boundary as well (the scalar
/// reference keeps a single-phase clock model). `initial_state`, when given,
/// provides per-sequential-element starting values (indexed like
/// Netlist::seq_elements()).
SequenceResult simulate_sequence(const Netlist& nl, const InputSequence& seq,
                                 const std::vector<Val3>* initial_state = nullptr);

}  // namespace seqlearn::sim
