#pragma once
// Sound untestability proofs.
//
// A fault that has no test even in a single frame with a *free* state (all
// sequential outputs controllable) and pseudo-primary-output observation
// (sequential data inputs observable) can never be activated-and-propagated
// in any frame of any sequence — it is sequentially untestable. The proof
// is an exhaustive search, so only an Exhausted engine verdict counts;
// hitting the effort limit proves nothing.
//
// Verdicts report into fault::UntestableProof — the same taxonomy the
// tie-gate marking and the CNF timeframe-expansion backend use, so a fault
// carries exactly one kind of untestability proof however it was obtained.

#include "atpg/engine.hpp"
#include "fault/fault_list.hpp"

namespace seqlearn::atpg {

struct RedundancyResult {
    /// Combinational when proven untestable, None otherwise.
    fault::UntestableProof proof = fault::UntestableProof::None;
    /// With proof == None: true when a single-frame free-state test was
    /// found (the fault is combinationally testable — sequential ATPG still
    /// has to justify the state), false when the effort limit hit first.
    bool combinationally_testable = false;
};

/// Run the combinational redundancy proof for `f`. `cfg` supplies the
/// learning mode and data (ties make more proofs succeed); the window, the
/// backtrack limit and `redundancy_proof` are overridden internally.
RedundancyResult prove_redundancy(const netlist::Topology& topo, const fault::Fault& f,
                                  EngineConfig cfg, std::uint32_t effort_backtracks);

}  // namespace seqlearn::atpg
