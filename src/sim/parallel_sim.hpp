#pragma once
// 64-way bit-parallel random-pattern simulation for the gate-equivalence
// candidate search (paper Section 3.1: "Equivalent combinational gates can
// be efficiently identified based on parallel pattern simulation
// techniques"). Evaluation is sim::eval_gates over the CSR topology
// schedule.

#include "logic/pattern.hpp"
#include "netlist/netlist.hpp"
#include "netlist/topology.hpp"
#include "util/rng.hpp"

#include <span>
#include <vector>

namespace seqlearn::sim {

using logic::Pattern;
using netlist::GateId;
using netlist::Netlist;

/// Fill every source lane (inputs and sequential outputs) of `pats` with
/// random binary values and evaluate every combinational gate. `pats` must
/// be sized topo.size().
void eval_random(const netlist::Topology& topo, std::vector<Pattern>& pats, util::Rng& rng);

/// Per-gate 64-bit signatures accumulated over `rounds` random evaluations;
/// two combinationally equivalent gates always have equal signatures, and
/// inverse-equivalent gates have complementary ones. Collisions are
/// candidates only — callers must prove equivalence before using it.
///
/// Storage is one flat gate-major array (`rounds` words per gate) written
/// in place — no per-gate vectors.
struct SignatureSet {
    /// words[g * rounds + r] = the ones-plane of gate g in round r.
    std::vector<std::uint64_t> words;
    std::size_t rounds = 0;

    /// The signature words of gate `g`.
    std::span<const std::uint64_t> of(GateId g) const noexcept {
        return {words.data() + static_cast<std::size_t>(g) * rounds, rounds};
    }
};

SignatureSet collect_signatures(const netlist::Topology& topo, std::size_t rounds,
                                std::uint64_t seed);

}  // namespace seqlearn::sim
