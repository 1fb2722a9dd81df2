#pragma once
// Combinational gate-equivalence identification (paper Section 3.1).
//
// Candidates come from 64-wide random-pattern signatures (equal signatures
// -> possibly equivalent; complementary -> possibly inverse-equivalent).
// Every candidate pair is then *proven* by exhaustive evaluation over the
// union of the two combinational supports (primary inputs and sequential
// outputs are free variables), batched 64 assignments per pass. Unproven
// candidates are dropped, so the resulting links are always sound to force
// during 3-valued simulation: if the gates agree on every binary assignment
// they agree on every completion of a partial assignment.

#include "netlist/netlist.hpp"
#include "netlist/topology.hpp"
#include "sim/frame_sim.hpp"

#include <cstdint>
#include <vector>

namespace seqlearn::core {

/// Random 64-lane signature rounds (64 * 8 = 512 patterns) and their seed.
inline constexpr std::size_t kSignatureRounds = 8;
inline constexpr std::uint64_t kSignatureSeed = 0x5eed5eed;
/// Largest union support the exhaustive proof takes on; larger candidates
/// are dropped (soundness is never at risk, only yield).
inline constexpr std::size_t kSupportCap = 14;
/// Signature buckets larger than this are skipped entirely (pathological
/// hashes).
inline constexpr std::size_t kMaxBucket = 64;

struct EquivResult {
    /// Forcing links in star topology (member <-> class representative),
    /// consumable by sim::FrameSimulator::set_equivalences.
    sim::EquivMap map;
    /// Classes with at least two members.
    std::size_t num_classes = 0;
    /// Gates participating in some class.
    std::size_t gates_in_classes = 0;
    /// Candidate pairs dropped (support too large, bucket too large, or
    /// refuted by the exhaustive check).
    std::size_t dropped = 0;
    /// Class representative per gate (kNoGate when unclassified) and
    /// polarity relative to the representative.
    std::vector<netlist::GateId> rep;
    std::vector<bool> inverted;
};

/// Find proven combinational equivalences in `nl`, whose CSR snapshot
/// `topo` provides the signature simulation and the proof order. Class
/// construction merges the verdicts in canonical bucket order.
EquivResult find_equivalences(const netlist::Netlist& nl, const netlist::Topology& topo);

}  // namespace seqlearn::core
