#pragma once
// Pluggable fault-ordering strategies for the ATPG campaign.
//
// The campaign builds one canonical target schedule (the deterministic
// fault-index queue); a strategy permutes that schedule and nothing else.
// Parallel runs commit verdicts in schedule order (the campaign's window
// loop in atpg_loop.cpp), so a given strategy is bit-identical at any
// thread count — the strategy changes *which* identical run you get, not
// its determinism.

#include "fault/fault_list.hpp"
#include "guide/testability.hpp"
#include "netlist/topology.hpp"

#include <cstdint>
#include <string_view>
#include <vector>

namespace seqlearn::guide {

enum class OrderStrategy : std::uint8_t {
    Index,           ///< collapsed fault-index order (today's behavior)
    Level,           ///< shallow lines first (combinational level, index tiebreak)
    ScoapHardFirst,  ///< descending SCOAP hardness (hardest testable-looking first)
    Random,          ///< Fisher–Yates shuffle from a 64-bit seed
};

/// The CLI and protocol spelling: "index", "level", "scoap_hard_first" or
/// "random".
std::string_view order_name(OrderStrategy s);

/// Permute `targets` (indices into `list`) in place according to `s`.
/// All sorts are stable with the fault index as the final tiebreak, so the
/// result is a pure function of (targets, strategy, seed, circuit).
/// `tst` is required for ScoapHardFirst and ignored otherwise; kInf-hard
/// faults (untestable-looking) sort *last* under hard-first so the engine
/// does not burn its backtrack budget on them before touching anything
/// provable. `seed` is used by Random only.
void order_targets(std::vector<std::size_t>& targets, OrderStrategy s,
                   const netlist::Topology& topo, const fault::FaultList& list,
                   const Testability* tst, std::uint64_t seed);

}  // namespace seqlearn::guide
