#pragma once
// Single stuck-at fault model over gate-level netlists.
//
// Faults live on lines: every gate output (the stem) carries two faults, and
// every fanout branch (an input pin whose driver has more than one fanout)
// carries two more. Pins whose driver is fanout-free are electrically the
// same line as the driver's output, so they carry no separate faults.

#include "logic/val3.hpp"
#include "netlist/netlist.hpp"

#include <cstdint>
#include <string>
#include <vector>

namespace seqlearn::fault {

using logic::Val3;
using netlist::GateId;
using netlist::Netlist;

/// Marker for an output (stem) fault in Fault::pin.
inline constexpr std::int32_t kOutputPin = -1;

/// One stuck-at fault.
struct Fault {
    /// Gate whose output (pin == kOutputPin) or input pin carries the fault.
    GateId gate = netlist::kNoGate;
    /// kOutputPin for the stem, otherwise the input-pin index on `gate`.
    std::int32_t pin = kOutputPin;
    /// The stuck value (Zero or One).
    Val3 stuck = Val3::Zero;

    friend bool operator==(const Fault&, const Fault&) = default;
    friend auto operator<=>(const Fault&, const Fault&) = default;
};

/// The gate whose output is `f`'s line: f.gate for a stem fault, the driver
/// of pin f.pin for a branch fault. Its fault-free value is the line's.
/// `graph` is a netlist::Netlist or a netlist::Topology.
template <typename Graph>
GateId line_driver(const Graph& graph, const Fault& f) noexcept {
    return f.pin == kOutputPin ? f.gate : graph.fanins(f.gate)[f.pin];
}

/// "G14 s-a-1" or "G9.in2 s-a-0".
std::string to_string(const Netlist& nl, const Fault& f);

/// The uncollapsed fault universe of `nl`: stem faults on every gate
/// (including inputs and sequential elements) plus branch faults on every
/// pin whose driver fans out to more than one place.
std::vector<Fault> fault_universe(const Netlist& nl);

/// Build a copy of `nl` with `f` permanently inserted, for reference
/// simulation: an output fault rewires every consumer of the line to a
/// constant; a pin fault rewires only that pin. The faulty gate's logic
/// stays in place (it simply drives nothing / the other pins).
Netlist apply_fault_copy(const Netlist& nl, const Fault& f);

}  // namespace seqlearn::fault
