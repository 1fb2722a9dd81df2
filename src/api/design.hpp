#pragma once
// The immutable, thread-safe circuit artifact every Session consumes.
//
// The paper's flow is one-producer/many-consumers: a circuit is compiled
// once (parse, levelize, partition clocks, collapse faults), then any
// number of learning / ATPG / fault-simulation runs consume that frozen
// structure. A Design is exactly that artifact: everything in it is
// computed at build time and const afterwards, so a
// `std::shared_ptr<const Design>` can be handed to any number of threads,
// each constructing its own cheap api::Session over it, with no locking and
// bit-identical results to a serial run.
//
//     auto load = api::load_design("big.bench");      // streaming reader
//     if (!load.design) { /* inspect load.diagnostics */ }
//     api::Session s(load.design);                     // microseconds
//
//     // or compile a netlist you already hold:
//     auto design = api::DesignBuilder(std::move(nl)).build();
//
// Ownership: Design owns the Netlist, the one CSR Topology (levelized
// once), the clock classes, the collapsed fault universe and the SCOAP
// analysis. It holds no learned data: learned knowledge lives in a
// shared core::LearnedSnapshot that each Session over the Design adopts
// (Session::use_learned) or produces (Session::learn).

#include "fault/collapse.hpp"
#include "guide/testability.hpp"
#include "netlist/bench_io.hpp"
#include "netlist/clock_class.hpp"
#include "netlist/netlist.hpp"
#include "netlist/topology.hpp"

#include <iosfwd>
#include <memory>
#include <string>
#include <vector>

namespace seqlearn::api {

class Design {
public:
    const std::string& name() const noexcept { return nl_.name(); }
    const netlist::Netlist& netlist() const noexcept { return nl_; }
    const netlist::Topology& topology() const noexcept { return topo_; }
    const std::vector<netlist::ClockClass>& clock_classes() const noexcept {
        return classes_;
    }
    const fault::CollapsedFaults& collapsed_faults() const noexcept { return faults_; }

    /// SCOAP testability analysis (sequential CC0/CC1/CO), computed once at
    /// build time like the clock classes, shared read-only by every Session
    /// (fault ordering, guided search, backend routing).
    const guide::Testability& testability() const noexcept { return testability_; }

    /// Fanout stems in id order, precomputed for stats/reporting and for
    /// consumers sizing progress totals (the learning pass derives its own
    /// per-clock-class schedule internally).
    const std::vector<netlist::GateId>& stems() const noexcept { return stems_; }

    /// Per-component heap footprint of the frozen artifact — what a serving
    /// cache charges against its memory cap for this Design.
    struct MemoryFootprint {
        std::size_t netlist_bytes = 0;
        std::size_t topology_bytes = 0;
        std::size_t faults_bytes = 0;
        std::size_t testability_bytes = 0;  ///< SCOAP cost arrays

        std::size_t total() const noexcept {
            return netlist_bytes + topology_bytes + faults_bytes + testability_bytes;
        }
    };
    MemoryFootprint memory_footprint() const noexcept;
    std::size_t memory_bytes() const noexcept { return memory_footprint().total(); }

private:
    friend class DesignBuilder;
    explicit Design(netlist::Netlist nl);

    netlist::Netlist nl_;
    netlist::Topology topo_;
    std::vector<netlist::ClockClass> classes_;
    fault::CollapsedFaults faults_;
    std::vector<netlist::GateId> stems_;
    guide::Testability testability_;
};

/// How Designs are shared: immutable, reference-counted.
using DesignPtr = std::shared_ptr<const Design>;

/// Compiles a Netlist into a Design. Compilation (levelization, clock
/// classes, fault collapsing, SCOAP) happens once in build(); the returned
/// Design is frozen.
class DesignBuilder {
public:
    explicit DesignBuilder(netlist::Netlist nl) : nl_(std::move(nl)) {}

    /// Compile and freeze. The builder is consumed (netlist moved out).
    DesignPtr build();

private:
    netlist::Netlist nl_;
};

/// Result of loading a .bench file into a Design: the design (null when the
/// reader recorded any error) plus every parse diagnostic.
struct DesignLoad {
    DesignPtr design;
    netlist::Diagnostics diagnostics;

    bool ok() const noexcept { return design != nullptr; }
};

/// Parse `in` with the streaming .bench reader and compile the result into
/// a shared Design. On parse errors the design is null and the diagnostics
/// say why (line-numbered); warnings are reported alongside a valid design.
DesignLoad load_design(std::istream& in, std::string name = "circuit");

/// load_design from a file path (the path becomes the circuit name). An
/// unreadable path is reported as an error diagnostic, not an exception.
DesignLoad load_design(const std::string& bench_path);

}  // namespace seqlearn::api
