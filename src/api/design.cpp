#include "api/design.hpp"

#include <fstream>
#include <utility>

namespace seqlearn::api {

Design::Design(netlist::Netlist nl)
    : nl_(std::move(nl)),
      topo_(nl_),  // levelized exactly once, here
      classes_(netlist::clock_classes(nl_)),
      faults_(fault::collapse(nl_)),
      stems_(nl_.stems()),
      testability_(topo_) {}

Design::MemoryFootprint Design::memory_footprint() const noexcept {
    MemoryFootprint m;
    m.netlist_bytes = nl_.memory_bytes();
    m.topology_bytes = topo_.memory_bytes();
    m.faults_bytes = faults_.memory_bytes() + stems_.capacity() * sizeof(netlist::GateId) +
                     classes_.capacity() * sizeof(netlist::ClockClass);
    m.testability_bytes = testability_.memory_bytes();
    return m;
}

DesignPtr DesignBuilder::build() { return DesignPtr(new Design(std::move(nl_))); }

DesignLoad load_design(std::istream& in, std::string name) {
    DesignLoad out;
    netlist::BenchReadResult parsed = netlist::read_bench_diag(in, std::move(name));
    out.diagnostics = std::move(parsed.diagnostics);
    if (!parsed.netlist) return out;
    out.design = DesignBuilder(std::move(*parsed.netlist)).build();
    return out;
}

DesignLoad load_design(const std::string& bench_path) {
    std::ifstream in(bench_path, std::ios::binary);
    if (!in) {
        DesignLoad out;
        out.diagnostics.error(0, "cannot open '" + bench_path + "'");
        return out;
    }
    return load_design(in, bench_path);
}

}  // namespace seqlearn::api
