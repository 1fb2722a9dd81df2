#include "atpg/redundancy.hpp"

namespace seqlearn::atpg {

RedundancyResult prove_redundancy(const netlist::Topology& topo, const fault::Fault& f,
                                  EngineConfig cfg, std::uint32_t effort_backtracks) {
    cfg.redundancy_proof = true;
    cfg.backtrack_limit = effort_backtracks;
    const EngineResult r = solve(topo, f, /*frames=*/1, cfg);
    RedundancyResult out;
    switch (r.status) {
        case EngineResult::Status::TestFound: out.combinationally_testable = true; break;
        case EngineResult::Status::Exhausted:
            out.proof = fault::UntestableProof::Combinational;
            break;
        case EngineResult::Status::Aborted: break;
    }
    return out;
}

}  // namespace seqlearn::atpg
