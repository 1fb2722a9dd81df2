// Full test-generation flow through the Session facade: learn once, then
// run the sequential ATPG in each of the three learning modes (none /
// forbidden-value / known-value) and compare coverage and cost — a
// miniature of the paper's Table 5.
//
//   $ ./atpg_flow [suite-circuit-name] [backtrack-limit]
//
// Defaults: rt510a (a retimed, low-density-of-encoding circuit) at limit 30.

#include "api/session.hpp"
#include "workload/suite.hpp"

#include <cstdio>
#include <cstdlib>
#include <string>

int main(int argc, char** argv) {
    using namespace seqlearn;
    const std::string name = argc > 1 ? argv[1] : "rt510a";
    const auto backtrack_limit =
        static_cast<std::uint32_t>(argc > 2 ? std::atoi(argv[2]) : 30);

    // The paper flow is one-producer/many-consumers: learn once, then let
    // every campaign consume the frozen result. Compile the circuit into one
    // immutable Design, learn in a Session over it, and hand the frozen
    // result to each mode campaign below — each gets its own cheap Session
    // over the same Design (they could run on N threads).
    const api::DesignPtr design = api::DesignBuilder(workload::suite_circuit(name)).build();
    api::Session learner(design);
    std::printf("%s: %zu gates, %zu FFs, %zu collapsed faults (%zu uncollapsed)\n",
                name.c_str(), learner.netlist().counts().combinational,
                learner.netlist().seq_elements().size(), learner.collapsed_faults().size(),
                learner.collapsed_faults().universe_size());

    const core::LearnResult& learned = learner.learn();
    std::printf("learning: %zu FF-FF + %zu Gate-FF relations, %zu ties, %.3f s\n\n",
                learned.stats.ff_ff_relations, learned.stats.gate_ff_relations,
                learned.ties.count(), learned.stats.cpu_seconds);

    const std::shared_ptr<const core::LearnedSnapshot> snap = learner.freeze_learned();

    std::printf("%-18s | %8s %8s %8s %8s | %9s %10s\n", "mode", "detected", "untest",
                "aborted", "undet", "coverage", "CPU (s)");
    struct ModeRow {
        const char* label;
        atpg::LearnMode mode;
    };
    for (const ModeRow m : {ModeRow{"no learning", atpg::LearnMode::None},
                            ModeRow{"forbidden values", atpg::LearnMode::ForbiddenValue},
                            ModeRow{"known values", atpg::LearnMode::KnownValue}}) {
        // A fresh Session per campaign: construction is O(1) against the
        // shared Design (no re-levelization), and adopting the snapshot
        // copies nothing. LearnMode::None stays a true no-learning baseline
        // — the snapshot is only wired into modes that ask for learned data.
        api::Session session(design);
        session.use_learned(snap);
        atpg::AtpgConfig cfg;
        cfg.mode = m.mode;
        cfg.backtrack_limit = backtrack_limit;
        cfg.count_c_cycle_redundant = m.mode != atpg::LearnMode::None;
        const api::AtpgReport& report = session.atpg(cfg);
        const auto c = report.list.counts();
        std::printf("%-18s | %8zu %8zu %8zu %8zu | %8.2f%% %10.2f\n", m.label, c.detected,
                    c.untestable, c.aborted, c.undetected,
                    100.0 * report.list.test_coverage(), report.outcome.cpu_seconds);
    }
    std::printf("\n(test coverage = detected / (total - untestable), as in the paper)\n");
    return 0;
}
