// The retiming study (paper Section 5, references [9] and [16]): forward
// retiming replicates registers, the density of encoding drops, invalid
// states appear, and sequential learning recovers them as FF-FF relations —
// which is exactly what rescues ATPG on this circuit class.
//
//   $ ./retimed_invalid_states

#include "api/session.hpp"
#include "core/invalid_state.hpp"
#include "workload/circuit_gen.hpp"
#include "workload/retime.hpp"

#include <cstdio>

int main() {
    using namespace seqlearn;

    // A small FSM-style base so the state space stays exhaustively countable.
    workload::GenParams p;
    p.name = "demo_fsm";
    p.seed = 2026;
    p.n_inputs = 3;
    p.n_ffs = 5;
    p.n_gates = 28;
    p.shadow_ff_fraction = 0.0;
    const netlist::Netlist base = workload::generate(p);

    workload::RetimeStats st;
    const netlist::Netlist rt = workload::forward_retime(base, 4, 7, &st);
    std::printf("forward retiming: %zu moves, registers %zu -> %zu\n", st.moves_applied,
                st.registers_before, st.registers_after);

    for (const netlist::Netlist* nl : {&base, &rt}) {
        std::printf("\n--- %s: %zu FFs, %zu gates ---\n", nl->name().c_str(),
                    nl->seq_elements().size(), nl->counts().combinational);
        if (nl->seq_elements().size() <= 16) {
            const double density = core::density_of_encoding(*nl, 16);
            std::printf("density of encoding: %.4f (valid states / total states)\n",
                        density);
        }
        // One Session per circuit (over a private Design compiled from a
        // copy): learning and both campaigns below share its topology and
        // engines.
        api::Session session{netlist::Netlist(*nl)};
        const core::LearnResult& learned = session.learn();
        const core::InvalidStateChecker chk(*nl, learned.db);
        std::printf("learned: %zu FF-FF relations (invalid-state relations), "
                    "%zu Gate-FF, %zu ties, %.3f s\n",
                    learned.stats.ff_ff_relations, learned.stats.gate_ff_relations,
                    learned.ties.count(), learned.stats.cpu_seconds);
        if (chk.num_ffs() <= 20) {
            std::printf("states excluded by learned relations: %llu / %llu\n",
                        static_cast<unsigned long long>(chk.count_invalid_states()),
                        1ULL << chk.num_ffs());
        }

        // ATPG with and without the learned data, tight backtrack budget.
        for (const bool use_learning : {false, true}) {
            atpg::AtpgConfig cfg;
            cfg.backtrack_limit = 30;
            cfg.mode = use_learning ? atpg::LearnMode::ForbiddenValue
                                    : atpg::LearnMode::None;
            cfg.count_c_cycle_redundant = use_learning;
            const api::AtpgReport& report = session.atpg(cfg);
            const auto c = report.list.counts();
            std::printf("  ATPG %-12s: det %zu, untestable %zu, aborted %zu, %.2f s\n",
                        use_learning ? "with learning" : "no learning", c.detected,
                        c.untestable, c.aborted, report.outcome.cpu_seconds);
        }
    }
    return 0;
}
