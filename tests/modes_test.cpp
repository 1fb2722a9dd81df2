// Focused tests for the learning-mode machinery: tie-aware fault
// simulation, forbidden-value propagation inside the engine, frame-tagged
// relation application, and the complete-search redundancy prover.

#include "api/session.hpp"
#include "atpg/atpg_loop.hpp"
#include "atpg/engine.hpp"
#include "atpg/redundancy.hpp"
#include "core/seq_learn.hpp"
#include "fault/collapse.hpp"
#include "fault/fault_sim.hpp"
#include "netlist/builder.hpp"
#include "test_helpers.hpp"

#include <gtest/gtest.h>

namespace seqlearn::atpg {
namespace {

using fault::Fault;
using fault::kOutputPin;
using logic::Val3;
using netlist::GateType;
using netlist::Netlist;
using netlist::NetlistBuilder;

// The tie-vs-validation circuit from the ATPG debugging session: g is
// combinationally tied to 0, and several faults are detectable only when
// the expected-value model knows it.
Netlist tie_circuit() {
    NetlistBuilder b("tiec");
    b.input("a").input("c");
    b.gate(GateType::Not, "na", {"a"});
    b.gate(GateType::And, "g", {"a", "na"});
    b.gate(GateType::Or, "y", {"g", "c"});
    b.dff("f", "y");
    b.gate(GateType::And, "z", {"f", "c"});
    b.output("z");
    return b.build();
}

TEST(TieAwareFaultSim, GoodLaneGainsTieValues) {
    const Netlist nl = tie_circuit();
    const core::LearnResult learned = testing::learn(nl);
    ASSERT_EQ(learned.ties.value(nl.find("g")), Val3::Zero);

    // c s-a-1 with frames (c=0),(c=X): plain 3-valued good simulation leaves
    // the PO unknown (y@0 = OR(X,0) = X), so detection needs the tie. Both
    // simulators share one CSR snapshot (the Session pattern).
    const Fault f{nl.find("c"), kOutputPin, Val3::One};
    const sim::InputSequence seq{{Val3::X, Val3::Zero}, {Val3::X, Val3::X}};
    const netlist::Topology topo(nl);
    fault::FaultSimulator plain(topo);
    EXPECT_FALSE(plain.detects(seq, f));
    fault::FaultSimulator aware(topo);
    aware.set_good_ties(&learned.ties.dense(), &learned.ties.dense_cycles());
    EXPECT_TRUE(aware.detects(seq, f));
}

TEST(TieAwareFaultSim, FaultyLaneInsideConeStaysUnseeded) {
    // A fault on the tied gate itself must not have the tie forced into its
    // faulty lane: g s-a-1 is exactly the broken tie and stays detectable.
    const Netlist nl = tie_circuit();
    const core::LearnResult learned = testing::learn(nl);
    const netlist::Topology topo(nl);
    fault::FaultSimulator aware(topo);
    aware.set_good_ties(&learned.ties.dense(), &learned.ties.dense_cycles());
    const Fault g1{nl.find("g"), kOutputPin, Val3::One};
    // Frame 0 (c=0): good y = OR(g_tie=0, 0) = 0 so f captures 0; faulty
    // y = OR(1, 0) = 1 so f captures 1. Frame 1 (c=1) exposes f at z.
    const sim::InputSequence seq{{Val3::X, Val3::Zero}, {Val3::X, Val3::One}};
    EXPECT_TRUE(aware.detects(seq, g1));
    // Without tie knowledge the good simulation stays X at the output —
    // this is exactly the pessimism gap the tie-aware model closes.
    fault::FaultSimulator plain(topo);
    EXPECT_FALSE(plain.detects(seq, g1));
}

TEST(TieAwareFaultSim, NeverContradictsPlainSimulation) {
    // Tie seeding may only refine X values, never flip binary ones: any
    // fault detected by the plain simulator stays detected by the aware one.
    for (const std::uint64_t seed : {3ULL, 14ULL, 59ULL}) {
        const Netlist nl = testing::random_circuit(seed, 3, 4, 14);
        const core::LearnResult learned = testing::learn(nl);
        const netlist::Topology topo(nl);
        fault::FaultSimulator plain(topo);
        fault::FaultSimulator aware(topo);
        aware.set_good_ties(&learned.ties.dense(), &learned.ties.dense_cycles());
        util::Rng rng(seed);
        const auto universe = fault::fault_universe(nl);
        for (int trial = 0; trial < 3; ++trial) {
            sim::InputSequence seq(6, sim::InputFrame(nl.inputs().size()));
            for (auto& fr : seq)
                for (auto& v : fr) v = rng.chance(0.5) ? Val3::One : Val3::Zero;
            for (const Fault& f : universe) {
                if (plain.detects(seq, f)) {
                    EXPECT_TRUE(aware.detects(seq, f))
                        << "seed " << seed << " " << to_string(nl, f);
                }
            }
        }
    }
}

TEST(ForbiddenMode, ForbidPruningDetectsConflictEarly) {
    // F1=1 => F2=1 learned; a fault whose detection requires F1=1 and F2=0
    // in the same frame is hopeless — forbidden mode must refuse instead of
    // burning backtracks.
    NetlistBuilder b("forb");
    b.input("a").input("c");
    b.gate(GateType::Or, "d2", {"a", "c"});
    b.dff("F1", "a");
    b.dff("F2", "d2");
    b.gate(GateType::Not, "nF2", {"F2"});
    b.gate(GateType::And, "bad", {"F1", "nF2"});  // == invalid-state decode
    b.gate(GateType::Or, "y", {"bad", "c"});
    b.output("y");
    const Netlist nl = b.build();
    const core::LearnResult learned = testing::learn(nl);
    ASSERT_TRUE(
        learned.db.implies({nl.find("F1"), Val3::One}, {nl.find("F2"), Val3::One}));

    const netlist::Topology topo(nl);
    EngineConfig cfg;
    cfg.backtrack_limit = 10000;
    // bad s-a-0: excitation needs bad=1, i.e. the invalid state F1=1,F2=0.
    const Fault f{nl.find("bad"), kOutputPin, Val3::Zero};
    const EngineResult none = solve(topo, f, 4, cfg);
    cfg.mode = LearnMode::ForbiddenValue;
    cfg.db = &learned.db;
    cfg.ties = &learned.ties;
    const EngineResult forb = solve(topo, f, 4, cfg);
    // Both must fail to find a test (it does not exist); learning must not
    // cost more backtracks than no-learning.
    EXPECT_NE(none.status, EngineResult::Status::TestFound);
    EXPECT_NE(forb.status, EngineResult::Status::TestFound);
    EXPECT_LE(forb.backtracks, none.backtracks);
}

TEST(KnownMode, ImpliedAssignmentsAreJustifiedInTests) {
    // Known-value mode creates justification obligations for implied
    // literals; the end-to-end result must still validate.
    api::Session session(testing::random_circuit(31, 3, 5, 16));
    AtpgConfig cfg;
    cfg.mode = LearnMode::KnownValue;  // Session wires in its learn() result
    cfg.backtrack_limit = 200;
    const api::AtpgReport& report = session.atpg(cfg);
    EXPECT_EQ(report.outcome.invalid_tests, 0u);
}

TEST(FrameTags, RelationsNotAppliedBeforeTheirFrame) {
    // A relation learned at frame 1 must not fire at ILA frame 0 (the state
    // there is arbitrary). Construct: F1=1 => F2=1 @1; at frame 0 both are
    // unknown and a known-value application would wrongly bind them.
    NetlistBuilder b("tags");
    b.input("a");
    b.dff("F1", "a");
    b.dff("F2", "a");
    b.gate(GateType::Xor, "y", {"F1", "F2"});  // 0 in every *valid* state
    b.output("y");
    const Netlist nl = b.build();
    const core::LearnResult learned = testing::learn(nl);
    const core::Literal f1{nl.find("F1"), Val3::One};
    const core::Literal f2{nl.find("F2"), Val3::One};
    ASSERT_TRUE(learned.db.implies(f1, f2));
    ASSERT_GE(learned.db.frame_of(f1, f2), 1u);
    // y s-a-0 is untestable in valid states; a power-up state with F1 != F2
    // exists but is unreachable and the engine cannot control frame-0 state,
    // so the campaign must not report a test. The point: with frame tags
    // respected this is *proven* consistently across modes, with no invalid
    // tests generated at frame 0.
    const netlist::Topology topo(nl);
    for (const LearnMode mode : {LearnMode::None, LearnMode::KnownValue,
                                 LearnMode::ForbiddenValue}) {
        fault::FaultList list(
            std::vector<Fault>{Fault{nl.find("y"), kOutputPin, Val3::Zero}});
        AtpgConfig cfg;
        cfg.mode = mode;
        cfg.learned = mode == LearnMode::None ? nullptr : &learned;
        cfg.backtrack_limit = 1000;
        const AtpgOutcome out = run_atpg(topo, list, cfg);
        EXPECT_EQ(out.invalid_tests, 0u);
        EXPECT_NE(list.status(0), fault::FaultStatus::Detected);
    }
}

TEST(CompleteSearch, ProverAgreesWithExhaustiveOracleOnTinyCircuits) {
    for (const std::uint64_t seed : {4ULL, 23ULL, 37ULL}) {
        const Netlist nl = testing::random_circuit(seed, 2, 3, 9);
        const netlist::Topology topo(nl);
        fault::FaultSimulator fsim(topo);
        const auto universe = fault::fault_universe(nl);
        for (const Fault& f : universe) {
            const RedundancyResult v = prove_redundancy(topo, f, {}, 1u << 20);
            if (v.proof != fault::UntestableProof::Combinational) continue;
            // Exhaustive cross-check over all sequences up to 4 frames.
            bool detectable = false;
            const std::size_t m = nl.inputs().size();
            for (std::size_t len = 1; len <= 4 && !detectable; ++len) {
                for (std::uint64_t bits = 0; bits < (1ULL << (m * len)); ++bits) {
                    sim::InputSequence seq(len, sim::InputFrame(m, Val3::X));
                    for (std::size_t t = 0; t < len; ++t)
                        for (std::size_t i = 0; i < m; ++i)
                            seq[t][i] = (bits >> (t * m + i)) & 1 ? Val3::One : Val3::Zero;
                    if (fsim.detects(seq, f)) detectable = true;
                }
            }
            EXPECT_FALSE(detectable) << "seed " << seed << ": " << to_string(nl, f);
        }
    }
}

TEST(CompleteSearch, FindsTestsThatFrontierSearchMisses) {
    // The exhaustive fallback must at least match the frontier search on
    // single-frame problems: everything the frontier engine detects, the
    // complete prover also reaches (as CombinationallyTestable).
    const Netlist nl = testing::random_circuit(8, 3, 0, 12);
    const netlist::Topology topo(nl);
    EngineConfig frontier_cfg;
    frontier_cfg.backtrack_limit = 1000;
    const fault::CollapsedFaults collapsed = fault::collapse(nl);
    for (const Fault& f : collapsed.representatives()) {
        const EngineResult r = solve(topo, f, 1, frontier_cfg);
        if (r.status != EngineResult::Status::TestFound) continue;
        EXPECT_TRUE(prove_redundancy(topo, f, {}, 1u << 20).combinationally_testable)
            << to_string(nl, f);
    }
}

}  // namespace
}  // namespace seqlearn::atpg
