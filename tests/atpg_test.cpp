// Tests for the sequential ATPG: the D-algorithm engine, the redundancy
// prover, the campaign loop, learned-implication modes, and exhaustive
// soundness checks of untestability claims on small circuits.

#include "api/session.hpp"
#include "atpg/atpg_loop.hpp"
#include "atpg/engine.hpp"
#include "atpg/redundancy.hpp"
#include "core/seq_learn.hpp"
#include "fault/collapse.hpp"
#include "netlist/bench_io.hpp"
#include "netlist/builder.hpp"
#include "test_helpers.hpp"

#include <gtest/gtest.h>

namespace seqlearn::atpg {
namespace {

using fault::Fault;
using fault::FaultStatus;
using fault::kOutputPin;
using logic::Val3;
using netlist::GateId;
using netlist::GateType;
using netlist::Netlist;
using netlist::NetlistBuilder;
using sim::InputSequence;

constexpr const char* kS27 = R"(
INPUT(G0)
INPUT(G1)
INPUT(G2)
INPUT(G3)
OUTPUT(G17)
G5 = DFF(G10)
G6 = DFF(G11)
G7 = DFF(G13)
G14 = NOT(G0)
G17 = NOT(G11)
G8 = AND(G14, G6)
G15 = OR(G12, G8)
G16 = OR(G3, G8)
G9 = NAND(G16, G15)
G10 = NOR(G14, G11)
G11 = NOR(G5, G9)
G12 = NOR(G1, G7)
G13 = NOR(G2, G12)
)";

Netlist make_s27() { return netlist::read_bench_string(kS27, "s27"); }

// Exhaustive oracle: does any binary input sequence up to `max_len` frames
// detect `f`? Only for tiny circuits.
bool exhaustively_detectable(const Netlist& nl, const Fault& f, std::size_t max_len) {
    const netlist::Topology topo(nl);
    fault::FaultSimulator fsim(topo);
    const std::size_t m = nl.inputs().size();
    for (std::size_t len = 1; len <= max_len; ++len) {
        const std::uint64_t combos = 1ULL << (m * len);
        for (std::uint64_t bits = 0; bits < combos; ++bits) {
            InputSequence seq(len, sim::InputFrame(m, Val3::X));
            for (std::size_t t = 0; t < len; ++t) {
                for (std::size_t i = 0; i < m; ++i) {
                    seq[t][i] = (bits >> (t * m + i)) & 1 ? Val3::One : Val3::Zero;
                }
            }
            if (fsim.detects(seq, f)) return true;
        }
    }
    return false;
}

TEST(Engine, CombinationalTestGeneration) {
    NetlistBuilder b("and2");
    b.input("a").input("c");
    b.gate(GateType::And, "y", {"a", "c"});
    b.output("y");
    const Netlist nl = b.build();
    const netlist::Topology topo(nl);
    Engine engine(topo);
    EngineConfig cfg;
    cfg.backtrack_limit = 100;
    const EngineResult r = engine.solve(Fault{nl.find("a"), kOutputPin, Val3::Zero}, 1, cfg);
    ASSERT_EQ(r.status, EngineResult::Status::TestFound);
    fault::FaultSimulator fsim(topo);
    EXPECT_TRUE(fsim.detects(r.test, Fault{nl.find("a"), kOutputPin, Val3::Zero}));
    // The test must be a=1, c=1.
    EXPECT_EQ(r.test[0][0], Val3::One);
    EXPECT_EQ(r.test[0][1], Val3::One);
}

TEST(Engine, GeneratesForEveryDetectableS27Fault) {
    const Netlist nl = make_s27();
    const auto collapsed = fault::collapse(nl);
    const netlist::Topology topo(nl);
    Engine engine(topo);
    fault::FaultSimulator fsim(topo);
    EngineConfig cfg;
    cfg.backtrack_limit = 5000;
    std::size_t found = 0, none = 0;
    for (const Fault& f : collapsed.representatives()) {
        bool detected = false;
        for (std::uint32_t w : {1u, 2u, 3u, 4u, 6u, 8u}) {
            const EngineResult r = engine.solve(f, w, cfg);
            if (r.status == EngineResult::Status::TestFound) {
                ASSERT_TRUE(fsim.detects(r.test, f)) << to_string(nl, f) << " window " << w;
                detected = true;
                break;
            }
        }
        detected ? ++found : ++none;
    }
    // s27 is fully testable; allow a small completeness gap for the
    // window-bounded engine but demand the bulk.
    EXPECT_GE(found, collapsed.size() - 2) << "found " << found << "/" << collapsed.size();
}

TEST(Engine, SequentialDepthNeedsWiderWindow) {
    NetlistBuilder b("pipe");
    b.input("i");
    b.dff("f1", "i");
    b.dff("f2", "f1");
    b.output("f2");
    const Netlist nl = b.build();
    const netlist::Topology topo(nl);
    Engine engine(topo);
    EngineConfig cfg;
    cfg.backtrack_limit = 1000;
    const Fault f{nl.find("i"), kOutputPin, Val3::Zero};
    EXPECT_NE(engine.solve(f, 2, cfg).status, EngineResult::Status::TestFound);
    const EngineResult r = engine.solve(f, 3, cfg);
    ASSERT_EQ(r.status, EngineResult::Status::TestFound);
    fault::FaultSimulator fsim(topo);
    EXPECT_TRUE(fsim.detects(r.test, f));
}

TEST(Engine, SelfInitializingSequenceRequired) {
    // g = AND(f, j), f = DFF(i): detecting j s-a-1 needs f=1, which must be
    // set up through i in an earlier frame (frame-0 state is unknown).
    NetlistBuilder b("init");
    b.input("i").input("j");
    b.dff("f", "i");
    b.gate(GateType::And, "g", {"f", "j"});
    b.output("g");
    const Netlist nl = b.build();
    const netlist::Topology topo(nl);
    Engine engine(topo);
    EngineConfig cfg;
    cfg.backtrack_limit = 1000;
    const Fault f{nl.find("j"), kOutputPin, Val3::One};
    EXPECT_NE(engine.solve(f, 1, cfg).status, EngineResult::Status::TestFound);
    const EngineResult r = engine.solve(f, 2, cfg);
    ASSERT_EQ(r.status, EngineResult::Status::TestFound);
    fault::FaultSimulator fsim(topo);
    EXPECT_TRUE(fsim.detects(r.test, f));
    // Frame 0 must drive i=1 so that f=1 in frame 1.
    EXPECT_EQ(r.test[0][0], Val3::One);
    EXPECT_EQ(r.test[1][1], Val3::Zero);
}

TEST(Redundancy, ProvesUntestableAndTestable) {
    // g = AND(a, NOT a) is constant 0; g s-a-0 is untestable, c s-a-0 is not.
    NetlistBuilder b("red");
    b.input("a").input("c");
    b.gate(GateType::Not, "na", {"a"});
    b.gate(GateType::And, "g", {"a", "na"});
    b.gate(GateType::Or, "y", {"g", "c"});
    b.output("y");
    const Netlist nl = b.build();
    const netlist::Topology topo(nl);
    Engine engine(topo);
    EngineConfig cfg;
    EXPECT_EQ(prove_redundancy(engine, Fault{nl.find("g"), kOutputPin, Val3::Zero}, cfg, 10000)
                  .proof,
              fault::UntestableProof::Combinational);
    const RedundancyResult c_verdict =
        prove_redundancy(engine, Fault{nl.find("c"), kOutputPin, Val3::Zero}, cfg, 10000);
    EXPECT_EQ(c_verdict.proof, fault::UntestableProof::None);
    EXPECT_TRUE(c_verdict.combinationally_testable);
}

TEST(Redundancy, FreeStateSeparatesCombinationalFromSequential) {
    // f = DFF(i); y = AND(f, j). With a free state everything is exercisable
    // in one frame, so nothing here is proven untestable.
    NetlistBuilder b("fs");
    b.input("i").input("j");
    b.dff("f", "i");
    b.gate(GateType::And, "y", {"f", "j"});
    b.output("y");
    const Netlist nl = b.build();
    const netlist::Topology topo(nl);
    Engine engine(topo);
    EngineConfig cfg;
    for (const Fault f : {Fault{nl.find("f"), kOutputPin, Val3::Zero},
                          Fault{nl.find("j"), kOutputPin, Val3::One}}) {
        EXPECT_EQ(prove_redundancy(engine, f, cfg, 10000).proof,
                  fault::UntestableProof::None)
            << to_string(nl, f);
    }
}

TEST(AtpgLoop, FullCampaignOnS27) {
    api::Session session(make_s27());
    AtpgConfig cfg;
    cfg.backtrack_limit = 1000;
    const api::AtpgReport& report = session.atpg(cfg);
    const auto c = report.list.counts();
    EXPECT_EQ(report.outcome.invalid_tests, 0u);
    EXPECT_GE(c.detected, c.total - c.untestable - 2);
    EXPECT_GT(report.list.fault_coverage(), 0.9);
    // Every test in the suite is validated and non-empty.
    for (const auto& t : report.outcome.tests) EXPECT_FALSE(t.empty());
    // The facade's independent validation agrees with the campaign.
    const api::FaultSimReport check = session.fault_sim();
    EXPECT_EQ(check.detected, c.detected);
    EXPECT_EQ(check.total, c.total);
}

TEST(AtpgLoop, UntestableClaimsAreExhaustivelySound) {
    // Small circuits with injected redundancy: every Untestable verdict is
    // cross-checked against all binary sequences up to 4 frames.
    for (const std::uint64_t seed : {5ULL, 17ULL, 29ULL}) {
        const Netlist nl = testing::random_circuit(seed, 2, 3, 10);
        api::Session session(nl);
        AtpgConfig cfg;
        cfg.backtrack_limit = 200;
        cfg.mode = LearnMode::ForbiddenValue;
        const fault::FaultList& list = session.atpg(cfg).list;
        for (std::size_t i = 0; i < list.size(); ++i) {
            if (list.status(i) != FaultStatus::Untestable) continue;
            EXPECT_FALSE(exhaustively_detectable(nl, list.fault(i), 4))
                << "seed " << seed << ": " << to_string(nl, list.fault(i));
        }
    }
}

TEST(AtpgLoop, TieDerivedUntestableFaults) {
    // The tied gate's stuck-at-0 must be claimed untestable via the tie.
    NetlistBuilder b("tie");
    b.input("a").input("c");
    b.gate(GateType::Not, "na", {"a"});
    b.gate(GateType::And, "g", {"a", "na"});
    b.gate(GateType::Or, "y", {"g", "c"});
    b.dff("f", "y");
    b.gate(GateType::And, "z", {"f", "c"});
    b.output("z");
    const Netlist nl = b.build();
    api::Session session(nl);
    ASSERT_TRUE(session.learn().ties.is_tied(nl.find("g")));

    AtpgConfig cfg;
    cfg.mode = LearnMode::ForbiddenValue;
    cfg.backtrack_limit = 500;
    const AtpgOutcome& out = session.atpg(cfg).outcome;
    EXPECT_GE(out.untestable_by_tie, 1u);
    EXPECT_EQ(out.invalid_tests, 0u);
}

// All three learning modes must produce only validated detections, and
// neither learned mode may *reduce* the set of provably-correct results on
// these small circuits (coverage parity or better is not guaranteed by
// theory for Known/Forbidden — the paper discusses pathologies — but tests
// must stay sound).
class AtpgModes : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(AtpgModes, AllModesProduceValidatedTestsOnly) {
    const std::uint64_t seed = GetParam();
    const Netlist nl = testing::random_circuit(seed, 3, 4, 14);
    const core::LearnResult learned = testing::learn(nl);
    const netlist::Topology topo(nl);
    for (const LearnMode mode :
         {LearnMode::None, LearnMode::KnownValue, LearnMode::ForbiddenValue}) {
        fault::FaultList list(fault::collapse(nl).representatives());
        AtpgConfig cfg;
        cfg.backtrack_limit = 100;
        cfg.mode = mode;
        cfg.learned = mode == LearnMode::None ? nullptr : &learned;
        const AtpgOutcome out = run_atpg(topo, list, cfg);
        EXPECT_EQ(out.invalid_tests, 0u) << "seed " << seed;
        // Re-validate the entire suite end to end, with the same
        // (tie-augmented, when learning) expected-value model the campaign
        // used for its own validation.
        fault::FaultSimulator fsim(topo);
        if (mode != LearnMode::None) {
            fsim.set_good_ties(&learned.ties.dense(), &learned.ties.dense_cycles());
        }
        fault::FaultList revalidate(fault::collapse(nl).representatives());
        for (const auto& t : out.tests) fsim.drop_detected(t, revalidate);
        EXPECT_GE(revalidate.counts().detected, list.counts().detected)
            << "seed " << seed;
    }
}

INSTANTIATE_TEST_SUITE_P(RandomCircuits, AtpgModes, ::testing::Values(3, 7, 13, 21));

TEST(AtpgLoop, BacktrackLimitCausesAborts) {
    // A reconvergent circuit with a tiny limit should abort somewhere yet
    // never crash; with a large limit the aborted set may only shrink.
    const Netlist nl = make_s27();
    const netlist::Topology topo(nl);
    fault::FaultList tight_list(fault::collapse(nl).representatives());
    AtpgConfig tight;
    tight.backtrack_limit = 1;
    tight.identify_untestable = false;
    run_atpg(topo, tight_list, tight);

    fault::FaultList loose_list(fault::collapse(nl).representatives());
    AtpgConfig loose;
    loose.backtrack_limit = 2000;
    loose.identify_untestable = false;
    run_atpg(topo, loose_list, loose);

    EXPECT_GE(loose_list.counts().detected, tight_list.counts().detected);
    EXPECT_LE(loose_list.counts().aborted, tight_list.counts().aborted + 1);
}

}  // namespace
}  // namespace seqlearn::atpg
