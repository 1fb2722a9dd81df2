// Tests for the workload module: generator validity and determinism, the
// paper-circuit analogs (each must exhibit its documented phenomena),
// forward retiming (behaviour preservation + density-of-encoding drop),
// and the FIRE baseline's soundness.

#include "core/invalid_state.hpp"
#include "core/seq_learn.hpp"
#include "fault/fault_sim.hpp"
#include "netlist/topology.hpp"
#include "netlist/builder.hpp"
#include "sim/comb_engine.hpp"
#include "workload/circuit_gen.hpp"
#include "workload/fires.hpp"
#include "workload/paper_circuits.hpp"
#include "workload/retime.hpp"
#include "workload/suite.hpp"
#include "test_helpers.hpp"

#include <gtest/gtest.h>

#include <array>
#include <utility>
#include <vector>

namespace seqlearn::workload {
namespace {

using logic::Val3;
using netlist::GateId;
using netlist::Netlist;

sim::InputSequence random_sequence(const Netlist& nl, std::size_t len, util::Rng& rng) {
    sim::InputSequence seq(len, sim::InputFrame(nl.inputs().size(), Val3::X));
    for (auto& frame : seq) {
        for (auto& v : frame) v = rng.chance(0.5) ? Val3::One : Val3::Zero;
    }
    return seq;
}

TEST(Generator, DeterministicAndValid) {
    GenParams p;
    p.seed = 42;
    p.n_ffs = 12;
    p.n_gates = 80;
    const Netlist a = generate(p);
    const Netlist b = generate(p);
    EXPECT_EQ(a.size(), b.size());
    for (GateId id = 0; id < a.size(); ++id) {
        EXPECT_EQ(a.type(id), b.type(id));
        EXPECT_EQ(a.name_of(id), b.name_of(id));
    }
    EXPECT_NO_THROW(a.validate());
    EXPECT_GE(a.counts().flip_flops + a.counts().latches, 12u);
}

TEST(Generator, HitsRequestedSizes) {
    const GenParams p = iscas_like("x", 100, 1000, 7);
    const Netlist nl = generate(p);
    const auto c = nl.counts();
    // Shadows keep the total register count near the published number.
    EXPECT_NEAR(static_cast<double>(c.flip_flops + c.latches), 100.0, 15.0);
    EXPECT_NEAR(static_cast<double>(c.combinational), 1000.0, 60.0);
}

TEST(Generator, DecorationProducesDomainsLatchesAndSetReset) {
    GenParams p;
    p.seed = 5;
    p.n_ffs = 40;
    p.n_gates = 200;
    p.clock_domains = 3;
    p.latch_fraction = 0.2;
    p.sr_fraction = 0.3;
    const Netlist nl = generate(p);
    std::size_t latches = 0, sr = 0;
    std::vector<bool> domain_seen(3, false);
    for (const GateId ff : nl.seq_elements()) {
        latches += nl.type(ff) == netlist::GateType::Dlatch;
        sr += nl.seq_attrs(ff).sr_unconstrained;
        domain_seen[nl.seq_attrs(ff).clock_id % 3] = true;
    }
    EXPECT_GT(latches, 0u);
    EXPECT_GT(sr, 0u);
    EXPECT_TRUE(domain_seen[0] && domain_seen[1] && domain_seen[2]);
}

TEST(Generator, ShadowRegistersCreateLearnableRelations) {
    GenParams p;
    p.seed = 11;
    p.n_inputs = 4;
    p.n_ffs = 8;
    p.n_gates = 40;
    p.shadow_ff_fraction = 0.5;
    const Netlist nl = generate(p);
    const core::LearnResult r = testing::learn(nl);
    EXPECT_GT(r.stats.ff_ff_relations, 0u);
}

// --- Paper circuits -----------------------------------------------------------

TEST(PaperCircuits, S27Shape) {
    const Netlist nl = s27();
    const auto c = nl.counts();
    EXPECT_EQ(c.inputs, 4u);
    EXPECT_EQ(c.flip_flops, 3u);
    EXPECT_EQ(c.combinational, 10u);
    EXPECT_EQ(c.outputs, 1u);
}

TEST(PaperCircuits, Fig1TieGateG3) {
    const Netlist nl = fig1_analog();
    const core::LearnResult r = testing::learn(nl);
    EXPECT_EQ(r.ties.value(nl.find("G3")), Val3::Zero);
    EXPECT_EQ(r.ties.cycle(nl.find("G3")), 0u);
}

TEST(PaperCircuits, Fig1SequentialTieG15ByMultipleNode) {
    const Netlist nl = fig1_analog();
    core::LearnConfig no_multi;
    no_multi.multiple_node = false;
    EXPECT_FALSE(testing::learn(nl, no_multi).ties.is_tied(nl.find("G15")));
    const core::LearnResult full = testing::learn(nl);
    EXPECT_EQ(full.ties.value(nl.find("G15")), Val3::Zero);
    EXPECT_EQ(full.ties.cycle(nl.find("G15")), 1u);
}

TEST(PaperCircuits, Fig1SingleNodeInvalidStateRelation) {
    const Netlist nl = fig1_analog();
    core::LearnConfig no_multi;
    no_multi.multiple_node = false;
    no_multi.use_equivalences = false;
    const core::LearnResult r = testing::learn(nl, no_multi);
    EXPECT_TRUE(r.db.implies({nl.find("F4"), Val3::One}, {nl.find("F6"), Val3::One}));
}

TEST(PaperCircuits, Fig1EquivalenceOnlyRelations) {
    const Netlist nl = fig1_analog();
    const core::Literal f4{nl.find("F4"), Val3::One};
    const core::Literal f5{nl.find("F5"), Val3::One};
    core::LearnConfig no_eq;
    no_eq.use_equivalences = false;
    EXPECT_FALSE(testing::learn(nl, no_eq).db.implies(f4, f5));
    EXPECT_TRUE(testing::learn(nl).db.implies(f4, f5));
}

TEST(PaperCircuits, Fig2MultipleNodeRelation) {
    const Netlist nl = fig2_analog();
    const core::Literal g9_0{nl.find("G9"), Val3::Zero};
    const core::Literal f2_0{nl.find("F2"), Val3::Zero};
    core::LearnConfig no_multi;
    no_multi.multiple_node = false;
    EXPECT_FALSE(testing::learn(nl, no_multi).db.implies(g9_0, f2_0));
    EXPECT_TRUE(testing::learn(nl).db.implies(g9_0, f2_0));
}

// Paper Table 2 on the figure analogs: sequential (frame >= 1) FF-FF and
// Gate-FF relation counts and tie counts after each learning stage —
// single-node, then + multiple-node, then + gate equivalences.
TEST(PaperCircuits, Table2StageCounts) {
    using Counts = std::array<std::size_t, 3>;  // FF-FF, Gate-FF, ties
    const auto stages = [](const Netlist& nl) {
        std::vector<Counts> out;
        for (const auto& [multi, equiv] :
             {std::pair{false, false}, std::pair{true, false}, std::pair{true, true}}) {
            core::LearnConfig cfg;
            cfg.multiple_node = multi;
            cfg.use_equivalences = equiv;
            const core::LearnResult r = testing::learn(nl, cfg);
            out.push_back({r.stats.ff_ff_relations, r.stats.gate_ff_relations, r.ties.count()});
        }
        return out;
    };
    EXPECT_EQ(stages(fig1_analog()), (std::vector<Counts>{{6, 11, 1}, {7, 16, 2}, {10, 17, 2}}));
    EXPECT_EQ(stages(fig2_analog()), (std::vector<Counts>{{2, 6, 0}, {2, 7, 0}, {2, 7, 0}}));
}

// Every learned same-frame relation on fig1/fig2 must hold exhaustively.
TEST(PaperCircuits, LearnedRelationsExhaustivelySound) {
    for (const char* name : {"fig1x", "fig2x"}) {
        const Netlist nl = suite_circuit(name);
        core::LearnConfig cfg;
        cfg.max_frames = 6;
        const core::LearnResult r = testing::learn(nl, cfg);
        const sim::CombEngine engine(nl);
        const auto seq = nl.seq_elements();
        const auto inputs = nl.inputs();
        const std::uint64_t n_inputs = 1ULL << inputs.size();
        for (const core::Relation& rel : r.db.relations()) {
            const std::vector<bool> valid = testing::image_set(nl, rel.frame);
            for (std::uint64_t s = 0; s < (1ULL << seq.size()); ++s) {
                if (!valid[s]) continue;
                for (std::uint64_t u = 0; u < n_inputs; ++u) {
                    std::vector<Val3> vals(nl.size(), Val3::X);
                    for (std::size_t i = 0; i < seq.size(); ++i)
                        vals[seq[i]] = (s >> i) & 1 ? Val3::One : Val3::Zero;
                    for (std::size_t i = 0; i < inputs.size(); ++i)
                        vals[inputs[i]] = (u >> i) & 1 ? Val3::One : Val3::Zero;
                    engine.eval(vals);
                    if (vals[rel.lhs.gate] == rel.lhs.value) {
                        ASSERT_EQ(vals[rel.rhs.gate], rel.rhs.value)
                            << name << ": " << to_string(nl, rel);
                    }
                }
            }
        }
    }
}

// --- Retiming -------------------------------------------------------------------

TEST(Retime, PreservesObservableBehaviour) {
    GenParams p;
    p.seed = 3;
    p.n_inputs = 4;
    p.n_ffs = 6;
    p.n_gates = 30;
    p.shadow_ff_fraction = 0.0;
    const Netlist base = generate(p);
    RetimeStats st;
    const Netlist rt = forward_retime(base, 4, 9, &st);
    EXPECT_GT(st.moves_applied, 0u);
    EXPECT_GT(st.registers_after, st.registers_before);

    util::Rng rng(77);
    for (int trial = 0; trial < 10; ++trial) {
        const auto seq = random_sequence(base, 8, rng);
        const auto a = sim::simulate_sequence(base, seq);
        const auto b = sim::simulate_sequence(rt, seq);
        for (std::size_t t = 0; t < seq.size(); ++t) {
            for (std::size_t o = 0; o < a.outputs[t].size(); ++o) {
                // The retimed circuit may be better defined, never different.
                if (a.outputs[t][o] != Val3::X) {
                    EXPECT_EQ(b.outputs[t][o], a.outputs[t][o])
                        << "frame " << t << " output " << o;
                }
            }
        }
    }
}

TEST(Retime, LowersDensityOfEncoding) {
    GenParams p;
    p.seed = 21;
    p.n_inputs = 3;
    p.n_ffs = 4;
    p.n_gates = 18;
    p.shadow_ff_fraction = 0.0;
    const Netlist base = generate(p);
    RetimeStats st;
    const Netlist rt = forward_retime(base, 3, 5, &st);
    if (st.moves_applied == 0 || rt.seq_elements().size() > 16) GTEST_SKIP();
    const double before = core::density_of_encoding(base, 16);
    const double after = core::density_of_encoding(rt, 16);
    EXPECT_LT(after, before);
}

TEST(Retime, LearningFindsTheInvalidStates) {
    const Netlist rt = suite_circuit("rt510a");
    const core::LearnResult r = testing::learn(rt);
    EXPECT_GT(r.stats.ff_ff_relations, 0u);
    const core::InvalidStateChecker chk(rt, r.db);
    EXPECT_GT(chk.size(), 0u);
}

// --- FIRE baseline ---------------------------------------------------------------

TEST(Fires, FindsClassicRedundancy) {
    // g = AND(a, NOT a) feeding an OR: g s-a-0 is undetectable; FIRE sees it
    // because the stem `a` implies g=0 under both values.
    netlist::NetlistBuilder b("fire");
    b.input("a").input("c");
    b.gate(netlist::GateType::Not, "na", {"a"});
    b.gate(netlist::GateType::And, "g", {"a", "na"});
    b.gate(netlist::GateType::Or, "y", {"g", "c"});
    b.output("y");
    const Netlist nl = b.build();
    const auto universe = fault::fault_universe(nl);
    const FiresResult res = fires_untestable(nl, universe);
    const fault::Fault g0{nl.find("g"), fault::kOutputPin, Val3::Zero};
    EXPECT_TRUE(std::find(res.untestable.begin(), res.untestable.end(), g0) !=
                res.untestable.end());
}

// Soundness: every FIRE claim must survive exhaustive search on tiny
// circuits (all binary sequences up to 4 frames).
TEST(Fires, ClaimsAreExhaustivelySound) {
    for (const std::uint64_t seed : {2ULL, 9ULL, 27ULL, 41ULL}) {
        GenParams p;
        p.seed = seed;
        p.n_inputs = 2;
        p.n_ffs = 3;
        p.n_gates = 12;
        p.name = "tiny";
        const Netlist nl = generate(p);
        const auto universe = fault::fault_universe(nl);
        const FiresResult res = fires_untestable(nl, universe);
        const netlist::Topology topo(nl);
        fault::FaultSimulator fsim(topo);
        for (const fault::Fault& f : res.untestable) {
            bool detectable = false;
            const std::size_t m = nl.inputs().size();
            for (std::size_t len = 1; len <= 4 && !detectable; ++len) {
                for (std::uint64_t bits = 0; bits < (1ULL << (m * len)); ++bits) {
                    sim::InputSequence seq(len, sim::InputFrame(m, Val3::X));
                    for (std::size_t t = 0; t < len; ++t)
                        for (std::size_t i = 0; i < m; ++i)
                            seq[t][i] = (bits >> (t * m + i)) & 1 ? Val3::One : Val3::Zero;
                    if (fsim.detects(seq, f)) {
                        detectable = true;
                        break;
                    }
                }
            }
            EXPECT_FALSE(detectable) << "seed " << seed << ": " << to_string(nl, f);
        }
    }
}

// --- Suite -----------------------------------------------------------------------

TEST(Suite, AllNamesBuildAndValidate) {
    for (const auto& name : table3_names()) {
        if (name == "ind60k" || name == "ind250k" || name == "gen38417" ||
            name == "gen38584") {
            continue;  // the big ones would dominate this suite's run time
        }
        const Netlist nl = suite_circuit(name);
        EXPECT_NO_THROW(nl.validate()) << name;
        EXPECT_EQ(nl.name(), name == "fig1x"   ? "fig1_analog"
                             : name == "fig2x" ? "fig2_analog"
                             : name.substr(0, 2) == "rt" ? nl.name()
                                                         : name)
            << name;
    }
    EXPECT_THROW(suite_circuit("nope"), std::invalid_argument);
}

TEST(Suite, DeterministicAcrossCalls) {
    const Netlist a = suite_circuit("gen1423");
    const Netlist b = suite_circuit("gen1423");
    ASSERT_EQ(a.size(), b.size());
    for (GateId id = 0; id < a.size(); id += 37) EXPECT_EQ(a.name_of(id), b.name_of(id));
}

TEST(Suite, RetimedFamilyHasExtraRegisters) {
    for (const char* name : {"rt510a", "rt510b", "rt832"}) {
        const Netlist nl = suite_circuit(name);
        EXPECT_GT(nl.seq_elements().size(), 13u) << name;
    }
}

}  // namespace
}  // namespace seqlearn::workload
