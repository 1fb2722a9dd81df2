// Tests for the simulation substrate: the levelized reference engine, the
// scalar sequence simulator, the level-ordered event queue, the
// event-driven multi-frame simulator used by learning, and the 64-lane
// parallel simulator.

#include "netlist/bench_io.hpp"
#include "netlist/builder.hpp"
#include "netlist/clock_class.hpp"
#include "netlist/topology.hpp"
#include "sim/batch_frame_sim.hpp"
#include "sim/comb_engine.hpp"
#include "sim/frame_sim.hpp"
#include "sim/level_queue.hpp"
#include "sim/parallel_sim.hpp"
#include "util/rng.hpp"
#include "workload/circuit_gen.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <span>
#include <vector>

namespace seqlearn::sim {
namespace {

using netlist::GateId;
using netlist::GateType;
using netlist::kNoGate;
using netlist::Netlist;
using netlist::NetlistBuilder;
using netlist::SeqAttrs;
using netlist::SetReset;

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

// Find the implied value of `gate` at `frame`, or X if absent.
Val3 implied_at(const FrameSimResult& res, GateId gate, std::uint32_t frame) {
    for (const ImpliedValue& iv : res.implied) {
        if (iv.gate == gate && iv.frame == frame) return iv.value;
    }
    return Val3::X;
}

TEST(CombEngine, EvaluatesKnownTruthTable) {
    NetlistBuilder b("tt");
    b.input("a").input("b");
    b.gate(GateType::Nand, "n", {"a", "b"});
    b.gate(GateType::Xor, "x", {"n", "a"});
    b.output("x");
    const Netlist nl = b.build();
    const CombEngine eng(nl);
    std::vector<Val3> vals(nl.size(), Val3::X);
    vals[nl.find("a")] = Val3::One;
    vals[nl.find("b")] = Val3::Zero;
    eng.eval(vals);
    EXPECT_EQ(vals[nl.find("n")], Val3::One);   // NAND(1,0)=1
    EXPECT_EQ(vals[nl.find("x")], Val3::Zero);  // XOR(1,1)=0
}

TEST(CombEngine, XPropagatesPessimistically) {
    NetlistBuilder b("xprop");
    b.input("a");
    b.gate(GateType::Not, "na", {"a"});
    b.gate(GateType::Or, "taut", {"a", "na"});  // tautology, but 3-valued X
    b.output("taut");
    const Netlist nl = b.build();
    const CombEngine eng(nl);
    std::vector<Val3> vals(nl.size(), Val3::X);
    eng.eval(vals);
    EXPECT_EQ(vals[nl.find("taut")], Val3::X);
    vals.assign(nl.size(), Val3::X);
    vals[nl.find("a")] = Val3::Zero;
    eng.eval(vals);
    EXPECT_EQ(vals[nl.find("taut")], Val3::One);
}

TEST(CombEngine, ConstantsAlwaysEvaluate) {
    NetlistBuilder b("consts");
    b.input("a");
    b.constant("zero", false);
    b.constant("one", true);
    b.gate(GateType::And, "g", {"a", "one"});
    b.output("g");
    const Netlist nl = b.build();
    const CombEngine eng(nl);
    std::vector<Val3> vals(nl.size(), Val3::X);
    eng.eval(vals);
    EXPECT_EQ(vals[nl.find("zero")], Val3::Zero);
    EXPECT_EQ(vals[nl.find("one")], Val3::One);
    EXPECT_EQ(vals[nl.find("g")], Val3::X);  // a is X
}

TEST(SequenceSim, ToggleFlipFlop) {
    // F toggles every cycle once initialized: F' = XOR(F, 1) via NOT.
    NetlistBuilder b("toggle");
    b.input("seed");
    b.gate(GateType::Not, "nf", {"f"});
    b.dff("f", "mux");
    // mux = (seed AND first) OR nf — emulate init by ORing seed once.
    b.gate(GateType::Or, "mux", {"seed", "nf"});
    b.output("f");
    const Netlist nl = b.build();

    // Drive seed=1 in frame 0 (forces mux=1), then 0.
    InputSequence seq{{Val3::One}, {Val3::Zero}, {Val3::Zero}, {Val3::Zero}};
    const SequenceResult r = simulate_sequence(nl, seq);
    const GateId f = nl.find("f");
    EXPECT_EQ(r.frames[0][f], Val3::X);    // uninitialized
    EXPECT_EQ(r.frames[1][f], Val3::One);  // captured the forced 1
    EXPECT_EQ(r.frames[2][f], Val3::Zero);
    EXPECT_EQ(r.frames[3][f], Val3::One);
}

TEST(SequenceSim, InitialStateArgument) {
    NetlistBuilder b("sr");
    b.input("i");
    b.dff("f", "i");
    b.output("f");
    const Netlist nl = b.build();
    std::vector<Val3> init{Val3::One};
    InputSequence seq{{Val3::Zero}, {Val3::Zero}};
    const SequenceResult r = simulate_sequence(nl, seq, &init);
    EXPECT_EQ(r.frames[0][nl.find("f")], Val3::One);
    EXPECT_EQ(r.frames[1][nl.find("f")], Val3::Zero);
}

TEST(SequenceSim, RejectsBadSizes) {
    NetlistBuilder b("bad");
    b.input("i");
    b.dff("f", "i");
    b.output("f");
    const Netlist nl = b.build();
    InputSequence wrong{{Val3::Zero, Val3::Zero}};
    EXPECT_THROW(simulate_sequence(nl, wrong), std::invalid_argument);
    std::vector<Val3> bad_init{Val3::One, Val3::One};
    InputSequence ok{{Val3::Zero}};
    EXPECT_THROW(simulate_sequence(nl, ok, &bad_init), std::invalid_argument);
}

// --- FrameSimulator -------------------------------------------------------

TEST(FrameSim, SingleInjectionPropagatesWithinFrame) {
    const Netlist nl = netlist::read_bench_string(kS27, "s27");
    FrameSimulator sim(nl, SeqGating::all_open(nl));
    const std::vector<Injection> inj{{0, nl.find("G0"), Val3::One}};
    const auto res = sim.run(inj, {});
    // G0=1 -> G14=0 -> G8=0, and G10 = NOR(G14=0, G11=X) stays X.
    EXPECT_EQ(implied_at(res, nl.find("G14"), 0), Val3::Zero);
    EXPECT_EQ(implied_at(res, nl.find("G8"), 0), Val3::Zero);
    EXPECT_EQ(implied_at(res, nl.find("G10"), 0), Val3::X);
    EXPECT_FALSE(res.conflict);
}

TEST(FrameSim, ValueCrossesFrameBoundaryThroughFF) {
    // f = DFF(i); g = AND(f, j).
    NetlistBuilder b("cross");
    b.input("i").input("j");
    b.dff("f", "i");
    b.gate(GateType::And, "g", {"f", "j"});
    b.output("g");
    const Netlist nl = b.build();
    FrameSimulator sim(nl, SeqGating::all_open(nl));
    const std::vector<Injection> inj{{0, nl.find("i"), Val3::Zero}};
    const auto res = sim.run(inj, {});
    EXPECT_EQ(implied_at(res, nl.find("f"), 1), Val3::Zero);
    EXPECT_EQ(implied_at(res, nl.find("g"), 1), Val3::Zero);  // AND with 0
    EXPECT_EQ(implied_at(res, nl.find("f"), 0), Val3::X);
}

TEST(FrameSim, StopsOnStateRepeat) {
    // f latches 1 forever once i=1 passes through OR feedback.
    NetlistBuilder b("sticky");
    b.input("i");
    b.gate(GateType::Or, "d", {"i", "f"});
    b.dff("f", "d");
    b.output("f");
    const Netlist nl = b.build();
    FrameSimulator sim(nl, SeqGating::all_open(nl));
    const std::vector<Injection> inj{{0, nl.find("i"), Val3::One}};
    FrameSimOptions opt;
    opt.max_frames = 50;
    const auto res = sim.run(inj, opt);
    EXPECT_TRUE(res.stopped_on_repeat);
    // Frame 0: d=1. Frame 1: f=1, d=1 -> state repeats -> stop.
    EXPECT_EQ(res.frames_run, 2u);
    EXPECT_EQ(implied_at(res, nl.find("f"), 1), Val3::One);
}

TEST(FrameSim, RespectsMaxFrames) {
    // A two-stage ring oscillator: f1 = DFF(NOT f2), f2 = DFF(f1). Kicking
    // f1 directly makes a single known value circulate forever; consecutive
    // states always differ (the known bit alternates between f1 and f2), so
    // only max_frames stops the run.
    NetlistBuilder b("osc2");
    b.gate(GateType::Not, "nf2", {"f2"});
    b.dff("f1", "nf2");
    b.dff("f2", "f1");
    b.output("f2");
    const Netlist nl = b.build();
    FrameSimulator sim(nl, SeqGating::all_open(nl));
    const std::vector<Injection> inj{{0, nl.find("f1"), Val3::One}};
    FrameSimOptions opt;
    opt.max_frames = 7;
    const auto res = sim.run(inj, opt);
    EXPECT_EQ(res.frames_run, 7u);
    EXPECT_FALSE(res.stopped_on_repeat);
}

TEST(FrameSim, ContradictoryInjectionsConflict) {
    NetlistBuilder b("c");
    b.input("i");
    b.gate(GateType::Not, "n", {"i"});
    b.output("n");
    const Netlist nl = b.build();
    FrameSimulator sim(nl, SeqGating::all_open(nl));
    const std::vector<Injection> inj{{0, nl.find("i"), Val3::One},
                                     {0, nl.find("n"), Val3::One}};
    const auto res = sim.run(inj, {});
    EXPECT_TRUE(res.conflict);
    EXPECT_EQ(res.conflict_frame, 0u);
}

TEST(FrameSim, PropagationContradictingInjectionConflicts) {
    // Inject g=1 while its inputs force 0.
    NetlistBuilder b("c2");
    b.input("a").input("b");
    b.gate(GateType::And, "g", {"a", "b"});
    b.output("g");
    const Netlist nl = b.build();
    FrameSimulator sim(nl, SeqGating::all_open(nl));
    const std::vector<Injection> inj{{0, nl.find("g"), Val3::One},
                                     {0, nl.find("a"), Val3::Zero}};
    const auto res = sim.run(inj, {});
    EXPECT_TRUE(res.conflict);
}

TEST(FrameSim, LaterFrameInjectionsApply) {
    NetlistBuilder b("late");
    b.input("i");
    b.dff("f", "i");
    b.output("f");
    const Netlist nl = b.build();
    FrameSimulator sim(nl, SeqGating::all_open(nl));
    const std::vector<Injection> inj{{2, nl.find("i"), Val3::One}};
    const auto res = sim.run(inj, {});
    EXPECT_EQ(implied_at(res, nl.find("i"), 2), Val3::One);
    EXPECT_EQ(implied_at(res, nl.find("f"), 3), Val3::One);
    EXPECT_EQ(implied_at(res, nl.find("f"), 1), Val3::X);
}

TEST(FrameSim, EquivalenceForcingDefeatsXPessimism) {
    // g2 = XOR(h, XOR(h, a)) is functionally a, but 3-valued simulation
    // cannot see it when h is X. An equivalence link a <-> g2 recovers it.
    NetlistBuilder b("equiv");
    b.input("a").input("h");
    b.gate(GateType::Xor, "x1", {"h", "a"});
    b.gate(GateType::Xor, "g2", {"h", "x1"});
    b.gate(GateType::And, "down", {"g2", "a"});
    b.output("down");
    const Netlist nl = b.build();

    const std::vector<Injection> inj{{0, nl.find("a"), Val3::One}};
    {
        FrameSimulator plain(nl, SeqGating::all_open(nl));
        const auto res = plain.run(inj, {});
        EXPECT_EQ(implied_at(res, nl.find("g2"), 0), Val3::X);
        EXPECT_EQ(implied_at(res, nl.find("down"), 0), Val3::X);
    }
    EquivMap eq(nl.size());
    eq[nl.find("a")].push_back({nl.find("g2"), false});
    eq[nl.find("g2")].push_back({nl.find("a"), false});
    {
        FrameSimulator forced(nl, SeqGating::all_open(nl));
        forced.set_equivalences(&eq);
        const auto res = forced.run(inj, {});
        EXPECT_EQ(implied_at(res, nl.find("g2"), 0), Val3::One);
        EXPECT_EQ(implied_at(res, nl.find("down"), 0), Val3::One);
        EXPECT_FALSE(res.conflict);
    }
}

TEST(FrameSim, InverseEquivalenceLink) {
    NetlistBuilder b("inveq");
    b.input("a").input("h");
    b.gate(GateType::Xor, "x1", {"h", "a"});
    b.gate(GateType::Xnor, "g2", {"h", "x1"});  // functionally NOT a
    b.output("g2");
    const Netlist nl = b.build();
    EquivMap eq(nl.size());
    eq[nl.find("a")].push_back({nl.find("g2"), true});
    FrameSimulator sim(nl, SeqGating::all_open(nl));
    sim.set_equivalences(&eq);
    const std::vector<Injection> inj{{0, nl.find("a"), Val3::One}};
    const auto res = sim.run(inj, {});
    EXPECT_EQ(implied_at(res, nl.find("g2"), 0), Val3::Zero);
}

TEST(FrameSim, TiesSeedEveryFrameAndDetectConflicts) {
    NetlistBuilder b("ties");
    b.input("i");
    b.gate(GateType::Or, "g", {"t", "i"});
    b.gate(GateType::And, "t", {"i", "i"});  // pretend-tied gate
    b.dff("f", "g");
    b.output("f");
    const Netlist nl = b.build();
    std::vector<Val3> ties(nl.size(), Val3::X);
    ties[nl.find("t")] = Val3::One;
    FrameSimulator sim(nl, SeqGating::all_open(nl));
    sim.set_ties(&ties);
    // No injections at all: the tie alone drives g=1 and f=1 from frame 1 on.
    const auto res = sim.run({}, {});
    EXPECT_EQ(implied_at(res, nl.find("g"), 0), Val3::One);
    EXPECT_EQ(implied_at(res, nl.find("f"), 1), Val3::One);

    // An injection contradicting the tie conflicts immediately.
    const std::vector<Injection> bad{{0, nl.find("t"), Val3::Zero}};
    const auto res2 = sim.run(bad, {});
    EXPECT_TRUE(res2.conflict);
}

TEST(FrameSim, ReusableAfterConflictAbort) {
    // A conflict aborts mid-propagation, stranding scheduled events. The
    // next run on the same simulator must see fully reset scratch: no
    // stale bucket entries (event-counter underflow / infinite sweep) and
    // no stuck queued_ flags (silently missing implications).
    NetlistBuilder b("abort");
    b.input("a");
    b.gate(GateType::Not, "g1", {"a"});
    b.gate(GateType::Buf, "g2", {"a"});
    b.output("g1");
    b.output("g2");
    const Netlist nl = b.build();
    std::vector<Val3> ties(nl.size(), Val3::X);
    ties[nl.find("g1")] = Val3::One;  // forces a conflict when a=1
    FrameSimulator sim(nl, SeqGating::all_open(nl));
    sim.set_ties(&ties);
    FrameSimResult res;

    // Run 1: a=1 implies g1=0, contradicting the tie; g2 may still be
    // enqueued when the conflict aborts the sweep.
    const Injection hot{0, nl.find("a"), Val3::One};
    sim.run_into({&hot, 1}, {}, res);
    ASSERT_TRUE(res.conflict);

    // Run 2 (same simulator): a=0 must terminate and imply g2=0.
    const Injection cold{0, nl.find("a"), Val3::Zero};
    sim.run_into({&cold, 1}, {}, res);
    EXPECT_FALSE(res.conflict);
    EXPECT_EQ(implied_at(res, nl.find("g2"), 0), Val3::Zero);

    // And a repeat of the conflicting run still conflicts cleanly.
    sim.run_into({&hot, 1}, {}, res);
    EXPECT_TRUE(res.conflict);
}

TEST(FrameSim, ConstantGatesAreSeeded) {
    NetlistBuilder b("konst");
    b.constant("one", true);
    b.input("i");
    b.gate(GateType::And, "g", {"one", "i"});
    b.dff("f", "one");
    b.output("g");
    const Netlist nl = b.build();
    FrameSimulator sim(nl, SeqGating::all_open(nl));
    const auto res = sim.run({}, {});
    EXPECT_EQ(implied_at(res, nl.find("one"), 0), Val3::One);
    EXPECT_EQ(implied_at(res, nl.find("f"), 1), Val3::One);
}

// --- Section 3.3 gating rules ---------------------------------------------

Netlist gating_circuit(SetReset sr, bool unconstrained) {
    NetlistBuilder b("gating");
    b.input("i");
    SeqAttrs attrs{};
    attrs.set_reset = sr;
    attrs.sr_unconstrained = unconstrained;
    b.dff("f", "i", attrs);
    b.gate(GateType::Buf, "o", {"f"});
    b.output("o");
    return b.build();
}

Val3 propagated(const Netlist& nl, Val3 injected) {
    const auto classes = netlist::clock_classes(nl);
    FrameSimulator sim(nl, SeqGating::for_class(nl, classes[0].members));
    const std::vector<Injection> inj{{0, nl.find("i"), injected}};
    const auto res = sim.run(inj, {});
    for (const ImpliedValue& iv : res.implied) {
        if (iv.gate == nl.find("f") && iv.frame == 1) return iv.value;
    }
    return Val3::X;
}

TEST(FrameSimGating, UnconstrainedSetPassesOnlyOne) {
    const Netlist nl = gating_circuit(SetReset::SetOnly, true);
    EXPECT_EQ(propagated(nl, Val3::One), Val3::One);
    EXPECT_EQ(propagated(nl, Val3::Zero), Val3::X);
}

TEST(FrameSimGating, UnconstrainedResetPassesOnlyZero) {
    const Netlist nl = gating_circuit(SetReset::ResetOnly, true);
    EXPECT_EQ(propagated(nl, Val3::Zero), Val3::Zero);
    EXPECT_EQ(propagated(nl, Val3::One), Val3::X);
}

TEST(FrameSimGating, UnconstrainedBothBlocks) {
    const Netlist nl = gating_circuit(SetReset::Both, true);
    EXPECT_EQ(propagated(nl, Val3::Zero), Val3::X);
    EXPECT_EQ(propagated(nl, Val3::One), Val3::X);
}

TEST(FrameSimGating, ConstrainedSetResetPassesBoth) {
    const Netlist nl = gating_circuit(SetReset::Both, false);
    EXPECT_EQ(propagated(nl, Val3::Zero), Val3::Zero);
    EXPECT_EQ(propagated(nl, Val3::One), Val3::One);
}

TEST(FrameSimGating, MultiPortLatchBlocks) {
    NetlistBuilder b("mp");
    b.input("a").input("b");
    b.dlatch("l", {"a", "b"});
    b.gate(GateType::Buf, "o", {"l"});
    b.output("o");
    const Netlist nl = b.build();
    const auto classes = netlist::clock_classes(nl);
    FrameSimulator sim(nl, SeqGating::for_class(nl, classes[0].members));
    const std::vector<Injection> inj{{0, nl.find("a"), Val3::One},
                                     {0, nl.find("b"), Val3::One}};
    const auto res = sim.run(inj, {});
    for (const ImpliedValue& iv : res.implied) EXPECT_NE(iv.gate, nl.find("l"));
}

TEST(FrameSimGating, ForeignClockClassBlocks) {
    NetlistBuilder b("2dom");
    b.input("i");
    SeqAttrs dom1{};
    dom1.clock_id = 1;
    b.dff("f0", "i");          // domain 0
    b.dff("f1", "i", dom1);    // domain 1
    b.gate(GateType::And, "g", {"f0", "f1"});
    b.output("g");
    const Netlist nl = b.build();
    // Learning pass for domain 0 must not propagate through f1.
    const auto classes = netlist::clock_classes(nl);
    const auto& dom0_members =
        classes[0].clock_id == 0 ? classes[0].members : classes[1].members;
    FrameSimulator sim(nl, SeqGating::for_class(nl, dom0_members));
    const std::vector<Injection> inj{{0, nl.find("i"), Val3::Zero}};
    const auto res = sim.run(inj, {});
    EXPECT_EQ(implied_at(res, nl.find("f0"), 1), Val3::Zero);
    EXPECT_EQ(implied_at(res, nl.find("f1"), 1), Val3::X);
}

// --- Cross-check: event-driven == full levelized simulation ---------------

TEST(FrameSim, AgreesWithReferenceSequenceSimulation) {
    const Netlist nl = netlist::read_bench_string(kS27, "s27");
    const auto inputs = nl.inputs();

    // Try all 16 binary assignments of s27's four inputs at frame 0.
    for (unsigned bits = 0; bits < 16; ++bits) {
        std::vector<Injection> inj;
        InputFrame frame(inputs.size(), Val3::X);
        for (std::size_t i = 0; i < inputs.size(); ++i) {
            const Val3 v = (bits >> i) & 1 ? Val3::One : Val3::Zero;
            inj.push_back({0, inputs[i], v});
            frame[i] = v;
        }
        FrameSimOptions opt;
        opt.max_frames = 5;
        opt.stop_on_state_repeat = false;
        FrameSimulator sim(nl, SeqGating::all_open(nl));
        const auto res = sim.run(inj, opt);

        InputSequence seq(res.frames_run, InputFrame(inputs.size(), Val3::X));
        seq[0] = frame;
        const SequenceResult ref = simulate_sequence(nl, seq);

        // Every implied value must match the reference; every binary
        // reference value within the simulated frames must be implied.
        std::map<std::pair<std::uint32_t, GateId>, Val3> implied;
        for (const ImpliedValue& iv : res.implied) implied[{iv.frame, iv.gate}] = iv.value;
        for (std::uint32_t f = 0; f < res.frames_run; ++f) {
            for (GateId g = 0; g < nl.size(); ++g) {
                const Val3 ref_v = ref.frames[f][g];
                const auto it = implied.find({f, g});
                const Val3 got = it == implied.end() ? Val3::X : it->second;
                EXPECT_EQ(got, ref_v) << "gate " << nl.name_of(g) << " frame " << f;
            }
        }
    }
}

// --- ParallelSim -----------------------------------------------------------

TEST(ParallelSim, MatchesScalarEngineLanewise) {
    const Netlist nl = netlist::read_bench_string(kS27, "s27");
    const netlist::Topology topo(nl);
    const CombEngine eng(nl);
    util::Rng rng(99);
    std::vector<logic::Pattern> pats(nl.size());
    eval_random(topo, pats, rng);
    for (int lane = 0; lane < 64; lane += 17) {
        std::vector<Val3> vals(nl.size(), Val3::X);
        for (const GateId id : nl.inputs()) vals[id] = logic::pat_get(pats[id], lane);
        for (const GateId id : nl.seq_elements()) vals[id] = logic::pat_get(pats[id], lane);
        eng.eval(vals);
        for (GateId g = 0; g < nl.size(); ++g) {
            EXPECT_EQ(logic::pat_get(pats[g], lane), vals[g]) << nl.name_of(g);
        }
    }
}

TEST(ParallelSim, SignaturesDeterministicAndEquivalenceRevealing) {
    // Two structurally different but equivalent gates share signatures.
    NetlistBuilder b("sig");
    b.input("a").input("b");
    b.gate(GateType::And, "g1", {"a", "b"});
    b.gate(GateType::Nor, "g2", {"na", "nb"});  // AND via De Morgan
    b.gate(GateType::Not, "na", {"a"});
    b.gate(GateType::Not, "nb", {"b"});
    b.gate(GateType::Nand, "g3", {"a", "b"});  // complement of g1
    b.output("g1");
    const Netlist nl = b.build();
    const netlist::Topology topo(nl);
    const auto s1 = collect_signatures(topo, 4, 7);
    const auto s2 = collect_signatures(topo, 4, 7);
    EXPECT_EQ(s1.words, s2.words);
    const auto g1 = s1.of(nl.find("g1"));
    const auto g2 = s1.of(nl.find("g2"));
    EXPECT_TRUE(std::equal(g1.begin(), g1.end(), g2.begin(), g2.end()));
    // g3 is the complement in every lane.
    for (std::size_t r = 0; r < s1.rounds; ++r) {
        EXPECT_EQ(s1.of(nl.find("g1"))[r], ~s1.of(nl.find("g3"))[r]);
    }
}

// --- LevelQueue ------------------------------------------------------------

TEST(LevelQueue, VisitsEachQueuedGateOnceInLevelOrderAndClearsAfterAStop) {
    NetlistBuilder b("lq");
    b.input("a").input("b");
    b.gate(GateType::And, "g1", {"a", "b"});  // level 1
    b.gate(GateType::Buf, "h1", {"b"});       // level 1
    b.gate(GateType::Not, "g2", {"g1"});      // level 2
    b.gate(GateType::Or, "g3", {"g2", "a"});  // level 3
    b.output("g3").output("h1");
    const Netlist nl = b.build();
    const netlist::Topology topo(nl);
    const GateId a = nl.find("a"), bb = nl.find("b"), g1 = nl.find("g1"),
                 h1 = nl.find("h1"), g3 = nl.find("g3");
    LevelQueue q(topo);
    std::vector<GateId> seen;
    const auto record = [&](GateId g) {
        seen.push_back(g);
        return true;
    };

    // g1 is a fanout of both inputs: queued once, visited once, and the
    // visits come level by level.
    q.push_fanouts(a);
    q.push_fanouts(bb);
    EXPECT_TRUE(q.drain(record));
    EXPECT_EQ(seen, (std::vector<GateId>{g1, h1, g3}));

    // A visit that queues gates below its own level gets them in a further
    // sweep.
    seen.clear();
    bool requeued = false;
    q.push_fanouts(a);
    EXPECT_TRUE(q.drain([&](GateId g) {
        seen.push_back(g);
        if (g == g3 && !requeued) {
            requeued = true;
            q.push_fanouts(bb);
        }
        return true;
    }));
    EXPECT_EQ(seen, (std::vector<GateId>{g1, g3, g1, h1}));

    // A stopped drain leaves g3 queued; clear() drops it, and afterwards
    // both gates queue and visit again.
    seen.clear();
    q.push_fanouts(a);
    EXPECT_FALSE(q.drain([&](GateId g) {
        seen.push_back(g);
        return false;
    }));
    EXPECT_EQ(seen, (std::vector<GateId>{g1}));
    q.clear();
    seen.clear();
    EXPECT_TRUE(q.drain(record));
    EXPECT_TRUE(seen.empty());
    q.push_fanouts(a);
    EXPECT_TRUE(q.drain(record));
    EXPECT_EQ(seen, (std::vector<GateId>{g1, g3}));

    // Propagating from every input of a generated circuit visits each gate
    // at most once, in non-decreasing level order.
    workload::GenParams p;
    p.seed = 5;
    p.n_gates = 300;
    const Netlist big = workload::generate(p);
    const netlist::Topology big_topo(big);
    LevelQueue big_q(big_topo);
    for (const GateId in : big.inputs()) big_q.push_fanouts(in);
    std::vector<int> visits(big.size(), 0);
    std::uint32_t last_level = 0;
    EXPECT_TRUE(big_q.drain([&](GateId g) {
        ++visits[g];
        EXPECT_GE(big_topo.level(g), last_level) << big.name_of(g);
        last_level = big_topo.level(g);
        big_q.push_fanouts(g);
        return true;
    }));
    EXPECT_GT(last_level, 1u);
    for (GateId g = 0; g < big.size(); ++g) EXPECT_LE(visits[g], 1) << big.name_of(g);
}

// ---------------------------------------------------------------------------
// Injection-schedule regressions: run_into() orders injections by frame with
// a stable sort, so equal-frame injections keep their given order and
// conflict outcomes don't depend on std::sort internals, and a frame-sorted
// schedule gives the same result as a shuffled one.

TEST(FrameSim, EqualFrameInjectionsKeepGivenOrder) {
    NetlistBuilder b("stab");
    b.input("a").input("b").input("c");
    b.gate(GateType::Buf, "g1", {"a"});
    b.gate(GateType::Buf, "g2", {"b"});
    b.output("g1");
    const Netlist nl = b.build();
    FrameSimulator sim(nl, SeqGating::all_open(nl));
    FrameSimOptions opt;
    opt.max_frames = 4;

    // Out-of-order schedule (frame 1 first) forces the sorting slow path;
    // within frame 0 the injections contradict on both g1 and g2, and the
    // first pair in the *given* order must produce the conflict.
    const std::vector<Injection> unsorted{
        {1, nl.find("c"), Val3::One},      {0, nl.find("g1"), Val3::Zero},
        {0, nl.find("g1"), Val3::One},     {0, nl.find("g2"), Val3::Zero},
        {0, nl.find("g2"), Val3::One},
    };
    const FrameSimResult res = sim.run(unsorted, opt);
    EXPECT_TRUE(res.conflict);
    EXPECT_EQ(res.conflict_gate, nl.find("g1"));
    EXPECT_EQ(res.conflict_frame, 0u);

    // A frame-sorted schedule with duplicate frames is already "sorted": the
    // result must match the slow path's exactly.
    const std::vector<Injection> sorted{
        {0, nl.find("g1"), Val3::Zero}, {0, nl.find("g2"), Val3::One},
        {1, nl.find("c"), Val3::One},
    };
    const std::vector<Injection> shuffled{
        {1, nl.find("c"), Val3::One},  {0, nl.find("g1"), Val3::Zero},
        {0, nl.find("g2"), Val3::One},
    };
    const FrameSimResult fast = sim.run(sorted, opt);
    const FrameSimResult slow = sim.run(shuffled, opt);
    EXPECT_EQ(fast.implied, slow.implied);
    EXPECT_EQ(fast.conflict, slow.conflict);
    EXPECT_EQ(fast.frames_run, slow.frames_run);
}

// ---------------------------------------------------------------------------
// Lane parity: every BatchFrameSimulator lane must be bit-identical (after
// canonicalize) to a scalar FrameSimulator run of the same scenario —
// including lanes that conflict (scalar fallback), lanes with multi-frame
// injection schedules, per-lane frame limits, tie seeding, equivalence
// forcing, and clock-class gating.

// Compare one lane against its scalar run. `limit` = the lane's effective
// max_frames.
void expect_lane_matches_scalar(FrameSimulator& scalar, const FrameSimResult& got,
                                std::span<const Injection> injections, std::uint32_t limit,
                                bool stop_on_repeat, int lane) {
    FrameSimOptions opt;
    opt.max_frames = limit;
    opt.stop_on_state_repeat = stop_on_repeat;
    FrameSimResult want = scalar.run(injections, opt);
    canonicalize(want);
    EXPECT_EQ(got.conflict, want.conflict) << "lane " << lane;
    if (!want.conflict) {
        EXPECT_EQ(got.frames_run, want.frames_run) << "lane " << lane;
        EXPECT_EQ(got.stopped_on_repeat, want.stopped_on_repeat) << "lane " << lane;
    }
    ASSERT_EQ(got.implied.size(), want.implied.size()) << "lane " << lane;
    for (std::size_t i = 0; i < want.implied.size(); ++i) {
        EXPECT_EQ(got.implied[i].frame, want.implied[i].frame) << "lane " << lane;
        EXPECT_EQ(got.implied[i].gate, want.implied[i].gate) << "lane " << lane;
        EXPECT_EQ(got.implied[i].value, want.implied[i].value) << "lane " << lane;
    }
}

// Run `lanes` in 64-wide batches on `bsim` (built over `closure`) and
// materialize every lane as canonicalize(scalar run of the same scenario):
// the background's values added back by extract_lane, and fallback lanes
// re-run on a FrameSimulator configured from the same closure.
void run_lanes(BatchFrameSimulator& bsim, const TieClosure& closure,
               std::span<const BatchLane> lanes, const FrameSimOptions& opt,
               std::span<FrameSimResult> outs) {
    FrameSimulator scalar(closure.topology(), closure.gating());
    scalar.set_equivalences(closure.equivalences());
    scalar.set_ties(&closure.tie_values(), &closure.tie_cycles());
    BatchFrameResult res;
    for (std::size_t base = 0; base < lanes.size(); base += 64) {
        const std::span<const BatchLane> chunk =
            lanes.subspan(base, std::min<std::size_t>(64, lanes.size() - base));
        bsim.run_batch(chunk, opt, res);
        for (std::size_t l = 0; l < chunk.size(); ++l) {
            FrameSimResult& out = outs[base + l];
            if ((res.fallback >> l) & 1) {
                FrameSimOptions lane_opt = opt;
                if (chunk[l].max_frames != 0)
                    lane_opt.max_frames = std::min(chunk[l].max_frames, opt.max_frames);
                scalar.run_into(chunk[l].injections, lane_opt, out);
            } else {
                res.extract_lane(static_cast<int>(l), out);
            }
            canonicalize(out);
        }
    }
}

// Random scenarios over generator circuits; a slice of lanes is forced to
// conflict by contradictory same-frame injections.
TEST(BatchFrameSim, LaneParityOnRandomCircuits) {
    for (const std::uint64_t seed : {3u, 17u, 58u}) {
        workload::GenParams p;
        p.name = "bp";
        p.seed = seed;
        p.n_inputs = 6;
        p.n_ffs = 12;
        p.n_gates = 140;
        p.shadow_ff_fraction = 0.3;
        const Netlist nl = workload::generate(p);
        const netlist::Topology topo(nl);
        const SeqGating gating = SeqGating::all_open(nl);
        const TieClosure closure(topo, gating, nullptr, 16);
        BatchFrameSimulator bsim(closure);
        FrameSimulator scalar(topo, gating);

        util::Rng rng(seed * 1013 + 7);
        std::vector<std::vector<Injection>> schedules(64);
        std::vector<BatchLane> lanes(64);
        for (int l = 0; l < 64; ++l) {
            const std::size_t n_inj = 1 + rng.below(3);
            for (std::size_t i = 0; i < n_inj; ++i) {
                schedules[l].push_back({static_cast<std::uint32_t>(rng.below(4)),
                                        static_cast<GateId>(rng.below(nl.size())),
                                        rng.chance(0.5) ? Val3::One : Val3::Zero});
            }
            if (l % 8 == 5) {
                // Guaranteed conflict: both values on one gate in one frame.
                const GateId g = static_cast<GateId>(rng.below(nl.size()));
                schedules[l].push_back({0, g, Val3::Zero});
                schedules[l].push_back({0, g, Val3::One});
            }
            lanes[l].injections = schedules[l];
            lanes[l].max_frames = (l % 5 == 0) ? 3 + static_cast<std::uint32_t>(rng.below(5))
                                               : 0;
        }

        FrameSimOptions opt;
        opt.max_frames = 16;
        std::vector<FrameSimResult> outs(64);
        run_lanes(bsim, closure, lanes, opt, outs);

        bool saw_conflict = false;
        for (int l = 0; l < 64; ++l) {
            const std::uint32_t limit =
                lanes[l].max_frames == 0 ? opt.max_frames
                                         : std::min(lanes[l].max_frames, opt.max_frames);
            expect_lane_matches_scalar(scalar, outs[l], schedules[l], limit,
                                       opt.stop_on_state_repeat, l);
            saw_conflict |= outs[l].conflict;
        }
        EXPECT_TRUE(saw_conflict) << "seed " << seed;
    }
}

// The low-level API: conflict lanes must be flagged in `fallback` and clean
// lanes extracted via extract_lane must match the scalar runs.
TEST(BatchFrameSim, RawBatchFlagsConflictLanes) {
    const Netlist nl = workload::generate(workload::iscas_like("bpraw", 8, 80, 5));
    const netlist::Topology topo(nl);
    const SeqGating gating = SeqGating::all_open(nl);
    const TieClosure closure(topo, gating, nullptr, 10);
    BatchFrameSimulator bsim(closure);
    FrameSimulator scalar(topo, gating);

    const GateId g0 = topo.schedule().back();
    std::vector<Injection> clean{{0, g0, Val3::One}};
    std::vector<Injection> conflicting{{0, g0, Val3::One}, {0, g0, Val3::Zero}};
    const BatchLane lanes[2] = {{clean, 0}, {conflicting, 0}};

    FrameSimOptions opt;
    opt.max_frames = 10;
    BatchFrameResult res;
    bsim.run_batch(lanes, opt, res);
    EXPECT_EQ(res.used, 0b11u);
    EXPECT_EQ(res.fallback, 0b10u);

    FrameSimResult got;
    res.extract_lane(0, got);
    canonicalize(got);
    expect_lane_matches_scalar(scalar, got, clean, opt.max_frames,
                               opt.stop_on_state_repeat, 0);
    // A second batch on the same simulator must be unaffected by the
    // aborted lane (scratch fully reset).
    bsim.run_batch({lanes, 1}, opt, res);
    EXPECT_EQ(res.fallback, 0u);
    res.extract_lane(0, got);
    canonicalize(got);
    expect_lane_matches_scalar(scalar, got, clean, opt.max_frames,
                               opt.stop_on_state_repeat, 0);
}

// Parity under tie seeding (with proof cycles), equivalence forcing, and
// clock-class gating — the exact configuration the learning passes use.
TEST(BatchFrameSim, LaneParityWithTiesEquivalencesAndGating) {
    workload::GenParams p;
    p.name = "bpcfg";
    p.seed = 11;
    p.n_inputs = 5;
    p.n_ffs = 10;
    p.n_gates = 90;
    p.clock_domains = 2;
    p.sr_fraction = 0.3;
    const Netlist nl = workload::generate(p);
    const netlist::Topology topo(nl);
    const auto classes = netlist::clock_classes(nl);
    ASSERT_FALSE(classes.empty());
    const SeqGating gating = SeqGating::for_class(nl, classes[0].members);

    // A synthetic tie set (some with nonzero proof cycles) and a hand-made
    // inverse-equivalence link; parity must hold whether or not the links
    // reflect real circuit equivalences, since both engines force them.
    std::vector<Val3> ties(nl.size(), Val3::X);
    std::vector<std::uint32_t> cycles(nl.size(), 0);
    util::Rng rng(99);
    for (int i = 0; i < 6; ++i) {
        const GateId g = static_cast<GateId>(rng.below(nl.size()));
        ties[g] = rng.chance(0.5) ? Val3::One : Val3::Zero;
        cycles[g] = static_cast<std::uint32_t>(rng.below(3));
    }
    EquivMap equiv(nl.size());
    const GateId e1 = 1, e2 = 2;
    equiv[e1].push_back({e2, true});
    equiv[e2].push_back({e1, true});

    const TieClosure closure(topo, gating, &equiv, 12, &ties, &cycles);
    BatchFrameSimulator bsim(closure);
    FrameSimulator scalar(topo, gating);
    scalar.set_ties(&ties, &cycles);
    scalar.set_equivalences(&equiv);

    std::vector<std::vector<Injection>> schedules(40);
    std::vector<BatchLane> lanes(40);
    for (int l = 0; l < 40; ++l) {
        const std::size_t n_inj = 1 + rng.below(2);
        for (std::size_t i = 0; i < n_inj; ++i) {
            schedules[l].push_back({static_cast<std::uint32_t>(rng.below(3)),
                                    static_cast<GateId>(rng.below(nl.size())),
                                    rng.chance(0.5) ? Val3::One : Val3::Zero});
        }
        lanes[l].injections = schedules[l];
    }
    FrameSimOptions opt;
    opt.max_frames = 12;
    std::vector<FrameSimResult> outs(40);
    run_lanes(bsim, closure, lanes, opt, outs);
    for (int l = 0; l < 40; ++l) {
        expect_lane_matches_scalar(scalar, outs[l], schedules[l], opt.max_frames,
                                   opt.stop_on_state_repeat, l);
    }
}

// The learning passes build the background once and extend it tie by tie
// as they commit ties; the extended closure must equal one built from the
// final tie set, frame by frame, and both must equal a scalar run with no
// injections (which seeds constants, ties and carried state every frame).
// Random ties with proof cycles — in shuffled order, one first recorded
// with a later cycle — an inverse-equivalence link and clock-class gating,
// as in LaneParityWithTiesEquivalencesAndGating. Random ties need not hold
// in the circuit, so some backgrounds turn contradictory: only the frames
// before the conflict carry values.
std::vector<std::pair<GateId, Val3>> free_at(const TieClosure& c, std::uint32_t t) {
    std::vector<std::pair<GateId, Val3>> out;
    for (const TieClosure::FrameValue& f : c.free_values())
        if (f.frame <= t) out.push_back({f.gate, f.value});
    std::sort(out.begin(), out.end());
    return out;
}

std::vector<std::pair<GateId, Val3>> gain_at(const TieClosure& c, std::uint32_t t) {
    std::vector<std::pair<GateId, Val3>> out;
    for (const TieClosure::FrameValue& f : c.state_gain(t)) out.push_back({f.gate, f.value});
    return out;
}

void expect_same_closure(const TieClosure& a, const TieClosure& b, std::size_t gates) {
    ASSERT_EQ(a.conflict_frame(), b.conflict_frame());
    EXPECT_EQ(a.tie_values(), b.tie_values());
    EXPECT_EQ(a.tie_cycles(), b.tie_cycles());
    for (std::uint32_t limit = 0; limit <= a.frames(); ++limit)
        EXPECT_EQ(a.last_tie_cycle_below(limit), b.last_tie_cycle_below(limit)) << limit;
    for (std::uint32_t t = 0; t < a.conflict_frame(); ++t) {
        for (GateId g = 0; g < gates; ++g)
            ASSERT_EQ(a.value(g, t), b.value(g, t)) << "frame " << t << " gate " << g;
        EXPECT_EQ(free_at(a, t), free_at(b, t)) << "frame " << t;
        EXPECT_EQ(gain_at(a, t), gain_at(b, t)) << "frame " << t;
        EXPECT_EQ(a.carries_state(t), b.carries_state(t)) << "frame " << t;
    }
}

TEST(TieClosure, ExtendedTieByTieEqualsBuiltFromFinalTieSet) {
    workload::GenParams p;
    p.name = "bgext";
    p.n_inputs = 5;
    p.n_ffs = 10;
    p.n_gates = 90;
    p.clock_domains = 2;
    p.sr_fraction = 0.3;
    int clean = 0;
    int contradictory = 0;
    for (const std::uint64_t seed : {11u, 12u, 13u, 14u, 15u, 16u, 17u, 18u}) {
        SCOPED_TRACE(::testing::Message() << "seed " << seed);
        p.seed = seed;
        const Netlist nl = workload::generate(p);
        const netlist::Topology topo(nl);
        const auto classes = netlist::clock_classes(nl);
        ASSERT_FALSE(classes.empty());
        const SeqGating gating = SeqGating::for_class(nl, classes[0].members);
        EquivMap equiv(nl.size());
        equiv[1].push_back({2, true});
        equiv[2].push_back({1, true});

        util::Rng rng(seed * 7 + 1);
        struct Tie {
            GateId gate;
            Val3 value;
            std::uint32_t cycle;
        };
        std::vector<Tie> order;
        std::vector<Val3> ties(nl.size(), Val3::X);
        std::vector<std::uint32_t> cycles(nl.size(), 0);
        for (int i = 0; i < 5; ++i) {
            const GateId g = static_cast<GateId>(rng.below(nl.size()));
            if (ties[g] != Val3::X) continue;
            ties[g] = rng.chance(0.5) ? Val3::One : Val3::Zero;
            cycles[g] = static_cast<std::uint32_t>(rng.below(4));
            order.push_back({g, ties[g], cycles[g]});
        }
        // The first tie also arrives earlier with a later proof cycle, and
        // again later with an even later one (a no-op).
        order.insert(order.begin(), {order[0].gate, order[0].value, order[0].cycle + 3});
        order.push_back({order[1].gate, order[1].value, order[1].cycle + 1});

        const std::uint32_t frames = 12;
        const TieClosure built(topo, gating, &equiv, frames, &ties, &cycles);
        TieClosure extended(topo, gating, &equiv, frames);
        for (const Tie& t : order) extended.add_tie(t.gate, t.value, t.cycle);
        expect_same_closure(built, extended, nl.size());

        FrameSimulator scalar(topo, gating);
        scalar.set_ties(&ties, &cycles);
        scalar.set_equivalences(&equiv);
        FrameSimOptions opt;
        opt.max_frames = frames;
        opt.stop_on_state_repeat = false;
        const FrameSimResult want = scalar.run({}, opt);
        if (want.conflict) {
            EXPECT_EQ(built.conflict_frame(), want.conflict_frame);
            ++contradictory;
        } else {
            EXPECT_EQ(built.conflict_frame(), frames);
            ++clean;
        }
        std::vector<std::vector<std::pair<GateId, Val3>>> by_frame(frames);
        for (const ImpliedValue& iv : want.implied) {
            if (iv.frame < built.conflict_frame())
                by_frame[iv.frame].push_back({iv.gate, iv.value});
        }
        for (std::uint32_t t = 0; t < std::min(want.frames_run, built.conflict_frame()); ++t) {
            std::sort(by_frame[t].begin(), by_frame[t].end());
            std::vector<std::pair<GateId, Val3>> got;
            for (GateId g = 0; g < nl.size(); ++g) {
                if (built.value(g, t) != Val3::X) got.push_back({g, built.value(g, t)});
            }
            EXPECT_EQ(got, by_frame[t]) << "frame " << t;
        }

        // Lanes simulated against the extended background match their
        // scalar runs.
        BatchFrameSimulator bsim(extended);
        std::vector<std::vector<Injection>> schedules(24);
        std::vector<BatchLane> lanes(24);
        for (int l = 0; l < 24; ++l) {
            schedules[l].push_back({static_cast<std::uint32_t>(rng.below(3)),
                                    static_cast<GateId>(rng.below(nl.size())),
                                    rng.chance(0.5) ? Val3::One : Val3::Zero});
            lanes[l].injections = schedules[l];
        }
        opt.stop_on_state_repeat = true;
        std::vector<FrameSimResult> outs(24);
        run_lanes(bsim, extended, lanes, opt, outs);
        for (int l = 0; l < 24; ++l) {
            expect_lane_matches_scalar(scalar, outs[l], schedules[l], opt.max_frames,
                                       opt.stop_on_state_repeat, l);
        }
    }
    EXPECT_GT(clean, 0);
    EXPECT_GT(contradictory, 0);
}

// A tie that enters a gate earlier than the background already had it, but
// with the other value: n = NOT(a) holds 0 from frame 3 once a is tied to 1
// there, and tying n to 1 from frame 1 must make frame 3 contradictory —
// the old value still follows from a — exactly as a closure built from both
// ties at once finds.
TEST(TieClosure, EarlierTieAgainstAnOlderValueContradicts) {
    NetlistBuilder b("older");
    b.input("a").input("c");
    b.gate(GateType::Not, "n", {"a"});
    b.gate(GateType::And, "g", {"n", "c"});
    b.dff("F", "g");
    b.output("F");
    const Netlist nl = b.build();
    const netlist::Topology topo(nl);
    const SeqGating gating = SeqGating::all_open(nl);
    std::vector<Val3> ties(nl.size(), Val3::X);
    std::vector<std::uint32_t> cycles(nl.size(), 0);
    ties[nl.find("a")] = Val3::One;
    cycles[nl.find("a")] = 3;
    ties[nl.find("n")] = Val3::One;
    cycles[nl.find("n")] = 1;

    const TieClosure built(topo, gating, nullptr, 8, &ties, &cycles);
    TieClosure extended(topo, gating, nullptr, 8);
    extended.add_tie(nl.find("a"), Val3::One, 3);
    EXPECT_EQ(extended.value(nl.find("n"), 3), Val3::Zero);
    EXPECT_EQ(extended.conflict_frame(), 8u);
    extended.add_tie(nl.find("n"), Val3::One, 1);
    EXPECT_EQ(built.conflict_frame(), 3u);
    expect_same_closure(built, extended, nl.size());
}

}  // namespace
}  // namespace seqlearn::sim
