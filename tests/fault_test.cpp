// Tests for the fault substrate: universe generation, equivalence
// collapsing, the status list, and the 255-fault-parallel sequential fault
// simulator cross-validated against netlist-surgery reference simulation
// and, with learned ties attached, against a scalar two-machine reference.

#include "fault/collapse.hpp"
#include "fault/fault.hpp"
#include "fault/fault_list.hpp"
#include "fault/fault_sim.hpp"
#include "netlist/bench_io.hpp"
#include "netlist/builder.hpp"
#include "netlist/levelize.hpp"
#include "netlist/structure.hpp"
#include "netlist/topology.hpp"
#include "sim/comb_engine.hpp"
#include "test_helpers.hpp"
#include "util/rng.hpp"
#include "workload/suite.hpp"

#include <gtest/gtest.h>

#include <algorithm>

namespace seqlearn::fault {
namespace {

using netlist::GateId;
using netlist::GateType;
using netlist::Netlist;
using netlist::NetlistBuilder;
using sim::InputFrame;
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

InputSequence random_sequence(const Netlist& nl, std::size_t len, util::Rng& rng) {
    InputSequence seq(len, InputFrame(nl.inputs().size(), Val3::X));
    for (auto& frame : seq) {
        for (auto& v : frame) v = rng.chance(0.5) ? Val3::One : Val3::Zero;
    }
    return seq;
}

// Reference detection: simulate good and surgically-faulted netlists and
// compare primary outputs frame by frame (both binary, different).
bool reference_detects(const Netlist& nl, const Fault& f, const InputSequence& seq) {
    const Netlist bad = apply_fault_copy(nl, f);
    const auto good = sim::simulate_sequence(nl, seq);
    const auto faulty = sim::simulate_sequence(bad, seq);
    for (std::size_t t = 0; t < seq.size(); ++t) {
        for (std::size_t o = 0; o < good.outputs[t].size(); ++o) {
            const Val3 g = good.outputs[t][o];
            const Val3 b = faulty.outputs[t][o];
            if (g != Val3::X && b != Val3::X && g != b) return true;
        }
    }
    return false;
}

TEST(FaultUniverse, SizeMatchesStructure) {
    const Netlist nl = make_s27();
    std::size_t branch_pins = 0;
    for (GateId id = 0; id < nl.size(); ++id) {
        for (const GateId f : nl.fanins(id)) {
            if (nl.fanouts(f).size() > 1) ++branch_pins;
        }
    }
    const auto universe = fault_universe(nl);
    EXPECT_EQ(universe.size(), 2 * (nl.size() + branch_pins));
    // No duplicates.
    auto sorted = universe;
    std::sort(sorted.begin(), sorted.end());
    EXPECT_TRUE(std::adjacent_find(sorted.begin(), sorted.end()) == sorted.end());
}

TEST(FaultUniverse, FanoutFreePinsCarryNoFaults) {
    NetlistBuilder b("ff");
    b.input("a").input("bb");
    b.gate(GateType::And, "g", {"a", "bb"});
    b.output("g");
    const Netlist nl = b.build();
    const auto universe = fault_universe(nl);
    EXPECT_EQ(universe.size(), 6u);  // 3 gates x 2, no branch faults
    for (const Fault& f : universe) EXPECT_EQ(f.pin, kOutputPin);
}

TEST(FaultToString, Formats) {
    const Netlist nl = make_s27();
    EXPECT_EQ(to_string(nl, Fault{nl.find("G14"), kOutputPin, Val3::One}), "G14 s-a-1");
    EXPECT_EQ(to_string(nl, Fault{nl.find("G9"), 1, Val3::Zero}), "G9.in1 s-a-0");
}

TEST(Collapse, SingleAndGate) {
    NetlistBuilder b("and2");
    b.input("a").input("bb");
    b.gate(GateType::And, "g", {"a", "bb"});
    b.output("g");
    const Netlist nl = b.build();
    const CollapsedFaults cf = collapse(nl);
    EXPECT_EQ(cf.universe_size(), 6u);
    // {a0,b0,g0} collapse; a1, b1, g1 stay separate -> 4 classes.
    EXPECT_EQ(cf.size(), 4u);
    const Fault a0{nl.find("a"), kOutputPin, Val3::Zero};
    const Fault b0{nl.find("bb"), kOutputPin, Val3::Zero};
    const Fault g0{nl.find("g"), kOutputPin, Val3::Zero};
    EXPECT_EQ(cf.rep_of(a0), cf.rep_of(g0));
    EXPECT_EQ(cf.rep_of(b0), cf.rep_of(g0));
    const Fault a1{nl.find("a"), kOutputPin, Val3::One};
    const Fault g1{nl.find("g"), kOutputPin, Val3::One};
    EXPECT_NE(cf.rep_of(a1), cf.rep_of(g1));
}

TEST(Collapse, InverterChainFoldsToTwoClasses) {
    NetlistBuilder b("chain");
    b.input("a");
    b.gate(GateType::Not, "n1", {"a"});
    b.gate(GateType::Not, "n2", {"n1"});
    b.output("n2");
    const Netlist nl = b.build();
    const CollapsedFaults cf = collapse(nl);
    EXPECT_EQ(cf.universe_size(), 6u);
    EXPECT_EQ(cf.size(), 2u);
    const Fault a0{nl.find("a"), kOutputPin, Val3::Zero};
    const Fault n1_1{nl.find("n1"), kOutputPin, Val3::One};
    const Fault n2_0{nl.find("n2"), kOutputPin, Val3::Zero};
    EXPECT_EQ(cf.rep_of(a0), cf.rep_of(n1_1));
    EXPECT_EQ(cf.rep_of(a0), cf.rep_of(n2_0));
}

TEST(Collapse, NandPolarity) {
    NetlistBuilder b("nand2");
    b.input("a").input("bb");
    b.gate(GateType::Nand, "g", {"a", "bb"});
    b.output("g");
    const Netlist nl = b.build();
    const CollapsedFaults cf = collapse(nl);
    // in s-a-0 == out s-a-1 for NAND.
    const Fault a0{nl.find("a"), kOutputPin, Val3::Zero};
    const Fault g1{nl.find("g"), kOutputPin, Val3::One};
    EXPECT_EQ(cf.rep_of(a0), cf.rep_of(g1));
}

TEST(Collapse, XorHasNoEquivalences) {
    NetlistBuilder b("xor2");
    b.input("a").input("bb");
    b.gate(GateType::Xor, "g", {"a", "bb"});
    b.output("g");
    const Netlist nl = b.build();
    EXPECT_EQ(collapse(nl).size(), 6u);
}

TEST(Collapse, BranchFaultsStayDistinctFromStem) {
    // A stem feeding an AND and an OR: branch faults collapse into the
    // consumers' output faults, not into the stem fault.
    NetlistBuilder b("branch");
    b.input("a").input("bb").input("c");
    b.gate(GateType::Buf, "s", {"a"});
    b.gate(GateType::And, "g1", {"s", "bb"});
    b.gate(GateType::Or, "g2", {"s", "c"});
    b.output("g1").output("g2");
    const Netlist nl = b.build();
    const CollapsedFaults cf = collapse(nl);
    const Fault stem0{nl.find("s"), kOutputPin, Val3::Zero};
    const Fault branch_and_0{nl.find("g1"), 0, Val3::Zero};
    const Fault g1_0{nl.find("g1"), kOutputPin, Val3::Zero};
    EXPECT_EQ(cf.rep_of(branch_and_0), cf.rep_of(g1_0));
    EXPECT_NE(cf.rep_of(stem0), cf.rep_of(branch_and_0));
}

// Detection equivalence: every fault must be detected by exactly the
// sequences that detect its class representative.
TEST(Collapse, ClassMembersShareDetection) {
    const Netlist nl = make_s27();
    const CollapsedFaults cf = collapse(nl);
    const auto universe = fault_universe(nl);
    const netlist::Topology topo(nl);
    FaultSimulator fsim(topo);
    util::Rng rng(2024);
    for (int trial = 0; trial < 4; ++trial) {
        const InputSequence seq = random_sequence(nl, 6, rng);
        for (const Fault& f : universe) {
            const Fault& rep = cf.rep_of(f);
            if (rep == f) continue;
            EXPECT_EQ(fsim.detects(seq, f), fsim.detects(seq, rep))
                << to_string(nl, f) << " vs rep " << to_string(nl, rep);
        }
    }
}

TEST(FaultList, CountsAndCoverage) {
    FaultList list({Fault{0, kOutputPin, Val3::Zero}, Fault{0, kOutputPin, Val3::One},
                    Fault{1, kOutputPin, Val3::Zero}, Fault{1, kOutputPin, Val3::One}});
    list.set_status(0, FaultStatus::Detected);
    list.set_status(1, FaultStatus::Untestable);
    list.set_status(2, FaultStatus::Aborted);
    const auto c = list.counts();
    EXPECT_EQ(c.total, 4u);
    EXPECT_EQ(c.detected, 1u);
    EXPECT_EQ(c.untestable, 1u);
    EXPECT_EQ(c.aborted, 1u);
    EXPECT_EQ(c.undetected, 1u);
    EXPECT_DOUBLE_EQ(list.fault_coverage(), 0.25);
    EXPECT_DOUBLE_EQ(list.test_coverage(), 1.0 / 3.0);
    EXPECT_EQ(list.undetected(), (std::vector<std::size_t>{3}));
    EXPECT_EQ(list.aborted(), (std::vector<std::size_t>{2}));
}

// The parallel fault simulator must agree with netlist-surgery reference
// simulation for every fault in the universe.
TEST(FaultSim, AgreesWithSurgeryReferenceOnS27) {
    const Netlist nl = make_s27();
    const auto universe = fault_universe(nl);
    const netlist::Topology topo(nl);
    FaultSimulator fsim(topo);
    util::Rng rng(7);
    for (int trial = 0; trial < 3; ++trial) {
        const InputSequence seq = random_sequence(nl, 8, rng);
        for (const Fault& f : universe) {
            EXPECT_EQ(fsim.detects(seq, f), reference_detects(nl, f, seq))
                << to_string(nl, f) << " trial " << trial;
        }
    }
}

TEST(FaultSim, ParallelPassMatchesSerialRuns) {
    const Netlist nl = make_s27();
    const auto universe = fault_universe(nl);
    const netlist::Topology topo(nl);
    FaultSimulator fsim(topo);
    util::Rng rng(15);
    const InputSequence seq = random_sequence(nl, 10, rng);
    // One pass over (up to) kFaultsPerPass faults vs. per-fault runs.
    const std::size_t n = std::min<std::size_t>(universe.size(), kFaultsPerPass);
    const std::span<const Fault> chunk(universe.data(), n);
    const auto parallel = fsim.run(seq, chunk);
    for (std::size_t j = 0; j < n; ++j) {
        EXPECT_EQ(parallel[j], fsim.detects(seq, universe[j])) << to_string(nl, universe[j]);
    }
}

// One full-width pass on gen953 with learned ties. Detected output faults
// sit in lanes 63, 127, 191 and 255 and detected pin faults in lanes 64,
// 128 and 192, on both sides of every 64-lane word boundary. Every verdict
// must equal the fault's own detects(), which runs the one-word kernel, and
// run() over more faults than two passes hold must equal its passes run one
// by one.
TEST(FaultSim, WidePassLanesMatchSingleFaultRuns) {
    const Netlist nl = workload::suite_circuit("gen953");
    const core::LearnResult learned = testing::learn(nl);
    ASSERT_GT(learned.ties.count(), 0u);
    const netlist::Topology topo(nl);
    FaultSimulator fsim(topo);
    fsim.set_good_ties(&learned.ties.dense(), &learned.ties.dense_cycles());
    const std::vector<Fault> faults = collapse(nl).representatives();
    ASSERT_GT(faults.size(), 600u);
    util::Rng rng(63);
    const InputSequence seq = random_sequence(nl, 16, rng);

    // Lane j + 1 carries pass[j]: the first faults of the list, with
    // detected faults from beyond it placed on the word boundaries.
    std::vector<Fault> pass(faults.begin(), faults.begin() + kFaultsPerPass);
    std::vector<Fault> outs, pins;
    for (std::size_t i = kFaultsPerPass; i < faults.size(); ++i) {
        if (fsim.detects(seq, faults[i]))
            (faults[i].pin == kOutputPin ? outs : pins).push_back(faults[i]);
    }
    ASSERT_GE(outs.size(), 4u);
    ASSERT_GE(pins.size(), 3u);
    std::size_t next_out = 0, next_pin = 0;
    for (const std::size_t lane : {63u, 127u, 191u, 255u}) pass[lane - 1] = outs[next_out++];
    for (const std::size_t lane : {64u, 128u, 192u}) pass[lane - 1] = pins[next_pin++];

    const std::vector<bool> got = fsim.run(seq, pass);
    ASSERT_EQ(got.size(), pass.size());
    std::size_t detected = 0;
    for (std::size_t j = 0; j < pass.size(); ++j) {
        EXPECT_EQ(got[j], fsim.detects(seq, pass[j]))
            << to_string(nl, pass[j]) << " lane " << j + 1;
        detected += got[j];
    }
    EXPECT_GT(detected, 7u);
    EXPECT_LT(detected, pass.size());

    const std::span<const Fault> many(faults.data(), 600);
    const std::vector<bool> all = fsim.run(seq, many);
    std::vector<bool> concat;
    for (std::size_t pos = 0; pos < many.size(); pos += kFaultsPerPass) {
        const std::vector<bool> part =
            fsim.run(seq, many.subspan(pos, std::min(kFaultsPerPass, many.size() - pos)));
        concat.insert(concat.end(), part.begin(), part.end());
    }
    EXPECT_EQ(all, concat);
    for (std::size_t j = 0; j < many.size(); ++j)
        EXPECT_EQ(all[j], fsim.detects(seq, many[j])) << to_string(nl, many[j]);
}

// Every gate shape the compiled kernel distinguishes: BUF and NOT, the AND
// family at two to five inputs (three operand slots up to three, the fanin
// list beyond), XOR and XNOR at two to four, constants feeding gates, and
// flip-flops in the loop. Every output and pin fault of the universe must
// get the surgery reference's verdict from a 256-lane run() and from the
// one-word detects().
TEST(FaultSim, EveryGateShapeMatchesSurgeryReference) {
    NetlistBuilder b("shapes");
    const std::vector<std::string> ops = {"a", "bb", "c", "d", "e", "q1", "q2", "nt", "bf"};
    for (const char* in : {"a", "bb", "c", "d", "e"}) b.input(in);
    b.constant("k0", false).constant("k1", true);
    b.gate(GateType::Buf, "bf", {"a"});
    b.gate(GateType::Not, "nt", {"bb"});
    std::vector<std::string> gates = {"bf", "nt"};
    std::size_t rot = 0;
    const auto add = [&](GateType type, const std::string& name, std::size_t n) {
        std::vector<std::string> fi;
        for (std::size_t i = 0; i < n; ++i) fi.push_back(ops[(rot + i) % ops.size()]);
        rot += 2;
        b.gate(type, name, fi);
        gates.push_back(name);
    };
    for (std::size_t n = 2; n <= 5; ++n) {
        add(GateType::And, "and" + std::to_string(n), n);
        add(GateType::Nand, "nand" + std::to_string(n), n);
        add(GateType::Or, "or" + std::to_string(n), n);
        add(GateType::Nor, "nor" + std::to_string(n), n);
    }
    for (std::size_t n = 2; n <= 4; ++n) {
        add(GateType::Xor, "xor" + std::to_string(n), n);
        add(GateType::Xnor, "xnor" + std::to_string(n), n);
    }
    b.gate(GateType::And, "kand", {"k1", "a", "c"});
    b.gate(GateType::Or, "kor", {"k0", "bb"});
    b.gate(GateType::Xor, "kxor", {"k1", "d"});
    b.gate(GateType::Nand, "knand", {"k0", "e", "k1"});
    for (const char* k : {"kand", "kor", "kxor", "knand"}) gates.push_back(k);
    b.dff("q1", "xor3");
    b.dff("q2", "nor4");
    for (const std::string& g : gates) b.output(g);
    const Netlist nl = b.build();
    const netlist::Topology topo(nl);

    const std::vector<Fault> universe = fault_universe(nl);
    const auto pin_faults = std::count_if(universe.begin(), universe.end(),
                                          [](const Fault& f) { return f.pin != kOutputPin; });
    ASSERT_GT(universe.size(), 2 * kFaultsPerPass / 3);
    ASSERT_GT(pin_faults, 100);
    FaultSimulator fsim(topo);
    util::Rng rng(5);
    for (int trial = 0; trial < 4; ++trial) {
        InputSequence seq = random_sequence(nl, 6, rng);
        for (auto& frame : seq)
            for (auto& v : frame)
                if (rng.chance(0.15)) v = Val3::X;
        const std::vector<bool> wide = fsim.run(seq, universe);
        std::size_t detected = 0;
        for (std::size_t i = 0; i < universe.size(); ++i) {
            const bool want = reference_detects(nl, universe[i], seq);
            EXPECT_EQ(wide[i], want) << to_string(nl, universe[i]) << " trial " << trial;
            EXPECT_EQ(fsim.detects(seq, universe[i]), want)
                << to_string(nl, universe[i]) << " trial " << trial;
            detected += want;
        }
        EXPECT_GT(detected, universe.size() / 4) << trial;
    }
}

TEST(FaultSim, XInputsNeverProduceFalseDetections) {
    // With all-X stimuli nothing is observable, so nothing may be detected.
    const Netlist nl = make_s27();
    const auto universe = fault_universe(nl);
    const netlist::Topology topo(nl);
    FaultSimulator fsim(topo);
    const InputSequence seq(5, InputFrame(nl.inputs().size(), Val3::X));
    for (const Fault& f : universe) {
        EXPECT_FALSE(fsim.detects(seq, f)) << to_string(nl, f);
    }
}

TEST(FaultSim, DropDetectedMatchesIndividualDetection) {
    const Netlist nl = make_s27();
    const CollapsedFaults cf = collapse(nl);
    FaultList list(cf.representatives());
    const netlist::Topology topo(nl);
    FaultSimulator fsim(topo);
    util::Rng rng(31);
    const InputSequence seq = random_sequence(nl, 12, rng);
    const std::size_t dropped = fsim.drop_detected(seq, list);
    std::size_t expect_dropped = 0;
    for (std::size_t i = 0; i < list.size(); ++i) {
        const bool det = fsim.detects(seq, list.fault(i));
        expect_dropped += det;
        EXPECT_EQ(list.status(i) == FaultStatus::Detected, det);
    }
    EXPECT_EQ(dropped, expect_dropped);
    EXPECT_GT(dropped, 0u);  // a 12-frame random sequence detects something
}

TEST(FaultSim, DetectsObviousFault) {
    // y = AND(a, b), y observed: a s-a-0 detected by a=b=1.
    NetlistBuilder b("and2");
    b.input("a").input("bb");
    b.gate(GateType::And, "y", {"a", "bb"});
    b.output("y");
    const Netlist nl = b.build();
    const netlist::Topology topo(nl);
    FaultSimulator fsim(topo);
    const InputSequence seq{{Val3::One, Val3::One}};
    EXPECT_TRUE(fsim.detects(seq, Fault{nl.find("a"), kOutputPin, Val3::Zero}));
    EXPECT_FALSE(fsim.detects(seq, Fault{nl.find("a"), kOutputPin, Val3::One}));
    const InputSequence seq01{{Val3::Zero, Val3::One}};
    EXPECT_TRUE(fsim.detects(seq01, Fault{nl.find("a"), kOutputPin, Val3::One}));
}

TEST(FaultSim, SequentialFaultNeedsPropagationFrames) {
    // Pipeline: fault at the head shows at the PO only after 2 frames.
    NetlistBuilder b("pipe");
    b.input("i");
    b.dff("f1", "i");
    b.dff("f2", "f1");
    b.output("f2");
    const Netlist nl = b.build();
    const netlist::Topology topo(nl);
    FaultSimulator fsim(topo);
    const Fault f{nl.find("i"), kOutputPin, Val3::Zero};
    const InputSequence short_seq{{Val3::One}, {Val3::One}};
    EXPECT_FALSE(fsim.detects(short_seq, f));
    const InputSequence long_seq{{Val3::One}, {Val3::One}, {Val3::One}};
    EXPECT_TRUE(fsim.detects(long_seq, f));
}

TEST(FaultSim, ParallelDropDetectedMatchesSerial) {
    // More than two full passes, random sequences, serial vs pooled
    // drop_detected over per-worker clones: every status and drop count
    // must agree (detection is a union merged in fault-index order).
    const Netlist nl = testing::random_circuit(77, 8, 6, 130);
    const netlist::Topology topo(nl);
    const CollapsedFaults collapsed = collapse(nl);
    ASSERT_GT(collapsed.size(), 2 * kFaultsPerPass);  // at least three passes

    FaultSimulator serial(topo);
    exec::Pool pool(4);
    FaultSimulator parallel(topo);
    parallel.set_executor(&pool);

    FaultList serial_list(collapsed.representatives());
    FaultList parallel_list(collapsed.representatives());
    util::Rng rng(1234);
    for (int round = 0; round < 6; ++round) {
        InputSequence seq(8, InputFrame(nl.inputs().size(), Val3::X));
        for (auto& frame : seq)
            for (auto& v : frame) v = rng.chance(0.5) ? Val3::One : Val3::Zero;
        const std::size_t a = serial.drop_detected(seq, serial_list);
        const std::size_t b = parallel.drop_detected(seq, parallel_list);
        EXPECT_EQ(a, b) << "round " << round;
    }
    EXPECT_GT(serial_list.counts().detected, 0u);
    for (std::size_t i = 0; i < serial_list.size(); ++i) {
        EXPECT_EQ(serial_list.status(i), parallel_list.status(i)) << i;
    }
}

TEST(FaultSim, ParallelDropForwardsGoodTiesToClones) {
    // set_good_ties after clones exist must reconfigure every worker: tie a
    // gate and check parallel statuses still match a serial simulator with
    // the same ties.
    const Netlist nl = testing::random_circuit(31, 7, 5, 130);
    const netlist::Topology topo(nl);
    const CollapsedFaults collapsed = collapse(nl);
    ASSERT_GT(collapsed.size(), 2 * kFaultsPerPass);  // at least three passes

    std::vector<Val3> ties(nl.size(), Val3::X);
    std::vector<std::uint32_t> cycles(nl.size(), 0);
    ties[nl.seq_elements()[0]] = Val3::Zero;

    exec::Pool pool(4);
    FaultSimulator parallel(topo);
    parallel.set_executor(&pool);
    {
        // Force clone creation with tie-free state first.
        FaultList warmup(collapsed.representatives());
        InputSequence seq(4, InputFrame(nl.inputs().size(), Val3::One));
        parallel.drop_detected(seq, warmup);
    }
    parallel.set_good_ties(&ties, &cycles);

    FaultSimulator serial(topo);
    serial.set_good_ties(&ties, &cycles);

    FaultList serial_list(collapsed.representatives());
    FaultList parallel_list(collapsed.representatives());
    util::Rng rng(77);
    for (int round = 0; round < 4; ++round) {
        InputSequence seq(8, InputFrame(nl.inputs().size(), Val3::X));
        for (auto& frame : seq)
            for (auto& v : frame) v = rng.chance(0.5) ? Val3::One : Val3::Zero;
        EXPECT_EQ(serial.drop_detected(seq, serial_list),
                  parallel.drop_detected(seq, parallel_list));
    }
    for (std::size_t i = 0; i < serial_list.size(); ++i) {
        EXPECT_EQ(serial_list.status(i), parallel_list.status(i)) << i;
    }
}

// Scalar reference for tie-augmented detection: one machine simulated with
// 3-valued gate evaluation, returning its primary-output values per frame.
// A tie applies from its proof cycle on at every gate `tie_ok` accepts. For
// a faulty machine (`f` non-null) the caller accepts only gates outside
// {f.gate} ∪ fanout_cone(f.gate, through_seq), the cone computed by the
// Netlist walker rather than Topology's components. Ties must be sound: a
// binary value opposite its tie is reported.
template <typename TieOk>
std::vector<std::vector<Val3>> reference_outputs(const Netlist& nl,
                                                 const netlist::Levelization& lv,
                                                 const Fault* f, const InputSequence& seq,
                                                 const std::vector<Val3>& ties,
                                                 const std::vector<std::uint32_t>& cycles,
                                                 TieOk&& tie_ok) {
    const auto seq_elems = nl.seq_elements();
    const auto inputs = nl.inputs();
    std::vector<Val3> v(nl.size(), Val3::X);
    std::vector<Val3> state(seq_elems.size(), Val3::X);
    std::vector<Val3> ins;
    std::vector<std::vector<Val3>> outputs;
    for (std::size_t t = 0; t < seq.size(); ++t) {
        auto tie = [&](GateId g, Val3 x) {
            if (ties[g] == Val3::X || t < cycles[g] || !tie_ok(g)) return x;
            if (x != Val3::X && x != ties[g])
                ADD_FAILURE() << "unsound tie at " << nl.name_of(g) << " frame " << t;
            return ties[g];
        };
        auto force = [&](GateId g, Val3 x) {
            return f != nullptr && f->pin == kOutputPin && g == f->gate ? f->stuck : x;
        };
        auto pin = [&](GateId g, std::size_t i) {
            return f != nullptr && g == f->gate && f->pin == static_cast<std::int32_t>(i)
                       ? f->stuck
                       : v[nl.fanins(g)[i]];
        };
        for (std::size_t i = 0; i < inputs.size(); ++i) v[inputs[i]] = force(inputs[i], seq[t][i]);
        for (std::size_t i = 0; i < seq_elems.size(); ++i)
            v[seq_elems[i]] = force(seq_elems[i], tie(seq_elems[i], state[i]));
        for (const GateId g : lv.topo_order) {
            const GateType type = nl.type(g);
            if (type == GateType::Input || netlist::is_sequential(type)) continue;
            ins.resize(nl.fanins(g).size());
            for (std::size_t i = 0; i < ins.size(); ++i) ins[i] = pin(g, i);
            v[g] = force(g, tie(g, logic::eval_op(netlist::to_op(type), ins)));
        }
        for (std::size_t i = 0; i < seq_elems.size(); ++i) state[i] = pin(seq_elems[i], 0);
        std::vector<Val3>& out = outputs.emplace_back();
        for (const GateId o : nl.outputs()) out.push_back(v[o]);
    }
    return outputs;
}

TEST(FaultSim, TieLanesMatchPerFaultReference) {
    for (const char* name : {"gen953", "rt510b"}) {
        SCOPED_TRACE(name);
        const Netlist nl = workload::suite_circuit(name);
        const core::LearnResult learned = testing::learn(nl);
        const std::vector<Val3>& ties = learned.ties.dense();
        const std::vector<std::uint32_t>& cycles = learned.ties.dense_cycles();
        ASSERT_GT(learned.ties.count(), 0u);
        const netlist::Topology topo(nl);
        const netlist::Levelization lv = netlist::levelize(nl);
        const std::vector<Fault> faults = collapse(nl).representatives();
        util::Rng rng(41);
        std::vector<InputSequence> seqs;
        for (int i = 0; i < 2; ++i) seqs.push_back(random_sequence(nl, 16, rng));

        // Reference verdicts: good machine once per sequence, every tie;
        // each faulty machine takes ties outside its fault's cone only.
        std::vector<std::vector<std::vector<Val3>>> good;
        for (const InputSequence& seq : seqs)
            good.push_back(reference_outputs(nl, lv, nullptr, seq, ties, cycles,
                                             [](GateId) { return true; }));
        std::vector<std::vector<bool>> expect(seqs.size());
        std::vector<bool> in_cone(nl.size());
        for (const Fault& f : faults) {
            std::fill(in_cone.begin(), in_cone.end(), false);
            in_cone[f.gate] = true;
            for (const GateId g : netlist::fanout_cone(nl, f.gate, /*through_seq=*/true))
                in_cone[g] = true;
            for (std::size_t s = 0; s < seqs.size(); ++s) {
                const auto bad = reference_outputs(nl, lv, &f, seqs[s], ties, cycles,
                                                   [&](GateId g) { return !in_cone[g]; });
                bool detected = false;
                for (std::size_t t = 0; t < bad.size(); ++t)
                    for (std::size_t o = 0; o < bad[t].size(); ++o)
                        detected = detected || (good[s][t][o] != Val3::X &&
                                                bad[t][o] != Val3::X &&
                                                good[s][t][o] != bad[t][o]);
                expect[s].push_back(detected);
            }
        }

        std::size_t with_ties = 0;
        std::size_t without_ties = 0;
        FaultSimulator plain(topo);
        FaultSimulator fsim(topo);
        fsim.set_good_ties(&ties, &cycles);
        for (std::size_t s = 0; s < seqs.size(); ++s) {
            for (std::size_t pos = 0; pos < faults.size(); pos += kFaultsPerPass) {
                const std::size_t n = std::min(kFaultsPerPass, faults.size() - pos);
                const std::span<const Fault> chunk(faults.data() + pos, n);
                const std::vector<bool> got = fsim.run(seqs[s], chunk);
                const std::vector<bool> base = plain.run(seqs[s], chunk);
                for (std::size_t j = 0; j < n; ++j) {
                    EXPECT_EQ(got[j], expect[s][pos + j])
                        << to_string(nl, faults[pos + j]) << " seq " << s;
                    with_ties += got[j];
                    without_ties += base[j];
                }
            }
        }
        // The ties matter here: without them fewer faults are detected.
        EXPECT_GT(with_ties, without_ties);

        // drop_detected over the sequences, serial and on 4 workers: a fault
        // ends Detected exactly when some sequence detects it in the
        // reference.
        exec::Pool pool(4);
        for (const unsigned threads : {1u, 4u}) {
            SCOPED_TRACE(threads);
            FaultSimulator dropper(topo);
            if (threads > 1) dropper.set_executor(&pool);
            dropper.set_good_ties(&ties, &cycles);
            FaultList list(faults);
            for (const InputSequence& seq : seqs) dropper.drop_detected(seq, list);
            for (std::size_t i = 0; i < faults.size(); ++i) {
                bool any = false;
                for (const std::vector<bool>& e : expect) any = any || e[i];
                EXPECT_EQ(list.status(i) == FaultStatus::Detected, any)
                    << to_string(nl, faults[i]);
            }
        }
    }
}

}  // namespace
}  // namespace seqlearn::fault
