// Unit tests for the netlist substrate: container invariants, builder,
// .bench I/O, levelization, structural traversals, and clock classes.

#include "netlist/bench_io.hpp"
#include "netlist/builder.hpp"
#include "netlist/clock_class.hpp"
#include "netlist/levelize.hpp"
#include "netlist/netlist.hpp"
#include "netlist/structure.hpp"

#include <gtest/gtest.h>

#include <algorithm>

namespace seqlearn::netlist {
namespace {

// ISCAS-89 s27 in .bench syntax (public benchmark circuit).
constexpr const char* kS27 = R"(
# s27
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

Netlist make_s27() { return read_bench_string(kS27, "s27"); }

TEST(Netlist, AddGateArityChecks) {
    Netlist nl;
    const GateId a = nl.add_gate(GateType::Input, "a", {});
    EXPECT_THROW(nl.add_gate(GateType::Input, "a", {}), std::invalid_argument);  // dup name
    const std::vector<GateId> one{a};
    EXPECT_THROW(nl.add_gate(GateType::And, "g", one), std::invalid_argument);  // AND needs 2
    const std::vector<GateId> two{a, a};
    EXPECT_THROW(nl.add_gate(GateType::Not, "g", two), std::invalid_argument);  // NOT needs 1
    EXPECT_THROW(nl.add_gate(GateType::Input, "i", one), std::invalid_argument);
    EXPECT_NO_THROW(nl.add_gate(GateType::And, "g", two));
}

TEST(Netlist, FanoutEdgesMaintained) {
    Netlist nl;
    const GateId a = nl.add_gate(GateType::Input, "a", {});
    const GateId b = nl.add_gate(GateType::Input, "b", {});
    const std::vector<GateId> fan{a, b};
    const GateId g = nl.add_gate(GateType::And, "g", fan);
    ASSERT_EQ(nl.fanouts(a).size(), 1u);
    EXPECT_EQ(nl.fanouts(a)[0], g);
    EXPECT_EQ(nl.fanouts(b)[0], g);
    EXPECT_NO_THROW(nl.validate());
}

TEST(Netlist, ReplaceFaninUpdatesBothSides) {
    Netlist nl;
    const GateId a = nl.add_gate(GateType::Input, "a", {});
    const GateId b = nl.add_gate(GateType::Input, "b", {});
    const GateId c = nl.add_gate(GateType::Input, "c", {});
    const std::vector<GateId> fan{a, b};
    const GateId g = nl.add_gate(GateType::Or, "g", fan);
    nl.replace_fanin(g, 0, c);
    EXPECT_EQ(nl.fanins(g)[0], c);
    EXPECT_TRUE(nl.fanouts(a).empty());
    EXPECT_EQ(nl.fanouts(c)[0], g);
    EXPECT_NO_THROW(nl.validate());
}

TEST(Netlist, StemsAreMultiFanoutNodes) {
    const Netlist nl = make_s27();
    const auto stems = nl.stems();
    auto is_stem = [&](const char* name) {
        const GateId id = nl.find(name);
        return std::find(stems.begin(), stems.end(), id) != stems.end();
    };
    // G8 feeds G15 and G16; G11 feeds G17, G10, and G6's D; G14 feeds G8 and G10.
    EXPECT_TRUE(is_stem("G8"));
    EXPECT_TRUE(is_stem("G11"));
    EXPECT_TRUE(is_stem("G14"));
    EXPECT_FALSE(is_stem("G17"));
    EXPECT_FALSE(is_stem("G9"));
}

TEST(Netlist, CountsMatchS27) {
    const Netlist nl = make_s27();
    const auto c = nl.counts();
    EXPECT_EQ(c.inputs, 4u);
    EXPECT_EQ(c.outputs, 1u);
    EXPECT_EQ(c.flip_flops, 3u);
    EXPECT_EQ(c.latches, 0u);
    EXPECT_EQ(c.combinational, 10u);
}

TEST(Builder, ForwardReferencesResolve) {
    NetlistBuilder b("fwd");
    b.input("i");
    b.gate(GateType::And, "g", {"i", "f"});  // f declared below
    b.dff("f", "g");
    b.output("g");
    const Netlist nl = b.build();
    EXPECT_EQ(nl.size(), 3u);
    EXPECT_EQ(nl.fanins(nl.find("f"))[0], nl.find("g"));
    EXPECT_EQ(nl.fanins(nl.find("g"))[1], nl.find("f"));
}

TEST(Builder, AutonomousCircuitWithoutInputs) {
    // A free-running toggler: F = DFF(NOT(F)).
    NetlistBuilder b("osc");
    b.dff("F", "n");
    b.gate(GateType::Not, "n", {"F"});
    b.output("F");
    const Netlist nl = b.build();
    EXPECT_EQ(nl.counts().flip_flops, 1u);
    EXPECT_EQ(nl.fanins(nl.find("F"))[0], nl.find("n"));
}

TEST(Builder, RejectsUndeclaredFanin) {
    NetlistBuilder b;
    b.input("i");
    b.gate(GateType::Not, "g", {"nope"});
    EXPECT_THROW(b.build(), std::runtime_error);
}

TEST(Builder, RejectsCombinationalCycle) {
    NetlistBuilder b;
    b.input("i");
    b.gate(GateType::And, "g1", {"i", "g2"});
    b.gate(GateType::And, "g2", {"i", "g1"});
    EXPECT_THROW(b.build(), std::runtime_error);
}

TEST(Builder, SequentialFeedbackIsNotACycle) {
    NetlistBuilder b;
    b.input("i");
    b.gate(GateType::And, "g", {"i", "f"});
    b.dff("f", "g");
    EXPECT_NO_THROW(b.build());
}

TEST(Builder, SharedFaninDiamondIsNotACycle) {
    NetlistBuilder b;
    b.input("i");
    b.gate(GateType::Not, "n", {"i"});
    b.gate(GateType::And, "a", {"n", "i"});
    b.gate(GateType::Or, "o", {"n", "a"});
    b.output("o");
    EXPECT_NO_THROW(b.build());
}

TEST(Builder, RejectsDuplicateNames) {
    NetlistBuilder b;
    b.input("x");
    b.input("x");
    EXPECT_THROW(b.build(), std::runtime_error);
}

TEST(Builder, RejectsUnknownOutput) {
    NetlistBuilder b;
    b.input("x");
    b.output("y");
    EXPECT_THROW(b.build(), std::runtime_error);
}

TEST(Levelize, LevelsRespectDependencies) {
    const Netlist nl = make_s27();
    const auto lv = levelize(nl);
    EXPECT_EQ(lv.topo_order.size(), nl.size());
    // Every combinational gate sits strictly above its combinational fanins.
    for (GateId id = 0; id < nl.size(); ++id) {
        if (!is_combinational(nl.type(id))) continue;
        for (const GateId f : nl.fanins(id)) {
            const std::uint32_t fl = is_sequential(nl.type(f)) ? 0 : lv.level[f];
            EXPECT_GE(lv.level[id], fl + 1);
        }
    }
    // Topological order: fanins precede their combinational consumers.
    std::vector<std::size_t> pos(nl.size());
    for (std::size_t i = 0; i < lv.topo_order.size(); ++i) pos[lv.topo_order[i]] = i;
    for (GateId id = 0; id < nl.size(); ++id) {
        if (!is_combinational(nl.type(id))) continue;
        for (const GateId f : nl.fanins(id)) EXPECT_LT(pos[f], pos[id]);
    }
}

TEST(BenchIO, ParsesS27Shape) {
    const Netlist nl = make_s27();
    EXPECT_EQ(nl.name(), "s27");
    EXPECT_EQ(nl.size(), 17u);
    EXPECT_NE(nl.find("G9"), kNoGate);
    EXPECT_EQ(nl.find("missing"), kNoGate);
    EXPECT_EQ(nl.type(nl.find("G5")), GateType::Dff);
    EXPECT_EQ(nl.type(nl.find("G9")), GateType::Nand);
    EXPECT_EQ(nl.outputs().size(), 1u);
    EXPECT_EQ(nl.outputs()[0], nl.find("G17"));
}

TEST(BenchIO, RoundTripPreservesStructure) {
    const Netlist a = make_s27();
    const std::string text = write_bench_string(a);
    const Netlist b = read_bench_string(text, "s27");
    ASSERT_EQ(a.size(), b.size());
    for (GateId id = 0; id < a.size(); ++id) {
        const GateId bid = b.find(a.name_of(id));
        ASSERT_NE(bid, kNoGate) << a.name_of(id);
        EXPECT_EQ(a.type(id), b.type(bid));
        ASSERT_EQ(a.fanins(id).size(), b.fanins(bid).size());
        for (std::size_t i = 0; i < a.fanins(id).size(); ++i) {
            EXPECT_EQ(a.name_of(a.fanins(id)[i]), b.name_of(b.fanins(bid)[i]));
        }
    }
    EXPECT_EQ(a.outputs().size(), b.outputs().size());
}

TEST(BenchIO, SeqPragmaRoundTrip) {
    const char* text = R"(
INPUT(i)
OUTPUT(f)
f = DFF(g)
g = AND(i, f)
#@ seq f clock=3 phase=1 sr=reset unconstrained
)";
    const Netlist nl = read_bench_string(text);
    const SeqAttrs& a = nl.seq_attrs(nl.find("f"));
    EXPECT_EQ(a.clock_id, 3);
    EXPECT_EQ(a.phase, 1);
    EXPECT_EQ(a.set_reset, SetReset::ResetOnly);
    EXPECT_TRUE(a.sr_unconstrained);

    const Netlist back = read_bench_string(write_bench_string(nl));
    const SeqAttrs& b = back.seq_attrs(back.find("f"));
    EXPECT_EQ(b.clock_id, 3);
    EXPECT_EQ(b.phase, 1);
    EXPECT_EQ(b.set_reset, SetReset::ResetOnly);
    EXPECT_TRUE(b.sr_unconstrained);
}

TEST(BenchIO, MultiPortLatchFromArity) {
    const char* text = R"(
INPUT(a)
INPUT(b)
l = DLATCH(a, b)
OUTPUT(l)
)";
    const Netlist nl = read_bench_string(text);
    EXPECT_EQ(nl.type(nl.find("l")), GateType::Dlatch);
    EXPECT_EQ(nl.seq_attrs(nl.find("l")).num_ports, 2);
}

TEST(BenchIO, RejectsMalformedLines) {
    EXPECT_THROW(read_bench_string("INPUT a\n"), std::runtime_error);
    EXPECT_THROW(read_bench_string("g = FROB(a)\nINPUT(a)\n"), std::runtime_error);
    EXPECT_THROW(read_bench_string("INPUT(a)\ng = DFF(a, a)\n"), std::runtime_error);
}

TEST(Structure, FanoutConeStopsAtSequentialByDefault) {
    const Netlist nl = make_s27();
    const auto cone = fanout_cone(nl, nl.find("G14"), /*through_seq=*/false);
    auto in_cone = [&](const char* n) {
        const GateId id = nl.find(n);
        return std::find(cone.begin(), cone.end(), id) != cone.end();
    };
    EXPECT_TRUE(in_cone("G8"));
    EXPECT_TRUE(in_cone("G10"));
    EXPECT_TRUE(in_cone("G5"));  // reached as a sink, not expanded
    EXPECT_TRUE(in_cone("G9"));
    // G5 is sequential, so its fanout G11 must not be reached *through* it;
    // G11 is still in the cone via the combinational path G9 -> G11.
    EXPECT_TRUE(in_cone("G11"));
    // G2 only feeds G13 and is not downstream of G14 combinationally.
    EXPECT_FALSE(in_cone("G2"));
}

TEST(Structure, FanoutConeThroughSequential) {
    const Netlist nl = make_s27();
    // G2 -> G13 -> G7 (DFF). Blocked at G7, the cone is tiny; expanding
    // through G7 reaches G12, G15, G9, G11, ... on the next-frame path.
    const auto blocked = fanout_cone(nl, nl.find("G2"), false);
    const auto open = fanout_cone(nl, nl.find("G2"), true);
    EXPECT_EQ(blocked.size(), 2u);
    EXPECT_GT(open.size(), blocked.size());
    auto in = [&](const std::vector<GateId>& v, const char* n) {
        return std::find(v.begin(), v.end(), nl.find(n)) != v.end();
    };
    EXPECT_FALSE(in(blocked, "G12"));
    EXPECT_TRUE(in(open, "G12"));
    EXPECT_TRUE(in(open, "G9"));
}

TEST(Structure, SequentialDepthOfPipelineAndFsm) {
    // Pipeline of 3 DFFs -> depth 3.
    NetlistBuilder b("pipe");
    b.input("i");
    b.dff("f1", "i");
    b.dff("f2", "f1");
    b.dff("f3", "f2");
    b.output("f3");
    EXPECT_EQ(sequential_depth(b.build()), 3u);

    // A feedback FSM hits the cap.
    NetlistBuilder c("loop");
    c.input("i");
    c.gate(GateType::And, "g", {"i", "f"});
    c.dff("f", "g");
    c.output("f");
    EXPECT_EQ(sequential_depth(c.build(), 16), 16u);
}

TEST(ClockClass, PartitionByClockPhaseAndKind) {
    NetlistBuilder b("domains");
    b.input("i");
    SeqAttrs clk0{};
    SeqAttrs clk0n{};
    clk0n.phase = 1;
    SeqAttrs clk1{};
    clk1.clock_id = 1;
    b.dff("f1", "i", clk0);
    b.dff("f2", "i", clk0);
    b.dff("f3", "i", clk0n);
    b.dff("f4", "i", clk1);
    b.dlatch("l1", {"i"}, clk0);
    b.output("f1");
    const Netlist nl = b.build();
    const auto classes = clock_classes(nl);
    ASSERT_EQ(classes.size(), 4u);
    // (clock 0, phase 0, FF) holds f1 and f2; latches split off even on the
    // same clock and phase.
    std::size_t total = 0;
    bool found_pair = false;
    for (const auto& c : classes) {
        total += c.members.size();
        if (c.members.size() == 2) {
            found_pair = true;
            EXPECT_FALSE(c.is_latch);
            EXPECT_EQ(c.clock_id, 0);
            EXPECT_EQ(c.phase, 0);
        }
    }
    EXPECT_TRUE(found_pair);
    EXPECT_EQ(total, nl.seq_elements().size());
}

TEST(ClockClass, SingleDomainYieldsOneClass) {
    const Netlist nl = make_s27();
    const auto classes = clock_classes(nl);
    ASSERT_EQ(classes.size(), 1u);
    EXPECT_EQ(classes[0].members.size(), 3u);
}

}  // namespace
}  // namespace seqlearn::netlist
