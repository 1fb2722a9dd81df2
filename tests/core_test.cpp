// Tests for the core learning engine: implication database, stem records,
// gate equivalences, single- and multiple-node learning, tie gates, invalid
// states — plus exhaustive soundness oracles on random circuits.

#include "core/db_io.hpp"
#include "core/equivalence.hpp"
#include "core/impl_db.hpp"
#include "core/invalid_state.hpp"
#include "core/seq_learn.hpp"
#include "core/stem_records.hpp"
#include "core/tie.hpp"
#include "fault/fault.hpp"
#include "netlist/builder.hpp"
#include "netlist/topology.hpp"
#include "test_helpers.hpp"

#include <gtest/gtest.h>

#include <algorithm>

namespace seqlearn::core {
namespace {

using netlist::GateId;
using netlist::GateType;
using netlist::Netlist;
using netlist::NetlistBuilder;

// --- ImplicationDB ---------------------------------------------------------

TEST(ImplDB, AddQueryAndContrapositive) {
    ImplicationDB db(10);
    const Literal a{2, Val3::One}, b{5, Val3::Zero};
    EXPECT_TRUE(db.add(a, b, 1));
    EXPECT_FALSE(db.add(a, b, 1));  // duplicate
    EXPECT_EQ(db.size(), 1u);
    EXPECT_TRUE(db.implies(a, b));
    EXPECT_TRUE(db.implies(negate(b), negate(a)));  // contrapositive
    EXPECT_FALSE(db.implies(b, a));                 // converse is not implied
    EXPECT_FALSE(db.implies(negate(a), negate(b)));
}

TEST(ImplDB, ContrapositiveInsertIsSameRelation) {
    ImplicationDB db(10);
    const Literal a{2, Val3::One}, b{5, Val3::Zero};
    EXPECT_TRUE(db.add(a, b, 3));
    EXPECT_FALSE(db.add(negate(b), negate(a), 3));
    EXPECT_EQ(db.size(), 1u);
}

TEST(ImplDB, FrameTagKeepsEarliest) {
    ImplicationDB db(10);
    const Literal a{2, Val3::One}, b{5, Val3::Zero};
    db.add(a, b, 7);
    EXPECT_EQ(db.frame_of(a, b), 7u);
    db.add(a, b, 3);
    EXPECT_EQ(db.frame_of(a, b), 3u);
    db.add(negate(b), negate(a), 9);  // same relation, later frame: keep 3
    EXPECT_EQ(db.frame_of(a, b), 3u);
}

TEST(ImplDB, RejectsTieStatements) {
    ImplicationDB db(10);
    EXPECT_THROW(db.add({3, Val3::One}, {3, Val3::Zero}, 0), std::invalid_argument);
    EXPECT_FALSE(db.add({3, Val3::One}, {3, Val3::One}, 0));  // tautology ignored
}

TEST(ImplDB, RelationsEnumerateOnce) {
    ImplicationDB db(10);
    db.add({1, Val3::Zero}, {2, Val3::One}, 0);
    db.add({3, Val3::One}, {4, Val3::One}, 2);
    const auto rels = db.relations();
    EXPECT_EQ(rels.size(), 2u);
    for (const Relation& r : rels) EXPECT_EQ(r.canonical(), r);
}

TEST(ImplDB, ImpliedByListsDirectConsequences) {
    ImplicationDB db(10);
    const Literal a{1, Val3::One};
    db.add(a, {2, Val3::Zero}, 1);
    db.add(a, {3, Val3::One}, 1);
    const auto implied = db.edges_of(a);
    ASSERT_EQ(implied.size(), 2u);
    EXPECT_EQ(implied[0].to, (Literal{2, Val3::Zero}));
    EXPECT_EQ(implied[1].to, (Literal{3, Val3::One}));
}

// --- StemRecords ------------------------------------------------------------

TEST(StemRecords, AddDedupAndTargets) {
    StemRecords rec(0);
    const Literal n{4, Val3::One}, s{1, Val3::Zero};
    rec.add(n, s, 2);
    rec.add(n, s, 2);  // duplicate
    rec.add(n, s, 3);  // same stem, different offset: distinct record
    rec.add(n, {2, Val3::One}, 1);
    EXPECT_EQ(rec.records_for(n).size(), 3u);
    EXPECT_EQ(rec.total_records(), 3u);
    EXPECT_EQ(rec.targets(2).size(), 1u);
    EXPECT_EQ(rec.targets(4).size(), 0u);
}

TEST(StemRecords, CapBoundsPerKey) {
    StemRecords rec(2);
    const Literal n{4, Val3::One};
    rec.add(n, {1, Val3::Zero}, 0);
    rec.add(n, {2, Val3::Zero}, 0);
    rec.add(n, {3, Val3::Zero}, 0);  // dropped by cap
    EXPECT_EQ(rec.records_for(n).size(), 2u);
}

// --- TieSet -----------------------------------------------------------------

TEST(TieSet, BasicAccounting) {
    TieSet ties(8);
    ties.set(1, Val3::Zero, 0);
    ties.set(2, Val3::One, 3);
    EXPECT_TRUE(ties.is_tied(1));
    EXPECT_EQ(ties.value(2), Val3::One);
    EXPECT_EQ(ties.cycle(2), 3u);
    EXPECT_EQ(ties.count(), 2u);
    EXPECT_EQ(ties.count_combinational(), 1u);
    EXPECT_EQ(ties.count_sequential(), 1u);
    ties.set(2, Val3::One, 1);  // better cycle
    EXPECT_EQ(ties.cycle(2), 1u);
    EXPECT_THROW(ties.set(2, Val3::Zero, 0), std::logic_error);
}

TEST(TieSet, UntestableFaultDerivation) {
    // g tied to 0 -> g s-a-0 untestable, and s-a-0 on each branch pin fed
    // by g untestable too.
    NetlistBuilder b("t");
    b.input("a").input("c");
    b.gate(GateType::Not, "na", {"a"});
    b.gate(GateType::And, "g", {"a", "na"});  // tied 0
    b.gate(GateType::Or, "o1", {"g", "c"});
    b.gate(GateType::And, "o2", {"g", "c"});
    b.output("o1").output("o2");
    const Netlist nl = b.build();
    TieSet ties(nl.size());
    ties.set(nl.find("g"), Val3::Zero, 0);
    const auto universe = fault::fault_universe(nl);
    const auto unt = ties.untestable_faults(nl, universe);
    // g s-a-0 plus branch s-a-0 on o1.in0 and o2.in0.
    EXPECT_EQ(unt.size(), 3u);
    for (const auto& f : unt) EXPECT_EQ(f.stuck, Val3::Zero);
}

// --- Equivalences ------------------------------------------------------------

TEST(Equivalence, FindsDeMorganPair) {
    NetlistBuilder b("dm");
    b.input("a").input("c");
    b.gate(GateType::And, "g1", {"a", "c"});
    b.gate(GateType::Not, "na", {"a"});
    b.gate(GateType::Not, "nc", {"c"});
    b.gate(GateType::Nor, "g2", {"na", "nc"});  // == g1
    b.gate(GateType::Nand, "g3", {"a", "c"});   // == !g1
    b.output("g2");
    const Netlist nl = b.build();
    const EquivResult eq = find_equivalences(nl, netlist::Topology(nl));
    const GateId g1 = nl.find("g1"), g2 = nl.find("g2"), g3 = nl.find("g3");
    ASSERT_NE(eq.rep[g1], netlist::kNoGate);
    EXPECT_EQ(eq.rep[g1], eq.rep[g2]);
    EXPECT_EQ(eq.rep[g1], eq.rep[g3]);
    EXPECT_EQ(eq.inverted[g1], eq.inverted[g2]);
    EXPECT_NE(eq.inverted[g1], eq.inverted[g3]);
    EXPECT_GE(eq.num_classes, 1u);
}

TEST(Equivalence, RefutesNearMisses) {
    // g1 = AND(a,c), g2 = AND(a,d): same only when c==d patterns collide —
    // the exhaustive proof must reject the pair even if signatures collide.
    NetlistBuilder b("near");
    b.input("a").input("c").input("d");
    b.gate(GateType::And, "g1", {"a", "c"});
    b.gate(GateType::And, "g2", {"a", "d"});
    b.output("g1").output("g2");
    const Netlist nl = b.build();
    const EquivResult eq = find_equivalences(nl, netlist::Topology(nl));
    const GateId g1 = nl.find("g1"), g2 = nl.find("g2");
    EXPECT_TRUE(eq.rep[g1] == netlist::kNoGate || eq.rep[g1] != eq.rep[g2]);
}

// The exhaustive proof takes on a union support of at most kSupportCap
// sources. Each pair below is one function with its fanins reversed, so
// both members are equivalent and share a signature: the pairs over 6 and
// kSupportCap inputs are proven, the pair one input past the cap is dropped.
TEST(Equivalence, SupportCapDropsLargeCandidates) {
    NetlistBuilder b("big");
    std::vector<std::string> ins;
    for (std::size_t i = 0; i <= kSupportCap; ++i) {
        ins.push_back("i" + std::to_string(i));
        b.input(ins.back());
    }
    const auto add_pair = [&b](GateType type, const std::string& name,
                               std::vector<std::string> fanins) {
        b.gate(type, name + "_a", fanins);
        std::reverse(fanins.begin(), fanins.end());
        b.gate(type, name + "_b", fanins);
        b.output(name + "_a").output(name + "_b");
    };
    add_pair(GateType::And, "six", {ins.begin(), ins.begin() + 6});
    add_pair(GateType::Xor, "at_cap", {ins.begin(), ins.end() - 1});
    add_pair(GateType::Xor, "past_cap", ins);
    const Netlist nl = b.build();
    const EquivResult eq = find_equivalences(nl, netlist::Topology(nl));
    const auto rep = [&](const std::string& name) { return eq.rep[nl.find(name)]; };
    EXPECT_NE(rep("six_a"), netlist::kNoGate);
    EXPECT_EQ(rep("six_a"), rep("six_b"));
    EXPECT_NE(rep("at_cap_a"), netlist::kNoGate);
    EXPECT_EQ(rep("at_cap_a"), rep("at_cap_b"));
    EXPECT_EQ(rep("past_cap_a"), netlist::kNoGate);
    EXPECT_EQ(rep("past_cap_b"), netlist::kNoGate);
    EXPECT_EQ(eq.dropped, 1u);
}

// --- Learning: hand-built scenarios -----------------------------------------

// F1 = DFF(a), F2 = DFF(OR(a, c)): F1=1 => F2=1 one frame later (invalid
// state F1=1, F2=0). Single-node learning on stem `a` must find it.
TEST(Learning, SingleNodeFindsInvalidStateRelation) {
    NetlistBuilder b("inv");
    b.input("a").input("c");
    b.gate(GateType::Or, "d2", {"a", "c"});
    b.dff("F1", "a");
    b.dff("F2", "d2");
    b.gate(GateType::And, "use", {"F1", "F2"});
    b.output("use");
    const Netlist nl = b.build();
    const LearnResult r = testing::learn(nl);
    const Literal f1_1{nl.find("F1"), Val3::One};
    const Literal f2_1{nl.find("F2"), Val3::One};
    EXPECT_TRUE(r.db.implies(f1_1, f2_1));
    EXPECT_GE(r.db.frame_of(f1_1, f2_1), 1u);
    EXPECT_GE(r.stats.ff_ff_relations, 1u);
    // The converse is not true (c alone can set F2).
    EXPECT_FALSE(r.db.implies(f2_1, f1_1));
}

// g = AND(a, NOT a) is combinationally tied to 0; learned from stem `a`
// (both values imply g=0 at frame 0).
TEST(Learning, CombinationalTieFromStem) {
    NetlistBuilder b("tie0");
    b.input("a");
    b.gate(GateType::Not, "na", {"a"});
    b.gate(GateType::And, "g", {"a", "na"});
    b.dff("F", "g");
    b.output("F");
    const Netlist nl = b.build();
    const LearnResult r = testing::learn(nl);
    EXPECT_EQ(r.ties.value(nl.find("g")), Val3::Zero);
    EXPECT_EQ(r.ties.cycle(nl.find("g")), 0u);
    // The downstream FF is sequentially tied (one frame later).
    EXPECT_EQ(r.ties.value(nl.find("F")), Val3::Zero);
    EXPECT_EQ(r.ties.cycle(nl.find("F")), 1u);
    EXPECT_GE(r.stats.ties_combinational, 1u);
    EXPECT_GE(r.stats.ties_sequential, 1u);
}

// A tie whose closure reaches further than its own stem's lanes: P =
// AND(x, NOT x) is always 0 and Z = BUF(P) is already known tied to 0, so
// injecting P=1 conflicts and ties P by the conflict verdict alone — its
// lanes are never extracted. P=0 then implies U = NOT(P) = 1 at once and,
// through F = DFF(U), F = 1 and G = OR(F, q) = 1 from frame 1: values the
// background holds but the tie set lacks. The next stem, q, must see them
// in both lanes and tie them (U at 0, F and G at 1), recording them like
// any other value: 12 records, as with the per-frame seeding simulator.
TEST(Learning, NextStemTiesWhatATieClosureImplies) {
    NetlistBuilder b("closure");
    b.input("x").input("b").input("q");
    b.gate(GateType::Not, "xn", {"x"});
    b.gate(GateType::And, "P", {"x", "xn"});
    b.gate(GateType::Buf, "Z", {"P"});
    b.gate(GateType::Not, "U", {"P"});
    b.dff("F", "U");
    b.gate(GateType::Or, "G", {"F", "q"});
    b.gate(GateType::And, "H", {"q", "b"});
    b.output("G").output("H").output("Z");
    const Netlist nl = b.build();
    const netlist::Topology topo(nl);
    const std::vector<GateId> stems{nl.find("P"), nl.find("q")};
    ASSERT_EQ(nl.fanouts(stems[0]).size(), 2u);
    ASSERT_EQ(nl.fanouts(stems[1]).size(), 2u);

    TieSet ties(nl.size());
    ties.set(nl.find("Z"), Val3::Zero, 0);
    sim::TieClosure closure(topo, sim::SeqGating::all_open(nl), nullptr, 50, &ties.dense(),
                            &ties.dense_cycles());
    sim::BatchFrameSimulator bsim(closure);
    ImplicationDB db(nl.size());
    StemRecords records(64);
    const PassOutcome out = single_node_learning(nl, bsim, closure, stems, 50, ties, db, records);
    EXPECT_EQ(out.processed, 2u);
    EXPECT_EQ(out.outright_ties, 1u);
    EXPECT_EQ(ties.value(nl.find("P")), Val3::Zero);
    EXPECT_EQ(ties.cycle(nl.find("P")), 0u);
    EXPECT_EQ(ties.value(nl.find("U")), Val3::One);
    EXPECT_EQ(ties.cycle(nl.find("U")), 0u);
    EXPECT_EQ(ties.value(nl.find("F")), Val3::One);
    EXPECT_EQ(ties.cycle(nl.find("F")), 1u);
    EXPECT_EQ(ties.value(nl.find("G")), Val3::One);
    EXPECT_EQ(ties.cycle(nl.find("G")), 1u);
    EXPECT_EQ(out.ties_found, 4u);
    EXPECT_EQ(records.total_records(), 12u);
    // Once tied, the gates leave the background's free values.
    EXPECT_TRUE(closure.free_values().empty());
}

// Paper Figure-2 reconstruction: the relation G9=0 => F2=0 requires both
// I2=1 and I3=1 simultaneously and therefore cannot be learned by any
// single-stem injection (nor by injecting on G9 and implying, per the
// paper); multiple-node learning extracts it from the records
// (I2=0 => G9=1 @1) and (I3=0 => G9=1 @1).
TEST(Learning, MultipleNodeFindsExtraRelation) {
    NetlistBuilder b("fig2");
    b.input("I1").input("I2").input("I3");
    b.gate(GateType::Not, "nI2", {"I2"});
    b.gate(GateType::Not, "nI3", {"I3"});
    b.gate(GateType::Nand, "f2d", {"I2", "I3"});
    b.dff("F1", "nI2");
    b.dff("F2", "f2d");
    b.dff("F3", "nI3");
    b.gate(GateType::And, "G6", {"F1", "F2"});
    b.gate(GateType::And, "G7", {"F2", "F3"});
    b.gate(GateType::Or, "G9", {"G6", "G7"});
    b.gate(GateType::And, "obs", {"G9", "I1"});
    b.output("obs");
    const Netlist nl = b.build();

    const Literal g9_0{nl.find("G9"), Val3::Zero};
    const Literal f2_0{nl.find("F2"), Val3::Zero};

    LearnConfig no_multi;
    no_multi.multiple_node = false;
    const LearnResult base = testing::learn(nl, no_multi);
    EXPECT_FALSE(base.db.implies(g9_0, f2_0));

    const LearnResult full = testing::learn(nl);
    EXPECT_TRUE(full.db.implies(g9_0, f2_0));
    EXPECT_GE(full.stats.multi_relations, 1u);
    // F1 and F3 fall out of the same multiple-node run.
    EXPECT_TRUE(full.db.implies(g9_0, {nl.find("F1"), Val3::Zero}));
    EXPECT_TRUE(full.db.implies(g9_0, {nl.find("F3"), Val3::Zero}));
}

// Multiple-node conflict proves a sequential tie (paper's G15 mechanism):
// n = AND(F1, NOT F2, F3) with F1 = DFF(a), F2 = DFF(AND(a, nc)),
// F3 = DFF(nc), nc = NOT(c). n=1 needs a=1 and c=0 in the previous frame,
// which forces F2=1, contradicting NOT F2 — no single stem sees it.
TEST(Learning, MultipleNodeConflictProvesSequentialTie) {
    NetlistBuilder b("g15ish");
    b.input("a").input("c");
    b.gate(GateType::Not, "nc", {"c"});
    b.gate(GateType::And, "f2d", {"a", "nc"});
    b.dff("F1", "a");
    b.dff("F2", "f2d");
    b.dff("F3", "nc");
    b.gate(GateType::Not, "nF2", {"F2"});
    b.gate(GateType::And, "n", {"F1", "nF2", "F3"});
    b.output("n");
    const Netlist nl = b.build();

    LearnConfig no_multi;
    no_multi.multiple_node = false;
    const LearnResult base = testing::learn(nl, no_multi);
    EXPECT_FALSE(base.ties.is_tied(nl.find("n")));

    const LearnResult full = testing::learn(nl);
    EXPECT_EQ(full.ties.value(nl.find("n")), Val3::Zero);
    EXPECT_GE(full.ties.cycle(nl.find("n")), 1u);
    EXPECT_GE(full.stats.multi_ties, 1u);
}

// Gate equivalence defeats 3-valued pessimism and enables relations that
// are otherwise unlearnable (paper's G2/G4 mechanism, Table 2 column 3).
TEST(Learning, EquivalenceEnablesExtraRelations) {
    // a' = XOR(h, XOR(h, a)) == a, but 3-valued simulation cannot see it.
    NetlistBuilder b("eqrel");
    b.input("a").input("h");
    b.gate(GateType::Xor, "x1", {"h", "a"});
    b.gate(GateType::Xor, "aprime", {"h", "x1"});
    b.dff("F1", "a");
    b.dff("F2", "aprime");
    b.gate(GateType::And, "obs", {"F1", "F2"});
    b.output("obs");
    const Netlist nl = b.build();

    const Literal f1_1{nl.find("F1"), Val3::One};
    const Literal f2_1{nl.find("F2"), Val3::One};

    LearnConfig no_eq;
    no_eq.use_equivalences = false;
    const LearnResult base = testing::learn(nl, no_eq);
    EXPECT_FALSE(base.db.implies(f1_1, f2_1));

    const LearnResult full = testing::learn(nl);
    EXPECT_TRUE(full.db.implies(f1_1, f2_1));
    EXPECT_TRUE(full.db.implies(f2_1, f1_1));
}

// Clock classes: no relation may connect sequential elements of different
// clock domains (paper Section 3.3.2).
TEST(Learning, NoCrossDomainRelations) {
    NetlistBuilder b("dom");
    b.input("a");
    netlist::SeqAttrs dom1{};
    dom1.clock_id = 1;
    b.dff("F0", "a");
    b.dff("F1", "a", dom1);
    b.gate(GateType::And, "obs", {"F0", "F1"});
    b.output("obs");
    const Netlist nl = b.build();
    const LearnResult r = testing::learn(nl);
    for (const Relation& rel : r.db.relations()) {
        const bool lhs_seq = netlist::is_sequential(nl.type(rel.lhs.gate));
        const bool rhs_seq = netlist::is_sequential(nl.type(rel.rhs.gate));
        if (lhs_seq && rhs_seq) {
            EXPECT_EQ(nl.seq_attrs(rel.lhs.gate).clock_id, nl.seq_attrs(rel.rhs.gate).clock_id)
                << to_string(nl, rel);
        }
    }
    // Sanity: with a single domain the same structure yields F0<->F1
    // relations (they always capture the same value).
    NetlistBuilder b2("dom1");
    b2.input("a");
    b2.dff("F0", "a");
    b2.dff("F1", "a");
    b2.gate(GateType::And, "obs", {"F0", "F1"});
    b2.output("obs");
    const Netlist nl2 = b2.build();
    const LearnResult r2 = testing::learn(nl2);
    EXPECT_TRUE(r2.db.implies({nl2.find("F0"), Val3::One}, {nl2.find("F1"), Val3::One}));
}

// Set/reset handling: an unconstrained reset line means only 0 may cross
// the element; relations claiming its 1-value must not exist.
TEST(Learning, UnconstrainedResetRestrictsRelations) {
    NetlistBuilder b("srr");
    b.input("a");
    netlist::SeqAttrs rst{};
    rst.set_reset = netlist::SetReset::ResetOnly;
    rst.sr_unconstrained = true;
    b.dff("F0", "a");
    b.dff("F1", "a", rst);
    b.gate(GateType::And, "obs", {"F0", "F1"});
    b.output("obs");
    const Netlist nl = b.build();
    const LearnResult r = testing::learn(nl);
    // F0=1 => F1=1 must NOT be learned (reset can knock F1 to 0), but
    // F0=0 => F1=0 is fine (0 crosses the element).
    EXPECT_FALSE(r.db.implies({nl.find("F0"), Val3::One}, {nl.find("F1"), Val3::One}));
    EXPECT_TRUE(r.db.implies({nl.find("F0"), Val3::Zero}, {nl.find("F1"), Val3::Zero}));
}

// --- Invalid states -----------------------------------------------------------

TEST(InvalidStates, CheckerAndCounting) {
    NetlistBuilder b("inv2");
    b.input("a").input("c");
    b.gate(GateType::Or, "d2", {"a", "c"});
    b.dff("F1", "a");
    b.dff("F2", "d2");
    b.gate(GateType::And, "obs", {"F1", "F2"});
    b.output("obs");
    const Netlist nl = b.build();
    const LearnResult r = testing::learn(nl);
    const InvalidStateChecker chk(nl, r.db);
    EXPECT_GE(chk.size(), 1u);
    // F1=1 & F2=0 is the invalid combination.
    const std::vector<Val3> bad{Val3::One, Val3::Zero};
    const std::vector<Val3> good{Val3::One, Val3::One};
    const std::vector<Val3> partial{Val3::One, Val3::X};
    EXPECT_TRUE(chk.violates(bad));
    EXPECT_FALSE(chk.violates(good));
    EXPECT_FALSE(chk.violates(partial));
    EXPECT_EQ(chk.count_invalid_states(), 1u);
    // With zero known history the sequential relation may not fire.
    EXPECT_FALSE(chk.violates(bad, 0));
}

TEST(InvalidStates, DensityOfEncoding) {
    // F1 = DFF(i), F2 = DFF(i): states 01 and 10 are invalid -> density 0.5.
    NetlistBuilder b("dup");
    b.input("i");
    b.dff("F1", "i");
    b.dff("F2", "i");
    b.gate(GateType::And, "obs", {"F1", "F2"});
    b.output("obs");
    EXPECT_DOUBLE_EQ(density_of_encoding(b.build()), 0.5);

    // Independent FFs: full density.
    NetlistBuilder b2("ind");
    b2.input("i").input("j");
    b2.dff("F1", "i");
    b2.dff("F2", "j");
    b2.gate(GateType::And, "obs", {"F1", "F2"});
    b2.output("obs");
    EXPECT_DOUBLE_EQ(density_of_encoding(b2.build()), 1.0);
}

// --- Soundness oracles over random circuits -----------------------------------

class LearningSoundness : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(LearningSoundness, RelationsHoldInAllDeepEnoughStates) {
    const std::uint64_t seed = GetParam();
    const Netlist nl = testing::random_circuit(seed, 3, 5, 14);
    LearnConfig cfg;
    cfg.max_frames = 6;
    const LearnResult r = testing::learn(nl, cfg);

    const sim::CombEngine engine(nl);
    const auto inputs = nl.inputs();
    const std::uint64_t n_states = 1ULL << nl.seq_elements().size();
    const std::uint64_t n_inputs = 1ULL << inputs.size();

    // Group relations by frame tag so each image set is computed once.
    std::vector<Relation> rels = r.db.relations();
    for (std::uint32_t t = 0; t <= cfg.max_frames; ++t) {
        bool any = false;
        for (const Relation& rel : rels) any = any || rel.frame == t;
        if (!any) continue;
        const std::vector<bool> valid = testing::image_set(nl, t);
        for (std::uint64_t s = 0; s < n_states; ++s) {
            if (!valid[s]) continue;
            for (std::uint64_t u = 0; u < n_inputs; ++u) {
                const auto vals = testing::eval_frame(nl, engine, s, u);
                for (const Relation& rel : rels) {
                    if (rel.frame != t) continue;
                    if (vals[rel.lhs.gate] == rel.lhs.value) {
                        EXPECT_EQ(vals[rel.rhs.gate], rel.rhs.value)
                            << "seed " << seed << ": " << to_string(nl, rel) << " at state "
                            << s << " input " << u;
                    }
                }
            }
        }
    }
}

TEST_P(LearningSoundness, TiesHoldInAllDeepEnoughStates) {
    const std::uint64_t seed = GetParam();
    const Netlist nl = testing::random_circuit(seed, 3, 5, 14);
    LearnConfig cfg;
    cfg.max_frames = 6;
    const LearnResult r = testing::learn(nl, cfg);

    const sim::CombEngine engine(nl);
    const auto inputs = nl.inputs();
    const std::uint64_t n_states = 1ULL << nl.seq_elements().size();
    const std::uint64_t n_inputs = 1ULL << inputs.size();

    for (const GateId g : r.ties.tied_gates()) {
        const Val3 v = r.ties.value(g);
        const std::uint32_t c = r.ties.cycle(g);
        ASSERT_LE(c, cfg.max_frames) << "seed " << seed;
        const std::vector<bool> valid = testing::image_set(nl, c);
        for (std::uint64_t s = 0; s < n_states; ++s) {
            if (!valid[s]) continue;
            for (std::uint64_t u = 0; u < n_inputs; ++u) {
                const auto vals = testing::eval_frame(nl, engine, s, u);
                EXPECT_EQ(vals[g], v) << "seed " << seed << ": tie " << nl.name_of(g)
                                      << "=" << logic::to_char(v) << " cycle " << c
                                      << " state " << s << " input " << u;
            }
        }
    }
}

TEST_P(LearningSoundness, EquivalencesAreTrueEquivalences) {
    const std::uint64_t seed = GetParam();
    const Netlist nl = testing::random_circuit(seed, 3, 5, 14);
    const EquivResult eq = find_equivalences(nl, netlist::Topology(nl));
    const sim::CombEngine engine(nl);
    const auto inputs = nl.inputs();
    const std::uint64_t n_states = 1ULL << nl.seq_elements().size();
    const std::uint64_t n_inputs = 1ULL << inputs.size();
    for (std::uint64_t s = 0; s < n_states; ++s) {
        for (std::uint64_t u = 0; u < n_inputs; ++u) {
            const auto vals = testing::eval_frame(nl, engine, s, u);
            for (GateId g = 0; g < nl.size(); ++g) {
                if (eq.rep[g] == netlist::kNoGate || eq.rep[g] == g) continue;
                const Val3 expect =
                    eq.inverted[g] ? logic::v3_not(vals[eq.rep[g]]) : vals[eq.rep[g]];
                EXPECT_EQ(vals[g], expect) << "seed " << seed << " gate " << nl.name_of(g);
            }
        }
    }
}

INSTANTIATE_TEST_SUITE_P(RandomCircuits, LearningSoundness,
                         ::testing::Values(11, 22, 33, 44, 55, 66, 77, 88));

// --- Persistence ---------------------------------------------------------

TEST(DbIO, SaveLoadRoundTrip) {
    const Netlist nl = testing::random_circuit(55, 3, 5, 14);
    const LearnResult r = testing::learn(nl);
    std::ostringstream out;
    save_learned(out, nl, r.db, r.ties);
    std::istringstream in(out.str());
    const LoadedLearned back = load_learned(in, nl);
    EXPECT_EQ(back.skipped_lines, 0u);
    EXPECT_EQ(back.db.size(), r.db.size());
    EXPECT_EQ(back.ties.count(), r.ties.count());
    for (const Relation& rel : r.db.relations()) {
        EXPECT_TRUE(back.db.implies(rel.lhs, rel.rhs)) << to_string(nl, rel);
        EXPECT_EQ(back.db.frame_of(rel.lhs, rel.rhs), rel.frame);
    }
    for (const GateId g : r.ties.tied_gates()) {
        EXPECT_EQ(back.ties.value(g), r.ties.value(g));
        EXPECT_EQ(back.ties.cycle(g), r.ties.cycle(g));
    }
}

TEST(DbIO, UnknownGatesAreSkippedNotFatal) {
    const Netlist nl = testing::random_circuit(56, 2, 2, 6);
    std::istringstream in("# seqlearn v1 x\nrel nosuch 1 f0 0 1\ntie ghost 0 0\n");
    const LoadedLearned back = load_learned(in, nl);
    EXPECT_EQ(back.skipped_lines, 2u);
    EXPECT_EQ(back.db.size(), 0u);
}

TEST(DbIO, MalformedInputThrows) {
    const Netlist nl = testing::random_circuit(57, 2, 2, 6);
    std::istringstream bad1("rel f0 1\n");
    EXPECT_THROW(load_learned(bad1, nl), std::runtime_error);
    std::istringstream bad2("frob x y\n");
    EXPECT_THROW(load_learned(bad2, nl), std::runtime_error);
    std::istringstream bad3("tie f0 2 0\n");
    EXPECT_THROW(load_learned(bad3, nl), std::runtime_error);
}

// Learning must be deterministic.
TEST(Learning, Deterministic) {
    const Netlist nl = testing::random_circuit(123, 3, 4, 12);
    const LearnResult a = testing::learn(nl);
    const LearnResult bb = testing::learn(nl);
    EXPECT_EQ(a.db.size(), bb.db.size());
    EXPECT_EQ(a.ties.count(), bb.ties.count());
    EXPECT_EQ(a.stats.ff_ff_relations, bb.stats.ff_ff_relations);
    EXPECT_EQ(a.stats.gate_ff_relations, bb.stats.gate_ff_relations);
}

// Frame-depth ablation: deeper simulation never loses knowledge. Raw counts
// are not monotone (a gate proven tied stops participating in relations),
// so the check is subsumption: everything shallow learning knew is either
// still in the deep database or absorbed by a deep tie.
TEST(Learning, DeeperFramesSubsumeShallowKnowledge) {
    const Netlist nl = testing::random_circuit(77, 3, 5, 16);
    LearnConfig shallow;
    shallow.max_frames = 1;
    LearnConfig deep;
    deep.max_frames = 10;
    const LearnResult a = testing::learn(nl, shallow);
    const LearnResult bb = testing::learn(nl, deep);
    for (const Relation& rel : a.db.relations()) {
        EXPECT_TRUE(bb.db.implies(rel.lhs, rel.rhs) || bb.ties.is_tied(rel.lhs.gate) ||
                    bb.ties.is_tied(rel.rhs.gate))
            << to_string(nl, rel);
    }
    for (const GateId g : a.ties.tied_gates()) {
        EXPECT_EQ(bb.ties.value(g), a.ties.value(g)) << nl.name_of(g);
        EXPECT_LE(bb.ties.cycle(g), a.ties.cycle(g)) << nl.name_of(g);
    }
    // Depth 1 can only see frame-0 (combinational) relations.
    EXPECT_EQ(a.stats.ff_ff_relations + a.stats.gate_ff_relations, 0u);
}

}  // namespace
}  // namespace seqlearn::core
