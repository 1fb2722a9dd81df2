// Guidance subsystem tests: SCOAP testability values hand-checked against
// the Goldstein formulas (combinational chain, XOR parity, and the full s27
// sequential fixpoint), fault-ordering strategies as schedule permutations,
// warmup + compaction output re-verified by an independent fault simulator,
// and the guarantee that `guidance = none` (the default) preserves the
// recorded pre-guidance campaign digests at every thread count.

#include "api/session.hpp"
#include "atpg/atpg_loop.hpp"
#include "fault/collapse.hpp"
#include "fault/fault_sim.hpp"
#include "guide/fault_order.hpp"
#include "guide/random_tpg.hpp"
#include "guide/testability.hpp"
#include "netlist/bench_io.hpp"
#include "netlist/topology.hpp"
#include "test_helpers.hpp"
#include "workload/suite.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <vector>

namespace seqlearn::guide {
namespace {

using logic::Val3;
using netlist::Netlist;
using netlist::Topology;

std::uint32_t cc0_of(const Netlist& nl, const Testability& t, const char* name) {
    return t.cc0(nl.find(name));
}
std::uint32_t cc1_of(const Netlist& nl, const Testability& t, const char* name) {
    return t.cc1(nl.find(name));
}
std::uint32_t co_of(const Netlist& nl, const Testability& t, const char* name) {
    return t.co(nl.find(name));
}

// Hand-computed SCOAP on a three-gate combinational chain. Side inputs are
// charged at their non-controlling value: CC0 through an OR, CC1 through an
// AND.
//
//   D = AND(A,B):  CC1 = 1+1+1 = 3, CC0 = 1+min(1,1) = 2
//   E = OR(D,C):   CC0 = 1+2+1 = 4, CC1 = 1+min(3,1) = 2
//   O = NOT(E):    CC0 = CC1(E)+1 = 3, CC1 = CC0(E)+1 = 5
//   CO(O) = 0 (primary output); CO(E) = 1 (through the NOT)
//   CO(D) = CO(E)+1+CC0(C) = 1+1+1 = 3   (hold C at 0 through the OR)
//   CO(C) = CO(E)+1+CC0(D) = 1+1+2 = 4
//   CO(A) = CO(D)+1+CC1(B) = 3+1+1 = 5   (hold B at 1 through the AND)
TEST(Testability, HandCheckedCombChain) {
    const Netlist nl = netlist::read_bench_string(R"(
INPUT(A)
INPUT(B)
INPUT(C)
OUTPUT(O)
D = AND(A, B)
E = OR(D, C)
O = NOT(E)
)",
                                                  "chain");
    const Topology topo(nl);
    const Testability t(topo);

    for (const char* pi : {"A", "B", "C"}) {
        EXPECT_EQ(cc0_of(nl, t, pi), 1u) << pi;
        EXPECT_EQ(cc1_of(nl, t, pi), 1u) << pi;
    }
    EXPECT_EQ(cc0_of(nl, t, "D"), 2u);
    EXPECT_EQ(cc1_of(nl, t, "D"), 3u);
    EXPECT_EQ(cc0_of(nl, t, "E"), 4u);
    EXPECT_EQ(cc1_of(nl, t, "E"), 2u);
    EXPECT_EQ(cc0_of(nl, t, "O"), 3u);
    EXPECT_EQ(cc1_of(nl, t, "O"), 5u);

    EXPECT_EQ(co_of(nl, t, "O"), 0u);
    EXPECT_EQ(co_of(nl, t, "E"), 1u);
    EXPECT_EQ(co_of(nl, t, "D"), 3u);
    EXPECT_EQ(co_of(nl, t, "C"), 4u);
    EXPECT_EQ(co_of(nl, t, "A"), 5u);
    EXPECT_EQ(co_of(nl, t, "B"), 5u);
}

// XOR parity: driving XOR(A,B) to 0 needs an even number of 1s on the
// inputs, to 1 an odd number; with unit input costs both minima are 2, so
// CC0 = CC1 = 3. Observing A through the XOR charges the side input at its
// cheaper polarity: CO(A) = CO(X)+1+min(CC0(B),CC1(B)) = 0+1+1 = 2.
TEST(Testability, HandCheckedXorParity) {
    const Netlist nl = netlist::read_bench_string(R"(
INPUT(A)
INPUT(B)
OUTPUT(X)
X = XOR(A, B)
)",
                                                  "xor2");
    const Topology topo(nl);
    const Testability t(topo);
    EXPECT_EQ(cc0_of(nl, t, "X"), 3u);
    EXPECT_EQ(cc1_of(nl, t, "X"), 3u);
    EXPECT_EQ(co_of(nl, t, "A"), 2u);
    EXPECT_EQ(co_of(nl, t, "B"), 2u);
}

// Full sequential fixpoint on the ISCAS-89 s27 netlist, hand-iterated from
// the formulas with the kSeqStep = 10 frame-crossing penalty (flip-flops
// start unconstrained and converge after three sweeps):
//
//   sweep 1 seeds the combinational slice with FFs at infinity, the FF
//   update then gives G5 = G10+10 = (13,20), G7 = G13+10 = (12,14);
//   sweep 2 re-evaluates with those state costs and lands the fixpoint
//   below (sweep 3 confirms it; G6 = G11+10 keeps the expensive CC1
//   because G11's 1-state needs both G5 = 0 and G9 = 0 first).
TEST(Testability, S27SequentialFixpoint) {
    const Netlist nl = workload::suite_circuit("s27");
    const Topology topo(nl);
    const Testability t(topo);

    const struct {
        const char* name;
        std::uint32_t cc0, cc1;
    } expected[] = {
        {"G0", 1, 1},   {"G1", 1, 1},  {"G2", 1, 1},  {"G3", 1, 1},
        {"G14", 2, 2},  {"G12", 2, 14}, {"G13", 2, 4}, {"G8", 3, 45},
        {"G15", 6, 15}, {"G16", 5, 2}, {"G9", 18, 6}, {"G11", 7, 32},
        {"G10", 3, 10}, {"G17", 33, 8}, {"G5", 13, 20}, {"G6", 17, 42},
        {"G7", 12, 14},
    };
    for (const auto& e : expected) {
        EXPECT_EQ(cc0_of(nl, t, e.name), e.cc0) << e.name;
        EXPECT_EQ(cc1_of(nl, t, e.name), e.cc1) << e.name;
    }

    // Observabilities around the output cone: G17 is the primary output and
    // G11 is one inversion away (its other fanouts are strictly worse).
    // G5 and G9 are observed through G11 = NOR(G5, G9) with the sibling
    // held at the NOR's non-controlling 0:
    //   CO(G5) = CO(G11)+1+CC0(G9) = 1+1+18 = 20
    //   CO(G9) = CO(G11)+1+CC0(G5) = 1+1+13 = 15
    // G10 is only observable through the G5 flip-flop, one frame later:
    //   CO(G10) = CO(G5)+10 = 30.
    EXPECT_EQ(co_of(nl, t, "G17"), 0u);
    EXPECT_EQ(co_of(nl, t, "G11"), 1u);
    EXPECT_EQ(co_of(nl, t, "G5"), 20u);
    EXPECT_EQ(co_of(nl, t, "G9"), 15u);
    EXPECT_EQ(co_of(nl, t, "G10"), 30u);

    // Everything in s27 is controllable and observable within bounded cost.
    for (netlist::GateId g = 0; g < nl.size(); ++g) {
        EXPECT_LT(t.cc0(g), Testability::kInf) << nl.name_of(g);
        EXPECT_LT(t.cc1(g), Testability::kInf) << nl.name_of(g);
        EXPECT_LT(t.co(g), Testability::kInf) << nl.name_of(g);
    }
}

// Structural invariants on a small generated circuit: unit costs on the
// inputs, zero observability on the outputs, every combinational gate
// strictly more expensive than its cheapest fanin, and fault hardness
// consistent with the cc/co tables it is defined from.
TEST(Testability, GeneratedCircuitInvariants) {
    const Netlist nl = testing::random_circuit(7, 6, 5, 30);
    const Topology topo(nl);
    const Testability t(topo);

    for (const netlist::GateId pi : nl.inputs()) {
        EXPECT_EQ(t.cc0(pi), 1u);
        EXPECT_EQ(t.cc1(pi), 1u);
    }
    for (const netlist::GateId po : nl.outputs()) EXPECT_EQ(t.co(po), 0u);
    for (netlist::GateId g = 0; g < nl.size(); ++g) {
        if (!topo.is_comb(g) || topo.is_const(g) || nl.fanins(g).empty()) continue;
        std::uint32_t cheapest = Testability::kInf;
        for (const netlist::GateId f : nl.fanins(g))
            cheapest = std::min({cheapest, t.cc0(f), t.cc1(f)});
        if (cheapest >= Testability::kInf) continue;
        EXPECT_GT(t.cc0(g), cheapest) << nl.name_of(g);
        EXPECT_GT(t.cc1(g), cheapest) << nl.name_of(g);
    }
    // Hardness is activation cost plus observation cost, saturating at kInf.
    const auto sat = [](std::uint32_t a, std::uint32_t b) {
        return std::min(Testability::kInf, std::min(a, Testability::kInf) +
                                               std::min(b, Testability::kInf));
    };
    for (const fault::Fault& f : fault::fault_universe(nl)) {
        const Val3 activate = logic::v3_opposite(f.stuck);
        if (f.pin == fault::kOutputPin) {
            EXPECT_EQ(t.hardness(f),
                      sat(t.controllability(f.gate, activate), t.co(f.gate)));
        } else {
            const netlist::GateId driver =
                nl.fanins(f.gate)[static_cast<std::size_t>(f.pin)];
            EXPECT_EQ(t.hardness(f),
                      sat(t.controllability(driver, activate),
                          t.pin_co(f.gate, static_cast<std::size_t>(f.pin))));
        }
    }
}

// Every ordering strategy must be a permutation of the canonical schedule:
// same index set, nothing added, nothing dropped.
TEST(FaultOrder, StrategiesArePermutations) {
    for (const char* circuit : {"s27", "rt510a"}) {
        const Netlist nl = workload::suite_circuit(circuit);
        const Topology topo(nl);
        const Testability tst(topo);
        const fault::FaultList list(fault::collapse(nl).representatives());
        std::vector<std::size_t> canonical(list.size());
        std::iota(canonical.begin(), canonical.end(), 0);

        for (const OrderStrategy s :
             {OrderStrategy::Index, OrderStrategy::Level, OrderStrategy::ScoapHardFirst,
              OrderStrategy::Random}) {
            std::vector<std::size_t> targets = canonical;
            order_targets(targets, s, topo, list, &tst, /*seed=*/42);
            std::vector<std::size_t> sorted = targets;
            std::sort(sorted.begin(), sorted.end());
            EXPECT_EQ(sorted, canonical)
                << circuit << " strategy " << order_name(s) << " is not a permutation";
            if (s == OrderStrategy::Index) EXPECT_EQ(targets, canonical);
        }
    }
}

std::uint64_t outcome_digest(const fault::FaultList& list,
                             const atpg::AtpgOutcome& out) {
    std::uint64_t h = 1469598103934665603ULL;
    const auto mix = [&h](std::uint64_t v) {
        h ^= v;
        h *= 1099511628211ULL;
    };
    for (std::size_t i = 0; i < list.size(); ++i)
        mix(static_cast<std::uint64_t>(list.status(i)));
    for (const sim::InputSequence& seq : out.tests)
        for (const sim::InputFrame& frame : seq)
            for (const Val3 v : frame) mix(static_cast<std::uint64_t>(v));
    return h;
}

// Campaigns under every (ordering, guidance) combination: the fault universe
// is invariant, and each configuration is bit-identical at 1, 2, and 8
// worker threads (ordered speculative commit makes the strategy part of the
// schedule, not of the race).
TEST(FaultOrder, CampaignsBitIdenticalAcrossThreads) {
    const Netlist nl = workload::suite_circuit("rt510a");
    const Topology topo(nl);

    for (const OrderStrategy order :
         {OrderStrategy::Index, OrderStrategy::ScoapHardFirst, OrderStrategy::Random}) {
        for (const Guidance g : {Guidance::None, Guidance::Scoap}) {
            std::uint64_t serial_digest = 0;
            fault::FaultList::Counts serial_counts;
            for (const unsigned threads : {1u, 2u, 8u}) {
                exec::Pool pool(threads);
                atpg::AtpgConfig cfg;
                cfg.executor = &pool;
                cfg.mode = atpg::LearnMode::None;
                cfg.identify_untestable = false;
                cfg.backtrack_limit = 10;
                cfg.windows = {1, 2};
                cfg.order = order;
                cfg.order_seed = 7;
                cfg.guidance = g;
                fault::FaultList list(fault::collapse(nl).representatives());
                const atpg::AtpgOutcome out = atpg::run_atpg(topo, list, cfg);
                ASSERT_TRUE(out.run.ok());
                const std::uint64_t digest = outcome_digest(list, out);
                const fault::FaultList::Counts c = list.counts();
                if (threads == 1) {
                    serial_digest = digest;
                    serial_counts = c;
                } else {
                    EXPECT_EQ(digest, serial_digest)
                        << order_name(order) << "/" << guidance_name(g) << " threads "
                        << threads;
                }
                EXPECT_EQ(c.total, serial_counts.total);
                EXPECT_EQ(c.detected, serial_counts.detected);
            }
        }
    }
}

// Warmup + compaction end to end: the final pattern set, replayed through a
// fresh fault simulator, must re-detect exactly the faults the campaign
// reported detected — compaction may drop and merge patterns but never
// coverage. With a non-X fill mode the emitted patterns are fully specified.
TEST(RandomTpg, WarmupCompactionReverifiedByFaultSim) {
    const Netlist nl = workload::suite_circuit("rt510a");
    const Topology topo(nl);

    atpg::AtpgConfig cfg;
    cfg.mode = atpg::LearnMode::None;
    cfg.identify_untestable = false;
    cfg.backtrack_limit = 10;
    cfg.windows = {1, 2};
    cfg.rand_warmup = 32;
    cfg.compact = true;
    cfg.fill = FillMode::Random;
    fault::FaultList list(fault::collapse(nl).representatives());
    const atpg::AtpgOutcome out = atpg::run_atpg(topo, list, cfg);
    ASSERT_TRUE(out.run.ok());
    EXPECT_GT(out.detected_by_warmup, 0u);
    EXPECT_EQ(out.compaction_after, out.tests.size());
    EXPECT_LE(out.compaction_after, out.compaction_before);

    for (const sim::InputSequence& seq : out.tests)
        for (const sim::InputFrame& frame : seq)
            for (const Val3 v : frame) EXPECT_NE(v, Val3::X);

    // Independent re-verification: fresh simulator, fresh fault list.
    fault::FaultSimulator fsim(topo);
    fault::FaultList replay(fault::collapse(nl).representatives());
    for (const sim::InputSequence& seq : out.tests) fsim.drop_detected(seq, replay);
    EXPECT_EQ(replay.counts().detected, list.counts().detected);
    std::size_t frames = 0;
    for (const sim::InputSequence& seq : out.tests) frames += seq.size();
    EXPECT_EQ(frames, out.pattern_frames);
}

// Compaction without warmup on gen953: the deterministic tests each detect
// many faults, so a merge check re-simulates more faults than one pass
// holds. The campaign must complete, and the compacted set must re-detect
// every fault the campaign reports detected on a fresh simulator.
TEST(RandomTpg, CompactionVerifiesMergesBeyondOnePass) {
    const Netlist nl = workload::suite_circuit("gen953");
    const Topology topo(nl);

    atpg::AtpgConfig cfg;
    cfg.identify_untestable = false;
    cfg.backtrack_limit = 10;
    cfg.windows = {1, 2};
    cfg.compact = true;
    cfg.fill = FillMode::X;
    fault::FaultList list(fault::collapse(nl).representatives());
    const atpg::AtpgOutcome out = atpg::run_atpg(topo, list, cfg);
    ASSERT_TRUE(out.run.ok()) << out.run.diagnostic;
    EXPECT_EQ(out.detected_by_warmup, 0u);
    EXPECT_GT(out.compaction_before, 0u);
    EXPECT_LT(out.compaction_after, out.compaction_before);

    fault::FaultSimulator fsim(topo);
    fault::FaultList replay(fault::collapse(nl).representatives());
    for (const sim::InputSequence& seq : out.tests) fsim.drop_detected(seq, replay);
    for (std::size_t i = 0; i < list.size(); ++i) {
        if (list.status(i) == fault::FaultStatus::Detected)
            EXPECT_EQ(replay.status(i), fault::FaultStatus::Detected) << i;
    }
}

// The default configuration — order=index, guidance=none, no warmup, no
// compaction — must keep reproducing the recorded pre-guidance campaign
// digests, even with the Design's cached Testability explicitly attached
// (it may only be consulted when a SCOAP consumer is switched on).
void expect_recorded_digest(const char* circuit, std::uint32_t backtrack_limit,
                            std::uint64_t digest) {
    const api::DesignPtr design = api::DesignBuilder(workload::suite_circuit(circuit)).build();
    for (const unsigned threads : {1u, 2u, 8u}) {
        api::SessionConfig scfg;
        scfg.threads = threads;
        api::Session session(design, std::move(scfg));
        session.learn();
        atpg::AtpgConfig cfg;
        cfg.mode = atpg::LearnMode::ForbiddenValue;
        cfg.backtrack_limit = backtrack_limit;
        cfg.order = OrderStrategy::Index;
        cfg.guidance = Guidance::None;
        cfg.testability = &design->testability();
        const api::AtpgReport& report = session.atpg(cfg);
        EXPECT_EQ(api::campaign_digest(report), digest) << circuit << " threads " << threads;
    }
}

TEST(AtpgGuidance, NonePreservesRecordedCampaignDigests) {
    expect_recorded_digest("s27", 100, 18111582773122034168ULL);
}

// Its own test so that the ThreadSanitizer job can filter it out (`*Rt510a*`).
TEST(AtpgGuidance, NonePreservesRecordedCampaignDigestsRt510a) {
    expect_recorded_digest("rt510a", 30, 8688592942972918127ULL);
}

}  // namespace
}  // namespace seqlearn::guide
