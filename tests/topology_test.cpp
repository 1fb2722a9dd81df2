// Tests for the CSR topology snapshot: adjacency equivalence against the
// Netlist's per-gate lists, the comb/seq fanout partition, cached codes, the
// strongly-connected-component DAG against the Netlist's own fanout-cone
// walker, and the zero-allocation run_into() contract of the frame
// simulator.

#include "netlist/levelize.hpp"
#include "netlist/structure.hpp"
#include "netlist/topology.hpp"
#include "sim/frame_sim.hpp"
#include "test_helpers.hpp"
#include "workload/paper_circuits.hpp"
#include "workload/suite.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

namespace seqlearn::netlist {
namespace {

using sim::FrameSimOptions;
using sim::FrameSimResult;
using sim::FrameSimulator;
using sim::Injection;
using sim::SeqGating;

// The CSR view must agree with the Netlist edge-for-edge: fanins in
// identical order, and fanouts as a *stable partition* (combinational sinks
// first, sequential sinks last, each in Netlist order) — the frame
// simulator's discovery order depends on it.
void expect_adjacency_equivalent(const Netlist& nl) {
    const Topology topo(nl);
    const Levelization lv = levelize(nl);
    ASSERT_EQ(topo.size(), nl.size());
    for (GateId g = 0; g < nl.size(); ++g) {
        const auto nf = nl.fanins(g);
        const auto tf = topo.fanins(g);
        ASSERT_TRUE(std::equal(nf.begin(), nf.end(), tf.begin(), tf.end()))
            << "fanins differ at gate " << nl.name_of(g);

        std::vector<GateId> comb, seq;
        for (const GateId fo : nl.fanouts(g)) {
            (is_sequential(nl.type(fo)) ? seq : comb).push_back(fo);
        }
        const auto tc = topo.comb_fanouts(g);
        const auto ts = topo.seq_fanouts(g);
        ASSERT_TRUE(std::equal(comb.begin(), comb.end(), tc.begin(), tc.end()))
            << "comb fanouts differ at gate " << nl.name_of(g);
        ASSERT_TRUE(std::equal(seq.begin(), seq.end(), ts.begin(), ts.end()))
            << "seq fanouts differ at gate " << nl.name_of(g);
        ASSERT_EQ(topo.fanout_count(g), nl.fanouts(g).size());
        ASSERT_EQ(topo.fanouts(g).size(), comb.size() + seq.size());

        EXPECT_EQ(topo.type(g), nl.type(g));
        EXPECT_EQ(topo.is_seq(g), is_sequential(nl.type(g)));
        EXPECT_EQ(topo.is_input(g), nl.type(g) == GateType::Input);
        const bool is_const =
            nl.type(g) == GateType::Const0 || nl.type(g) == GateType::Const1;
        EXPECT_EQ(topo.is_const(g), is_const);
        if (topo.is_comb(g) || is_const) EXPECT_EQ(topo.op(g), to_op(nl.type(g)));
        EXPECT_EQ(topo.level(g), lv.level[g]);

        // Flat fanin-edge numbering: pin i of g is edge fanin_offset(g) + i.
        EXPECT_EQ(topo.fanins(g).data(), topo.fanins(0).data() + topo.fanin_offset(g));
    }
    EXPECT_EQ(topo.fanin_offset(0), 0u);

    // The interface lists mirror the Netlist's exactly, in the same order.
    const auto expect_list_equal = [](std::span<const GateId> a,
                                      std::span<const GateId> b) {
        ASSERT_EQ(a.size(), b.size());
        EXPECT_TRUE(std::equal(a.begin(), a.end(), b.begin(), b.end()));
    };
    expect_list_equal(topo.inputs(), nl.inputs());
    expect_list_equal(topo.outputs(), nl.outputs());
    expect_list_equal(topo.seq_elements(), nl.seq_elements());
    std::size_t edges = 0;
    for (GateId g = 0; g < nl.size(); ++g) edges += nl.fanins(g).size();
    EXPECT_EQ(topo.num_fanin_edges(), edges);

    // The CSR-walking sequential_depth agrees with the Netlist walker.
    for (const std::size_t cap : {4u, 16u, 64u})
        EXPECT_EQ(sequential_depth(topo, cap), sequential_depth(nl, cap));
    EXPECT_EQ(topo.max_level(), lv.max_level);
    const auto sched = topo.schedule();
    ASSERT_TRUE(std::equal(lv.topo_order.begin(), lv.topo_order.end(), sched.begin(),
                           sched.end()));
    for (const GateId c : topo.const_gates()) EXPECT_TRUE(topo.is_const(c));
}

TEST(Topology, MatchesNetlistOnPaperCircuits) {
    expect_adjacency_equivalent(workload::fig1_analog());
    expect_adjacency_equivalent(workload::fig2_analog());
}

TEST(Topology, MatchesNetlistOnRandomCircuits) {
    for (const std::uint64_t seed : {1ULL, 7ULL, 21ULL, 42ULL, 99ULL, 1234ULL}) {
        expect_adjacency_equivalent(testing::random_circuit(seed, 6, 5, 40));
    }
    // Larger shape: more fanout sharing, deeper logic.
    expect_adjacency_equivalent(testing::random_circuit(5, 10, 12, 150));
}

// The component numbering is a topological order of the condensation: no
// edge runs backwards, component members partition the gates, and the DAG's
// successor lists hold exactly the distinct cross-component edge targets.
void expect_components_well_formed(const Netlist& nl, const Topology& topo) {
    std::vector<std::size_t> seen(topo.size(), 0);
    for (std::uint32_t c = 0; c < topo.num_components(); ++c) {
        ASSERT_FALSE(topo.component_gates(c).empty()) << "component " << c;
        for (const GateId g : topo.component_gates(c)) {
            ASSERT_EQ(topo.component(g), c);
            ++seen[g];
        }
        std::vector<std::uint32_t> expect;
        for (const GateId g : topo.component_gates(c))
            for (const GateId h : nl.fanouts(g))
                if (topo.component(h) != c) expect.push_back(topo.component(h));
        std::sort(expect.begin(), expect.end());
        expect.erase(std::unique(expect.begin(), expect.end()), expect.end());
        const auto succs = topo.component_succs(c);
        std::vector<std::uint32_t> got(succs.begin(), succs.end());
        std::sort(got.begin(), got.end());
        EXPECT_EQ(got, expect) << "component " << c;
    }
    for (GateId g = 0; g < topo.size(); ++g) {
        EXPECT_EQ(seen[g], 1u) << nl.name_of(g);
        for (const GateId h : nl.fanouts(g))
            EXPECT_LE(topo.component(g), topo.component(h))
                << nl.name_of(g) << " -> " << nl.name_of(h);
    }
}

// Every gate's cone from the component DAG equals {r} ∪ fanout_cone(r,
// through_seq): 64 roots per propagate_lanes() sweep, one lane each, and
// the single-root forward_cone() as well.
void expect_cones_match_netlist_walker(const Netlist& nl) {
    const Topology topo(nl);
    expect_components_well_formed(nl, topo);
    std::vector<std::vector<GateId>> reference(nl.size());
    for (GateId r = 0; r < nl.size(); ++r) {
        reference[r] = fanout_cone(nl, r, /*through_seq=*/true);
        reference[r].push_back(r);
        std::sort(reference[r].begin(), reference[r].end());
        reference[r].erase(std::unique(reference[r].begin(), reference[r].end()),
                           reference[r].end());
        std::vector<GateId> cone = topo.forward_cone(r);
        std::sort(cone.begin(), cone.end());
        ASSERT_EQ(cone, reference[r]) << "root " << nl.name_of(r);
    }
    std::vector<std::uint64_t> lanes(topo.num_components());
    for (GateId base = 0; base < nl.size(); base += 64) {
        const GateId end = std::min<GateId>(base + 64, static_cast<GateId>(nl.size()));
        std::fill(lanes.begin(), lanes.end(), 0);
        std::uint32_t first = topo.num_components();
        for (GateId r = base; r < end; ++r) {
            lanes[topo.component(r)] |= 1ULL << (r - base);
            first = std::min(first, topo.component(r));
        }
        topo.propagate_lanes(lanes, first);
        for (GateId r = base; r < end; ++r) {
            std::vector<GateId> reached;
            for (GateId g = 0; g < nl.size(); ++g)
                if ((lanes[topo.component(g)] >> (r - base)) & 1) reached.push_back(g);
            ASSERT_EQ(reached, reference[r]) << "root " << nl.name_of(r);
        }
    }
}

TEST(TopologyComponents, ConesMatchNetlistWalkerOnSuiteCircuits) {
    for (const char* name : {"s27", "gen953"}) {
        SCOPED_TRACE(name);
        expect_cones_match_netlist_walker(workload::suite_circuit(name));
    }
}

TEST(TopologyComponents, ConesMatchNetlistWalkerOnFeedbackCircuits) {
    for (const std::uint64_t seed : {3ULL, 11ULL, 29ULL, 57ULL}) {
        SCOPED_TRACE(seed);
        const Netlist nl = testing::random_circuit(seed, 5, 8, 70);
        // Feedback through the flip-flops: some component has several gates.
        const Topology topo(nl);
        EXPECT_LT(topo.num_components(), topo.size());
        expect_cones_match_netlist_walker(nl);
    }
}

TEST(FrameSimulator, RunIntoMatchesRunAndReusesBuffers) {
    const Netlist nl = testing::random_circuit(17, 6, 6, 60);
    FrameSimulator fsim(nl, SeqGating::all_open(nl));
    FrameSimOptions opt;
    FrameSimResult reused;
    const auto stems = nl.stems();
    ASSERT_FALSE(stems.empty());

    // Same results through both entry points, for both injection values.
    for (const GateId stem : stems) {
        for (const logic::Val3 v : {logic::Val3::Zero, logic::Val3::One}) {
            const Injection inj{0, stem, v};
            const FrameSimResult fresh = fsim.run({&inj, 1}, opt);
            fsim.run_into({&inj, 1}, opt, reused);
            ASSERT_EQ(fresh.conflict, reused.conflict);
            ASSERT_EQ(fresh.frames_run, reused.frames_run);
            ASSERT_EQ(fresh.stopped_on_repeat, reused.stopped_on_repeat);
            ASSERT_EQ(fresh.implied.size(), reused.implied.size());
            for (std::size_t i = 0; i < fresh.implied.size(); ++i) {
                ASSERT_EQ(fresh.implied[i].gate, reused.implied[i].gate);
                ASSERT_EQ(fresh.implied[i].frame, reused.implied[i].frame);
                ASSERT_EQ(fresh.implied[i].value, reused.implied[i].value);
            }
        }
    }

    // Steady state: re-running the same scenario must not reallocate the
    // reused result's implied storage.
    const Injection inj{0, stems[0], logic::Val3::One};
    fsim.run_into({&inj, 1}, opt, reused);
    const auto* data = reused.implied.data();
    const auto cap = reused.implied.capacity();
    for (int i = 0; i < 10; ++i) fsim.run_into({&inj, 1}, opt, reused);
    EXPECT_EQ(reused.implied.data(), data);
    EXPECT_EQ(reused.implied.capacity(), cap);
}

TEST(FrameSimulator, SharedTopologyMatchesOwned) {
    const Netlist nl = testing::random_circuit(23, 5, 4, 50);
    const Topology topo(nl);
    FrameSimulator owned(nl, SeqGating::all_open(nl));
    FrameSimulator shared(topo, SeqGating::all_open(nl));
    FrameSimOptions opt;
    FrameSimResult a, b;
    for (const GateId stem : nl.stems()) {
        const Injection inj{0, stem, logic::Val3::One};
        owned.run_into({&inj, 1}, opt, a);
        shared.run_into({&inj, 1}, opt, b);
        ASSERT_EQ(a.implied.size(), b.implied.size());
        for (std::size_t i = 0; i < a.implied.size(); ++i) {
            ASSERT_EQ(a.implied[i].gate, b.implied[i].gate);
            ASSERT_EQ(a.implied[i].value, b.implied[i].value);
        }
    }
}

}  // namespace
}  // namespace seqlearn::netlist
