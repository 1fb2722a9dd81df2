// Tests for the api::Session facade: caching, shared-topology wiring,
// progress observation at stem/fault/sequence granularity, cancellation,
// and equivalence with the hand-wired flow it replaces.

#include "api/session.hpp"
#include "test_helpers.hpp"
#include "util/rng.hpp"
#include "workload/suite.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>
#include <thread>
#include <vector>

namespace seqlearn::api {
namespace {

using logic::Val3;
using netlist::Netlist;

TEST(Session, SharedTopologyBacksEveryEngine) {
    Session session(workload::suite_circuit("s27"));
    const netlist::Topology& topo = session.topology();
    EXPECT_EQ(&session.fault_simulator().topology(), &topo);
    EXPECT_EQ(topo.size(), session.netlist().size());
    // Repeated accessor calls return the same lazily-built instance.
    EXPECT_EQ(&session.fault_simulator(), &session.fault_simulator());
}

TEST(Session, LearnMatchesFreeFunctionExactly) {
    const Netlist nl = testing::random_circuit(55, 6, 5, 40);
    const core::LearnResult direct = testing::learn(nl);
    Session session(nl);
    const core::LearnResult& facade = session.learn();
    EXPECT_EQ(facade.db.size(), direct.db.size());
    EXPECT_EQ(facade.ties.count(), direct.ties.count());
    EXPECT_EQ(facade.stats.ff_ff_relations, direct.stats.ff_ff_relations);
    EXPECT_EQ(facade.stats.equiv_classes, direct.stats.equiv_classes);
}

TEST(Session, LearnIsCachedUntilReconfigured) {
    Session session(workload::suite_circuit("s27"));
    const core::LearnResult& first = session.learn();
    EXPECT_EQ(&first, &session.learn());  // cached: same object
    // Snapshot before reconfiguring: learn(shallow) replaces the cached
    // result, invalidating `first`.
    const std::size_t first_relations = first.db.size();
    core::LearnConfig shallow;
    shallow.max_frames = 2;
    const core::LearnResult& second = session.learn(shallow);
    EXPECT_TRUE(session.has_learned());
    EXPECT_LE(second.db.size(), first_relations);
}

TEST(Design, ManySessionsShareOneCompiledDesign) {
    const DesignPtr design = DesignBuilder(workload::suite_circuit("s27")).build();
    Session a(design);
    Session b(design);
    // No per-session re-levelization: both sessions read the same frozen
    // structure, and the handle is recoverable from either.
    EXPECT_EQ(&a.topology(), &design->topology());
    EXPECT_EQ(&b.topology(), &design->topology());
    EXPECT_EQ(a.design_ptr().get(), design.get());
    EXPECT_EQ(&a.collapsed_faults(), &b.collapsed_faults());
    EXPECT_EQ(a.learn().db.size(), b.learn().db.size());
}

TEST(Design, NullDesignIsRejected) {
    EXPECT_THROW(Session(DesignPtr{}), std::invalid_argument);
}

TEST(Design, FrozenSnapshotFeedsSessionsWithoutRelearning) {
    const Netlist nl = workload::suite_circuit("s27");
    const DesignPtr design = DesignBuilder(Netlist(nl)).build();
    Session producer{design};
    const std::size_t relations = producer.learn().db.size();
    ASSERT_GT(relations, 0u);
    // Freezing hands out the held result itself, not a copy of it.
    const std::shared_ptr<const core::LearnedSnapshot> snap = producer.freeze_learned();
    EXPECT_EQ(&snap->result(), &producer.learn());

    Session consumer{design};
    EXPECT_FALSE(consumer.has_learned());
    consumer.use_learned(snap);
    // Learned data is available without running learning, and learn()
    // returns the adopted snapshot's result (not a session-local copy).
    EXPECT_TRUE(consumer.has_learned());
    EXPECT_EQ(&consumer.learn(), &snap->result());
    EXPECT_EQ(consumer.learn().db.size(), relations);
    // Re-freezing shares the held handle instead of deep-copying.
    EXPECT_EQ(consumer.freeze_learned(), snap);

    // An ATPG campaign through the snapshot matches one through a fresh
    // session-local learn() on the same circuit.
    atpg::AtpgConfig acfg;
    acfg.mode = atpg::LearnMode::ForbiddenValue;
    acfg.backtrack_limit = 100;
    const AtpgReport& via_snapshot = consumer.atpg(acfg);
    Session fresh{Netlist(nl)};
    const AtpgReport& via_learn = fresh.atpg(acfg);
    EXPECT_TRUE(via_snapshot.used_learned);
    EXPECT_EQ(via_snapshot.list.counts().detected, via_learn.list.counts().detected);
    EXPECT_EQ(via_snapshot.outcome.tests.size(), via_learn.outcome.tests.size());
}

TEST(Design, LearnReplacesTheAdoptedSnapshotInOneSessionOnly) {
    const DesignPtr design = DesignBuilder(workload::suite_circuit("s27")).build();
    Session producer(design);
    const std::shared_ptr<const core::LearnedSnapshot> snap = producer.freeze_learned();
    Session session(design);
    session.use_learned(snap);
    core::LearnConfig shallow;
    shallow.max_frames = 2;
    const core::LearnResult& local = session.learn(shallow);
    EXPECT_NE(&local, &snap->result());
    EXPECT_EQ(&session.learn(), &local);  // the new result is held from now on
    EXPECT_EQ(&producer.learn(), &snap->result());  // other holders keep theirs
}

TEST(Design, LoadDbHoldsASnapshotOtherSessionsAdopt) {
    const DesignPtr design = DesignBuilder(workload::suite_circuit("s27")).build();
    Session producer(design);
    std::ostringstream saved;
    producer.save_db(saved);

    Session loader(design);
    std::istringstream in(saved.str());
    EXPECT_EQ(loader.load_db(in), 0u);
    const std::shared_ptr<const core::LearnedSnapshot> snap = loader.freeze_learned();
    // The loaded data is held as is: freezing it learns nothing.
    EXPECT_EQ(snap->result().stats.stems_processed, 0u);
    EXPECT_EQ(snap->result().db.size(), producer.learn().db.size());
    EXPECT_EQ(snap->result().ties.count(), producer.learn().ties.count());
}

TEST(Design, LoadDesignStreamsBenchWithDiagnostics) {
    const std::string text = netlist::write_bench_string(workload::suite_circuit("s27"));
    std::istringstream good(text);
    const DesignLoad ok = load_design(good, "s27");
    ASSERT_TRUE(ok.ok());
    EXPECT_TRUE(ok.diagnostics.ok());
    EXPECT_EQ(ok.design->netlist().size(), workload::suite_circuit("s27").size());

    std::istringstream bad(text + "broken line without parens\n");
    const DesignLoad fail = load_design(bad, "s27");
    EXPECT_FALSE(fail.ok());
    EXPECT_GT(fail.diagnostics.error_count(), 0u);
    EXPECT_EQ(fail.diagnostics.first_error()->line,
              static_cast<std::uint32_t>(std::count(text.begin(), text.end(), '\n') + 1));

    const DesignLoad missing = load_design(std::string("/nonexistent/path.bench"));
    EXPECT_FALSE(missing.ok());
    EXPECT_FALSE(missing.diagnostics.ok());
}

TEST(Session, ProgressObserverSeesEveryStage) {
    std::size_t learn_calls = 0, atpg_calls = 0, fsim_calls = 0;
    std::size_t learn_total = 0, atpg_total = 0;
    SessionConfig cfg;
    cfg.atpg.mode = atpg::LearnMode::ForbiddenValue;
    cfg.atpg.backtrack_limit = 100;
    cfg.progress = [&](const Progress& p) {
        switch (p.stage) {
            case Stage::Learn: ++learn_calls; learn_total = p.total; break;
            case Stage::Atpg: ++atpg_calls; atpg_total = p.total; break;
            case Stage::FaultSim: ++fsim_calls; break;
        }
        return true;
    };
    Session session(workload::suite_circuit("s27"), std::move(cfg));
    session.atpg();  // triggers learn() via the mode
    session.fault_sim();
    EXPECT_GT(learn_calls, 0u);
    EXPECT_EQ(learn_total, session.netlist().stems().size());
    EXPECT_GT(atpg_calls, 0u);
    EXPECT_GT(atpg_total, 0u);
    EXPECT_GT(fsim_calls, 0u);
}

TEST(Session, LearnCancellationKeepsPartialResults) {
    SessionConfig cfg;
    cfg.progress = [](const Progress& p) {
        return !(p.stage == Stage::Learn && p.done >= 2);
    };
    Session session(workload::suite_circuit("rt510a"), std::move(cfg));
    const core::LearnResult& r = session.learn();
    EXPECT_EQ(r.outcome.status, exec::RunStatus::Cancelled);
    // At most the two permitted stems were processed.
    EXPECT_LE(r.stats.stems_processed, 2u);
}

TEST(Session, CancelMidParallelLearnKeepsPartialResults) {
    // Same contract as the serial cancellation test, in a Session sized for
    // eight workers (learning itself runs on the calling thread): the
    // observer's false return raises the atomic cancel flag, and only the
    // stems committed before the cut survive.
    SessionConfig cfg;
    cfg.threads = 8;
    cfg.progress = [](const Progress& p) {
        return !(p.stage == Stage::Learn && p.done >= 5);
    };
    Session session(workload::suite_circuit("rt510a"), std::move(cfg));
    const core::LearnResult& r = session.learn();
    EXPECT_EQ(r.outcome.status, exec::RunStatus::Cancelled);
    EXPECT_LE(r.stats.stems_processed, 5u);
}

TEST(Session, RequestCancelFromAnotherThreadStopsTheStage) {
    // The observer lets a helper thread call request_cancel() and joins it
    // before returning true, so the flag is provably raised by another
    // thread while the stage runs — the next stem boundary must stop.
    SessionConfig cfg;
    cfg.threads = 4;
    Session* session_ptr = nullptr;
    std::size_t calls = 0;
    cfg.progress = [&](const Progress& p) {
        if (p.stage == Stage::Learn && ++calls == 3) {
            std::thread canceller([&] { session_ptr->request_cancel(); });
            canceller.join();
        }
        return true;  // cancellation arrives via the flag, not the return
    };
    Session session(workload::suite_circuit("rt510a"), std::move(cfg));
    session_ptr = &session;
    const core::LearnResult& r = session.learn();
    EXPECT_EQ(r.outcome.status, exec::RunStatus::Cancelled);
    EXPECT_LE(r.stats.stems_processed, 3u);
}

TEST(Session, ExplicitThreadCountsAgreeWithSerial) {
    const Netlist nl = testing::random_circuit(55, 6, 5, 40);
    SessionConfig serial_cfg;
    serial_cfg.threads = 1;
    Session serial(nl, std::move(serial_cfg));
    SessionConfig mt_cfg;
    mt_cfg.threads = 4;
    Session mt(nl, std::move(mt_cfg));
    const core::LearnResult& a = serial.learn();
    const core::LearnResult& b = mt.learn();
    EXPECT_EQ(a.db.size(), b.db.size());
    EXPECT_EQ(a.ties.count(), b.ties.count());
    EXPECT_EQ(a.stats.multi_relations, b.stats.multi_relations);
}

TEST(Session, AtpgCancellationFlagsOutcome) {
    // Commits reach the observer in schedule order on the calling thread
    // at any worker count, and a false return stops the campaign before
    // that commit: four workers solve whole windows ahead, yet exactly the
    // three permitted targets commit.
    for (const unsigned threads : {1u, 4u}) {
        SessionConfig cfg;
        cfg.threads = threads;
        std::vector<std::size_t> done;
        cfg.progress = [&](const Progress& p) {
            if (p.stage != Stage::Atpg) return true;
            done.push_back(p.done);
            return done.size() <= 3;  // allow three faults, then cancel
        };
        Session session(workload::suite_circuit("s27"), std::move(cfg));
        atpg::AtpgConfig acfg;
        acfg.backtrack_limit = 100;
        const AtpgReport& report = session.atpg(acfg);
        EXPECT_EQ(report.outcome.run.status, exec::RunStatus::Cancelled) << threads;
        EXPECT_EQ(done, (std::vector<std::size_t>{0, 1, 2, 3})) << threads;
        EXPECT_EQ(report.outcome.targeted_faults, 3u) << threads;
        // Untouched faults keep their Undetected status.
        EXPECT_GT(report.list.counts().undetected, 0u) << threads;
    }
}

TEST(Session, FaultSimMatchesNoLearningCampaignDespiteLearnedData) {
    // A LearnMode::None campaign validates with ties cleared even when the
    // session holds learned data; fault_sim() must replay that exact model,
    // not silently upgrade to the tie-augmented one.
    Session session(workload::suite_circuit("fig1x"));
    session.learn();
    atpg::AtpgConfig cfg;
    cfg.backtrack_limit = 1000;  // mode stays None
    const AtpgReport& report = session.atpg(cfg);
    EXPECT_FALSE(report.used_learned);
    const FaultSimReport check = session.fault_sim();
    EXPECT_EQ(check.detected, report.list.counts().detected);
}

TEST(Session, FaultSimCancellationIsFlagged) {
    SessionConfig cfg;
    cfg.progress = [](const Progress& p) {
        return !(p.stage == Stage::FaultSim && p.done >= 1);
    };
    Session session(workload::suite_circuit("s27"), std::move(cfg));
    atpg::AtpgConfig acfg;
    acfg.backtrack_limit = 1000;
    session.atpg(acfg);
    const FaultSimReport report = session.fault_sim();
    EXPECT_EQ(report.outcome.status, exec::RunStatus::Cancelled);
    EXPECT_EQ(report.sequences, 1u);
}

TEST(Session, FaultSimValidatesExplicitTestSets) {
    Session session(workload::suite_circuit("s27"));
    atpg::AtpgConfig cfg;
    cfg.backtrack_limit = 1000;
    const AtpgReport& report = session.atpg(cfg);
    const FaultSimReport all = session.fault_sim(report.outcome.tests);
    EXPECT_EQ(all.detected, report.list.counts().detected);
    EXPECT_EQ(all.sequences, report.outcome.tests.size());
    const FaultSimReport none = session.fault_sim({});
    EXPECT_EQ(none.detected, 0u);
    EXPECT_EQ(none.sequences, 0u);
    EXPECT_EQ(none.total, all.total);
}

// fault_sim() gives no lane to a fault stuck at the value its line is tied
// to from cycle 0. That must be exact: the same counts as grading every
// collapsed fault with the same ties, where no such fault is detected.
TEST(Session, FaultSimSkipsCycleZeroTieFaultsExactly) {
    for (const char* name : {"gen953", "rt510b", "gen5378"}) {
        SCOPED_TRACE(name);
        Session session(workload::suite_circuit(name));
        const core::TieSet& ties = session.learn().ties;
        const netlist::Topology& topo = session.topology();
        util::Rng rng(29);
        std::vector<sim::InputSequence> tests(
            6, sim::InputSequence(16, sim::InputFrame(topo.inputs().size())));
        for (sim::InputSequence& t : tests)
            for (sim::InputFrame& f : t)
                for (Val3& v : f) v = rng.chance(0.5) ? Val3::One : Val3::Zero;
        const FaultSimReport report = session.fault_sim(tests);

        fault::FaultSimulator fsim(topo);
        fsim.set_good_ties(&ties.dense(), &ties.dense_cycles());
        fault::FaultList full(session.collapsed_faults().representatives());
        for (const sim::InputSequence& t : tests) fsim.drop_detected(t, full);
        EXPECT_EQ(report.total, full.counts().total);
        EXPECT_EQ(report.detected, full.counts().detected);
        EXPECT_EQ(report.fault_coverage, full.fault_coverage());
        EXPECT_GT(report.detected, 0u);

        std::size_t skipped = 0;
        for (std::size_t i = 0; i < full.size(); ++i) {
            if (!ties.stuck_at_tie(topo, full.fault(i), 0)) continue;
            ++skipped;
            EXPECT_NE(full.status(i), fault::FaultStatus::Detected)
                << fault::to_string(session.netlist(), full.fault(i));
        }
        EXPECT_GT(skipped, 0u);
    }
}

// A campaign's fault-simulation scratch is reserved for a full pass on
// every worker, the primary simulator's included, so the footprint a
// serving cache charges does not depend on which worker validated what.
TEST(Session, ScratchBytesDoNotDependOnThreadTiming) {
    const DesignPtr design = DesignBuilder(workload::suite_circuit("gen953")).build();
    std::vector<std::size_t> bytes;
    for (int run = 0; run < 5; ++run) {
        SessionConfig cfg;
        cfg.threads = 4;
        Session session(design, std::move(cfg));
        atpg::AtpgConfig acfg;
        acfg.backtrack_limit = 1;
        acfg.redundancy_effort = 0;
        session.atpg(acfg);
        bytes.push_back(session.stats().memory.scratch_bytes);
    }
    for (const std::size_t b : bytes) EXPECT_EQ(b, bytes[0]);
}

TEST(Session, MoveKeepsEnginePointersValid) {
    Session a(workload::suite_circuit("s27"));
    a.learn();
    a.fault_simulator();
    Session b(std::move(a));
    // The moved-to session still runs the full flow over the same topology.
    atpg::AtpgConfig cfg;
    cfg.mode = atpg::LearnMode::ForbiddenValue;
    cfg.backtrack_limit = 200;
    const AtpgReport& report = b.atpg(cfg);
    EXPECT_EQ(report.outcome.invalid_tests, 0u);
    EXPECT_EQ(&b.fault_simulator().topology(), &b.topology());
}

}  // namespace
}  // namespace seqlearn::api
