// Run-governance robustness: fault injection, cancelled-session reuse,
// deterministic item limits, and checkpoint/resume.
//
// The contract under test (ISSUE 6's graceful-degradation layer): a run
// that stops early — cooperative cancel, exhausted budget, or an exception
// thrown from inside a work item, a batch re-simulation or an ATPG
// speculation commit — must (a) surface as a structured RunOutcome instead
// of an escaped exception or a deadlock, (b) leave the shared learned state
// (db / ties) a sound, intact prefix, and (c) never poison later runs: a
// clean re-run on the same engine state reproduces the untouched goldens
// bit for bit. Checkpointed resumes must converge to the exact one-shot
// result under any execution-only config. This suite runs under the ASan
// and TSan CI jobs.

#include "api/session.hpp"
#include "core/db_io.hpp"
#include "core/seq_learn.hpp"
#include "exec/budget.hpp"
#include "exec/failpoint.hpp"
#include "netlist/topology.hpp"
#include "test_helpers.hpp"
#include "workload/suite.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <fstream>
#include <new>
#include <sstream>
#include <thread>
#include <vector>

namespace seqlearn::core {
namespace {

using exec::FailKind;
using exec::FailSite;
using exec::FailurePoint;
using exec::RunStatus;

// relation_hash comes from the library (core/impl_db.hpp) so these
// robustness/governance digests stay pinned to the serving protocol's.

// A config whose one non-default field is execution-only: a wall-clock
// deadline of `hours` hours, which no run here comes near. A run under it
// is bit-identical to a run without it.
LearnConfig exec_cfg(unsigned hours) {
    LearnConfig cfg;
    cfg.budget.deadline = std::chrono::hours(hours);
    return cfg;
}

void expect_same_result(const LearnResult& got, const LearnResult& want,
                        const std::string& ctx) {
    EXPECT_EQ(relation_hash(got.db), relation_hash(want.db)) << ctx;
    EXPECT_EQ(got.db.size(), want.db.size()) << ctx;
    EXPECT_EQ(got.ties.dense(), want.ties.dense()) << ctx;
    EXPECT_EQ(got.ties.dense_cycles(), want.ties.dense_cycles()) << ctx;
    EXPECT_EQ(got.stats.multi_relations, want.stats.multi_relations) << ctx;
    EXPECT_EQ(got.stats.multi_ties, want.stats.multi_ties) << ctx;
    EXPECT_EQ(got.stats.stems_processed, want.stats.stems_processed) << ctx;
}

// ---------------------------------------------------------------------------
// FailurePoint semantics.

TEST(FailurePoint, FiresAtExactlyTheArmedArrival) {
    FailurePoint fp;
    // Disarmed: free.
    fp.poll(FailSite::WorkItem);
    fp.arm(FailSite::WorkItem, 3);
    fp.poll(FailSite::WorkItem);
    fp.poll(FailSite::SpecCommit);  // other sites count separately
    fp.poll(FailSite::WorkItem);
    EXPECT_THROW(fp.poll(FailSite::WorkItem), exec::InjectedFault);
    // The armed arrival is consumed; later arrivals pass.
    fp.poll(FailSite::WorkItem);
    EXPECT_GE(fp.hits(FailSite::WorkItem), 3u);

    fp.arm(FailSite::SpecCommit, 1, FailKind::BadAlloc);
    EXPECT_THROW(fp.poll(FailSite::SpecCommit), std::bad_alloc);
}

TEST(FailurePoint, InjectedFaultNamesItsSite) {
    FailurePoint fp;
    fp.arm(FailSite::BatchRecompute, 1);
    try {
        fp.poll(FailSite::BatchRecompute);
        FAIL() << "expected InjectedFault";
    } catch (const exec::InjectedFault& e) {
        EXPECT_EQ(e.site, FailSite::BatchRecompute);
        EXPECT_NE(std::string(e.what()).find("batch_recompute"), std::string::npos);
    }
}

// ---------------------------------------------------------------------------
// Fault injection into learning and ATPG: every site must surface as a
// Failed outcome with the shared state intact.

TEST(FaultInjection, WorkItemFailureYieldsFailedOutcomeAndCleanRerun) {
    const netlist::Netlist nl = testing::random_circuit(21, 6, 5, 30);
    const LearnResult golden = testing::learn(nl, exec_cfg(1));
    ASSERT_TRUE(golden.outcome.ok());

    // The work-item site is polled before a pass's first batch, so the 1st
    // arrival is one that exists.
    FailurePoint fp;
    fp.arm(FailSite::WorkItem, 1);
    LearnConfig cfg = exec_cfg(1);
    cfg.failpoint = &fp;
    const LearnResult r = testing::learn(nl, cfg);
    EXPECT_EQ(r.outcome.status, RunStatus::Failed);
    EXPECT_FALSE(r.outcome.diagnostic.empty());
    EXPECT_FALSE(r.cursor.valid);  // unwound: stop point unknown
    EXPECT_TRUE(r.stats.cancelled);
    // The committed prefix is sound: every relation it holds appears in the
    // complete run's database.
    const auto all = golden.db.relations();
    for (const Relation& rel : r.db.relations()) {
        EXPECT_NE(std::find(all.begin(), all.end(), rel), all.end())
            << "injected-failure prefix learned a bogus relation";
    }
    // A clean re-run reproduces the untouched golden exactly.
    const LearnResult clean = testing::learn(nl, exec_cfg(1));
    expect_same_result(clean, golden, "clean rerun");
}

// Learning commits as it goes and has no such site; it is the ATPG
// campaign's in-order commit of the targets its workers solved.
TEST(FaultInjection, SpecCommitFailureYieldsFailedOutcome) {
    const netlist::Netlist nl = workload::suite_circuit("s27");
    auto session_for = [&nl](FailurePoint* fp) {
        api::SessionConfig scfg;
        scfg.threads = 4;
        scfg.failpoint = fp;
        return api::Session(netlist::Netlist(nl), std::move(scfg));
    };
    atpg::AtpgConfig acfg;
    acfg.mode = atpg::LearnMode::None;
    acfg.backtrack_limit = 100;

    FailurePoint fp;
    fp.arm(FailSite::SpecCommit, 2);
    api::Session broken = session_for(&fp);
    EXPECT_EQ(broken.atpg(acfg).outcome.run.status, RunStatus::Failed);
    EXPECT_GE(fp.hits(FailSite::SpecCommit), 2u);
    // A clean rerun reproduces the golden campaign digest
    // (AtpgDeterminism.CampaignDigestsMatchPrePortGoldens).
    api::Session clean = session_for(nullptr);
    EXPECT_EQ(api::campaign_digest(clean.atpg(acfg)), 18111582773122034168ULL);
}

TEST(FaultInjection, BatchRecomputeFailureYieldsFailedOutcome) {
    // The recompute site is only reached when a tie cuts a batch short and
    // units are left to re-simulate, so sweep tie-rich seeds; each firing
    // must surface as Failed, and at least one seed must actually fire (the
    // site is not dead).
    bool any_fired = false;
    for (const std::uint64_t seed : {21ULL, 33ULL, 55ULL, 77ULL}) {
        const netlist::Netlist nl = testing::random_circuit(seed, 6, 5, 30);
        const LearnResult golden = testing::learn(nl, exec_cfg(1));
        FailurePoint fp;
        fp.arm(FailSite::BatchRecompute, 1);
        LearnConfig cfg = exec_cfg(1);
        cfg.failpoint = &fp;
        const LearnResult r = testing::learn(nl, cfg);
        const std::string ctx = "seed=" + std::to_string(seed);
        if (fp.hits(FailSite::BatchRecompute) > 0) {
            any_fired = true;
            EXPECT_EQ(r.outcome.status, RunStatus::Failed) << ctx;
            const LearnResult clean = testing::learn(nl, exec_cfg(1));
            expect_same_result(clean, golden, ctx + " (clean rerun)");
        } else {
            EXPECT_TRUE(r.outcome.ok()) << ctx;
            expect_same_result(r, golden, ctx);
        }
    }
    EXPECT_TRUE(any_fired) << "no seed ever reached the batch-recompute site";
}

TEST(FaultInjection, SimulatedAllocationFailureIsCaptured) {
    const netlist::Netlist nl = testing::random_circuit(21, 6, 5, 30);
    FailurePoint fp;
    fp.arm(FailSite::WorkItem, 1, FailKind::BadAlloc);
    LearnConfig cfg = exec_cfg(1);
    cfg.failpoint = &fp;
    const LearnResult r = testing::learn(nl, cfg);
    EXPECT_EQ(r.outcome.status, RunStatus::Failed);
    EXPECT_NE(r.outcome.diagnostic.find("bad_alloc"), std::string::npos)
        << r.outcome.diagnostic;
}

TEST(FaultInjection, AtpgCampaignFailureIsCapturedWithStateIntact) {
    const netlist::Netlist nl = workload::suite_circuit("s27");
    for (const unsigned threads : {1u, 4u}) {
        FailurePoint fp;
        api::SessionConfig scfg;
        scfg.threads = threads;
        scfg.failpoint = &fp;
        api::Session session(netlist::Netlist(nl), std::move(scfg));
        atpg::AtpgConfig acfg;
        acfg.mode = atpg::LearnMode::None;
        fp.arm(FailSite::WorkItem, 2);
        const api::AtpgReport& broken = session.atpg(acfg);
        EXPECT_EQ(broken.outcome.run.status, RunStatus::Failed) << "threads=" << threads;
        EXPECT_TRUE(broken.outcome.cancelled) << "threads=" << threads;

        // The session survives: the no-arg call re-runs (stale early-ended
        // campaign) with the point disarmed and completes cleanly.
        const api::AtpgReport& clean = session.atpg();
        EXPECT_TRUE(clean.outcome.run.ok()) << "threads=" << threads;
        EXPECT_GT(clean.list.counts().detected, 0u) << "threads=" << threads;
    }
}

TEST(FaultInjection, FaultSimValidationFailureIsCaptured) {
    FailurePoint fp;
    api::SessionConfig scfg;
    scfg.threads = 1;
    scfg.failpoint = &fp;
    api::Session session(workload::suite_circuit("s27"), std::move(scfg));
    atpg::AtpgConfig acfg;
    acfg.mode = atpg::LearnMode::None;
    session.atpg(acfg);

    fp.arm(FailSite::WorkItem, 1);
    const api::FaultSimReport broken = session.fault_sim();
    EXPECT_EQ(broken.outcome.status, RunStatus::Failed);
    EXPECT_TRUE(broken.cancelled);
    EXPECT_EQ(broken.sequences, 0u);

    // Governance hooks were cleared after the failed run (the Budget they
    // pointed at was stack-local): a later validation runs clean.
    const api::FaultSimReport clean = session.fault_sim();
    EXPECT_TRUE(clean.outcome.ok());
    EXPECT_GT(clean.detected, 0u);
}

// ---------------------------------------------------------------------------
// Cancelled-session reuse (the stale-state regression test): a Session whose
// stage was cancelled must re-run the stage on the next no-arg call instead
// of serving the partial result forever.

TEST(SessionReuse, CancelledLearnIsRerunNotServedStale) {
    const netlist::Netlist nl = testing::random_circuit(21, 6, 5, 30);
    const LearnResult golden = testing::learn(nl, exec_cfg(1));

    int calls = 0;
    api::SessionConfig scfg;
    scfg.threads = 1;
    scfg.progress = [&calls](const api::Progress& p) {
        // Cancel the very first learn run at its first stem; observe only
        // afterwards.
        return !(p.stage == api::Stage::Learn && calls++ == 0);
    };
    api::Session session(netlist::Netlist(nl), std::move(scfg));

    const core::LearnResult& partial = session.learn();
    EXPECT_EQ(partial.outcome.status, RunStatus::Cancelled);
    EXPECT_TRUE(partial.stats.cancelled);
    EXPECT_LT(partial.stats.stems_processed, golden.stats.stems_processed);

    // Before the fix this returned the cancelled partial result unchanged.
    const core::LearnResult& reran = session.learn();
    EXPECT_TRUE(reran.outcome.ok());
    expect_same_result(reran, golden, "rerun after cancel");

    // And downstream stages consume the complete result.
    const api::AtpgReport& report = session.atpg();
    EXPECT_TRUE(report.outcome.run.ok());
}

TEST(SessionReuse, BudgetStoppedLearnIsRerunByNoArgCall) {
    const netlist::Netlist nl = testing::random_circuit(21, 6, 5, 30);
    api::Session session{netlist::Netlist(nl)};
    LearnConfig budgeted = exec_cfg(1);
    budgeted.budget.max_items = 3;
    const core::LearnResult& partial = session.learn(budgeted);
    EXPECT_EQ(partial.outcome.status, RunStatus::LimitReached);
    const core::LearnResult& full = session.learn();
    EXPECT_TRUE(full.outcome.ok());
    EXPECT_GT(full.stats.stems_processed, 3u);
}

// ---------------------------------------------------------------------------
// Deterministic budgets and checkpoint/resume.

// The Session's thread count sizes ATPG and fault simulation only: a
// budgeted learn through a Session sized for eight workers stops at the
// same unit, with the same prefix, as the bare learn().
TEST(Budget, ItemLimitStopsAtTheSameUnitAtAnyThreadCount) {
    const netlist::Netlist nl = testing::random_circuit(21, 6, 5, 30);
    LearnConfig budgeted = exec_cfg(1);
    budgeted.budget.max_items = 7;
    const LearnResult want = core::learn(nl, netlist::Topology(nl), budgeted);
    ASSERT_EQ(want.outcome.status, RunStatus::LimitReached);
    ASSERT_TRUE(want.cursor.valid);
    EXPECT_EQ(want.stats.stems_processed, 7u);

    api::SessionConfig scfg;
    scfg.threads = 8;
    api::Session session(netlist::Netlist(nl), std::move(scfg));
    const LearnResult& got = session.learn(budgeted);
    EXPECT_EQ(got.outcome.status, RunStatus::LimitReached);
    EXPECT_EQ(got.cursor.unit, want.cursor.unit);
    EXPECT_EQ(got.cursor.in_multi, want.cursor.in_multi);
    EXPECT_EQ(got.cursor.class_index, want.cursor.class_index);
    EXPECT_EQ(got.stats.stems_processed, want.stats.stems_processed);
    // The partial result is bit-identical to the bare prefix.
    EXPECT_EQ(relation_hash(got.db), relation_hash(want.db));
    EXPECT_EQ(got.ties.dense(), want.ties.dense());
}

TEST(Checkpoint, ResumeConvergesToOneShotAtEveryStopBoundary) {
    const netlist::Netlist nl = testing::random_circuit(21, 6, 5, 30);
    const netlist::Topology topo(nl);
    const LearnConfig base = exec_cfg(1);
    const LearnResult golden = core::learn(nl, topo, base);
    ASSERT_TRUE(golden.outcome.ok());

    // Exhaustive: every stop boundary of the schedule, until a limit no
    // longer interrupts the run. The circuit is tiny, so this is cheap.
    bool hit_multi_phase = false;
    for (std::size_t limit = 1; limit < 10000; ++limit) {
        LearnConfig budgeted = base;
        budgeted.budget.max_items = limit;
        const LearnResult partial = core::learn(nl, topo, budgeted);
        if (partial.outcome.ok()) break;  // limit past the full schedule
        ASSERT_EQ(partial.outcome.status, RunStatus::LimitReached) << "limit=" << limit;
        ASSERT_TRUE(partial.cursor.valid) << "limit=" << limit;
        hit_multi_phase = hit_multi_phase || partial.cursor.in_multi;

        const LearnCheckpoint ckpt = make_checkpoint(nl, partial);
        const LearnResult resumed = resume_learn(nl, topo, base, ckpt);
        EXPECT_TRUE(resumed.outcome.ok()) << "limit=" << limit;
        expect_same_result(resumed, golden, "limit=" + std::to_string(limit));
    }
    // The sweep crossed the single-node -> multiple-node phase boundary
    // (otherwise the in_multi resume path went untested).
    EXPECT_TRUE(hit_multi_phase);
}

TEST(Checkpoint, TextRoundTripPreservesTheResumeExactly) {
    const netlist::Netlist nl = testing::random_circuit(21, 6, 5, 30);
    const netlist::Topology topo(nl);
    const LearnConfig base = exec_cfg(1);
    const LearnResult golden = core::learn(nl, topo, base);

    LearnConfig budgeted = base;
    budgeted.budget.max_items = 9;
    const LearnResult partial = core::learn(nl, topo, budgeted);
    ASSERT_TRUE(partial.cursor.valid);
    const LearnCheckpoint ckpt = make_checkpoint(nl, partial);

    std::stringstream ss;
    save_checkpoint(ss, nl, ckpt);
    const LearnCheckpoint loaded = load_checkpoint(ss, nl);
    EXPECT_EQ(loaded.cursor.class_index, ckpt.cursor.class_index);
    EXPECT_EQ(loaded.cursor.in_multi, ckpt.cursor.in_multi);
    EXPECT_EQ(loaded.cursor.unit, ckpt.cursor.unit);
    EXPECT_EQ(loaded.cursor.config_digest, ckpt.cursor.config_digest);
    EXPECT_EQ(loaded.stems_processed, ckpt.stems_processed);
    EXPECT_EQ(relation_hash(loaded.db), relation_hash(ckpt.db));
    EXPECT_EQ(loaded.ties.dense(), ckpt.ties.dense());
    EXPECT_EQ(loaded.records.total_records(), ckpt.records.total_records());
    EXPECT_EQ(loaded.records.cap(), ckpt.records.cap());

    const LearnResult resumed = resume_learn(nl, topo, base, loaded);
    expect_same_result(resumed, golden, "text round-trip resume");
}

TEST(Checkpoint, ResumeUnderDifferentExecutionConfigMatchesGolden) {
    const netlist::Netlist nl = testing::random_circuit(21, 6, 5, 30);
    const netlist::Topology topo(nl);
    const LearnResult golden = core::learn(nl, topo, exec_cfg(1));

    LearnConfig budgeted = exec_cfg(1);
    budgeted.budget.max_items = 11;
    const LearnResult partial = core::learn(nl, topo, budgeted);
    ASSERT_TRUE(partial.cursor.valid);
    const LearnCheckpoint ckpt = make_checkpoint(nl, partial);

    // The deadline and the item limit are execution-only: the digest admits
    // a resume under a different deadline and no item limit, and the
    // resumed result is still bit-identical.
    const LearnResult resumed = resume_learn(nl, topo, exec_cfg(8), ckpt);
    expect_same_result(resumed, golden, "resumed under an 8-hour deadline");
}

TEST(Checkpoint, MismatchesAreRejected) {
    const netlist::Netlist nl = testing::random_circuit(21, 6, 5, 30);
    const netlist::Topology topo(nl);
    const LearnConfig base = exec_cfg(1);

    // A completed run is not checkpointable.
    const LearnResult complete = core::learn(nl, topo, base);
    EXPECT_THROW(make_checkpoint(nl, complete), std::logic_error);

    LearnConfig budgeted = base;
    budgeted.budget.max_items = 5;
    const LearnResult partial = core::learn(nl, topo, budgeted);
    const LearnCheckpoint ckpt = make_checkpoint(nl, partial);

    // Result-affecting config change: rejected.
    LearnConfig deeper = base;
    deeper.max_frames = 7;
    EXPECT_THROW(resume_learn(nl, topo, deeper, ckpt), std::invalid_argument);

    // Different circuit: rejected (by name even when sizes coincide).
    const netlist::Netlist other = testing::random_circuit(99, 6, 5, 30);
    EXPECT_THROW(resume_learn(other, netlist::Topology(other), base, ckpt),
                 std::invalid_argument);
}

// A checkpoint carries the digest of the config it was taken under, and
// resume_learn refuses any other. These are the digests earlier releases
// wrote; while they hold, checkpoints saved by those releases resume.
TEST(Checkpoint, ConfigDigestsArePinned) {
    EXPECT_EQ(learn_config_digest(LearnConfig{}), 17265463245651607604ULL);
    LearnConfig shallow;
    shallow.max_frames = 10;
    EXPECT_EQ(learn_config_digest(shallow), 13084746606763090444ULL);
    LearnConfig sat;
    sat.sat_frames = 4;
    EXPECT_EQ(learn_config_digest(sat), 1380615955990186896ULL);
    LearnConfig single_only;
    single_only.multiple_node = false;
    single_only.use_equivalences = false;
    EXPECT_EQ(learn_config_digest(single_only), 17384453524157883362ULL);

    // Execution-only fields stay out of the digest.
    LearnConfig governed = exec_cfg(4);
    governed.budget.max_items = 3;
    governed.budget.deadline = std::chrono::milliseconds(50);
    EXPECT_EQ(learn_config_digest(governed), learn_config_digest(LearnConfig{}));
}

// Checkpoint files written by an earlier release (`learn suite:fig1x
// --limit-stems N --checkpoint FILE`, stopped in the single-node pass at
// N = 5 and in the multiple-node pass at N = 15) resume to the one-shot
// result.
TEST(Checkpoint, FilesFromAnEarlierReleaseResumeToOneShot) {
    const netlist::Netlist nl = workload::suite_circuit("fig1x");
    const netlist::Topology topo(nl);
    const LearnResult golden = core::learn(nl, topo, LearnConfig{});
    EXPECT_EQ(relation_hash(golden.db), 0xf30ec533a9f133b5ULL);
    for (const char* name : {"checkpoint_fig1x_single.txt", "checkpoint_fig1x_multi.txt"}) {
        std::ifstream in(std::string(SEQLEARN_TEST_DATA_DIR) + "/" + name);
        ASSERT_TRUE(in) << name;
        const LearnCheckpoint ckpt = load_checkpoint(in, nl);
        const LearnResult resumed = resume_learn(nl, topo, LearnConfig{}, ckpt);
        EXPECT_TRUE(resumed.outcome.ok()) << name;
        expect_same_result(resumed, golden, name);
    }
}

// A resumed learn reports progress from its cursor, not from 0: gen953's
// single-node pass (281 stems, one clock class) stopped after 40 stems
// resumes at stem 40 and counts on, one call per stem, to the last.
TEST(Checkpoint, ResumedProgressCountsOnFromTheCursor) {
    const netlist::Netlist nl = workload::suite_circuit("gen953");
    const netlist::Topology topo(nl);
    LearnConfig budgeted = exec_cfg(1);
    budgeted.budget.max_items = 40;
    const LearnResult partial = core::learn(nl, topo, budgeted);
    ASSERT_TRUE(partial.cursor.valid);
    ASSERT_FALSE(partial.cursor.in_multi);
    ASSERT_EQ(partial.cursor.unit, 40u);

    std::vector<std::size_t> done;
    LearnConfig observed = exec_cfg(1);
    observed.on_stem = [&done](std::size_t d, std::size_t total) {
        EXPECT_EQ(total, 281u);
        done.push_back(d);
        return true;
    };
    const LearnResult resumed = resume_learn(nl, topo, observed, make_checkpoint(nl, partial));
    ASSERT_TRUE(resumed.outcome.ok());
    ASSERT_FALSE(done.empty());
    EXPECT_EQ(done.front(), 40u);
    EXPECT_EQ(done.back(), 280u);
    for (std::size_t i = 1; i < done.size(); ++i)
        ASSERT_EQ(done[i], done[i - 1] + 1) << "call " << i;
}

// A checkpoint's cursor is outside input: a single-node cursor past the
// last stem resumes as the end of that pass instead of reading past the
// stem list.
TEST(Checkpoint, CursorPastTheLastStemResumesAsThePassEnd) {
    const netlist::Netlist nl = testing::random_circuit(21, 6, 5, 30);
    const netlist::Topology topo(nl);
    LearnConfig budgeted = exec_cfg(1);
    budgeted.budget.max_items = 3;
    const LearnResult partial = core::learn(nl, topo, budgeted);
    ASSERT_TRUE(partial.cursor.valid);
    ASSERT_FALSE(partial.cursor.in_multi);

    LearnCheckpoint at_end = make_checkpoint(nl, partial);
    at_end.cursor.unit = nl.stems().size();
    LearnCheckpoint past_end = at_end;
    past_end.cursor.unit = 99999;
    const LearnResult want = resume_learn(nl, topo, exec_cfg(1), at_end);
    const LearnResult got = resume_learn(nl, topo, exec_cfg(1), past_end);
    EXPECT_TRUE(got.outcome.ok());
    expect_same_result(got, want, "cursor past the last stem");
}

TEST(Checkpoint, SessionResumeApiRoundTrips) {
    const netlist::Netlist nl = testing::random_circuit(21, 6, 5, 30);
    const LearnResult golden = testing::learn(nl, exec_cfg(1));

    api::SessionConfig scfg;
    scfg.threads = 1;
    api::Session session(netlist::Netlist(nl), std::move(scfg));
    std::stringstream none;
    EXPECT_THROW(session.save_checkpoint(none), std::logic_error);  // nothing resumable

    LearnConfig budgeted = exec_cfg(1);
    budgeted.budget.max_items = 6;
    const core::LearnResult& partial = session.learn(budgeted);
    ASSERT_TRUE(partial.cursor.valid);
    std::stringstream ss;
    session.save_checkpoint(ss);

    api::SessionConfig scfg2;
    scfg2.threads = 1;
    api::Session fresh(netlist::Netlist(nl), std::move(scfg2));
    const core::LearnResult& resumed = fresh.resume_learn(ss);
    EXPECT_TRUE(resumed.outcome.ok());
    expect_same_result(resumed, golden, "session resume");
}

// ---------------------------------------------------------------------------
// Cancellation from another thread: a cancel raised mid-run stops the learn
// without deadlock and leaves state reusable. (TSan coverage for the
// cancel/budget polling.)

TEST(Cancellation, MidRunCancelFromAnotherThreadStopsAllExecPaths) {
    const netlist::Netlist nl = testing::random_circuit(21, 6, 5, 30);
    api::SessionConfig scfg;
    scfg.threads = 4;
    api::Session session{netlist::Netlist(nl), std::move(scfg)};
    std::thread canceller([&session] { session.request_cancel(); });
    const core::LearnResult& r = session.learn();
    canceller.join();
    // Either the cancel landed before/inside the run (Cancelled) or the run
    // won the race and completed; both must leave the session sound.
    if (!r.outcome.ok())
        EXPECT_EQ(r.outcome.status, RunStatus::Cancelled);
    const core::LearnResult& rerun = session.learn();
    EXPECT_TRUE(rerun.outcome.ok());
}

}  // namespace
}  // namespace seqlearn::core
