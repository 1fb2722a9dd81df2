// Wall-clock governance on a real workload (gen5378, the paper's s5378
// stand-in): a deadline-bounded learn() must stop promptly and return a
// usable partial result, and a budgeted run plus a checkpointed resume must
// reproduce the one-shot goldens bit-identically. Kept
// out of the TSan job: gen5378 is too large to simulate under TSan's
// slowdown (the small-circuit robustness_test covers the same code paths
// there).

#include "core/db_io.hpp"
#include "core/seq_learn.hpp"
#include "netlist/topology.hpp"
#include "test_helpers.hpp"
#include "workload/suite.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

namespace seqlearn::core {
namespace {

// relation_hash comes from the library (core/impl_db.hpp) so these
// robustness/governance digests stay pinned to the serving protocol's.

TEST(Governance, DeadlineStopsPromptlyWithUsablePartialResult) {
    const netlist::Netlist nl = workload::suite_circuit("gen5378");
    const netlist::Topology topo(nl);
    using Clock = std::chrono::steady_clock;
    using std::chrono::duration_cast;
    using std::chrono::milliseconds;

    // The deadline comes from full passes measured here: the time to a
    // pass's first stem (the equivalence phase before it polls no deadline)
    // plus a quarter of the rest, so it cuts the pass off mid-stream at any
    // build type and machine speed (a Release pass takes ~25-35 ms). Two
    // passes are timed and the smaller deadline kept, so one calibration
    // pass slowed by a busy machine cannot set a deadline the real run
    // beats. The stop bound: polling happens at stem boundaries, so the
    // tolerance is one batch plus scheduling noise; Debug/instrumented
    // builds run ~20x slower and get a generous allowance.
#ifdef NDEBUG
    constexpr long kToleranceMs = 50;
#else
    constexpr long kToleranceMs = 1000;
#endif
    LearnConfig cfg;
    LearnConfig timed = cfg;
    Clock::time_point first_stem{};
    timed.on_stem = [&first_stem](std::size_t done, std::size_t) {
        if (done == 0) first_stem = Clock::now();
        return true;
    };
    long deadline_ms = std::numeric_limits<long>::max();
    for (int pass = 0; pass < 2; ++pass) {
        const Clock::time_point p0 = Clock::now();
        ASSERT_TRUE(learn(nl, topo, timed).outcome.ok());
        const Clock::time_point p1 = Clock::now();
        deadline_ms = std::min(
            deadline_ms,
            duration_cast<milliseconds>(first_stem - p0).count() +
                std::max<long>(1, duration_cast<milliseconds>(p1 - first_stem).count() / 4));
    }
    cfg.budget.deadline = milliseconds(deadline_ms);

    const Clock::time_point t0 = Clock::now();
    const LearnResult r = learn(nl, topo, cfg);
    const milliseconds elapsed = duration_cast<milliseconds>(Clock::now() - t0);

    ASSERT_EQ(r.outcome.status, exec::RunStatus::DeadlineExceeded)
        << "elapsed " << elapsed.count() << "ms, deadline " << deadline_ms
        << "ms — full pass finished under the deadline? rebalance the test budget";
    EXPECT_EQ(r.outcome.diagnostic, "wall-clock deadline");
    EXPECT_LE(elapsed.count(), deadline_ms + kToleranceMs);

    // The partial result is usable: a sound prefix with a resume cursor,
    // flagged for report printers.
    EXPECT_TRUE(r.cursor.valid);
    EXPECT_TRUE(r.stats.cancelled);
    EXPECT_GT(r.stats.stems_processed, 0u);
    EXPECT_LT(r.stats.stems_processed, r.stats.stems);
}

// A tie-heavy golden: gen5378 learns 949 ties (the other goldens have at
// most 75), so most batches run against a background many tie-set versions
// old. Recorded from the per-frame-seeding batch simulator.
TEST(Governance, TieHeavyLearnMatchesGolden) {
    const netlist::Netlist nl = workload::suite_circuit("gen5378");
    const netlist::Topology topo(nl);
    const LearnResult r = learn(nl, topo);
    ASSERT_TRUE(r.outcome.ok());
    EXPECT_EQ(r.db.size(), 5342u);
    EXPECT_EQ(r.ties.count(), 949u);
    EXPECT_EQ(r.stats.ties_combinational, 486u);
    EXPECT_EQ(r.stats.ties_sequential, 463u);
    EXPECT_EQ(r.stats.multi_relations, 303u);
    EXPECT_EQ(r.stats.multi_ties, 49u);
    EXPECT_EQ(r.stats.stems_processed, 1298u);
    EXPECT_EQ(relation_hash(r.db), 0x8b380d1c4636e54aULL);
    EXPECT_EQ(testing::tie_digest(r.ties), 1073545694368701090ULL);
}

// Item limits that stop inside the multiple-node pass (gen5378: 1806 stems,
// then 2113 targets): the stop lands on a pinned target with a pinned
// partial result, and the resume reaches the tie-heavy golden above.
TEST(Governance, ItemLimitInsideMultipleNodePassStopsAtThePinnedTarget) {
    const netlist::Netlist nl = workload::suite_circuit("gen5378");
    const netlist::Topology topo(nl);
    struct Stop {
        std::size_t limit, unit, targets, ties, relations;
    };
    for (const Stop& want : {Stop{2506, 700, 559, 7, 5334}, Stop{3306, 1500, 1149, 24, 5338}}) {
        const std::string ctx = "limit=" + std::to_string(want.limit);
        LearnConfig budgeted;
        budgeted.budget.max_items = want.limit;
        const LearnResult partial = learn(nl, topo, budgeted);
        ASSERT_EQ(partial.outcome.status, exec::RunStatus::LimitReached) << ctx;
        ASSERT_TRUE(partial.cursor.valid) << ctx;
        EXPECT_TRUE(partial.cursor.in_multi) << ctx;
        EXPECT_EQ(partial.cursor.unit, want.unit) << ctx;
        EXPECT_EQ(partial.stats.multi_targets, want.targets) << ctx;
        EXPECT_EQ(partial.stats.multi_ties, want.ties) << ctx;
        EXPECT_EQ(partial.db.size(), want.relations) << ctx;

        const LearnResult resumed =
            resume_learn(nl, topo, LearnConfig{}, make_checkpoint(nl, partial));
        EXPECT_TRUE(resumed.outcome.ok()) << ctx;
        EXPECT_EQ(relation_hash(resumed.db), 0x8b380d1c4636e54aULL) << ctx;
        EXPECT_EQ(testing::tie_digest(resumed.ties), 1073545694368701090ULL) << ctx;
    }
}

TEST(Governance, BudgetedRunPlusResumeMatchesOneShotAcrossExecConfigs) {
    const netlist::Netlist nl = workload::suite_circuit("gen5378");
    const netlist::Topology topo(nl);

    const LearnResult golden = learn(nl, topo);
    ASSERT_TRUE(golden.outcome.ok());

    // Stop partway through the single-node pass, checkpoint, and resume
    // without the item limit; the combined run must land on the goldens.
    LearnConfig budgeted;
    budgeted.budget.max_items = 300;
    const LearnResult partial = learn(nl, topo, budgeted);
    ASSERT_EQ(partial.outcome.status, exec::RunStatus::LimitReached);
    ASSERT_TRUE(partial.cursor.valid);
    EXPECT_FALSE(partial.cursor.in_multi);
    EXPECT_EQ(partial.cursor.unit, 300u);  // items = stems observed, in order
    // Some of those stems are skipped (already tied / constant), so the
    // processed count is at most the item count.
    EXPECT_LE(partial.stats.stems_processed, 300u);
    EXPECT_GT(partial.stats.stems_processed, 0u);
    const LearnCheckpoint ckpt = make_checkpoint(nl, partial);

    // The resume goes through the full text round trip (db_io_test proves
    // field fidelity, this proves result fidelity at scale).
    std::stringstream ss;
    save_checkpoint(ss, nl, ckpt);
    const LearnCheckpoint reloaded = load_checkpoint(ss, nl);

    const LearnResult resumed = resume_learn(nl, topo, LearnConfig{}, reloaded);
    EXPECT_TRUE(resumed.outcome.ok());
    EXPECT_EQ(relation_hash(resumed.db), relation_hash(golden.db));
    EXPECT_EQ(resumed.db.size(), golden.db.size());
    EXPECT_EQ(resumed.ties.dense(), golden.ties.dense());
    EXPECT_EQ(resumed.ties.dense_cycles(), golden.ties.dense_cycles());
    EXPECT_EQ(resumed.stats.multi_relations, golden.stats.multi_relations);
    EXPECT_EQ(resumed.stats.multi_ties, golden.stats.multi_ties);
    EXPECT_EQ(resumed.stats.stems_processed, golden.stats.stems_processed);
}

}  // namespace
}  // namespace seqlearn::core
