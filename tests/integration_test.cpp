// End-to-end integration: learn -> ATPG -> fault-sim through the Session
// facade on suite circuits, checking the paper's qualitative claims hold on
// this implementation.

#include "api/session.hpp"
#include "workload/suite.hpp"

#include <gtest/gtest.h>

namespace seqlearn {
namespace {

using atpg::AtpgConfig;
using atpg::LearnMode;
using fault::FaultStatus;
using netlist::Netlist;

struct CampaignResult {
    fault::FaultList::Counts counts;
    double cpu = 0.0;
    std::uint64_t backtracks = 0;
};

CampaignResult campaign(api::Session& session, LearnMode mode,
                        std::uint32_t backtrack_limit) {
    AtpgConfig cfg;
    cfg.mode = mode;
    cfg.backtrack_limit = backtrack_limit;
    const api::AtpgReport& report = session.atpg(cfg);
    EXPECT_EQ(report.outcome.invalid_tests, 0u);
    return {report.list.counts(), report.outcome.cpu_seconds,
            report.outcome.total_backtracks};
}

TEST(Integration, LearningHelpsOnRetimedCircuit) {
    api::Session session(workload::suite_circuit("rt510a"));
    const core::LearnResult& learned = session.learn();
    EXPECT_GT(learned.stats.ff_ff_relations, 0u);

    const CampaignResult none = campaign(session, LearnMode::None, 30);
    const CampaignResult forb = campaign(session, LearnMode::ForbiddenValue, 30);
    const CampaignResult known = campaign(session, LearnMode::KnownValue, 30);

    // The paper's core claim, weakened to "not worse" for robustness across
    // seeds: with learning, detected + proven-untestable never drops.
    EXPECT_GE(forb.counts.detected + forb.counts.untestable,
              none.counts.detected + none.counts.untestable);
    EXPECT_GE(known.counts.detected + known.counts.untestable,
              none.counts.detected + none.counts.untestable);
}

TEST(Integration, FullFlowOnFig1) {
    api::Session session(workload::suite_circuit("fig1x"));
    // The tie-derived untestable faults include the G3 stuck-at-0 class.
    AtpgConfig cfg;
    cfg.mode = LearnMode::ForbiddenValue;
    cfg.backtrack_limit = 1000;
    const api::AtpgReport& report = session.atpg(cfg);
    EXPECT_EQ(report.outcome.invalid_tests, 0u);
    EXPECT_GT(report.outcome.untestable_by_tie, 0u);
    const auto c = report.list.counts();
    EXPECT_GT(report.list.fault_coverage(), 0.5);
    EXPECT_EQ(c.total, session.collapsed_faults().size());
    // The facade's validation step reproduces the campaign's detections.
    const api::FaultSimReport check = session.fault_sim();
    EXPECT_EQ(check.detected, c.detected);
}

TEST(Integration, ModesAgreeOnTotalAccounting) {
    api::Session session(workload::suite_circuit("fig2x"));
    for (const LearnMode mode :
         {LearnMode::None, LearnMode::KnownValue, LearnMode::ForbiddenValue}) {
        const CampaignResult r = campaign(session, mode, 1000);
        EXPECT_EQ(r.counts.total,
                  r.counts.detected + r.counts.untestable + r.counts.untestable_bounded +
                      r.counts.aborted + r.counts.undetected);
    }
}

TEST(Integration, LearningIsFastOnMidSizeCircuit) {
    api::Session session(workload::suite_circuit("gen1423"));
    const core::LearnResult& learned = session.learn();
    // ~650 gates must learn in well under a second even in debug-ish builds.
    EXPECT_LT(learned.stats.cpu_seconds, 5.0);
    EXPECT_GT(learned.stats.stems_processed, 0u);
}

TEST(Integration, StatsAggregateTheWholeFlow) {
    api::Session session(workload::suite_circuit("fig1x"));
    api::SessionStats before = session.stats();
    EXPECT_FALSE(before.learned);
    EXPECT_FALSE(before.atpg_run);
    EXPECT_GT(before.gates, 0u);
    EXPECT_GT(before.collapsed_faults, 0u);

    session.learn();
    AtpgConfig cfg;
    cfg.mode = LearnMode::ForbiddenValue;
    cfg.backtrack_limit = 200;
    session.atpg(cfg);
    const api::SessionStats after = session.stats();
    EXPECT_TRUE(after.learned);
    EXPECT_TRUE(after.atpg_run);
    EXPECT_GT(after.relations, 0u);
    EXPECT_EQ(after.faults.total, after.collapsed_faults);
    EXPECT_GT(after.tests, 0u);
}

}  // namespace
}  // namespace seqlearn
