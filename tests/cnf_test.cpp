// The CNF timeframe-expansion backend: CDCL solver units, encoder parity
// against the reference simulators, SAT-mined learning soundness, backend
// routing, and governance.
//
// What is pinned here:
//   * The embedded CDCL solver is correct on the classics (unit chains,
//     pigeonhole UNSAT, incremental assumptions) and bit-deterministic:
//     two fresh solvers on the same clause set replay identical statistics.
//   * BinaryUnroller models ARE executions: any satisfying model decodes to
//     an (initial state, input sequence) pair whose reference simulation
//     reproduces every gate value at every frame.
//   * FaultMiter verdicts agree with the simulator: Sat witnesses replay
//     through FaultSimulator::detects, and Untestable verdicts survive an
//     exhaustive oracle over every binary sequence within the frame bound.
//   * SAT-mined ties/relations never contradict frame-simulation learning —
//     cross-checked structurally (merged TieSet never flips a value) and
//     empirically (random binary executions obey every mined fact).
//   * Governance: a tripped budget surfaces as Stopped/DeadlineExceeded with
//     the solver state intact — the same solve completes afterwards.
//   * Backend::Sat / Backend::Auto campaigns leave no fault merely Aborted
//     (every target gets a verdict) and are thread-count invariant.
//   * Bounded (K-frame) proofs are counted apart from proven untestability
//     and stay in test coverage's denominator.

#include "cnf/dispatch.hpp"
#include "cnf/encoder.hpp"
#include "cnf/sat_learn.hpp"
#include "cnf/solver.hpp"

#include "api/request.hpp"
#include "api/session.hpp"
#include "atpg/atpg_loop.hpp"
#include "fault/fault_sim.hpp"
#include "netlist/builder.hpp"
#include "test_helpers.hpp"
#include "workload/suite.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <thread>
#include <vector>

namespace seqlearn::cnf {
namespace {

using fault::Fault;
using fault::kOutputPin;
using logic::Val3;
using netlist::GateId;
using netlist::Netlist;

/// Truth of literal `l` in the last model of `s`.
bool lit_true(const Solver& s, Lit l) { return s.model_value(l.var()) != l.neg(); }

// --- CDCL units --------------------------------------------------------------

TEST(CdclSolver, UnitChainPropagatesToSat) {
    Solver s;
    const Var a = s.new_var(), b = s.new_var(), c = s.new_var();
    ASSERT_TRUE(s.add_clause({pos(a)}));
    ASSERT_TRUE(s.add_clause({neg(a), pos(b)}));
    ASSERT_TRUE(s.add_clause({neg(b), pos(c)}));
    const SolveResult r = s.solve();
    ASSERT_EQ(r.status, SolveStatus::Sat);
    EXPECT_TRUE(s.model_value(a));
    EXPECT_TRUE(s.model_value(b));
    EXPECT_TRUE(s.model_value(c));
    EXPECT_TRUE(r.run.ok());
}

TEST(CdclSolver, FailedLiteralProbeFindsImpliedChain) {
    Solver s;
    const Var a = s.new_var(), b = s.new_var(), c = s.new_var();
    ASSERT_TRUE(s.add_clause({neg(a), pos(b)}));
    ASSERT_TRUE(s.add_clause({neg(b), pos(c)}));
    std::vector<Lit> implied;
    const Lit assume[] = {pos(a)};
    ASSERT_TRUE(s.probe(assume, implied));
    EXPECT_NE(std::find(implied.begin(), implied.end(), pos(b)), implied.end());
    EXPECT_NE(std::find(implied.begin(), implied.end(), pos(c)), implied.end());

    // An assumption set propagation refutes: probe reports the conflict and
    // the solver stays usable.
    const Lit bad[] = {pos(a), neg(c)};
    EXPECT_FALSE(s.probe(bad, implied));
    EXPECT_EQ(s.solve().status, SolveStatus::Sat);
}

/// Pigeonhole clauses for `holes` + 1 pigeons into `holes` holes: the
/// classic polynomially-large, exponentially-hard UNSAT family.
void encode_pigeonhole(Solver& s, unsigned holes) {
    const unsigned pigeons = holes + 1;
    std::vector<std::vector<Var>> p(pigeons, std::vector<Var>(holes));
    for (auto& row : p)
        for (Var& v : row) v = s.new_var();
    std::vector<Lit> clause;
    for (unsigned i = 0; i < pigeons; ++i) {
        clause.clear();
        for (unsigned h = 0; h < holes; ++h) clause.push_back(pos(p[i][h]));
        ASSERT_TRUE(s.add_clause(clause));
    }
    for (unsigned h = 0; h < holes; ++h)
        for (unsigned i = 0; i < pigeons; ++i)
            for (unsigned j = i + 1; j < pigeons; ++j)
                ASSERT_TRUE(s.add_clause({neg(p[i][h]), neg(p[j][h])}));
}

TEST(CdclSolver, PigeonholeIsUnsatThroughConflictLearning) {
    Solver s;
    encode_pigeonhole(s, 5);
    const SolveResult r = s.solve();
    EXPECT_EQ(r.status, SolveStatus::Unsat);
    // No polynomial-size resolution proof exists: the search must learn.
    EXPECT_GT(s.conflicts(), 0u);
    EXPECT_GT(s.decisions(), 0u);
}

TEST(CdclSolver, IncrementalAssumptionsDoNotPoisonTheFormula) {
    Solver s;
    const Var a = s.new_var(), b = s.new_var(), c = s.new_var();
    ASSERT_TRUE(s.add_clause({pos(a), pos(b)}));
    ASSERT_TRUE(s.add_clause({neg(a), pos(c)}));

    const Lit both_off[] = {neg(a), neg(b)};
    EXPECT_EQ(s.solve(both_off).status, SolveStatus::Unsat);

    // The Unsat above was assumption-local: the formula itself stays Sat,
    // and a different assumption set solves with the implied consequence.
    const Lit a_on[] = {pos(a)};
    const SolveResult r = s.solve(a_on);
    ASSERT_EQ(r.status, SolveStatus::Sat);
    EXPECT_TRUE(s.model_value(a));
    EXPECT_TRUE(s.model_value(c));
    EXPECT_EQ(s.solve().status, SolveStatus::Sat);
}

TEST(CdclSolver, IdenticalInputsReplayIdenticalSearches) {
    Solver s1, s2;
    encode_pigeonhole(s1, 5);
    encode_pigeonhole(s2, 5);
    EXPECT_EQ(s1.solve().status, SolveStatus::Unsat);
    EXPECT_EQ(s2.solve().status, SolveStatus::Unsat);
    EXPECT_EQ(s1.conflicts(), s2.conflicts());
    EXPECT_EQ(s1.decisions(), s2.decisions());
    EXPECT_EQ(s1.propagations(), s2.propagations());
    EXPECT_EQ(s1.num_clauses(), s2.num_clauses());
}

TEST(CdclSolver, TrippedBudgetStopsWithStateIntact) {
    Solver s;
    encode_pigeonhole(s, 7);  // big enough to outlive one poll interval

    exec::BudgetSpec spec;
    spec.deadline = std::chrono::milliseconds(1);
    exec::Budget budget(spec);
    std::this_thread::sleep_for(std::chrono::milliseconds(5));  // already expired
    s.set_governance(nullptr, &budget);
    const SolveResult stopped = s.solve();
    EXPECT_EQ(stopped.status, SolveStatus::Stopped);
    EXPECT_EQ(stopped.run.status, exec::RunStatus::DeadlineExceeded);

    // The stop lost nothing: ungoverned, the same solver finishes the
    // search (learned clauses from the aborted attempt are still valid).
    s.set_governance(nullptr, nullptr);
    EXPECT_EQ(s.solve().status, SolveStatus::Unsat);
}

// --- encoder parity against the reference simulator -------------------------

TEST(Unroller, ModelsDecodeToMatchingReferenceSimulations) {
    constexpr std::uint32_t kFrames = 4;
    for (const std::uint64_t seed : {5ULL, 9ULL, 17ULL}) {
        const Netlist nl = testing::random_circuit(seed, 3, 3, 12);
        const netlist::Topology topo(nl);
        Solver solver;
        BinaryUnroller unroller(topo, solver);
        unroller.encode(kFrames);

        const auto inputs = nl.inputs();
        const auto seq_elems = nl.seq_elements();
        util::Rng rng(seed * 1000 + 1);
        for (int trial = 0; trial < 4; ++trial) {
            // Pin every primary input of every frame to a random binary
            // value; the initial state stays free (the solver picks it).
            std::vector<Lit> assumptions;
            for (std::uint32_t t = 0; t < kFrames; ++t)
                for (const GateId in : inputs)
                    assumptions.push_back(unroller.lit(in, t, rng.chance(0.5)));
            ASSERT_EQ(solver.solve(assumptions).status, SolveStatus::Sat);

            sim::InputSequence seq(kFrames, sim::InputFrame(inputs.size()));
            for (std::uint32_t t = 0; t < kFrames; ++t)
                for (std::size_t i = 0; i < inputs.size(); ++i)
                    seq[t][i] = lit_true(solver, unroller.lit(inputs[i], t))
                                    ? Val3::One
                                    : Val3::Zero;
            std::vector<Val3> init(seq_elems.size());
            for (std::size_t i = 0; i < seq_elems.size(); ++i)
                init[i] = lit_true(solver, unroller.lit(seq_elems[i], 0)) ? Val3::One
                                                                          : Val3::Zero;

            const sim::SequenceResult ref = sim::simulate_sequence(nl, seq, &init);
            for (std::uint32_t t = 0; t < kFrames; ++t) {
                for (GateId g = 0; g < nl.size(); ++g) {
                    const Val3 want = ref.frames[t][g];
                    ASSERT_NE(want, Val3::X);  // binary sources: fully binary
                    EXPECT_EQ(lit_true(solver, unroller.lit(g, t)),
                              want == Val3::One)
                        << "seed " << seed << " trial " << trial << " gate " << g
                        << " frame " << t;
                }
            }
        }
    }
}

TEST(Miter, VerdictsAgreeWithTheExhaustiveOracle) {
    constexpr std::uint32_t kFrames = 3;
    for (const std::uint64_t seed : {4ULL, 23ULL, 37ULL}) {
        const Netlist nl = testing::random_circuit(seed, 2, 2, 8);
        const netlist::Topology topo(nl);
        fault::FaultSimulator fsim(topo);
        const std::size_t m = nl.inputs().size();
        for (const Fault& f : fault::fault_universe(nl)) {
            const CnfVerdict v =
                prove_fault(topo, f, kFrames, nullptr, nullptr, nullptr);
            ASSERT_NE(v.kind, CnfVerdict::Kind::Unknown);  // ungoverned run
            if (v.kind == CnfVerdict::Kind::Test) {
                // Every witness must replay through the independent
                // simulator — the same validation the campaign applies.
                EXPECT_TRUE(fsim.detects(v.test, f))
                    << "seed " << seed << ": " << to_string(nl, f);
                continue;
            }
            // Untestable within kFrames: no binary sequence of length
            // <= kFrames may detect the fault. Exhaustive cross-check.
            EXPECT_NE(v.proof, fault::UntestableProof::None);
            for (std::size_t len = 1; len <= kFrames; ++len) {
                for (std::uint64_t bits = 0; bits < (1ULL << (m * len)); ++bits) {
                    sim::InputSequence seq(len, sim::InputFrame(m, Val3::X));
                    for (std::size_t t = 0; t < len; ++t)
                        for (std::size_t i = 0; i < m; ++i)
                            seq[t][i] =
                                (bits >> (t * m + i)) & 1 ? Val3::One : Val3::Zero;
                    ASSERT_FALSE(fsim.detects(seq, f))
                        << "seed " << seed << ": " << to_string(nl, f)
                        << " claimed untestable but detected at len " << len;
                }
            }
        }
    }
}

// --- SAT learn mode ----------------------------------------------------------

TEST(SatLearn, MinedFactsNeverContradictFrameSimLearning) {
    for (const std::uint64_t seed : {3ULL, 14ULL, 59ULL}) {
        const Netlist nl = testing::random_circuit(seed, 3, 4, 14);

        core::LearnConfig base;
        base.max_frames = 3;  // shallow window: leave the SAT probes room
        const core::LearnResult plain = testing::learn(nl, base);

        core::LearnConfig with_sat = base;
        with_sat.sat_frames = 6;
        const core::LearnResult mined = testing::learn(nl, with_sat);
        ASSERT_TRUE(mined.outcome.ok());
        EXPECT_GT(mined.stats.sat_probes, 0u);

        // Structural: merging SAT facts can only add ties, never flip one
        // (TieSet::set throws on contradiction, so completing at all is
        // already a proof — assert the values line up anyway).
        for (GateId g = 0; g < nl.size(); ++g) {
            if (plain.ties.value(g) == Val3::X) continue;
            EXPECT_EQ(mined.ties.value(g), plain.ties.value(g)) << "gate " << g;
        }

        // Empirical: random binary executions from the all-X power-up state
        // must obey every mined tie and relation from its frame tag on.
        constexpr std::size_t kLen = 10;
        const std::size_t m = nl.inputs().size();
        util::Rng rng(seed * 77 + 5);
        for (int trial = 0; trial < 8; ++trial) {
            sim::InputSequence seq(kLen, sim::InputFrame(m));
            for (auto& fr : seq)
                for (auto& v : fr) v = rng.chance(0.5) ? Val3::One : Val3::Zero;
            const sim::SequenceResult ref = sim::simulate_sequence(nl, seq);
            for (std::size_t t = 0; t < kLen; ++t) {
                for (GateId g = 0; g < nl.size(); ++g) {
                    const Val3 tie = mined.ties.value(g);
                    if (tie != Val3::X && t >= mined.ties.cycle(g) &&
                        ref.frames[t][g] != Val3::X) {
                        EXPECT_EQ(ref.frames[t][g], tie)
                            << "seed " << seed << " gate " << g << " frame " << t;
                    }
                }
                for (const core::Relation& r : mined.db.relations()) {
                    if (t < r.frame) continue;
                    if (ref.frames[t][r.lhs.gate] != r.lhs.value) continue;
                    if (ref.frames[t][r.rhs.gate] == Val3::X) continue;
                    EXPECT_EQ(ref.frames[t][r.rhs.gate], r.rhs.value)
                        << "seed " << seed << " frame " << t;
                }
            }
        }
    }
}

// --- backend routing through the campaign ------------------------------------

TEST(Backends, SatAndAutoLeaveNoFaultMerelyAborted) {
    for (const Backend backend : {Backend::Sat, Backend::Auto}) {
        const Netlist nl = testing::random_circuit(31, 3, 5, 16);
        const netlist::Topology topo(nl);
        fault::FaultList list(fault::fault_universe(nl));
        atpg::AtpgConfig cfg;
        cfg.backend = backend;
        cfg.sat_frames = 4;
        cfg.backtrack_limit = 2;  // starve frame-sim so aborts actually occur
        const atpg::AtpgOutcome out = atpg::run_atpg(topo, list, cfg);
        ASSERT_TRUE(out.run.ok());
        EXPECT_EQ(out.invalid_tests, 0u);
        EXPECT_GT(out.sat_targeted, 0u);
        // Acceptance: every frame-sim abort was re-dispatched to CNF and got
        // a definitive verdict; nothing is left merely Aborted.
        EXPECT_TRUE(list.aborted().empty()) << backend_name(backend);
        // Every bounded proof carries its frame bound in the records.
        for (const auto& rec : out.untestable_records) {
            if (rec.proof == fault::UntestableProof::BoundedCnf)
                EXPECT_EQ(rec.frames, cfg.sat_frames);
        }
    }
}

TEST(Backends, CampaignsAreThreadCountInvariant) {
    const Netlist nl = testing::random_circuit(47, 3, 4, 18);
    const netlist::Topology topo(nl);
    for (const Backend backend : {Backend::Sat, Backend::Auto}) {
        std::vector<std::vector<fault::FaultStatus>> statuses;
        std::vector<std::size_t> test_counts;
        for (const unsigned threads : {1u, 2u, 8u}) {
            exec::Pool pool(threads);
            fault::FaultList list(fault::fault_universe(nl));
            atpg::AtpgConfig cfg;
            cfg.backend = backend;
            cfg.sat_frames = 4;
            cfg.backtrack_limit = 5;
            cfg.executor = &pool;
            const atpg::AtpgOutcome out = atpg::run_atpg(topo, list, cfg);
            ASSERT_TRUE(out.run.ok());
            std::vector<fault::FaultStatus> st(list.size());
            for (std::size_t i = 0; i < list.size(); ++i) st[i] = list.status(i);
            statuses.push_back(std::move(st));
            test_counts.push_back(out.tests.size());
        }
        EXPECT_EQ(statuses[0], statuses[1]) << backend_name(backend);
        EXPECT_EQ(statuses[0], statuses[2]) << backend_name(backend);
        EXPECT_EQ(test_counts[0], test_counts[1]) << backend_name(backend);
        EXPECT_EQ(test_counts[0], test_counts[2]) << backend_name(backend);
    }
}

// A bounded proof is not proven untestability: `seqlearn_cli atpg
// suite:fig1x --backend sat` proves 2 faults untestable (tie gates) and 18
// only within its frame bound, and test coverage keeps those 18 in its
// denominator — 47 of 65, not 1.0.
TEST(Backends, BoundedProofsStayOutOfTestCoverage) {
    const char* const flags[] = {"--backend", "sat"};
    const atpg::AtpgConfig cfg = api::atpg_config_from(api::ArgvFields(2, flags));
    api::Session session(workload::suite_circuit("fig1x"));
    const api::AtpgReport& report = session.atpg(cfg);
    ASSERT_TRUE(report.outcome.run.ok());
    const fault::FaultList::Counts c = report.list.counts();
    EXPECT_EQ(c.total, 67u);
    EXPECT_EQ(c.detected, 47u);
    EXPECT_EQ(c.untestable, 2u);
    EXPECT_EQ(c.untestable_bounded, 18u);
    EXPECT_EQ(c.aborted, 0u);
    EXPECT_EQ(c.undetected, 0u);
    EXPECT_DOUBLE_EQ(report.list.test_coverage(), 47.0 / 65.0);
    std::size_t bounded_records = 0;
    for (const auto& rec : report.outcome.untestable_records)
        bounded_records += rec.proof == fault::UntestableProof::BoundedCnf;
    EXPECT_EQ(bounded_records, c.untestable_bounded);
}

TEST(Backends, ProveFaultHonoursADeadlineBudget) {
    // A deliberately expired budget: the verdict must be Unknown with the
    // DeadlineExceeded outcome — never a hang, never a throw.
    const Netlist nl = testing::random_circuit(8, 3, 4, 20);
    const netlist::Topology topo(nl);
    exec::BudgetSpec spec;
    spec.deadline = std::chrono::milliseconds(1);
    exec::Budget budget(spec);
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    bool saw_unknown = false;
    for (const Fault& f : fault::fault_universe(nl)) {
        const CnfVerdict v = prove_fault(topo, f, 8, nullptr, nullptr, &budget);
        if (v.kind == CnfVerdict::Kind::Unknown) {
            EXPECT_EQ(v.run.status, exec::RunStatus::DeadlineExceeded);
            saw_unknown = true;
        }
    }
    // At least the harder faults must have hit the (expired) deadline; tiny
    // cones may legitimately finish before the first governance poll.
    EXPECT_TRUE(saw_unknown);
}

}  // namespace
}  // namespace seqlearn::cnf
