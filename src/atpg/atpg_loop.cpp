#include "atpg/atpg_loop.hpp"

#include "atpg/redundancy.hpp"
#include "netlist/structure.hpp"
#include "util/bytes.hpp"
#include "util/timer.hpp"

#include <algorithm>
#include <memory>

namespace seqlearn::atpg {

using fault::FaultStatus;

namespace {

/// Frames per random warmup sequence.
constexpr std::size_t kWarmupLength = 24;

// Seed of the warmup (and random-fill) stream: an FNV-1a digest of every
// result-affecting knob, so the same campaign configuration always replays
// the same random patterns — on any machine, at any thread count — while
// distinct configurations draw distinct streams. The two constants stand
// where settings of earlier releases were mixed, keeping every stream as it
// was.
std::uint64_t config_seed(const AtpgConfig& cfg) {
    return util::Fnv1a{}
        .mix(static_cast<std::uint64_t>(cfg.rand_warmup))
        .mix(kWarmupLength)
        .mix(static_cast<std::uint64_t>(cfg.backtrack_limit))
        .mix(kMaxDecisions)
        .mix(static_cast<std::uint64_t>(cfg.sat_frames))
        .mix(static_cast<std::uint64_t>(cfg.backend))
        .mix(static_cast<std::uint64_t>(cfg.mode))
        .mix(static_cast<std::uint64_t>(cfg.order))
        .mix(cfg.order_seed)
        .mix(static_cast<std::uint64_t>(cfg.guidance))
        .mix(static_cast<std::uint64_t>(cfg.fill))
        .value;
}

std::vector<std::uint32_t> default_windows(const netlist::Topology& topo) {
    const std::size_t depth = netlist::sequential_depth(topo, 16);
    const std::uint32_t max_w =
        std::clamp<std::uint32_t>(static_cast<std::uint32_t>(2 * depth + 2), 4, 20);
    std::vector<std::uint32_t> out;
    for (std::uint32_t w = 1; w < max_w; w = w < 4 ? w + 1 : w + (w / 2)) out.push_back(w);
    out.push_back(max_w);
    return out;
}

// Outcome of one deterministic target: everything the solve attempt decided
// plus the counters it accumulated. Computing this touches only the
// validating simulator and the fault itself — never the fault list — which
// is what makes a window of targets safe to solve in parallel ahead of
// their commits.
struct TargetVerdict {
    enum class Kind : std::uint8_t { Skipped, Untestable, Test, Aborted, Exhausted };
    Kind kind = Kind::Skipped;
    sim::InputSequence test;
    std::uint64_t backtracks = 0;
    std::size_t gen_calls = 0;
    std::size_t invalid_tests = 0;
};

TargetVerdict solve_target(fault::FaultSimulator& fsim, const fault::Fault& f,
                           const EngineConfig& ecfg, const AtpgConfig& cfg,
                           std::span<const std::uint32_t> windows) {
    const netlist::Topology& topo = fsim.topology();
    TargetVerdict v;
    if (cfg.identify_untestable) {
        const RedundancyResult verdict =
            prove_redundancy(topo, f, ecfg, cfg.redundancy_effort);
        if (verdict.proof != fault::UntestableProof::None) {
            v.kind = TargetVerdict::Kind::Untestable;
            return v;
        }
    }
    for (const std::uint32_t w : windows) {
        ++v.gen_calls;
        const EngineResult r = solve(topo, f, w, ecfg);
        v.backtracks += r.backtracks;
        if (r.status == EngineResult::Status::Aborted) {
            v.kind = TargetVerdict::Kind::Aborted;
            return v;  // larger windows only search more
        }
        if (r.status != EngineResult::Status::TestFound) continue;
        if (!fsim.detects(r.test, f)) {
            ++v.invalid_tests;
            continue;
        }
        v.kind = TargetVerdict::Kind::Test;
        v.test = r.test;
        return v;
    }
    v.kind = TargetVerdict::Kind::Exhausted;
    return v;
}

// Apply a verdict to the shared campaign state — always on the calling
// thread, always in fault-index order. `fsim` is the campaign's primary
// simulator (its drop_detected may itself fan out over the pool).
void apply_verdict(TargetVerdict&& v, std::size_t fault_index, fault::FaultList& list,
                   fault::FaultSimulator& fsim, AtpgOutcome& out) {
    out.gen_calls += v.gen_calls;
    out.total_backtracks += v.backtracks;
    out.invalid_tests += v.invalid_tests;
    switch (v.kind) {
        case TargetVerdict::Kind::Untestable:
            list.set_status(fault_index, FaultStatus::Untestable);
            ++out.untestable_by_proof;
            out.untestable_records.push_back(
                {fault_index, fault::UntestableProof::Combinational, 0});
            break;
        case TargetVerdict::Kind::Test:
            // First-detection credit: the test drops every fault it detects
            // (this one included) before any later target commits.
            fsim.drop_detected(v.test, list);
            out.tests.push_back(std::move(v.test));
            break;
        case TargetVerdict::Kind::Aborted:
            if (list.status(fault_index) == FaultStatus::Undetected)
                list.set_status(fault_index, FaultStatus::Aborted);
            break;
        case TargetVerdict::Kind::Exhausted:
        case TargetVerdict::Kind::Skipped:
            break;
    }
}

// The campaign body; every early stop records out.run and returns. Exceptions
// escape to run_atpg's catch (commit walks run on the calling thread with no
// window in flight, so unwinding cannot deadlock or tear shared state).
void run_campaign(fault::FaultSimulator& fsim, fault::FaultList& list, const AtpgConfig& cfg,
                  exec::Budget* budget, AtpgOutcome& out) {
    const netlist::Topology& topo = fsim.topology();

    if (cfg.learned != nullptr) {
        // Tie-augmented good simulation: keeps validation in step with the
        // tie facts the engine asserts (Section 4 / reference [15] gap).
        fsim.set_good_ties(&cfg.learned->ties.dense(), &cfg.learned->ties.dense_cycles());
    } else {
        fsim.set_good_ties(nullptr, nullptr);
    }

    EngineConfig ecfg;
    ecfg.mode = cfg.mode;
    ecfg.backtrack_limit = cfg.backtrack_limit;
    if (cfg.learned != nullptr) {
        ecfg.db = &cfg.learned->db;
        ecfg.ties = &cfg.learned->ties;
    }

    // Testability: use the Design-cached analysis when the caller provided
    // one, otherwise compute locally iff a SCOAP consumer needs it. The
    // object is immutable after construction, so the parallel campaign's
    // workers share it read-only.
    const bool needs_scoap = cfg.guidance == guide::Guidance::Scoap ||
                             cfg.order == guide::OrderStrategy::ScoapHardFirst;
    std::unique_ptr<guide::Testability> owned_tst;
    const guide::Testability* tst = cfg.testability;
    if (needs_scoap && tst == nullptr) {
        owned_tst = std::make_unique<guide::Testability>(topo);
        tst = owned_tst.get();
    }
    if (cfg.guidance == guide::Guidance::Scoap) ecfg.guide = tst;

    // Tie-derived untestable faults: a fault stuck at the tied value of its
    // line can never be excited. Fault equivalence makes this valid for the
    // whole class of each marked representative.
    if (cfg.identify_untestable && cfg.learned != nullptr) {
        const std::uint32_t max_cycle = cfg.count_c_cycle_redundant ? core::TieSet::kAnyCycle : 0;
        for (std::size_t i = 0; i < list.size(); ++i) {
            if (list.status(i) != FaultStatus::Undetected) continue;
            if (!cfg.learned->ties.stuck_at_tie(topo, list.fault(i), max_cycle)) continue;
            list.set_status(i, FaultStatus::Untestable);
            ++out.untestable_by_tie;
            out.untestable_records.push_back({i, fault::UntestableProof::TieGate, 0});
        }
    }

    // Config-seeded random warmup: cheap coverage of the easy faults so the
    // deterministic engine only sees the hard remainder. The stream is a
    // pure function of the campaign configuration, so a scenario row is
    // reproducible without the caller picking a seed.
    if (cfg.rand_warmup > 0) {
        const exec::RunStatus st = exec::poll_point(cfg.cancel, budget);
        if (st != exec::RunStatus::Completed) {
            out.run = exec::outcome_from(st, budget);
            return;
        }
        const guide::WarmupStats ws =
            guide::random_warmup(fsim, list, topo.inputs().size(), cfg.rand_warmup,
                                 kWarmupLength, config_seed(cfg), out.tests);
        out.detected_by_warmup = ws.dropped;
        out.warmup_sequences = ws.sequences_kept;
    }

    const std::vector<std::uint32_t> windows =
        cfg.windows.empty() ? default_windows(topo) : cfg.windows;
    // CNF frame bound: explicit, or the deepest window of the schedule.
    const std::uint32_t sat_k = cfg.sat_frames != 0 ? cfg.sat_frames : windows.back();
    const core::TieSet* ties = cfg.learned != nullptr ? &cfg.learned->ties : nullptr;

    // Backend routing: Sat sends everything to the CNF phase; Auto asks the
    // deterministic cost model per fault (a pure function of the topology,
    // the ties, and the fault — identical across runs and thread counts).
    std::vector<std::size_t> targets;
    std::vector<std::size_t> sat_queue;
    for (const std::size_t i : list.undetected()) {
        bool to_sat = false;
        if (cfg.backend == cnf::Backend::Sat) {
            to_sat = true;
        } else if (cfg.backend == cnf::Backend::Auto) {
            to_sat = cnf::route_to_sat(topo, list.fault(i), sat_k, ties,
                                       cfg.guidance == guide::Guidance::Scoap ? tst
                                                                              : nullptr);
        }
        (to_sat ? sat_queue : targets).push_back(i);
    }
    // Fault ordering permutes the canonical schedule; the SAT queue keeps
    // index order (its solves are serial and order-insensitive).
    guide::order_targets(targets, cfg.order, topo, list, tst, cfg.order_seed);
    const std::size_t total_targets = targets.size();

    // The CNF re-dispatch phase: pre-routed faults plus (Auto) every fault
    // the frame-sim engine aborted, in fault-index order. Runs serially —
    // each solve is internally deterministic and budget-polled, so verdicts
    // are identical at any thread count. Witnesses are validated by the
    // independent fault simulator before any credit, exactly like engine
    // tests; UNSAT classifies the fault untestable within sat_k frames.
    auto run_sat_phase = [&]() {
        if (cfg.backend == cnf::Backend::FrameSim || !out.run.ok()) return;
        std::vector<std::size_t> sat_targets = std::move(sat_queue);
        if (cfg.backend == cnf::Backend::Auto) {
            const std::vector<std::size_t> aborted = list.aborted();
            sat_targets.insert(sat_targets.end(), aborted.begin(), aborted.end());
            std::sort(sat_targets.begin(), sat_targets.end());
        }
        for (const std::size_t i : sat_targets) {
            const FaultStatus before = list.status(i);
            if (before != FaultStatus::Undetected && before != FaultStatus::Aborted)
                continue;
            const exec::RunStatus st = exec::poll_point(cfg.cancel, budget);
            if (st != exec::RunStatus::Completed) {
                out.run = exec::outcome_from(st, budget);
                return;
            }
            if (cfg.failpoint != nullptr) cfg.failpoint->poll(exec::FailSite::WorkItem);
            ++out.sat_targeted;
            cnf::CnfVerdict v =
                cnf::prove_fault(topo, list.fault(i), sat_k, ties, cfg.cancel, budget);
            switch (v.kind) {
                case cnf::CnfVerdict::Kind::Untestable:
                    list.set_status(i, v.proof == fault::UntestableProof::Structural
                                           ? FaultStatus::Untestable
                                           : FaultStatus::UntestableBounded);
                    ++out.untestable_by_cnf;
                    out.untestable_records.push_back(
                        {i, v.proof,
                         v.proof == fault::UntestableProof::BoundedCnf ? sat_k : 0});
                    break;
                case cnf::CnfVerdict::Kind::Test:
                    if (!fsim.detects(v.test, list.fault(i))) {
                        ++out.invalid_tests;
                        break;
                    }
                    ++out.sat_witnesses;
                    // drop_detected only scans Undetected faults, so credit
                    // the (possibly Aborted) target explicitly first.
                    list.set_status(i, FaultStatus::Detected);
                    fsim.drop_detected(v.test, list);
                    out.tests.push_back(std::move(v.test));
                    break;
                case cnf::CnfVerdict::Kind::Unknown:
                    out.run = v.run;
                    return;
            }
            if (budget != nullptr) budget->note_item();
        }
    };

    // Target solves run on the campaign's pool, at most one worker per
    // target, worker w validating on the simulator's clone w (worker 0 on
    // the simulator itself; drop_detected's passes run on the same clones,
    // never while a window solves). A solve depends only on the fault —
    // never on the list — so it is never stale; the only wasted work is
    // solving a target that a test committed just before it drops.
    const unsigned workers = static_cast<unsigned>(std::clamp<std::size_t>(
        targets.size(), 1, cfg.executor != nullptr ? cfg.executor->size() : 1));
    fsim.prepare_clones(workers);

    // Solve into slots[s] the target at schedule position base + s.
    std::vector<TargetVerdict> slots(workers == 1 ? 1 : 2 * static_cast<std::size_t>(workers));
    std::size_t base = 0;
    auto solve = [&](unsigned worker, std::size_t slot) {
        TargetVerdict& v = slots[slot];
        const std::size_t i = targets[base + slot];
        if (list.status(i) != FaultStatus::Undetected) {
            // Dropped by a test committed before this window was dispatched;
            // statuses never return to Undetected, so the commit will skip
            // it too.
            v = TargetVerdict{};
            return;
        }
        // Fast abort: a pending stop means the next in-order commit stops, so
        // this solve is wasted work. Commits alone count items and none runs
        // while a window solves, so a reached item limit is final here.
        if (exec::poll_point(cfg.cancel, budget) != exec::RunStatus::Completed) {
            v = TargetVerdict{};
            return;
        }
        if (cfg.failpoint != nullptr) cfg.failpoint->poll(exec::FailSite::WorkItem);
        v = solve_target(fsim.clone(worker), list.fault(i), ecfg, cfg, windows);
    };
    // Commit the verdict in `slot` on the calling thread; false stops the
    // campaign.
    auto commit = [&](std::size_t slot) {
        const std::size_t i = targets[base + slot];
        const exec::RunStatus st = exec::poll_point(cfg.cancel, budget);
        if (st != exec::RunStatus::Completed) {
            out.run = exec::outcome_from(st, budget);
            return false;
        }
        if (list.status(i) != FaultStatus::Undetected) return true;
        if (cfg.on_fault && !cfg.on_fault(out.targeted_faults, total_targets)) {
            out.run.status = exec::RunStatus::Cancelled;
            return false;
        }
        if (cfg.failpoint != nullptr) cfg.failpoint->poll(exec::FailSite::SpecCommit);
        ++out.targeted_faults;
        apply_verdict(std::move(slots[slot]), i, list, fsim, out);
        if (budget != nullptr) budget->note_item();
        return true;
    };
    // Windows of `workers` targets, then of twice that, each solved on the
    // pool and then committed in schedule order, so the result is the
    // one-worker schedule's; one worker solves and commits each target in
    // turn.
    for (std::size_t window = workers; base < targets.size(); window = slots.size()) {
        const std::size_t n = std::min(window, targets.size() - base);
        exec::run(cfg.executor, n, exec::TaskView(solve));
        for (std::size_t s = 0; s < n; ++s) {
            if (!commit(s)) return;
        }
        base += n;
    }
    run_sat_phase();
}

}  // namespace

AtpgOutcome run_atpg(fault::FaultSimulator& fsim, fault::FaultList& list,
                     const AtpgConfig& cfg) {
    const util::Timer timer;
    AtpgOutcome out;

    // The budget clock starts here, at campaign entry; the fault simulator
    // shares the governance hooks for its pass boundaries and drops them
    // again before returning (the Budget is stack-local).
    exec::Budget budget(cfg.budget);
    exec::Budget* budget_ptr = cfg.budget.any() ? &budget : nullptr;
    fsim.set_governance(cfg.cancel, budget_ptr, cfg.failpoint);
    try {
        run_campaign(fsim, list, cfg, budget_ptr, out);
        // Static compaction runs only over a complete campaign: a stopped
        // run keeps its raw tests so partial results stay exactly what was
        // committed. Compaction reads the list but never writes it — final
        // fault statuses are unaffected.
        if (cfg.compact && out.run.ok() && !out.tests.empty()) {
            const guide::CompactionStats cs = guide::compact_tests(
                fsim, list.faults(), out.tests, cfg.fill, config_seed(cfg));
            out.compaction_before = cs.before;
            out.compaction_after = cs.after;
        }
    } catch (const std::exception& e) {
        // Never throw across the campaign boundary: tests and fault statuses
        // committed before the failure are intact (a window whose solves
        // throw commits nothing).
        out.run = exec::RunOutcome::failed(e.what());
    }
    fsim.set_governance(nullptr, nullptr, nullptr);
    fsim.release_unused_clones();
    out.cpu_seconds = timer.seconds();
    for (const sim::InputSequence& t : out.tests) out.pattern_frames += t.size();
    return out;
}

AtpgOutcome run_atpg(const netlist::Topology& topo, fault::FaultList& list,
                     const AtpgConfig& cfg) {
    fault::FaultSimulator fsim(topo);
    fsim.set_executor(cfg.executor);
    return run_atpg(fsim, list, cfg);
}

}  // namespace seqlearn::atpg
