#include "core/seq_learn.hpp"

#include "cnf/sat_learn.hpp"
#include "netlist/clock_class.hpp"
#include "util/timer.hpp"

#include <algorithm>
#include <stdexcept>

namespace seqlearn::core {

using netlist::GateId;
using netlist::Netlist;

namespace {

// Derived statistics shared by every exit path (clean, stopped, failed):
// they are pure functions of the accumulated db/ties, so they stay correct
// on any prefix.
void finalize_stats(LearnResult& result, const Netlist& nl, const util::Timer& timer) {
    const ImplicationDB::Counts seq_counts = result.db.counts(nl, /*min_frame=*/1);
    const ImplicationDB::Counts all_counts = result.db.counts(nl, /*min_frame=*/0);
    result.stats.ff_ff_relations = seq_counts.ff_ff;
    result.stats.gate_ff_relations = seq_counts.gate_ff;
    result.stats.comb_relations =
        (all_counts.ff_ff + all_counts.gate_ff + all_counts.gate_gate) -
        (seq_counts.ff_ff + seq_counts.gate_ff + seq_counts.gate_gate);
    result.stats.ties_combinational = result.ties.count_combinational();
    result.stats.ties_sequential = result.ties.count_sequential();
    result.stats.cpu_seconds = timer.seconds();
    result.stats.cancelled = !result.outcome.ok();
}

exec::RunOutcome outcome_from(exec::RunStatus st, const exec::Budget* budget) {
    exec::RunOutcome o;
    o.status = st;
    if (budget != nullptr && budget->detail() != nullptr &&
        (st == exec::RunStatus::DeadlineExceeded || st == exec::RunStatus::LimitReached)) {
        o.diagnostic = budget->detail();
    }
    return o;
}

LearnResult learn_impl(const Netlist& nl, const netlist::Topology& topo,
                       const LearnConfig& cfg, const LearnCheckpoint* ckpt) {
    const util::Timer timer;
    LearnResult result(nl.size());

    // The budget clock starts here, at run entry.
    exec::Budget budget(cfg.budget);
    exec::Budget* budget_ptr = cfg.budget.any() ? &budget : nullptr;

    // Resolve the execution environment once: a shared executor when the
    // caller (typically a Session) provides one, a private pool when more
    // than one thread is requested, pure serial otherwise. The serial path
    // never touches the pool machinery.
    const exec::StageExec ex = exec::resolve_stage_exec(cfg.executor, cfg.threads);
    const LearnExecEnv env{ex.pool, ex.workers, cfg.cancel, budget_ptr, cfg.failpoint};

    std::size_t start_class = 0;
    std::size_t start_unit = 0;
    bool start_in_multi = false;
    if (ckpt != nullptr) {
        result.db = ckpt->db;
        result.ties = ckpt->ties;
        result.stats.stems_processed = ckpt->stems_processed;
        result.stats.multi_targets = ckpt->multi_targets;
        result.stats.multi_relations = ckpt->multi_relations;
        result.stats.multi_ties = ckpt->multi_ties;
        start_class = ckpt->cursor.class_index;
        start_unit = ckpt->cursor.unit;
        start_in_multi = ckpt->cursor.in_multi;
    }

    try {
        if (cfg.use_equivalences) {
            result.equivalences = find_equivalences(nl, cfg.equiv, ex.pool, ex.workers);
            result.stats.equiv_classes = result.equivalences.num_classes;
        }

        const std::vector<GateId> stems = nl.stems();
        result.stats.stems = stems.size();

        // One learning pass per clock class; a single-domain circuit gets one
        // pass with everything open.
        std::vector<netlist::ClockClass> classes;
        if (cfg.respect_clock_classes) {
            classes = netlist::clock_classes(nl);
        }
        if (classes.empty()) {
            netlist::ClockClass all;
            all.members.assign(nl.seq_elements().begin(), nl.seq_elements().end());
            classes.push_back(std::move(all));
        }

        // Progress is reported monotonically across the per-class passes
        // (each pass visits every stem): done runs 0 .. classes * stems.
        std::size_t stems_done_base = start_class * stems.size();
        ProgressFn progress;
        if (cfg.on_stem) {
            const std::size_t grand_total = classes.size() * stems.size();
            progress = [&cfg, &stems_done_base, grand_total](std::size_t done, std::size_t) {
                return cfg.on_stem(stems_done_base + done, grand_total);
            };
        }

        // Every per-class simulator — one per worker — shares the caller's
        // CSR snapshot; only the cheap mutable scratch is cloned. All of
        // them alias the result's tie vectors, so committed ties are
        // simulation facts for every later stem regardless of which worker
        // simulates it.
        const unsigned num_sims = std::max(1u, ex.workers);
        const std::uint64_t digest = learn_config_digest(cfg);
        bool stopped = false;
        for (std::size_t ci = start_class; ci < classes.size() && !stopped; ++ci) {
            const netlist::ClockClass& cls = classes[ci];
            const sim::SeqGating gating = sim::SeqGating::for_class(nl, cls.members);
            std::vector<sim::BatchFrameSimulator> sims;
            sims.reserve(num_sims);
            for (unsigned w = 0; w < num_sims; ++w) {
                sims.emplace_back(topo, gating);
                if (cfg.use_equivalences)
                    sims.back().set_equivalences(&result.equivalences.map);
                sims.back().set_ties(&result.ties.dense(), &result.ties.dense_cycles());
            }

            // Resuming mid-class restores that class's records and skips the
            // already-processed schedule prefix; the carried ties/db make the
            // remaining stems see exactly the state the interrupted run left.
            const bool resuming_here = ckpt != nullptr && ci == start_class;
            StemRecords records(cfg.record_cap);
            if (resuming_here) records = ckpt->records;
            const bool skip_single = resuming_here && start_in_multi;
            const std::size_t first_stem = (resuming_here && !start_in_multi) ? start_unit : 0;

            if (!skip_single) {
                const SingleNodeOutcome single = single_node_learning(
                    nl, sims, std::span<const GateId>(stems).subspan(first_stem),
                    cfg.max_frames, result.ties, result.db, records,
                    progress ? &progress : nullptr, env);
                result.stats.stems_processed += single.stems_processed;
                if (single.stop != exec::RunStatus::Completed) {
                    result.outcome = outcome_from(single.stop, budget_ptr);
                    result.cursor = {true, ci, false, first_stem + single.next_index, digest};
                    result.records = std::move(records);
                    stopped = true;
                    break;
                }
            }
            stems_done_base += stems.size();

            if (cfg.multiple_node) {
                MultipleNodeConfig mcfg = cfg.multi;
                mcfg.max_frames = cfg.max_frames;
                const std::size_t first_target = skip_single ? start_unit : 0;
                const MultipleNodeOutcome multi = multiple_node_learning(
                    nl, sims, records, mcfg, result.ties, result.db, env, first_target);
                result.stats.multi_targets += multi.targets_processed;
                result.stats.multi_relations += multi.relations_added;
                result.stats.multi_ties += multi.ties_found;
                if (multi.stop != exec::RunStatus::Completed) {
                    result.outcome = outcome_from(multi.stop, budget_ptr);
                    result.cursor = {true, ci, true, multi.next_index, digest};
                    result.records = std::move(records);
                    stopped = true;
                    break;
                }
            }
        }

        // SAT learn mode: probe a K-frame CNF unrolling seeded with
        // everything the frame-simulation passes proved. Serial and
        // deterministic; a governance stop keeps the mined prefix but
        // invalidates the cursor (the phase has no resume schedule).
        if (!stopped && cfg.sat_frames > 0) {
            const cnf::Seeds seeds{&result.ties, &result.db,
                                   cfg.use_equivalences ? &result.equivalences : nullptr};
            const cnf::SatLearnResult sat =
                cnf::sat_learn(topo, cfg.sat_frames, stems, seeds,
                               cnf::capture_model_for(nl), cfg.cancel, budget_ptr);
            for (const cnf::SatTie& t : sat.ties) result.ties.set(t.gate, t.value, t.cycle);
            for (const core::Relation& r : sat.relations)
                result.db.add(r.lhs, r.rhs, r.frame);
            result.stats.sat_probes += sat.stats.probes;
            result.stats.sat_ties += sat.stats.ties;
            result.stats.sat_relations += sat.stats.relations;
            if (!sat.run.ok()) {
                result.outcome = sat.run;
                result.cursor = {};
            }
        }
    } catch (const std::exception& e) {
        // Never throw across the learn() boundary: the committed prefix in
        // db/ties is intact (speculation windows apply nothing after a
        // throw), but the exact stop point is unknown — not resumable.
        result.outcome = exec::RunOutcome::failed(e.what());
        result.cursor = {};
        finalize_stats(result, nl, timer);
        return result;
    }

    finalize_stats(result, nl, timer);
    return result;
}

}  // namespace

std::uint64_t learn_config_digest(const LearnConfig& cfg) {
    std::uint64_t h = 1469598103934665603ULL;  // FNV-1a
    auto mix = [&h](std::uint64_t v) {
        h ^= v;
        h *= 1099511628211ULL;
    };
    mix(cfg.max_frames);
    mix(cfg.stop_on_state_repeat ? 1 : 0);
    mix(cfg.multiple_node ? 1 : 0);
    mix(cfg.use_equivalences ? 1 : 0);
    mix(cfg.respect_clock_classes ? 1 : 0);
    mix(cfg.sat_frames);
    mix(cfg.record_cap);
    mix(cfg.multi.min_records);
    mix(cfg.multi.max_targets);
    mix(cfg.equiv.sig_rounds);
    mix(cfg.equiv.support_cap);
    mix(cfg.equiv.max_bucket);
    mix(cfg.equiv.seed);
    return h;
}

LearnCheckpoint make_checkpoint(const Netlist& nl, const LearnResult& result) {
    if (!result.cursor.valid)
        throw std::logic_error("make_checkpoint: learn result has no resume cursor");
    LearnCheckpoint ckpt(nl.size());
    ckpt.cursor = result.cursor;
    ckpt.db = result.db;
    ckpt.ties = result.ties;
    ckpt.records = result.records;
    ckpt.stems_processed = result.stats.stems_processed;
    ckpt.multi_targets = result.stats.multi_targets;
    ckpt.multi_relations = result.stats.multi_relations;
    ckpt.multi_ties = result.stats.multi_ties;
    ckpt.circuit = nl.name();
    return ckpt;
}

LearnResult learn(const Netlist& nl, const netlist::Topology& topo, const LearnConfig& cfg) {
    return learn_impl(nl, topo, cfg, nullptr);
}

LearnResult resume_learn(const Netlist& nl, const netlist::Topology& topo,
                         const LearnConfig& cfg, const LearnCheckpoint& ckpt) {
    if (!ckpt.cursor.valid)
        throw std::invalid_argument("resume_learn: checkpoint has no resume cursor");
    if (!ckpt.circuit.empty() && ckpt.circuit != nl.name())
        throw std::invalid_argument("resume_learn: checkpoint is for circuit '" +
                                    ckpt.circuit + "', not '" + nl.name() + "'");
    if (ckpt.ties.dense().size() != nl.size())
        throw std::invalid_argument("resume_learn: checkpoint gate count mismatch");
    if (ckpt.cursor.config_digest != learn_config_digest(cfg))
        throw std::invalid_argument(
            "resume_learn: checkpoint was taken under a different learning config");
    return learn_impl(nl, topo, cfg, &ckpt);
}

}  // namespace seqlearn::core
