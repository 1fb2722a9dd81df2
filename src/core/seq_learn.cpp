#include "core/seq_learn.hpp"

#include "cnf/sat_learn.hpp"
#include "netlist/clock_class.hpp"
#include "util/bytes.hpp"
#include "util/timer.hpp"

#include <stdexcept>

namespace seqlearn::core {

using netlist::GateId;
using netlist::Netlist;

namespace {

/// Stem records kept per (node, value) key; dropping the rest is sound (see
/// StemRecords).
constexpr std::size_t kRecordCap = 64;

// Derived statistics shared by every exit path (clean, stopped, failed):
// they are pure functions of the accumulated db/ties, so they stay correct
// on any prefix.
void finalize_stats(LearnResult& result, const Netlist& nl, const util::Timer& timer) {
    // The result outlives the run (a Session and the daemon's cache hold
    // it), so it keeps no growth slack.
    result.db.shrink_to_fit();
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
}

LearnResult learn_impl(const Netlist& nl, const netlist::Topology& topo,
                       const LearnConfig& cfg, LearnResult* partial) {
    const util::Timer timer;
    LearnResult result(nl.size());

    // The budget clock starts here, at run entry.
    exec::Budget budget(cfg.budget);
    exec::Budget* budget_ptr = cfg.budget.any() ? &budget : nullptr;

    const LearnExecEnv env{cfg.cancel, budget_ptr, cfg.failpoint};

    std::size_t start_class = 0;
    std::size_t start_unit = 0;
    bool start_in_multi = false;
    if (partial != nullptr) {
        result.db = std::move(partial->db);
        result.ties = std::move(partial->ties);
        result.stats.stems_processed = partial->stats.stems_processed;
        result.stats.multi_targets = partial->stats.multi_targets;
        result.stats.multi_relations = partial->stats.multi_relations;
        result.stats.multi_ties = partial->stats.multi_ties;
        start_class = partial->cursor.class_index;
        start_unit = partial->cursor.unit;
        start_in_multi = partial->cursor.in_multi;
    }

    try {
        if (cfg.use_equivalences) {
            result.equivalences = find_equivalences(nl, topo);
            result.stats.equiv_classes = result.equivalences.num_classes;
        }

        const std::vector<GateId> stems = nl.stems();
        result.stats.stems = stems.size();

        // One learning pass per clock class; a single-domain circuit gets one
        // pass with everything open.
        std::vector<netlist::ClockClass> classes = netlist::clock_classes(nl);
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

        // Each class's simulator shares the caller's CSR snapshot and runs
        // against the class's background (constants, ties so far, their
        // forcings and carried state). The passes extend the background
        // with every tie they commit, so committed ties are simulation facts
        // for every later stem.
        const std::uint64_t digest = learn_config_digest(cfg);
        bool stopped = false;
        for (std::size_t ci = start_class; ci < classes.size() && !stopped; ++ci) {
            const netlist::ClockClass& cls = classes[ci];
            const sim::SeqGating gating = sim::SeqGating::for_class(nl, cls.members);
            sim::TieClosure closure(topo, gating,
                                    cfg.use_equivalences ? &result.equivalences.map : nullptr,
                                    cfg.max_frames, &result.ties.dense(),
                                    &result.ties.dense_cycles());
            sim::BatchFrameSimulator bsim(closure);

            // Resuming mid-class restores that class's records and skips the
            // already-processed schedule prefix; the carried ties/db make the
            // remaining stems see exactly the state the interrupted run left.
            const bool resuming_here = partial != nullptr && ci == start_class;
            StemRecords records(kRecordCap);
            if (resuming_here) records = std::move(partial->records);
            const bool skip_single = resuming_here && start_in_multi;
            const std::size_t first_stem = (resuming_here && !start_in_multi) ? start_unit : 0;

            // A stopped pass leaves the resume cursor at its first
            // unprocessed unit.
            auto stop_at = [&](const PassOutcome& pass, bool in_multi) {
                if (pass.stop == exec::RunStatus::Completed) return false;
                result.outcome = exec::outcome_from(pass.stop, budget_ptr);
                result.cursor = {true, ci, in_multi, pass.next_index, digest, nl.name()};
                result.records = std::move(records);
                return true;
            };
            if (!skip_single) {
                const PassOutcome single = single_node_learning(
                    nl, bsim, closure, stems, cfg.max_frames, result.ties, result.db, records,
                    progress ? &progress : nullptr, env, first_stem);
                result.stats.stems_processed += single.processed;
                stopped = stop_at(single, false);
            }
            stems_done_base += stems.size();

            if (!stopped && cfg.multiple_node) {
                const std::size_t first_target = skip_single ? start_unit : 0;
                const PassOutcome multi = multiple_node_learning(
                    nl, bsim, closure, records, cfg.max_frames, result.ties, result.db, env,
                    first_target);
                result.stats.multi_targets += multi.processed;
                result.stats.multi_relations += multi.relations_added;
                result.stats.multi_ties += multi.ties_found;
                stopped = stop_at(multi, true);
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
        // Never throw across the learn() boundary: every relation and tie
        // committed so far is proven, but the exact stop point is unknown —
        // not resumable.
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
    // Fixed values stand where earlier releases mixed settings callers could
    // change, in their old order, so checkpoints those releases wrote still
    // resume.
    return util::Fnv1a{}
        .mix(cfg.max_frames)
        .mix(1)  // stop a stem's run on a repeated state
        .mix(cfg.multiple_node ? 1 : 0)
        .mix(cfg.use_equivalences ? 1 : 0)
        .mix(1)  // one pass per clock class
        .mix(cfg.sat_frames)
        .mix(kRecordCap)
        .mix(kMinTargetRecords)
        .mix(0)  // no cap on multiple-node targets
        .mix(kSignatureRounds)
        .mix(kSupportCap)
        .mix(kMaxBucket)
        .mix(kSignatureSeed)
        .value;
}

LearnResult learn(const Netlist& nl, const netlist::Topology& topo, const LearnConfig& cfg) {
    return learn_impl(nl, topo, cfg, nullptr);
}

LearnResult resume_learn(const Netlist& nl, const netlist::Topology& topo,
                         const LearnConfig& cfg, LearnResult partial) {
    const LearnCursor& cursor = partial.cursor;
    if (!cursor.valid)
        throw std::invalid_argument("resume_learn: checkpoint has no resume cursor");
    if (!cursor.circuit.empty() && cursor.circuit != nl.name())
        throw std::invalid_argument("resume_learn: checkpoint is for circuit '" +
                                    cursor.circuit + "', not '" + nl.name() + "'");
    if (partial.ties.dense().size() != nl.size())
        throw std::invalid_argument("resume_learn: checkpoint gate count mismatch");
    if (cursor.config_digest != learn_config_digest(cfg))
        throw std::invalid_argument(
            "resume_learn: checkpoint was taken under a different learning config");
    return learn_impl(nl, topo, cfg, &partial);
}

}  // namespace seqlearn::core
