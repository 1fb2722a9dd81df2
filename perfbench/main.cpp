// perfbench: the end-to-end and per-layer benchmark of the seqlearn flow.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             [--daemon PATH] [--work-dir DIR] [--git-rev REV] [--src-digest D]
//
// Prints a provenance line, a detail line and, last, one result object:
// the end-to-end metrics with --trace 0, the per-layer metrics with
// --trace 1. See README.md next to this file.

#include "workloads.hpp"

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

namespace {

using perfbench::Args;

const char* const kBatch[] = {"flow_table5", "faultgrade_gen5378", "prove_retimed",
                              "learn_gen38417"};

// Every per-layer metric with its unit. A traced run reports all of them; a
// layer the workload never calls reads 0.
const char* const kPerLayer[][2] = {
    {"netlist.parse_s", "s"},          {"netlist.parse_mb_per_s", "MB/s"},
    {"api.design_build_s", "s"},       {"api.design_mb", "MB"},
    {"core.learn_s", "s"},             {"core.equiv_s", "s"},
    {"core.single_node_s", "s"},       {"core.multi_node_s", "s"},
    {"core.stems_per_s", "1/s"},       {"core.relations", "count"},
    {"core.ties", "count"},            {"core.snapshot_save_s", "s"},
    {"core.snapshot_load_s", "s"},     {"core.snapshot_mb", "MB"},
    {"exec.learn_speedup_2t", "x"},    {"exec.learn_speedup_nproc", "x"},
    {"exec.fault_speedup_2t", "x"},    {"exec.fault_speedup_nproc", "x"},
    {"exec.atpg_speedup_2t", "x"},     {"exec.atpg_speedup_nproc", "x"},
    {"atpg.campaign_s", "s"},          {"atpg.pretarget_s", "s"},
    {"atpg.target_s", "s"},            {"atpg.posttarget_s", "s"},
    {"atpg.target_ms_p50", "ms"},      {"atpg.target_ms_p99", "ms"},
    {"atpg.targets", "count"},         {"atpg.gen_calls", "count"},
    {"atpg.backtracks", "count"},      {"atpg.detected", "count"},
    {"atpg.untestable", "count"},      {"atpg.aborted", "count"},
    {"atpg.tests", "count"},           {"atpg.pattern_frames", "count"},
    {"atpg.invalid_tests", "count"},   {"atpg.gen_yield", "ratio"},
    {"atpg.credit_gap", "count"},      {"atpg.fault_coverage", "ratio"},
    {"cnf.sat_targeted", "count"},     {"cnf.witnesses", "count"},
    {"cnf.untestable", "count"},       {"cnf.proofs_per_s", "1/s"},
    {"fault.sim_s", "s"},              {"fault.sequences", "count"},
    {"fault.seq_ms_p50", "ms"},        {"fault.seq_ms_p99", "ms"},
    {"fault.detected", "count"},       {"fault.coverage", "ratio"},
    {"server.stats_p50_ms", "ms"},     {"server.stats_p99_ms", "ms"},
    {"server.learn_warm_p50_ms", "ms"}, {"server.learn_warm_p99_ms", "ms"},
    {"server.load_learn_cold_p50_ms", "ms"}, {"server.load_learn_cold_p99_ms", "ms"},
    {"server.atpg_p50_ms", "ms"},      {"server.atpg_p99_ms", "ms"},
    {"server.fault_sim_p50_ms", "ms"}, {"server.fault_sim_p99_ms", "ms"},
    {"server.cache_hits", "count"},    {"server.cache_misses", "count"},
    {"server.overloaded", "count"},    {"server.errors", "count"},
    {"trace.overhead_pct", "%"},       {"trace.span_gap_pct", "%"},
};

int usage(const char* why) {
    std::fprintf(stderr,
                 "perfbench: %s\nusage: perfbench --workload NAME --seed N --seconds S "
                 "--trace 0|1 [--daemon PATH] [--work-dir DIR]\n",
                 why);
    return 2;
}

}  // namespace

int main(int argc, char** argv) {
    Args args;
    for (int i = 1; i + 1 < argc; i += 2) {
        const std::string key = argv[i];
        const char* v = argv[i + 1];
        if (key == "--workload") args.workload = v;
        else if (key == "--seed") args.seed = std::strtoull(v, nullptr, 10);
        else if (key == "--seconds") args.seconds = std::atof(v);
        else if (key == "--trace") args.trace = std::atoi(v) != 0;
        else if (key == "--daemon") args.daemon = v;
        else if (key == "--work-dir") args.work_dir = v;
        else if (key == "--git-rev") args.git_rev = v;
        else if (key == "--src-digest") args.src_digest = v;
        else return usage(("unknown flag " + key).c_str());
    }
    if (args.seconds <= 0) return usage("--seconds must be positive");

    bool batch = false;
    for (const char* w : kBatch) batch = batch || args.workload == w;
    if (!batch && args.workload != "serve_mixed") return usage("unknown workload");

    perfbench::Report rep(args);
    if (args.trace) {
        for (const auto& m : kPerLayer) rep.metric(m[0], 0.0, m[1]);
    }
    try {
        if (batch) perfbench::run_batch(args, rep);
        else perfbench::run_serve(args, rep);
        if (!args.trace) rep.metric("success_rate", rep.success_rate(), "ratio");
    } catch (const std::exception& e) {
        std::fprintf(stderr, "perfbench: %s\n", e.what());
        return 1;
    }
    return rep.finish();
}
