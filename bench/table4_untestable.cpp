// Regenerates paper Table 4: untestable faults identified from tie gates
// (a by-product of sequential learning; includes c-cycle-redundant faults,
// per the paper's reference [13] semantics) versus a FIRE-style
// fault-independent identifier. Our FIRE variant implements the excitation
// half only (the propagation half needs per-fault reconvergence analysis to
// stay sound), so it is a conservative baseline.

#include "api/session.hpp"
#include "core/seq_learn.hpp"
#include "fault/fault.hpp"
#include "util/timer.hpp"
#include "workload/fires.hpp"
#include "workload/suite.hpp"

#include <benchmark/benchmark.h>

#include <cstdio>

namespace {

using namespace seqlearn;
using netlist::Netlist;

void run_table4() {
    std::printf("\n== Table 4: untestable faults — tie gates vs FIRE baseline ==\n");
    std::printf("%-10s | %14s %14s | %10s %10s\n", "Circuit", "TieGates", "FIRE",
                "tie CPU(s)", "fire CPU(s)");
    for (const std::string& name : workload::table4_names()) {
        const Netlist nl = workload::suite_circuit(name);
        const auto universe = fault::fault_universe(nl);

        util::Timer t1;
        core::LearnConfig cfg;
        cfg.max_frames = 50;
        const core::LearnResult r = api::Session(netlist::Netlist(nl)).learn(cfg);
        const auto tie_faults = r.ties.untestable_faults(nl, universe);
        const double tie_cpu = t1.seconds();

        util::Timer t2;
        const workload::FiresResult fires = workload::fires_untestable(nl, universe);
        const double fire_cpu = t2.seconds();

        std::printf("%-10s | %14zu %14zu | %10.2f %10.2f\n", name.c_str(),
                    tie_faults.size(), fires.untestable.size(), tie_cpu, fire_cpu);
        std::fflush(stdout);
    }
}

void BM_Fires(benchmark::State& state) {
    const Netlist nl = workload::suite_circuit("gen3330");
    const auto universe = fault::fault_universe(nl);
    for (auto _ : state) {
        const auto res = workload::fires_untestable(nl, universe);
        benchmark::DoNotOptimize(res.untestable.size());
    }
}
BENCHMARK(BM_Fires);

void BM_TieDerivation(benchmark::State& state) {
    const Netlist nl = workload::suite_circuit("gen3330");
    const auto universe = fault::fault_universe(nl);
    const core::LearnResult r = api::Session(netlist::Netlist(nl)).learn();
    for (auto _ : state) {
        const auto faults = r.ties.untestable_faults(nl, universe);
        benchmark::DoNotOptimize(faults.size());
    }
}
BENCHMARK(BM_TieDerivation);

}  // namespace

int main(int argc, char** argv) {
    run_table4();
    benchmark::Initialize(&argc, argv);
    benchmark::RunSpecifiedBenchmarks();
    return 0;
}
