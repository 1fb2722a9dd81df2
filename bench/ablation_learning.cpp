// Ablations over the learner's design choices:
//   1. frame depth (max_frames): what sequential depth buys over
//      combinational-only learning;
//   2. learning stages: single-node / + multiple-node / + gate equivalence.

#include "api/session.hpp"
#include "core/seq_learn.hpp"
#include "workload/suite.hpp"

#include <benchmark/benchmark.h>

#include <cstdio>

namespace {

using namespace seqlearn;
using netlist::Netlist;

void frame_depth_sweep(const char* name) {
    const api::DesignPtr design =
        api::DesignBuilder(workload::suite_circuit(name)).build();
    std::printf("\n== Ablation: frame depth (%s) ==\n", name);
    std::printf("%8s | %10s %10s %8s %8s | %8s\n", "frames", "FF-FF", "Gate-FF", "ties",
                "multi", "CPU(s)");
    for (const std::uint32_t frames : {1u, 2u, 5u, 10u, 20u, 50u}) {
        core::LearnConfig cfg;
        cfg.max_frames = frames;
        const core::LearnResult r = api::Session(design).learn(cfg);
        std::printf("%8u | %10zu %10zu %8zu %8zu | %8.3f\n", frames,
                    r.stats.ff_ff_relations, r.stats.gate_ff_relations, r.ties.count(),
                    r.stats.multi_relations, r.stats.cpu_seconds);
    }
}

void stage_sweep(const char* name) {
    const api::DesignPtr design =
        api::DesignBuilder(workload::suite_circuit(name)).build();
    std::printf("\n== Ablation: learning stages (%s) ==\n", name);
    std::printf("%-22s | %10s %10s %8s | %8s\n", "stage", "FF-FF", "Gate-FF", "ties",
                "CPU(s)");
    struct Stage {
        const char* label;
        bool multi;
        bool equiv;
    };
    for (const Stage s : {Stage{"single-node", false, false},
                          Stage{"+ multiple-node", true, false},
                          Stage{"+ gate equivalence", true, true}}) {
        core::LearnConfig cfg;
        cfg.max_frames = 50;
        cfg.multiple_node = s.multi;
        cfg.use_equivalences = s.equiv;
        const core::LearnResult r = api::Session(design).learn(cfg);
        std::printf("%-22s | %10zu %10zu %8zu | %8.3f\n", s.label,
                    r.stats.ff_ff_relations, r.stats.gate_ff_relations, r.ties.count(),
                    r.stats.cpu_seconds);
    }
}

void BM_LearnDepth(benchmark::State& state) {
    // Compile the Design once: the timed loop measures learn() only, not
    // fault collapsing / clock classes / the netlist copy.
    const api::DesignPtr design =
        api::DesignBuilder(workload::suite_circuit("gen1423")).build();
    core::LearnConfig cfg;
    cfg.max_frames = static_cast<std::uint32_t>(state.range(0));
    for (auto _ : state) {
        const core::LearnResult r = api::Session(design).learn(cfg);
        benchmark::DoNotOptimize(r.stats.ff_ff_relations);
    }
}
BENCHMARK(BM_LearnDepth)->Arg(1)->Arg(5)->Arg(50)->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
    frame_depth_sweep("gen5378");
    frame_depth_sweep("rt510a");
    stage_sweep("gen5378");
    stage_sweep("fig1x");

    benchmark::Initialize(&argc, argv);
    benchmark::RunSpecifiedBenchmarks();
    return 0;
}
