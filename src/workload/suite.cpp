#include "workload/suite.hpp"

#include "workload/circuit_gen.hpp"
#include "workload/paper_circuits.hpp"
#include "workload/retime.hpp"

#include <stdexcept>

namespace seqlearn::workload {

using netlist::Netlist;

namespace {

// A small FSM-flavoured base circuit for the retimed family: dense state
// feedback, moderate logic, every FF observable.
Netlist retime_base(std::string name, std::size_t n_ffs, std::size_t n_gates,
                    std::uint64_t seed) {
    GenParams p;
    p.name = std::move(name);
    p.seed = seed;
    p.n_inputs = 5;
    p.n_outputs = 6;
    p.n_ffs = n_ffs;
    p.n_gates = n_gates;
    p.locality = 0.8;
    p.shadow_ff_fraction = 0.0;  // redundancy comes from retiming instead
    p.xor_fraction = 0.05;
    return generate(p);
}

Netlist industrial(std::string name, std::size_t n_ffs, std::size_t n_gates,
                   std::uint64_t seed) {
    GenParams p = iscas_like(std::move(name), n_ffs, n_gates, seed);
    p.clock_domains = 3;
    p.latch_fraction = 0.05;
    p.sr_fraction = 0.10;
    return generate(p);
}

}  // namespace

Netlist suite_circuit(const std::string& name) {
    if (name == "s27") return s27();
    if (name == "fig1x") return fig1_analog();
    if (name == "fig2x") return fig2_analog();

    // Generator circuits calibrated to the paper's Table 3 (FFs, gates).
    if (name == "gen382") return generate(iscas_like(name, 21, 158, 382));
    if (name == "gen400") return generate(iscas_like(name, 21, 164, 400));
    if (name == "gen641") return generate(iscas_like(name, 19, 377, 641));
    if (name == "gen953") return generate(iscas_like(name, 29, 424, 953));
    if (name == "gen1269") return generate(iscas_like(name, 37, 569, 1269));
    if (name == "gen1423") return generate(iscas_like(name, 74, 657, 1423));
    if (name == "gen3330") return generate(iscas_like(name, 132, 1789, 3330));
    if (name == "gen3384") return generate(iscas_like(name, 183, 1685, 3384));
    if (name == "gen4863") return generate(iscas_like(name, 104, 2342, 4863));
    if (name == "gen5378") return generate(iscas_like(name, 179, 2779, 5378));
    if (name == "gen6669") return generate(iscas_like(name, 239, 3080, 6669));
    if (name == "gen9234") return generate(iscas_like(name, 228, 5597, 9234));
    if (name == "gen13207") return generate(iscas_like(name, 638, 7951, 13207));
    if (name == "gen15850") return generate(iscas_like(name, 597, 9772, 15850));
    if (name == "gen38417") return generate(iscas_like(name, 1636, 22179, 38417));
    if (name == "gen38584") return generate(iscas_like(name, 1452, 19253, 38584));

    // Retimed family: forward-retime FSM-ish bases until the register count
    // roughly doubles, mirroring the paper's retimed circuits.
    if (name == "rt510a") return forward_retime(retime_base("rt510a", 13, 150, 510), 8, 1);
    if (name == "rt510b") return forward_retime(retime_base("rt510b", 14, 150, 511), 8, 2);
    if (name == "rt832") return forward_retime(retime_base("rt832", 14, 120, 832), 8, 3);
    if (name == "rtscf") return forward_retime(retime_base("rtscf", 10, 500, 901), 6, 4);

    // Industrial stand-ins: multiple clock domains, latches, partial
    // set/reset.
    if (name == "ind20k") return industrial(name, 460, 8693, 20001);
    if (name == "ind60k") return industrial(name, 7068, 63156, 20002);
    if (name == "ind250k") return industrial(name, 6000, 250000, 20003);

    throw std::invalid_argument("suite_circuit: unknown circuit " + name);
}

std::vector<std::string> table3_names() {
    return {"s27",     "fig1x",   "fig2x",   "gen382",   "gen400",   "gen641",
            "gen953",  "gen1269", "gen1423", "gen3330",  "gen3384",  "gen4863",
            "gen5378", "gen6669", "gen9234", "gen13207", "gen15850", "gen38417",
            "gen38584", "rt510a", "rt510b",  "rt832",    "rtscf",    "ind20k",
            "ind60k",  "ind250k"};
}

std::vector<std::string> table4_names() {
    return {"gen3330", "gen5378", "gen9234", "gen13207", "gen15850", "rt510a", "rt832"};
}

std::vector<std::string> table5_names() {
    // One generator circuit and two retimed ones: each ATPG campaign at
    // 1000 backtracks finishes in seconds, and learned data moves both
    // detections and aborts on all three.
    return {"gen953", "rt510a", "rt832"};
}

}  // namespace seqlearn::workload
