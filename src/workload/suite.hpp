#pragma once
// The named experiment suite.
//
// One place maps circuit names to builders so every bench and example
// refers to the same workloads. Names mirror the paper's Table 3:
//  - "s27", "fig1x", "fig2x": embedded circuits;
//  - "gen382" ... "gen38417": generator circuits calibrated to the
//    like-named ISCAS-89/93 circuit's (FF, gate) size;
//  - "rt510a", "rt510b", "rt832", "rtscf": retimed circuits (low density
//    of encoding), standing in for s510jcsrre/s510josrre/s832jcsrer/
//    scfjisdre;
//  - "ind20k", "ind60k", "ind250k": large multi-clock-domain circuits with
//    latches and partial set/reset, standing in for indust1..3.

#include "netlist/netlist.hpp"

#include <string>
#include <vector>

namespace seqlearn::workload {

/// Build a suite circuit by name; throws std::invalid_argument for unknown
/// names. Deterministic: equal names give identical netlists.
netlist::Netlist suite_circuit(const std::string& name);

/// Table 3 row order (every suite circuit).
std::vector<std::string> table3_names();

/// Table 4 subset (untestable-fault comparison).
std::vector<std::string> table4_names();

/// Table 5 subset (ATPG with and without learned data).
std::vector<std::string> table5_names();

}  // namespace seqlearn::workload
