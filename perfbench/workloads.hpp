#pragma once

#include "common.hpp"

namespace perfbench {

/// flow_table5, faultgrade_gen5378, prove_retimed, learn_gen38417.
void run_batch(const Args& args, Report& rep);

/// Per-layer metrics of the stages the daemon runs, in process and traced on
/// `circuits`: parse and compile, flow_table5's learn -> ATPG -> fault_sim,
/// the auto-backend CNF probe on the retimed ones, snapshot save and load.
void design_layers(Report& rep, const std::vector<Circuit>& circuits);

/// serve_mixed: a closed loop of clients against a loopback daemon.
void run_serve(const Args& args, Report& rep);

}  // namespace perfbench
