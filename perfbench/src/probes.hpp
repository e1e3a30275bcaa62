// Per-layer probes below the engine: each replays one layer's public
// functions on the workload's own model, so the traced run can say how the
// time of an op divides between expression evaluation, state-failure
// algebra, the absorption solve and the linear algebra under it.
#pragma once

#include <string>
#include <vector>

#include "harness.hpp"
#include "sorel/core/assembly.hpp"
#include "sorel/core/engine.hpp"
#include "sorel/markov/dtmc.hpp"

namespace perfbench {

/// expr.env_copy_us, expr.lookup_ns, expr.tree_eval_ns,
/// expr.compiled_eval_ns and core.state_failure_ns on the assembly's own
/// attribute environment, pfail laws and flow-state widths. `formals` binds
/// the simple services' formal parameters (every formal reads `formal`).
void probe_expr_layers(const sorel::core::Assembly& assembly, double formal,
                       Outcome& outcome);

/// Replay the absorption solves one cold query of `root(args)` performs:
/// for every composite the query evaluates, build its failure-augmented
/// chain on the (warm) engine and time AbsorptionAnalysis::compute on it
/// under a "markov.solve" span. Returns the summed solve time in ms and
/// leaves the chain with the most states in `largest`.
double replay_markov(sorel::core::ReliabilityEngine& engine,
                     const sorel::core::Assembly& assembly,
                     const std::string& root, const std::vector<double>& args,
                     sorel::markov::Dtmc* largest);

/// linalg.lu_factor_ms, linalg.lu_solve_ms and linalg.inverse_ms on the
/// chain's I - Q (the system the dense absorption path solves).
void probe_linalg(const sorel::markov::Dtmc& chain, Outcome& outcome);

}  // namespace perfbench
