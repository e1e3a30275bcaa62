// cold_query and long_flow: the shape of the CLI `evaluate` command. Each
// op builds a fresh core::ReliabilityEngine over the loaded assembly (its
// constructor validates) and asks one pfail; nothing is warm between ops.
//
// cold_query runs the 32x32 partitioned assembly: 1,057 services and 1,024
// attributes, every flow one AND state, so the time is per-evaluation
// engine cost (env copy, Env::lookup, tree expression eval) and the
// absorption solves are trivial. long_flow runs a 512-state sequential
// flow: two engine evaluations, and the dense absorption solve is nearly
// the whole query. A solver change should move long_flow and not
// cold_query; an engine-core change the other way round.
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "harness.hpp"
#include "probes.hpp"
#include "sorel/core/engine.hpp"
#include "specs.hpp"
#include "trace.hpp"

namespace perfbench {

namespace {

using sorel::core::Assembly;
using sorel::core::ReliabilityEngine;

struct QueryModel {
  std::string text;  // the spec the program receives
  std::string root;
  std::vector<double> args;
  double expected = 0.0;  // closed-form Pfail
  double formal = 1.0;    // value of the simple services' formals
};

constexpr int kSetupReps = 15;
constexpr int kWarmupOps = 2;
constexpr double kTolerance = 1e-9;  // relative, against the closed form

// What the traced phase accumulates per op.
struct LayerTally {
  double evaluations = 0.0;
  double memo_hits = 0.0;
  double solve_ms = 0.0;
  double op_ms = 0.0;
  std::size_t ops = 0;
  sorel::markov::Dtmc largest_chain;
};

// One closed loop of cold queries for `seconds`; returns per-op latencies.
std::vector<double> run_phase(const Assembly& assembly, const QueryModel& model,
                              double seconds, Outcome& outcome,
                              LayerTally* tally) {
  std::vector<double> op_ms;
  Tracer& tracer = Tracer::instance();
  const Clock::time_point deadline = deadline_after(seconds);
  while (Clock::now() < deadline) {
    RequestScope scope(tracer.enabled() ? tracer.next_request() : 0);
    std::unique_ptr<ReliabilityEngine> engine;
    double pfail = 0.0;
    const Clock::time_point begin = Clock::now();
    {
      Span query("bench.query");
      {
        Span span("core.validate");
        engine = std::make_unique<ReliabilityEngine>(assembly);
      }
      Span span("core.engine.pfail");
      pfail = engine->pfail(model.root, model.args);
    }
    const double ms = ms_since(begin);
    op_ms.push_back(ms);
    ++outcome.attempted;
    if (relative_error(pfail, model.expected) > kTolerance) {
      outcome.fail("pfail " + std::to_string(pfail) + " != closed form " +
                   std::to_string(model.expected));
    }
    if (tally != nullptr) {
      tally->evaluations += static_cast<double>(engine->stats().evaluations);
      tally->memo_hits += static_cast<double>(engine->stats().memo_hits);
      tally->op_ms += ms;
      tally->solve_ms += replay_markov(*engine, assembly, model.root,
                                       model.args, &tally->largest_chain);
      ++tally->ops;
    }
  }
  return op_ms;
}

// Set-up is spec generation from the seed, parse, load and validate.
Outcome run_query_workload(const RunConfig& config,
                           const std::function<QueryModel()>& generate) {
  Outcome outcome;
  Tracer& tracer = Tracer::instance();
  tracer.set_enabled(config.trace);

  QueryModel model;
  std::unique_ptr<Assembly> assembly;
  const double setup_s = median_setup_s(kSetupReps, [&] {
    model = generate();
    assembly = load_spec(parse_spec(model.text));
  });

  tracer.set_enabled(false);
  for (int i = 0; i < kWarmupOps; ++i) {
    ReliabilityEngine engine(*assembly);
    consume(engine.pfail(model.root, model.args));
  }

  if (!config.trace) {
    const Clock::time_point begin = Clock::now();
    const std::vector<double> op_ms =
        run_phase(*assembly, model, config.seconds, outcome, nullptr);
    const double elapsed_s = ms_since(begin) / 1e3;
    outcome.metrics["setup_s"] = setup_s;
    report_latency(outcome, op_ms, 0.9, static_cast<double>(op_ms.size()),
                   elapsed_s);
    return outcome;
  }

  // Traced run: half untraced (the overhead baseline), half traced with
  // the per-op replays, then the single-layer probes.
  const std::vector<double> untraced =
      run_phase(*assembly, model, config.seconds / 2, outcome, nullptr);
  tracer.set_enabled(true);
  LayerTally tally;
  const std::vector<double> traced =
      run_phase(*assembly, model, config.seconds / 2, outcome, &tally);
  probe_expr_layers(*assembly, model.formal, outcome);
  probe_linalg(tally.largest_chain, outcome);

  const double ops = static_cast<double>(tally.ops);
  auto& m = outcome.metrics;
  m["json.parse_ms"] = tracer.mean_self_ms("json.parse");
  m["dsl.load_ms"] = tracer.mean_self_ms("dsl.load");
  m["core.validate_ms"] = tracer.mean_self_ms("core.validate");
  m["core.evaluations"] = tally.evaluations / ops;
  m["core.memo_hits"] = tally.memo_hits / ops;
  m["core.us_per_eval"] =
      1e3 * tracer.mean_self_ms("core.engine.pfail") / (tally.evaluations / ops);
  m["markov.solve_ms"] = tally.solve_ms / ops;
  m["markov.solve_share"] = tally.solve_ms / tally.op_ms;
  const double untraced_ms = central_ms(untraced);
  m["trace.overhead_pct"] =
      100.0 * (central_ms(traced) - untraced_ms) / untraced_ms;
  return outcome;
}

}  // namespace

Outcome run_cold_query(const RunConfig& config) {
  return run_query_workload(config, [&] {
    const PartitionedSpec spec = make_partitioned_spec(config.seed, 32, 32);
    QueryModel model;
    model.text = spec.text;
    model.root = "app";
    model.expected = partitioned_pfail(spec);
    return model;
  });
}

Outcome run_long_flow(const RunConfig& config) {
  return run_query_workload(config, [&] {
    const ChainSpec spec = make_chain_spec(config.seed, 512);
    QueryModel model;
    model.text = spec.text;
    model.root = "pipeline";
    model.args = {spec.work};
    model.expected = chain_pfail(spec);
    model.formal = spec.work;
    return model;
  });
}

}  // namespace perfbench
