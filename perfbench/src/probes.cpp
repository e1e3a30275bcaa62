#include "probes.hpp"

#include "sorel/core/service.hpp"
#include "sorel/core/state_failure.hpp"
#include "sorel/expr/compiled.hpp"
#include "sorel/expr/env.hpp"
#include "sorel/linalg/lu.hpp"
#include "sorel/markov/absorbing.hpp"
#include "trace.hpp"

namespace perfbench {

using sorel::core::Assembly;
using sorel::core::CompositeService;
using sorel::core::RequestFailure;
using sorel::core::SimpleService;

void probe_expr_layers(const Assembly& assembly, double formal,
                       Outcome& outcome) {
  const sorel::expr::Env attributes = assembly.attribute_env();
  {
    Span span("expr.env_copy");
    outcome.metrics["expr.env_copy_us"] =
        ns_per_call([&] {
          const sorel::expr::Env copy = attributes;
          return static_cast<double>(copy.size());
        }) /
        1e3;
  }

  std::vector<std::string> names;
  for (const auto& [name, value] : attributes.bindings()) names.push_back(name);
  {
    Span span("expr.lookup");
    std::size_t next = 0;
    outcome.metrics["expr.lookup_ns"] = ns_per_call([&] {
      const std::string& name = names[next++ % names.size()];
      return attributes.lookup(name).value_or(0.0);
    });
  }

  // The workload's own pfail laws, evaluated the way the engine does (tree
  // walk over an Env holding every attribute plus the formals) and through
  // expr::CompiledExpr over the same names resolved to slots.
  std::vector<const sorel::expr::Expr*> laws;
  sorel::expr::Env env = attributes;
  for (const std::string& service_name : assembly.service_names()) {
    const auto* simple =
        dynamic_cast<const SimpleService*>(assembly.service(service_name).get());
    if (simple == nullptr) continue;
    laws.push_back(&simple->pfail_expr());
    for (const auto& param : simple->formals()) env.set(param.name, formal);
  }
  std::vector<std::string> layout;
  std::vector<double> values;
  for (const auto& [name, value] : env.bindings()) {
    layout.push_back(name);
    values.push_back(value);
  }
  std::vector<sorel::expr::CompiledExpr> compiled;
  for (const auto* law : laws) compiled.push_back(sorel::expr::compile(*law, layout));
  if (!laws.empty()) {
    Span span("expr.eval");
    std::size_t next = 0;
    outcome.metrics["expr.tree_eval_ns"] = ns_per_call([&] {
      return laws[next++ % laws.size()]->eval(env);
    });
    next = 0;
    outcome.metrics["expr.compiled_eval_ns"] = ns_per_call([&] {
      return compiled[next++ % compiled.size()].eval(values);
    });
  }

  // state_failure_probability at the widths and models of the workload's
  // own flow states.
  struct StateShape {
    std::vector<RequestFailure> requests;
    const sorel::core::FlowState* state;
  };
  std::vector<StateShape> shapes;
  for (const std::string& service_name : assembly.service_names()) {
    const auto* composite = dynamic_cast<const CompositeService*>(
        assembly.service(service_name).get());
    if (composite == nullptr) continue;
    for (const auto id : composite->flow()->real_states()) {
      const auto& state = composite->flow()->state(id);
      shapes.push_back(
          {std::vector<RequestFailure>(state.requests.size(), {1e-6, 1e-4}),
           &state});
    }
  }
  if (!shapes.empty()) {
    Span span("core.state_failure");
    std::size_t next = 0;
    outcome.metrics["core.state_failure_ns"] = ns_per_call([&] {
      const StateShape& shape = shapes[next++ % shapes.size()];
      return sorel::core::state_failure_probability(
          shape.requests, shape.state->completion, shape.state->k,
          shape.state->dependency);
    });
  }
}

double replay_markov(sorel::core::ReliabilityEngine& engine,
                     const Assembly& assembly, const std::string& root,
                     const std::vector<double>& args,
                     sorel::markov::Dtmc* largest) {
  double solve_ms = 0.0;
  for (const std::string& service_name : assembly.service_names()) {
    const auto& service = assembly.service(service_name);
    if (service->is_simple()) continue;
    const bool is_root = service_name == root;
    if (!is_root && !service->formals().empty()) continue;
    sorel::markov::Dtmc chain;
    {
      Span span("core.augmented_flow");
      chain = engine.augmented_flow(service_name,
                                    is_root ? args : std::vector<double>{});
    }
    Span span("markov.solve");
    const auto analysis = sorel::markov::AbsorptionAnalysis::compute(chain);
    consume(analysis.absorbing_states().size());
    solve_ms += span.stop();
    if (largest != nullptr && chain.state_count() > largest->state_count()) {
      *largest = std::move(chain);
    }
  }
  return solve_ms;
}

void probe_linalg(const sorel::markov::Dtmc& chain, Outcome& outcome) {
  // I - Q over the transient states and the column of R into End, the one
  // absorption column the reliability answer needs.
  std::vector<std::ptrdiff_t> row(chain.state_count(), -1);
  std::size_t transient = 0;
  for (sorel::markov::StateId s = 0; s < chain.state_count(); ++s) {
    if (!chain.is_absorbing(s)) row[s] = static_cast<std::ptrdiff_t>(transient++);
  }
  const auto end = chain.find_state("End");
  sorel::linalg::Matrix system = sorel::linalg::Matrix::identity(transient);
  sorel::linalg::Vector into_end(transient);
  for (sorel::markov::StateId s = 0; s < chain.state_count(); ++s) {
    if (row[s] < 0) continue;
    const auto i = static_cast<std::size_t>(row[s]);
    for (const auto& t : chain.transitions_from(s)) {
      if (row[t.to] >= 0) {
        system(i, static_cast<std::size_t>(row[t.to])) -= t.probability;
      } else if (end && t.to == *end) {
        into_end[i] += t.probability;
      }
    }
  }
  if (transient == 0) return;

  std::vector<double> factor_ms, solve_ms, inverse_ms;
  for (int rep = 0; rep < 3; ++rep) {
    Span factor_span("linalg.lu_factor");
    const auto lu = sorel::linalg::LuDecomposition::compute(system);
    factor_ms.push_back(factor_span.stop());
    Span solve_span("linalg.lu_solve");
    consume(lu.solve(into_end)[0]);
    solve_ms.push_back(solve_span.stop());
    Span inverse_span("linalg.inverse");
    consume(sorel::linalg::inverse(system)(0, 0));
    inverse_ms.push_back(inverse_span.stop());
  }
  outcome.metrics["linalg.lu_factor_ms"] = median(factor_ms);
  outcome.metrics["linalg.lu_solve_ms"] = median(solve_ms);
  outcome.metrics["linalg.inverse_ms"] = median(inverse_ms);
}

}  // namespace perfbench
