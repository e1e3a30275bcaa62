#include "specs.hpp"

#include <cmath>

#include "sorel/dsl/loader.hpp"
#include "sorel/json/json.hpp"
#include "sorel/scenarios/synthetic.hpp"
#include "sorel/util/rng.hpp"
#include "trace.hpp"

namespace perfbench {

using sorel::json::Array;
using sorel::json::Object;
using sorel::json::Value;

namespace {

// Log-uniform draw in [lo, hi] from a 64-bit uniform value.
double log_uniform(std::uint64_t bits, double lo, double hi) {
  const double u = static_cast<double>(bits >> 11) * 0x1.0p-53;
  return std::exp(std::log(lo) + u * (std::log(hi) - std::log(lo)));
}

}  // namespace

Value parse_spec(const std::string& text) {
  Span span("json.parse");
  return sorel::json::parse(text);
}

std::unique_ptr<sorel::core::Assembly> load_spec(const Value& document) {
  Span span("dsl.load");
  return std::make_unique<sorel::core::Assembly>(sorel::dsl::load_assembly(document));
}

PartitionedSpec make_partitioned_spec(std::uint64_t seed, std::size_t groups,
                                      std::size_t leaves,
                                      std::size_t selection_points) {
  PartitionedSpec spec;
  spec.groups = groups;
  spec.leaves = leaves;
  sorel::util::Rng rng(seed);
  Object attributes;
  for (std::size_t g = 0; g < groups; ++g) {
    for (std::size_t s = 0; s < leaves; ++s) {
      const std::string name =
          "g" + std::to_string(g) + "_s" + std::to_string(s) + ".p";
      const double p = log_uniform(rng.next(), 1e-6, 1e-3);
      spec.leaf_names.push_back(name);
      spec.leaf_pfail.push_back(p);
      attributes[name] = p;
    }
  }
  Value document = sorel::dsl::save_assembly(
      sorel::scenarios::make_partitioned_assembly(groups, leaves));
  document["attributes"] = Value(std::move(attributes));
  if (selection_points > 0) {
    Array points;
    for (std::size_t i = 0; i < selection_points; ++i) {
      Array candidates;
      for (const std::size_t target : {i, i + groups / 2}) {
        Object candidate;
        candidate["label"] = "g" + std::to_string(target);
        candidate["target"] = "g" + std::to_string(target);
        candidates.emplace_back(std::move(candidate));
      }
      Object point;
      point["service"] = "app";
      point["port"] = "g" + std::to_string(i);
      point["candidates"] = Value(std::move(candidates));
      points.emplace_back(std::move(point));
    }
    document["selection"] = Value(std::move(points));
  }
  spec.text = document.dump();
  return spec;
}

double partitioned_pfail(const PartitionedSpec& spec,
                         const std::map<std::string, double>& overrides,
                         const std::vector<std::size_t>& port_targets) {
  std::vector<double> group_log_survival(spec.groups, 0.0);
  for (std::size_t g = 0; g < spec.groups; ++g) {
    for (std::size_t s = 0; s < spec.leaves; ++s) {
      const std::size_t index = g * spec.leaves + s;
      const auto it = overrides.find(spec.leaf_names[index]);
      const double p = it == overrides.end() ? spec.leaf_pfail[index] : it->second;
      group_log_survival[g] += std::log1p(-p);
    }
  }
  double log_survival = 0.0;
  for (std::size_t port = 0; port < spec.groups; ++port) {
    const std::size_t target =
        port < port_targets.size() ? port_targets[port] : port;
    log_survival += group_log_survival[target];
  }
  return -std::expm1(log_survival);
}

ChainSpec make_chain_spec(std::uint64_t seed, std::size_t stages) {
  ChainSpec spec;
  sorel::util::Rng rng(seed);
  spec.stages = stages;
  spec.phi = log_uniform(rng.next(), 1e-7, 1e-5);
  spec.work = log_uniform(rng.next(), 10.0, 1000.0);
  spec.text = sorel::dsl::save_assembly(
                  sorel::scenarios::make_chain_assembly(stages, spec.phi,
                                                        spec.lambda, spec.speed))
                  .dump();
  return spec;
}

double chain_pfail(const ChainSpec& spec) {
  const double stage_log_survival =
      spec.work * std::log1p(-spec.phi) - spec.lambda * spec.work / spec.speed;
  return -std::expm1(static_cast<double>(spec.stages) * stage_log_survival);
}

}  // namespace perfbench
