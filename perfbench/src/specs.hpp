// Seeded model generation and the closed forms the correctness gates check
// against. The program under test only ever sees the generated spec text
// (and, for serve_mixed, the request lines built from it); the values kept
// beside the text are the benchmark's own record of what it asked for.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "sorel/core/assembly.hpp"
#include "sorel/json/json.hpp"

namespace perfbench {

/// The n x m partitioned assembly (scenarios::make_partitioned_assembly:
/// root "app" ANDs n groups, each group ANDs m leaves whose pfail is the
/// attribute "g<i>_s<j>.p") with every leaf pfail drawn log-uniform in
/// [1e-6, 1e-3] from the seed. With `selection_points` > 0 the spec also
/// declares that many two-way selection points: app's port g<i> stays on
/// group g<i> or moves to group g<i + n/2>.
struct PartitionedSpec {
  std::string text;                     // the JSON spec document
  std::size_t groups = 0;
  std::size_t leaves = 0;
  std::vector<std::string> leaf_names;  // index g * leaves + s
  std::vector<double> leaf_pfail;       // parallel to leaf_names
};

PartitionedSpec make_partitioned_spec(std::uint64_t seed, std::size_t groups,
                                      std::size_t leaves,
                                      std::size_t selection_points = 0);

/// Closed-form Pfail("app") of a partitioned spec, summed in log1p space:
/// -expm1(sum over app's ports of sum over the wired group's leaves of
/// log1p(-p)). `overrides` replaces leaf values by attribute name;
/// `port_targets[i]` (when given) is the group app's port g<i> is wired to.
double partitioned_pfail(const PartitionedSpec& spec,
                         const std::map<std::string, double>& overrides = {},
                         const std::vector<std::size_t>& port_targets = {});

/// A `stages`-state sequential flow (scenarios::make_chain_assembly): root
/// "pipeline" with one formal "work"; each stage asks cpu(work) with a
/// per-operation failure rate phi. phi (log-uniform in [1e-7, 1e-5]) and
/// the query's work argument (log-uniform in [10, 1000]) come from the seed.
struct ChainSpec {
  std::string text;
  std::size_t stages = 0;
  double phi = 0.0;
  double work = 0.0;
  double lambda = 1e-9;  // cpu failure rate
  double speed = 1e9;    // cpu speed
};

ChainSpec make_chain_spec(std::uint64_t seed, std::size_t stages);

/// Closed-form Pfail("pipeline", {work}) in log1p space: every stage
/// survives with probability (1 - phi)^work * exp(-lambda * work / speed),
/// so Pfail = -expm1(stages * (work * log1p(-phi) - lambda * work / speed)).
double chain_pfail(const ChainSpec& spec);

/// Spec text -> JSON document, under a "json.parse" span.
sorel::json::Value parse_spec(const std::string& text);

/// JSON document -> validated Assembly (dsl::load_assembly validates), under
/// a "dsl.load" span.
std::unique_ptr<sorel::core::Assembly> load_spec(const sorel::json::Value& document);

}  // namespace perfbench
