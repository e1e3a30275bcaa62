// rank: the paper's section-4 use — automated selection among assemblies.
// core::rank_assemblies over the 32x32 partitioned assembly with ten
// two-way selection points on app's group ports (1,024 combinations), at
// threads = nproc with a fresh shared memo per ranking. It is the one
// workload with concurrent shared-memo publishes, a binding invalidation
// per combination and for_each_dynamic spread over many blocks, so
// core.selection and the scheduler's balance are measured here.
#include <memory>
#include <string>
#include <vector>

#include "harness.hpp"
#include "probes.hpp"
#include "sorel/core/engine.hpp"
#include "sorel/core/selection.hpp"
#include "sorel/core/session.hpp"
#include "sorel/dsl/loader.hpp"
#include "sorel/json/json.hpp"
#include "sorel/sched/scheduler.hpp"
#include "specs.hpp"
#include "trace.hpp"

namespace perfbench {

namespace {

using sorel::core::Assembly;
using sorel::core::RankedAssembly;
using sorel::core::SelectionOptions;
using sorel::core::SelectionPoint;

constexpr std::size_t kGroups = 32;
constexpr std::size_t kLeaves = 32;
constexpr std::size_t kPoints = 10;  // 2^10 = 1,024 combinations
constexpr int kSetupReps = 9;
constexpr double kTolerance = 1e-9;

struct Model {
  PartitionedSpec spec;
  std::unique_ptr<Assembly> assembly;
  std::vector<SelectionPoint> points;
};

void load(Model& model, std::uint64_t seed) {
  model.spec = make_partitioned_spec(seed, kGroups, kLeaves, kPoints);
  const sorel::json::Value document = parse_spec(model.spec.text);
  model.assembly = load_spec(document);
  model.points = sorel::dsl::load_selection_points(document);
}

// Group app's port g<i> is wired to under `choice`.
std::vector<std::size_t> port_targets(const std::vector<std::size_t>& choice) {
  std::vector<std::size_t> targets(kGroups);
  for (std::size_t port = 0; port < kGroups; ++port) targets[port] = port;
  for (std::size_t i = 0; i < choice.size(); ++i) {
    if (choice[i] == 1) targets[i] = i + kGroups / 2;
  }
  return targets;
}

bool same_ranking(const std::vector<RankedAssembly>& a,
                  const std::vector<RankedAssembly>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].choice != b[i].choice || a[i].reliability != b[i].reliability ||
        a[i].score != b[i].score) {
      return false;
    }
  }
  return true;
}

struct RankTally {
  double hits = 0.0;
  double misses = 0.0;
  double tasks_run = 0.0;
  double steals = 0.0;
  std::size_t rankings = 0;
};

std::vector<double> run_phase(const Model& model, const SelectionOptions& base,
                              const std::vector<RankedAssembly>& reference,
                              double seconds, Outcome& outcome,
                              RankTally* tally) {
  std::vector<double> op_ms;
  Tracer& tracer = Tracer::instance();
  sorel::sched::Scheduler& scheduler = sorel::sched::Scheduler::global();
  const Clock::time_point deadline = deadline_after(seconds);
  while (Clock::now() < deadline) {
    RequestScope scope(tracer.enabled() ? tracer.next_request() : 0);
    const auto before = scheduler.stats();
    SelectionOptions options = base;
    std::vector<RankedAssembly> ranking;
    const Clock::time_point begin = Clock::now();
    {
      Span span("core.selection.rank");
      options.shared_cache = sorel::core::make_shared_memo(*model.assembly);
      ranking = sorel::core::rank_assemblies(*model.assembly, "app", {},
                                             model.points, options);
    }
    op_ms.push_back(ms_since(begin));
    ++outcome.attempted;
    if (!same_ranking(ranking, reference)) {
      outcome.fail("ranking differs from the threads = 1 reference");
    }
    if (tally != nullptr) {
      const auto after = scheduler.stats();
      const auto cache = options.shared_cache->stats();
      tally->hits += static_cast<double>(cache.hits);
      tally->misses += static_cast<double>(cache.misses);
      tally->tasks_run += static_cast<double>(after.tasks_run - before.tasks_run);
      tally->steals += static_cast<double>(after.steals - before.steals);
      ++tally->rankings;
    }
  }
  return op_ms;
}

// The core layer under one selection worker, replayed through its public
// functions: one Assembly copy and one EvalSession, rebinding only the ports
// whose choice changed between consecutive combinations (what each
// rank_assemblies worker does over its blocks).
void replay_session(const Model& model, Outcome& outcome) {
  Assembly wired = *model.assembly;
  sorel::core::EvalSession session(wired);
  session.attach_shared_memo(sorel::core::make_shared_memo(*model.assembly));
  const std::size_t combinations = std::size_t{1} << kPoints;
  std::vector<std::size_t> current(kPoints, 0);
  double pfail_ms = 0.0;
  for (std::size_t c = 0; c < combinations; ++c) {
    for (std::size_t i = 0; i < kPoints; ++i) {
      const std::size_t choice = (c >> i) & 1U;
      if (choice == current[i]) continue;
      current[i] = choice;
      const SelectionPoint& point = model.points[i];
      wired.bind(point.service, point.port, point.candidates[choice]);
      session.invalidate_binding(point.service, point.port);
    }
    Span span("core.engine.pfail");
    consume(session.pfail("app", {}));
    pfail_ms += span.stop();
  }
  const auto& stats = session.stats();
  const double n = static_cast<double>(combinations);
  outcome.metrics["core.evaluations"] = static_cast<double>(stats.evaluations) / n;
  outcome.metrics["core.memo_hits"] = static_cast<double>(stats.memo_hits) / n;
  outcome.metrics["core.us_per_eval"] =
      1e3 * pfail_ms / static_cast<double>(stats.evaluations);
}

}  // namespace

Outcome run_rank(const RunConfig& config) {
  Outcome outcome;
  Tracer& tracer = Tracer::instance();
  tracer.set_enabled(config.trace);
  Model model;
  const double setup_s =
      median_setup_s(kSetupReps, [&] { load(model, config.seed); });
  tracer.set_enabled(false);

  // Reference ranking at threads = 1, checked combination by combination
  // against the closed form; every timed ranking must equal it exactly.
  SelectionOptions serial;
  serial.threads = 1;
  const std::vector<RankedAssembly> reference = sorel::core::rank_assemblies(
      *model.assembly, "app", {}, model.points, serial);
  outcome.gate(reference.size() == (std::size_t{1} << kPoints),
               "reference ranking has " + std::to_string(reference.size()) +
                   " combinations");
  for (const RankedAssembly& entry : reference) {
    const double expected =
        partitioned_pfail(model.spec, {}, port_targets(entry.choice));
    outcome.gate(relative_error(1.0 - entry.reliability, expected) <= kTolerance,
                 "ranked pfail " + std::to_string(1.0 - entry.reliability) +
                     " != closed form " + std::to_string(expected));
  }

  SelectionOptions options;
  options.threads = config.nproc;
  {
    SelectionOptions warmup = options;  // one untimed ranking
    warmup.shared_cache = sorel::core::make_shared_memo(*model.assembly);
    consume(sorel::core::rank_assemblies(*model.assembly, "app", {},
                                         model.points, warmup)
                .front()
                .reliability);
  }

  const double combinations = static_cast<double>(reference.size());
  if (!config.trace) {
    const Clock::time_point begin = Clock::now();
    const std::vector<double> op_ms =
        run_phase(model, options, reference, config.seconds, outcome, nullptr);
    const double elapsed_s = ms_since(begin) / 1e3;
    outcome.metrics["setup_s"] = setup_s;
    report_latency(outcome, op_ms, 0.9,
                   combinations * static_cast<double>(op_ms.size()), elapsed_s);
    return outcome;
  }

  const std::vector<double> untraced =
      run_phase(model, options, reference, config.seconds / 2, outcome, nullptr);
  tracer.set_enabled(true);
  RankTally tally;
  const std::vector<double> traced =
      run_phase(model, options, reference, config.seconds / 2, outcome, &tally);

  SelectionOptions range_options = serial;
  range_options.shared_cache = sorel::core::make_shared_memo(*model.assembly);
  Span range_span("core.selection.range");
  const auto range = sorel::core::evaluate_combination_range(
      *model.assembly, "app", {}, model.points, range_options, 0,
      reference.size());
  const double serial_ms = range_span.stop();
  outcome.gate(range.outcomes.size() == reference.size(),
               "serial range size mismatch");
  replay_session(model, outcome);
  probe_expr_layers(*model.assembly, 1.0, outcome);

  const double rankings = static_cast<double>(tally.rankings);
  const double traced_p50 = median(traced);
  auto& m = outcome.metrics;
  m["json.parse_ms"] = tracer.mean_self_ms("json.parse");
  m["dsl.load_ms"] = tracer.mean_self_ms("dsl.load");
  m["core.selection.us_per_combo"] = 1e3 * serial_ms / combinations;
  m["sched.parallel_efficiency"] =
      serial_ms / (static_cast<double>(config.nproc) * traced_p50);
  m["sched.tasks_run"] = tally.tasks_run / rankings;
  m["sched.steals"] = tally.steals / rankings;
  m["memo.shared_hits"] = tally.hits / rankings;
  m["memo.shared_misses"] = tally.misses / rankings;
  m["memo.shared_hit_ratio"] =
      tally.hits + tally.misses > 0 ? tally.hits / (tally.hits + tally.misses) : 0.0;
  const double untraced_ms = central_ms(untraced);
  m["trace.overhead_pct"] =
      100.0 * (central_ms(traced) - untraced_ms) / untraced_ms;
  return outcome;
}

}  // namespace perfbench
