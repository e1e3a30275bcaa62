// serve_mixed: a closed loop over a unix socket. An in-process
// serve::Server behind a serve::TcpListener answers two resil::Client
// connections, one client thread each; every client waits for a reply
// before it sends its next request, as resil::Client::call and
// `sorel_cli connect` do. The spec is the 32x32 partitioned assembly.
//
// The request mix: `eval` requests with 0-2 leaf-attribute deltas, leaves
// picked Zipf-like so some are hot; a minority of 8-job `batch` requests,
// which run on sched; and a rare `load_spec` that reloads the identical
// spec, which bumps the epoch and leaves the memo cold although no answer
// changes. Reloads take about a fifth of the server's busy time, so a
// change that speeds warm reads at the cost of cold re-warm-up shows.
//
// Correctness: every response must be byte-identical to the same line
// answered by a fresh single-client in-process Server (the serve
// determinism contract), and every pfail it carries must match the
// closed form within 1e-9 relative.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include <unistd.h>

#include "harness.hpp"
#include "probes.hpp"
#include "sorel/core/engine.hpp"
#include "sorel/core/session.hpp"
#include "sorel/dsl/loader.hpp"
#include "sorel/json/json.hpp"
#include "sorel/resil/client.hpp"
#include "sorel/sched/scheduler.hpp"
#include "sorel/serve/protocol.hpp"
#include "sorel/serve/server.hpp"
#include "sorel/serve/tcp.hpp"
#include "sorel/util/rng.hpp"
#include "specs.hpp"
#include "trace.hpp"

namespace perfbench {

namespace {

using sorel::json::Value;
using sorel::serve::Server;

constexpr std::size_t kGroups = 32;
constexpr std::size_t kLeaves = 32;
constexpr std::size_t kClients = 2;
constexpr std::size_t kStreamLength = 8192;  // per client, replayed cyclically
constexpr std::size_t kReloadEvery = 400;   // per client stream
constexpr double kBatchShare = 0.02;  // with kReloadEvery: ~1/5 of busy time each
constexpr std::size_t kBatchJobs = 8;
constexpr double kZipfExponent = 1.1;
constexpr int kSetupReps = 9;
constexpr std::size_t kReplayRequests = 3000;
constexpr double kTolerance = 1e-9;

enum class Kind { kEval, kBatch, kReload };

struct Line {
  std::string text;
  Kind kind = Kind::kEval;
  // The attribute overrides of each evaluation the line asks for (one for
  // eval, kBatchJobs for batch), for the closed-form check.
  std::vector<std::map<std::string, double>> evaluations;
};

// The distinct request lines of a run; client streams index into it.
struct Workload {
  PartitionedSpec spec;
  std::vector<Line> lines;
  std::vector<std::vector<std::size_t>> streams;  // per client
};

class LineBuilder {
 public:
  LineBuilder(const PartitionedSpec& spec, std::uint64_t seed)
      : spec_(spec), rng_(seed) {
    // Zipf-like popularity over the leaves, in a seeded order.
    order_.resize(spec.leaf_names.size());
    for (std::size_t i = 0; i < order_.size(); ++i) order_[i] = i;
    for (std::size_t i = order_.size(); i > 1; --i) {
      std::swap(order_[i - 1], order_[rng_.next() % i]);
    }
    double total = 0.0;
    for (std::size_t rank = 0; rank < order_.size(); ++rank) {
      total += 1.0 / std::pow(static_cast<double>(rank + 1), kZipfExponent);
      cdf_.push_back(total);
    }
    for (double& c : cdf_) c /= total;
  }

  // 0-2 deltas: each moves a leaf's pfail by a factor of 0.5, 2 or 10.
  std::map<std::string, double> deltas() {
    const double u = rng_.uniform();
    const std::size_t count = u < 0.2 ? 0 : (u < 0.7 ? 1 : 2);
    std::map<std::string, double> out;
    while (out.size() < count) {
      const std::size_t rank = static_cast<std::size_t>(
          std::lower_bound(cdf_.begin(), cdf_.end(), rng_.uniform()) -
          cdf_.begin());
      const std::size_t leaf = order_[std::min(rank, order_.size() - 1)];
      static constexpr double kFactors[] = {0.5, 2.0, 10.0};
      out[spec_.leaf_names[leaf]] =
          spec_.leaf_pfail[leaf] * kFactors[rng_.next() % 3];
    }
    return out;
  }

  static std::string attributes_json(const std::map<std::string, double>& deltas) {
    std::string out = "{";
    for (const auto& [name, value] : deltas) {
      if (out.size() > 1) out += ",";
      out += "\"" + name + "\":" + full_digits(value);
    }
    return out + "}";
  }

  Line eval() {
    Line line;
    line.evaluations.push_back(deltas());
    line.text = "{\"op\":\"eval\",\"service\":\"app\"";
    if (!line.evaluations[0].empty()) {
      line.text += ",\"attributes\":" + attributes_json(line.evaluations[0]);
    }
    line.text += "}";
    return line;
  }

  Line batch() {
    Line line;
    line.kind = Kind::kBatch;
    line.text = "{\"op\":\"batch\",\"jobs\":[";
    for (std::size_t j = 0; j < kBatchJobs; ++j) {
      line.evaluations.push_back(deltas());
      if (j > 0) line.text += ",";
      line.text += "{\"service\":\"app\"";
      if (!line.evaluations.back().empty()) {
        line.text += ",\"attributes\":" + attributes_json(line.evaluations.back());
      }
      line.text += "}";
    }
    line.text += "]}";
    return line;
  }

  double uniform() { return rng_.uniform(); }

 private:
  const PartitionedSpec& spec_;
  sorel::util::Rng rng_;
  std::vector<std::size_t> order_;
  std::vector<double> cdf_;
};

Workload make_workload(std::uint64_t seed, PartitionedSpec spec) {
  Workload workload;
  workload.spec = std::move(spec);
  std::unordered_map<std::string, std::size_t> index;
  const auto intern = [&](Line line) {
    const auto [it, inserted] = index.emplace(line.text, workload.lines.size());
    if (inserted) workload.lines.push_back(std::move(line));
    return it->second;
  };
  Line reload;
  reload.kind = Kind::kReload;
  reload.text = "{\"op\":\"load_spec\",\"spec\":" + workload.spec.text + "}";
  const std::size_t reload_index = intern(std::move(reload));
  for (std::size_t c = 0; c < kClients; ++c) {
    LineBuilder builder(workload.spec, seed * 1000003 + c + 1);
    std::vector<std::size_t> stream;
    for (std::size_t i = 0; i < kStreamLength; ++i) {
      if ((i + 1) % kReloadEvery == 0) {
        stream.push_back(reload_index);
      } else if (builder.uniform() < kBatchShare) {
        stream.push_back(intern(builder.batch()));
      } else {
        stream.push_back(intern(builder.eval()));
      }
    }
    workload.streams.push_back(std::move(stream));
  }
  return workload;
}

// One served request as the client saw it. Responses are checked as they
// arrive and not kept, so the load generator's memory does not grow with
// the server's throughput.
struct Record {
  std::size_t line = 0;
  Clock::time_point start;
  double ms = 0.0;
  std::uint64_t request = 0;  // trace request id (0 untraced)
  bool ok = false;            // byte-identical to the reference response
};

// Per client: the records, and the first few responses that differed.
struct ClientLog {
  std::vector<Record> records;
  std::vector<std::string> mismatches;
};

// The server, its unix-socket front end and the connected clients.
struct Stack {
  std::unique_ptr<Server> server;
  std::unique_ptr<sorel::serve::TcpListener> listener;
  std::vector<std::unique_ptr<sorel::resil::Client>> clients;

  Stack() = default;
  Stack(const Stack&) = delete;
  Stack& operator=(const Stack&) = delete;
  ~Stack() {
    clients.clear();
    if (listener) listener->stop();
  }
};

Server::Options server_options(unsigned workers) {
  Server::Options options;
  options.threads = workers;
  return options;
}

// Accumulates the shared-memo counters of each spec state the server goes
// through (a reload replaces the table, so each is read before it goes).
struct MemoTally {
  std::mutex mutex;
  double hits = 0.0;
  double misses = 0.0;

  void add_current(Server& server) {
    const Value stats = sorel::json::parse(server.handle_line("{\"op\":\"stats\"}"));
    if (!stats.contains("shared_cache")) return;
    const Value& cache = stats.at("shared_cache");
    std::lock_guard<std::mutex> lock(mutex);
    hits += cache.at("hits").as_number();
    misses += cache.at("misses").as_number();
  }
};

// Every client runs its stream in a closed loop until the deadline and
// compares each response with the reference response of its line.
std::vector<ClientLog> run_phase(Stack& stack, const Workload& workload,
                                 const std::vector<std::string>& reference,
                                 std::vector<std::size_t>& positions,
                                 double seconds, MemoTally* memo) {
  std::vector<ClientLog> logs(kClients);
  const Clock::time_point deadline = deadline_after(seconds);
  std::vector<std::thread> threads;
  for (std::size_t c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] {
      Tracer& tracer = Tracer::instance();
      sorel::resil::Client& client = *stack.clients[c];
      const std::vector<std::size_t>& stream = workload.streams[c];
      while (Clock::now() < deadline) {
        Record record;
        record.line = stream[positions[c]++ % stream.size()];
        const Line& line = workload.lines[record.line];
        if (memo != nullptr && line.kind == Kind::kReload) {
          memo->add_current(*stack.server);
        }
        record.request = tracer.enabled() ? tracer.next_request() : 0;
        RequestScope scope(record.request);
        record.start = Clock::now();
        sorel::resil::RequestOutcome outcome;
        {
          Span span("serve.request");
          outcome = client.call(line.text);
        }
        record.ms = ms_since(record.start);
        record.ok = outcome.transport_ok && outcome.response == reference[record.line];
        if (!record.ok && logs[c].mismatches.size() < 3) {
          logs[c].mismatches.push_back(outcome.response.substr(0, 200));
        }
        logs[c].records.push_back(record);
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  return logs;
}

// The response a fresh single-client in-process server gives each distinct
// line, with every pfail it carries checked against the closed form.
std::vector<std::string> reference_responses(const Workload& workload,
                                             const Value& spec_document,
                                             unsigned workers, Outcome& outcome) {
  Server reference(spec_document, server_options(workers));
  std::vector<std::string> responses;
  for (const Line& line : workload.lines) {
    responses.push_back(reference.handle_line(line.text));
    const Value parsed = sorel::json::parse(responses.back());
    std::vector<double> pfails;
    if (line.kind == Kind::kEval && parsed.contains("pfail")) {
      pfails.push_back(parsed.at("pfail").as_number());
    } else if (line.kind == Kind::kBatch && parsed.contains("results")) {
      for (const Value& result : parsed.at("results").as_array()) {
        if (result.contains("pfail")) pfails.push_back(result.at("pfail").as_number());
      }
    }
    outcome.gate(parsed.at("ok").as_bool() && pfails.size() == line.evaluations.size(),
                 "reference answer incomplete: " + responses.back().substr(0, 200));
    for (std::size_t i = 0; i < pfails.size() && i < line.evaluations.size(); ++i) {
      const double closed = partitioned_pfail(workload.spec, line.evaluations[i]);
      outcome.gate(relative_error(pfails[i], closed) <= kTolerance,
                   "pfail " + full_digits(pfails[i]) + " != closed form " +
                       full_digits(closed));
    }
  }
  return responses;
}

// Counts every record of a phase as an attempted op, failed unless its
// response matched the reference.
void tally_responses(const std::vector<ClientLog>& logs, Outcome& outcome) {
  for (const ClientLog& log : logs) {
    for (const Record& record : log.records) {
      ++outcome.attempted;
      if (!record.ok) ++outcome.failed;
    }
    for (const std::string& response : log.mismatches) {
      outcome.gate(false, "response differs from a fresh server's: " + response);
    }
  }
}

std::vector<double> latencies(const std::vector<ClientLog>& logs,
                              const Workload& workload, const Kind* only) {
  std::vector<double> ms;
  for (const ClientLog& log : logs) {
    for (const Record& record : log.records) {
      if (only == nullptr || workload.lines[record.line].kind == *only) {
        ms.push_back(record.ms);
      }
    }
  }
  return ms;
}

std::size_t count(const std::vector<ClientLog>& logs) {
  std::size_t n = 0;
  for (const ClientLog& log : logs) n += log.records.size();
  return n;
}

// The traced run's replays: the recorded lines, in arrival order, against
// Server::handle_line without the transport, against the codec alone, and
// (eval lines) against EvalSession::rebase_attributes + pfail without the
// codec. Each replayed line keeps its request id.
void replay_layers(const Workload& workload, const Value& spec_document,
                   const std::vector<ClientLog>& logs,
                   unsigned workers, Outcome& outcome) {
  std::vector<const Record*> order;
  for (const ClientLog& log : logs) {
    for (const Record& record : log.records) order.push_back(&record);
  }
  std::sort(order.begin(), order.end(),
            [](const Record* a, const Record* b) { return a->start < b->start; });
  if (order.size() > kReplayRequests) order.resize(kReplayRequests);

  {
    Server server(spec_document, server_options(workers));
    double handle_us = 0.0, transport_us = 0.0, codec_us = 0.0;
    for (const Record* record : order) {
      RequestScope scope(record->request);
      const std::string& text = workload.lines[record->line].text;
      Span handle("serve.handle_line");
      const std::string response = server.handle_line(text);
      const double ms = handle.stop();
      handle_us += 1e3 * ms;
      transport_us += 1e3 * (record->ms - ms);
      sorel::json::Object document = sorel::json::parse(response).as_object();
      Span codec("serve.codec");
      const auto request = sorel::serve::parse_request(text);
      consume(static_cast<double>(
          sorel::serve::dump_response(std::move(document)).size() +
          request.op.size()));
      codec_us += 1e3 * codec.stop();
    }
    const double n = static_cast<double>(order.size());
    outcome.metrics["serve.handle_us"] = handle_us / n;
    outcome.metrics["serve.transport_us"] = transport_us / n;
    outcome.metrics["serve.codec_us"] = codec_us / n;
  }

  // Spec text -> Assembly, as the server's load_spec does it.
  const std::unique_ptr<sorel::core::Assembly> assembly =
      load_spec(parse_spec(workload.spec.text));
  auto session = std::make_unique<sorel::core::EvalSession>(*assembly);
  session->attach_shared_memo(sorel::core::make_shared_memo(*assembly));
  double rebase_ms = 0.0, pfail_ms = 0.0, invalidated = 0.0, evaluations = 0.0;
  std::size_t evals = 0;
  for (const Record* record : order) {
    RequestScope scope(record->request);
    const Line& line = workload.lines[record->line];
    if (line.kind == Kind::kReload) {
      // A reload gives the server a fresh table and fresh sessions.
      session = std::make_unique<sorel::core::EvalSession>(*assembly);
      session->attach_shared_memo(sorel::core::make_shared_memo(*assembly));
      continue;
    }
    if (line.kind != Kind::kEval) continue;
    const auto before = session->stats();
    Span rebase("core.session.rebase");
    session->rebase_attributes(line.evaluations[0]);
    rebase_ms += rebase.stop();
    Span pfail("core.engine.pfail");
    consume(session->pfail("app", {}));
    pfail_ms += pfail.stop();
    const auto& after = session->stats();
    invalidated += static_cast<double>(after.memo_invalidated - before.memo_invalidated);
    evaluations += static_cast<double>(after.evaluations - before.evaluations);
    ++evals;
  }
  const double n = static_cast<double>(std::max<std::size_t>(evals, 1));
  outcome.metrics["core.session.rebase_us"] = 1e3 * rebase_ms / n;
  outcome.metrics["core.session.memo_invalidated"] = invalidated / n;
  outcome.metrics["core.us_per_eval"] =
      evaluations > 0.0 ? 1e3 * pfail_ms / evaluations : 0.0;
}

}  // namespace

Outcome run_serve_mixed(const RunConfig& config) {
  Outcome outcome;
  Tracer& tracer = Tracer::instance();
  tracer.set_enabled(config.trace);
  const unsigned workers =
      config.nproc > kClients ? config.nproc - static_cast<unsigned>(kClients) : 1;
  const std::string socket_path =
      config.out_dir + "/serve-" + std::to_string(::getpid()) + ".sock";

  // Set-up: spec generation, parse, server load (load + validate), listening,
  // clients connected.
  PartitionedSpec spec;
  Value spec_document;
  std::unique_ptr<Stack> stack;
  const double setup_s = median_setup_s(kSetupReps, [&] {
    stack.reset();
    spec = make_partitioned_spec(config.seed, kGroups, kLeaves);
    spec_document = parse_spec(spec.text);
    stack = std::make_unique<Stack>();
    {
      Span span("serve.load_spec");
      stack->server = std::make_unique<Server>(spec_document, server_options(workers));
    }
    stack->listener =
        std::make_unique<sorel::serve::TcpListener>(*stack->server, socket_path);
    stack->listener->start();
    for (std::size_t c = 0; c < kClients; ++c) {
      stack->clients.push_back(std::make_unique<sorel::resil::Client>(socket_path));
      const auto health = stack->clients.back()->call("{\"op\":\"health\"}");
      if (!health.ok) throw std::runtime_error("serve_mixed: client cannot connect");
    }
  });
  tracer.set_enabled(false);
  const Workload workload = make_workload(config.seed, std::move(spec));
  const std::vector<std::string> reference =
      reference_responses(workload, spec_document, workers, outcome);
  for (auto& client : stack->clients) {
    consume(client->call("{\"op\":\"eval\",\"service\":\"app\"}").ok ? 1.0 : 0.0);
  }

  std::vector<std::size_t> positions(kClients, 0);
  const auto finish = [&] {
    if (config.trace) {
      auto& m = outcome.metrics;
      for (const auto& client : stack->clients) {
        m["resil.retries"] += static_cast<double>(client->stats().retries);
        m["resil.transport_failures"] +=
            static_cast<double>(client->stats().transport_errors);
      }
      const auto stats = stack->server->stats();
      m["serve.queue_depth_max"] = static_cast<double>(stats.queue_depth_max);
      m["serve.requests_in_flight_max"] =
          static_cast<double>(stats.requests_in_flight_max);
    }
    stack.reset();
  };

  if (!config.trace) {
    const Clock::time_point begin = Clock::now();
    const auto logs =
        run_phase(*stack, workload, reference, positions, config.seconds, nullptr);
    const double elapsed_s = ms_since(begin) / 1e3;
    outcome.metrics["setup_s"] = setup_s;
    report_latency(outcome, latencies(logs, workload, nullptr), 0.99,
                   static_cast<double>(count(logs)), elapsed_s);
    tally_responses(logs, outcome);
    finish();
    return outcome;
  }

  const auto untraced = run_phase(*stack, workload, reference, positions,
                                  config.seconds / 2, nullptr);
  tracer.set_enabled(true);
  sorel::sched::Scheduler& scheduler = sorel::sched::Scheduler::global();
  const auto sched_before = scheduler.stats();
  const auto server_before = stack->server->stats();
  MemoTally memo;
  const auto traced = run_phase(*stack, workload, reference, positions,
                                config.seconds / 2, &memo);
  memo.add_current(*stack->server);
  const auto sched_after = scheduler.stats();
  const auto server_after = stack->server->stats();

  auto& m = outcome.metrics;
  const double traced_requests = static_cast<double>(count(traced));
  const double traced_evals =
      static_cast<double>(server_after.evals - server_before.evals);
  m["core.evaluations"] = static_cast<double>(server_after.engine_evaluations -
                                              server_before.engine_evaluations) /
                          traced_evals;
  m["core.memo_hits"] = static_cast<double>(server_after.engine_memo_hits -
                                            server_before.engine_memo_hits) /
                        traced_evals;
  m["sched.tasks_run"] =
      static_cast<double>(sched_after.tasks_run - sched_before.tasks_run) /
      traced_requests;
  m["sched.steals"] =
      static_cast<double>(sched_after.steals - sched_before.steals) / traced_requests;
  m["memo.shared_hits"] = memo.hits / traced_requests;
  m["memo.shared_misses"] = memo.misses / traced_requests;
  m["memo.shared_hit_ratio"] =
      memo.hits + memo.misses > 0.0 ? memo.hits / (memo.hits + memo.misses) : 0.0;

  const Kind eval = Kind::kEval, batch = Kind::kBatch, reload = Kind::kReload;
  m["serve.eval_p50_ms"] = quantile(latencies(untraced, workload, &eval), 0.5);
  m["serve.eval_p99_ms"] = quantile(latencies(untraced, workload, &eval), 0.99);
  m["serve.request_p99_ms"] = quantile(latencies(untraced, workload, nullptr), 0.99);
  m["serve.batch_ms"] = mean(latencies(untraced, workload, &batch));
  m["serve.reload_ms"] = mean(latencies(untraced, workload, &reload));
  const double untraced_ms = central_ms(latencies(untraced, workload, nullptr));
  m["trace.overhead_pct"] =
      100.0 * (central_ms(latencies(traced, workload, nullptr)) - untraced_ms) /
      untraced_ms;

  tally_responses(untraced, outcome);
  tally_responses(traced, outcome);
  finish();
  replay_layers(workload, spec_document, traced, workers, outcome);
  probe_expr_layers(*load_spec(spec_document), 1.0, outcome);

  m["json.parse_ms"] = tracer.mean_self_ms("json.parse");
  m["dsl.load_ms"] = tracer.mean_self_ms("dsl.load");
  return outcome;
}

}  // namespace perfbench
