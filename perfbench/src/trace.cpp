#include "trace.hpp"

#include <algorithm>
#include <cstdio>
#include <unordered_map>

#include "sorel/json/json.hpp"

namespace perfbench {

namespace {

struct ThreadState {
  std::vector<std::uint64_t> open;  // ids of the spans open on this thread
  std::uint64_t request = 0;
  std::uint32_t thread = 0;
};

ThreadState& this_thread_state() {
  static std::atomic<std::uint32_t> next_thread{1};
  thread_local ThreadState state{{}, 0, next_thread.fetch_add(1)};
  return state;
}

double us_between(Clock::time_point begin, Clock::time_point end) {
  return std::chrono::duration<double, std::micro>(end - begin).count();
}

}  // namespace

Tracer& Tracer::instance() {
  static Tracer tracer;
  return tracer;
}

void Tracer::set_enabled(bool enabled) { enabled_ = enabled; }

std::uint64_t Tracer::next_request() { return next_request_.fetch_add(1); }

void Tracer::record(const Record& record) {
  std::lock_guard<std::mutex> lock(mutex_);
  records_.push_back(record);
}

std::size_t Tracer::span_count() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return records_.size();
}

double Tracer::mean_self_ms(const std::string& name) const {
  std::vector<Record> records;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    records = records_;
  }
  std::unordered_map<std::uint64_t, std::vector<const Record*>> children;
  for (const Record& r : records) {
    if (r.parent != 0) children[r.parent].push_back(&r);
  }
  std::size_t count = 0;
  double self_ms = 0.0;
  for (const Record& r : records) {
    if (name != r.name) continue;
    // The span minus the union of its children's intervals, clipped to the
    // span (children end before their parent on one thread, but clipping
    // keeps the sum honest either way).
    std::vector<std::pair<Clock::time_point, Clock::time_point>> covered;
    if (const auto it = children.find(r.id); it != children.end()) {
      for (const Record* child : it->second) {
        covered.emplace_back(std::max(child->start, r.start),
                             std::min(child->end, r.end));
      }
    }
    std::sort(covered.begin(), covered.end());
    double covered_ms = 0.0;
    Clock::time_point reach = r.start;
    for (const auto& [begin, end] : covered) {
      const Clock::time_point from = std::max(begin, reach);
      if (end > from) {
        covered_ms += ms_between(from, end);
        reach = end;
      }
    }
    ++count;
    self_ms += ms_between(r.start, r.end) - covered_ms;
  }
  return count == 0 ? 0.0 : self_ms / static_cast<double>(count);
}

bool Tracer::write_chrome_json(
    const std::string& path,
    const std::map<std::string, std::string>& metadata) const {
  std::vector<Record> records;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    records = records_;
  }
  std::FILE* file = std::fopen(path.c_str(), "w");
  if (file == nullptr) return false;
  std::fputs("{\"displayTimeUnit\":\"ms\",\"otherData\":", file);
  sorel::json::Object other;
  for (const auto& [key, value] : metadata) other[key] = value;
  std::fputs(sorel::json::Value(std::move(other)).dump().c_str(), file);
  std::fputs(",\"traceEvents\":[", file);
  bool first = true;
  for (const Record& r : records) {
    const std::string name(r.name);
    const std::string category = name.substr(0, name.find('.'));
    std::fprintf(file,
                 "%s\n{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\",\"pid\":1,"
                 "\"tid\":%u,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"span\":%llu,"
                 "\"parent\":%llu,\"request\":%llu}}",
                 first ? "" : ",", name.c_str(), category.c_str(), r.thread,
                 us_between(epoch_, r.start), us_between(r.start, r.end),
                 static_cast<unsigned long long>(r.id),
                 static_cast<unsigned long long>(r.parent),
                 static_cast<unsigned long long>(r.request));
    first = false;
  }
  std::fputs("\n]}\n", file);
  return std::fclose(file) == 0;
}

Span::Span(const char* name) : name_(name) {
  Tracer& tracer = Tracer::instance();
  if (tracer.enabled()) {
    ThreadState& state = this_thread_state();
    id_ = tracer.next_id_.fetch_add(1);
    parent_ = state.open.empty() ? 0 : state.open.back();
    state.open.push_back(id_);
  }
  start_ = Clock::now();
}

Span::~Span() { stop(); }

double Span::stop() {
  if (elapsed_ms_ >= 0.0) return elapsed_ms_;
  const Clock::time_point end = Clock::now();
  elapsed_ms_ = ms_between(start_, end);
  if (id_ != 0) {
    ThreadState& state = this_thread_state();
    state.open.pop_back();
    Tracer::Record record;
    record.id = id_;
    record.parent = parent_;
    record.request = state.request;
    record.name = name_;
    record.thread = state.thread;
    record.start = start_;
    record.end = end;
    Tracer::instance().record(record);
  }
  return elapsed_ms_;
}

RequestScope::RequestScope(std::uint64_t request)
    : previous_(this_thread_state().request) {
  this_thread_state().request = request;
}

RequestScope::~RequestScope() { this_thread_state().request = previous_; }

}  // namespace perfbench
