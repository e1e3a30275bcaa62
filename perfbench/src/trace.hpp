// In-memory span recorder for the traced run.
//
// A Span brackets one call into a layer's public function, made from the
// benchmark's own code: it records its name, start, end, the span open
// around it on the same thread (its parent) and the id of the request it
// belongs to. Spans are kept in memory and written out once, at the end of
// the run, as Chrome trace-event JSON (Perfetto and chrome://tracing open
// it). A layer's self time is its span minus the part of that interval its
// child spans cover.
//
// With tracing disabled a Span still measures its own duration — replays
// use that — but records nothing, so the untraced run pays two clock reads
// per span at most.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "harness.hpp"

namespace perfbench {

class Tracer {
 public:
  struct Record {
    std::uint64_t id = 0;
    std::uint64_t parent = 0;   // 0: a root span
    std::uint64_t request = 0;  // 0: outside any request
    const char* name = "";      // a string literal: "<layer>.<call>"
    std::uint32_t thread = 0;
    Clock::time_point start;
    Clock::time_point end;
  };

  static Tracer& instance();

  void set_enabled(bool enabled);
  bool enabled() const noexcept { return enabled_; }

  /// A fresh request id, shared by the spans of one request.
  std::uint64_t next_request();

  /// Mean self time of the spans named `name` — each span's duration minus
  /// the time its children cover — in ms (0 when there are none).
  double mean_self_ms(const std::string& name) const;
  std::size_t span_count() const;

  /// Write every recorded span as Chrome trace-event JSON; `metadata` lands
  /// in the file's "otherData" object. Returns false when the file cannot
  /// be written.
  bool write_chrome_json(const std::string& path,
                         const std::map<std::string, std::string>& metadata) const;

 private:
  friend class Span;
  friend class RequestScope;

  void record(const Record& record);

  bool enabled_ = false;
  const Clock::time_point epoch_ = Clock::now();  // trace timestamps count from here
  mutable std::mutex mutex_;
  std::vector<Record> records_;  // guarded by mutex_
  std::atomic<std::uint64_t> next_id_{1};
  std::atomic<std::uint64_t> next_request_{1};
};

/// RAII span. Not copyable; must end on the thread that opened it.
class Span {
 public:
  explicit Span(const char* name);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  /// End the span now (idempotent) and return its duration in ms.
  double stop();

 private:
  const char* name_;
  std::uint64_t id_ = 0;
  std::uint64_t parent_ = 0;
  Clock::time_point start_;
  double elapsed_ms_ = -1.0;  // < 0 while open
};

/// Tags every span this thread opens while in scope with one request id.
class RequestScope {
 public:
  explicit RequestScope(std::uint64_t request);
  ~RequestScope();
  RequestScope(const RequestScope&) = delete;
  RequestScope& operator=(const RequestScope&) = delete;

 private:
  std::uint64_t previous_;
};

}  // namespace perfbench
