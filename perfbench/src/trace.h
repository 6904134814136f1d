// In-memory span and record log for the perfbench binary.
//
// Spans follow a tagged-event model: each carries a name, start and end on
// one steady clock, the span that caused it, the request it belongs to and,
// for engine steps, the layer. They are recorded around calls into the
// program's public API only, kept in memory, and written out when the run
// ends; perfbench/analysis.py turns them into self times and a Chrome trace.
#ifndef PERFBENCH_SRC_TRACE_H_
#define PERFBENCH_SRC_TRACE_H_

#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

// Microseconds since the process's first call, on std::chrono::steady_clock.
double NowUs();

struct Span {
  std::string name;
  uint64_t request = 0;
  int64_t parent = -1;  // Index of the causing span, -1 for a root.
  int64_t layer = -1;
  double start_us = 0.0;
  double end_us = 0.0;
  uint64_t thread = 0;
};

// Thread-safe. When constructed off, Begin returns -1 and records nothing,
// so untraced runs pay one branch per boundary.
class SpanLog {
 public:
  explicit SpanLog(bool on) : on_(on) {}

  int64_t Begin(const char* name, uint64_t request, int64_t parent, int64_t layer = -1);
  void End(int64_t id);
  std::vector<Span> Take();

 private:
  const bool on_;
  std::mutex mu_;
  std::vector<Span> spans_;
};

// Opens a span on construction and closes it on destruction.
class ScopedSpan {
 public:
  ScopedSpan(SpanLog* log, const char* name, uint64_t request, int64_t parent,
             int64_t layer = -1)
      : log_(log), id_(log->Begin(name, request, parent, layer)) {}
  ~ScopedSpan() { log_->End(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  int64_t id() const { return id_; }

 private:
  SpanLog* log_;
  int64_t id_;
};

// Minimal JSON object writer: keys are emitted in call order.
class JsonObject {
 public:
  JsonObject& Num(const std::string& key, double value);
  JsonObject& Int(const std::string& key, int64_t value);
  JsonObject& Str(const std::string& key, const std::string& value);
  JsonObject& Bool(const std::string& key, bool value);
  // `json` must already be valid JSON (an object or array).
  JsonObject& Raw(const std::string& key, const std::string& json);
  std::string Close() const { return body_ + "}"; }

 private:
  void Key(const std::string& key);
  std::string body_ = "{";
};

// %.17g, so a value round-trips exactly; non-finite values become null.
std::string JsonNumber(double value);
std::string JsonArray(const std::vector<std::string>& items);
std::string SpansJson(const std::vector<Span>& spans);

}  // namespace perfbench

#endif  // PERFBENCH_SRC_TRACE_H_
