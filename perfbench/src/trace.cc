#include "trace.h"

#include <chrono>
#include <cmath>
#include <cstdio>
#include <functional>
#include <thread>

namespace perfbench {

double NowUs() {
  static const auto epoch = std::chrono::steady_clock::now();
  return std::chrono::duration<double, std::micro>(std::chrono::steady_clock::now() - epoch)
      .count();
}

int64_t SpanLog::Begin(const char* name, uint64_t request, int64_t parent, int64_t layer) {
  if (!on_) {
    return -1;
  }
  Span span;
  span.name = name;
  span.request = request;
  span.parent = parent;
  span.layer = layer;
  span.thread = std::hash<std::thread::id>{}(std::this_thread::get_id()) % 1000003;
  std::lock_guard<std::mutex> lock(mu_);
  span.start_us = NowUs();
  spans_.push_back(std::move(span));
  return static_cast<int64_t>(spans_.size()) - 1;
}

void SpanLog::End(int64_t id) {
  if (id < 0) {
    return;
  }
  const double now = NowUs();
  std::lock_guard<std::mutex> lock(mu_);
  spans_[static_cast<size_t>(id)].end_us = now;
}

std::vector<Span> SpanLog::Take() {
  std::lock_guard<std::mutex> lock(mu_);
  return std::move(spans_);
}

void JsonObject::Key(const std::string& key) {
  if (body_.size() > 1) {
    body_ += ",";
  }
  body_ += "\"" + key + "\":";
}

std::string JsonNumber(double value) {
  if (!std::isfinite(value)) {
    return "null";
  }
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  return buf;
}

JsonObject& JsonObject::Num(const std::string& key, double value) {
  Key(key);
  body_ += JsonNumber(value);
  return *this;
}

JsonObject& JsonObject::Int(const std::string& key, int64_t value) {
  Key(key);
  body_ += std::to_string(value);
  return *this;
}

JsonObject& JsonObject::Str(const std::string& key, const std::string& value) {
  Key(key);
  body_ += "\"";
  for (const char c : value) {
    if (c == '"' || c == '\\') {
      body_ += '\\';
      body_ += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      body_ += ' ';
    } else {
      body_ += c;
    }
  }
  body_ += "\"";
  return *this;
}

JsonObject& JsonObject::Bool(const std::string& key, bool value) {
  Key(key);
  body_ += value ? "true" : "false";
  return *this;
}

JsonObject& JsonObject::Raw(const std::string& key, const std::string& json) {
  Key(key);
  body_ += json;
  return *this;
}

std::string JsonArray(const std::vector<std::string>& items) {
  std::string out = "[";
  for (size_t i = 0; i < items.size(); ++i) {
    out += (i == 0 ? "" : ",") + items[i];
  }
  return out + "]";
}

std::string SpansJson(const std::vector<Span>& spans) {
  std::vector<std::string> items;
  items.reserve(spans.size());
  for (const Span& s : spans) {
    items.push_back(JsonObject()
                        .Str("name", s.name)
                        .Int("req", static_cast<int64_t>(s.request))
                        .Int("parent", s.parent)
                        .Int("layer", s.layer)
                        .Num("start_us", s.start_us)
                        .Num("end_us", s.end_us)
                        .Int("tid", static_cast<int64_t>(s.thread))
                        .Close());
  }
  return JsonArray(items);
}

}  // namespace perfbench
