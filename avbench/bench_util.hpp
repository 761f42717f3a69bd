// Small measurement helpers shared by the benchmark's sim and live
// workloads: host clocks, process CPU and peak RSS, self-time spans, and a
// flat JSON object writer for the report run.py reads.
#pragma once

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

namespace avbench {

using Clock = std::chrono::steady_clock;

inline double secondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

inline std::int64_t nowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

/// User + system CPU seconds of the whole process (every thread).
inline double processCpuSeconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const auto tv = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) + static_cast<double>(t.tv_usec) / 1e6;
  };
  return tv(usage.ru_utime) + tv(usage.ru_stime);
}

/// High-water resident set size of the process, in MiB.
inline double peakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

inline double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t m = v.size() / 2;
  return v.size() % 2 == 1 ? v[m] : 0.5 * (v[m - 1] + v[m]);
}

/// Nearest-rank percentile of a sorted sample, q in (0, 1].
inline double percentileSorted(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0.0;
  std::size_t rank = static_cast<std::size_t>(q * static_cast<double>(sorted.size()));
  if (rank >= sorted.size()) rank = sorted.size() - 1;
  return sorted[rank];
}

/// Busy-time accumulator for one traced boundary: calls and self
/// nanoseconds (child spans on the same thread are subtracted).
struct SpanStat {
  std::uint64_t calls = 0;
  std::int64_t selfNs = 0;

  void add(const SpanStat& o) {
    calls += o.calls;
    selfNs += o.selfNs;
  }
  double seconds() const { return static_cast<double>(selfNs) / 1e9; }
};

/// Nanoseconds spent in spans that closed inside the currently open span on
/// this thread. Each shard runs a window on one thread, so nesting is
/// tracked per thread and needs no synchronization.
inline thread_local std::int64_t tlChildNs = 0;

/// RAII span: adds one call and its self time to `stat` when it closes.
class ScopedSpan {
 public:
  explicit ScopedSpan(SpanStat& stat)
      : stat_(stat), start_(nowNs()), savedChild_(tlChildNs) {
    tlChildNs = 0;
  }
  ~ScopedSpan() {
    const std::int64_t total = nowNs() - start_;
    stat_.calls += 1;
    stat_.selfNs += total - tlChildNs;
    tlChildNs = savedChild_ + total;
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanStat& stat_;
  std::int64_t start_;
  std::int64_t savedChild_;
};

/// Flat JSON object builder: numbers, strings, and nested raw objects.
class JsonObject {
 public:
  JsonObject& num(const std::string& key, double value) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", value);
    return raw(key, buf);
  }
  JsonObject& str(const std::string& key, const std::string& value) {
    std::string quoted = "\"";
    for (char c : value) {
      if (c == '"' || c == '\\') quoted += '\\';
      quoted += c;
    }
    quoted += '"';
    return raw(key, quoted);
  }
  JsonObject& raw(const std::string& key, const std::string& json) {
    fields_.emplace_back(key, json);
    return *this;
  }
  std::string dump() const {
    std::string out = "{";
    for (std::size_t i = 0; i < fields_.size(); ++i) {
      if (i > 0) out += ", ";
      out += "\"" + fields_[i].first + "\": " + fields_[i].second;
    }
    return out + "}";
  }

 private:
  std::vector<std::pair<std::string, std::string>> fields_;
};

inline std::string jsonArray(const std::vector<std::string>& items) {
  std::string out = "[";
  for (std::size_t i = 0; i < items.size(); ++i) {
    if (i > 0) out += ", ";
    out += items[i];
  }
  return out + "]";
}

inline std::string jsonNumbers(const std::vector<double>& values) {
  std::vector<std::string> items;
  for (double v : values) {
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    items.emplace_back(buf);
  }
  return jsonArray(items);
}

inline std::string hex64(std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "0x%016llx", static_cast<unsigned long long>(v));
  return buf;
}

}  // namespace avbench
