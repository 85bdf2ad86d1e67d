// Shared helpers of the serving benchmark: clocks, order statistics, the
// metric sink that becomes the final JSON line, and response digests.
#ifndef WNRS_PERFBENCH_BENCH_COMMON_H_
#define WNRS_PERFBENCH_BENCH_COMMON_H_

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "net/protocol.h"
#include "serve/api.h"

namespace wnrs {
namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double MicrosBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::micro>(b - a).count();
}

/// Nearest-rank percentile (p in [0, 100]) of an unsorted sample; 0 when
/// empty.
inline double Percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = p / 100.0 * static_cast<double>(values.size());
  size_t idx = rank <= 1.0 ? 0 : static_cast<size_t>(rank + 0.999999) - 1;
  idx = std::min(idx, values.size() - 1);
  return values[idx];
}

inline double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid]
                                : 0.5 * (values[mid - 1] + values[mid]);
}

/// Median over groups of stat(samples of the group); `group[i]` is the
/// group of `values[i]`, groups numbered 0 .. num_groups-1.
template <typename Stat>
double MedianOverGroups(const std::vector<double>& values,
                        const std::vector<size_t>& group, size_t num_groups,
                        Stat stat) {
  std::vector<std::vector<double>> by_group(num_groups);
  for (size_t i = 0; i < values.size(); ++i) {
    by_group[group[i]].push_back(values[i]);
  }
  std::vector<double> stats;
  for (const std::vector<double>& g : by_group) {
    if (!g.empty()) stats.push_back(stat(g));
  }
  return Median(stats);
}

inline double Ratio(double num, double den) {
  return den > 0.0 ? num / den : 0.0;
}

/// Named metrics in insertion order, each with a unit and the number of
/// samples behind it. Printed one per line for people, and as the
/// {"name": {"value", "unit"}} object of the final JSON line.
class MetricSink {
 public:
  void Set(const std::string& name, double value, const std::string& unit,
           uint64_t samples) {
    entries_.push_back(Entry{name, value, unit, samples});
  }

  void PrintLines(const char* prefix) const {
    for (const Entry& e : entries_) {
      std::printf("%s %-40s %14.6f %-8s samples=%llu\n", prefix,
                  e.name.c_str(), e.value, e.unit.c_str(),
                  static_cast<unsigned long long>(e.samples));
    }
  }

  std::string ToJsonObject() const {
    std::string out = "{";
    for (size_t i = 0; i < entries_.size(); ++i) {
      char buf[512];
      std::snprintf(buf, sizeof(buf), "%s\"%s\": {\"value\": %.9g, \"unit\": \"%s\"}",
                    i == 0 ? "" : ", ", entries_[i].name.c_str(),
                    entries_[i].value, entries_[i].unit.c_str());
      out += buf;
    }
    return out + "}";
  }

 private:
  struct Entry {
    std::string name;
    double value = 0.0;
    std::string unit;
    uint64_t samples = 0;
  };
  std::vector<Entry> entries_;
};

/// Failures keyed by operation ("rsl", ..., "mwq_approx", "insert",
/// "delete") and status name ("FailedPrecondition", "IoError", ...).
class FailureLedger {
 public:
  void Attempt(uint64_t n = 1) { attempted_ += n; }
  void Fail(const std::string& op, const std::string& status) {
    ++failed_;
    ++by_op_status_[{op, status}];
  }
  void Merge(const FailureLedger& other) {
    attempted_ += other.attempted_;
    failed_ += other.failed_;
    for (const auto& [key, count] : other.by_op_status_) {
      by_op_status_[key] += count;
    }
  }
  uint64_t attempted() const { return attempted_; }
  uint64_t failed() const { return failed_; }
  uint64_t CountStatus(const std::string& status) const {
    uint64_t n = 0;
    for (const auto& [key, count] : by_op_status_) {
      if (key.second == status) n += count;
    }
    return n;
  }
  std::string ToJson() const {
    std::string out = "{";
    bool first = true;
    for (const auto& [key, count] : by_op_status_) {
      out += (first ? "\"" : ", \"") + key.first + "/" + key.second +
             "\": " + std::to_string(count);
      first = false;
    }
    return out + "}";
  }

 private:
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
  std::map<std::pair<std::string, std::string>, uint64_t> by_op_status_;
};

/// FNV-1a over the wire encoding of a response with the scheduling fields
/// (batch flag, queue wait) cleared: two digests are equal iff status,
/// kind and payload are bit-identical.
inline uint64_t ResponseDigest(serve::WhyNotResponse response) {
  response.shared_batch = false;
  response.queue_wait = std::chrono::microseconds(0);
  const std::string bytes = net::EncodeResponseFrame(0, response);
  uint64_t h = 1469598103934665603ull;
  for (const char ch : bytes) {
    h ^= static_cast<unsigned char>(ch);
    h *= 1099511628211ull;
  }
  return h;
}

}  // namespace perfbench
}  // namespace wnrs

#endif  // WNRS_PERFBENCH_BENCH_COMMON_H_
