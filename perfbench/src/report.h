// Result plumbing shared by the workloads: exact percentiles, the
// ordered metric/info maps printed as JSON, and the process/filesystem
// probes (clock, peak RSS, allocated bytes under a directory).
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

// Monotonic wall clock in nanoseconds (the same steady clock PosixEnv
// reports, so client timestamps and engine spans share one timeline).
uint64_t NowNanos();

// A latency distribution in fixed memory: log-linear buckets, 128 per
// power of two (values below 128 ns are exact), so a percentile is
// within 0.4% of the true sample value however many samples arrive.
// Memory does not grow with throughput, which keeps rss_mb a property of
// the engine rather than of the load generator.
class LatencyHistogram {
 public:
  void Add(uint64_t ns);
  void Merge(const LatencyHistogram& other);
  uint64_t count() const { return count_; }
  // Nearest-rank percentile in nanoseconds, interpolated by rank inside
  // its bucket.  0 when empty.
  double Percentile(double p) const;

 private:
  static constexpr int kSubBits = 7;
  std::vector<uint64_t> buckets_;  // grown on demand
  uint64_t count_ = 0;
};

// Percentiles with the sample count they rest on.
struct LatencySummary {
  uint64_t count = 0;
  double p50_us = 0;
  double p99_us = 0;
  double p999_us = 0;
};
LatencySummary Summarize(const LatencyHistogram& h);

double Median(std::vector<double> values);

// Peak resident set size of this process, in MiB.
double PeakRssMb();
// Current resident set size of this process, in MiB.
double RssMb();

// Cumulative CPU time of the whole machine, from /proc/stat: ticks the
// hypervisor stole from this VM's CPUs, and all ticks.
struct CpuTicks {
  uint64_t steal = 0;
  uint64_t total = 0;
};
CpuTicks ReadCpuTicks();
// Share of the machine's CPU time stolen between two readings.
double StealFrac(const CpuTicks& before, const CpuTicks& after);

// Bytes the filesystem has allocated to every file under dir (st_blocks,
// so punched holes do not count).
uint64_t AllocatedBytes(const std::string& dir);

// An ordered JSON object built from (key, already-encoded JSON value)
// pairs.  Keys are plain identifiers and need no escaping.
class JsonObject {
 public:
  void Number(const std::string& key, double value);
  void Integer(const std::string& key, uint64_t value);
  void String(const std::string& key, const std::string& value);
  void Bool(const std::string& key, bool value);
  void Object(const std::string& key, const JsonObject& value);
  // {"value": v, "unit": u}, the shape the result line uses per metric.
  void Metric(const std::string& key, double value, const std::string& unit);
  void Latency(const std::string& key, const LatencySummary& s);

  std::string ToString() const;

 private:
  std::vector<std::pair<std::string, std::string>> fields_;
};

// What one workload run hands back to main.
struct RunResult {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  JsonObject metrics;  // end-to-end (trace 0) or per-layer (trace 1)
  JsonObject info;     // sample counts, ungated figures, provenance
};

}  // namespace perfbench
