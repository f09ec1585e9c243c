#include "report.h"

#include <sys/resource.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <filesystem>

namespace perfbench {

uint64_t NowNanos() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

namespace {

std::string FormatDouble(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[64];
  snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

}  // namespace

void LatencyHistogram::Add(uint64_t ns) {
  size_t index = ns;
  if (ns >= (1u << kSubBits)) {
    const int exp = 63 - __builtin_clzll(ns);  // >= kSubBits
    const int shift = exp - kSubBits;
    index = static_cast<size_t>(shift + 1) << kSubBits |
            ((ns >> shift) & ((1u << kSubBits) - 1));
  }
  if (index >= buckets_.size()) buckets_.resize(index + 1, 0);
  buckets_[index]++;
  count_++;
}

void LatencyHistogram::Merge(const LatencyHistogram& other) {
  if (other.buckets_.size() > buckets_.size()) {
    buckets_.resize(other.buckets_.size(), 0);
  }
  for (size_t i = 0; i < other.buckets_.size(); i++) {
    buckets_[i] += other.buckets_[i];
  }
  count_ += other.count_;
}

double LatencyHistogram::Percentile(double p) const {
  if (count_ == 0) return 0;
  uint64_t rank = static_cast<uint64_t>(std::ceil(p / 100.0 * count_));
  rank = std::clamp<uint64_t>(rank, 1, count_);
  uint64_t seen = 0;
  for (size_t i = 0; i < buckets_.size(); i++) {
    if (buckets_[i] == 0 || seen + buckets_[i] < rank) {
      seen += buckets_[i];
      continue;
    }
    const size_t group = i >> kSubBits;
    if (group == 0) return static_cast<double>(i);
    const int shift = static_cast<int>(group) - 1;
    const double lower =
        static_cast<double>((i & ((1u << kSubBits) - 1)) | (1u << kSubBits))
        * static_cast<double>(1ull << shift);
    const double width = static_cast<double>(1ull << shift);
    return lower + width * (rank - seen - 0.5) / buckets_[i];
  }
  return 0;
}

LatencySummary Summarize(const LatencyHistogram& h) {
  LatencySummary s;
  s.count = h.count();
  s.p50_us = h.Percentile(50) / 1000.0;
  s.p99_us = h.Percentile(99) / 1000.0;
  s.p999_us = h.Percentile(99.9) / 1000.0;
  return s;
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : (values[n / 2 - 1] + values[n / 2]) / 2;
}

double PeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return usage.ru_maxrss / 1024.0;  // ru_maxrss is in KiB on Linux
}

double RssMb() {
  long pages = 0, resident = 0;
  if (FILE* f = fopen("/proc/self/statm", "r")) {
    if (fscanf(f, "%ld %ld", &pages, &resident) != 2) resident = 0;
    fclose(f);
  }
  return resident * (sysconf(_SC_PAGESIZE) / 1048576.0);
}

CpuTicks ReadCpuTicks() {
  CpuTicks t;
  if (FILE* f = fopen("/proc/stat", "r")) {
    // cpu user nice system idle iowait irq softirq steal ...
    unsigned long long v[8] = {};
    if (fscanf(f, "cpu %llu %llu %llu %llu %llu %llu %llu %llu", &v[0], &v[1],
               &v[2], &v[3], &v[4], &v[5], &v[6], &v[7]) == 8) {
      t.steal = v[7];
      for (unsigned long long x : v) t.total += x;
    }
    fclose(f);
  }
  return t;
}

double StealFrac(const CpuTicks& before, const CpuTicks& after) {
  const uint64_t total = after.total - before.total;
  return total > 0 ? static_cast<double>(after.steal - before.steal) / total
                   : 0;
}

uint64_t AllocatedBytes(const std::string& dir) {
  uint64_t total = 0;
  std::error_code ec;
  for (auto it = std::filesystem::recursive_directory_iterator(dir, ec);
       !ec && it != std::filesystem::recursive_directory_iterator();
       it.increment(ec)) {
    struct stat st {};
    if (it->is_regular_file(ec) && stat(it->path().c_str(), &st) == 0) {
      total += static_cast<uint64_t>(st.st_blocks) * 512;
    }
  }
  return total;
}

void JsonObject::Number(const std::string& key, double value) {
  fields_.emplace_back(key, FormatDouble(value));
}

void JsonObject::Integer(const std::string& key, uint64_t value) {
  fields_.emplace_back(key, std::to_string(value));
}

void JsonObject::String(const std::string& key, const std::string& value) {
  std::string out = "\"";
  for (char c : value) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  fields_.emplace_back(key, out + "\"");
}

void JsonObject::Bool(const std::string& key, bool value) {
  fields_.emplace_back(key, value ? "true" : "false");
}

void JsonObject::Object(const std::string& key, const JsonObject& value) {
  fields_.emplace_back(key, value.ToString());
}

void JsonObject::Metric(const std::string& key, double value,
                        const std::string& unit) {
  JsonObject m;
  m.Number("value", value);
  m.String("unit", unit);
  Object(key, m);
}

void JsonObject::Latency(const std::string& key, const LatencySummary& s) {
  JsonObject m;
  m.Integer("n", s.count);
  m.Number("p50_us", s.p50_us);
  m.Number("p99_us", s.p99_us);
  m.Number("p999_us", s.p999_us);
  Object(key, m);
}

std::string JsonObject::ToString() const {
  std::string out = "{";
  for (size_t i = 0; i < fields_.size(); i++) {
    if (i > 0) out += ", ";
    out += "\"" + fields_[i].first + "\": " + fields_[i].second;
  }
  return out + "}";
}

}  // namespace perfbench
