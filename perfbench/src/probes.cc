#include "probes.h"

#include <algorithm>
#include <chrono>
#include <functional>
#include <map>
#include <string_view>
#include <utility>

namespace perfbench {

using bolt::obs::PerfContext;

void AddPerfDelta(const PerfContext& before, const PerfContext& after,
                  PerfContext* sum) {
#define PERFBENCH_DELTA(f) sum->f += after.f - before.f
  PERFBENCH_DELTA(wal_append_ns);
  PERFBENCH_DELTA(wal_sync_ns);
  PERFBENCH_DELTA(memtable_insert_ns);
  PERFBENCH_DELTA(write_stall_ns);
  PERFBENCH_DELTA(write_slowdowns);
  PERFBENCH_DELTA(memtable_get_ns);
  PERFBENCH_DELTA(sstable_get_ns);
  PERFBENCH_DELTA(tables_consulted);
  PERFBENCH_DELTA(get_from_memtable);
  PERFBENCH_DELTA(bloom_checked);
  PERFBENCH_DELTA(bloom_useful);
  PERFBENCH_DELTA(table_cache_hits);
  PERFBENCH_DELTA(table_cache_misses);
  PERFBENCH_DELTA(block_cache_hits);
  PERFBENCH_DELTA(block_cache_misses);
  PERFBENCH_DELTA(barrier_waits);
#undef PERFBENCH_DELTA
}

uint64_t CpuNanos(clockid_t clock) {
  struct timespec ts {};
  clock_gettime(clock, &ts);
  return static_cast<uint64_t>(ts.tv_sec) * 1000000000ull + ts.tv_nsec;
}

// ---- Calibrator ------------------------------------------------------------

namespace {

// The calibration work, with inputs built once, untimed.
class CalibrationWork {
 public:
  CalibrationWork();
  // Does the work once; returns its CPU time on the calling thread.
  uint64_t RunNanos();

 private:
  std::vector<uint32_t> cycle_;
  std::vector<uint64_t> keys_, sorted_;
  std::string text_;
  uint32_t at_ = 0;
};

CalibrationWork::CalibrationWork()
    : cycle_(1 << 20), keys_(1 << 14), text_(64 << 10, '\0') {
  uint64_t x = 0x9e3779b97f4a7c15ull;
  auto next_random = [&x] {
    x = x * 6364136223846793005ull + 1442695040888963407ull;
    return x >> 11;
  };
  // One cycle through every slot, in a fixed pseudo-random order.
  const uint32_t slots = static_cast<uint32_t>(cycle_.size());
  std::vector<uint32_t> order(slots);
  for (uint32_t i = 0; i < slots; i++) order[i] = i;
  for (uint32_t i = slots - 1; i > 0; i--) {
    std::swap(order[i], order[next_random() % (i + 1)]);
  }
  for (uint32_t i = 0; i < slots; i++) {
    cycle_[order[i]] = order[(i + 1) % slots];
  }
  for (uint64_t& k : keys_) k = next_random();
  for (char& c : text_) c = static_cast<char>(next_random());
}

uint64_t CalibrationWork::RunNanos() {
  const uint64_t start = CpuNanos(CLOCK_THREAD_CPUTIME_ID);
  for (int i = 0; i < 100000; i++) at_ = cycle_[at_];
  sorted_ = keys_;
  std::sort(sorted_.begin(), sorted_.end());
  size_t h = 0;
  for (int i = 0; i < 8; i++) h ^= std::hash<std::string_view>()(text_) + i;
  const uint64_t took = CpuNanos(CLOCK_THREAD_CPUTIME_ID) - start;
  // Keep the work observable so the compiler cannot drop it.
  asm volatile("" : : "r"(h + sorted_[0] + at_) : "memory");
  return took;
}

}  // namespace

Calibrator::Calibrator() : thread_([this] { Loop(); }) {
  while (!ready_.load()) std::this_thread::yield();
}

Calibrator::~Calibrator() {
  stop_.store(true);
  thread_.join();
}

uint64_t Calibrator::ThreadCpuNanos() const { return CpuNanos(clock_); }

double Calibrator::MedianWorkNanos() {
  std::lock_guard<std::mutex> lock(mu_);
  return Median(samples_);
}

void Calibrator::Loop() {
  CalibrationWork work;
  pthread_getcpuclockid(pthread_self(), &clock_);
  ready_.store(true);
  while (!stop_.load()) {
    const uint64_t took = work.RunNanos();
    {
      std::lock_guard<std::mutex> lock(mu_);
      samples_.push_back(static_cast<double>(took));
    }
    std::this_thread::sleep_for(std::chrono::nanoseconds(3 * took));
  }
}

// ---- ProbeDB ---------------------------------------------------------------

// One timed engine call: a span on the tracer's clock, a wall-clock
// duration, the calling thread's CPU time, and its PerfContext delta.
class ProbeDB::Scope {
 public:
  Scope(ProbeDB* db, CallStats* stats, const char* span_name, uint64_t keys)
      : db_(db),
        stats_(stats),
        span_(db->tracer_, span_name, "db"),
        before_(*bolt::obs::GetPerfContext()),
        cpu_start_(CpuNanos(CLOCK_THREAD_CPUTIME_ID)),
        start_(NowNanos()) {
    span_.AddArg("keys", keys);
    stats_->keys += keys;
  }
  ~Scope() {
    const uint64_t dur = NowNanos() - start_;
    stats_->ns.Add(dur);
    stats_->total_ns += dur;
    stats_->cpu_ns += CpuNanos(CLOCK_THREAD_CPUTIME_ID) - cpu_start_;
    AddPerfDelta(before_, *bolt::obs::GetPerfContext(), &db_->perf_);
  }

  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  ProbeDB* const db_;
  CallStats* const stats_;
  bolt::obs::SpanScope span_;
  const PerfContext before_;
  const uint64_t cpu_start_;
  const uint64_t start_;
};

void ProbeDB::LearnCaller() {
  if (caller_known_.load(std::memory_order_acquire)) return;
  if (pthread_getcpuclockid(pthread_self(), &caller_clock_) == 0) {
    caller_known_.store(true, std::memory_order_release);
  }
}

bool ProbeDB::CallerCpuClock(clockid_t* clock) const {
  if (!caller_known_.load(std::memory_order_acquire)) return false;
  *clock = caller_clock_;
  return true;
}

bolt::Status ProbeDB::Put(const bolt::WriteOptions& o, const bolt::Slice& key,
                          const bolt::Slice& value) {
  LearnCaller();
  if (!on_->load(std::memory_order_relaxed)) return target_->Put(o, key, value);
  Scope scope(this, &put_, "db.put", 1);
  return target_->Put(o, key, value);
}

bolt::Status ProbeDB::Get(const bolt::ReadOptions& o, const bolt::Slice& key,
                          std::string* value) {
  LearnCaller();
  if (!on_->load(std::memory_order_relaxed)) return target_->Get(o, key, value);
  Scope scope(this, &get_, "db.get", 1);
  return target_->Get(o, key, value);
}

std::vector<bolt::Status> ProbeDB::MultiGet(
    const bolt::ReadOptions& o, const std::vector<bolt::Slice>& keys,
    std::vector<std::string>* values) {
  LearnCaller();
  if (!on_->load(std::memory_order_relaxed)) {
    return target_->MultiGet(o, keys, values);
  }
  Scope scope(this, &multiget_, "db.multiget", keys.size());
  return target_->MultiGet(o, keys, values);
}

// ---- OracleDB --------------------------------------------------------------

namespace {

uint64_t ValueHash(std::string_view value) {
  return std::hash<std::string_view>()(value);
}

}  // namespace

bolt::Status OracleDB::Put(const bolt::WriteOptions& o, const bolt::Slice& key,
                           const bolt::Slice& value) {
  bolt::Status s = target_->Put(o, key, value);
  if (s.ok()) last_[key.ToString()] = ValueHash({value.data(), value.size()});
  return s;
}

bool OracleDB::Matches(const std::string& key, bool found,
                       const std::string& value) const {
  auto it = last_.find(key);
  if (it == last_.end()) return !found;
  return found && it->second == ValueHash(value);
}

// ---- BenchListener ---------------------------------------------------------

BenchListener::Totals BenchListener::Snapshot() const {
  std::lock_guard<std::mutex> l(mu_);
  return totals_;
}

void BenchListener::Span(const char* name, uint64_t dur_ns, const char* key,
                         uint64_t value) {
  if (tracer_ == nullptr || !on_->load(std::memory_order_relaxed)) return;
  bolt::obs::Span span;
  span.name = name;
  span.cat = "bg";
  const uint64_t now = tracer_->NowNanos();
  span.start_ns = now > dur_ns ? now - dur_ns : 0;
  span.dur_ns = dur_ns;
  span.tid = bolt::obs::Tracer::CurrentTid();
  span.args[0] = {key, value};
  span.num_args = 1;
  tracer_->Record(std::move(span));
}

void BenchListener::OnFlushEnd(const bolt::obs::FlushJobInfo& info) {
  {
    std::lock_guard<std::mutex> l(mu_);
    totals_.flush_ns += info.duration_ns;
  }
  Span("flush", info.duration_ns, "bytes", info.output_bytes);
}

void BenchListener::OnCompactionEnd(const bolt::obs::CompactionJobInfo& info) {
  {
    std::lock_guard<std::mutex> l(mu_);
    totals_.compaction_ns += info.duration_ns;
  }
  Span("compaction", info.duration_ns, "barriers", info.barriers);
}

void BenchListener::OnSubcompactionEnd(
    const bolt::obs::SubcompactionInfo& info) {
  Span("subcompaction", info.duration_ns, "shard", info.shard);
}

void BenchListener::OnWriteStall(const bolt::obs::WriteStallInfo& info) {
  Span("stall", info.duration_ns, "cause", static_cast<uint64_t>(info.cause));
}

void BenchListener::OnSyncBarrier(const bolt::obs::SyncBarrierInfo& info) {
  Span("barrier", info.duration_ns, "wal", info.wal ? 1 : 0);
}

// ---- Span self times -------------------------------------------------------

JsonObject SpanSelfTimes(const bolt::obs::Tracer& tracer) {
  struct Agg {
    uint64_t count = 0, total_ns = 0, self_ns = 0;
  };
  struct Open {
    uint64_t end_ns;
    size_t index;
    const char* name;
  };
  // Snapshot() orders by start, parents before the children they cover.
  const std::vector<bolt::obs::Span> spans = tracer.Snapshot();
  std::vector<uint64_t> child_ns(spans.size(), 0);
  std::map<uint32_t, std::vector<Open>> stacks;  // per tid
  for (size_t i = 0; i < spans.size(); i++) {
    const bolt::obs::Span& s = spans[i];
    std::vector<Open>& stack = stacks[s.tid];
    while (!stack.empty() && stack.back().end_ns <= s.start_ns) {
      stack.pop_back();
    }
    if (!stack.empty() &&
        std::string_view(stack.back().name) == std::string_view(s.name)) {
      continue;  // an overlapping sibling, e.g. a pipelined request
    }
    if (!stack.empty()) child_ns[stack.back().index] += s.dur_ns;
    stack.push_back({s.start_ns + s.dur_ns, i, s.name});
  }
  std::map<std::string, Agg> by_name;
  for (size_t i = 0; i < spans.size(); i++) {
    Agg& a = by_name[spans[i].name];
    a.count++;
    a.total_ns += spans[i].dur_ns;
    a.self_ns += spans[i].dur_ns - std::min(child_ns[i], spans[i].dur_ns);
  }
  JsonObject out;
  for (const auto& [name, a] : by_name) {
    JsonObject o;
    o.Integer("count", a.count);
    o.Number("total_ms", a.total_ns / 1e6);
    o.Number("self_ms", a.self_ns / 1e6);
    out.Object(name, o);
  }
  return out;
}

}  // namespace perfbench
