// Benchmark-side probes: everything here observes the engine through its
// public interfaces, from outside src/.
//
//  * ForwardingDB forwards every DB call to a target DB.
//  * ProbeDB sits between a caller (the RESP server's io thread, or the
//    YCSB runner) and the engine.  While tracing is on it times each
//    engine call, sums the thread-local PerfContext delta around it, and
//    records a "db.<verb>" span.  While tracing is off it only forwards.
//  * OracleDB remembers a hash of the last value Put per key, so a
//    read-back can be checked against what was actually written.
//  * BenchListener is an obs::EventListener that totals flush and
//    compaction time and, while tracing is on, records flush, compaction,
//    subcompaction, stall and barrier spans.
#pragma once

#include <pthread.h>
#include <time.h>

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "db/db.h"
#include "obs/event_listener.h"
#include "obs/perf_context.h"
#include "obs/tracer.h"
#include "report.h"

namespace perfbench {

class ForwardingDB : public bolt::DB {
 public:
  explicit ForwardingDB(bolt::DB* target) : target_(target) {}

  bolt::Status Put(const bolt::WriteOptions& o, const bolt::Slice& key,
                   const bolt::Slice& value) override {
    return target_->Put(o, key, value);
  }
  bolt::Status Delete(const bolt::WriteOptions& o,
                      const bolt::Slice& key) override {
    return target_->Delete(o, key);
  }
  bolt::Status Write(const bolt::WriteOptions& o,
                     bolt::WriteBatch* updates) override {
    return target_->Write(o, updates);
  }
  bolt::Status Get(const bolt::ReadOptions& o, const bolt::Slice& key,
                   std::string* value) override {
    return target_->Get(o, key, value);
  }
  std::vector<bolt::Status> MultiGet(
      const bolt::ReadOptions& o, const std::vector<bolt::Slice>& keys,
      std::vector<std::string>* values) override {
    return target_->MultiGet(o, keys, values);
  }
  bolt::Iterator* NewIterator(const bolt::ReadOptions& o) override {
    return target_->NewIterator(o);
  }
  const bolt::Snapshot* GetSnapshot() override {
    return target_->GetSnapshot();
  }
  void ReleaseSnapshot(const bolt::Snapshot* s) override {
    target_->ReleaseSnapshot(s);
  }
  bool GetProperty(const bolt::Slice& property, std::string* value) override {
    return target_->GetProperty(property, value);
  }
  bolt::Status DumpTrace(const std::string& path) override {
    return target_->DumpTrace(path);
  }
  void CompactRange(const bolt::Slice* begin,
                    const bolt::Slice* end) override {
    target_->CompactRange(begin, end);
  }
  void WaitForBackgroundWork() override { target_->WaitForBackgroundWork(); }
  bolt::Status Resume() override { return target_->Resume(); }
  bolt::Status VerifyIntegrity() override {
    return target_->VerifyIntegrity();
  }
  bolt::Status GetBackgroundError() override {
    return target_->GetBackgroundError();
  }
  bolt::DbStats GetStats() override { return target_->GetStats(); }

 protected:
  bolt::DB* const target_;
};

// Per-verb timing gathered by ProbeDB.
struct CallStats {
  LatencyHistogram ns;       // wall-clock duration per call
  uint64_t keys = 0;         // keys looked up or written
  uint64_t total_ns = 0;
  uint64_t cpu_ns = 0;       // calling thread's CPU time inside the calls
};

class ProbeDB final : public ForwardingDB {
 public:
  // Spans go to tracer; timing happens only while *on is true.  Neither
  // is owned.
  ProbeDB(bolt::DB* target, bolt::obs::Tracer* tracer,
          const std::atomic<bool>* on)
      : ForwardingDB(target), tracer_(tracer), on_(on) {}

  bolt::Status Put(const bolt::WriteOptions& o, const bolt::Slice& key,
                   const bolt::Slice& value) override;
  bolt::Status Get(const bolt::ReadOptions& o, const bolt::Slice& key,
                   std::string* value) override;
  std::vector<bolt::Status> MultiGet(
      const bolt::ReadOptions& o, const std::vector<bolt::Slice>& keys,
      std::vector<std::string>* values) override;

  // The CPU clock of the first thread that called in (the server's io
  // thread when serving); false until a call has arrived.
  bool CallerCpuClock(clockid_t* clock) const;

  // Read only once the calling thread has quiesced.
  const CallStats& puts() const { return put_; }
  const CallStats& gets() const { return get_; }
  const CallStats& multigets() const { return multiget_; }
  const bolt::obs::PerfContext& perf() const { return perf_; }
  uint64_t cpu_ns() const {
    return put_.cpu_ns + get_.cpu_ns + multiget_.cpu_ns;
  }

 private:
  class Scope;

  void LearnCaller();

  bolt::obs::Tracer* const tracer_;
  const std::atomic<bool>* const on_;
  std::atomic<bool> caller_known_{false};
  clockid_t caller_clock_{};
  CallStats put_, get_, multiget_;
  bolt::obs::PerfContext perf_;  // summed per-call deltas
};

class OracleDB final : public ForwardingDB {
 public:
  explicit OracleDB(bolt::DB* target) : ForwardingDB(target) {}

  // Writes arrive through Put only (the YCSB runner's path).
  bolt::Status Put(const bolt::WriteOptions& o, const bolt::Slice& key,
                   const bolt::Slice& value) override;

  // True iff (found, value) is what the last acknowledged Put left.
  bool Matches(const std::string& key, bool found,
               const std::string& value) const;

 private:
  std::unordered_map<std::string, uint64_t> last_;  // key -> value hash
};

class BenchListener final : public bolt::obs::EventListener {
 public:
  BenchListener(bolt::obs::Tracer* tracer, const std::atomic<bool>* on)
      : tracer_(tracer), on_(on) {}

  // Time the background lanes spent in jobs (virtual ns on SimEnv).
  struct Totals {
    uint64_t flush_ns = 0;
    uint64_t compaction_ns = 0;
  };
  Totals Snapshot() const;

  void OnFlushEnd(const bolt::obs::FlushJobInfo& info) override;
  void OnCompactionEnd(const bolt::obs::CompactionJobInfo& info) override;
  void OnSubcompactionEnd(const bolt::obs::SubcompactionInfo& info) override;
  void OnWriteStall(const bolt::obs::WriteStallInfo& info) override;
  void OnSyncBarrier(const bolt::obs::SyncBarrierInfo& info) override;

 private:
  // Records [now - dur, now) while tracing is on.  The engine reports
  // sync barriers to listeners for WAL syncs only.
  void Span(const char* name, uint64_t dur_ns, const char* key,
            uint64_t value);

  bolt::obs::Tracer* const tracer_;
  const std::atomic<bool>* const on_;
  mutable std::mutex mu_;
  Totals totals_;
};

// field-by-field after - before, added into *sum.
void AddPerfDelta(const bolt::obs::PerfContext& before,
                  const bolt::obs::PerfContext& after,
                  bolt::obs::PerfContext* sum);

// Per span name: count, total and self time (duration minus the direct
// children nested inside it on the same thread), in milliseconds.  Spans
// of one name on one thread are siblings, never parent and child:
// pipelined requests overlap without nesting.
JsonObject SpanSelfTimes(const bolt::obs::Tracer& tracer);

// Current value of a CPU-time clock (a thread's or the process's), in ns.
uint64_t CpuNanos(clockid_t clock);

// Does a fixed, benchmark-owned piece of CPU work (a pointer chase
// through 4 MB, a sort, string hashing; no engine code) on its own thread,
// about a quarter of the time, for as long as it lives.  How long a piece
// takes measures how fast the host runs CPU work while the workload runs
// beside it: on a shared host the CPU time one operation costs moves with
// that speed (see NOTES.md).
class Calibrator {
 public:
  Calibrator();
  ~Calibrator();
  // CPU time the calibration thread has used so far.
  uint64_t ThreadCpuNanos() const;
  // Median CPU time of one piece of work so far.
  double MedianWorkNanos();

 private:
  void Loop();

  std::atomic<bool> stop_{false};
  std::atomic<bool> ready_{false};
  clockid_t clock_{};
  std::mutex mu_;
  std::vector<double> samples_;
  std::thread thread_;
};

// The calibration work's CPU time that defines the reference host speed.
constexpr double kReferenceWorkNs = 10e6;

// CPU time `cpu` scaled to the reference host speed, given the median
// calibration work time measured alongside it.
inline double AtReferenceSpeed(double cpu, double work_ns) {
  return work_ns > 0 ? cpu * kReferenceWorkNs / work_ns : 0;
}

}  // namespace perfbench
