// sim_paper: the paper's own quantities on the simulated SSD.  One
// in-process ycsb::Runner drives presets::BoLT() on a SimEnv with the
// default SSD model: Load A, then YCSB A (zipfian), then a seeded
// MultiGet read-back checked against an oracle of every acknowledged
// write.  The paper's figures are in virtual time or in counted bytes and
// barriers, so they repeat exactly for a seed; each run does the whole
// sequence at least twice and checks that it does.  The CPU figures
// (norm_cpu_us_per_op, setup_s) are measured.
#include <malloc.h>

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "db/db.h"
#include "engines/presets.h"
#include "env/tracing_env.h"
#include "obs/metrics.h"
#include "obs/tracer.h"
#include "probes.h"
#include "sim/sim_context.h"
#include "sim/sim_env.h"
#include "util/hash.h"
#include "util/random.h"
#include "workloads.h"
#include "ycsb/ycsb.h"

namespace perfbench {
namespace {

constexpr uint64_t kRecords = 100000;
constexpr uint64_t kOperations = 40000;  // YCSB A
constexpr int kReadbackBatches = 8000;
constexpr int kMgetKeys = 8;
constexpr size_t kSpansPerStripe = 1 << 15;

// The virtual figures of one pass; identical for one seed.
struct Figures {
  double load_vkops = 0;
  double a_vops = 0;
  double get_p50_us = 0, get_p99_us = 0;
  double mget_p99_us = 0;
  double write_amp = 0, space_amp = 0, barriers_per_gb = 0;
  uint64_t reads = 0, updates = 0, sync_calls = 0;

  std::vector<double> Values() const {
    return {load_vkops, a_vops,    get_p50_us,      mget_p99_us,
            get_p99_us, write_amp, space_amp,       barriers_per_gb,
            double(reads), double(updates), double(sync_calls)};
  }
  JsonObject ToJson() const {
    JsonObject o;
    o.Number("load_vkops", load_vkops);
    o.Number("a_vops", a_vops);
    o.Number("get_p50_us", get_p50_us);
    o.Number("get_p99_us", get_p99_us);
    o.Number("mget_p99_us", mget_p99_us);
    o.Number("write_amp", write_amp);
    o.Number("space_amp", space_amp);
    o.Number("barriers_per_gb", barriers_per_gb);
    o.Integer("reads", reads);
    o.Integer("updates", updates);
    o.Integer("sync_calls", sync_calls);
    return o;
  }
};

struct Pass {
  double setup_cpu_s = 0;   // process CPU from the env's creation to
  double setup_wall_s = 0;  // the end of Load A, and wall time
  double a_wall_s = 0;
  double a_cpu_us_per_op = 0;  // process CPU in A, per operation
  double a_calibration_ns = 0;  // Calibrator::MedianWorkNanos over A
  double rss_mb = 0;  // resident set with the DB loaded and open
  Figures fig;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  bolt::Histogram update_latency;  // virtual
};

double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

// One full pass.  With layers != nullptr the pass runs traced (TracingEnv
// for per-file barrier attribution, a listener, a ProbeDB and a tracer on
// the virtual clock) and fills *layers with the per-layer metrics.
Pass RunPass(const Args& args, JsonObject* layers, JsonObject* info,
             double untraced_a_wall_s) {
  Pass pass;
  const uint64_t t0 = NowNanos();
  const uint64_t cpu0 = CpuNanos(CLOCK_PROCESS_CPUTIME_ID);
  auto sim = std::make_unique<bolt::SimEnv>();
  const bool traced = layers != nullptr;
  std::unique_ptr<bolt::TracingEnv> tracing_env;
  bolt::Env* env = sim.get();
  if (traced) {
    tracing_env = std::make_unique<bolt::TracingEnv>(sim.get());
    env = tracing_env.get();
  }
  bolt::obs::MetricsRegistry metrics;
  std::atomic<bool> on{traced};
  std::unique_ptr<bolt::obs::Tracer> tracer;
  std::shared_ptr<BenchListener> listener;
  bolt::Options options = bolt::presets::BoLT();
  options.env = env;
  options.metrics = &metrics;
  if (traced) {
    tracer = std::make_unique<bolt::obs::Tracer>(sim.get(), kSpansPerStripe);
    listener = std::make_shared<BenchListener>(tracer.get(), &on);
    options.listeners.push_back(listener);
  }
  bolt::DB* raw = nullptr;
  bolt::Status s = bolt::DB::Open(options, "/perfbench", &raw);
  if (!s.ok()) {
    fprintf(stderr, "perfbench: sim open: %s\n", s.ToString().c_str());
    pass.attempted = pass.failed = 1;
    return pass;
  }
  std::unique_ptr<bolt::DB> db(raw);
  OracleDB oracle(db.get());
  std::unique_ptr<ProbeDB> probe;
  bolt::DB* top = &oracle;
  if (traced) {
    probe = std::make_unique<ProbeDB>(&oracle, tracer.get(), &on);
    top = probe.get();
  }
  bolt::ycsb::Runner runner(top, env);

  bolt::ycsb::Spec load;
  load.workload = bolt::ycsb::Workload::kLoadA;
  load.record_count = kRecords;
  load.value_size = kValueSize;
  const bolt::ycsb::Result la = runner.Run(load);
  pass.setup_cpu_s = (CpuNanos(CLOCK_PROCESS_CPUTIME_ID) - cpu0) / 1e9;
  pass.setup_wall_s = (NowNanos() - t0) / 1e9;

  bolt::ycsb::Spec spec = load;
  spec.workload = bolt::ycsb::Workload::kA;
  spec.distribution = bolt::ycsb::Distribution::kZipfian;
  spec.operation_count = kOperations;
  spec.seed = args.seed;
  bolt::ycsb::Result a;
  {
    Calibrator calibrator;  // for the A phase
    const uint64_t calibrator_cpu1 = calibrator.ThreadCpuNanos();
    const uint64_t t1 = NowNanos();
    const uint64_t cpu1 = CpuNanos(CLOCK_PROCESS_CPUTIME_ID);
    a = runner.Run(spec);
    pass.a_wall_s = (NowNanos() - t1) / 1e9;
    const uint64_t cpu = CpuNanos(CLOCK_PROCESS_CPUTIME_ID) - cpu1 -
                         (calibrator.ThreadCpuNanos() - calibrator_cpu1);
    pass.a_cpu_us_per_op = cpu / 1e3 / kOperations;
    pass.a_calibration_ns = calibrator.MedianWorkNanos();
  }
  pass.update_latency = a.update_latency;

  // The paper's quantities cover Load A + A; the read-back below can
  // trigger seek compactions of its own.
  const bolt::IoStats io = env->GetIoStats();
  Figures& f = pass.fig;
  f.reads = a.read_latency.count();
  f.updates = a.update_latency.count();
  f.sync_calls = io.sync_calls;
  const double user_bytes = double(kRecords + f.updates) * kRecordBytes;
  f.load_vkops = la.throughput_ops_sec / 1000;
  f.a_vops = a.throughput_ops_sec;
  f.get_p50_us = a.read_latency.Percentile(50) / 1000.0;
  f.get_p99_us = a.read_latency.Percentile(99) / 1000.0;
  f.write_amp = io.bytes_written / user_bytes;
  f.space_amp = sim->TotalStoredBytes() / double(kRecords * kRecordBytes);
  f.barriers_per_gb = io.sync_calls / (user_bytes / 1e9);

  // Read-back: seeded MGETs of 8 keys, every value checked against the
  // last write the oracle saw acknowledged.
  bolt::Random64 rng(bolt::Mix64(args.seed) | 1);
  LatencyHistogram mget_vns;
  std::vector<std::string> keys(kMgetKeys), values;
  std::vector<bolt::Slice> slices(kMgetKeys);
  for (int b = 0; b < kReadbackBatches; b++) {
    for (int k = 0; k < kMgetKeys; k++) {
      keys[k] = bolt::ycsb::MakeKey(rng.Uniform(kRecords));
      slices[k] = keys[k];
    }
    const uint64_t v0 = env->NowNanos();
    const std::vector<bolt::Status> st =
        top->MultiGet(bolt::ReadOptions(), slices, &values);
    mget_vns.Add(env->NowNanos() - v0);
    for (int k = 0; k < kMgetKeys; k++) {
      pass.attempted++;
      const bool found = st[k].ok();
      if ((!found && !st[k].IsNotFound()) ||
          !oracle.Matches(keys[k], found, found ? values[k] : "")) {
        pass.failed++;
      }
    }
  }
  f.mget_p99_us = Summarize(mget_vns).p99_us;
  malloc_trim(0);  // as in the served workloads: no allocator leftovers
  pass.rss_mb = RssMb();
  if (!traced) return pass;

  // ---- Per-layer metrics of the traced pass ----
  using namespace bolt::obs;
  auto t = [&](Ticker k) { return static_cast<double>(metrics.Get(k)); };
  const PerfContext& perf = probe->perf();
  const BenchListener::Totals bg = listener->Snapshot();
  const double lookups = probe->gets().keys + probe->multigets().keys;
  const double puts = probe->puts().keys;
  const double jobs = t(kMemtableFlushes) + t(kCompactions);
  const LatencySummary put_lat = Summarize(probe->puts().ns);
  const LatencySummary get_lat = Summarize(probe->gets().ns);
  const LatencySummary mget_lat = Summarize(probe->multigets().ns);
  JsonObject& m = *layers;
  // No server and no router on this workload.
  m.Metric("net.io_busy_frac", 0, "frac");
  m.Metric("net.self_us_per_cmd", 0, "us");
  m.Metric("net.server_get_us_p99", 0, "us");
  m.Metric("net.server_set_us_p99", 0, "us");
  m.Metric("net.cmd_errors", 0, "count");
  m.Metric("shard.skew", 0, "x");
  m.Metric("shard.mget_us_per_key", 0, "us");
  // ProbeDB spans are wall-clock: the engine's CPU cost on the simulator.
  m.Metric("db.put_us_p50", put_lat.p50_us, "us");
  m.Metric("db.put_us_p99", put_lat.p99_us, "us");
  m.Metric("db.get_us_p50", get_lat.p50_us, "us");
  m.Metric("db.get_us_p99", get_lat.p99_us, "us");
  m.Metric("db.multiget_us_p99", mget_lat.p99_us, "us");
  // PerfContext timings run on the env clock: virtual ns here.
  m.Metric("db.memtable_insert_ns_per_put",
           Ratio(perf.memtable_insert_ns, puts), "ns");
  m.Metric("db.memtable_get_ns_per_get", Ratio(perf.memtable_get_ns, lookups),
           "ns");
  m.Metric("db.get_from_memtable_frac", Ratio(perf.get_from_memtable, lookups),
           "frac");
  m.Metric("db.stall_us_total", t(kStallMicros), "us");
  m.Metric("db.slowdowns", t(kSlowdownWrites), "count");
  m.Metric("wal.append_ns_per_put", Ratio(perf.wal_append_ns, puts), "ns");
  m.Metric("wal.syncs", t(kWalSyncs), "count");
  m.Metric("wal.group_sync_shared", t(kWalGroupSyncShared), "count");
  m.Metric("wal.bytes_per_put", Ratio(t(kWalBytesAppended), puts), "B");
  m.Metric("compaction.busy_s", bg.compaction_ns / 1e9, "s");
  m.Metric("flush.busy_s", bg.flush_ns / 1e9, "s");
  m.Metric("compaction.count", t(kCompactions), "count");
  m.Metric("flush.count", t(kMemtableFlushes), "count");
  m.Metric("compaction.bytes_written", t(kCompactionBytesWritten), "B");
  m.Metric("compaction.data_barriers_per_job",
           Ratio(t(kCompactionFileSyncs), jobs), "1/job");
  m.Metric("compaction.manifest_barriers_per_job",
           Ratio(t(kManifestSyncs) - 2,
                 jobs + t(kTrivialMoves) + t(kPureSettledCompactions)),
           "1/job");
  m.Metric("compaction.settled_promotions", t(kSettledPromotions), "count");
  m.Metric("compaction.parallel_frac",
           Ratio(t(kParallelCompactions), t(kCompactions)), "frac");
  m.Metric("table.sstable_get_ns_per_get", Ratio(perf.sstable_get_ns, lookups),
           "ns");
  m.Metric("table.tables_consulted_per_get",
           Ratio(perf.tables_consulted, lookups), "count");
  m.Metric("table.bloom_useful_frac",
           Ratio(perf.bloom_useful, perf.bloom_checked), "frac");
  m.Metric("cache.block_hit_frac",
           Ratio(perf.block_cache_hits,
                 perf.block_cache_hits + perf.block_cache_misses),
           "frac");
  m.Metric("cache.table_hit_frac",
           Ratio(perf.table_cache_hits,
                 perf.table_cache_hits + perf.table_cache_misses),
           "frac");
  m.Metric("env.bytes_written_per_user_byte", f.write_amp, "x");
  m.Metric("env.syncs", io.sync_calls, "count");
  m.Metric("env.bytes_read_per_get", Ratio(io.bytes_read, t(kNumKeysRead)),
           "B");
  m.Metric("env.files_opened", io.files_opened, "count");
  m.Metric("env.sync_us_p99", metrics.GetHist(kSyncBarrierNs).Percentile(99) / 1e3,
           "us");
  m.Metric("env.readbatch_entries_per_submit",
           Ratio(t(kIoBatchReads), t(kIoBatchSubmits)), "count");
  m.Metric("sim.barrier_vs", sim->sim()->barrier_busy_ns() / 1e9, "s");
  m.Metric("sim.stall_vs", t(kStallMicros) / 1e6, "s");
  m.Metric("sim.bg_busy_vs", (bg.flush_ns + bg.compaction_ns) / 1e9, "s");
  m.Metric("sim.load_vkops", f.load_vkops, "kops/s");
  m.Metric("trace.overhead_frac",
           1.0 - Ratio(untraced_a_wall_s, pass.a_wall_s), "frac");

  const std::string trace_path = args.work_dir + "/trace-sim_paper.json";
  if (FILE* file = fopen(trace_path.c_str(), "w")) {
    const std::string json = tracer->ChromeJson();
    fwrite(json.data(), 1, json.size(), file);
    fclose(file);
    info->String("trace_file", trace_path);
  }
  info->Integer("trace_spans_dropped", tracer->dropped());
  info->Object("span_self_times", SpanSelfTimes(*tracer));
  return pass;
}

}  // namespace

bool RunSim(const Args& args, RunResult* result) {
  if (args.workload != "sim_paper") return false;

  // At least two passes, and as many as fit in --seconds; a traced run
  // makes one untraced pass and one traced pass.
  std::vector<Pass> passes;
  const uint64_t start = NowNanos();
  while (passes.size() < 2 ||
         (!args.trace && NowNanos() - start < args.seconds * 1e9)) {
    const bool traced_pass = args.trace && passes.size() == 1;
    passes.push_back(RunPass(args, traced_pass ? &result->metrics : nullptr,
                             &result->info,
                             passes.empty() ? 0 : passes[0].a_wall_s));
  }

  bool repeat_exact = true;
  std::vector<double> setup_s, rss_mb, cpu_us_per_op, calibration_ns,
      norm_cpu_us_per_op;
  for (const Pass& p : passes) {
    rss_mb.push_back(p.rss_mb);
    cpu_us_per_op.push_back(p.a_cpu_us_per_op);
    calibration_ns.push_back(p.a_calibration_ns);
    norm_cpu_us_per_op.push_back(
        AtReferenceSpeed(p.a_cpu_us_per_op, p.a_calibration_ns));
    result->attempted += p.attempted;
    result->failed += p.failed;
    setup_s.push_back(p.setup_cpu_s);
    repeat_exact = repeat_exact && p.fig.Values() == passes[0].fig.Values();
  }
  result->correct = result->failed == 0 && repeat_exact;
  if (!repeat_exact) {
    fprintf(stderr, "perfbench: sim passes disagree for one seed\n");
  }

  const Figures& f = passes[0].fig;
  JsonObject& info = result->info;
  info.String("engine", "presets::BoLT() on SimEnv (default SSD model)");
  info.Integer("records", kRecords);
  info.Integer("operations", kOperations);
  info.Integer("passes", passes.size());
  info.Number("cpu_us_per_op", Median(cpu_us_per_op));
  info.Number("calibration_ms", Median(calibration_ns) / 1e6);
  info.Number("peak_rss_mb", PeakRssMb());
  info.Bool("passes_identical", repeat_exact);
  info.Object("virtual", f.ToJson());
  {
    JsonObject samples;
    samples.Integer("get", f.reads);
    samples.Integer("set", f.updates);
    samples.Integer("mget", kReadbackBatches);
    info.Object("samples", samples);
    JsonObject set;
    set.Number("p50_us", passes[0].update_latency.Percentile(50) / 1000.0);
    set.Number("p99_us", passes[0].update_latency.Percentile(99) / 1000.0);
    info.Object("set_virtual", set);
    JsonObject runs;
    for (size_t i = 0; i < passes.size(); i++) {
      JsonObject o;
      o.Number("cpu_s", passes[i].setup_cpu_s);
      o.Number("wall_s", passes[i].setup_wall_s);
      runs.Object(std::to_string(i), o);
    }
    info.Object("setups", runs);
  }
  if (args.trace) return true;

  JsonObject& m = result->metrics;
  m.Metric("norm_cpu_us_per_op", Median(norm_cpu_us_per_op), "us");
  m.Metric("setup_s", Median(setup_s), "s");
  m.Metric("rss_mb", Median(rss_mb), "MB");
  m.Metric("write_amp", f.write_amp, "x");
  m.Metric("space_amp", f.space_amp, "x");
  m.Metric("barriers_per_gb", f.barriers_per_gb, "1/GB");
  return true;
}

}  // namespace perfbench
