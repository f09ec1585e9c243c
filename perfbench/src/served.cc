// The served workloads: a closed-loop RESP load generator driving
// net::RespServer -> ShardedDB -> presets::BoLT() on PosixEnv over real
// loopback TCP.  See perfbench/NOTES.md for why each workload exists.
#include <malloc.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "db/write_batch.h"
#include "engines/presets.h"
#include "env/env.h"
#include "env/tracing_env.h"
#include "net/resp.h"
#include "net/server.h"
#include "net/socket.h"
#include "obs/metrics.h"
#include "obs/tracer.h"
#include "probes.h"
#include "shard/sharded_db.h"
#include "util/hash.h"
#include "util/random.h"
#include "util/zipfian.h"
#include "workloads.h"
#include "ycsb/ycsb.h"

namespace perfbench {
namespace {

using bolt::obs::MetricsRegistry;
using bolt::obs::Ticker;

constexpr int kShards = 2;
constexpr int kConnections = 2;
constexpr int kPipeline = 16;
constexpr int kMgetKeys = 8;
constexpr uint64_t kWarmCommands = 20000;  // per connection
constexpr uint64_t kPreloadBatch = 100;
// The timed phase is cut into half-second windows; the wall-clock
// figures are medians over windows, so one scheduler hiccup moves one
// window.
constexpr uint64_t kWindowNs = 500000000;
constexpr size_t kSpansPerStripe = 1 << 15;

struct Workload {
  const char* name;
  int setups;  // setup_s is the median; the last setup is measured
  uint64_t records;
  bool compact;  // full CompactRange after the preload
  int set_pct;
  int mget_pct;  // the rest are GETs
  bool zipfian;  // else uniform
};

constexpr Workload kWorkloads[] = {
    {"serve_write", 3, 100000, false, 50, 5, true},
    {"serve_read_cold", 2, 100000, true, 0, 10, false},
};

// The seed picks which records exist (their indices start at a
// seed-derived base) as well as the request stream.
uint64_t RecordBase(uint64_t seed) { return seed << 32; }

// Hash of ycsb::MakeValue for every record, so a GET reply is checked
// without regenerating the value.
std::vector<uint64_t> ValueHashes(uint64_t base, uint64_t n) {
  std::vector<uint64_t> hashes(n);
  for (uint64_t i = 0; i < n; i++) {
    const std::string v = bolt::ycsb::MakeValue(base + i, kValueSize);
    hashes[i] = std::hash<std::string_view>()(v);
  }
  return hashes;
}

class KeyStream {
 public:
  KeyStream(const Workload& w, uint64_t seed)
      : n_(w.records), uniform_(seed) {
    if (w.zipfian) {
      zipf_ = std::make_unique<bolt::ScrambledZipfianGenerator>(n_, seed);
    }
  }
  uint64_t Next() { return zipf_ ? zipf_->Next() : uniform_.Uniform(n_); }

 private:
  const uint64_t n_;
  std::unique_ptr<bolt::ScrambledZipfianGenerator> zipf_;
  bolt::Random64 uniform_;
};

// ---- Load generator --------------------------------------------------------

enum Kind { kGet = 0, kSet = 1, kMget = 2 };

struct Pending {
  Kind kind = kGet;
  int nkeys = 0;
  uint64_t records[kMgetKeys] = {};  // offsets from the record base
};

using WindowLatency = std::array<LatencyHistogram, 3>;  // per Kind

struct ClientTally {
  std::vector<WindowLatency> windows;  // by reply time, from plan.start_ns
  uint64_t commands = 0;
  uint64_t sets = 0;
  uint64_t failed = 0;
  uint64_t last_done_ns = 0;
  uint64_t cpu_ns = 0;  // this client thread's CPU time
  std::string error;
};

struct ClientPlan {
  const Workload* workload = nullptr;
  int port = 0;
  uint64_t base = 0;
  const std::vector<uint64_t>* hashes = nullptr;
  uint64_t seed = 1;
  // Stop after this many commands, or when *stop turns true.
  uint64_t budget = 0;
  const std::atomic<bool>* stop = nullptr;
  // Replies are binned into kWindowNs windows from start_ns (0: one bin).
  uint64_t start_ns = 0;
  // Traced windows: req spans go to tracer while *trace_on.
  const std::atomic<bool>* trace_on = nullptr;
  bolt::obs::Tracer* tracer = nullptr;
};

void AppendCommand(std::string* out, const std::vector<std::string>& args) {
  bolt::net::AppendArrayHeader(out, args.size());
  for (const std::string& a : args) bolt::net::AppendBulk(out, a);
}

bool BulkMatches(const ClientPlan& plan, const bolt::net::RespReply& r,
                 uint64_t record) {
  return r.type == bolt::net::RespReply::kBulk &&
         std::hash<std::string_view>()(r.str) == (*plan.hashes)[record];
}

bool ReplyMatches(const ClientPlan& plan, const Pending& p,
                  const bolt::net::RespReply& r) {
  switch (p.kind) {
    case kSet:
      return r.type == bolt::net::RespReply::kSimple && r.str == "OK";
    case kGet:
      return BulkMatches(plan, r, p.records[0]);
    case kMget:
      if (r.type != bolt::net::RespReply::kArray ||
          r.elements.size() != static_cast<size_t>(p.nkeys)) {
        return false;
      }
      for (int i = 0; i < p.nkeys; i++) {
        if (!BulkMatches(plan, r.elements[i], p.records[i])) return false;
      }
      return true;
  }
  return false;
}

bool SendAll(int fd, const std::string& buf) {
  size_t sent = 0;
  while (sent < buf.size()) {
    size_t n = 0;
    if (bolt::net::WriteSome(fd, buf.data() + sent, buf.size() - sent, &n) !=
        bolt::net::IoResult::kOk) {
      return false;
    }
    sent += n;
  }
  return true;
}

// One connection in a closed loop: send a pipeline of kPipeline
// commands, then read and check every reply.  A command's latency runs
// from the write of its batch to the parse of its reply.
void ClientLoop(const ClientPlan& plan, ClientTally* tally) {
  const Workload& w = *plan.workload;
  int fd = -1;
  if (!bolt::net::Connect("127.0.0.1", plan.port, &fd).ok()) {
    tally->error = "connect failed";
    tally->failed++;
    return;
  }
  const uint64_t cpu_start = CpuNanos(CLOCK_THREAD_CPUTIME_ID);
  KeyStream keys(w, plan.seed);
  bolt::Random64 op_rng(bolt::Mix64(plan.seed) | 1);
  std::string out, in;
  size_t in_pos = 0;
  std::vector<Pending> pending(kPipeline);
  std::vector<std::string> args;
  std::vector<char> chunk(64 << 10);
  bolt::net::RespReply reply;

  for (;;) {
    if (plan.stop != nullptr && plan.stop->load(std::memory_order_relaxed)) {
      break;
    }
    int batch = kPipeline;
    if (plan.stop == nullptr) {
      if (tally->commands >= plan.budget) break;
      batch = static_cast<int>(
          std::min<uint64_t>(batch, plan.budget - tally->commands));
    }

    out.clear();
    int n = 0;
    for (; n < batch; n++) {
      Pending& p = pending[n];
      args.clear();
      const int dice = static_cast<int>(op_rng.Uniform(100));
      if (dice < w.set_pct) {
        p.kind = kSet;
        p.nkeys = 1;
        p.records[0] = keys.Next();
        args = {"SET", bolt::ycsb::MakeKey(plan.base + p.records[0]),
                bolt::ycsb::MakeValue(plan.base + p.records[0], kValueSize)};
        tally->sets++;
      } else if (dice < w.set_pct + w.mget_pct) {
        p.kind = kMget;
        p.nkeys = kMgetKeys;
        args.push_back("MGET");
        for (int k = 0; k < kMgetKeys; k++) {
          p.records[k] = keys.Next();
          args.push_back(bolt::ycsb::MakeKey(plan.base + p.records[k]));
        }
      } else {
        p.kind = kGet;
        p.nkeys = 1;
        p.records[0] = keys.Next();
        args = {"GET", bolt::ycsb::MakeKey(plan.base + p.records[0])};
      }
      AppendCommand(&out, args);
    }
    if (n == 0) break;

    const bool traced = plan.trace_on != nullptr &&
                        plan.trace_on->load(std::memory_order_relaxed);
    const uint64_t sent_ns = NowNanos();
    if (!SendAll(fd, out)) {
      tally->error = "send failed";
      tally->failed += n;
      break;
    }
    int parsed = 0;
    bool broken = false;
    while (parsed < n) {
      size_t consumed = 0;
      const bolt::net::ParseResult pr = bolt::net::ParseReply(
          in.data() + in_pos, in.size() - in_pos, &consumed, &reply);
      if (pr == bolt::net::ParseResult::kOk) {
        const uint64_t done_ns = NowNanos();
        const Pending& p = pending[parsed];
        if (!ReplyMatches(plan, p, reply)) {
          if (tally->error.empty()) {
            tally->error = "wrong reply to " +
                           std::string(p.kind == kSet   ? "SET"
                                       : p.kind == kGet ? "GET"
                                                        : "MGET");
          }
          tally->failed++;
        }
        const size_t window =
            plan.start_ns == 0 ? 0 : (done_ns - plan.start_ns) / kWindowNs;
        if (window >= tally->windows.size()) {
          tally->windows.resize(window + 1);
        }
        tally->windows[window][p.kind].Add(done_ns - sent_ns);
        if (traced && plan.tracer != nullptr) {
          bolt::obs::Span span;
          span.name = "req";
          span.cat = "client";
          span.start_ns = sent_ns;
          span.dur_ns = done_ns - sent_ns;
          span.tid = bolt::obs::Tracer::CurrentTid();
          span.args[0] = {"kind", static_cast<uint64_t>(p.kind)};
          span.num_args = 1;
          plan.tracer->Record(std::move(span));
        }
        in_pos += consumed;
        parsed++;
        continue;
      }
      if (pr == bolt::net::ParseResult::kError) {
        broken = true;
        break;
      }
      in.erase(0, in_pos);
      in_pos = 0;
      size_t got = 0;
      if (bolt::net::ReadSome(fd, chunk.data(), chunk.size(), &got) !=
              bolt::net::IoResult::kOk ||
          got == 0) {
        broken = true;
        break;
      }
      in.append(chunk.data(), got);
    }
    if (broken) {
      tally->error = "connection lost";
      tally->failed += n - parsed;
      break;
    }
    tally->commands += n;
    tally->last_done_ns = NowNanos();
  }
  bolt::net::Close(fd);
  tally->cpu_ns = CpuNanos(CLOCK_THREAD_CPUTIME_ID) - cpu_start;
}

// Runs kConnections clients to completion.  plan.seed is mixed with the
// connection index.
std::vector<ClientTally> RunClients(ClientPlan plan) {
  std::vector<ClientTally> tallies(kConnections);
  std::vector<std::thread> threads;
  for (int c = 0; c < kConnections; c++) {
    ClientPlan mine = plan;
    mine.seed = bolt::Mix64(plan.seed * kConnections + c) | 1;
    threads.emplace_back(ClientLoop, mine, &tallies[c]);
  }
  for (std::thread& t : threads) t.join();
  return tallies;
}

// ---- Engine ----------------------------------------------------------------

struct Tickers {
  uint64_t v[bolt::obs::kTickerMax] = {};
  uint64_t operator[](Ticker t) const { return v[t]; }
};

Tickers ReadTickers(const MetricsRegistry& m) {
  Tickers t;
  for (uint32_t i = 0; i < bolt::obs::kTickerMax; i++) {
    t.v[i] = m.Get(static_cast<Ticker>(i));
  }
  return t;
}

// Everything one setup builds, torn down in reverse order.
struct Engine {
  std::string dir;
  bolt::Options options;
  std::unique_ptr<bolt::ShardedDB> db;
  std::unique_ptr<ProbeDB> probe;  // trace mode only
  std::unique_ptr<bolt::net::RespServer> server;

  bolt::DB* served() const {
    return probe ? static_cast<bolt::DB*>(probe.get()) : db.get();
  }

  ~Engine() {
    if (server) {
      server->Stop();
      server->Wait();
    }
    server.reset();
    probe.reset();
    db.reset();
    if (!dir.empty()) (void)bolt::DestroyShardedDB(dir, options);
  }
};

struct Context {
  const Workload* workload;
  const Args* args;
  uint64_t base;
  std::vector<uint64_t> hashes;
  MetricsRegistry metrics;  // one registry for the process: the env keeps
                            // a pointer to it across setups
  std::unique_ptr<bolt::TracingEnv> tracing_env;
  std::unique_ptr<bolt::obs::Tracer> tracer;
  std::shared_ptr<BenchListener> listener;
  std::atomic<bool> trace_on{false};

  bolt::Env* env() const {
    return tracing_env ? static_cast<bolt::Env*>(tracing_env.get())
                       : bolt::PosixEnv();
  }

  ~Context() { bolt::PosixEnv()->SetMetricsRegistry(nullptr); }
};

// Preload, wait (+ full compaction), start the server, warm up.
bool Setup(Context* ctx, Engine* e, uint64_t* warm_sets, std::string* err) {
  const Workload& w = *ctx->workload;
  e->options = bolt::presets::BoLT();
  e->options.env = ctx->env();
  e->options.metrics = &ctx->metrics;
  if (ctx->listener) e->options.listeners.push_back(ctx->listener);
  (void)bolt::DestroyShardedDB(e->dir, e->options);

  bolt::ShardedDB* raw = nullptr;
  bolt::Status s = bolt::ShardedDB::Open(e->options, kShards, e->dir, &raw);
  if (!s.ok()) {
    *err = "open: " + s.ToString();
    return false;
  }
  e->db.reset(raw);
  for (uint64_t i = 0; i < w.records;) {
    bolt::WriteBatch batch;
    for (uint64_t j = 0; j < kPreloadBatch && i < w.records; j++, i++) {
      batch.Put(bolt::ycsb::MakeKey(ctx->base + i),
                bolt::ycsb::MakeValue(ctx->base + i, kValueSize));
    }
    s = e->db->Write(bolt::WriteOptions(), &batch);
    if (!s.ok()) {
      *err = "preload: " + s.ToString();
      return false;
    }
  }
  e->db->WaitForBackgroundWork();
  if (w.compact) {
    e->db->CompactRange(nullptr, nullptr);
    e->db->WaitForBackgroundWork();
  }

  if (ctx->args->trace) {
    e->probe = std::make_unique<ProbeDB>(e->db.get(), ctx->tracer.get(),
                                         &ctx->trace_on);
  }
  bolt::net::ServerOptions server_options;
  server_options.metrics = &ctx->metrics;
  e->server =
      std::make_unique<bolt::net::RespServer>(e->served(), server_options);
  s = e->server->Start();
  if (!s.ok()) {
    *err = "server: " + s.ToString();
    return false;
  }

  ClientPlan plan;
  plan.workload = &w;
  plan.port = e->server->port();
  plan.base = ctx->base;
  plan.hashes = &ctx->hashes;
  plan.seed = ctx->args->seed * 2 + 1;
  plan.budget = kWarmCommands;
  uint64_t failed = 0;
  *warm_sets = 0;
  for (const ClientTally& t : RunClients(plan)) {
    failed += t.failed;
    *warm_sets += t.sets;
    if (!t.error.empty()) *err = "warm-up: " + t.error;
  }
  return failed == 0;
}

double WindowCount(const WindowLatency& w) {
  return w[kGet].count() + w[kSet].count() + w[kMget].count();
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

double P99Us(const bolt::Histogram& h) { return h.Percentile(99) / 1000.0; }

}  // namespace

bool RunServed(const Args& args, RunResult* result) {
  const Workload* w = nullptr;
  for (const Workload& candidate : kWorkloads) {
    if (args.workload == candidate.name) w = &candidate;
  }
  if (w == nullptr) return false;

  Context ctx;
  ctx.workload = w;
  ctx.args = &args;
  ctx.base = RecordBase(args.seed);
  ctx.hashes = ValueHashes(ctx.base, w->records);
  if (args.trace) {
    ctx.tracing_env = std::make_unique<bolt::TracingEnv>(bolt::PosixEnv());
    ctx.tracer = std::make_unique<bolt::obs::Tracer>(bolt::PosixEnv(),
                                                     kSpansPerStripe);
    ctx.listener = std::make_shared<BenchListener>(ctx.tracer.get(),
                                                   &ctx.trace_on);
  }

  // ---- Setup, w->setups times; the last one stays up ----
  std::vector<double> setup_cpu_s, setup_wall_s;
  std::unique_ptr<Engine> engine;
  bolt::IoStats io_open;
  Tickers at_open;
  uint64_t user_sets = 0;
  for (int round = 0; round < w->setups; round++) {
    engine.reset();  // tears the previous setup down (untimed)
    engine = std::make_unique<Engine>();
    engine->dir = args.work_dir + "/" + w->name;
    io_open = ctx.env()->GetIoStats();
    at_open = ReadTickers(ctx.metrics);
    std::string err;
    const uint64_t t0 = NowNanos();
    const uint64_t cpu0 = CpuNanos(CLOCK_PROCESS_CPUTIME_ID);
    if (!Setup(&ctx, engine.get(), &user_sets, &err)) {
      fprintf(stderr, "perfbench: setup failed: %s\n", err.c_str());
      result->correct = false;
      result->attempted = 1;
      result->failed = 1;
      return true;
    }
    setup_cpu_s.push_back((CpuNanos(CLOCK_PROCESS_CPUTIME_ID) - cpu0) / 1e9);
    setup_wall_s.push_back((NowNanos() - t0) / 1e9);
  }
  bolt::DB* served = engine->served();
  bolt::ShardedDB* db = engine->db.get();
  // Hand the heap pages the discarded setups freed back to the OS, so
  // rss_mb measures the serving engine, not allocator leftovers.
  malloc_trim(0);

  // ---- Timed phase ----
  std::atomic<bool> stop{false};
  ClientPlan plan;
  plan.workload = w;
  plan.port = engine->server->port();
  plan.base = ctx.base;
  plan.hashes = &ctx.hashes;
  plan.seed = args.seed * 2 + 2;
  plan.stop = &stop;
  plan.trace_on = &ctx.trace_on;
  plan.tracer = ctx.tracer.get();
  const int windows = static_cast<int>(args.seconds * 1e9 / kWindowNs);

  std::vector<uint64_t> shard_ops0(kShards);
  for (int i = 0; i < kShards; i++) {
    shard_ops0[i] = db->ShardReads(i) + db->ShardWrites(i);
  }
  const Tickers t_start = ReadTickers(ctx.metrics);
  const BenchListener::Totals bg_start =
      ctx.listener ? ctx.listener->Snapshot() : BenchListener::Totals();
  const bolt::IoStats io_start = ctx.env()->GetIoStats();
  std::vector<ClientTally> tallies;
  auto calibrator = std::make_unique<Calibrator>();  // for the timed phase
  const uint64_t calibrator_cpu_start = calibrator->ThreadCpuNanos();
  const uint64_t process_cpu_start = CpuNanos(CLOCK_PROCESS_CPUTIME_ID);
  const uint64_t start_ns = NowNanos();
  plan.start_ns = start_ns;
  std::thread clients([&] { tallies = RunClients(plan); });

  // Traced runs alternate untraced and traced windows, so
  // trace.overhead_frac compares like with like as the DB evolves.
  uint64_t io_cpu_on = 0, io_cpu_off = 0, wall_on = 0, wall_off = 0;
  std::vector<double> rss_mb;  // sampled at the end of every window
  std::vector<double> steal;   // hypervisor steal, per window
  CpuTicks ticks = ReadCpuTicks();
  clockid_t io_clock{};
  for (int i = 0; i < windows; i++) {
    const bool on = args.trace && i % 2 == 1;
    ctx.trace_on.store(on);
    const bool have_clock =
        engine->probe && engine->probe->CallerCpuClock(&io_clock);
    const uint64_t cpu0 = have_clock ? CpuNanos(io_clock) : 0;
    const uint64_t w0 = NowNanos();
    std::this_thread::sleep_until(
        std::chrono::steady_clock::time_point(std::chrono::nanoseconds(
            start_ns + (i + 1) * kWindowNs)));
    const uint64_t cpu = have_clock ? CpuNanos(io_clock) - cpu0 : 0;
    (on ? io_cpu_on : io_cpu_off) += cpu;
    (on ? wall_on : wall_off) += NowNanos() - w0;
    rss_mb.push_back(RssMb());
    const CpuTicks now = ReadCpuTicks();
    steal.push_back(StealFrac(ticks, now));
    ticks = now;
  }
  ctx.trace_on.store(false);
  stop.store(true);
  clients.join();
  const uint64_t process_cpu =
      CpuNanos(CLOCK_PROCESS_CPUTIME_ID) - process_cpu_start -
      (calibrator->ThreadCpuNanos() - calibrator_cpu_start);
  const double calibration_ns = calibrator->MedianWorkNanos();
  calibrator.reset();
  const Tickers t_end = ReadTickers(ctx.metrics);
  const bolt::IoStats io_end = ctx.env()->GetIoStats();
  const BenchListener::Totals bg_end =
      ctx.listener ? ctx.listener->Snapshot() : BenchListener::Totals();

  // Whole-phase distributions, and per-window ones for the windows the
  // timed phase covered completely.
  uint64_t commands = 0, failed = 0, sets = 0, client_cpu = 0;
  uint64_t last_done = start_ns;
  WindowLatency whole;
  std::vector<WindowLatency> per_window(windows);
  for (const ClientTally& t : tallies) {
    commands += t.commands;
    failed += t.failed;
    sets += t.sets;
    client_cpu += t.cpu_ns;
    last_done = std::max(last_done, t.last_done_ns);
    for (size_t i = 0; i < t.windows.size(); i++) {
      for (int k = 0; k < 3; k++) {
        whole[k].Merge(t.windows[i][k]);
        if (i < per_window.size()) per_window[i][k].Merge(t.windows[i][k]);
      }
    }
    if (!t.error.empty()) {
      fprintf(stderr, "perfbench: client: %s\n", t.error.c_str());
    }
  }
  user_sets += sets;
  const double timed_s = (last_done - start_ns) / 1e9;

  // Quiesce, then take the whole-life cost of this DB: bytes written and
  // barriers since its open, bytes on disk now.
  served->WaitForBackgroundWork();
  const bolt::IoStats io_quiet = ctx.env()->GetIoStats();
  const Tickers t_quiet = ReadTickers(ctx.metrics);
  const double user_bytes =
      static_cast<double>(w->records + user_sets) * kRecordBytes;
  const double live_bytes = static_cast<double>(w->records) * kRecordBytes;
  const double write_amp =
      (io_quiet.bytes_written - io_open.bytes_written) / user_bytes;
  const double barriers_per_gb =
      (io_quiet.sync_calls - io_open.sync_calls) / (user_bytes / 1e9);
  const double space_amp = AllocatedBytes(engine->dir) / live_bytes;

  const LatencySummary get = Summarize(whole[kGet]);
  const LatencySummary set = Summarize(whole[kSet]);
  const LatencySummary mget = Summarize(whole[kMget]);
  auto window_median = [&](Kind kind, double pct) {
    std::vector<double> v;
    for (const WindowLatency& w : per_window) {
      v.push_back(w[kind].Percentile(pct) / 1000.0);
    }
    return Median(v);
  };
  std::vector<double> window_rate;
  double traced = 0, untraced = 0;  // commands in traced/untraced windows
  for (int i = 0; i < windows; i++) {
    window_rate.push_back(WindowCount(per_window[i]) * 1e9 / kWindowNs);
    (args.trace && i % 2 == 1 ? traced : untraced) +=
        WindowCount(per_window[i]);
  }
  // CPU the system under test spent per command: the whole process minus
  // the two client threads and the calibration thread.  Unlike the
  // wall-clock figures, this does not move with the CPU time a hypervisor
  // steals from the VM; the normalised figure also divides out how fast
  // the host ran CPU work meanwhile (NOTES.md).
  const double cpu_us_per_op =
      Ratio((process_cpu - client_cpu) / 1e3, commands);
  const double norm_cpu_us_per_op =
      AtReferenceSpeed(cpu_us_per_op, calibration_ns);

  result->attempted = commands + failed;
  result->failed = failed;
  result->correct = failed == 0;

  JsonObject& info = result->info;
  info.String("engine", "presets::BoLT() on PosixEnv");
  info.Integer("shards", kShards);
  info.Integer("connections", kConnections);
  info.Integer("pipeline", kPipeline);
  info.Integer("records", w->records);
  info.Number("timed_s", timed_s);
  info.Integer("commands", commands);
  info.Number("failed_frac", Ratio(failed, commands + failed));
  info.Number("cpu_us_per_op", cpu_us_per_op);
  info.Number("client_cpu_us_per_op", Ratio(client_cpu / 1e3, commands));
  info.Integer("windows", windows);
  info.Number("steal_frac_median", Median(steal));
  info.Number("calibration_ms", calibration_ns / 1e6);
  {
    // Wall-clock figures as the clients saw them: medians over windows.
    JsonObject wall;
    wall.Number("throughput_ops_s", Median(window_rate));
    wall.Number("get_p50_us", window_median(kGet, 50));
    wall.Number("get_p99_us", window_median(kGet, 99));
    wall.Number("mget_p99_us", window_median(kMget, 99));
    wall.Number("set_p50_us", window_median(kSet, 50));
    wall.Number("set_p99_us", window_median(kSet, 99));
    info.Object("wall", wall);
  }
  info.Number("peak_rss_mb", PeakRssMb());
  info.Latency("get", get);
  info.Latency("set", set);
  info.Latency("mget", mget);
  {
    JsonObject by_window;
    for (int i = 0; i < windows; i++) {
      JsonObject o;
      o.Number("ops_s", WindowCount(per_window[i]) * 1e9 / kWindowNs);
      o.Number("steal_frac", steal[i]);
      o.Number("get_p99_us", per_window[i][kGet].Percentile(99) / 1000.0);
      o.Number("mget_p99_us", per_window[i][kMget].Percentile(99) / 1000.0);
      by_window.Object(std::to_string(i), o);
    }
    info.Object("by_window", by_window);
  }
  {
    JsonObject setups;
    for (size_t i = 0; i < setup_wall_s.size(); i++) {
      JsonObject o;
      o.Number("cpu_s", setup_cpu_s[i]);
      o.Number("wall_s", setup_wall_s[i]);
      setups.Object(std::to_string(i), o);
    }
    info.Object("setups", setups);
  }
  const uint64_t uring = t_end[bolt::obs::kIoBatchUringReads];
  const uint64_t fallback = t_end[bolt::obs::kIoBatchFallbackReads];
  info.String("readbatch_backend", uring > 0 && fallback == 0   ? "io_uring"
                                   : fallback > 0 && uring == 0 ? "fallback"
                                   : uring > 0                  ? "mixed"
                                                                : "unused");
  info.Integer("readbatch_uring_reads", uring);
  info.Integer("readbatch_fallback_reads", fallback);

  JsonObject& m = result->metrics;
  if (!args.trace) {
    m.Metric("norm_cpu_us_per_op", norm_cpu_us_per_op, "us");
    m.Metric("setup_s", Median(setup_cpu_s), "s");
    m.Metric("rss_mb", Median(rss_mb), "MB");
    m.Metric("write_amp", write_amp, "x");
    m.Metric("space_amp", space_amp, "x");
    m.Metric("barriers_per_gb", barriers_per_gb, "1/GB");
    return true;
  }

  // ---- Per-layer metrics (trace mode) ----
  using namespace bolt::obs;
  auto d = [&](Ticker t) { return static_cast<double>(t_end[t] - t_start[t]); };
  auto life = [&](Ticker t) {
    return static_cast<double>(t_quiet[t] - at_open[t]);
  };
  const ProbeDB& probe = *engine->probe;
  const PerfContext& perf = probe.perf();
  const double lookups = probe.gets().keys + probe.multigets().keys;
  const double puts = probe.puts().keys;
  const double on_s = wall_on / 1e9, off_s = wall_off / 1e9;
  const RequestStats& rs = engine->server->request_stats();

  uint64_t shard_max = 0, shard_sum = 0;
  for (int i = 0; i < kShards; i++) {
    const uint64_t ops = db->ShardReads(i) + db->ShardWrites(i) - shard_ops0[i];
    shard_max = std::max(shard_max, ops);
    shard_sum += ops;
  }
  const double jobs = life(kMemtableFlushes) + life(kCompactions);
  const double manifest_jobs =
      jobs + life(kTrivialMoves) + life(kPureSettledCompactions);
  const LatencySummary put_lat = Summarize(probe.puts().ns);
  const LatencySummary get_lat = Summarize(probe.gets().ns);
  const LatencySummary mget_lat = Summarize(probe.multigets().ns);

  m.Metric("net.io_busy_frac", Ratio(io_cpu_off / 1e9, off_s), "frac");
  m.Metric("net.self_us_per_cmd",
           Ratio((static_cast<double>(io_cpu_on) - probe.cpu_ns()) / 1e3,
                 traced),
           "us");
  m.Metric("net.server_get_us_p99", P99Us(rs.Latency(kVerbGet)), "us");
  m.Metric("net.server_set_us_p99", P99Us(rs.Latency(kVerbSet)), "us");
  m.Metric("net.cmd_errors", d(kNetCmdErrors), "count");
  m.Metric("shard.skew", Ratio(shard_max, shard_sum / double(kShards)), "x");
  m.Metric("shard.mget_us_per_key",
           Ratio(probe.multigets().total_ns / 1e3, probe.multigets().keys),
           "us");
  m.Metric("db.put_us_p50", put_lat.p50_us, "us");
  m.Metric("db.put_us_p99", put_lat.p99_us, "us");
  m.Metric("db.get_us_p50", get_lat.p50_us, "us");
  m.Metric("db.get_us_p99", get_lat.p99_us, "us");
  m.Metric("db.multiget_us_p99", mget_lat.p99_us, "us");
  m.Metric("db.memtable_insert_ns_per_put",
           Ratio(perf.memtable_insert_ns, puts), "ns");
  m.Metric("db.memtable_get_ns_per_get", Ratio(perf.memtable_get_ns, lookups),
           "ns");
  m.Metric("db.get_from_memtable_frac", Ratio(perf.get_from_memtable, lookups),
           "frac");
  m.Metric("db.stall_us_total", d(kStallMicros), "us");
  m.Metric("db.slowdowns", d(kSlowdownWrites), "count");
  m.Metric("wal.append_ns_per_put", Ratio(perf.wal_append_ns, puts), "ns");
  m.Metric("wal.syncs", d(kWalSyncs), "count");
  m.Metric("wal.group_sync_shared", d(kWalGroupSyncShared), "count");
  m.Metric("wal.bytes_per_put", Ratio(d(kWalBytesAppended), sets), "B");
  m.Metric("compaction.busy_s",
           (bg_end.compaction_ns - bg_start.compaction_ns) / 1e9, "s");
  m.Metric("flush.busy_s", (bg_end.flush_ns - bg_start.flush_ns) / 1e9, "s");
  m.Metric("compaction.count", d(kCompactions), "count");
  m.Metric("flush.count", d(kMemtableFlushes), "count");
  m.Metric("compaction.bytes_written", d(kCompactionBytesWritten), "B");
  m.Metric("compaction.data_barriers_per_job",
           Ratio(life(kCompactionFileSyncs), jobs), "1/job");
  m.Metric("compaction.manifest_barriers_per_job",
           Ratio(life(kManifestSyncs) - 2.0 * kShards, manifest_jobs), "1/job");
  m.Metric("compaction.settled_promotions", d(kSettledPromotions), "count");
  m.Metric("compaction.parallel_frac",
           Ratio(d(kParallelCompactions), d(kCompactions)), "frac");
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
  m.Metric("env.bytes_written_per_user_byte", write_amp, "x");
  m.Metric("env.syncs", io_end.sync_calls - io_start.sync_calls, "count");
  m.Metric("env.bytes_read_per_get",
           Ratio(io_end.bytes_read - io_start.bytes_read, d(kNumKeysRead)),
           "B");
  m.Metric("env.files_opened", io_end.files_opened - io_start.files_opened,
           "count");
  // Every env barrier since the process started (setups included): the
  // registry's histogram cannot be windowed.
  m.Metric("env.sync_us_p99", P99Us(ctx.metrics.GetHist(kSyncBarrierNs)),
           "us");
  m.Metric("env.readbatch_entries_per_submit",
           Ratio(d(kIoBatchReads), d(kIoBatchSubmits)), "count");
  m.Metric("sim.barrier_vs", 0, "s");
  m.Metric("sim.stall_vs", 0, "s");
  m.Metric("sim.bg_busy_vs", 0, "s");
  m.Metric("sim.load_vkops", 0, "kops/s");
  m.Metric("trace.overhead_frac",
           1.0 - Ratio(Ratio(traced, on_s), Ratio(untraced, off_s)), "frac");

  const std::string trace_path = args.work_dir + "/trace-" + w->name + ".json";
  if (FILE* f = fopen(trace_path.c_str(), "w")) {
    const std::string json = ctx.tracer->ChromeJson();
    fwrite(json.data(), 1, json.size(), f);
    fclose(f);
    info.String("trace_file", trace_path);
  }
  info.Integer("trace_spans_dropped", ctx.tracer->dropped());
  info.Object("span_self_times", SpanSelfTimes(*ctx.tracer));
  info.Integer("traced_commands", traced);
  info.Integer("untraced_commands", untraced);
  return true;
}

}  // namespace perfbench
