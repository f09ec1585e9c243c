// The benchmark's workloads.  Each fills a RunResult: end-to-end metrics
// when args.trace is false, per-layer metrics when it is true.
#pragma once

#include <cstdint>
#include <string>

#include "report.h"

namespace perfbench {

struct Args {
  std::string workload;
  uint64_t seed = 1;
  int seconds = 10;
  bool trace = false;
  std::string work_dir;  // DB files and trace output go under here
};

// serve_write, serve_read_cold.  False: unknown name.
bool RunServed(const Args& args, RunResult* result);

// sim_paper.  False: unknown name.
bool RunSim(const Args& args, RunResult* result);

// Key/value sizes every workload uses: 23-byte ycsb::MakeKey keys and
// 1 KB ycsb::MakeValue values.
constexpr size_t kValueSize = 1024;
constexpr uint64_t kRecordBytes = 23 + kValueSize;

}  // namespace perfbench
