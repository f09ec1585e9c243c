// perfbench: one run of one workload.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1 --dir DIR
//
// Prints two JSON lines on stdout: an info object (sample counts, ungated
// figures, engine configuration), then the result object
// {"correct", "attempted", "failed", "metrics"}.  Exits 1 if any reply
// or read-back was wrong.  perfbench/run.py builds and runs this.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "report.h"
#include "workloads.h"

namespace {

bool ParseArgs(int argc, char** argv, perfbench::Args* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      args->seconds = atoi(value);
    } else if (flag == "--trace") {
      args->trace = strcmp(value, "0") != 0;
    } else if (flag == "--dir") {
      args->work_dir = value;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !args->workload.empty() &&
         !args->work_dir.empty() && args->seconds > 0;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Args args;
  if (!ParseArgs(argc, argv, &args)) {
    fprintf(stderr,
            "usage: perfbench --workload NAME --seed N --seconds S "
            "--trace 0|1 --dir DIR\n");
    return 2;
  }
  perfbench::RunResult result;
  if (!perfbench::RunServed(args, &result) &&
      !perfbench::RunSim(args, &result)) {
    fprintf(stderr, "perfbench: unknown workload %s\n",
            args.workload.c_str());
    return 2;
  }

  perfbench::JsonObject out;
  out.Bool("correct", result.correct);
  out.Integer("attempted", result.attempted);
  out.Integer("failed", result.failed);
  out.Object("metrics", result.metrics);
  printf("%s\n%s\n", result.info.ToString().c_str(), out.ToString().c_str());
  return result.correct ? 0 : 1;
}
