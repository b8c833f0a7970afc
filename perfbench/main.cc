// lb2bench: the repository benchmark binary.
//
//   lb2bench --workload new_shapes|olap_scan --seed N
//            --seconds S --trace 0|1 [--out DIR]
//
// Prints a human-readable report (hardware stamp, every metric with its
// unit, notes), then as its last stdout line one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// --trace 0 reports the end-to-end metrics; --trace 1 runs half the time
// untraced and half traced, adds the layer probe, and reports the
// per-layer metrics. Both write a summary (and, traced, a Chrome trace)
// under --out. Exits non-zero on any wrong answer or failed request.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "bench.h"

using namespace lb2::perfbench;  // NOLINT

namespace {

bool ParseArgs(int argc, char** argv, Args* a) {
  for (int i = 1; i < argc; ++i) {
    std::string k = argv[i];
    if (i + 1 >= argc) return false;
    std::string v = argv[++i];
    if (k == "--workload") {
      a->workload = v;
    } else if (k == "--seed") {
      a->seed = std::strtoull(v.c_str(), nullptr, 10);
    } else if (k == "--seconds") {
      a->seconds = std::atoi(v.c_str());
    } else if (k == "--trace") {
      a->trace = v == "1";
    } else if (k == "--out") {
      a->out_dir = v;
    } else {
      return false;
    }
  }
  return a->seconds >= 1 &&
         (a->workload == "new_shapes" || a->workload == "olap_scan");
}

void PrintMetricJson(FILE* f, const std::vector<Metric>& ms) {
  bool first = true;
  for (const Metric& m : ms) {
    std::fprintf(f, "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                 first ? "" : ", ", m.name.c_str(), m.value, m.unit.c_str());
    first = false;
  }
}

void PrintSelfTimes(FILE* f, bool json) {
  auto self = SelfTimes();
  bool first_root = true;
  for (const auto& [root, layers] : self) {
    if (json) {
      std::fprintf(f, "%s\"%s\": {", first_root ? "" : ", ", root.c_str());
    }
    bool first = true;
    for (const auto& [layer, s] : layers) {
      if (json) {
        std::fprintf(f,
                     "%s\"%s\": {\"spans\": %lld, \"total_ms\": %.6f, "
                     "\"self_ms\": %.6f}",
                     first ? "" : ", ", layer.c_str(),
                     static_cast<long long>(s.spans), s.total_ms, s.self_ms);
      } else {
        std::fprintf(f, "# self %-12s %-8s spans=%-8lld self_ms=%.3f\n",
                     root.c_str(), layer.c_str(),
                     static_cast<long long>(s.spans), s.self_ms);
      }
      first = false;
    }
    if (json) std::fprintf(f, "}");
    first_root = false;
  }
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: lb2bench --workload new_shapes|olap_scan "
                 "--seed N --seconds S --trace 0|1 [--out DIR]\n");
    return 2;
  }
  HwStamp hw = MeasureHardware();
  Report rep;
  if (args.workload == "new_shapes") {
    RunNewShapes(args, &rep);
  } else {
    RunOlapScan(args, &rep);
  }
  if (args.trace) rep.Add("hw.scan_gbps", hw.scan_gbps, "GB/s");
  double failed_ratio =
      rep.tally.attempted > 0 ? static_cast<double>(rep.tally.failed) /
                                    static_cast<double>(rep.tally.attempted)
                              : 1.0;
  rep.Extra("failed_ratio", failed_ratio, "ratio");

  std::printf("# workload=%s seed=%llu seconds=%d trace=%d\n",
              args.workload.c_str(),
              static_cast<unsigned long long>(args.seed), args.seconds,
              args.trace ? 1 : 0);
  std::printf("# hw nproc=%d cpu=\"%s\" scan_gbps=%.3f\n", hw.nproc,
              hw.cpu_model.c_str(), hw.scan_gbps);
  for (const Metric& m : rep.metrics) {
    std::printf("# metric %-28s %14.6f %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }
  for (const Metric& m : rep.extra) {
    std::printf("# extra  %-28s %14.6f %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }
  for (const std::string& n : rep.notes) std::printf("# note %s\n", n.c_str());
  if (args.trace) PrintSelfTimes(stdout, false);

  std::string stem = args.out_dir + "/" + args.workload + "-seed" +
                     std::to_string(args.seed) + "-trace" +
                     (args.trace ? "1" : "0");
  if (FILE* f = std::fopen((stem + ".summary.json").c_str(), "w")) {
    std::fprintf(f,
                 "{\"workload\": \"%s\", \"seed\": %llu, \"seconds\": %d, "
                 "\"hw\": {\"nproc\": %d, \"cpu\": \"%s\", \"scan_gbps\": "
                 "%.6f}, \"attempted\": %lld, \"failed\": %lld, \"wrong\": "
                 "%lld, \"metrics\": {",
                 args.workload.c_str(),
                 static_cast<unsigned long long>(args.seed), args.seconds,
                 hw.nproc, hw.cpu_model.c_str(), hw.scan_gbps,
                 static_cast<long long>(rep.tally.attempted),
                 static_cast<long long>(rep.tally.failed),
                 static_cast<long long>(rep.tally.wrong));
    PrintMetricJson(f, rep.metrics);
    std::fprintf(f, "}, \"extra\": {");
    PrintMetricJson(f, rep.extra);
    std::fprintf(f, "}, \"self_times\": {");
    if (args.trace) PrintSelfTimes(f, true);
    std::fprintf(f, "}}\n");
    std::fclose(f);
  }
  if (args.trace && !WriteTrace(stem + ".trace.json")) {
    std::fprintf(stderr, "cannot write %s.trace.json\n", stem.c_str());
  }

  bool correct = rep.tally.wrong == 0;
  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
              "\"metrics\": {",
              correct ? "true" : "false",
              static_cast<long long>(rep.tally.attempted),
              static_cast<long long>(rep.tally.failed));
  PrintMetricJson(stdout, rep.metrics);
  std::printf("}}\n");
  return correct && rep.tally.failed == 0 ? 0 : 1;
}
