// Benchmark binary (run through run.py; see README.md).
//
//   uavres_perfbench --workload campaign|fleet|serve_warm --seed N
//                    --seconds S --trace 0|1 --work-dir DIR --report FILE
//
// --trace 0 runs the named workload untraced and reports its raw timings,
// work ledger and check results. --trace 1 runs the named workload
// untraced as the reference, then every workload once under
// telemetry::TraceRecorder, then the module probes, writing one Chrome
// trace per pass into the work directory. run.py turns the report into
// metrics.
#include <malloc.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <string>
#include <thread>

#include "common.h"
#include "telemetry/trace.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif
#ifndef PERFBENCH_COMPILER
#define PERFBENCH_COMPILER "unknown"
#endif

namespace perfbench {

void WriteTrace(const Options& opt, const std::string& name) {
  auto& rec = uavres::telemetry::TraceRecorder::Global();
  std::ofstream os(std::filesystem::path(opt.work_dir) / ("trace_" + name + ".json"));
  rec.WriteChromeTrace(os);
  rec.Clear();
}

// VmHWM rather than getrusage's ru_maxrss: ru_maxrss also holds the peak of
// the image this process replaced at exec (the launching interpreter), and
// writing "5" to clear_refs does not reset it.
double PeakRssMiB() {
  std::ifstream is("/proc/self/status");
  std::string line;
  while (std::getline(is, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::atof(line.c_str() + 6) / 1024.0;  // kB
  }
  return 0.0;
}

bool ResetPeakRss() {
#ifdef __GLIBC__
  malloc_trim(0);  // hand back the heap freed so far, arenas of exited threads too
#endif
  std::ofstream os("/proc/self/clear_refs");
  os << "5";
  os.close();
  return static_cast<bool>(os);
}

namespace {

std::string CpuModel() {
  std::ifstream is("/proc/cpuinfo");
  std::string line;
  while (std::getline(is, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) return line.substr(line.find_first_not_of(' ', colon + 1));
    }
  }
  return "unknown";
}

Json Environment() {
  Json env;
  env.Set("nproc", Num(static_cast<int>(std::thread::hardware_concurrency())))
      .Set("cpu_model", Str(CpuModel()))
      .Set("compiler", Str(PERFBENCH_COMPILER))
      .Set("build_type", Str(PERFBENCH_BUILD_TYPE))
      .Set("uavres_telemetry", Str("ON"));
  return env;
}

using WorkloadFn = std::uint64_t (*)(const Options&, bool, Json&, Checks&);

WorkloadFn Lookup(const std::string& name) {
  if (name == "campaign") return &RunCampaign;
  if (name == "fleet") return &RunFleet;
  if (name == "serve_warm") return &RunServeWarm;
  return nullptr;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Options opt;
  std::string report_path;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string val = argv[i + 1];
    if (key == "--workload") opt.workload = val;
    else if (key == "--seed") opt.seed = std::strtoull(val.c_str(), nullptr, 10);
    else if (key == "--seconds") opt.seconds = std::atof(val.c_str());
    else if (key == "--trace") opt.trace = val == "1";
    else if (key == "--work-dir") opt.work_dir = val;
    else if (key == "--report") report_path = val;
    else {
      std::cerr << "unknown argument " << key << "\n";
      return 2;
    }
  }
  const WorkloadFn run = Lookup(opt.workload);
  if (run == nullptr || opt.work_dir.empty() || report_path.empty() || opt.seconds <= 0.0) {
    std::cerr << "usage: uavres_perfbench --workload campaign|fleet|serve_warm --seed N "
                 "--seconds S --trace 0|1 --work-dir DIR --report FILE\n";
    return 2;
  }
  std::filesystem::create_directories(opt.work_dir);

  Json report;
  Checks checks;
  report.Set("workload", Str(opt.workload))
      .Set("seed", Num(opt.seed))
      .Set("seconds", Num(opt.seconds))
      .Set("trace", Bool(opt.trace))
      .Set("environment", Environment());

  Json reference;
  const std::uint64_t untraced = run(opt, /*traced=*/false, reference, checks);
  report.Set("reference", reference);

  if (opt.trace) {
    Json traced;
    const char* names[] = {"campaign", "fleet", "serve_warm"};
    for (const char* name : names) {
      Json one;
      const std::uint64_t fp = Lookup(name)(opt, /*traced=*/true, one, checks);
      if (opt.workload == name) {
        checks.Require(fp == untraced, opt.workload + ": traced and untraced results differ");
      }
      traced.Set(name, one);
    }
    report.Set("traced", traced);
    Json probes;
    auto& rec = uavres::telemetry::TraceRecorder::Global();
    rec.Enable();
    RunProbes(opt, probes, checks);
    rec.Disable();
    WriteTrace(opt, "probes");
    report.Set("probes", probes);
  }

  report.Set("checks", checks.ToJson());
  std::ofstream os(report_path);
  os << report.str() << "\n";
  os.close();
  if (!os) {
    std::cerr << "cannot write " << report_path << "\n";
    return 1;
  }
  return 0;
}
