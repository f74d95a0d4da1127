// Fleet-engine throughput bench (BENCH_fleet.json; tools/compare_bench.py).
//
// Two measurements back the fleet engine's claims (DESIGN.md §18):
//
//   1. Drone-steps/sec at N drones: the scalar MultiUavRunner loop vs the
//      FleetRunner (lockstep groups on the work-stealing scheduler).
//      Both runs step the identical fleet, so the speedup is a pure wall
//      ratio — and the outputs must match bit-for-bit (oracle_ok), which is
//      what licenses comparing them at all. The >=5x headline needs cores;
//      compare_bench.py gates it only when the recorded machine has them.
//
//   2. Conflict-evaluation throughput: the exhaustive all-pairs detector vs
//      the uniform-grid broadphase on a synthetic N-drone airspace, with the
//      event streams compared (events_match — always gated).
//
// Emits schema-1 JSON ("bench": "fleet") with the environment block the
// comparison script uses to decide which gates apply.
#include <chrono>
#include <cmath>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "math/rng.h"
#include "uspace/fleet_runner.h"
#include "uspace/multi_runner.h"
#include "uspace/tracking.h"

// Injected by bench/CMakeLists.txt; part of the JSON environment block.
#ifndef UAVRES_BUILD_TYPE
#define UAVRES_BUILD_TYPE "unknown"
#endif

namespace {

using namespace uavres;

double Now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Total simulated drone-steps of a run: sum of per-flight durations over
/// the shared control dt. Bit-identical outputs make this identical for the
/// scalar and grouped runners, so steps/sec ratios are wall ratios.
double TotalDroneSteps(const std::vector<double>& durations, double dt) {
  double total = 0.0;
  for (double d : durations) total += d / dt;
  return total;
}

struct FleetMeasurement {
  double wall_s{0.0};
  double steps_per_sec{0.0};
};

// --- Broadphase micro-bench ------------------------------------------------

struct BroadphaseResult {
  double pairs_per_sec{0.0};
  std::int64_t pairs_evaluated{0};
  uspace::ConflictStats stats;
  std::vector<uspace::ConflictEvent> events;
  double wall_s{0.0};
};

/// Drives one detector over a deterministic random-walk airspace of
/// `drones` drones for `instants` tracking instants.
BroadphaseResult RunBroadphase(uspace::BroadphaseMode mode, int drones,
                               int instants, std::uint64_t seed) {
  uspace::Tracker tracker;
  uspace::ConflictDetectorConfig cfg;
  cfg.broadphase = mode;
  uspace::ConflictDetector detector(&tracker, cfg);

  math::Rng rng(seed);
  std::vector<math::Vec3> pos;
  std::vector<math::Vec3> vel;
  const double box = 40.0 * std::sqrt(static_cast<double>(drones));  // ~density-constant
  for (int id = 0; id < drones; ++id) {
    uspace::TrackedDrone d;
    d.drone_id = id;
    d.name.push_back('B');
    d.name += std::to_string(id);
    d.bubble.drone_dimension_m = 0.5;
    d.bubble.safety_distance_m = 1.5;
    d.bubble.top_speed_ms = 8.0;
    d.bubble.tracking_interval_s = 0.5;
    d.max_speed_ms = 1000.0;
    tracker.Register(d);
    pos.push_back({rng.Uniform(0.0, box), rng.Uniform(0.0, box), -15.0});
    vel.push_back({rng.Uniform(-6.0, 6.0), rng.Uniform(-6.0, 6.0), 0.0});
  }

  const double t0 = Now();
  for (int k = 1; k <= instants; ++k) {
    const double t = k * 0.5;
    for (int id = 0; id < drones; ++id) {
      const auto i = static_cast<std::size_t>(id);
      if (rng.Uniform01() < 0.03) {
        vel[i] = {rng.Uniform(-6.0, 6.0), rng.Uniform(-6.0, 6.0), 0.0};
      }
      pos[i] = pos[i] + vel[i] * 0.5;
      tracker.Ingest({id, t, pos[i], vel[i].Norm()});
    }
    detector.Step(t);
  }
  BroadphaseResult r;
  r.wall_s = Now() - t0;
  r.stats = detector.stats();
  r.events = detector.events();
  // Throughput counts the pairs the mode would have had to consider — the
  // brute-force workload — so the grid's culling shows up as speedup.
  r.pairs_evaluated = r.stats.pairs_evaluated + r.stats.pairs_culled;
  r.pairs_per_sec = static_cast<double>(r.pairs_evaluated) / r.wall_s;
  return r;
}

bool SameEvents(const std::vector<uspace::ConflictEvent>& a,
                const std::vector<uspace::ConflictEvent>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].drone_a != b[i].drone_a || a[i].drone_b != b[i].drone_b ||
        a[i].severity != b[i].severity || a[i].start_time != b[i].start_time ||
        a[i].end_time != b[i].end_time ||
        a[i].min_separation_m != b[i].min_separation_m) {
      return false;
    }
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  int drones = 100;
  double leg_m = 600.0;
  int threads = 0;  // hardware concurrency
  std::string out_path = "BENCH_fleet.json";
  for (int i = 1; i < argc - 1; ++i) {
    const std::string a = argv[i];
    if (a == "--drones") drones = std::atoi(argv[++i]);
    else if (a == "--leg") leg_m = std::atof(argv[++i]);
    else if (a == "--threads") threads = std::atoi(argv[++i]);
    else if (a == "--out") out_path = argv[++i];
  }

  const auto fleet = uspace::BuildConvoyScenario(drones, 30.0, 12.0, leg_m);
  core::FaultSpec fault;
  fault.target = core::FaultTarget::kAccelerometer;
  fault.type = core::FaultType::kFixed;
  fault.duration_s = 30.0;

  std::printf("fleet bench: %d drones, %.0f m legs\n", drones, leg_m);

  // Scalar reference (the pre-fleet engine).
  uspace::MultiRunConfig mcfg;
  mcfg.fault = fault;
  mcfg.faulted_drone = drones / 2;
  double t0 = Now();
  const auto scalar = uspace::MultiUavRunner(mcfg).Run(fleet, 2024);
  FleetMeasurement sm;
  sm.wall_s = Now() - t0;
  const double dt = 1.0 / 250.0;
  std::vector<double> durations;
  for (const auto& d : scalar.drones) durations.push_back(d.flight_duration_s);
  const double steps = TotalDroneSteps(durations, dt);
  sm.steps_per_sec = steps / sm.wall_s;
  std::printf("  scalar : %8.2f s wall, %.0f drone-steps (%.3g steps/s)\n", sm.wall_s,
              steps, sm.steps_per_sec);

  // Grouped fleet runner, full machine.
  uspace::FleetRunConfig fcfg;
  fcfg.fault = fault;
  fcfg.faulted_drone = drones / 2;
  fcfg.num_threads = threads;
  t0 = Now();
  const auto grouped = uspace::FleetRunner(fcfg).Run(fleet, 2024);
  FleetMeasurement fm;
  fm.wall_s = Now() - t0;
  fm.steps_per_sec = steps / fm.wall_s;
  const double speedup = sm.wall_s / fm.wall_s;
  std::printf("  fleet  : %8.2f s wall (%.3g steps/s, %.2fx)\n", fm.wall_s,
              fm.steps_per_sec, speedup);

  // Oracle: the grouped run must reproduce the scalar one bit-for-bit.
  bool oracle_ok = scalar.drones.size() == grouped.drones.size() &&
                   scalar.conflicts.conflicts == grouped.conflicts.conflicts &&
                   scalar.conflicts.alerts == grouped.conflicts.alerts &&
                   scalar.reports_published == grouped.reports_published &&
                   SameEvents(scalar.events, grouped.events);
  for (std::size_t i = 0; oracle_ok && i < scalar.drones.size(); ++i) {
    oracle_ok = scalar.drones[i].outcome == grouped.drones[i].outcome &&
                scalar.drones[i].flight_duration_s ==
                    grouped.drones[i].flight_duration_s;
  }
  std::printf("  oracle : %s\n", oracle_ok ? "MATCH" : "MISMATCH");

  // Broadphase: exhaustive vs uniform grid over the same synthetic airspace.
  const int bp_instants = 400;
  const auto brute =
      RunBroadphase(uspace::BroadphaseMode::kBruteForce, drones, bp_instants, 7);
  const auto grid =
      RunBroadphase(uspace::BroadphaseMode::kUniformGrid, drones, bp_instants, 7);
  const bool events_match = SameEvents(brute.events, grid.events) &&
                            brute.stats.conflicts == grid.stats.conflicts &&
                            brute.stats.alerts == grid.stats.alerts;
  const double bp_speedup = brute.wall_s / grid.wall_s;
  std::printf("  broadphase: brute %.3g pairs/s, grid %.3g pairs/s (%.2fx), "
              "events %s\n",
              brute.pairs_per_sec, grid.pairs_per_sec, bp_speedup,
              events_match ? "MATCH" : "MISMATCH");

  FILE* f = std::fopen(out_path.c_str(), "w");
  if (!f) {
    std::fprintf(stderr, "bench_fleet: cannot write %s\n", out_path.c_str());
    return 2;
  }
  std::fprintf(f,
               "{\n"
               "  \"schema\": 1,\n"
               "  \"bench\": \"fleet\",\n"
               "  \"environment\": {\n"
               "    \"build_type\": \"%s\",\n"
               "    \"hardware_concurrency\": %u,\n"
               "    \"threads\": %d,\n"
               "    \"drones\": %d,\n"
               "    \"leg_m\": %.0f\n"
               "  },\n"
               "  \"fleet\": {\n"
               "    \"drone_steps\": %.0f,\n"
               "    \"scalar_steps_per_sec\": %.1f,\n"
               "    \"fleet_steps_per_sec\": %.1f,\n"
               "    \"speedup\": %.3f,\n"
               "    \"oracle_ok\": %s\n"
               "  },\n"
               "  \"broadphase\": {\n"
               "    \"instants\": %d,\n"
               "    \"pair_workload\": %lld,\n"
               "    \"brute_pairs_per_sec\": %.1f,\n"
               "    \"grid_pairs_per_sec\": %.1f,\n"
               "    \"grid_speedup\": %.3f,\n"
               "    \"events_match\": %s\n"
               "  }\n"
               "}\n",
               UAVRES_BUILD_TYPE, std::thread::hardware_concurrency(), threads,
               drones, leg_m, steps, sm.steps_per_sec, fm.steps_per_sec, speedup,
               oracle_ok ? "true" : "false", bp_instants,
               static_cast<long long>(brute.pairs_evaluated), brute.pairs_per_sec,
               grid.pairs_per_sec, bp_speedup, events_match ? "true" : "false");
  std::fclose(f);
  std::printf("wrote %s\n", out_path.c_str());

  // The structural gates fail the bench itself, not just the comparison.
  return (oracle_ok && events_match) ? 0 : 1;
}
