// Fleet-scale multi-UAV execution in lockstep groups (DESIGN.md §18).
//
// FleetRunner is MultiUavRunner rebuilt for hundreds of drones: the fleet is
// partitioned into groups of up to uav::BatchedUav::kMaxLanes scalar
// vehicles, each group stepped in lockstep on one worker, and — because
// drones couple only through the U-space broker/tracker at the tracking
// cadence, never inside a control step — every group advances one full
// tracking interval independently. Intervals are therefore embarrassingly parallel: groups run
// on the work-stealing scheduler, then a serial boundary phase publishes
// tracking reports, delivers the broker queue, steps the conflict detector
// and (in continuous-traffic mode) refills lanes whose drones ended.
//
// Determinism contract: a fleet run's output is byte-identical
//   * to MultiUavRunner::Run on the same fleet/seed (same per-drone seeds,
//     same broker RNG stream, same terminal rules, same accumulated-clock
//     sequence), when relaunch is off and the detector runs in either mode
//     (events always match; min_separation_m is censored under the grid
//     broadphase, see conflict.h), and
//   * across every thread count and batch size: lanes never share mutable
//     state inside an interval, the boundary phase is serial and ordered by
//     drone id, and results land in index-addressed slots
// (tests/uspace/fleet_runner_test.cpp locks both properties).
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <vector>

#include "core/fault_model.h"
#include "core/scenario.h"
#include "uav/batched_uav.h"
#include "uspace/broker.h"
#include "uspace/conflict.h"
#include "uspace/multi_runner.h"
#include "uspace/tracking.h"

namespace uavres::uspace {

/// Configuration of one fleet run. The first block mirrors MultiRunConfig
/// (the scalar oracle); the second block is execution strategy and MUST NOT
/// change results (enforced by tests); the third is continuous-traffic mode.
struct FleetRunConfig {
  double tracking_interval_s{0.5};
  double extra_time_s{180.0};
  LinkQuality link;                       ///< drone -> tracker impairments
  std::optional<core::FaultSpec> fault;   ///< injected into one drone
  int faulted_drone{0};                   ///< index into the fleet
  bool recovery{false};                   ///< detector + failover on all drones
  std::function<void(std::size_t, uav::UavConfig&)> uav_config_mutator;

  // Execution strategy — result-neutral by contract.
  int batch_size{uav::BatchedUav::kMaxLanes};  ///< lanes per group, 1..kMaxLanes
  int num_threads{0};                          ///< 0 = hardware concurrency
  BroadphaseMode broadphase{BroadphaseMode::kUniformGrid};
  double min_cell_m{50.0};                     ///< grid horizon floor

  /// > 0: refill a lane with a fresh flight whenever its drone ends before
  /// this sim time (continuous traffic; the airspace-throughput mode).
  /// 0 (default): every drone flies once — the MultiUavRunner-equivalent
  /// configuration.
  double relaunch_horizon_s{0.0};
};

/// Per-drone outcome; relaunched flights carry their launch time.
struct FleetDroneResult : MultiDroneResult {
  double launch_time_s{0.0};
};

/// Full output of a fleet run: per-drone outcomes plus the systemic
/// airspace picture.
struct FleetRunOutput {
  std::vector<FleetDroneResult> drones;
  ConflictStats conflicts;
  std::vector<ConflictEvent> events;
  /// Per-tracking-instant closest evaluated pair (min-separation
  /// distribution source).
  std::vector<double> instant_min_separation;
  int reports_published{0};
  int reports_dropped{0};
  int reports_quarantined{0};
  double sim_time_s{0.0};
  int relaunches{0};
  int missions_completed{0};
  double throughput_missions_per_hour{0.0};
};

/// Runs a fleet as lockstep vehicle groups in the scenario's shared frame.
class FleetRunner {
 public:
  explicit FleetRunner(const FleetRunConfig& cfg = {}) : cfg_(cfg) {}

  /// `fleet` uses each spec's `home_geo` to place it in the shared frame.
  /// Throws std::invalid_argument on an invalid batch size or a fleet
  /// mixing control clocks.
  FleetRunOutput Run(const std::vector<core::DroneSpec>& fleet,
                     std::uint64_t seed_base) const;

 private:
  FleetRunConfig cfg_;
};

}  // namespace uavres::uspace
