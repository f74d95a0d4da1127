#include "uspace/fleet_runner.h"

#include <algorithm>
#include <stdexcept>
#include <string>

#include "core/scheduler.h"
#include "math/geo.h"
#include "telemetry/metrics_registry.h"
#include "telemetry/trace.h"
#include "uav/simulation_runner.h"

namespace uavres::uspace {

using core::DroneSpec;
using core::MissionOutcome;

namespace {

/// One flight's bookkeeping. `id` doubles as the index into the flights
/// vector; relaunched flights get fresh ids past the initial fleet.
struct Flight {
  int id{0};
  int spec_index{0};  ///< template spec in the scenario fleet
  int group{0};
  int lane{0};
  std::string name;
  double launch_t{0.0};
  double deadline{0.0};  ///< per-flight timeout (continuous-traffic mode only)
  bool ended{false};
  MissionOutcome outcome{MissionOutcome::kTimeout};
  double end_time{0.0};
};

/// One lockstep group of lanes plus its per-interval scratch results.
struct Group {
  uav::BatchedUav batch;
  std::vector<int> lane_flight;  ///< lane -> flight id (never -1 once added)
  /// Scratch, (re)written by the parallel interval pass:
  int last_end_iter{-1};  ///< max iteration index at which a lane ended
  std::int64_t lane_steps{0};
};

}  // namespace

FleetRunOutput FleetRunner::Run(const std::vector<DroneSpec>& fleet,
                                std::uint64_t seed_base) const {
  UAVRES_TRACE_SCOPE("uspace/fleet_run");
  if (cfg_.batch_size < 1 || cfg_.batch_size > uav::BatchedUav::kMaxLanes) {
    throw std::invalid_argument("FleetRunner: batch_size must be in [1, " +
                                std::to_string(uav::BatchedUav::kMaxLanes) +
                                "], got " + std::to_string(cfg_.batch_size));
  }

  const math::LocalProjection proj(core::ScenarioOrigin());
  const bool relaunch = cfg_.relaunch_horizon_s > 0.0;

  Tracker tracker;
  Broker broker(cfg_.link, math::Rng{math::HashCombine(seed_base, 0xB20CE2)});
  broker.Subscribe([&tracker](const TrackReport& r) { tracker.Ingest(r); });
  ConflictDetectorConfig det_cfg;
  det_cfg.broadphase = cfg_.broadphase;
  det_cfg.min_cell_m = cfg_.min_cell_m;
  det_cfg.record_instant_min_separation = true;
  ConflictDetector detector(&tracker, det_cfg);

  std::vector<Flight> flights;
  std::vector<Group> groups;

  // Builds the vehicle config + shared-frame plan + seed for flight `id`
  // flying template spec `spec_index`. The seed recipe is MultiUavRunner's,
  // keyed by flight id, so single-flight mode is seed-for-seed the oracle.
  auto make_uav_cfg = [&](int id, int spec_index) {
    const DroneSpec& spec = fleet[static_cast<std::size_t>(spec_index)];
    uav::UavConfig cfg = uav::MakeUavConfig(spec);
    if (cfg_.uav_config_mutator) {
      cfg_.uav_config_mutator(static_cast<std::size_t>(id), cfg);
    }
    if (cfg_.recovery) cfg.detector.enabled = true;
    return cfg;
  };
  auto flight_seed = [&](int id, const std::optional<core::FaultSpec>& fault) {
    return uav::ExperimentSeed(
        math::HashCombine(seed_base, static_cast<std::uint64_t>(id) + 0x517EULL),
        id, fault);
  };
  auto register_tracked = [&](int id, const DroneSpec& spec, const std::string& name) {
    auto bubble = spec.MakeBubbleParams();
    bubble.tracking_interval_s = cfg_.tracking_interval_s;
    TrackedDrone reg;
    reg.drone_id = id;
    reg.name = name;
    reg.bubble = bubble;
    reg.max_speed_ms = bubble.top_speed_ms;
    tracker.Register(reg);
  };

  // --- Launch the initial fleet into contiguous lane groups. --------------
  double max_expected = 0.0;
  double dt = 0.0;
  for (std::size_t i = 0; i < fleet.size(); ++i) {
    const DroneSpec& spec = fleet[i];
    const math::Vec3 shared_home = proj.ToNed(spec.home_geo);
    const auto plan = PlanInSharedFrame(spec, shared_home);
    max_expected = std::max(max_expected, plan.ExpectedDuration());

    std::optional<core::FaultSpec> fault;
    if (cfg_.fault && static_cast<int>(i) == cfg_.faulted_drone) fault = *cfg_.fault;

    const int id = static_cast<int>(i);
    const uav::UavConfig uav_cfg = make_uav_cfg(id, id);
    const double lane_dt = 1.0 / uav_cfg.control_rate_hz;
    if (i == 0) {
      dt = lane_dt;
    } else if (lane_dt != dt) {
      // Same contract as MultiUavRunner: one shared control clock or bust.
      throw std::invalid_argument(
          "FleetRunner: fleet mixes control clocks (drone 0 dt=" +
          std::to_string(dt) + "s, drone " + std::to_string(i) + " dt=" +
          std::to_string(lane_dt) + "s)");
    }

    if (groups.empty() ||
        static_cast<int>(groups.back().lane_flight.size()) == cfg_.batch_size) {
      groups.emplace_back();
    }
    Group& grp = groups.back();
    const int lane = grp.batch.AddLane(uav_cfg, plan, fault, flight_seed(id, fault));

    Flight f;
    f.id = id;
    f.spec_index = id;
    f.group = static_cast<int>(groups.size()) - 1;
    f.lane = lane;
    f.name = spec.name;
    grp.lane_flight.push_back(id);
    flights.push_back(std::move(f));

    register_tracked(id, spec, spec.name);
  }
  if (dt == 0.0) dt = 0.004;

  const double max_time = relaunch
                              ? cfg_.relaunch_horizon_s + max_expected + cfg_.extra_time_s
                              : max_expected + cfg_.extra_time_s;
  for (auto& f : flights) {
    f.deadline = relaunch ? max_expected + cfg_.extra_time_s : max_time;
  }

  int active_flights = static_cast<int>(flights.size());
  int relaunches = 0;
  std::int64_t intervals = 0;

  core::SchedulerOptions sched;
  sched.num_threads = cfg_.num_threads;

  // --- Main loop: parallel interval stepping + serial boundary phase. -----
  // Mirrors MultiUavRunner's accumulated clock exactly: t advances by one
  // `t += dt` per executed scalar-loop iteration, and the boundary phase
  // runs only when the iteration that crossed `next_track` executed (the
  // scalar loop checks all_ended at the top of every iteration).
  double t = 0.0;
  double next_track = cfg_.tracking_interval_s;
  while (t < max_time && (active_flights > 0 || (relaunch && t < cfg_.relaunch_horizon_s))) {
    // Plan this interval: K iterations, the K-th crossing the tracking
    // boundary unless max_time truncates the interval first.
    int K = 0;
    bool boundary = false;
    {
      double tp = t;
      while (tp < max_time) {
        tp += dt;
        ++K;
        if (tp >= next_track) {
          boundary = true;
          break;
        }
      }
    }
    if (K == 0) break;

    // Parallel part: each group advances up to K control steps. Groups only
    // touch their own lanes and their own flights' slots, so any schedule
    // yields identical state.
    core::ParallelFor(
        groups.size(),
        [&](std::size_t g) {
          Group& grp = groups[g];
          grp.last_end_iter = -1;
          double lt = t;
          for (int k = 0; k < K; ++k) {
            if (!grp.batch.AnyActive()) {
              // Empty group: in continuous-traffic mode keep stepping so the
              // group clock stays aligned for the next refill; otherwise the
              // group is done (the scalar loop skips ended drones too).
              if (!relaunch) break;
            }
            grp.batch.Step();
            for (std::size_t lane = 0; lane < grp.lane_flight.size(); ++lane) {
              const int li = static_cast<int>(lane);
              if (!grp.batch.lane_active(li)) continue;
              Flight& f = flights[static_cast<std::size_t>(grp.lane_flight[lane])];
              ++grp.lane_steps;
              // Terminal conditions per drone: exactly SimulationRunner's
              // rules, evaluated against the pre-increment clock like the
              // scalar runner.
              const uav::TerminalVerdict verdict =
                  uav::EvaluateTerminal(grp.batch.lane(li), lt);
              if (verdict.ended) {
                f.ended = true;
                f.outcome = verdict.outcome;
                f.end_time = verdict.end_time;
                grp.batch.Retire(li);
                grp.last_end_iter = std::max(grp.last_end_iter, k);
              }
            }
            lt += dt;
          }
        },
        sched);
    ++intervals;

    // Serial boundary phase. First replay the scalar loop's early exit: if
    // every flight ended mid-interval, only the iterations up to the last
    // ending executed (the top-of-loop all_ended check stops the rest).
    bool any_active = false;
    int last_end_iter = -1;
    for (const Group& grp : groups) {
      any_active |= grp.batch.AnyActive();
      last_end_iter = std::max(last_end_iter, grp.last_end_iter);
    }
    int executed = K;
    if (!any_active && !relaunch) {
      executed = last_end_iter + 1;
    }
    for (int i = 0; i < executed; ++i) t += dt;

    // Count newly-ended flights out (and deregister their tracks, in id
    // order) before any tracker consumer runs. Deregister is idempotent.
    int still_active = 0;
    for (const Flight& f : flights) {
      if (f.ended) {
        tracker.Deregister(f.id);
      } else {
        ++still_active;
      }
    }
    active_flights = still_active;

    if (boundary && executed == K) {
      next_track += cfg_.tracking_interval_s;

      // Per-flight timeout (continuous-traffic mode): a flight that blows
      // its own deadline stops publishing and frees its lane.
      if (relaunch) {
        for (Flight& f : flights) {
          if (f.ended || t < f.launch_t + f.deadline) continue;
          f.ended = true;
          f.outcome = MissionOutcome::kTimeout;
          f.end_time = t;
          groups[static_cast<std::size_t>(f.group)].batch.Retire(f.lane);
          tracker.Deregister(f.id);
          --active_flights;
        }
      }

      // Publish self-reported (estimated) states in flight-id order — the
      // broker RNG stream consumption order is part of the oracle contract.
      for (const Flight& f : flights) {
        if (f.ended) continue;
        const Group& grp = groups[static_cast<std::size_t>(f.group)];
        TrackReport report;
        report.drone_id = f.id;
        report.t = t;
        const estimation::NavState& est = grp.batch.lane(f.lane).ekf().state();
        report.pos = est.pos;
        report.airspeed_ms = est.vel.Norm();
        broker.Publish(report, t);
      }
      broker.Deliver(t);
      detector.Step(t);

      // Continuous traffic: refill freed lanes with fresh flights while the
      // relaunch horizon is open. Serial and ordered (group, lane), so ids
      // and seeds are schedule-independent.
      if (relaunch && t < cfg_.relaunch_horizon_s) {
        for (std::size_t g = 0; g < groups.size(); ++g) {
          Group& grp = groups[g];
          for (std::size_t lane = 0; lane < grp.lane_flight.size(); ++lane) {
            const int li = static_cast<int>(lane);
            if (grp.batch.lane_active(li)) continue;
            const int id = static_cast<int>(flights.size());
            const int spec_index =
                flights[static_cast<std::size_t>(grp.lane_flight[lane])].spec_index;
            const DroneSpec& spec = fleet[static_cast<std::size_t>(spec_index)];
            const auto plan = PlanInSharedFrame(spec, proj.ToNed(spec.home_geo));

            Flight f;
            f.id = id;
            f.spec_index = spec_index;
            f.group = static_cast<int>(g);
            f.lane = li;
            f.name = spec.name + "#" + std::to_string(id);
            f.launch_t = t;
            f.deadline = plan.ExpectedDuration() + cfg_.extra_time_s;

            grp.batch.RefillLane(li, make_uav_cfg(id, spec_index), plan,
                                 std::nullopt, flight_seed(id, std::nullopt));
            grp.lane_flight[lane] = id;
            register_tracked(id, spec, f.name);
            flights.push_back(std::move(f));
            ++active_flights;
            ++relaunches;
            UAVRES_COUNT("uspace.fleet.relaunches");
          }
        }
      }
    }

    if (executed < K) break;  // every flight ended mid-interval (scalar exit)
  }

  // --- Collect results. ----------------------------------------------------
  FleetRunOutput out;
  std::int64_t drone_steps = 0;
  for (const Group& grp : groups) drone_steps += grp.lane_steps;
  UAVRES_COUNT_N("uspace.fleet.drone_steps", drone_steps);
  UAVRES_COUNT_N("uspace.fleet.intervals", intervals);

  out.drones.reserve(flights.size());
  for (const Flight& f : flights) {
    FleetDroneResult r;
    r.drone_id = f.id;
    r.name = f.name;
    r.launch_time_s = f.launch_t;
    if (f.ended) {
      r.outcome = f.outcome;
      r.flight_duration_s = f.end_time - f.launch_t;
    } else {
      r.outcome = MissionOutcome::kTimeout;
      r.flight_duration_s = t - f.launch_t;
    }
    if (r.outcome == MissionOutcome::kCompleted) ++out.missions_completed;
    out.drones.push_back(std::move(r));
  }
  out.conflicts = detector.stats();
  out.events = detector.events();
  out.instant_min_separation = detector.instant_min_separation();
  out.reports_published = broker.published();
  out.reports_dropped = broker.dropped();
  out.reports_quarantined = tracker.total_quarantined();
  out.sim_time_s = t;
  out.relaunches = relaunches;
  out.throughput_missions_per_hour =
      t > 0.0 ? out.missions_completed / (t / 3600.0) : 0.0;
  return out;
}

}  // namespace uavres::uspace
