// FleetRunner contract tests (fleet_runner.h):
//   1. a fleet run reproduces MultiUavRunner bit-for-bit — outcomes,
//      durations, conflict events, broker counters — when relaunch is off;
//   2. the output is byte-identical across thread counts and batch sizes;
//   3. continuous-traffic mode actually produces traffic, deterministically,
//      and its output is pinned to a constant fingerprint;
//   4. fleet experiments cache and dedupe through the ResultStore.
#include "uspace/fleet_runner.h"

#include <bit>
#include <cstdint>
#include <filesystem>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "math/geo.h"
#include "uspace/fleet_experiment.h"
#include "uspace/multi_runner.h"

namespace uavres::uspace {
namespace {

core::FaultSpec ConvoyFault() {
  core::FaultSpec fault;
  fault.target = core::FaultTarget::kAccelerometer;
  fault.type = core::FaultType::kFixed;
  fault.start_time_s = 30.0;
  fault.duration_s = 30.0;
  return fault;
}

/// A short convoy that still exhibits the interesting dynamics: the faulted
/// drone deviates into its neighbours' lanes mid-flight.
std::vector<core::DroneSpec> ShortConvoy(int drones = 5) {
  return BuildConvoyScenario(drones, 30.0, 12.0, 600.0);
}

void ExpectSameAsScalar(const MultiRunOutput& scalar, const FleetRunOutput& fleet) {
  ASSERT_EQ(scalar.drones.size(), fleet.drones.size());
  for (std::size_t i = 0; i < scalar.drones.size(); ++i) {
    EXPECT_EQ(scalar.drones[i].drone_id, fleet.drones[i].drone_id);
    EXPECT_EQ(scalar.drones[i].name, fleet.drones[i].name);
    EXPECT_EQ(scalar.drones[i].outcome, fleet.drones[i].outcome) << "drone " << i;
    // Bit-identical, not approximately equal: the fleet engine replays the
    // scalar loop's exact accumulated-clock and RNG sequences.
    EXPECT_EQ(scalar.drones[i].flight_duration_s, fleet.drones[i].flight_duration_s)
        << "drone " << i;
    EXPECT_EQ(fleet.drones[i].launch_time_s, 0.0);
  }
  EXPECT_EQ(scalar.conflicts.conflicts, fleet.conflicts.conflicts);
  EXPECT_EQ(scalar.conflicts.alerts, fleet.conflicts.alerts);
  EXPECT_EQ(scalar.conflicts.instants_in_conflict, fleet.conflicts.instants_in_conflict);
  ASSERT_EQ(scalar.events.size(), fleet.events.size());
  for (std::size_t i = 0; i < scalar.events.size(); ++i) {
    EXPECT_EQ(scalar.events[i].drone_a, fleet.events[i].drone_a);
    EXPECT_EQ(scalar.events[i].drone_b, fleet.events[i].drone_b);
    EXPECT_EQ(scalar.events[i].severity, fleet.events[i].severity);
    EXPECT_EQ(scalar.events[i].start_time, fleet.events[i].start_time);
    EXPECT_EQ(scalar.events[i].end_time, fleet.events[i].end_time);
    EXPECT_EQ(scalar.events[i].min_separation_m, fleet.events[i].min_separation_m);
  }
  EXPECT_EQ(scalar.reports_published, fleet.reports_published);
  EXPECT_EQ(scalar.reports_dropped, fleet.reports_dropped);
  EXPECT_EQ(scalar.reports_quarantined, fleet.reports_quarantined);
}

void ExpectIdenticalFleetOutputs(const FleetRunOutput& a, const FleetRunOutput& b,
                                 const std::string& what) {
  ASSERT_EQ(a.drones.size(), b.drones.size()) << what;
  for (std::size_t i = 0; i < a.drones.size(); ++i) {
    EXPECT_EQ(a.drones[i].drone_id, b.drones[i].drone_id) << what;
    EXPECT_EQ(a.drones[i].name, b.drones[i].name) << what;
    EXPECT_EQ(a.drones[i].outcome, b.drones[i].outcome) << what << " drone " << i;
    EXPECT_EQ(a.drones[i].flight_duration_s, b.drones[i].flight_duration_s)
        << what << " drone " << i;
    EXPECT_EQ(a.drones[i].launch_time_s, b.drones[i].launch_time_s)
        << what << " drone " << i;
  }
  EXPECT_EQ(a.conflicts.conflicts, b.conflicts.conflicts) << what;
  EXPECT_EQ(a.conflicts.alerts, b.conflicts.alerts) << what;
  EXPECT_EQ(a.conflicts.instants_in_conflict, b.conflicts.instants_in_conflict) << what;
  EXPECT_EQ(a.conflicts.min_separation_m, b.conflicts.min_separation_m) << what;
  ASSERT_EQ(a.events.size(), b.events.size()) << what;
  for (std::size_t i = 0; i < a.events.size(); ++i) {
    EXPECT_EQ(a.events[i].drone_a, b.events[i].drone_a) << what;
    EXPECT_EQ(a.events[i].drone_b, b.events[i].drone_b) << what;
    EXPECT_EQ(a.events[i].start_time, b.events[i].start_time) << what;
    EXPECT_EQ(a.events[i].end_time, b.events[i].end_time) << what;
    EXPECT_EQ(a.events[i].min_separation_m, b.events[i].min_separation_m) << what;
  }
  ASSERT_EQ(a.instant_min_separation.size(), b.instant_min_separation.size()) << what;
  for (std::size_t i = 0; i < a.instant_min_separation.size(); ++i) {
    EXPECT_EQ(a.instant_min_separation[i], b.instant_min_separation[i]) << what;
  }
  EXPECT_EQ(a.reports_published, b.reports_published) << what;
  EXPECT_EQ(a.reports_dropped, b.reports_dropped) << what;
  EXPECT_EQ(a.reports_quarantined, b.reports_quarantined) << what;
  EXPECT_EQ(a.sim_time_s, b.sim_time_s) << what;
  EXPECT_EQ(a.relaunches, b.relaunches) << what;
  EXPECT_EQ(a.missions_completed, b.missions_completed) << what;
  EXPECT_EQ(a.throughput_missions_per_hour, b.throughput_missions_per_hour) << what;
}

TEST(FleetRunner, ReproducesScalarRunnerBitForBit) {
  const auto fleet = ShortConvoy();

  MultiRunConfig mcfg;
  mcfg.fault = ConvoyFault();
  mcfg.faulted_drone = 2;
  const auto scalar = MultiUavRunner(mcfg).Run(fleet, 2024);

  // The faulted drone must actually misbehave for this to be a strong test.
  bool any_noncompleted = false;
  for (const auto& d : scalar.drones) {
    any_noncompleted |= d.outcome != core::MissionOutcome::kCompleted;
  }
  ASSERT_TRUE(any_noncompleted);

  FleetRunConfig fcfg;
  fcfg.fault = mcfg.fault;
  fcfg.faulted_drone = 2;
  fcfg.num_threads = 1;
  ExpectSameAsScalar(scalar, FleetRunner(fcfg).Run(fleet, 2024));

  // Both broadphase modes reproduce the scalar detector's events.
  fcfg.broadphase = BroadphaseMode::kBruteForce;
  ExpectSameAsScalar(scalar, FleetRunner(fcfg).Run(fleet, 2024));
}

TEST(FleetRunner, ReproducesScalarWithLinkImpairmentsAndRecovery) {
  const auto fleet = ShortConvoy();
  MultiRunConfig mcfg;
  mcfg.fault = ConvoyFault();
  mcfg.faulted_drone = 2;
  mcfg.recovery = true;
  mcfg.link.drop_probability = 0.2;
  mcfg.link.delay_s = 0.25;
  const auto scalar = MultiUavRunner(mcfg).Run(fleet, 77);

  FleetRunConfig fcfg;
  fcfg.fault = mcfg.fault;
  fcfg.faulted_drone = 2;
  fcfg.recovery = true;
  fcfg.link = mcfg.link;
  ExpectSameAsScalar(scalar, FleetRunner(fcfg).Run(fleet, 77));
}

TEST(FleetRunner, ByteIdenticalAcrossThreadsAndBatchSizes) {
  const auto fleet = ShortConvoy(6);
  FleetRunConfig base;
  base.fault = ConvoyFault();
  base.faulted_drone = 3;

  FleetRunConfig ref_cfg = base;
  ref_cfg.num_threads = 1;
  ref_cfg.batch_size = uav::BatchedUav::kMaxLanes;
  const auto reference = FleetRunner(ref_cfg).Run(fleet, 2024);

  for (int threads : {1, 2, 8}) {
    for (int batch : {1, 8, 16}) {
      FleetRunConfig cfg = base;
      cfg.num_threads = threads;
      cfg.batch_size = batch;
      const auto out = FleetRunner(cfg).Run(fleet, 2024);
      ExpectIdenticalFleetOutputs(reference, out,
                                  "threads=" + std::to_string(threads) +
                                      " batch=" + std::to_string(batch));
    }
  }
}

TEST(FleetRunner, RejectsInvalidBatchSize) {
  FleetRunConfig cfg;
  cfg.batch_size = 0;
  EXPECT_THROW(FleetRunner(cfg).Run(ShortConvoy(2), 1), std::invalid_argument);
  cfg.batch_size = uav::BatchedUav::kMaxLanes + 1;
  EXPECT_THROW(FleetRunner(cfg).Run(ShortConvoy(2), 1), std::invalid_argument);
}

TEST(FleetRunner, RejectsFleetMixingControlClocks) {
  FleetRunConfig cfg;
  cfg.uav_config_mutator = [](std::size_t i, uav::UavConfig& c) {
    if (i == 1) c.control_rate_hz = 2.0 * c.control_rate_hz;
  };
  EXPECT_THROW(FleetRunner(cfg).Run(ShortConvoy(3), 1), std::invalid_argument);

  // The scalar runner fails fast on the same fleet (satellite regression:
  // it used to silently mis-step every drone after the first).
  MultiRunConfig mcfg;
  mcfg.uav_config_mutator = cfg.uav_config_mutator;
  EXPECT_THROW(MultiUavRunner(mcfg).Run(ShortConvoy(3), 1), std::invalid_argument);
}

TEST(FleetRunner, RelaunchModeProducesContinuousTraffic) {
  const auto fleet = ShortConvoy(3);
  FleetRunConfig cfg;
  cfg.relaunch_horizon_s = 600.0;
  cfg.num_threads = 1;
  const auto out = FleetRunner(cfg).Run(fleet, 2024);

  EXPECT_GT(out.relaunches, 0);
  EXPECT_GT(out.missions_completed, static_cast<int>(fleet.size()));
  EXPECT_GT(out.throughput_missions_per_hour, 0.0);
  ASSERT_GT(out.drones.size(), fleet.size());
  for (std::size_t i = 0; i < out.drones.size(); ++i) {
    if (i < fleet.size()) {
      EXPECT_EQ(out.drones[i].launch_time_s, 0.0);
    } else {
      EXPECT_GT(out.drones[i].launch_time_s, 0.0);  // a relaunched flight
    }
  }

  // Continuous traffic stays deterministic across execution strategies too.
  FleetRunConfig cfg2 = cfg;
  cfg2.num_threads = 4;
  cfg2.batch_size = 2;
  ExpectIdenticalFleetOutputs(out, FleetRunner(cfg2).Run(fleet, 2024),
                              "relaunch threads=4 batch=2");
}

/// FNV-1a over everything a relaunch run decides: per-flight outcome,
/// duration and launch time, then every conflict event. Doubles fold in as
/// their bit patterns, so the pin is byte-exact.
std::uint64_t RelaunchFingerprint(const FleetRunOutput& out) {
  std::uint64_t h = 14695981039346656037ULL;
  const auto mix = [&h](std::uint64_t v) {
    for (int i = 0; i < 8; ++i) h = (h ^ ((v >> (8 * i)) & 0xFF)) * 1099511628211ULL;
  };
  const auto mix_d = [&mix](double d) { mix(std::bit_cast<std::uint64_t>(d)); };
  mix(out.drones.size());
  for (const auto& d : out.drones) {
    mix(static_cast<std::uint64_t>(d.drone_id));
    mix(static_cast<std::uint64_t>(d.outcome));
    mix_d(d.flight_duration_s);
    mix_d(d.launch_time_s);
  }
  mix(out.events.size());
  for (const auto& e : out.events) {
    mix(static_cast<std::uint64_t>(e.drone_a));
    mix(static_cast<std::uint64_t>(e.drone_b));
    mix(static_cast<std::uint64_t>(e.severity));
    mix_d(e.start_time);
    mix_d(e.end_time);
    mix_d(e.min_separation_m);
  }
  return h;
}

TEST(FleetRunner, RelaunchOutputIsPinned) {
  // Continuous traffic with refilled lanes in partly-filled groups (12
  // drones in groups of 5, 5 and 2) on two workers. Short legs end flights
  // inside the horizon, so lanes are refilled mid-run; the faulted drone
  // drifts into a neighbour's lane, so conflict events are pinned too.
  const auto fleet = BuildConvoyScenario(12, 30.0, 12.0, 200.0);
  FleetRunConfig cfg;
  cfg.relaunch_horizon_s = 120.0;
  cfg.batch_size = 5;
  cfg.num_threads = 2;
  cfg.fault = ConvoyFault();
  cfg.fault->start_time_s = 15.0;
  cfg.faulted_drone = 4;
  const auto out = FleetRunner(cfg).Run(fleet, 2024);

  EXPECT_EQ(out.drones.size(), 25u);
  EXPECT_EQ(out.relaunches, 13);
  EXPECT_EQ(out.events.size(), 2u);
  EXPECT_EQ(RelaunchFingerprint(out), 0xbbecb30df2b6ba1eULL)
      << std::hex << "fingerprint 0x" << RelaunchFingerprint(out);
}

TEST(FleetExperiment, ConvoyHomesRoundTripThroughProjection) {
  // Satellite regression: convoy pads are placed via LocalProjection::ToGeo,
  // so projecting them back yields the intended lane geometry exactly
  // (the old hand-rolled degree conversion was ~0.3% off).
  const auto fleet = BuildConvoyScenario(4, 30.0, 12.0, 600.0);
  const math::LocalProjection proj(core::ScenarioOrigin());
  for (int i = 0; i < 4; ++i) {
    const math::Vec3 ned = proj.ToNed(fleet[static_cast<std::size_t>(i)].home_geo);
    EXPECT_NEAR(ned.x, -i * 25.0, 1e-6);
    EXPECT_NEAR(ned.y, i * 30.0, 1e-6);
    EXPECT_NEAR(ned.z, 0.0, 1e-6);
  }
}

TEST(FleetExperiment, ValenciaScenarioTilesInReplicas) {
  core::FleetExperimentSpec spec;
  spec.scenario = core::FleetScenario::kValencia;
  spec.num_drones = 23;
  const auto fleet = BuildFleetScenario(spec);
  const auto& base = core::SharedValenciaScenario();
  ASSERT_EQ(fleet.size(), 23u);
  const math::LocalProjection proj(core::ScenarioOrigin());
  for (std::size_t i = 0; i < fleet.size(); ++i) {
    const std::size_t mission = i % base.size();
    const int replica = static_cast<int>(i / base.size());
    if (replica == 0) {
      EXPECT_EQ(fleet[i].name, base[mission].name);
    } else {
      EXPECT_EQ(fleet[i].name,
                base[mission].name + "#" + std::to_string(replica));
    }
    const math::Vec3 home = proj.ToNed(fleet[i].home_geo);
    const math::Vec3 base_home = proj.ToNed(base[mission].home_geo);
    EXPECT_NEAR(home.x, base_home.x, 1e-3);
    EXPECT_NEAR(home.y, base_home.y + replica * kValenciaTileOffsetM, 1e-3);
    // The mission itself is the base mission, just relocated.
    EXPECT_EQ(fleet[i].plan.waypoints.size(), base[mission].plan.waypoints.size());
    EXPECT_EQ(fleet[i].cruise_speed_kmh, base[mission].cruise_speed_kmh);
  }
}

std::string Serialize(const telemetry::FleetRecord& r) {
  std::ostringstream os;
  telemetry::WriteFleetRecord(os, r);
  return os.str();
}

TEST(FleetExperiment, CampaignCachesAndDedupesThroughResultStore) {
  const std::string dir = ::testing::TempDir() + "uavres_fleet_cache";
  std::filesystem::remove_all(dir);

  core::FleetExperimentSpec spec;
  spec.num_drones = 3;
  spec.leg_length_m = 400.0;
  spec.fault = ConvoyFault();
  spec.faulted_drone = 1;

  FleetCampaignConfig cfg;
  cfg.cache_dir = dir;
  cfg.knobs.num_threads = 1;

  FleetCampaign first(cfg);
  const auto run1 = first.Run({spec});
  ASSERT_EQ(run1.size(), 1u);
  EXPECT_FALSE(run1[0].from_cache);
  EXPECT_EQ(first.cache_stats().stores, 1u);

  // A fresh campaign over the same directory dedupes the identical spec —
  // and the cached record is byte-identical to the computed one.
  FleetCampaign second(cfg);
  const auto run2 = second.Run({spec});
  ASSERT_EQ(run2.size(), 1u);
  EXPECT_TRUE(run2[0].from_cache);
  EXPECT_EQ(second.cache_stats().hits, 1u);
  EXPECT_EQ(Serialize(run1[0].record), Serialize(run2[0].record));

  // Different execution knobs still hit the same entry: the key excludes
  // strategy because results are contractually identical across it.
  FleetCampaignConfig cfg2 = cfg;
  cfg2.knobs.batch_size = 1;
  cfg2.knobs.broadphase = BroadphaseMode::kBruteForce;
  FleetCampaign third(cfg2);
  const auto run3 = third.Run({spec});
  EXPECT_TRUE(run3[0].from_cache);

  // A different spec misses.
  core::FleetExperimentSpec other = spec;
  other.seed_base = 4040;
  EXPECT_NE(core::FleetCacheKey(spec), core::FleetCacheKey(other));

  // With the fault removed, faulted_drone no longer influences the run, so
  // baselines share one entry across faulted-drone choices.
  core::FleetExperimentSpec base_a = spec;
  base_a.fault.reset();
  core::FleetExperimentSpec base_b = base_a;
  base_b.faulted_drone = 2;
  EXPECT_EQ(core::FleetCacheKey(base_a), core::FleetCacheKey(base_b));
  core::FleetExperimentSpec faulted_b = spec;
  faulted_b.faulted_drone = 2;
  EXPECT_NE(core::FleetCacheKey(spec), core::FleetCacheKey(faulted_b));

  std::filesystem::remove_all(dir);
}

TEST(FleetExperiment, RecordCarriesSystemicMetrics) {
  // The default convoy geometry with a full-strength accelerometer fault at
  // the default onset: the faulted drone deviates into neighbouring lanes
  // (this exact configuration is the `uavres fleet` smoke case).
  core::FleetExperimentSpec spec;
  spec.num_drones = 6;
  core::FaultSpec fault;
  fault.target = core::FaultTarget::kAccelerometer;
  fault.type = core::FaultType::kFixed;
  fault.duration_s = 30.0;
  spec.fault = fault;
  spec.faulted_drone = 3;

  const auto record = RunFleetExperiment(spec, {.num_threads = 1});
  EXPECT_EQ(record.num_drones, 6);
  EXPECT_EQ(record.drones.size(), 6u);
  EXPECT_GT(record.sim_time_s, 0.0);
  EXPECT_GT(record.separation_samples, 0);
  EXPECT_GT(record.reports_published, 0);
  EXPECT_GT(record.missions_completed, 0);
  // The faulted convoy produces conflict events, and the cascade metrics
  // must be consistent with them.
  EXPECT_GT(record.conflicts + record.alerts, 0);
  EXPECT_GE(record.cascade_size, 2);
  EXPECT_GE(record.secondary_conflicts, 0);
  ASSERT_FALSE(record.events.empty());
  for (const auto& e : record.events) {
    EXPECT_GE(e.end_time, e.start_time);
    EXPECT_GT(e.min_separation_m, 0.0);
    EXPECT_NE(e.drone_a, e.drone_b);
  }
}

}  // namespace
}  // namespace uavres::uspace
