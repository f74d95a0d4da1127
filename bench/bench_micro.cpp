// Micro-benchmarks of the simulation hot loops (google-benchmark).
//
// The campaign advances 850 flights at 250 Hz; these benches keep the
// per-step costs visible so the full grid stays runnable on a laptop.
#include <benchmark/benchmark.h>

#include "control/attitude_controller.h"
#include "control/mixer.h"
#include "control/position_controller.h"
#include "core/bubble.h"
#include "core/fault_injector.h"
#include "estimation/ekf.h"
#include "math/rng.h"
#include "sensors/imu.h"
#include "sim/quadrotor.h"
#include "telemetry/trajectory.h"
#include "uav/simulation_runner.h"

namespace {

using namespace uavres;

void BM_RngGaussian(benchmark::State& state) {
  math::Rng rng{1};
  for (auto _ : state) benchmark::DoNotOptimize(rng.Gaussian());
}
BENCHMARK(BM_RngGaussian);

sim::RigidBodyState CruiseTruth() {
  sim::RigidBodyState s;
  s.att = math::Quat::FromEuler(0.05, -0.1, 1.2);
  s.accel_world = {0.4, -0.3, 0.2};
  s.omega = {0.02, -0.05, 0.3};
  return s;
}

// The imu module's two per-step costs (DESIGN.md §13.2): every unit sampled
// (fault windows, recordings) ...
void BM_ImuSampleAll(benchmark::State& state) {
  sensors::RedundantImu imu(sensors::ImuNoiseConfig{}, sensors::ImuRanges{}, math::Rng{5});
  const sim::RigidBodyState truth = CruiseTruth();
  double t = 0.0;
  for (auto _ : state) {
    t += 0.004;
    benchmark::DoNotOptimize(imu.SampleAll(truth, t, 0.004));
  }
}
BENCHMARK(BM_ImuSampleAll);

// ... and the cruise path: the selected unit sampled, the other two skipped.
// The skipped units' draws stay deferred here; a flight replays them at its
// next isolation switch or fault onset.
void BM_ImuSelectedUnit(benchmark::State& state) {
  sensors::RedundantImu imu(sensors::ImuNoiseConfig{}, sensors::ImuRanges{}, math::Rng{5});
  const sim::RigidBodyState truth = CruiseTruth();
  double t = 0.0;
  for (auto _ : state) {
    t += 0.004;
    benchmark::DoNotOptimize(imu.unit(0).Sample(truth, t, 0.004));
    imu.unit(1).Skip(0.004);
    imu.unit(2).Skip(0.004);
  }
}
BENCHMARK(BM_ImuSelectedUnit);

void BM_QuadrotorStep(benchmark::State& state) {
  sim::Environment env;
  sim::Quadrotor quad(sim::MakeQuadrotorParams(1.5), &env);
  quad.ResetTo({0, 0, -10}, 0.0);
  const std::array<double, 4> cmds{0.5, 0.5, 0.5, 0.5};
  for (auto _ : state) {
    quad.Step(cmds, 0.004);
    benchmark::DoNotOptimize(quad.state().pos.z);
  }
}
BENCHMARK(BM_QuadrotorStep);

void BM_EkfPredict(benchmark::State& state) {
  estimation::Ekf ekf;
  ekf.InitAtRest({0, 0, -10}, 0.0);
  sensors::ImuSample imu;
  imu.accel_mps2 = {0.0, 0.0, -9.81};
  imu.gyro_rads = {0.01, -0.02, 0.005};
  for (auto _ : state) {
    imu.t += 0.004;
    ekf.PredictImu(imu, 0.004);
    benchmark::DoNotOptimize(ekf.state().pos.x);
  }
}
BENCHMARK(BM_EkfPredict);

void BM_EkfFuseGps(benchmark::State& state) {
  estimation::Ekf ekf;
  ekf.InitAtRest({0, 0, -10}, 0.0);
  sensors::GpsSample gps;
  gps.pos_ned_m = {0.1, -0.1, -10.05};
  for (auto _ : state) {
    gps.t += 0.1;
    ekf.FuseGps(gps);
    benchmark::DoNotOptimize(ekf.state().pos.x);
  }
}
BENCHMARK(BM_EkfFuseGps);

void BM_ControlCascade(benchmark::State& state) {
  control::PositionController pos_ctrl;
  control::AttitudeController att_ctrl;
  control::Mixer mixer;
  control::PositionSetpoint sp;
  sp.pos = {10.0, 5.0, -15.0};
  const math::Vec3 pos{9.0, 4.5, -14.8};
  const math::Vec3 vel{1.0, 0.5, 0.0};
  const math::Quat att = math::Quat::FromEuler(0.02, -0.03, 0.8);
  for (auto _ : state) {
    const auto att_sp = pos_ctrl.Update(sp, pos, vel, 0.004);
    const auto rate_sp = att_ctrl.Update(att_sp.att, att);
    const auto cmds = mixer.Mix(att_sp.thrust, rate_sp * 5.0);
    benchmark::DoNotOptimize(cmds[0]);
  }
}
BENCHMARK(BM_ControlCascade);

void BM_FaultInjectorApply(benchmark::State& state) {
  core::FaultSpec spec;
  spec.type = core::FaultType::kNoise;
  spec.target = core::FaultTarget::kImu;
  spec.start_time_s = 0.0;
  spec.duration_s = 1e9;
  core::FaultInjector injector(spec, sensors::ImuRanges{}, math::Rng{3});
  sensors::ImuSample s;
  s.accel_mps2 = {0.1, 0.2, -9.8};
  double t = 1.0;
  for (auto _ : state) {
    t += 0.004;
    benchmark::DoNotOptimize(injector.Apply(s, 0, t));
  }
}
BENCHMARK(BM_FaultInjectorApply);

void BM_TrajectoryDistance(benchmark::State& state) {
  telemetry::Trajectory traj;
  for (int i = 0; i < 1000; ++i) {
    telemetry::TrajectorySample s;
    s.t = i * 0.5;
    s.pos_true = {static_cast<double>(i), std::sin(i * 0.01) * 20.0, -15.0};
    traj.Add(s);
  }
  const math::Vec3 p{500.0, 30.0, -12.0};
  for (auto _ : state) benchmark::DoNotOptimize(traj.DistanceToTruePath(p));
}
BENCHMARK(BM_TrajectoryDistance);

void BM_BubbleTrack(benchmark::State& state) {
  core::BubbleParams params;
  core::BubbleMonitor monitor(params);
  double dev = 0.0;
  for (auto _ : state) {
    dev += 0.01;
    monitor.Track(dev, 3.0, 3.0);
    benchmark::DoNotOptimize(monitor.inner_violations());
  }
}
BENCHMARK(BM_BubbleTrack);

void BM_FullUavSecond(benchmark::State& state) {
  // One simulated second (250 control steps) of a whole vehicle.
  const auto fleet = core::BuildValenciaScenario();
  for (auto _ : state) {
    state.PauseTiming();
    uav::Uav vehicle(uav::MakeUavConfig(fleet[0]), fleet[0].plan, std::nullopt, 7);
    state.ResumeTiming();
    for (int i = 0; i < 250; ++i) vehicle.Step();
    benchmark::DoNotOptimize(vehicle.quad().state().pos.z);
  }
}
BENCHMARK(BM_FullUavSecond)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
