// Demand-driven IMU sampling at vehicle level (DESIGN.md §13.2). A recorded
// vehicle samples every redundant unit on every step; an unrecorded one
// samples only the unit the flight stack reads and defers the other two
// units' noise draws. Flown in lockstep, the two must stay bit-identical, and
// the published IMU signal must show which path ran: the selected slot alone
// outside fault windows, every slot inside one and while recording.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <optional>
#include <ostream>
#include <vector>

#include "core/fault_model.h"
#include "core/scenario.h"
#include "math/state_io.h"
#include "uav/simulation_runner.h"
#include "uav/uav.h"

namespace uavres {
namespace {

/// Bytes of copies of `xs` through their snapshot seam (math/state_io.h).
/// Copies, because VisitState is non-const.
template <class... Ts>
std::vector<std::uint8_t> StateBytes(Ts... xs) {
  std::vector<std::uint8_t> bytes;
  math::StateWriter writer(&bytes);
  writer(xs...);
  return bytes;
}

/// Every topic except imu, whose unread slots differ by design (the NaN
/// sentinel in one vehicle, real samples in the other).
std::vector<std::uint8_t> NonImuTopicBytes(const bus::FlightBus& b) {
  return StateBytes(b.gps, b.baro, b.mag, b.estimate, b.estimator_status, b.imu_select,
                    b.health, b.setpoint, b.actuator, b.truth, b.battery, b.detector);
}

/// Flies `spec` on two vehicles in lockstep until the flight ends, one with a
/// bus recorder attached (every unit sampled, nothing deferred) and one
/// without. After every step the airframe, the EKF and every topic but imu
/// must match; at the end, the flight logs and step counts. `detector`
/// enables the online detector as RunConfig::recovery does.
void ExpectRecordedRunIdentical(const uav::ExperimentSpec& spec, bool detector = false) {
  uav::UavConfig cfg = uav::MakeUavConfig(spec.drone);
  cfg.detector.enabled = detector;
  uav::Uav plain(cfg, spec.drone.plan, spec.fault, spec.Seed());
  uav::Uav recorded(cfg, spec.drone.plan, spec.fault, spec.Seed());
  std::ostream sink(nullptr);  // the tap's writes are dropped
  recorded.StartRecording(&sink);

  const double max_time = spec.drone.plan.ExpectedDuration() + uav::RunConfig{}.extra_time_s;
  while (plain.time() < max_time) {
    plain.Step();
    recorded.Step();
    ASSERT_TRUE(StateBytes(plain.quad()) == StateBytes(recorded.quad()))
        << "airframe differs at t=" << plain.time() << ": " << spec;
    ASSERT_TRUE(StateBytes(plain.ekf()) == StateBytes(recorded.ekf()))
        << "EKF differs at t=" << plain.time() << ": " << spec;
    ASSERT_TRUE(NonImuTopicBytes(plain.flight_bus()) == NonImuTopicBytes(recorded.flight_bus()))
        << "a published topic differs at t=" << plain.time() << ": " << spec;
    const bool ended = uav::EvaluateTerminal(plain, plain.time()).ended;
    ASSERT_EQ(ended, uav::EvaluateTerminal(recorded, recorded.time()).ended) << spec;
    if (ended) break;
  }
  EXPECT_EQ(plain.step_count(), recorded.step_count());
  // The tap really ran: at least the imu frame of every step was written.
  EXPECT_GE(recorded.recorded_frames(), static_cast<std::uint64_t>(recorded.step_count()));
  EXPECT_TRUE(StateBytes(plain.log()) == StateBytes(recorded.log()))
      << "flight logs differ: " << spec;
  if (spec.fault) {
    // The fault window was flown, so its all-units sampling and the replay
    // of the deferred draws at onset are both exercised.
    EXPECT_GT(plain.time(), spec.fault->start_time_s) << spec;
  }
}

core::FaultSpec Fault(core::FaultType type, core::FaultTarget target, double duration_s) {
  core::FaultSpec f;
  f.type = type;
  f.target = target;
  f.start_time_s = core::kInjectionStartS;
  f.duration_s = duration_s;
  return f;
}

uav::ExperimentSpec Mission0(std::optional<core::FaultSpec> fault) {
  return {core::SharedValenciaScenario()[0], 0, fault, 2024};
}

TEST(DemandImuSampling, GoldMissionMatchesRecordedRun) {
  ExpectRecordedRunIdentical(Mission0(std::nullopt));
}

TEST(DemandImuSampling, ImuFreezeMatchesRecordedRun) {
  ExpectRecordedRunIdentical(
      Mission0(Fault(core::FaultType::kFreeze, core::FaultTarget::kImu, 10.0)));
}

TEST(DemandImuSampling, GyroRandomMatchesRecordedRun) {
  ExpectRecordedRunIdentical(
      Mission0(Fault(core::FaultType::kRandom, core::FaultTarget::kGyrometer, 10.0)));
}

TEST(DemandImuSampling, RecoveryRunMatchesRecordedRun) {
  ExpectRecordedRunIdentical(
      Mission0(Fault(core::FaultType::kZeros, core::FaultTarget::kGyrometer, 10.0)),
      /*detector=*/true);
}

bool Finite(const sensors::ImuSample& s) {
  return std::isfinite(s.t) && std::isfinite(s.accel_mps2.x) && std::isfinite(s.accel_mps2.y) &&
         std::isfinite(s.accel_mps2.z) && std::isfinite(s.gyro_rads.x) &&
         std::isfinite(s.gyro_rads.y) && std::isfinite(s.gyro_rads.z);
}

TEST(DemandImuSampling, OnlyTheSelectedSlotIsSampledOutsideFaultWindows) {
  // Gold mission 0 to termination. Its health monitor cycles units on
  // transient anomalies, so the deferred units are replayed mid-flight.
  const uav::ExperimentSpec spec = Mission0(std::nullopt);
  uav::Uav u(uav::MakeUavConfig(spec.drone), spec.drone.plan, std::nullopt, spec.Seed());
  const double max_time = spec.drone.plan.ExpectedDuration() + uav::RunConfig{}.extra_time_s;
  int switches = 0;
  while (u.time() < max_time) {
    const int selected = u.flight_bus().imu_select.Latest().unit;
    u.Step();
    const auto& units = u.flight_bus().imu.Latest().units;
    for (int k = 0; k < bus::ImuSignal::kUnits; ++k) {
      ASSERT_EQ(Finite(units[static_cast<std::size_t>(k)]), k == selected)
          << "unit " << k << " at t=" << u.time() << " (selected " << selected << ")";
    }
    if (u.flight_bus().imu_select.Latest().unit != selected) ++switches;
    if (uav::EvaluateTerminal(u, u.time()).ended) break;
  }
  EXPECT_GT(switches, 0) << "the gold flight never switched units";
}

TEST(DemandImuSampling, EveryUnitIsSampledInFaultWindowsAndWhileRecording) {
  const uav::ExperimentSpec spec =
      Mission0(Fault(core::FaultType::kNoise, core::FaultTarget::kImu, 2.0));
  const uav::UavConfig cfg = uav::MakeUavConfig(spec.drone);
  uav::Uav u(cfg, spec.drone.plan, spec.fault, spec.Seed());
  int in_window = 0;
  while (u.time() < spec.fault->start_time_s + 4.0) {
    u.Step();
    const auto& units = u.flight_bus().imu.Latest().units;
    int finite = 0;
    for (const auto& s : units) finite += Finite(s) ? 1 : 0;
    ASSERT_EQ(finite, u.fault_active() ? 3 : 1) << "t=" << u.time();
    in_window += u.fault_active() ? 1 : 0;
  }
  EXPECT_NEAR(in_window, 500, 1);  // 2 s at 250 Hz

  uav::Uav recorded(cfg, spec.drone.plan, std::nullopt, spec.Seed());
  std::ostream sink(nullptr);
  recorded.StartRecording(&sink);
  for (int i = 0; i < 2000; ++i) {
    recorded.Step();
    for (const auto& s : recorded.flight_bus().imu.Latest().units) {
      ASSERT_TRUE(Finite(s)) << "t=" << recorded.time();
    }
  }
}

}  // namespace
}  // namespace uavres
