// Module probes: what one control step costs, layer by layer.
//
// The probes record one gold flight and one faulted flight of mission 0
// through uav::RecordBusLog, decode the logs with bus::ReadBusFrame before
// any timing starts, and then feed the recorded inputs to the public entry
// point of each layer in a tight loop. Every probe loop runs inside one
// trace span (never one span per call), and every probe repeats its loop a
// few times and reports the median cost per call.
#include <algorithm>
#include <optional>
#include <sstream>
#include <vector>

#include "bus/record.h"
#include "common.h"
#include "control/attitude_controller.h"
#include "control/mixer.h"
#include "control/position_controller.h"
#include "control/rate_controller.h"
#include "core/api.h"
#include "core/fault_injector.h"
#include "core/stats.h"
#include "estimation/ekf.h"
#include "math/rng.h"
#include "sensors/imu.h"
#include "sim/environment.h"
#include "sim/quadrotor.h"
#include "telemetry/trace.h"
#include "uav/batched_uav.h"
#include "uav/bus_replay.h"
#include "uav/modules.h"
#include "uav/uav.h"

namespace perfbench {
namespace {

using namespace uavres;

constexpr int kProbePasses = 5;
/// Cruise window of mission 0: well after take-off, before the paper's
/// injection time (90 s).
constexpr double kCruiseStartS = 30.0;
constexpr double kCruiseEndS = 90.0;
/// Fault window of the faulted flight (the paper's onset, 30 s duration).
constexpr double kFaultStartS = core::kInjectionStartS;
constexpr double kFaultDurationS = 30.0;

/// Everything one control step consumed and produced, as recorded.
struct RecordedStep {
  double t{0.0};
  sensors::ImuSample imu_unit;     ///< the unit the estimator used
  bus::ImuSignal imu;              ///< all units (fault-injector input)
  bus::TruthSignal truth_before;   ///< what the sensors sampled
  std::optional<sensors::GpsSample> gps;
  std::optional<sensors::BaroSample> baro;
  std::optional<sensors::MagSample> mag;
  estimation::NavState estimate;
  bus::SetpointSignal setpoint;
  bus::ActuatorSignal actuator;
};

/// Decodes a bus log into per-step inputs up to `until_s`, mirroring the
/// stream order ReplayEstimator relies on: a step's sensor frames, then its
/// estimate, then the IMU selection for the next step.
std::vector<RecordedStep> DecodeSteps(const std::string& log, double until_s) {
  std::istringstream is(log);
  bus::BusLogHeader header;
  std::vector<RecordedStep> steps;
  if (!bus::ReadBusLogHeader(is, header)) return steps;
  bus::BusFrame frame;
  RecordedStep cur;
  bus::TruthSignal last_truth;
  bool have_truth = false;
  int selection = 0;
  bool open = false;
  while (bus::ReadBusFrame(is, frame)) {
    switch (frame.id) {
      case bus::TopicId::kImu:
        if (open) steps.push_back(cur);
        if (frame.t > until_s) return steps;
        cur = RecordedStep{};
        open = true;
        cur.t = frame.t;
        cur.imu = frame.imu;
        cur.truth_before = last_truth;
        break;
      case bus::TopicId::kGps:
        cur.gps = frame.gps;
        break;
      case bus::TopicId::kBaro:
        cur.baro = frame.baro;
        break;
      case bus::TopicId::kMag:
        cur.mag = frame.mag;
        break;
      case bus::TopicId::kEstimate:
        cur.imu_unit = cur.imu.units[static_cast<std::size_t>(selection % bus::ImuSignal::kUnits)];
        cur.estimate = frame.estimate;
        break;
      case bus::TopicId::kImuSelect:
        selection = frame.imu_select.unit;
        break;
      case bus::TopicId::kSetpoint:
        cur.setpoint = frame.setpoint;
        break;
      case bus::TopicId::kActuator:
        cur.actuator = frame.actuator;
        break;
      case bus::TopicId::kTruth:
        last_truth = frame.truth;
        if (!have_truth) {
          // The pre-flight truth is not in the log; the first step sampled
          // the vehicle at rest where it ended up after that step.
          cur.truth_before = frame.truth;
          have_truth = true;
        }
        break;
      default:
        break;
    }
  }
  if (open) steps.push_back(cur);
  return steps;
}

double MedianOf(std::vector<double> v) { return core::Quantile(std::move(v), 0.5); }

/// Cost of one steady_clock read pair, subtracted from per-call timings.
double ClockOverheadNs() {
  std::vector<double> samples;
  for (int i = 0; i < 2000; ++i) {
    const double a = NowS();
    const double b = NowS();
    samples.push_back((b - a) * 1e9);
  }
  return MedianOf(samples);
}

template <class Body>
double NsPerCall(std::size_t calls, Body&& body) {
  std::vector<double> passes;
  for (int p = 0; p < kProbePasses; ++p) {
    const double t0 = NowS();
    body();
    passes.push_back((NowS() - t0) * 1e9 / static_cast<double>(calls));
  }
  return MedianOf(passes);
}

/// Runs step(i) untimed for i < begin, so a layer that carries state
/// reaches the window as the flight left it, then returns the ns per step
/// over [begin, end).
template <class Step>
double WindowNsPerStep(std::size_t begin, std::size_t end, Step&& step) {
  for (std::size_t i = 0; i < begin; ++i) step(i);
  const double t0 = NowS();
  for (std::size_t i = begin; i < end; ++i) step(i);
  return (NowS() - t0) * 1e9 / static_cast<double>(end - begin);
}

std::size_t FirstStepAt(const std::vector<RecordedStep>& steps, double t) {
  std::size_t i = 0;
  while (i < steps.size() && steps[i].t < t) ++i;
  return i;
}

}  // namespace

void RunProbes(const Options& opt, Json& out, Checks& checks) {
  const core::DroneSpec& drone = core::SharedValenciaScenario().front();
  const uav::UavConfig cfg = uav::MakeUavConfig(drone);
  const double dt = 1.0 / cfg.control_rate_hz;
  const double yaw0 = uav::InitialMissionYaw(drone.plan);

  core::FaultSpec fault;
  fault.type = core::FaultType::kRandom;
  fault.target = core::FaultTarget::kAccelerometer;
  fault.start_time_s = kFaultStartS;
  fault.duration_s = kFaultDurationS;
  const uav::ExperimentSpec gold_spec{drone, 0, std::nullopt, opt.seed};
  const uav::ExperimentSpec fault_spec{drone, 0, fault, opt.seed};

  // Record, then decode, before anything is timed.
  std::string gold_log, fault_log;
  {
    UAVRES_TRACE_SCOPE("probe/uav/record");
    std::ostringstream g, f;
    const auto gs = uav::RecordBusLog(gold_spec, g);
    const auto fs = uav::RecordBusLog(fault_spec, f);
    checks.Ops(2, (gs ? 0 : 1) + (fs ? 0 : 1), "probes: bus log recording failed");
    gold_log = g.str();
    fault_log = f.str();
  }
  const std::vector<RecordedStep> steps = DecodeSteps(gold_log, kCruiseEndS);
  const std::size_t cruise_begin = FirstStepAt(steps, kCruiseStartS);
  checks.Require(cruise_begin < steps.size() && steps.size() > 1000,
                 "probes: gold log too short for the cruise window");
  if (!checks.ok()) return;
  const std::size_t cruise_steps = steps.size() - cruise_begin;
  double sink = 0.0;  // every probed result feeds it, see the end

  Json probes;
  const double clock_ns = ClockOverheadNs();
  probes.Set("clock_overhead_ns", Num(clock_ns));

  // math: the Gaussian draw behind every sensor noise sample.
  {
    constexpr std::size_t kDraws = 400000;
    math::Rng rng(opt.seed);
    UAVRES_TRACE_SCOPE("probe/math/rng_gaussian");
    probes.Set("math.rng_gaussian_ns", Num(NsPerCall(kDraws, [&] {
                 double s = 0.0;
                 for (std::size_t i = 0; i < kDraws; ++i) s += rng.Gaussian();
                 sink += s;
               })));
  }

  // sensors: the redundant IMU set sampling recorded truth.
  {
    sensors::RedundantImu imu(cfg.imu_noise, cfg.imu_ranges,
                              math::Rng{math::HashCombine(gold_spec.Seed(), 0x02)});
    UAVRES_TRACE_SCOPE("probe/sensors/imu_sample");
    probes.Set("sensors.imu_sample_ns", Num(NsPerCall(cruise_steps, [&] {
                 for (std::size_t i = cruise_begin; i < steps.size(); ++i) {
                   const auto units = imu.SampleAll(steps[i].truth_before.state, steps[i].t, dt);
                   sink += units[0].accel_mps2.x;
                 }
               })));
  }

  // core: one fault injector per paper fault type over the recorded units.
  {
    UAVRES_TRACE_SCOPE("probe/core/fault_apply");
    std::vector<double> per_type;
    Json types;
    for (core::FaultType type : core::kAllFaultTypes) {
      core::FaultSpec f;
      f.type = type;
      f.target = core::FaultTarget::kImu;
      f.start_time_s = kCruiseStartS;
      f.duration_s = kCruiseEndS - kCruiseStartS + 1.0;
      core::FaultInjector inj(f, cfg.imu_ranges,
                              math::Rng{math::HashCombine(gold_spec.Seed(), 0x06)},
                              cfg.fault_noise, cfg.fault_ext);
      const double ns = NsPerCall(cruise_steps * bus::ImuSignal::kUnits, [&] {
        for (std::size_t i = cruise_begin; i < steps.size(); ++i) {
          for (int u = 0; u < bus::ImuSignal::kUnits; ++u) {
            sink += inj.Apply(steps[i].imu.units[static_cast<std::size_t>(u)], u, steps[i].t)
                        .gyro_rads.z;
          }
        }
      });
      per_type.push_back(ns);
      types.Set(core::ToString(type), Num(ns));
    }
    probes.Set("core.fault_apply_ns", Num(MedianOf(per_type)));
    probes.Set("core.fault_apply_ns_by_type", types);
  }

  // estimation: the EKF fed the recorded sensor stream from take-off, so
  // its estimate stays exact, with each call in the cruise window timed on
  // its own (predict ~1 us, so one clock pair per call).
  {
    UAVRES_TRACE_SCOPE("probe/estimation/ekf");
    std::vector<double> predict_ns, fuse_ns, fuse_per_step_ns;
    std::uint64_t mismatched = 0;
    for (int p = 0; p < kProbePasses; ++p) {
      estimation::Ekf ekf(cfg.ekf);
      ekf.InitAtRest(drone.plan.home, yaw0);
      double predict = 0.0, fuse = 0.0;
      std::size_t fusions = 0;
      mismatched = 0;
      for (std::size_t i = 0; i < steps.size(); ++i) {
        const RecordedStep& s = steps[i];
        const bool timed = i >= cruise_begin;
        const double a = NowS();
        ekf.PredictImu(s.imu_unit, dt);
        const double b = NowS();
        if (timed) predict += (b - a) * 1e9 - clock_ns;
        if (s.gps || s.baro || s.mag) {
          const double c = NowS();
          if (s.gps) ekf.FuseGps(*s.gps);
          if (s.baro) ekf.FuseBaro(*s.baro);
          if (s.mag) ekf.FuseMag(*s.mag);
          const double d = NowS();
          if (timed) {
            fuse += (d - c) * 1e9 - clock_ns;
            fusions += (s.gps ? 1 : 0) + (s.baro ? 1 : 0) + (s.mag ? 1 : 0);
          }
        }
        if (!(ekf.state().pos == s.estimate.pos)) ++mismatched;
      }
      predict_ns.push_back(predict / static_cast<double>(cruise_steps));
      fuse_ns.push_back(fuse / static_cast<double>(std::max<std::size_t>(1, fusions)));
      fuse_per_step_ns.push_back(fuse / static_cast<double>(cruise_steps));
    }
    checks.Ops(steps.size(), mismatched, "probes: EKF re-run diverged from the recorded estimate");
    probes.Set("estimation.ekf_predict_ns", Num(MedianOf(predict_ns)))
        .Set("estimation.ekf_fuse_ns", Num(MedianOf(fuse_ns)))
        .Set("estimation.ekf_fuse_ns_per_step", Num(MedianOf(fuse_per_step_ns)));
  }

  // control: position, attitude and rate loops plus the mixer on the
  // recorded estimate and setpoint, run from take-off, timed over cruise.
  {
    control::PositionControlConfig pos_cfg = cfg.position_control;
    pos_cfg.hover_thrust = sim::HoverThrustFraction(cfg.airframe);
    const control::Mixer mixer(control::MixerConfigFromQuadrotor(cfg.airframe));
    UAVRES_TRACE_SCOPE("probe/control/cascade");
    std::vector<double> passes;
    for (int p = 0; p < kProbePasses; ++p) {
      control::PositionController pos(pos_cfg);
      const control::AttitudeController att(cfg.attitude_control);
      control::RateController rate(cfg.rate_control);
      passes.push_back(WindowNsPerStep(cruise_begin, steps.size(), [&](std::size_t i) {
        const RecordedStep& s = steps[i];
        const auto att_sp = pos.Update(s.setpoint.sp, s.estimate.pos, s.estimate.vel, dt);
        const auto rate_sp = att.Update(att_sp.att, s.estimate.att);
        const auto ang = rate.Update(rate_sp, s.estimate.body_rate, dt);
        sink += mixer.Mix(att_sp.thrust, ang)[0];
      }));
    }
    probes.Set("control.cascade_ns", Num(MedianOf(passes)));
  }

  // sim: rigid-body physics driven open loop by the recorded commands from
  // take-off, timed over cruise.
  {
    UAVRES_TRACE_SCOPE("probe/sim/quad_step");
    std::vector<double> passes;
    for (int p = 0; p < kProbePasses; ++p) {
      sim::Environment env(cfg.wind, math::Rng{math::HashCombine(gold_spec.Seed(), 0x01)});
      sim::Quadrotor quad(cfg.airframe, &env);
      quad.ResetTo(drone.plan.home, yaw0);
      passes.push_back(WindowNsPerStep(cruise_begin, steps.size(), [&](std::size_t i) {
        quad.Step(steps[i].actuator.cmds, dt);
        sink += quad.state().pos.z;
      }));
    }
    probes.Set("sim.quad_step_ns", Num(MedianOf(passes)));
  }

  // uav: whole scalar steps over the cruise window and the fault window.
  auto step_window = [&](const uav::ExperimentSpec& spec, double from, double to,
                         std::size_t* stepped) {
    std::vector<double> passes;
    for (int p = 0; p < kProbePasses; ++p) {
      uav::Uav vehicle(uav::MakeUavConfig(spec.drone), spec.drone.plan, spec.fault, spec.Seed());
      while (vehicle.time() < from) vehicle.Step();
      std::size_t n = 0;
      const double t0 = NowS();
      while (vehicle.time() < to) {
        vehicle.Step();
        ++n;
        if (uav::EvaluateTerminal(vehicle, vehicle.time()).ended) break;
      }
      passes.push_back((NowS() - t0) * 1e9 / static_cast<double>(std::max<std::size_t>(1, n)));
      *stepped = n;
    }
    return MedianOf(passes);
  };
  {
    std::size_t n = 0;
    {
      UAVRES_TRACE_SCOPE("probe/uav/step_cruise");
      probes.Set("uav.step_ns.cruise", Num(step_window(gold_spec, kCruiseStartS, kCruiseEndS, &n)));
    }
    probes.Set("uav.steps.cruise", Num(n));
    {
      UAVRES_TRACE_SCOPE("probe/uav/step_fault");
      probes.Set("uav.step_ns.fault",
                 Num(step_window(fault_spec, kFaultStartS, kFaultStartS + kFaultDurationS, &n)));
    }
    probes.Set("uav.steps.fault", Num(n));
  }

  // uav: the batched SoA path, 16 gold lanes in lockstep over the cruise
  // window, per lane.
  {
    constexpr int kLanes = uav::BatchedUav::kMaxLanes;
    UAVRES_TRACE_SCOPE("probe/uav/batch_step");
    std::vector<double> passes;
    for (int p = 0; p < kProbePasses; ++p) {
      uav::BatchedUav batch;
      for (int lane = 0; lane < kLanes; ++lane) {
        batch.AddLane(cfg, drone.plan, std::nullopt,
                      uav::ExperimentSeed(opt.seed + static_cast<std::uint64_t>(lane), 0,
                                          std::nullopt));
      }
      while (batch.time() < kCruiseStartS) batch.Step();
      std::size_t n = 0;
      const double t0 = NowS();
      while (batch.time() < kCruiseEndS) {
        batch.Step();
        ++n;
      }
      passes.push_back((NowS() - t0) * 1e9 / static_cast<double>(n * kLanes));
    }
    probes.Set("uav.batch_lane_step_ns", Num(MedianOf(passes)));
  }

  // estimation: offline EKF replay of both logs, minus a decode-only pass.
  {
    auto decode_only = [](const std::string& log) {
      std::istringstream is(log);
      bus::BusLogHeader header;
      bus::BusFrame frame;
      std::size_t frames = 0;
      if (bus::ReadBusLogHeader(is, header)) {
        while (bus::ReadBusFrame(is, frame)) ++frames;
      }
      return frames;
    };
    std::vector<double> replay_s, decode_s;
    std::uint64_t replay_steps = 0;
    std::uint64_t replay_bad = 0;
    for (int p = 0; p < kProbePasses; ++p) {
      double t0 = NowS();
      {
        UAVRES_TRACE_SCOPE("probe/bus/decode");
        sink += static_cast<double>(decode_only(gold_log));
      }
      decode_s.push_back(NowS() - t0);
      t0 = NowS();
      std::optional<uav::BusReplayStats> r;
      {
        UAVRES_TRACE_SCOPE("probe/estimation/replay");
        std::istringstream is(gold_log);
        r = uav::ReplayEstimator(is, drone, uav::ReplayEstimatorKind::kEkf);
      }
      replay_s.push_back(NowS() - t0);
      if (!r || r->max_pos_err_m != 0.0) ++replay_bad;
      if (r) replay_steps = r->steps;
    }
    {
      std::istringstream is(fault_log);
      const auto r = uav::ReplayEstimator(is, drone, uav::ReplayEstimatorKind::kEkf);
      if (!r || r->max_pos_err_m != 0.0) ++replay_bad;
    }
    checks.Ops(kProbePasses + 1, replay_bad, "probes: ReplayEstimator max_pos_err_m != 0");
    probes.Set("estimation.replay_ns_per_step",
               Num((MedianOf(replay_s) - MedianOf(decode_s)) * 1e9 /
                   static_cast<double>(std::max<std::uint64_t>(1, replay_steps))))
        .Set("bus.decode_ns_per_step",
             Num(MedianOf(decode_s) * 1e9 /
                 static_cast<double>(std::max<std::uint64_t>(1, replay_steps))))
        .Set("replay_steps", Num(replay_steps))
        .Set("gold_log_bytes", Num(gold_log.size()))
        .Set("fault_log_bytes", Num(fault_log.size()));
  }

  // core: the store key of every spec in one mission's grid.
  {
    const core::Campaign campaign(core::CampaignConfig::Builder().SeedBase(opt.seed).Missions(1).Build());
    std::vector<uav::ExperimentSpec> specs{gold_spec};
    for (const auto& f : campaign.GridFaults()) specs.push_back({drone, 0, f, opt.seed});
    uav::RunConfig run;
    run.record_trajectory = false;
    constexpr int kRounds = 500;
    UAVRES_TRACE_SCOPE("probe/core/cache_key");
    probes.Set("core.cache_key_ns", Num(NsPerCall(specs.size() * kRounds, [&] {
                 std::uint64_t h = 0;
                 for (int r = 0; r < kRounds; ++r) {
                   for (const auto& s : specs) h ^= core::ExperimentCacheKey(run, s);
                 }
                 sink += static_cast<double>(h & 1U);
               })));
  }

  // A volatile store of the sum keeps the compiler from discarding any
  // probed call as dead code.
  [[maybe_unused]] static volatile double observed;
  observed = sink;
  out = probes;
}

}  // namespace perfbench
