#include "uav/batched_uav.h"

#include <cassert>

namespace uavres::uav {

int BatchedUav::AddLane(const UavConfig& cfg, const nav::MissionPlan& plan,
                        std::optional<core::FaultSpec> fault, std::uint64_t seed) {
  assert(lanes_ < kMaxLanes);
  if (lanes_ == 0) dt_ = 1.0 / cfg.control_rate_hz;
  const int lane = lanes_++;
  Launch(lane, cfg, plan, std::move(fault), seed);
  return lane;
}

void BatchedUav::RefillLane(int lane, const UavConfig& cfg,
                            const nav::MissionPlan& plan,
                            std::optional<core::FaultSpec> fault,
                            std::uint64_t seed) {
  assert(lane >= 0 && lane < lanes_);
  assert(!lane_active(lane) && "refill requires a retired lane");
  Launch(lane, cfg, plan, std::move(fault), seed);
}

void BatchedUav::Launch(int lane, const UavConfig& cfg, const nav::MissionPlan& plan,
                        std::optional<core::FaultSpec> fault, std::uint64_t seed) {
  assert(1.0 / cfg.control_rate_hz == dt_ && "all lanes in a group share one control clock");
  auto& vehicle = vehicles_[static_cast<std::size_t>(lane)];
  vehicle.reset();  // free the retired flight before building its successor
  vehicle = std::make_unique<Uav>(cfg, plan, std::move(fault), seed, step_count_);
  active_[static_cast<std::size_t>(lane)] = true;
}

void BatchedUav::Step() {
  time_ = static_cast<double>(step_count_) * dt_;
  for (int l = 0; l < lanes_; ++l) {
    if (!lane_active(l)) continue;
    Uav& vehicle = *vehicles_[static_cast<std::size_t>(l)];
    assert(vehicle.step_count() == step_count_);
    vehicle.Step();
  }
  ++step_count_;
}

bool BatchedUav::AnyActive() const {
  for (int l = 0; l < lanes_; ++l) {
    if (lane_active(l)) return true;
  }
  return false;
}

}  // namespace uavres::uav
